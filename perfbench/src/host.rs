//! Host-side measurement from `/proc/self`, standard library only, plus
//! the metadata recorded with every result.

use std::fs;
use std::time::Instant;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// is 100 on every architecture the kernel exports to user space.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time consumed so far, split into user and system time.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    /// Read `utime` and `stime` (fields 14 and 15) of `/proc/self/stat`.
    /// Returns zeros where `/proc` is unavailable.
    pub fn now() -> CpuTimes {
        let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
            return CpuTimes::default();
        };
        // The command name (field 2) may contain spaces; every field we
        // need follows its closing parenthesis.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // `rest` starts at field 3 (state), so field k sits at k - 3.
        let tick = |k: usize| {
            fields
                .get(k - 3)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
                / TICKS_PER_S
        };
        CpuTimes {
            user_s: tick(14),
            sys_s: tick(15),
        }
    }

    /// CPU time spent since `earlier`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    pub fn add(&mut self, other: CpuTimes) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
    }

    pub fn total(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// One `Name:\tvalue` line of `/proc/self/status`.
fn status_field(name: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix(name)
            .and_then(|r| r.strip_prefix(':'))
            .map(|v| v.trim().to_string())
    })
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on (`Cpus_allowed_list`).
pub fn cpus_allowed() -> String {
    status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_string())
}

/// Threads the program's fan-out may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Commit of the checkout the benchmark runs in, read from `.git`
/// without starting a process; `unknown` outside a git work tree.
pub fn git_sha() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Version of the compiler that built the benchmark.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of the whole process (all threads) in seconds, at nanosecond
/// resolution, from the C library the standard library already links.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark supports).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Host time of a piece of work: its CPU time, but never more than its
/// wall time (see the crate documentation).
pub struct HostClock {
    cpu0: f64,
    wall0: Instant,
}

impl HostClock {
    pub fn start() -> HostClock {
        HostClock {
            cpu0: process_cpu_s(),
            wall0: Instant::now(),
        }
    }

    /// Process CPU seconds since `start`.
    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu0
    }

    /// Wall seconds since `start`.
    pub fn wall_s(&self) -> f64 {
        self.wall0.elapsed().as_secs_f64()
    }

    /// Host seconds since `start`.
    pub fn host_s(&self) -> f64 {
        self.cpu_s().min(self.wall_s())
    }
}
