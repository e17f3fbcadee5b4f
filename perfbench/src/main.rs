//! Front-door benchmark of the continuum simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Run from the repository root. One run builds the workload's world,
//! runs the untimed reference where the workload has one and a warm-up
//! operation, reads the peak memory, then repeats the timed operation —
//! generate the seed's inputs, place or plan, simulate, check — for
//! `--seconds`, and finally rebuilds the world repeatedly for about two
//! seconds to time set-up. Every operation's outputs are checked; a
//! failed check counts as a failed operation and its time is dropped.
//!
//! Host cost is measured in reference seconds. Each timed operation (and
//! each group of set-ups) is followed by a fixed amount of reference work
//! (`calib`) that shares none of the program's code, and is priced at the
//! host time it took over the CPU time per unit of the reference around
//! it; 100 units make one reference second, about a CPU-second on the
//! 2-vCPU Xeon virtual machine the benchmark was written on. On that
//! shared machine the host's speed changes by up to 1.6x within seconds,
//! which moves CPU time from run to run as much as wall time, but moves
//! the reference with it. Host time is the process's CPU time (all
//! threads, `CLOCK_PROCESS_CPUTIME_ID`), which leaves out time the
//! hypervisor steals, but never more than the wall time: work that fans
//! out over short-lived threads is charged its wall time, because the CPU
//! time of spawning and joining them swings with the other vCPU's load.
//! Raw CPU- and wall-time throughput and the reference's own CPU cost are
//! reported per layer.
//!
//! With `--trace 0` the result line carries the end-to-end metrics, timed
//! with tracing off. With `--trace 1` traced and untraced operations
//! alternate: traced ones record spans around every call into a layer
//! and harvest the program's counters through an ambient telemetry sink,
//! their simulated outputs must equal the untraced ones bit for bit, and
//! the result line carries the per-layer metrics. The spans are written
//! once, at the end, to `perfbench/out/<workload>.trace.json`
//! (Chrome/Perfetto `trace_events`): every span of the first traced
//! operation, and the operation and call spans of the others.
//!
//! The last line of standard output is the result object; the line
//! before it records the host, the build and the outcome digest.

mod adapter;
mod calib;
mod check;
mod host;
mod spans;
mod stats;

use adapter::{Outcome, Run, SetupTimes, Workload};
use calib::{Meter, Priced};
use check::{check, check_same, Tally};
use host::{CpuTimes, HostClock};
use spans::{Recorder, Span, NO_SPAN};
use stats::{median, quantile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics: `(name, unit)`.
const END_TO_END: [(&str, &str); 7] = [
    ("req_per_ref_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("sim_goodput_hz", "1/s"),
    ("sim_served_frac", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
const PER_LAYER: [(&str, &str); 58] = [
    ("setup.topology_s", "s"),
    ("setup.env_s", "s"),
    ("setup.partition_s", "s"),
    ("setup.sites_s", "s"),
    ("gen.busy_s", "s"),
    ("place.calls", "count"),
    ("place.busy_s", "s"),
    ("place.call_p50_us", "us"),
    ("place.call_p99_us", "us"),
    ("plan.tasks", "count"),
    ("plan.busy_s", "s"),
    ("plan.us_per_task", "us"),
    ("exec.busy_s", "s"),
    ("exec.step_p50_us", "us"),
    ("exec.step_p99_us", "us"),
    ("executor.transfers", "count"),
    ("executor.stalls", "count"),
    ("executor.publishes", "count"),
    ("executor.replacements", "count"),
    ("executor.peak_live_requests", "count"),
    ("executor.peak_record_buffer", "count"),
    ("event_queue.scheduled", "count"),
    ("event_queue.cancelled", "count"),
    ("event_queue.compactions", "count"),
    ("flow_engine.recomputes", "count"),
    ("flow_engine.recomputed_flows", "count"),
    ("flow_engine.mean_batch", "count"),
    ("route_cache.hits", "count"),
    ("route_cache.misses", "count"),
    ("route_cache.hit_rate", "ratio"),
    ("route_cache.epoch_bumps", "count"),
    ("shard.busy_s", "s"),
    ("shard.windows", "count"),
    ("shard.us_per_window", "us"),
    ("shard.events", "count"),
    ("shard.messages", "count"),
    ("shard.util.mean_events", "count"),
    ("shard.util.imbalance", "ratio"),
    ("fabric.busy_s", "s"),
    ("fabric.invocations", "count"),
    ("fabric.batch.mean", "count"),
    ("fabric.drains", "count"),
    ("fabric.takeovers", "count"),
    ("fabric.reroutes", "count"),
    ("fabric.warm_hit_rate", "ratio"),
    ("fabric.route_hits", "count"),
    ("fabric.route_misses", "count"),
    ("obs.trace_overhead", "ratio"),
    ("slo.burn.short_peak", "ratio"),
    ("slo.burn.violations", "count"),
    ("slo.burn.anomalies", "count"),
    ("slo.recorder.frames_dropped", "count"),
    ("host.req_per_wall_s", "1/s"),
    ("host.req_per_cpu_s", "1/s"),
    ("host.ref_unit_ms", "ms"),
    ("host.cpu_util", "ratio"),
    ("host.sys_frac", "ratio"),
    ("sim.latency_samples", "count"),
];

/// One reference second: the work of this many units of the reference
/// computation (`calib`), about one CPU-second on the machine the
/// benchmark was written on.
const REF_UNITS_PER_S: f64 = 100.0;
/// Reference work run after each timed operation, as a share of the
/// warm-up operation's host time.
const CAL_SHARE: f64 = 0.3;
/// Set-ups per run: at least `SETUP_MIN_REPS`, then more until
/// `SETUP_BUDGET_S` of wall time has passed. Set-ups run in blocks of at
/// least `SETUP_BLOCK_S`, each followed by reference work; the run
/// reports the median set-up.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 10_000;
const SETUP_BUDGET_S: f64 = 2.0;
const SETUP_BLOCK_S: f64 = 0.02;
/// Host time of timed operations per priced block (`calib::Priced`).
const OP_PRICE_S: f64 = 2.0;
/// Timed operations per kind even when `--seconds` runs out first.
const MIN_OPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <openloop_stream|pinned_shards|federation_dispatch|batch_chaos> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| (1..=60).contains(&s))
                        .ok_or("--seconds takes a whole number from 1 to 60")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Render a number for JSON: non-finite values become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Timing splits of one traced operation, from its spans.
fn span_layers(spans: &[Span], first: usize) -> BTreeMap<&'static str, f64> {
    let ours = &spans[first..];
    let sum = |name: &str| -> f64 { ours.iter().filter(|s| s.name == name).map(Span::secs).sum() };
    // Time spent in the benchmark's own arrival iterator while the
    // program's `call` span was running.
    let inside = |call: &str| -> f64 {
        ours.iter()
            .filter(|s| matches!(s.name, "gen" | "place" | "assign"))
            .filter(|s| s.parent != NO_SPAN && spans[s.parent as usize].name == call)
            .map(Span::secs)
            .sum()
    };
    let us = |name: &str| -> Vec<f64> {
        ours.iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * 1e6)
            .collect()
    };
    let place = us("place");
    let steps = us("step");
    let mut m = BTreeMap::new();
    // The benchmark's own placement of generated requests is input
    // generation, not the program's placement layer.
    m.insert("gen.busy_s", sum("gen") + sum("assign"));
    m.insert("place.calls", place.len() as f64);
    m.insert("place.busy_s", sum("place"));
    m.insert("place.call_p50_us", quantile(&place, 0.50));
    m.insert("place.call_p99_us", quantile(&place, 0.99));
    m.insert("plan.busy_s", sum("plan"));
    m.insert("exec.busy_s", sum("exec") - inside("exec"));
    m.insert("exec.step_p50_us", quantile(&steps, 0.50));
    m.insert("exec.step_p99_us", quantile(&steps, 0.99));
    m.insert("shard.busy_s", sum("shard") - inside("shard"));
    m.insert("fabric.busy_s", sum("fabric"));
    m
}

struct Measured {
    peak_rss_mb: f64,
    /// Wall time of each set-up stage, per set-up.
    setups: Vec<SetupTimes>,
    /// Reference seconds of each set-up.
    setup_ref_s: Vec<f64>,
    /// The outcome every operation of the run reproduced.
    outcome: Outcome,
    /// Wall time of the untimed independent reference run, if any.
    reference_s: Option<f64>,
    untraced: Tally,
    traced: Tally,
    /// Per passing untraced operation: CPU seconds.
    op_cpu_s: Vec<f64>,
    /// Passing untraced operations priced in reference units.
    op_priced: Priced,
    /// User and system CPU time of the passing untraced operations.
    cpu_untraced: CpuTimes,
    /// CPU seconds per unit of reference work, per calibration.
    unit_s: Vec<f64>,
    /// Per traced operation: span-derived timings.
    traced_layers: Vec<BTreeMap<&'static str, f64>>,
    /// Program counters of the last traced operation (they repeat
    /// exactly across operations on the same inputs).
    counters: Vec<(&'static str, f64)>,
    recorder: Recorder,
}

fn measure(args: &Args) -> Measured {
    let mut setups: Vec<SetupTimes> = Vec::new();
    let (world, t) = adapter::setup(args.workload);
    setups.push(t);

    let mut untraced = Tally::default();
    let mut traced = Tally::default();
    // Untimed: the independent reference (pinned one-shard run) where
    // the workload has one, and a warm-up operation whose outputs every
    // later operation must reproduce.
    let t0 = Instant::now();
    let independent = adapter::reference(&world, args.seed);
    let reference_s = independent.as_ref().map(|_| t0.elapsed().as_secs_f64());
    let started = HostClock::start();
    let warm = adapter::run(&world, args.seed, &mut Recorder::off(), NO_SPAN).outcome;
    let warm_host_s = started.host_s();
    let warm_verdict = check(&warm).and_then(|()| match &independent {
        Some(r) => check_same(&warm, r, "pinned 2-shard vs 1-shard reference"),
        None => Ok(()),
    });
    untraced.record(warm_verdict, None);
    // Peak memory of one world and one operation, read before the
    // reference computation allocates its own.
    let peak_rss_mb = host::peak_rss_mb();
    let mut meter = Meter::new();
    meter.aim(CAL_SHARE * warm_host_s);

    let epoch = Instant::now();
    let mut recorder = if args.trace {
        Recorder::on(epoch)
    } else {
        Recorder::off()
    };
    let mut traced_layers = Vec::new();
    let mut counters = Vec::new();
    let mut op_cpu_s = Vec::new();
    let mut op_priced = Priced::new(OP_PRICE_S);
    let mut cpu_untraced = CpuTimes::default();
    let deadline = epoch + Duration::from_secs(args.seconds);
    loop {
        let enough =
            untraced.walls_s.len() >= MIN_OPS && (!args.trace || traced.walls_s.len() >= MIN_OPS);
        if enough && Instant::now() >= deadline {
            break;
        }
        // Untraced operation: the end-to-end measurement.
        let cpu0 = CpuTimes::now();
        let started = HostClock::start();
        let Run { outcome, .. } = adapter::run(&world, args.seed, &mut Recorder::off(), NO_SPAN);
        let (cpu_s, wall) = (started.cpu_s(), started.wall_s());
        let host_s = cpu_s.min(wall);
        let cpu = CpuTimes::now().since(cpu0);
        let unit_s = meter.around();
        let verdict = check(&outcome).and_then(|()| check_same(&outcome, &warm, "repeat run"));
        if untraced.record(verdict, Some(wall)) {
            cpu_untraced.add(cpu);
            op_cpu_s.push(cpu_s);
            op_priced.add(host_s, unit_s, 1);
        }
        if !args.trace {
            continue;
        }
        // Traced operation: spans plus the program's counters; its
        // simulated outputs must equal the untraced run's exactly.
        let first = recorder.spans().len();
        let op = recorder.open("op", NO_SPAN, None);
        let t0 = Instant::now();
        let run = adapter::run(&world, args.seed, &mut recorder, op);
        let wall = t0.elapsed().as_secs_f64();
        recorder.close(op);
        let verdict = check(&run.outcome)
            .and_then(|()| check_same(&run.outcome, &warm, "traced vs untraced"));
        if traced.record(verdict, Some(wall)) {
            traced_layers.push(span_layers(recorder.spans(), first));
            counters = run.layers;
        }
        if traced.attempted > 1 {
            recorder.drop_request_spans(first);
        }
    }
    drop(world);
    // Set-ups, each priced in reference seconds at the reference's mean
    // cost either side of its block.
    let mut setup_ref_s = Vec::new();
    meter.aim(CAL_SHARE * SETUP_BLOCK_S);
    let start = Instant::now();
    while setups.len() <= SETUP_MIN_REPS
        || (setups.len() <= SETUP_MAX_REPS && start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let block = HostClock::start();
        let mut host_s = Vec::new();
        while block.host_s() < SETUP_BLOCK_S {
            let started = HostClock::start();
            let (world, t) = adapter::setup(args.workload);
            host_s.push(started.host_s());
            drop(world);
            setups.push(t);
        }
        let ref_s = REF_UNITS_PER_S * meter.around();
        setup_ref_s.extend(host_s.iter().map(|s| s / ref_s));
    }
    Measured {
        peak_rss_mb,
        setups,
        setup_ref_s,
        outcome: warm,
        reference_s,
        untraced,
        traced,
        op_cpu_s,
        op_priced,
        cpu_untraced,
        unit_s: meter.unit_s,
        traced_layers,
        counters,
        recorder,
    }
}

fn end_to_end(m: &Measured) -> BTreeMap<&'static str, f64> {
    let o = &m.outcome;
    let mut v = BTreeMap::new();
    v.insert(
        "req_per_ref_s",
        o.offered as f64 * REF_UNITS_PER_S / m.op_priced.units_per_item(),
    );
    v.insert("setup_s", median(&m.setup_ref_s));
    v.insert("peak_rss_mb", m.peak_rss_mb);
    v.insert("sim_p50_ms", o.p50_s * 1e3);
    v.insert("sim_p99_ms", o.p99_s * 1e3);
    v.insert("sim_goodput_hz", o.goodput_hz());
    v.insert("sim_served_frac", o.completed as f64 / o.offered as f64);
    v
}

fn per_layer(m: &Measured) -> BTreeMap<&'static str, f64> {
    let mut v: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
    let setup = |f: fn(&SetupTimes) -> f64| median(&m.setups.iter().map(f).collect::<Vec<_>>());
    v.insert("setup.topology_s", setup(|t| t.topology_s));
    v.insert("setup.env_s", setup(|t| t.env_s));
    v.insert("setup.partition_s", setup(|t| t.partition_s));
    v.insert("setup.sites_s", setup(|t| t.sites_s));
    if let Some(first) = m.traced_layers.first() {
        for &key in first.keys() {
            let per_op: Vec<f64> = m.traced_layers.iter().map(|l| l[key]).collect();
            v.insert(key, median(&per_op));
        }
    }
    for &(k, x) in &m.counters {
        v.insert(k, x);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    v.insert(
        "plan.us_per_task",
        ratio(v["plan.busy_s"] * 1e6, v["plan.tasks"]),
    );
    v.insert(
        "shard.us_per_window",
        ratio(v["shard.busy_s"] * 1e6, v["shard.windows"]),
    );
    v.insert(
        "obs.trace_overhead",
        ratio(median(&m.traced.walls_s), median(&m.untraced.walls_s)),
    );
    v.insert(
        "host.req_per_wall_s",
        ratio(m.outcome.offered as f64, median(&m.untraced.walls_s)),
    );
    v.insert(
        "host.req_per_cpu_s",
        ratio(m.outcome.offered as f64, median(&m.op_cpu_s)),
    );
    v.insert("host.ref_unit_ms", median(&m.unit_s) * 1e3);
    let cpu = m.cpu_untraced;
    v.insert(
        "host.cpu_util",
        ratio(cpu.total(), m.untraced.walls_s.iter().sum()),
    );
    v.insert("host.sys_frac", ratio(cpu.sys_s, cpu.total()));
    v.insert("sim.latency_samples", m.outcome.samples as f64);
    v
}

fn metrics_json(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|&(k, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(k),
                num(values.get(k).copied().unwrap_or(0.0)),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn meta_json(args: &Args, m: &Measured) -> String {
    let o = &m.outcome;
    let command = format!(
        "cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload {} --seed {} --seconds {} --trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let failures: Vec<String> = m
        .untraced
        .failures
        .iter()
        .chain(&m.traced.failures)
        .take(8)
        .map(|f| json_str(f))
        .collect();
    format!(
        "{{\"meta\":{{\"workload\":{},\"seed\":{},\"nproc\":{},\"cpus_allowed\":{},\"git_sha\":{},\"rustc\":{},\"command\":{},\
\"digest\":\"{:016x}\",\"offered\":{},\"completed\":{},\"rejected\":{},\"dropped\":{},\"latency_samples\":{},\
\"samples_beyond_p99\":{},\"req_per_cpu_s\":{},\"ref_unit_ms\":{},\"reference_wall_s\":{},\"pinned_spanning_fraction\":{},\"untraced_ops\":{},\"traced_ops\":{},\"op_wall_s\":[{}],\"failures\":[{}]}}}}",
        json_str(args.workload.name()),
        args.seed,
        host::nproc(),
        json_str(&host::cpus_allowed()),
        json_str(&host::git_sha()),
        json_str(host::rustc_version()),
        json_str(&command),
        o.digest,
        o.offered,
        o.completed,
        o.rejected,
        o.dropped,
        o.samples,
        o.samples / 100,
        num(o.offered as f64 / median(&m.op_cpu_s)),
        num(median(&m.unit_s) * 1e3),
        m.reference_s.map_or("null".to_string(), num),
        (args.workload == Workload::PinnedShards)
            .then(adapter::pinned_spanning_fraction)
            .map_or("null".to_string(), num),
        m.untraced.walls_s.len(),
        m.traced.walls_s.len(),
        m.untraced.walls_s.iter().map(|&w| num(w)).collect::<Vec<_>>().join(","),
        failures.join(","),
    )
}

fn self_test() -> i32 {
    // Real reports: the pinned workload's 2-shard run and its 1-shard
    // reference, corrupted after the fact.
    let (world, _) = adapter::setup(Workload::PinnedShards);
    let reference = adapter::reference(&world, 1).expect("pinned workload has a reference");
    let good = adapter::run(&world, 1, &mut Recorder::off(), NO_SPAN).outcome;
    match check::self_test(&good, &reference) {
        Ok(t) => {
            println!(
                "{{\"self_test\":\"pass\",\"attempted\":{},\"failed\":{},\"timed\":{},\"rejections\":[{}]}}",
                t.attempted,
                t.failed,
                t.walls_s.len(),
                t.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(",")
            );
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--self-test") {
        std::process::exit(self_test());
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let m = measure(&args);
    let failed = m.untraced.failed + m.traced.failed;
    let attempted = m.untraced.attempted + m.traced.attempted;
    let values = if args.trace {
        metrics_json(&PER_LAYER, &per_layer(&m))
    } else {
        metrics_json(&END_TO_END, &end_to_end(&m))
    };
    let meta = meta_json(&args, &m);
    if args.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("{}.trace.json", args.workload.name()));
        let extra = format!("\"perfbench\":{meta},\"metrics\":{values}");
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, m.recorder.to_chrome_json(&extra)));
        match written {
            Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{meta}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        failed == 0,
        attempted,
        failed,
        values
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// The metric tables and workloads here match `BENCHMARK.json`.
    #[test]
    fn tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = serde_json::parse(&text).expect("valid JSON");
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = names(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_metrics_are_json() {
        let values: BTreeMap<&'static str, f64> = [("req_per_ref_s", 1.5), ("setup_s", f64::NAN)]
            .into_iter()
            .collect();
        let doc = serde_json::parse(&metrics_json(&END_TO_END, &values)).expect("valid JSON");
        let value = |k: &str| {
            doc.get(k)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
        };
        assert_eq!(value("req_per_ref_s"), Some(1.5));
        assert_eq!(value("setup_s"), Some(0.0));
        assert_eq!(value("sim_p99_ms"), Some(0.0));
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv(
            "--workload batch_chaos --seed 3 --seconds 10 --trace 1"
        ))
        .is_ok());
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv(
            "--workload batch_chaos --seed 3 --seconds 0 --trace 1"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload batch_chaos --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload batch_chaos --seed 3 --seconds 10")).is_err());
    }
}
