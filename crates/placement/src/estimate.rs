//! Schedule estimation: the contention-free performance model shared by
//! every placement policy.
//!
//! The estimator maintains a capacity profile per device (busy intervals ×
//! cores) and the location/availability of every data item, and answers
//! earliest-finish-time queries. Policies use it to *choose* placements;
//! [`crate::objective::evaluate`] uses it to score a fixed placement; the
//! simulated executor in `continuum-runtime` then charges the *contended*
//! truth (link sharing, queueing) for the chosen placement.

use crate::env::Env;
use continuum_model::DeviceId;
use continuum_sim::{SimDuration, SimTime};
use continuum_workflow::{Dag, DataId, TaskId};
use serde::{Deserialize, Serialize};

/// A placement: one device per task, indexed by `TaskId`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// `assignment[t]` is the device task `t` runs on.
    pub assignment: Vec<DeviceId>,
}

impl Placement {
    /// Device assigned to a task.
    pub fn device(&self, t: TaskId) -> DeviceId {
        self.assignment[t.0 as usize]
    }
}

/// One reserved busy interval on a device.
#[derive(Debug, Clone, Copy)]
struct Busy {
    start: SimTime,
    end: SimTime,
    cores: u32,
}

/// Capacity profile of one device.
///
/// Alongside the raw interval list, the timeline maintains a sweep-line
/// index: the sorted distinct endpoint times, the piecewise-constant core
/// usage after each endpoint, and a suffix maximum of that usage. Peak
/// queries then cost a binary search plus a walk of the endpoints inside
/// the window (`peak_usage`) or O(log B) flat (`peak_usage_from`) — the
/// seed recomputed usage from every interval at every candidate point,
/// O(B²) per query and O(B³) per `earliest_slot`.
#[derive(Debug, Clone)]
pub struct DeviceTimeline {
    cores: u32,
    busy: Vec<Busy>, // kept sorted by start
    /// Sorted distinct endpoint times of `busy`.
    times: Vec<SimTime>,
    /// Net core delta at `times[i]` (starts positive, ends negative).
    /// Ends and starts sharing a timestamp merge, which encodes the
    /// half-open `[start, end)` semantics: a task ending at T never
    /// overlaps one starting at T.
    delta: Vec<i64>,
    /// Cores in use during `[times[i], times[i+1])`.
    usage: Vec<u32>,
    /// `max(usage[i..])`, for open-ended peak queries.
    suffix_max: Vec<u32>,
}

impl DeviceTimeline {
    /// Empty timeline for a device with `cores` cores.
    pub fn new(cores: u32) -> Self {
        DeviceTimeline {
            cores,
            busy: Vec::new(),
            times: Vec::new(),
            delta: Vec::new(),
            usage: Vec::new(),
            suffix_max: Vec::new(),
        }
    }

    /// Index of the first endpoint strictly after `t`; `usage[idx - 1]`
    /// (or 0) is the core usage at `t` itself.
    fn sweep_index(&self, t: SimTime) -> usize {
        self.times.partition_point(|&x| x <= t)
    }

    fn usage_at_index(&self, idx: usize) -> u32 {
        if idx == 0 {
            0
        } else {
            self.usage[idx - 1]
        }
    }

    /// Maximum concurrent core usage over the window `[t, t + dur)`.
    fn peak_usage(&self, t: SimTime, dur: SimDuration) -> u32 {
        let end = t + dur;
        let idx = self.sweep_index(t);
        let mut peak = self.usage_at_index(idx);
        for i in idx..self.times.len() {
            if self.times[i] >= end {
                break;
            }
            peak = peak.max(self.usage[i]);
        }
        peak
    }

    /// Maximum concurrent usage anywhere in `[t, ∞)`.
    fn peak_usage_from(&self, t: SimTime) -> u32 {
        let idx = self.sweep_index(t);
        let later = self.suffix_max.get(idx).copied().unwrap_or(0);
        self.usage_at_index(idx).max(later)
    }

    /// Add `d` cores at endpoint `t`, keeping `times` sorted, unique, and
    /// free of net-zero entries (so every entry is a real usage change —
    /// the gap search below relies on that).
    fn insert_event(&mut self, t: SimTime, d: i64) {
        match self.times.binary_search(&t) {
            Ok(i) => {
                self.delta[i] += d;
                if self.delta[i] == 0 {
                    self.times.remove(i);
                    self.delta.remove(i);
                }
            }
            Err(i) => {
                self.times.insert(i, t);
                self.delta.insert(i, d);
            }
        }
    }

    /// Recompute running usage and its suffix maximum from the deltas.
    fn rebuild_sweep(&mut self) {
        let n = self.times.len();
        self.usage.resize(n, 0);
        self.suffix_max.resize(n, 0);
        let mut run = 0i64;
        for i in 0..n {
            run += self.delta[i];
            debug_assert!(run >= 0, "sweep usage went negative");
            self.usage[i] = run as u32;
        }
        let mut peak = 0u32;
        for i in (0..n).rev() {
            peak = peak.max(self.usage[i]);
            self.suffix_max[i] = peak;
        }
    }

    /// Earliest start `>= ready` at which `need` cores are free for `dur`.
    ///
    /// With `insertion`, gaps between reserved intervals are considered;
    /// without it, the task is appended after the last time the device is
    /// too busy (classic list scheduling, the ablation baseline).
    ///
    /// Implemented as a single sweep over the endpoint index: start at
    /// `ready`, and whenever a segment inside the trial window exceeds
    /// the spare capacity, jump the candidate to the next usage drop
    /// below the threshold. The candidate index only moves forward, so a
    /// query costs O(log B) for the initial binary search plus one walk
    /// of the endpoints it crosses — versus the seed's candidate ×
    /// peak-scan product, O(B²) ([`DeviceTimeline::earliest_slot_scan`],
    /// kept as the equivalence oracle). Append mode is a binary search on
    /// the non-increasing suffix maximum, O(log B).
    pub fn earliest_slot(
        &self,
        ready: SimTime,
        dur: SimDuration,
        need: u32,
        insertion: bool,
    ) -> SimTime {
        let need = need.min(self.cores);
        let spare = self.cores - need; // max tolerable concurrent usage
        if insertion {
            let mut c = ready;
            let mut i = self.sweep_index(ready);
            if self.usage_at_index(i) > spare {
                // Busy at `ready` itself: the candidate must move to the
                // first later segment with room. A usage drop is always an
                // interval end, so this lands on a seed-candidate point.
                let j = self.next_fit(i, spare);
                c = self.times[j];
                i = j + 1;
            }
            loop {
                if i >= self.times.len() || self.suffix_max[i] <= spare {
                    return c; // nothing later can violate the window
                }
                if self.times[i] >= c + dur {
                    return c; // window scanned clean
                }
                if self.usage[i] > spare {
                    let j = self.next_fit(i, spare);
                    c = self.times[j];
                    i = j + 1;
                } else {
                    i += 1;
                }
            }
        } else {
            // Append mode: the earliest start from which the device can
            // *permanently* spare `need` cores — no gap between existing
            // reservations is ever used.
            if self.peak_usage_from(ready) <= spare {
                return ready;
            }
            let idx = self.sweep_index(ready);
            let off = self.suffix_max[idx..].partition_point(|&m| m > spare);
            // In-range by construction: usage after the last endpoint is
            // zero, so the suffix maximum always drops to `spare` or less.
            self.times[idx + off]
        }
    }

    /// First endpoint index `>= i` whose segment usage fits under `spare`.
    /// Exists because usage after the last endpoint is zero.
    fn next_fit(&self, i: usize, spare: u32) -> usize {
        (i..self.times.len())
            .find(|&j| self.usage[j] <= spare)
            .expect("a slot always exists after the last busy interval")
    }

    /// Seed-era `earliest_slot`: collect candidate starts (ready + every
    /// busy end) and probe each with a peak query, O(B²) per call. Kept
    /// as the oracle the sweep implementation is proptested against.
    pub fn earliest_slot_scan(
        &self,
        ready: SimTime,
        dur: SimDuration,
        need: u32,
        insertion: bool,
    ) -> SimTime {
        let need = need.min(self.cores);
        let mut candidates: Vec<SimTime> = vec![ready];
        for b in &self.busy {
            if b.end > ready {
                candidates.push(b.end);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        if insertion {
            for c in candidates {
                if self.peak_usage(c, dur) + need <= self.cores {
                    return c;
                }
            }
            unreachable!("a slot always exists after the last busy interval");
        } else {
            for c in candidates {
                if self.peak_usage_from(c) + need <= self.cores {
                    return c;
                }
            }
            unreachable!("the device is idle after its last reservation");
        }
    }

    /// Reserve `need` cores over `[start, start + dur)`.
    pub fn reserve(&mut self, start: SimTime, dur: SimDuration, need: u32) {
        let need = need.min(self.cores);
        debug_assert!(
            self.peak_usage(start, dur) + need <= self.cores,
            "over-reserving device"
        );
        let b = Busy {
            start,
            end: start + dur,
            cores: need,
        };
        let pos = self.busy.partition_point(|x| x.start <= start);
        self.busy.insert(pos, b);
        self.insert_event(b.start, i64::from(need));
        self.insert_event(b.end, -i64::from(need));
        self.rebuild_sweep();
    }

    /// Release a reservation previously made with [`DeviceTimeline::reserve`]
    /// (same `start`/`dur`/`need`). The delta-cost annealer uses this to
    /// retract and re-place individual tasks without rebuilding the
    /// timeline.
    ///
    /// # Panics
    /// If no matching reservation exists.
    pub fn unreserve(&mut self, start: SimTime, dur: SimDuration, need: u32) {
        let need = need.min(self.cores);
        let end = start + dur;
        let lo = self.busy.partition_point(|x| x.start < start);
        let idx = self.busy[lo..]
            .iter()
            .position(|b| b.start == start && b.end == end && b.cores == need)
            .map(|i| lo + i)
            .expect("unreserve: no matching reservation");
        self.busy.remove(idx);
        self.remove_event(start, i64::from(need));
        self.remove_event(end, -i64::from(need));
        self.rebuild_sweep();
    }

    /// Undo one `insert_event(t, d)` contribution, restoring the
    /// no-net-zero-entries invariant.
    fn remove_event(&mut self, t: SimTime, d: i64) {
        match self.times.binary_search(&t) {
            Ok(i) => {
                self.delta[i] -= d;
                if self.delta[i] == 0 {
                    self.times.remove(i);
                    self.delta.remove(i);
                }
            }
            Err(i) => {
                // The endpoint had canceled to net zero and was dropped;
                // removing one side's contribution revives the other.
                self.times.insert(i, t);
                self.delta.insert(i, -d);
            }
        }
    }

    /// Total reserved core-seconds.
    pub fn busy_core_seconds(&self) -> f64 {
        self.busy
            .iter()
            .map(|b| b.end.since(b.start).as_secs_f64() * b.cores as f64)
            .sum()
    }

    /// End of the last reservation (time zero if none).
    pub fn horizon(&self) -> SimTime {
        self.busy
            .iter()
            .map(|b| b.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// A fully committed estimated schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EstimatedSchedule {
    /// The placement that was scheduled.
    pub placement: Placement,
    /// Start time per task.
    pub start: Vec<SimTime>,
    /// Finish time per task.
    pub finish: Vec<SimTime>,
}

impl EstimatedSchedule {
    /// Latest finish across tasks (zero for an empty DAG).
    pub fn makespan(&self) -> SimDuration {
        self.finish
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO)
    }

    /// Check that the schedule respects dependencies: every task starts at
    /// or after each predecessor's finish. Used by tests.
    pub fn respects_dependencies(&self, dag: &Dag) -> bool {
        dag.tasks().iter().all(|t| {
            dag.preds(t.id)
                .iter()
                .all(|p| self.finish[p.0 as usize] <= self.start[t.id.0 as usize])
        })
    }
}

/// Incremental schedule builder over an environment and DAG.
pub struct Estimator<'e> {
    pub(crate) env: &'e Env,
    pub(crate) dag: &'e Dag,
    pub(crate) timelines: Vec<DeviceTimeline>,
    pub(crate) assigned: Vec<Option<DeviceId>>,
    pub(crate) start: Vec<SimTime>,
    pub(crate) finish: Vec<Option<SimTime>>,
}

impl<'e> Estimator<'e> {
    /// Fresh estimator: all devices idle, no tasks placed.
    pub fn new(env: &'e Env, dag: &'e Dag) -> Self {
        Estimator {
            env,
            dag,
            timelines: env
                .fleet
                .devices()
                .iter()
                .map(|d| DeviceTimeline::new(d.spec.cores))
                .collect(),
            assigned: vec![None; dag.len()],
            start: vec![SimTime::ZERO; dag.len()],
            finish: vec![None; dag.len()],
        }
    }

    /// When data item `d` can be fully present at node `dst`, given current
    /// commitments. External items are available at their home at time 0.
    ///
    /// # Panics
    /// If the item's producer has not been committed yet, or no route
    /// exists.
    pub fn data_arrival(&self, d: DataId, dst: continuum_net::NodeId) -> SimTime {
        let item = self.dag.data(d);
        let (src, avail) = match self.dag.producer(d) {
            None => {
                let home = item
                    .home
                    .expect("validated DAG has homes for external items");
                (home, SimTime::ZERO)
            }
            Some(p) => {
                let dev = self.assigned[p.0 as usize].expect("producer not committed");
                let f = self.finish[p.0 as usize].expect("producer not committed");
                (self.env.node_of(dev), f)
            }
        };
        // O(1) cached lookup, bit-identical to materializing the
        // canonical path and asking it — which the seed did per probe.
        self.env
            .arrival(src, dst, avail, item.bytes)
            .expect("disconnected topology")
    }

    /// Earliest time all inputs of `t` can be present at `device`'s node.
    pub fn ready_time(&self, t: TaskId, device: DeviceId) -> SimTime {
        let node = self.env.node_of(device);
        self.dag
            .task(t)
            .inputs
            .iter()
            .map(|&d| self.data_arrival(d, node))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// The latest finish among the producers of `t`'s inputs (time zero
    /// for external inputs): no device's [`Estimator::ready_time`] is
    /// earlier, since a transfer starts once its item exists.
    ///
    /// # Panics
    /// If any producer of `t` is uncommitted.
    pub(crate) fn ready_floor(&self, t: TaskId) -> SimTime {
        self.dag
            .task(t)
            .inputs
            .iter()
            .filter_map(|&d| self.dag.producer(d))
            .map(|p| self.finish[p.0 as usize].expect("producer not committed"))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Execution time of `t` on `device`.
    pub fn exec_time(&self, t: TaskId, device: DeviceId) -> SimDuration {
        let task = self.dag.task(t);
        let spec = &self.env.fleet.device(device).spec;
        spec.compute_time_parallel(task.work_flops, task.parallelism)
    }

    /// Hypothetical (start, finish) of `t` on `device` without committing.
    pub fn eft(&self, t: TaskId, device: DeviceId, insertion: bool) -> (SimTime, SimTime) {
        let ready = self.ready_time(t, device);
        let dur = self.exec_time(t, device);
        let task = self.dag.task(t);
        let need = task.occupancy(self.env.fleet.device(device).spec.cores);
        let start = self.timelines[device.0 as usize].earliest_slot(ready, dur, need, insertion);
        (start, start + dur)
    }

    /// Commit `t` to `device`; returns (start, finish).
    ///
    /// # Panics
    /// If any predecessor of `t` is uncommitted.
    pub fn commit(&mut self, t: TaskId, device: DeviceId, insertion: bool) -> (SimTime, SimTime) {
        let (start, fin) = self.eft(t, device, insertion);
        let dur = self.exec_time(t, device);
        let need = self
            .dag
            .task(t)
            .occupancy(self.env.fleet.device(device).spec.cores);
        self.timelines[device.0 as usize].reserve(start, dur, need);
        self.assigned[t.0 as usize] = Some(device);
        self.start[t.0 as usize] = start;
        self.finish[t.0 as usize] = Some(fin);
        (start, fin)
    }

    /// Finalize into a schedule.
    ///
    /// # Panics
    /// If any task is uncommitted.
    pub fn into_schedule(self) -> EstimatedSchedule {
        let assignment: Vec<DeviceId> = self
            .assigned
            .into_iter()
            .map(|a| a.expect("uncommitted task"))
            .collect();
        let finish: Vec<SimTime> = self
            .finish
            .into_iter()
            .map(|f| f.expect("uncommitted task"))
            .collect();
        EstimatedSchedule {
            placement: Placement { assignment },
            start: self.start,
            finish,
        }
    }

    /// Busy core-seconds accumulated so far per device.
    pub fn busy_core_seconds(&self) -> Vec<f64> {
        self.timelines
            .iter()
            .map(|t| t.busy_core_seconds())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_sim::SimDuration;

    #[test]
    fn timeline_single_core_serializes() {
        let mut tl = DeviceTimeline::new(1);
        let d = SimDuration::from_secs(10);
        let s1 = tl.earliest_slot(SimTime::ZERO, d, 1, true);
        assert_eq!(s1, SimTime::ZERO);
        tl.reserve(s1, d, 1);
        let s2 = tl.earliest_slot(SimTime::ZERO, d, 1, true);
        assert_eq!(s2, SimTime::from_secs(10));
    }

    #[test]
    fn timeline_multicore_overlaps() {
        let mut tl = DeviceTimeline::new(4);
        let d = SimDuration::from_secs(10);
        for _ in 0..4 {
            let s = tl.earliest_slot(SimTime::ZERO, d, 1, true);
            assert_eq!(s, SimTime::ZERO);
            tl.reserve(s, d, 1);
        }
        // Fifth task must wait.
        let s = tl.earliest_slot(SimTime::ZERO, d, 1, true);
        assert_eq!(s, SimTime::from_secs(10));
    }

    #[test]
    fn insertion_finds_gap_append_does_not() {
        let mut tl = DeviceTimeline::new(1);
        // Busy [0, 10) and [20, 30): a 10s gap at [10, 20).
        tl.reserve(SimTime::ZERO, SimDuration::from_secs(10), 1);
        tl.reserve(SimTime::from_secs(20), SimDuration::from_secs(10), 1);
        let gap = tl.earliest_slot(SimTime::ZERO, SimDuration::from_secs(5), 1, true);
        assert_eq!(gap, SimTime::from_secs(10));
        let append = tl.earliest_slot(SimTime::ZERO, SimDuration::from_secs(5), 1, false);
        assert_eq!(append, SimTime::from_secs(30));
    }

    #[test]
    fn insertion_skips_too_small_gap() {
        let mut tl = DeviceTimeline::new(1);
        tl.reserve(SimTime::ZERO, SimDuration::from_secs(10), 1);
        tl.reserve(SimTime::from_secs(12), SimDuration::from_secs(10), 1);
        // 2s gap cannot fit 5s task.
        let s = tl.earliest_slot(SimTime::ZERO, SimDuration::from_secs(5), 1, true);
        assert_eq!(s, SimTime::from_secs(22));
    }

    #[test]
    fn need_clamped_to_cores() {
        let mut tl = DeviceTimeline::new(2);
        let s = tl.earliest_slot(SimTime::ZERO, SimDuration::from_secs(1), 100, true);
        assert_eq!(s, SimTime::ZERO);
        tl.reserve(s, SimDuration::from_secs(1), 100);
        assert!((tl.busy_core_seconds() - 2.0).abs() < 1e-9);
    }

    /// Brute-force peak over `[t, end)` straight from the interval list,
    /// the semantics the sweep-line index must reproduce.
    fn brute_peak(tl: &DeviceTimeline, t: SimTime, end: SimTime) -> u32 {
        let mut points: Vec<SimTime> = vec![t];
        points.extend(
            tl.busy
                .iter()
                .map(|b| b.start)
                .filter(|&s| s > t && s < end),
        );
        points
            .iter()
            .map(|&p| {
                tl.busy
                    .iter()
                    .filter(|b| b.start <= p && b.end > p)
                    .map(|b| b.cores)
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn sweep_line_matches_brute_force() {
        let mut tl = DeviceTimeline::new(64);
        // Deterministic pseudo-random reservations, including shared
        // endpoints and zero-length gaps.
        let mut x = 0x1234_5678u64;
        for _ in 0..60 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let start = SimTime::from_secs((x >> 33) % 50);
            let dur = SimDuration::from_secs((x >> 21) % 7 + 1);
            let cores = ((x >> 11) % 3 + 1) as u32;
            tl.busy.push(Busy {
                start,
                end: start + dur,
                cores,
            });
            tl.insert_event(start, i64::from(cores));
            tl.insert_event(start + dur, -i64::from(cores));
        }
        tl.busy.sort_unstable_by_key(|b| b.start);
        tl.rebuild_sweep();
        for t in 0..60u64 {
            for d in 1..8u64 {
                let (from, dur) = (SimTime::from_secs(t), SimDuration::from_secs(d));
                assert_eq!(
                    tl.peak_usage(from, dur),
                    brute_peak(&tl, from, from + dur),
                    "window [{t}, {}s)",
                    t + d
                );
            }
            let far = SimTime::from_secs(1_000_000);
            assert_eq!(
                tl.peak_usage_from(SimTime::from_secs(t)),
                brute_peak(&tl, SimTime::from_secs(t), far)
            );
        }
    }

    fn lcg(x: u64) -> u64 {
        x.wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
    }

    #[test]
    fn sweep_slot_matches_scan_oracle() {
        // Random probe/commit interleavings at several core widths; the
        // sweep `earliest_slot` must agree with the seed scan everywhere.
        let mut x = 0x9E37_79B9u64;
        for cores in [1u32, 2, 3, 8] {
            let mut tl = DeviceTimeline::new(cores);
            for _ in 0..60 {
                x = lcg(x);
                let ready = SimTime::from_secs((x >> 33) % 40);
                x = lcg(x);
                let dur = SimDuration::from_secs((x >> 21) % 6 + 1);
                x = lcg(x);
                let need = ((x >> 11) % u64::from(cores) + 1) as u32;
                x = lcg(x);
                let insertion = x & 1 == 0;
                let got = tl.earliest_slot(ready, dur, need, insertion);
                let want = tl.earliest_slot_scan(ready, dur, need, insertion);
                assert_eq!(
                    got, want,
                    "cores={cores} ready={ready:?} dur={dur:?} need={need} ins={insertion}"
                );
                if x & 2 == 0 {
                    tl.reserve(got, dur, need);
                }
            }
        }
    }

    #[test]
    fn unreserve_restores_timeline() {
        let mut tl = DeviceTimeline::new(4);
        tl.reserve(SimTime::ZERO, SimDuration::from_secs(10), 2);
        tl.reserve(SimTime::from_secs(10), SimDuration::from_secs(5), 4);
        tl.reserve(SimTime::from_secs(4), SimDuration::from_secs(2), 1);
        let times = tl.times.clone();
        let delta = tl.delta.clone();
        let usage = tl.usage.clone();
        // This reservation's end lands on the shared endpoint at t=10.
        tl.reserve(SimTime::from_secs(2), SimDuration::from_secs(8), 1);
        tl.unreserve(SimTime::from_secs(2), SimDuration::from_secs(8), 1);
        assert_eq!(tl.times, times);
        assert_eq!(tl.delta, delta);
        assert_eq!(tl.usage, usage);
        assert_eq!(tl.busy.len(), 3);
    }

    #[test]
    fn unreserve_revives_canceled_endpoint() {
        // An end (-1) and a start (+1) meeting at t=10 cancel to net zero
        // and drop the endpoint entry; retracting one side revives the
        // other's contribution.
        let mut tl = DeviceTimeline::new(2);
        tl.reserve(SimTime::ZERO, SimDuration::from_secs(10), 1);
        tl.reserve(SimTime::from_secs(10), SimDuration::from_secs(5), 1);
        assert!(!tl.times.contains(&SimTime::from_secs(10)));
        tl.unreserve(SimTime::ZERO, SimDuration::from_secs(10), 1);
        assert_eq!(
            tl.earliest_slot(SimTime::ZERO, SimDuration::from_secs(20), 2, true),
            SimTime::from_secs(15)
        );
        assert_eq!(
            tl.earliest_slot(SimTime::ZERO, SimDuration::from_secs(5), 1, true),
            SimTime::ZERO
        );
    }

    #[test]
    fn horizon_tracks_latest_end() {
        let mut tl = DeviceTimeline::new(2);
        assert_eq!(tl.horizon(), SimTime::ZERO);
        tl.reserve(SimTime::from_secs(5), SimDuration::from_secs(3), 1);
        assert_eq!(tl.horizon(), SimTime::from_secs(8));
    }
}
