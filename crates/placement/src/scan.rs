//! Class-bounded earliest-finish candidate scans.
//!
//! Every EFT policy asks the same question per task: which feasible
//! device minimizes `(finish, id)`? The seed probed every feasible device.
//! This scan probes whole device classes ([`Env::spec_classes`]) in order
//! of a lower bound on their finish and stops once no remaining class can
//! win, so the pick is the same `(finish, id)` minimum as the full scan.
//!
//! The bound: a task cannot start before `floor`, the latest finish among
//! the producers of its inputs (data moves after it is made), and a
//! device's finish is `start + exec` with `exec` fixed by the spec fields
//! the class shares. So every device in a class finishes at or after
//! `floor + exec(class)`. A class whose bound is *strictly* greater than
//! the best finish so far holds no winner; an equal bound may still hold
//! an equal finish at a lower id, so it is scanned.

use crate::env::{admits, no_feasible_device, Env};
use continuum_model::DeviceId;
use continuum_net::Tier;
use continuum_sim::SimTime;
use continuum_workflow::Task;

/// Candidate pools smaller than this are always scanned serially: the
/// fork/join overhead outweighs a handful of EFT probes.
const PAR_SCAN_MIN: usize = 16;

/// The minimum-`(finish, id)` feasible device for `task`, with its finish.
///
/// `restrict` narrows the candidates to a tier range, falling back to the
/// whole feasible set when the range would empty it. `floor` must be a
/// lower bound on the start `finish` implies for every device, and
/// `finish` must add the task's class-determined execution time to that
/// start — the contract the estimator and the online placer both meet.
/// With `parallel`, classes are still visited in order, and large
/// classes fan their probes out under rayon; the reduction uses the same
/// total order, so the pick does not depend on the thread count.
///
/// # Panics
/// If no device satisfies the task's constraints.
pub(crate) fn min_finish_device<F>(
    env: &Env,
    task: &Task,
    restrict: Option<(Tier, Tier)>,
    floor: SimTime,
    parallel: bool,
    finish: F,
) -> (SimTime, DeviceId)
where
    F: Fn(DeviceId) -> SimTime + Sync,
{
    #[cfg(test)]
    if tests::FULL_SCAN.with(std::cell::Cell::get) {
        return full_scan(env, task, restrict, &finish);
    }
    let c = &task.constraints;
    let spec = |d: DeviceId| &env.fleet.device(d).spec;
    if let Some(pin) = c.pinned_node {
        // A node hosts a handful of devices: probe them all.
        let feas: Vec<DeviceId> = env
            .fleet
            .at_node(pin)
            .iter()
            .copied()
            .filter(|&d| admits(c, spec(d)))
            .collect();
        if feas.is_empty() {
            no_feasible_device(task);
        }
        let cands = restricted(feas, restrict, |d| spec(d).tier);
        return scan(&cands, parallel, &finish);
    }
    let feas: Vec<&[DeviceId]> = env
        .spec_classes
        .iter()
        .map(Vec::as_slice)
        .filter(|k| admits(c, spec(k[0])))
        .collect();
    if feas.is_empty() {
        no_feasible_device(task);
    }
    let mut bounded: Vec<(SimTime, &[DeviceId])> = restricted(feas, restrict, |k| spec(k[0]).tier)
        .into_iter()
        .map(|k| {
            let exec = spec(k[0]).compute_time_parallel(task.work_flops, task.parallelism);
            (floor + exec, k)
        })
        .collect();
    bounded.sort_unstable_by_key(|&(bound, k)| (bound, k[0]));
    let mut best: Option<(SimTime, DeviceId)> = None;
    for (bound, k) in bounded {
        if best.is_some_and(|(fin, _)| bound > fin) {
            break;
        }
        let pick = scan(k, parallel, &finish);
        best = Some(best.map_or(pick, |b| b.min(pick)));
    }
    best.expect("feasible set is non-empty")
}

/// `items` whose tier lies in `restrict`, or all of `items` when there is
/// no restriction or it would leave nothing.
fn restricted<T: Copy>(
    items: Vec<T>,
    restrict: Option<(Tier, Tier)>,
    tier: impl Fn(T) -> Tier,
) -> Vec<T> {
    let Some((lo, hi)) = restrict else {
        return items;
    };
    let r: Vec<T> = items
        .iter()
        .copied()
        .filter(|&x| (lo..=hi).contains(&tier(x)))
        .collect();
    if r.is_empty() {
        items
    } else {
        r
    }
}

/// Minimum `(finish, id)` over a non-empty candidate list.
fn scan<F>(cands: &[DeviceId], parallel: bool, finish: &F) -> (SimTime, DeviceId)
where
    F: Fn(DeviceId) -> SimTime + Sync,
{
    let score = |&d: &DeviceId| (finish(d), d);
    // A single-threaded pool would pay the materialization overhead with
    // no upside; stay on the allocation-free serial scan there.
    if parallel && cands.len() >= PAR_SCAN_MIN && rayon::current_num_threads() > 1 {
        use rayon::prelude::*;
        let scored: Vec<(SimTime, DeviceId)> = cands.into_par_iter().map(score).collect();
        scored.into_iter().min()
    } else {
        cands.iter().map(score).min()
    }
    .expect("candidate set is non-empty")
}

/// The seed's scan, kept as the oracle the class-bounded scan is tested
/// against: probe every feasible device (after the tier restriction, if
/// it leaves any), serially.
#[cfg(test)]
fn full_scan<F>(
    env: &Env,
    task: &Task,
    restrict: Option<(Tier, Tier)>,
    finish: &F,
) -> (SimTime, DeviceId)
where
    F: Fn(DeviceId) -> SimTime,
{
    let feas = env.feasible_devices(task);
    let restricted: Option<Vec<DeviceId>> = restrict.and_then(|(lo, hi)| {
        let r: Vec<DeviceId> = feas
            .iter()
            .copied()
            .filter(|&d| {
                let tier = env.fleet.device(d).spec.tier;
                tier >= lo && tier <= hi
            })
            .collect();
        (!r.is_empty()).then_some(r)
    });
    let cands: &[DeviceId] = restricted.as_deref().unwrap_or(&feas);
    cands
        .iter()
        .map(|&d| (finish(d), d))
        .min()
        .expect("feasible set is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::EstimatedSchedule;
    use crate::policies::{
        CpopPlacer, GreedyEftPlacer, HeftPlacer, MaxMinPlacer, MinMinPlacer, Placer, TierPlacer,
    };
    use crate::OnlinePlacer;
    use continuum_model::{catalog, standard_fleet, DeviceClass, DeviceSpec, Fleet};
    use continuum_net::{continuum, BuiltContinuum, ContinuumSpec, NodeId};
    use continuum_sim::Rng;
    use continuum_workflow::{
        inference_stream, layered_random, Constraints, Dag, DataId, LayeredSpec, StreamSpec,
    };
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Routes [`min_finish_device`] to [`full_scan`] on this thread.
        pub(super) static FULL_SCAN: Cell<bool> = const { Cell::new(false) };
    }

    /// Run `f` with every candidate scan on this thread replaced by the
    /// full-scan oracle (reset on unwind, so a failing case cannot leak
    /// the oracle into the next one).
    fn with_full_scan<R>(f: impl FnOnce() -> R) -> R {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                FULL_SCAN.with(|c| c.set(false));
            }
        }
        FULL_SCAN.with(|c| c.set(true));
        let _reset = Reset;
        f()
    }

    /// Both scans' results for `f`: `(class-bounded, oracle)`.
    fn both<R>(f: impl Fn() -> R) -> (R, R) {
        (f(), with_full_scan(&f))
    }

    fn assert_same_schedule(label: &str, (pruned, full): (EstimatedSchedule, EstimatedSchedule)) {
        assert_eq!(pruned, full, "{label}: placement, start or finish differs");
    }

    /// Every batch EFT policy, insertion on and off, builds the same
    /// schedule under both scans.
    fn check_batch_policies(env: &Env, dag: &Dag) {
        for insertion in [true, false] {
            for parallel in [true, false] {
                let heft = HeftPlacer {
                    insertion,
                    parallel,
                };
                assert_same_schedule("heft", both(|| heft.schedule(env, dag)));
            }
            let greedy = GreedyEftPlacer { insertion };
            assert_same_schedule("greedy", both(|| greedy.schedule(env, dag)));
        }
        assert_same_schedule("cpop", both(|| CpopPlacer::default().schedule(env, dag)));
        assert_same_schedule("min-min", both(|| MinMinPlacer.schedule(env, dag)));
        assert_same_schedule("max-min", both(|| MaxMinPlacer.schedule(env, dag)));
        for tier in [TierPlacer::edge_only(), TierPlacer::cloud_only()] {
            let (pruned, full) = both(|| tier.place(env, dag));
            assert_eq!(pruned, full, "{}", tier.name());
        }
    }

    /// The online placer predicts the same placement and completion for
    /// every request of a stream, as its lanes fill.
    fn check_online(env: &Env, reqs: &[(SimTime, Dag)]) {
        let placers = [
            OnlinePlacer::continuum(env),
            OnlinePlacer::cloud_only(env),
            OnlinePlacer::edge_only(env),
            OnlinePlacer::with_tiers(env, Some((Tier::Fog, Tier::Hpc)), "online-fog-up"),
        ];
        for placer in placers {
            let run = || {
                let mut p = placer.clone();
                reqs.iter()
                    .map(|(at, dag)| p.place_request(env, dag, *at))
                    .collect::<Vec<_>>()
            };
            let (pruned, full) = both(run);
            assert_eq!(pruned, full, "{}", placer.name());
        }
    }

    /// A small continuum whose fleet is built with `Fleet::add` from a
    /// palette with duplicate specs, specs differing only in memory or
    /// tier, and several devices per node, in a shuffled id order.
    fn mixed_env(rng: &mut Rng) -> (BuiltContinuum, Env) {
        let built = continuum(&ContinuumSpec {
            fogs: 2,
            edges_per_fog: 2,
            sensors_per_edge: 3,
            ..Default::default()
        });
        let gw = catalog::spec(DeviceClass::EdgeGateway);
        let palette: Vec<DeviceSpec> = vec![
            catalog::spec(DeviceClass::SensorMote),
            gw.clone(),
            // Same speed as a gateway, more memory: a separate class
            // with equal bounds (ties across classes).
            DeviceSpec {
                mem_bytes: gw.mem_bytes * 4,
                ..gw.clone()
            },
            // Same speed, another tier.
            DeviceSpec {
                tier: Tier::Fog,
                ..gw
            },
            catalog::spec(DeviceClass::FogServer),
            catalog::spec(DeviceClass::CloudVm),
            catalog::spec(DeviceClass::GpuAccelerator),
            catalog::spec(DeviceClass::HpcNode),
        ];
        let n_nodes = built.topology.node_count();
        let mut fleet = Fleet::new();
        // Every node gets at least one device, so pins always resolve.
        let mut slots: Vec<usize> = (0..n_nodes).collect();
        for _ in 0..rng.index(2 * n_nodes) {
            slots.push(rng.index(n_nodes));
        }
        rng.shuffle(&mut slots);
        for node in slots {
            fleet.add(NodeId(node as u32), rng.choose(&palette).clone());
        }
        let env = Env::new(built.topology.clone(), fleet);
        (built, env)
    }

    /// Constraints some device `d` satisfies, drawn to exercise pins,
    /// tier ranges and memory floors that exclude whole classes.
    fn constraints_for(rng: &mut Rng, env: &Env) -> Constraints {
        let d = rng.choose(env.fleet.devices());
        let tier_range = match rng.index(3) {
            0 => None,
            _ => {
                let lo = rng.index(d.spec.tier as usize + 1);
                let hi = d.spec.tier as usize + rng.index(Tier::ALL.len() - d.spec.tier as usize);
                Some((Tier::ALL[lo], Tier::ALL[hi]))
            }
        };
        Constraints {
            pinned_node: (rng.index(4) == 0).then_some(d.node),
            tier_range,
            min_mem_bytes: [0, d.spec.mem_bytes / 2, d.spec.mem_bytes][rng.index(3)],
        }
    }

    /// A random layered DAG over `env` with constrained tasks, zero-work
    /// and zero-byte cases (equal-finish ties), and external inputs born
    /// anywhere.
    fn constrained_dag(rng: &mut Rng, env: &Env, tasks: usize) -> Dag {
        let n_nodes = env.topology.node_count();
        let mut g = Dag::new("mixed");
        let mut made: Vec<DataId> = Vec::new();
        let bytes = |rng: &mut Rng| [0, 1 << 10, 1 << 20, 1 << 26][rng.index(4)];
        for i in 0..tasks {
            let mut inputs = Vec::new();
            if made.is_empty() || rng.index(3) == 0 {
                let home = NodeId(rng.index(n_nodes) as u32);
                inputs.push(g.add_input(format!("in{i}"), bytes(rng), home));
            }
            for _ in 0..rng.index(3) {
                if let Some(&d) = made.get(rng.index(made.len().max(1))) {
                    if !inputs.contains(&d) {
                        inputs.push(d);
                    }
                }
            }
            let out = g.add_item(format!("d{i}"), bytes(rng));
            let work = [0.0, 1e6, 1e9, 3e10][rng.index(4)];
            let par = 1 + rng.index(8) as u32;
            let c = constraints_for(rng, env);
            g.add_task_full(format!("t{i}"), work, par, inputs, vec![out], c);
            made.push(out);
        }
        g
    }

    /// A stream of constrained requests arriving faster than the fleet
    /// drains them, so lanes fill and queue waits dominate.
    fn constrained_stream(rng: &mut Rng, env: &Env, n: usize) -> Vec<(SimTime, Dag)> {
        let mut at = SimTime::ZERO;
        (0..n)
            .map(|_| {
                at += continuum_sim::SimDuration::from_millis(rng.index(50) as u64);
                let tasks = 1 + rng.index(4);
                (at, constrained_dag(rng, env, tasks))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// The class-bounded scan picks exactly what the full scan picks
        /// for every batch policy on the standard continuum.
        #[test]
        fn class_bounded_batch_matches_full_scan(seed in any::<u64>()) {
            let built = continuum(&ContinuumSpec::default());
            let env = Env::new(built.topology.clone(), standard_fleet(&built));
            let mut rng = Rng::new(seed);
            let dag = layered_random(
                &mut rng,
                &LayeredSpec { tasks: 30, source: built.sensors[0], ..Default::default() },
            );
            check_batch_policies(&env, &dag);
        }

        /// ... and on `Fleet::add` fleets with duplicate specs, several
        /// devices per node, pins, tier ranges, memory floors and ties.
        #[test]
        fn class_bounded_batch_matches_full_scan_mixed(seed in any::<u64>()) {
            let mut rng = Rng::new(seed);
            let (_, env) = mixed_env(&mut rng);
            let dag = constrained_dag(&mut rng, &env, 24);
            check_batch_policies(&env, &dag);
        }

        /// The online placer agrees with the full scan request by request
        /// on the standard continuum's inference stream.
        #[test]
        fn class_bounded_online_matches_full_scan(seed in any::<u64>(), rate in 5.0f64..400.0) {
            let built = continuum(&ContinuumSpec::default());
            let env = Env::new(built.topology.clone(), standard_fleet(&built));
            let mut rng = Rng::new(seed);
            let spec = StreamSpec {
                sensors: built.sensors.clone(),
                requests: 60,
                rate_hz: rate,
                ..Default::default()
            };
            check_online(&env, &inference_stream(&mut rng, &spec).requests);
        }

        /// ... and on mixed fleets with constrained multi-task requests.
        #[test]
        fn class_bounded_online_matches_full_scan_mixed(seed in any::<u64>()) {
            let mut rng = Rng::new(seed);
            let (_, env) = mixed_env(&mut rng);
            let reqs = constrained_stream(&mut rng, &env, 40);
            check_online(&env, &reqs);
        }
    }

    #[test]
    #[should_panic(expected = "no feasible device")]
    fn infeasible_unpinned_task_panics() {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut dag = Dag::new("x");
        let c = Constraints {
            min_mem_bytes: u64::MAX,
            ..Default::default()
        };
        dag.add_task_full("t", 1.0, 1, vec![], vec![], c);
        GreedyEftPlacer::default().place(&env, &dag);
    }

    #[test]
    #[should_panic(expected = "no feasible device")]
    fn infeasible_pinned_task_panics() {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut dag = Dag::new("x");
        // A sensor mote cannot meet a cloud-tier range.
        let c = Constraints {
            pinned_node: Some(built.sensors[0]),
            tier_range: Some((Tier::Cloud, Tier::Cloud)),
            ..Default::default()
        };
        dag.add_task_full("t", 1.0, 1, vec![], vec![], c);
        let mut p = OnlinePlacer::continuum(&env);
        p.place_request(&env, &dag, SimTime::ZERO);
    }
}
