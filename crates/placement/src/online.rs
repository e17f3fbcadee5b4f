//! Online placement for streams of small request workflows (experiment F4).
//!
//! Unlike the batch policies, the online placer keeps state between
//! requests: a per-core availability estimate for every device. Each
//! arriving request (a small DAG, e.g. `capture -> preprocess -> infer`) is
//! placed greedily to minimize its predicted completion given the current
//! backlog — the continuum answer to "where should I compute *this one,
//! right now*?". Tier-restricted variants provide the cloud-only and
//! edge-only baselines under identical queue modeling.

use crate::env::Env;
use crate::estimate::Placement;
use crate::scan::min_finish_device;
use continuum_net::Tier;
use continuum_sim::SimTime;
use continuum_workflow::Dag;

/// Stateful online scheduler.
#[derive(Debug, Clone)]
pub struct OnlinePlacer {
    /// Per device, per core-lane: the time the lane frees up. Each
    /// device's lane vector is kept **sorted ascending**, so the k-th
    /// earliest lane is `lanes[d][k - 1]` — candidate probes are O(1)
    /// where the seed cloned and sorted the vector per candidate.
    lanes: Vec<Vec<SimTime>>,
    tier_range: Option<(Tier, Tier)>,
    label: &'static str,
}

impl OnlinePlacer {
    /// Continuum-wide online placement.
    pub fn continuum(env: &Env) -> Self {
        Self::with_tiers(env, None, "online-continuum")
    }

    /// Online placement restricted to cloud devices.
    pub fn cloud_only(env: &Env) -> Self {
        Self::with_tiers(env, Some((Tier::Cloud, Tier::Cloud)), "online-cloud")
    }

    /// Online placement restricted to the edge (sensor + edge tiers).
    pub fn edge_only(env: &Env) -> Self {
        Self::with_tiers(env, Some((Tier::Sensor, Tier::Edge)), "online-edge")
    }

    /// Custom tier restriction.
    pub fn with_tiers(env: &Env, tier_range: Option<(Tier, Tier)>, label: &'static str) -> Self {
        OnlinePlacer {
            lanes: env
                .fleet
                .devices()
                .iter()
                .map(|d| vec![SimTime::ZERO; d.spec.cores as usize])
                .collect(),
            tier_range,
            label,
        }
    }

    /// Policy label for experiment rows.
    pub fn name(&self) -> &'static str {
        self.label
    }

    /// When the `need` earliest lanes of `dev` are all free (the sorted
    /// invariant makes this a direct index).
    fn queue_free(&self, dev: continuum_model::DeviceId, need: u32) -> SimTime {
        self.lanes[dev.0 as usize][(need - 1) as usize]
    }

    /// Occupy the `need` earliest lanes of `dev` until `fin`, preserving
    /// the sorted invariant: drop the `need` smallest entries and splice
    /// `fin` copies back in at their sorted position.
    fn occupy(&mut self, dev: continuum_model::DeviceId, need: u32, fin: SimTime) {
        let lanes = &mut self.lanes[dev.0 as usize];
        lanes.drain(..need as usize);
        let at = lanes.partition_point(|&x| x <= fin);
        lanes.splice(at..at, std::iter::repeat_n(fin, need as usize));
    }

    /// Place one arriving request with a latency deadline, escalating up
    /// the continuum only as far as needed: for each task, the lowest tier
    /// predicted to finish the *whole request* within `deadline` wins
    /// (keeping fast upstream capacity free for requests that need it);
    /// if no tier meets the deadline, fall back to the global
    /// minimum-finish choice.
    ///
    /// Returns the placement, the predicted completion, and whether the
    /// prediction already misses the deadline.
    pub fn place_request_deadline(
        &mut self,
        env: &Env,
        dag: &Dag,
        arrival: SimTime,
        deadline: continuum_sim::SimDuration,
    ) -> (Placement, SimTime, bool) {
        let deadline_abs = arrival + deadline;
        // Mean remaining work (flops) after each task in topo order, used
        // to budget per-task slack.
        let order = dag.topo_order();
        let mut remaining_after = vec![0.0f64; dag.len()];
        let mut acc = 0.0;
        for &t in order.iter().rev() {
            remaining_after[t.0 as usize] = acc;
            acc += dag.task(t).work_flops;
        }
        let mean_flops = env.mean_core_flops();

        let n = dag.len();
        let mut assignment = vec![continuum_model::DeviceId(0); n];
        let mut finish = vec![SimTime::ZERO; n];
        let mut location = vec![continuum_net::NodeId(0); n];
        let mut last_finish = arrival;

        for &t in &order {
            let task = dag.task(t);
            let feas = env.feasible_devices(task);
            // Predicted finish per candidate (same model as place_request).
            let mut cands: Vec<(SimTime, continuum_model::DeviceId, u32, Tier)> = Vec::new();
            for d in feas {
                let node = env.node_of(d);
                let mut ready = arrival;
                for &inp in &task.inputs {
                    let item = dag.data(inp);
                    let (src, avail) = match dag.producer(inp) {
                        None => (item.home.expect("validated dag"), arrival),
                        Some(p) => (location[p.0 as usize], finish[p.0 as usize]),
                    };
                    let arrives = env
                        .arrival(src, node, avail, item.bytes)
                        .expect("disconnected topology");
                    ready = ready.max(arrives);
                }
                let spec = &env.fleet.device(d).spec;
                let need = task.occupancy(spec.cores);
                let start = ready.max(self.queue_free(d, need)).max(arrival);
                let fin = start + spec.compute_time_parallel(task.work_flops, task.parallelism);
                cands.push((fin, d, need, spec.tier));
            }
            // Slack check: finishing this task at `fin` must leave room
            // for the mean-speed remainder of the request.
            let slack_ok = |fin: SimTime| {
                let tail = continuum_sim::SimDuration::from_secs_f64(
                    remaining_after[t.0 as usize] / mean_flops,
                );
                fin + tail <= deadline_abs
            };
            // Lowest tier with a deadline-feasible device; within it, the
            // earliest finish.
            let pick = Tier::ALL
                .iter()
                .find_map(|&tier| {
                    cands
                        .iter()
                        .filter(|(fin, _, _, tr)| *tr == tier && slack_ok(*fin))
                        .min_by_key(|(fin, d, _, _)| (*fin, *d))
                        .copied()
                })
                .unwrap_or_else(|| {
                    *cands
                        .iter()
                        .min_by_key(|(fin, d, _, _)| (*fin, *d))
                        .expect("candidate set non-empty")
                });
            let (fin, dev, need, _) = pick;
            self.occupy(dev, need, fin);
            assignment[t.0 as usize] = dev;
            finish[t.0 as usize] = fin;
            location[t.0 as usize] = env.node_of(dev);
            last_finish = last_finish.max(fin);
        }
        let miss = last_finish > deadline_abs;
        (Placement { assignment }, last_finish, miss)
    }

    /// Re-place one orphaned task onto a surviving device.
    ///
    /// Used by the fault plane: when a device crashes, its queued and
    /// running tasks must move somewhere that is still up. `inputs` gives
    /// the *current* location, availability time, and size of each input
    /// (the caller knows where data actually lives mid-run, which the
    /// request-level placement predictions do not). `alive[d]` gates the
    /// candidate set; `None` means no feasible live device exists right
    /// now (e.g. the task is pinned to the dead device) and the caller
    /// should park the task until something recovers.
    ///
    /// Returns the chosen device and its predicted finish, and books the
    /// device's core lanes exactly like [`OnlinePlacer::place_request`].
    pub fn place_task(
        &mut self,
        env: &Env,
        task: &continuum_workflow::Task,
        inputs: &[(continuum_net::NodeId, SimTime, u64)],
        now: SimTime,
        alive: &[bool],
    ) -> Option<(continuum_model::DeviceId, SimTime)> {
        let mut best: Option<(SimTime, continuum_model::DeviceId, u32)> = None;
        for d in env.feasible_devices(task) {
            if !alive.get(d.0 as usize).copied().unwrap_or(false) {
                continue;
            }
            let node = env.node_of(d);
            let mut ready = now;
            for &(src, avail, bytes) in inputs {
                let arrives = env
                    .arrival(src, node, avail.max(now), bytes)
                    .expect("disconnected topology");
                ready = ready.max(arrives);
            }
            let spec = &env.fleet.device(d).spec;
            let need = task.occupancy(spec.cores);
            let start = ready.max(self.queue_free(d, need));
            let fin = start + spec.compute_time_parallel(task.work_flops, task.parallelism);
            if best.map(|(bf, bd, _)| (fin, d) < (bf, bd)).unwrap_or(true) {
                best = Some((fin, d, need));
            }
        }
        let (fin, dev, need) = best?;
        self.occupy(dev, need, fin);
        Some((dev, fin))
    }

    /// Place one arriving request; returns the placement and the predicted
    /// completion time of the request's last task.
    pub fn place_request(
        &mut self,
        env: &Env,
        dag: &Dag,
        arrival: SimTime,
    ) -> (Placement, SimTime) {
        let n = dag.len();
        let mut assignment = vec![continuum_model::DeviceId(0); n];
        let mut finish = vec![SimTime::ZERO; n];
        let mut location = vec![continuum_net::NodeId(0); n];
        let mut last_finish = arrival;

        for t in dag.topo_order() {
            let task = dag.task(t);
            let restrict = self
                .tier_range
                .filter(|_| task.constraints.pinned_node.is_none());
            // No input of `t` exists before its producer finishes, and no
            // task starts before the request arrives.
            let floor = task
                .inputs
                .iter()
                .filter_map(|&inp| dag.producer(inp))
                .map(|p| finish[p.0 as usize])
                .fold(arrival, SimTime::max);
            let (fin, dev) = min_finish_device(env, task, restrict, floor, false, |d| {
                let node = env.node_of(d);
                // Data readiness at this node.
                let mut ready = arrival;
                for &inp in &task.inputs {
                    let item = dag.data(inp);
                    let (src, avail) = match dag.producer(inp) {
                        None => (item.home.expect("validated dag"), arrival),
                        Some(p) => (location[p.0 as usize], finish[p.0 as usize]),
                    };
                    let arrives = env
                        .arrival(src, node, avail, item.bytes)
                        .expect("disconnected topology");
                    ready = ready.max(arrives);
                }
                let spec = &env.fleet.device(d).spec;
                // k-th earliest lane on this device (sorted invariant).
                let start = ready.max(self.queue_free(d, task.occupancy(spec.cores)));
                start + spec.compute_time_parallel(task.work_flops, task.parallelism)
            });
            let need = task.occupancy(env.fleet.device(dev).spec.cores);
            // Occupy the `need` earliest lanes until `fin`.
            self.occupy(dev, need, fin);
            assignment[t.0 as usize] = dev;
            finish[t.0 as usize] = fin;
            location[t.0 as usize] = env.node_of(dev);
            last_finish = last_finish.max(fin);
        }
        (Placement { assignment }, last_finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec};
    use continuum_sim::Rng;
    use continuum_workflow::TaskId;
    use continuum_workflow::{inference_stream, StreamSpec};

    fn setup() -> (Env, Vec<(SimTime, Dag)>) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut rng = Rng::new(41);
        let spec = StreamSpec {
            sensors: built.sensors.clone(),
            requests: 40,
            rate_hz: 5.0,
            ..Default::default()
        };
        (env, inference_stream(&mut rng, &spec).requests)
    }

    #[test]
    fn requests_complete_after_arrival() {
        let (env, reqs) = setup();
        let mut placer = OnlinePlacer::continuum(&env);
        for (arrival, dag) in &reqs {
            let (placement, fin) = placer.place_request(&env, dag, *arrival);
            assert_eq!(placement.assignment.len(), dag.len());
            assert!(fin > *arrival);
        }
    }

    #[test]
    fn lanes_stay_sorted_and_sized() {
        let (env, reqs) = setup();
        let mut placer = OnlinePlacer::continuum(&env);
        for (arrival, dag) in &reqs {
            placer.place_request(&env, dag, *arrival);
        }
        for (lanes, d) in placer.lanes.iter().zip(env.fleet.devices()) {
            assert_eq!(lanes.len(), d.spec.cores as usize);
            assert!(lanes.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn capture_stays_pinned_even_cloud_only() {
        let (env, reqs) = setup();
        let mut placer = OnlinePlacer::cloud_only(&env);
        for (arrival, dag) in reqs.iter().take(10) {
            let (placement, _) = placer.place_request(&env, dag, *arrival);
            let pinned = dag.task(TaskId(0)).constraints.pinned_node.unwrap();
            assert_eq!(env.node_of(placement.device(TaskId(0))), pinned);
            // The inference task must be in the cloud.
            let infer_dev = placement.device(TaskId(2));
            assert_eq!(env.fleet.device(infer_dev).spec.tier, Tier::Cloud);
        }
    }

    #[test]
    fn backlog_builds_under_load() {
        let (env, reqs) = setup();
        // Edge-only on a heavy stream should queue: later predicted
        // completions drift above the zero-queue service time.
        let mut placer = OnlinePlacer::edge_only(&env);
        let mut latencies = Vec::new();
        for (arrival, dag) in &reqs {
            let (_, fin) = placer.place_request(&env, dag, *arrival);
            latencies.push(fin.since(*arrival).as_secs_f64());
        }
        let first = latencies.first().copied().unwrap();
        let worst = latencies.iter().cloned().fold(0.0, f64::max);
        assert!(worst >= first, "no queueing effect at all?");
    }

    #[test]
    fn place_task_respects_alive_mask() {
        let (env, reqs) = setup();
        let mut placer = OnlinePlacer::continuum(&env);
        let (arrival, dag) = &reqs[0];
        // The preprocess task (id 1) is unpinned: placeable anywhere.
        let task = dag.task(TaskId(1));
        let inputs: Vec<_> = task
            .inputs
            .iter()
            .map(|&inp| {
                let item = dag.data(inp);
                (
                    item.home
                        .unwrap_or(env.node_of(continuum_model::DeviceId(0))),
                    *arrival,
                    item.bytes,
                )
            })
            .collect();
        let n_dev = env.fleet.devices().len();
        let all_alive = vec![true; n_dev];
        let (dev, fin) = placer
            .place_task(&env, task, &inputs, *arrival, &all_alive)
            .expect("live fleet places anything");
        assert!(fin > *arrival);
        // Killing the chosen device forces a different (live) choice.
        let mut mask = all_alive.clone();
        mask[dev.0 as usize] = false;
        let (dev2, _) = placer
            .place_task(&env, task, &inputs, *arrival, &mask)
            .expect("other devices survive");
        assert_ne!(dev2, dev);
        // Nothing alive: nothing placeable.
        assert!(placer
            .place_task(&env, task, &inputs, *arrival, &vec![false; n_dev])
            .is_none());
    }

    #[test]
    fn continuum_no_worse_than_edge_only_prediction() {
        let (env, reqs) = setup();
        let mut cont = OnlinePlacer::continuum(&env);
        let mut edge = OnlinePlacer::edge_only(&env);
        let mut sum_c = 0.0;
        let mut sum_e = 0.0;
        for (arrival, dag) in &reqs {
            let (_, fc) = cont.place_request(&env, dag, *arrival);
            let (_, fe) = edge.place_request(&env, dag, *arrival);
            sum_c += fc.since(*arrival).as_secs_f64();
            sum_e += fe.since(*arrival).as_secs_f64();
        }
        assert!(sum_c <= sum_e * 1.001, "continuum {sum_c} vs edge {sum_e}");
    }
}

#[cfg(test)]
mod deadline_tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec};
    use continuum_sim::{Rng, SimDuration};
    use continuum_workflow::{inference_stream, StreamSpec};

    fn setup() -> (Env, Vec<(SimTime, Dag)>) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut rng = Rng::new(61);
        let spec = StreamSpec {
            sensors: built.sensors.clone(),
            requests: 30,
            rate_hz: 4.0,
            infer_flops: 1e8,
            ..Default::default()
        };
        (env, inference_stream(&mut rng, &spec).requests)
    }

    #[test]
    fn loose_deadline_keeps_work_low_in_the_continuum() {
        let (env, reqs) = setup();
        let mut eager = OnlinePlacer::continuum(&env);
        let mut lazy = OnlinePlacer::continuum(&env);
        let mut eager_high_tier = 0usize;
        let mut lazy_high_tier = 0usize;
        let mut total = 0usize;
        for (arrival, dag) in &reqs {
            let (p_eager, _) = eager.place_request(&env, dag, *arrival);
            let (p_lazy, _, miss) =
                lazy.place_request_deadline(&env, dag, *arrival, SimDuration::from_secs(30));
            assert!(!miss, "a 30s deadline must be met in prediction");
            for task in dag.tasks() {
                if task.constraints.pinned_node.is_some() {
                    continue;
                }
                total += 1;
                if env.fleet.device(p_eager.device(task.id)).spec.tier >= Tier::Fog {
                    eager_high_tier += 1;
                }
                if env.fleet.device(p_lazy.device(task.id)).spec.tier >= Tier::Fog {
                    lazy_high_tier += 1;
                }
            }
        }
        assert!(total > 0);
        // With slack to burn, the deadline-aware placer keeps more work at
        // the low tiers than the eager minimum-latency placer.
        assert!(
            lazy_high_tier <= eager_high_tier,
            "deadline-aware escalated more ({lazy_high_tier}) than eager ({eager_high_tier})"
        );
    }

    #[test]
    fn tight_deadline_behaves_like_eager() {
        let (env, reqs) = setup();
        let mut eager = OnlinePlacer::continuum(&env);
        let mut tight = OnlinePlacer::continuum(&env);
        for (arrival, dag) in &reqs {
            let (_, fin_eager) = eager.place_request(&env, dag, *arrival);
            let (_, fin_tight, _) =
                tight.place_request_deadline(&env, dag, *arrival, SimDuration::from_nanos(1));
            // Impossible deadline -> fall back to min-finish: same
            // prediction as the eager policy.
            assert_eq!(fin_eager, fin_tight);
        }
    }

    #[test]
    fn predicted_miss_flag_consistent() {
        let (env, reqs) = setup();
        let mut placer = OnlinePlacer::continuum(&env);
        let (arrival, dag) = &reqs[0];
        let (_, fin, miss) =
            placer.place_request_deadline(&env, dag, *arrival, SimDuration::from_nanos(1));
        assert_eq!(miss, fin > *arrival + SimDuration::from_nanos(1));
        assert!(miss, "nanosecond deadline cannot be met");
    }
}
