//! The single-broker event loop, kept as the test oracle for
//! [`run_federation`](crate::run_federation).
//!
//! One broker admits, routes and starts every invocation itself, paying
//! an admission scan, a candidate build and two heap operations per
//! invocation; it shares no dispatch code with the federation. A
//! federation with one site and batch size 1 (no warm pool, no site
//! faults) must reproduce it bit-for-bit — same completions, same
//! latencies in the same order, same retry/reroute/drop counters, same
//! slot-seconds. The tests below pin that identity for every
//! `FederationCfg` field this shape admits: policy, `cold`, `autoscale`,
//! endpoint `faults` and `admission`.
//!
//! Only the [`FabricReport`] is reproduced; the loop exports no
//! telemetry and ignores [`FederationCfg::health`], which never changes
//! the report.

use crate::broker::{
    ep_states, ColdStart, Endpoint, EpState, FabricReport, Invocation, RoutingPolicy,
};
use crate::federation::FederationCfg;
use crate::registry::{FunctionRegistry, FunctionSpec};
use continuum_net::NodeId;
use continuum_placement::Env;
use continuum_sim::{jain_fairness, EventQueue, FaultKind, Rng, SimTime};

#[derive(Debug)]
enum Ev {
    Arrive(usize),
    /// Request payload landed at `ep`. Stale if the invocation was
    /// re-routed while the payload was in flight (`epoch` mismatch).
    InputReady {
        ep: usize,
        inv: usize,
        epoch: u32,
    },
    /// Execution finished. Stale if the attempt was killed by a crash.
    ExecDone {
        ep: usize,
        inv: usize,
        epoch: u32,
    },
    ResponseBack {
        inv: usize,
    },
    EpCrash(usize),
    EpRecover(usize),
    /// Heartbeat timeout: the broker notices crash generation `gen` of
    /// endpoint `ep` (stale if the endpoint recovered, or crashed again,
    /// in the meantime).
    EpDetect {
        ep: usize,
        gen: u32,
    },
    /// A displaced invocation's backoff expired; pick a new endpoint.
    Reroute(usize),
}

/// Per-invocation broker state.
struct InvState {
    assigned: usize,
    /// Bumped when the running attempt is killed or the invocation is
    /// re-routed; in-flight events carrying an older epoch are ignored.
    epoch: u32,
    /// Re-route rounds consumed.
    attempts: u32,
    exec_start: SimTime,
    done_at: Option<SimTime>,
}

/// Run `invocations` through one broker owning every endpoint, under the
/// `cfg` fields the single broker understands (`policy`, `cold`,
/// `autoscale`, `faults`, `admission`).
///
/// `cfg` must have the identity shape: batch 1, no warm pool, no site
/// faults. `completed + dropped + rejected == invocations.len()` holds on
/// the report.
pub(crate) fn run_single_broker(
    env: &Env,
    registry: &FunctionRegistry,
    endpoints: &[Endpoint],
    invocations: &[Invocation],
    cfg: &FederationCfg,
) -> FabricReport {
    debug_assert!(
        cfg.batch <= 1,
        "the single broker dispatches per invocation"
    );
    debug_assert!(
        cfg.warm_pool.is_none(),
        "the single broker has no warm pool"
    );
    debug_assert!(cfg.site_faults.is_none(), "the single broker has no sites");
    assert!(!endpoints.is_empty(), "no endpoints");
    let (policy, cold, autoscale, admission) = (cfg.policy, cfg.cold, cfg.autoscale, cfg.admission);
    let faults = cfg.faults.as_ref();
    let n_ep = endpoints.len();
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut eps: Vec<EpState> = ep_states(endpoints, autoscale);
    let mut invs: Vec<InvState> = invocations
        .iter()
        .map(|_| InvState {
            assigned: usize::MAX,
            epoch: 0,
            attempts: 0,
            exec_start: SimTime::ZERO,
            done_at: None,
        })
        .collect();
    let mut rr_next = 0usize;
    let mut latencies: Vec<f64> = Vec::with_capacity(invocations.len());
    let mut reroutes = 0u64;
    let mut retries = 0u64;
    let mut dropped = 0u64;
    let mut rejected = 0u64;
    let mut lost_work_s = 0.0f64;
    let mut jitter_rng = Rng::new(faults.map_or(0, |f| f.seed));

    for (i, inv) in invocations.iter().enumerate() {
        queue.schedule_at(inv.arrival, Ev::Arrive(i));
    }
    if let Some(f) = faults {
        for ev in f.schedule.events() {
            let kind = match ev.kind {
                FaultKind::EndpointCrash => Ev::EpCrash(ev.target as usize),
                FaultKind::EndpointRecover => Ev::EpRecover(ev.target as usize),
                _ => continue, // device/link faults are not the broker's
            };
            assert!(
                (ev.target as usize) < n_ep,
                "fault schedule targets endpoint {} but only {n_ep} exist",
                ev.target
            );
            queue.schedule_at(ev.at, kind);
        }
    }

    // Assign `i` to endpoint `ep` and launch its request payload.
    macro_rules! assign {
        ($i:expr, $ep:expr, $spec:expr, $now:expr) => {{
            let (i, ep, now) = ($i, $ep, $now);
            let spec = $spec;
            invs[i].assigned = ep;
            eps[ep].outstanding += 1;
            let dev = &env.fleet.device(endpoints[ep].device);
            let exec = dev
                .spec
                .compute_time_parallel(spec.work_flops, spec.parallelism);
            let tin = env
                .path(invocations[i].origin, dev.node)
                .expect("disconnected topology")
                .transfer_time(spec.in_bytes);
            // Update the locality estimate for the chosen endpoint.
            let lanes = &mut eps[ep].lane_est;
            let (k, _) = lanes
                .iter()
                .enumerate()
                .min_by_key(|&(i, t)| (*t, i))
                .expect("non-empty lanes");
            lanes[k] = (now + tin).max(lanes[k]) + exec;
            let epoch = invs[i].epoch;
            queue.schedule_at(now + tin, Ev::InputReady { ep, inv: i, epoch });
        }};
    }

    // One backoff round for a displaced invocation (or give it up).
    macro_rules! backoff_or_drop {
        ($i:expr, $now:expr) => {{
            let (i, now) = ($i, $now);
            let cfg = faults.expect("displacement implies faults").backoff;
            if invs[i].attempts >= cfg.max_retries {
                dropped += 1;
            } else {
                let delay = cfg.delay(invs[i].attempts, &mut jitter_rng);
                invs[i].attempts += 1;
                retries += 1;
                queue.schedule_at(now + delay, Ev::Reroute(i));
            }
        }};
    }

    while let Some((now, ev)) = queue.pop() {
        match ev {
            Ev::Arrive(i) => {
                // Backpressure gate: count the in-system load and bounce
                // the arrival if the cap is hit. Only new arrivals pass
                // here — displaced work re-enters via `Ev::Reroute`.
                if let Some(a) = admission {
                    let in_system: usize = eps.iter().map(|e| e.outstanding as usize).sum();
                    if in_system >= a.max_outstanding {
                        rejected += 1;
                        continue;
                    }
                }
                let spec = registry.get(invocations[i].function);
                let candidates: Vec<usize> = (0..n_ep).filter(|&e| !eps[e].known_down).collect();
                // If detection has flagged every endpoint, treat the
                // arrival like displaced work and back off.
                match choose_endpoint(
                    env,
                    endpoints,
                    &eps,
                    &candidates,
                    policy,
                    &mut rr_next,
                    spec,
                    invocations[i].origin,
                    now,
                ) {
                    Some(ep) => assign!(i, ep, spec, now),
                    None => backoff_or_drop!(i, now),
                }
            }
            Ev::Reroute(i) => {
                // The function id can outlive a registry swap in a long-
                // lived broker; a stale id means the work is undeliverable.
                let Some(spec) = registry.try_get(invocations[i].function) else {
                    dropped += 1;
                    continue;
                };
                let candidates: Vec<usize> = (0..n_ep).filter(|&e| !eps[e].known_down).collect();
                match choose_endpoint(
                    env,
                    endpoints,
                    &eps,
                    &candidates,
                    policy,
                    &mut rr_next,
                    spec,
                    invocations[i].origin,
                    now,
                ) {
                    Some(ep) => {
                        reroutes += 1;
                        invs[i].epoch += 1;
                        assign!(i, ep, spec, now);
                    }
                    None => backoff_or_drop!(i, now),
                }
            }
            Ev::InputReady { ep, inv, epoch } => {
                if epoch != invs[inv].epoch {
                    continue; // re-routed while the payload was in flight
                }
                if eps[ep].known_down {
                    // Payload landed on an endpoint already declared dead.
                    eps[ep].outstanding -= 1;
                    backoff_or_drop!(inv, now);
                    continue;
                }
                eps[ep].waiting.push_back(inv);
                // Elastic scale-up: queued work and every slot busy.
                if autoscale.is_some() && eps[ep].up {
                    let st = &mut eps[ep].scale;
                    if st.busy >= st.active && st.active < endpoints[ep].slots {
                        st.grow(now);
                    }
                }
                try_start(
                    env,
                    registry,
                    endpoints,
                    &mut queue,
                    &mut eps,
                    &mut invs,
                    ep,
                    now,
                    invocations,
                    cold,
                );
            }
            Ev::ExecDone { ep, inv, epoch } => {
                if epoch != invs[inv].epoch {
                    continue; // this attempt was killed by a crash
                }
                eps[ep].scale.busy -= 1;
                let pos = eps[ep]
                    .running
                    .iter()
                    .position(|&r| r == inv)
                    .expect("finished invocation is running");
                eps[ep].running.swap_remove(pos);
                let spec = registry.get(invocations[inv].function);
                let ep_node = env.fleet.device(endpoints[ep].device).node;
                let tout = env
                    .path(ep_node, invocations[inv].origin)
                    .expect("disconnected topology")
                    .transfer_time(spec.out_bytes);
                queue.schedule_at(now + tout, Ev::ResponseBack { inv });
                try_start(
                    env,
                    registry,
                    endpoints,
                    &mut queue,
                    &mut eps,
                    &mut invs,
                    ep,
                    now,
                    invocations,
                    cold,
                );
                // Elastic scale-down: queue drained, spare slots idle.
                if let Some(a) = autoscale {
                    if eps[ep].waiting.is_empty() {
                        let floor = a.min_slots.min(endpoints[ep].slots).max(1);
                        let st = &mut eps[ep].scale;
                        st.shrink_to(st.busy.max(floor), now);
                    }
                }
            }
            Ev::ResponseBack { inv } => {
                let ep = invs[inv].assigned;
                eps[ep].outstanding -= 1;
                eps[ep].completions += 1;
                invs[inv].done_at = Some(now);
                latencies.push(now.since(invocations[inv].arrival).as_secs_f64());
            }
            Ev::EpCrash(ep) => {
                if !eps[ep].up {
                    continue;
                }
                let e = &mut eps[ep];
                e.up = false;
                e.gen += 1;
                // Kill the running attempts; their elapsed execution is
                // destroyed. The invocations become orphans awaiting
                // either detection (re-route) or recovery (restart here).
                for inv in std::mem::take(&mut e.running) {
                    lost_work_s += now.since(invs[inv].exec_start).as_secs_f64();
                    invs[inv].epoch += 1;
                    e.orphans.push(inv);
                }
                // Slot-seconds stop accruing while the pool is dead.
                e.scale.settle(now);
                e.scale.active = 0;
                e.scale.busy = 0;
                e.warm_until = SimTime::ZERO; // recovery comes back cold
                let gen = e.gen;
                let hb = faults.expect("crash event implies faults").heartbeat;
                queue.schedule_at(now + hb, Ev::EpDetect { ep, gen });
            }
            Ev::EpDetect { ep, gen } => {
                if eps[ep].up || eps[ep].gen != gen {
                    continue; // recovered (or crashed again) meanwhile
                }
                eps[ep].known_down = true;
                let mut displaced: Vec<usize> = eps[ep].orphans.drain(..).collect();
                displaced.extend(eps[ep].waiting.drain(..));
                for inv in displaced {
                    eps[ep].outstanding -= 1;
                    backoff_or_drop!(inv, now);
                }
            }
            Ev::EpRecover(ep) => {
                if eps[ep].up {
                    continue;
                }
                let e = &mut eps[ep];
                e.up = true;
                e.known_down = false;
                e.scale.settle(now);
                e.scale.active = match autoscale {
                    Some(a) => a.min_slots.min(endpoints[ep].slots).max(1),
                    None => endpoints[ep].slots,
                };
                debug_assert_eq!(e.scale.busy, 0);
                // Orphans not yet detected restart here: their payloads
                // already live on the endpoint.
                e.waiting.extend(std::mem::take(&mut e.orphans));
                try_start(
                    env,
                    registry,
                    endpoints,
                    &mut queue,
                    &mut eps,
                    &mut invs,
                    ep,
                    now,
                    invocations,
                    cold,
                );
            }
        }
    }

    let end_time = invs
        .iter()
        .filter_map(|s| s.done_at)
        .max()
        .unwrap_or(SimTime::ZERO);
    let completed = latencies.len() as u64;
    debug_assert_eq!(
        completed + dropped + rejected,
        invocations.len() as u64,
        "invocation conservation"
    );
    let span = end_time.as_secs_f64();
    let slot_seconds: f64 = eps
        .iter_mut()
        .map(|e| {
            e.scale.settle(end_time);
            e.scale.slot_seconds
        })
        .sum();
    let per_endpoint: Vec<u64> = eps.iter().map(|e| e.completions).collect();
    FabricReport {
        completed,
        throughput_hz: if span > 0.0 {
            completed as f64 / span
        } else {
            0.0
        },
        jain: jain_fairness(&per_endpoint.iter().map(|&c| c as f64).collect::<Vec<_>>()),
        per_endpoint,
        latencies_s: latencies,
        end_time,
        slot_seconds,
        reroutes,
        retries,
        dropped,
        rejected,
        lost_work_s,
    }
}

/// Pick an endpoint among `candidates` under `policy`; `None` iff the
/// candidate set is empty (every endpoint known-down).
#[allow(clippy::too_many_arguments)]
fn choose_endpoint(
    env: &Env,
    endpoints: &[Endpoint],
    eps: &[EpState],
    candidates: &[usize],
    policy: RoutingPolicy,
    rr_next: &mut usize,
    spec: &FunctionSpec,
    origin: NodeId,
    now: SimTime,
) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    Some(match policy {
        RoutingPolicy::RoundRobin => {
            let ep = candidates[*rr_next % candidates.len()];
            *rr_next += 1;
            ep
        }
        RoutingPolicy::LeastOutstanding => candidates
            .iter()
            .copied()
            .min_by_key(|&e| (eps[e].outstanding, e))
            .expect("candidates non-empty"),
        RoutingPolicy::Locality => {
            candidates
                .iter()
                .copied()
                .map(|e| {
                    let dev = &env.fleet.device(endpoints[e].device);
                    let ep_node = dev.node;
                    let tin = env
                        .path(origin, ep_node)
                        .expect("disconnected topology")
                        .transfer_time(spec.in_bytes);
                    let tout = env
                        .path(ep_node, origin)
                        .expect("disconnected topology")
                        .transfer_time(spec.out_bytes);
                    let exec = dev
                        .spec
                        .compute_time_parallel(spec.work_flops, spec.parallelism);
                    let mut lanes = eps[e].lane_est.clone();
                    lanes.sort_unstable();
                    let start = (now + tin).max(lanes[0]);
                    (start + exec + tout, e)
                })
                .min()
                .expect("candidates non-empty")
                .1
        }
    })
}

/// Start queued work on `ep` while slots are free.
#[allow(clippy::too_many_arguments)]
fn try_start(
    env: &Env,
    registry: &FunctionRegistry,
    endpoints: &[Endpoint],
    queue: &mut EventQueue<Ev>,
    eps: &mut [EpState],
    invs: &mut [InvState],
    ep: usize,
    now: SimTime,
    invocations: &[Invocation],
    cold: Option<ColdStart>,
) {
    if !eps[ep].up {
        return;
    }
    while eps[ep].scale.busy < eps[ep].scale.active {
        let Some(inv) = eps[ep].waiting.pop_front() else {
            break;
        };
        eps[ep].scale.busy += 1;
        let spec = registry.get(invocations[inv].function);
        let dev = &env.fleet.device(endpoints[ep].device);
        let mut exec = dev
            .spec
            .compute_time_parallel(spec.work_flops, spec.parallelism);
        if let Some(cs) = cold {
            // Endpoint-level warmth: one cold boot warms the whole pool.
            if now > eps[ep].warm_until {
                exec += cs.cold_time;
            }
            eps[ep].warm_until = (now + exec) + cs.keep_warm;
        }
        invs[inv].exec_start = now;
        eps[ep].running.push(inv);
        let epoch = invs[inv].epoch;
        queue.schedule_at(now + exec, Ev::ExecDone { ep, inv, epoch });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{endpoints_on, Admission, Autoscale, Backoff, EndpointFaults};
    use crate::federation::{run_federation, single_site, sites_from_partition};
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, continuum_regions, ContinuumSpec, RegionPartition, Tier};
    use continuum_sim::{FaultProcess, FaultSchedule, FaultScheduleSpec, SimDuration};
    use proptest::prelude::*;

    /// PR builds run the small default; CI nightlies push the same
    /// properties much harder via `CONTINUUM_FABRIC_CASES`.
    fn fabric_cases() -> u32 {
        std::env::var("CONTINUUM_FABRIC_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(24)
    }

    const POLICIES: [RoutingPolicy; 3] = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastOutstanding,
        RoutingPolicy::Locality,
    ];

    fn world() -> (Env, RegionPartition, Vec<NodeId>) {
        let spec = ContinuumSpec::default();
        let built = continuum(&spec);
        let sensors = built.sensors.clone();
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let partition = RegionPartition::new(&env.topology, continuum_regions(&spec), 0);
        (env, partition, sensors)
    }

    /// `n` Poisson arrivals of one function from the sensors, at `rate`.
    fn poisson(
        sensors: &[NodeId],
        function: crate::registry::FunctionId,
        n: usize,
        rate: f64,
        seed: u64,
    ) -> Vec<Invocation> {
        let mut rng = Rng::new(seed);
        let mut t = 0.0;
        (0..n)
            .map(|i| {
                t += rng.exp(rate);
                Invocation {
                    arrival: SimTime::from_secs_f64(t),
                    origin: sensors[i % sensors.len()],
                    function,
                }
            })
            .collect()
    }

    /// Fog and cloud endpoints serving one 5-Gflop inference function.
    fn workload(
        env: &Env,
        sensors: &[NodeId],
        n: usize,
        rate: f64,
        seed: u64,
    ) -> (FunctionRegistry, Vec<Endpoint>, Vec<Invocation>) {
        let mut registry = FunctionRegistry::new();
        let f = registry.register("infer", 5e9, 200 << 10, 1 << 10);
        let mut devices = env.fleet.in_tier(Tier::Fog);
        devices.extend(env.fleet.in_tier(Tier::Cloud));
        let endpoints = endpoints_on(env, &devices);
        (registry, endpoints, poisson(sensors, f, n, rate, seed))
    }

    #[test]
    fn one_site_batch_one_is_bit_identical_to_single_broker() {
        let (env, partition, sensors) = world();
        let (registry, endpoints, invocations) = workload(&env, &sensors, 300, 120.0, 42);
        for policy in POLICIES {
            let cfg = FederationCfg::new(policy);
            let oracle = run_single_broker(&env, &registry, &endpoints, &invocations, &cfg);
            for sites in [
                single_site(&env, &endpoints),
                sites_from_partition(&env, &partition, &endpoints, 1),
            ] {
                let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
                assert_eq!(fed.fabric, oracle, "{}", policy.label());
            }
        }
    }

    /// Locality past saturation: every lane of the nearby endpoints is
    /// booked ahead, so the pick depends on each candidate's earliest
    /// free lane, not just on transfer times.
    #[test]
    fn one_site_batch_one_locality_identity_past_saturation() {
        let (env, _, sensors) = world();
        let (registry, endpoints, invocations) = workload(&env, &sensors, 600, 3000.0, 11);
        let cfg = FederationCfg::new(RoutingPolicy::Locality);
        let oracle = run_single_broker(&env, &registry, &endpoints, &invocations, &cfg);
        let fed = run_federation(
            &env,
            &registry,
            &endpoints,
            &single_site(&env, &endpoints),
            &invocations,
            &cfg,
        );
        assert_eq!(fed.fabric, oracle);
    }

    #[test]
    fn one_site_batch_one_identity_with_admission_cold_autoscale() {
        let (env, _, sensors) = world();
        let (registry, endpoints, invocations) = workload(&env, &sensors, 400, 400.0, 7);
        let mut cfg = FederationCfg::new(RoutingPolicy::LeastOutstanding);
        cfg.cold = Some(ColdStart {
            cold_time: SimDuration::from_millis(500),
            keep_warm: SimDuration::from_secs(2),
        });
        cfg.autoscale = Some(Autoscale { min_slots: 1 });
        cfg.admission = Some(Admission {
            max_outstanding: 24,
        });
        let oracle = run_single_broker(&env, &registry, &endpoints, &invocations, &cfg);
        let fed = run_federation(
            &env,
            &registry,
            &endpoints,
            &single_site(&env, &endpoints),
            &invocations,
            &cfg,
        );
        assert_eq!(fed.fabric, oracle);
        assert!(fed.fabric.rejected > 0, "gate exercised");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: fabric_cases(), ..ProptestConfig::default() })]

        /// The federation's equivalence oracle, under chaos: a 1-site
        /// federation at batch 1 reproduces the single broker bit-for-bit
        /// — same latencies in the same order, same retry/reroute/drop
        /// counters, same slot-seconds — for any load, policy and
        /// endpoint-level fault schedule, with or without a cold start,
        /// autoscaling and an admission gate (every config the callers
        /// send).
        #[test]
        fn federation_single_site_identical_under_faults(
            seed in any::<u64>(),
            n in 1usize..120,
            rate in 5.0f64..200.0,
            policy in proptest::sample::select(&POLICIES),
            mttf_s in 5.0f64..60.0,
            mttr_s in 0.5f64..20.0,
            cold in (any::<bool>(), 1u64..2_000, 0u64..10_000).prop_map(|(on, cold_ms, warm_ms)| {
                on.then(|| ColdStart {
                    cold_time: SimDuration::from_millis(cold_ms),
                    keep_warm: SimDuration::from_millis(warm_ms),
                })
            }),
            autoscale in (any::<bool>(), 0u32..20)
                .prop_map(|(on, min_slots)| on.then_some(Autoscale { min_slots })),
            admission in (any::<bool>(), 1usize..64)
                .prop_map(|(on, max_outstanding)| on.then_some(Admission { max_outstanding })),
        ) {
            let (env, partition, sensors) = world();
            let mut registry = FunctionRegistry::new();
            let f = registry.register("f", 1e10, 10 << 10, 1 << 10);
            let endpoints = endpoints_on(&env, &env.fleet.in_tier(Tier::Cloud));
            let invocations = poisson(&sensors, f, n, rate, seed);
            let t = invocations.last().expect("n >= 1").arrival.as_secs_f64();
            let spec = FaultScheduleSpec {
                horizon: SimDuration::from_secs_f64(t + 30.0),
                endpoints: FaultProcess {
                    population: endpoints.len() as u32,
                    mttf_s,
                    mttr_s,
                },
                ..FaultScheduleSpec::default()
            };
            let mut cfg = FederationCfg::new(policy);
            cfg.faults = Some(EndpointFaults {
                schedule: FaultSchedule::generate(&spec, seed ^ 0xFA17),
                heartbeat: SimDuration::from_millis(500),
                backoff: Backoff::default(),
                seed: seed ^ 0xBAC0,
            });
            cfg.cold = cold;
            cfg.autoscale = autoscale;
            cfg.admission = admission;
            let oracle = run_single_broker(&env, &registry, &endpoints, &invocations, &cfg);
            let sites = sites_from_partition(&env, &partition, &endpoints, 1);
            let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
            prop_assert_eq!(&fed.fabric, &oracle);
        }
    }
}
