//! Federated multi-broker fabric: per-site brokers, batched dispatch,
//! warm-container pools, and broker-peer takeover.
//!
//! This is the fabric's one event loop. A centralized broker pays its
//! dispatch overhead — the admission scan, the candidate build, the
//! endpoint policy scan, two heap operations — once *per invocation*.
//! This module runs the fabric as a funcX-style federation of **sites**
//! instead: each site is a broker
//! owning a pool of endpoints (sites are derived from
//! [`RegionPartition`] regions), and a [`Forwarder`] routes every
//! invocation to a site and times its payload legs from the
//! environment's dense transfer matrix.
//!
//! # Batched dispatch
//!
//! Arrivals are buffered in a per-site ingress queue and *drained* in
//! batches: immediately once [`FederationCfg::batch`] invocations are
//! buffered, or after [`FederationCfg::drain_every`] of sim time,
//! whichever comes first. One drain pays the candidate refresh and batch
//! bookkeeping once for the whole batch; the admission gate is a
//! maintained O(1) counter instead of the centralized per-arrival
//! O(endpoints) sum; and arrivals enter through a sorted cursor instead
//! of per-invocation heap events. Batching trades sim-time latency
//! (buffered invocations wait for the drain) for dispatch throughput —
//! exactly the funcX forwarder trade.
//!
//! # Warm-container pools
//!
//! [`WarmPool`] generalizes the per-endpoint [`ColdStart`] warm window to
//! a per-site LRU pool over *functions*: a function found in its site's
//! pool skips boot cost on any endpoint of the site; a miss pays
//! [`WarmPool::cold_time`] and evicts the least-recently-used entry. A
//! site crash flushes its pool (recovery comes back cold).
//!
//! # Broker-peer takeover
//!
//! [`SiteFaults`] crash and recover whole sites. A site crash kills the
//! running work on every member endpoint; after
//! [`SiteFaults::heartbeat`], the federation *detects* the outage and a
//! surviving peer site (fewest outstanding, ties by id) **adopts** the
//! dead site's displaced work — orphans, queued work, and buffered
//! ingress — through the forwarding layer, entering the peer's ingress
//! as one batch instead of per-invocation backoff. Only when no peer
//! survives does displaced work fall back to the per-invocation
//! backoff-and-retry path that endpoint faults use. This generalizes the PR-2 broker-restart
//! failover to peer takeover.
//!
//! # Equivalence oracle
//!
//! A federation with **one site and batch size 1** (no warm pool, no site
//! faults) *is* the centralized single broker, and must stay
//! bit-identical to it: same completions, same latencies in the same
//! order, same retry/reroute/drop counters, same slot-seconds. The
//! pre-federation single-broker loop is kept, test-only, as the
//! reference: the crate's lib tests assert the identity across policies,
//! random loads, endpoint fault schedules, cold starts, autoscaling and
//! admission caps. The engine is written around that invariant — shared
//! endpoint-state constructor, same event ordering (arrivals before
//! same-time events, fault events before same-time runtime events), the
//! same policy scans, and transfer-matrix lookups that are exactly the
//! path transfer times the reference recomputes.

use crate::broker::{
    ep_states, Admission, Autoscale, Backoff, ColdStart, Endpoint, EndpointFaults, EpState,
    FabricReport, Invocation, RoutingPolicy,
};
use crate::forwarder::Forwarder;
use crate::registry::{FunctionId, FunctionRegistry, FunctionSpec};
use continuum_net::{NodeId, RegionPartition};
use continuum_obs::{HealthPlane, HealthReport, HealthSpec};
use continuum_placement::Env;
use continuum_sim::{jain_fairness, EventQueue, FaultKind, Rng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a federation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// One federation site: a broker plus the endpoint pool it owns.
#[derive(Debug, Clone)]
pub struct Site {
    /// This site's id (== its index in the site slice).
    pub id: SiteId,
    /// The broker's home node — forwarding-cost estimates target it.
    pub broker: NodeId,
    /// Partition regions this site covers (empty when built without a
    /// partition, e.g. [`single_site`]).
    pub regions: Vec<u32>,
    /// Indices into the run's endpoint slice, ascending.
    pub endpoints: Vec<usize>,
}

/// Derive sites from a [`RegionPartition`]: endpoints group by the region
/// of their device's node, and regions are dealt round-robin onto at most
/// `max_sites` sites (so a sweep can vary site count over one world).
/// Regions without endpoints vanish; site ids are re-indexed densely.
/// Each site's broker lives on its first endpoint's node.
///
/// With `max_sites == 1` this returns a single site owning every endpoint
/// in index order — the federation arm comparable to the single broker.
pub fn sites_from_partition(
    env: &Env,
    partition: &RegionPartition,
    endpoints: &[Endpoint],
    max_sites: usize,
) -> Vec<Site> {
    assert!(max_sites >= 1, "max_sites must be at least 1");
    assert!(!endpoints.is_empty(), "no endpoints");
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_sites];
    let mut bucket_regions: Vec<Vec<u32>> = vec![Vec::new(); max_sites];
    for (i, ep) in endpoints.iter().enumerate() {
        let r = partition.region_of(env.node_of(ep.device));
        let b = r % max_sites;
        buckets[b].push(i);
        if !bucket_regions[b].contains(&(r as u32)) {
            bucket_regions[b].push(r as u32);
        }
    }
    let mut sites = Vec::new();
    for (eps_in, regions) in buckets.into_iter().zip(bucket_regions) {
        if eps_in.is_empty() {
            continue;
        }
        sites.push(Site {
            id: SiteId(sites.len() as u32),
            broker: env.node_of(endpoints[eps_in[0]].device),
            regions,
            endpoints: eps_in,
        });
    }
    sites
}

/// One site owning every endpoint — the centralized broker, and the shape
/// the equivalence oracle runs in.
pub fn single_site(env: &Env, endpoints: &[Endpoint]) -> Vec<Site> {
    assert!(!endpoints.is_empty(), "no endpoints");
    vec![Site {
        id: SiteId(0),
        broker: env.node_of(endpoints[0].device),
        regions: Vec::new(),
        endpoints: (0..endpoints.len()).collect(),
    }]
}

/// Per-site warm-container pool: an LRU set of functions whose containers
/// are resident somewhere on the site.
///
/// Replaces the per-endpoint [`ColdStart`] warm window when set on
/// [`FederationCfg`]: an invocation whose function is pooled starts warm
/// on *any* endpoint of the site; a miss pays `cold_time` and inserts the
/// function, evicting the least-recently-used entry past `capacity`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WarmPool {
    /// Distinct functions kept warm per site (0 = everything runs cold).
    pub capacity: usize,
    /// Boot tax paid by a pool miss.
    pub cold_time: SimDuration,
}

/// One timed site-level fault transition.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SiteFaultEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// Site index.
    pub site: u32,
    /// `true` = crash, `false` = recover.
    pub crash: bool,
}

/// Site-level fault injection: whole-broker outages with peer takeover.
#[derive(Debug, Clone)]
pub struct SiteFaults {
    /// Timed crash/recover transitions, any order (the queue sorts).
    pub events: Vec<SiteFaultEvent>,
    /// How long after a site crash the federation notices and a peer
    /// adopts the dead site's work.
    pub heartbeat: SimDuration,
    /// Re-route pacing when *no* peer survives to adopt.
    pub backoff: Backoff,
    /// Jitter seed (used only when endpoint faults are absent).
    pub seed: u64,
}

impl SiteFaults {
    /// Build site faults from region-level outage transitions — the shape
    /// `continuum_runtime::FaultPlane::site_transitions` produces from a
    /// device-level chaos schedule. Transitions for regions no site
    /// covers are dropped. With one-region sites (i.e. `max_sites` at
    /// least the region count) the mapping is exact; a multi-region site
    /// crashes when any of its regions fully dies, which over-approximates
    /// the outage.
    pub fn from_region_transitions(
        sites: &[Site],
        transitions: &[(SimTime, u32, bool)],
        heartbeat: SimDuration,
        backoff: Backoff,
        seed: u64,
    ) -> SiteFaults {
        let events = transitions
            .iter()
            .filter_map(|&(at, region, crash)| {
                sites
                    .iter()
                    .position(|site| site.regions.contains(&region))
                    .map(|s| SiteFaultEvent {
                        at,
                        site: s as u32,
                        crash,
                    })
            })
            .collect();
        SiteFaults {
            events,
            heartbeat,
            backoff,
            seed,
        }
    }
}

/// Configuration of one federation run.
#[derive(Debug, Clone)]
pub struct FederationCfg {
    /// Endpoint- and site-level routing policy.
    pub policy: RoutingPolicy,
    /// Invocations buffered per site before an immediate drain (1 =
    /// per-invocation dispatch, the oracle-comparable setting).
    pub batch: usize,
    /// Longest a buffered invocation waits before a timer drain.
    pub drain_every: SimDuration,
    /// Per-endpoint cold-start window; ignored when `warm_pool` is set.
    pub cold: Option<ColdStart>,
    /// Per-site warm-container pool (overrides `cold`).
    pub warm_pool: Option<WarmPool>,
    /// Elastic slot provisioning.
    pub autoscale: Option<Autoscale>,
    /// Endpoint-level fault injection.
    pub faults: Option<EndpointFaults>,
    /// Site-level fault injection with peer takeover.
    pub site_faults: Option<SiteFaults>,
    /// Admission control; the in-system count additionally includes
    /// buffered ingress, so batching cannot grow memory past the cap.
    pub admission: Option<Admission>,
    /// Attach an SLO health plane: burn-rate windows over the
    /// completion stream, per-site queue-depth and warm-pool gauges
    /// sampled into a flight recorder, anomalies on takeover and
    /// admission saturation. `None` (the default) leaves the run
    /// bit-identical to one without health accounting.
    pub health: Option<HealthSpec>,
}

impl FederationCfg {
    /// Per-invocation dispatch (batch 1), no cold start, no autoscale, no
    /// faults, no admission, no health plane.
    pub fn new(policy: RoutingPolicy) -> FederationCfg {
        FederationCfg {
            policy,
            batch: 1,
            drain_every: SimDuration::from_millis(10),
            cold: None,
            warm_pool: None,
            autoscale: None,
            faults: None,
            site_faults: None,
            admission: None,
            health: None,
        }
    }
}

/// Per-site counters of one federation run.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SiteStats {
    /// Invocations completed by this site's endpoints.
    pub completions: u64,
    /// Invocations the forwarder routed to this site on arrival.
    pub forwarded: u64,
    /// Displaced invocations adopted from crashed peers.
    pub adopted: u64,
    /// Ingress drains executed.
    pub drains: u64,
    /// Invocations dispatched through drains (sum of batch occupancy).
    pub batched: u64,
    /// Warm-pool hits (starts that skipped boot cost).
    pub warm_hits: u64,
    /// Warm-pool misses (starts that paid `WarmPool::cold_time`).
    pub cold_boots: u64,
}

/// Result of a federation run: the aggregate [`FabricReport`] plus
/// federation-level counters.
#[derive(Debug, Clone)]
pub struct FederationReport {
    /// The oracle-comparable aggregate (completions, latencies in
    /// completion order, per-endpoint counts, retry/drop counters).
    pub fabric: FabricReport,
    /// Per-site counters, indexed by site id.
    pub sites: Vec<SiteStats>,
    /// Site outages whose displaced work a surviving peer adopted.
    pub takeovers: u64,
    /// Site crash events applied.
    pub site_crashes: u64,
    /// Site outages detected (heartbeat expired while still down).
    pub site_detections: u64,
    /// Site recover events applied.
    pub site_recoveries: u64,
    /// Ingress drains across all sites.
    pub drains: u64,
    /// Invocations dispatched through drains.
    pub batched: u64,
    /// Largest single drain.
    pub max_batch: u64,
    /// Forwarder route hits: repeat lookups of a `(src, dst)` pair
    /// (see [`Forwarder::route_stats`]).
    pub route_hits: u64,
    /// Forwarder route misses: distinct `(src, dst)` pairs resolved.
    pub route_misses: u64,
    /// SLO burn-rate summary and flight-recorder timeline; present iff
    /// [`FederationCfg::health`] was set. Not part of the
    /// oracle-comparable surface (identity checks compare `fabric`).
    pub health: Option<HealthReport>,
}

/// Per-invocation federation state.
struct FedInv {
    assigned: usize,
    epoch: u32,
    attempts: u32,
    exec_start: SimTime,
    done_at: Option<SimTime>,
    /// Work displaced by a crash and awaiting (re-)dispatch: counts as a
    /// reroute (and bumps the epoch) when it next assigns.
    displaced: bool,
}

/// Per-site federation state.
struct SiteState {
    up: bool,
    /// Down *and* past the site heartbeat: excluded from forwarding.
    known_down: bool,
    /// Crash generation, to match site-detect events to the outage.
    gen: u32,
    /// Buffered arrivals awaiting the next drain.
    ingress: VecDeque<usize>,
    /// A timer drain is scheduled and not yet fired.
    drain_pending: bool,
    /// Site-local round-robin cursor.
    rr_ep: usize,
    /// Member endpoints not known-down, ascending — rebuilt only on
    /// routability transitions, so drains skip the per-invocation
    /// candidate build the oracle pays.
    cand: Vec<usize>,
    /// Warm-pool LRU (front = least recently used).
    warm: Vec<FunctionId>,
    stats: SiteStats,
}

#[derive(Debug)]
enum FEv {
    /// Request payload landed at `ep` (stale on `epoch` mismatch).
    InputReady {
        ep: usize,
        inv: usize,
        epoch: u32,
    },
    /// Execution finished (stale if the attempt was killed).
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
    EpDetect {
        ep: usize,
        gen: u32,
    },
    /// A displaced invocation's backoff expired; re-forward it.
    Reroute(usize),
    /// Timer drain of one site's ingress buffer.
    Drain(usize),
    SiteCrash(usize),
    SiteRecover(usize),
    /// Site heartbeat expired: adopt the dead site's work on a peer.
    SiteDetect {
        site: usize,
        gen: u32,
    },
}

/// Run a set of invocations through a federated fabric.
///
/// `sites` must partition `endpoints` (every endpoint in exactly one
/// site). See the module docs for semantics; `completed + dropped +
/// rejected == invocations.len()` always holds on the report. With
/// [`single_site`] and batch 1 this is the centralized single broker.
#[allow(clippy::too_many_lines)]
pub fn run_federation(
    env: &Env,
    registry: &FunctionRegistry,
    endpoints: &[Endpoint],
    sites: &[Site],
    invocations: &[Invocation],
    cfg: &FederationCfg,
) -> FederationReport {
    assert!(!endpoints.is_empty(), "no endpoints");
    // Least-outstanding packs endpoint ids into 32 bits.
    assert!(u32::try_from(endpoints.len()).is_ok(), "too many endpoints");
    assert!(!sites.is_empty(), "no sites");
    let n_ep = endpoints.len();
    let n_sites = sites.len();
    let batch = cfg.batch.max(1);

    let mut ep_site = vec![usize::MAX; n_ep];
    for (s, site) in sites.iter().enumerate() {
        for &e in &site.endpoints {
            assert!(e < n_ep, "site {s} references endpoint {e} out of range");
            assert_eq!(ep_site[e], usize::MAX, "endpoint {e} owned by two sites");
            ep_site[e] = s;
        }
    }
    assert!(
        ep_site.iter().all(|&s| s != usize::MAX),
        "every endpoint must belong to a site"
    );

    let mut queue: EventQueue<FEv> = EventQueue::new();
    let mut eps: Vec<EpState> = ep_states(endpoints, cfg.autoscale);
    let mut invs: Vec<FedInv> = invocations
        .iter()
        .map(|_| FedInv {
            assigned: usize::MAX,
            epoch: 0,
            attempts: 0,
            exec_start: SimTime::ZERO,
            done_at: None,
            displaced: false,
        })
        .collect();
    let mut st: Vec<SiteState> = sites
        .iter()
        .map(|site| SiteState {
            up: true,
            known_down: false,
            gen: 0,
            ingress: VecDeque::new(),
            drain_pending: false,
            rr_ep: 0,
            cand: site.endpoints.clone(),
            warm: Vec::new(),
            stats: SiteStats::default(),
        })
        .collect();
    let mut site_live: Vec<bool> = st.iter().map(|s| !s.cand.is_empty()).collect();
    let mut site_out: Vec<u64> = vec![0; n_sites];
    let brokers: Vec<NodeId> = sites.iter().map(|s| s.broker).collect();
    let mut fwd = Forwarder::new();

    let mut latencies: Vec<f64> = Vec::with_capacity(invocations.len());
    let mut reroutes = 0u64;
    let mut retries = 0u64;
    let mut dropped = 0u64;
    let mut rejected = 0u64;
    let mut lost_work_s = 0.0f64;
    // Maintained in-system count (assigned + buffered): the O(1)
    // admission gate. The 1-site/batch-1 value at arrival time equals the
    // oracle's per-arrival sum over endpoint outstanding exactly.
    let mut in_system = 0usize;
    // Jitter stream: endpoint-fault seed when present (oracle
    // compatible), else the site-fault seed.
    let mut jitter_rng = Rng::new(
        cfg.faults
            .as_ref()
            .map(|f| f.seed)
            .or_else(|| cfg.site_faults.as_ref().map(|sf| sf.seed))
            .unwrap_or(0),
    );
    let backoff_cfg: Option<Backoff> = cfg
        .faults
        .as_ref()
        .map(|f| f.backoff)
        .or_else(|| cfg.site_faults.as_ref().map(|sf| sf.backoff));
    let tele = continuum_obs::ambient();
    let trace_on = tele
        .as_deref()
        .is_some_and(continuum_obs::Telemetry::trace_enabled);
    let mut health = cfg.health.as_ref().map(HealthPlane::new);
    let mut saturated = false;
    // Per-site thread tracks: tid 1 is the forwarder/fabric control
    // track, each site gets its own. Named up front (M metadata) so
    // federated traces open with readable track names.
    const SITE_TID_BASE: u32 = 200;
    if trace_on {
        if let Some(t) = tele.as_deref() {
            t.tracer.thread_name(t.pid(), 1, "fabric");
            for s in 0..n_sites {
                t.tracer
                    .thread_name(t.pid(), SITE_TID_BASE + s as u32, format!("site {s}"));
            }
        }
    }
    let mut failovers = 0u64;
    let mut detections = 0u64;
    let mut recoveries = 0u64;
    let mut orphans_restarted = 0u64;
    let mut takeovers = 0u64;
    let mut site_crashes = 0u64;
    let mut site_detections = 0u64;
    let mut site_recoveries = 0u64;
    let mut drains = 0u64;
    let mut batched = 0u64;
    let mut max_batch = 0u64;

    // Arrival cursor: indices stably sorted by arrival time. Equal-time
    // arrivals keep index order and arrivals win ties against queue
    // events — exactly the oracle heap's (time, seq) order, without
    // two heap operations per invocation.
    let mut order: Vec<usize> = (0..invocations.len()).collect();
    order.sort_by_key(|&i| invocations[i].arrival);

    if let Some(f) = &cfg.faults {
        for ev in f.schedule.events() {
            let kind = match ev.kind {
                FaultKind::EndpointCrash => FEv::EpCrash(ev.target as usize),
                FaultKind::EndpointRecover => FEv::EpRecover(ev.target as usize),
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
    if let Some(sf) = &cfg.site_faults {
        for ev in &sf.events {
            assert!(
                (ev.site as usize) < n_sites,
                "site fault targets site {} but only {n_sites} exist",
                ev.site
            );
            let kind = if ev.crash {
                FEv::SiteCrash(ev.site as usize)
            } else {
                FEv::SiteRecover(ev.site as usize)
            };
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
            in_system += 1;
            site_out[ep_site[ep]] += 1;
            let dev = &env.fleet.device(endpoints[ep].device);
            let exec = dev
                .spec
                .compute_time_parallel(spec.work_flops, spec.parallelism);
            let tin = fwd
                .transfer(env, invocations[i].origin, dev.node, spec.in_bytes)
                .expect("disconnected topology");
            let lanes = &mut eps[ep].lane_est;
            let (k, _) = lanes
                .iter()
                .enumerate()
                .min_by_key(|&(i, t)| (*t, i))
                .expect("non-empty lanes");
            lanes[k] = (now + tin).max(lanes[k]) + exec;
            let epoch = invs[i].epoch;
            queue.schedule_at(now + tin, FEv::InputReady { ep, inv: i, epoch });
            if trace_on {
                if let Some(t) = tele.as_deref() {
                    // Arrow tail of the cross-site forwarder hop: picked
                    // up by the matching FlowEnd at `InputReady`.
                    let id = fed_flow_id(i, epoch);
                    let s = ep_site[ep];
                    t.tracer.flow_start(
                        format!("inv {i} -> site {s}"),
                        "xfer",
                        now.0,
                        t.pid(),
                        1,
                        id,
                    );
                    t.tracer
                        .instant(format!("dispatch inv {i}"), "xfer", now.0, t.pid(), 1);
                }
            }
        }};
    }

    // One backoff round for a displaced invocation (or give it up).
    macro_rules! backoff_or_drop {
        ($i:expr, $now:expr) => {{
            let (i, now) = ($i, $now);
            let cfg_b = backoff_cfg.expect("displacement implies faults");
            if invs[i].attempts >= cfg_b.max_retries {
                dropped += 1;
            } else {
                let delay = cfg_b.delay(invs[i].attempts, &mut jitter_rng);
                invs[i].attempts += 1;
                retries += 1;
                queue.schedule_at(now + delay, FEv::Reroute(i));
            }
        }};
    }

    // Rebuild one site's routable-candidate cache and liveness after a
    // known-down transition (rare; drains reuse the cached list).
    macro_rules! refresh_site {
        ($s:expr) => {{
            let s = $s;
            st[s].cand.clear();
            for &e in &sites[s].endpoints {
                if !eps[e].known_down {
                    st[s].cand.push(e);
                }
            }
            site_live[s] = st[s].up && !st[s].known_down && !st[s].cand.is_empty();
        }};
    }

    // Start queued work on `ep` while slots are free.
    macro_rules! try_start_ep {
        ($ep:expr, $now:expr) => {{
            let (ep, now) = ($ep, $now);
            if eps[ep].up {
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
                    if let Some(wp) = cfg.warm_pool {
                        // Site-level pool: warm anywhere on the site.
                        let s = ep_site[ep];
                        let func = invocations[inv].function;
                        if let Some(pos) = st[s].warm.iter().position(|&f| f == func) {
                            st[s].warm.remove(pos);
                            st[s].warm.push(func);
                            st[s].stats.warm_hits += 1;
                        } else {
                            exec += wp.cold_time;
                            st[s].stats.cold_boots += 1;
                            if wp.capacity > 0 {
                                st[s].warm.push(func);
                                if st[s].warm.len() > wp.capacity {
                                    st[s].warm.remove(0); // evict LRU
                                }
                            }
                        }
                    } else if let Some(cs) = cfg.cold {
                        // Endpoint-level warmth, exactly the oracle.
                        if now > eps[ep].warm_until {
                            exec += cs.cold_time;
                        }
                        eps[ep].warm_until = (now + exec) + cs.keep_warm;
                    }
                    invs[inv].exec_start = now;
                    eps[ep].running.push(inv);
                    let epoch = invs[inv].epoch;
                    queue.schedule_at(now + exec, FEv::ExecDone { ep, inv, epoch });
                }
            }
        }};
    }

    // Drain one site's ingress: the batched dispatch core. The candidate
    // list and batch bookkeeping are paid once per drain; per invocation
    // only the policy pick and the assign remain.
    macro_rules! drain {
        ($s:expr, $now:expr) => {{
            let (s, now) = ($s, $now);
            if !st[s].ingress.is_empty() {
                let k = st[s].ingress.len() as u64;
                drains += 1;
                batched += k;
                if k > max_batch {
                    max_batch = k;
                }
                st[s].stats.drains += 1;
                st[s].stats.batched += k;
                while let Some(i) = st[s].ingress.pop_front() {
                    in_system -= 1;
                    let Some(spec) = registry.try_get(invocations[i].function) else {
                        dropped += 1;
                        continue;
                    };
                    let mut rr = st[s].rr_ep;
                    let choice = choose_in_site(
                        env,
                        endpoints,
                        &eps,
                        &st[s].cand,
                        cfg.policy,
                        &mut rr,
                        spec,
                        invocations[i].origin,
                        now,
                        &mut fwd,
                    );
                    st[s].rr_ep = rr;
                    match choice {
                        Some(ep) => {
                            if invs[i].displaced {
                                invs[i].displaced = false;
                                reroutes += 1;
                                invs[i].epoch += 1;
                            }
                            assign!(i, ep, spec, now);
                        }
                        None => backoff_or_drop!(i, now),
                    }
                }
            }
        }};
    }

    // Buffer one invocation at site `s`, draining by fill or timer.
    macro_rules! enqueue {
        ($i:expr, $s:expr, $now:expr) => {{
            let (i, s, now) = ($i, $s, $now);
            in_system += 1;
            st[s].ingress.push_back(i);
            if batch <= 1 || st[s].ingress.len() >= batch {
                drain!(s, now);
            } else if !st[s].drain_pending {
                st[s].drain_pending = true;
                queue.schedule_at(now + cfg.drain_every, FEv::Drain(s));
            }
        }};
    }

    // Take a flight-recorder sample when one is due: per-site ingress
    // depth, outstanding count, and warm-pool hit rate.
    macro_rules! health_tick {
        ($now:expr) => {{
            if let Some(h) = health.as_mut() {
                let now: SimTime = $now;
                if h.due(now.0) {
                    let mut gauges: Vec<(String, f64)> = Vec::with_capacity(3 * n_sites);
                    for (s, site) in st.iter().enumerate() {
                        gauges.push((format!("site{s}.ingress"), site.ingress.len() as f64));
                        gauges.push((format!("site{s}.outstanding"), site_out[s] as f64));
                        let starts = site.stats.warm_hits + site.stats.cold_boots;
                        if starts > 0 {
                            gauges.push((
                                format!("site{s}.warm_hit_rate"),
                                site.stats.warm_hits as f64 / starts as f64,
                            ));
                        }
                    }
                    h.sample(now.0, gauges);
                }
            }
        }};
    }

    let mut next_arr = 0usize;
    loop {
        let arrival_next: Option<SimTime> = order.get(next_arr).map(|&i| invocations[i].arrival);
        let take_arrival = match (arrival_next, queue.peek_time()) {
            (Some(a), Some(q)) => a <= q,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_arrival {
            let i = order[next_arr];
            next_arr += 1;
            let now = invocations[i].arrival;
            health_tick!(now);
            // Admission gate, then forward to a site.
            if let Some(a) = cfg.admission {
                if in_system >= a.max_outstanding {
                    rejected += 1;
                    if let Some(h) = health.as_mut() {
                        // One anomaly per saturation episode.
                        if !saturated {
                            h.anomaly(now.0, "saturation");
                        }
                    }
                    saturated = true;
                    continue;
                }
            }
            saturated = false;
            let spec = registry.get(invocations[i].function);
            match fwd.choose_site(
                env,
                cfg.policy,
                &site_live,
                &site_out,
                &brokers,
                invocations[i].origin,
                spec.in_bytes,
            ) {
                Some(s) => {
                    st[s].stats.forwarded += 1;
                    enqueue!(i, s, now);
                }
                None => backoff_or_drop!(i, now),
            }
            continue;
        }
        let Some((now, ev)) = queue.pop() else { break };
        match ev {
            FEv::InputReady { ep, inv, epoch } => {
                if epoch != invs[inv].epoch {
                    continue; // re-routed while the payload was in flight
                }
                if trace_on {
                    if let Some(t) = tele.as_deref() {
                        // Arrow head of the forwarder hop started at
                        // `assign!` (same id, same name).
                        let s = ep_site[ep];
                        let tid = SITE_TID_BASE + s as u32;
                        t.tracer.flow_end(
                            format!("inv {inv} -> site {s}"),
                            "xfer",
                            now.0,
                            t.pid(),
                            tid,
                            fed_flow_id(inv, epoch),
                        );
                        t.tracer
                            .instant(format!("arrive inv {inv}"), "xfer", now.0, t.pid(), tid);
                    }
                }
                if eps[ep].known_down {
                    // Payload landed on an endpoint already declared dead.
                    eps[ep].outstanding -= 1;
                    in_system -= 1;
                    site_out[ep_site[ep]] -= 1;
                    backoff_or_drop!(inv, now);
                    continue;
                }
                eps[ep].waiting.push_back(inv);
                if cfg.autoscale.is_some() && eps[ep].up {
                    let stx = &mut eps[ep].scale;
                    if stx.busy >= stx.active && stx.active < endpoints[ep].slots {
                        stx.grow(now);
                    }
                }
                try_start_ep!(ep, now);
            }
            FEv::ExecDone { ep, inv, epoch } => {
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
                let tout = fwd
                    .transfer(env, ep_node, invocations[inv].origin, spec.out_bytes)
                    .expect("disconnected topology");
                queue.schedule_at(now + tout, FEv::ResponseBack { inv });
                try_start_ep!(ep, now);
                if let Some(a) = cfg.autoscale {
                    if eps[ep].waiting.is_empty() {
                        let floor = a.min_slots.min(endpoints[ep].slots).max(1);
                        let stx = &mut eps[ep].scale;
                        stx.shrink_to(stx.busy.max(floor), now);
                    }
                }
            }
            FEv::ResponseBack { inv } => {
                let ep = invs[inv].assigned;
                eps[ep].outstanding -= 1;
                in_system -= 1;
                site_out[ep_site[ep]] -= 1;
                eps[ep].completions += 1;
                st[ep_site[ep]].stats.completions += 1;
                invs[inv].done_at = Some(now);
                latencies.push(now.since(invocations[inv].arrival).as_secs_f64());
                if let Some(h) = health.as_mut() {
                    h.observe(now.0, now.since(invocations[inv].arrival).0);
                }
                health_tick!(now);
            }
            FEv::EpCrash(ep) => {
                if !eps[ep].up {
                    continue;
                }
                failovers += 1;
                if trace_on {
                    if let Some(t) = tele.as_deref() {
                        t.tracer
                            .instant(format!("ep {ep} crash"), "fabric", now.0, t.pid(), 1);
                    }
                }
                let e = &mut eps[ep];
                e.up = false;
                e.gen += 1;
                for inv in std::mem::take(&mut e.running) {
                    lost_work_s += now.since(invs[inv].exec_start).as_secs_f64();
                    invs[inv].epoch += 1;
                    e.orphans.push(inv);
                }
                e.scale.settle(now);
                e.scale.active = 0;
                e.scale.busy = 0;
                e.warm_until = SimTime::ZERO; // recovery comes back cold
                let gen = e.gen;
                let hb = cfg
                    .faults
                    .as_ref()
                    .expect("crash event implies faults")
                    .heartbeat;
                queue.schedule_at(now + hb, FEv::EpDetect { ep, gen });
            }
            FEv::EpDetect { ep, gen } => {
                if eps[ep].up || eps[ep].gen != gen {
                    continue; // recovered (or crashed again) meanwhile
                }
                detections += 1;
                if trace_on {
                    if let Some(t) = tele.as_deref() {
                        t.tracer.instant(
                            format!("ep {ep} detected down"),
                            "fabric",
                            now.0,
                            t.pid(),
                            1,
                        );
                    }
                }
                eps[ep].known_down = true;
                let mut displaced: Vec<usize> = eps[ep].orphans.drain(..).collect();
                displaced.extend(eps[ep].waiting.drain(..));
                for inv in displaced {
                    eps[ep].outstanding -= 1;
                    in_system -= 1;
                    site_out[ep_site[ep]] -= 1;
                    backoff_or_drop!(inv, now);
                }
                refresh_site!(ep_site[ep]);
            }
            FEv::EpRecover(ep) => {
                if eps[ep].up {
                    continue;
                }
                recoveries += 1;
                if trace_on {
                    if let Some(t) = tele.as_deref() {
                        t.tracer
                            .instant(format!("ep {ep} recover"), "fabric", now.0, t.pid(), 1);
                    }
                }
                let e = &mut eps[ep];
                e.up = true;
                e.known_down = false;
                e.scale.settle(now);
                e.scale.active = match cfg.autoscale {
                    Some(a) => a.min_slots.min(endpoints[ep].slots).max(1),
                    None => endpoints[ep].slots,
                };
                debug_assert_eq!(e.scale.busy, 0);
                for inv in std::mem::take(&mut e.orphans) {
                    orphans_restarted += 1;
                    e.waiting.push_back(inv);
                }
                try_start_ep!(ep, now);
                refresh_site!(ep_site[ep]);
            }
            FEv::Reroute(i) => {
                let Some(spec) = registry.try_get(invocations[i].function) else {
                    dropped += 1;
                    continue;
                };
                match fwd.choose_site(
                    env,
                    cfg.policy,
                    &site_live,
                    &site_out,
                    &brokers,
                    invocations[i].origin,
                    spec.in_bytes,
                ) {
                    Some(s) => {
                        let mut rr = st[s].rr_ep;
                        let choice = choose_in_site(
                            env,
                            endpoints,
                            &eps,
                            &st[s].cand,
                            cfg.policy,
                            &mut rr,
                            spec,
                            invocations[i].origin,
                            now,
                            &mut fwd,
                        );
                        st[s].rr_ep = rr;
                        match choice {
                            Some(ep) => {
                                reroutes += 1;
                                invs[i].epoch += 1;
                                invs[i].displaced = false;
                                assign!(i, ep, spec, now);
                            }
                            None => backoff_or_drop!(i, now),
                        }
                    }
                    None => backoff_or_drop!(i, now),
                }
            }
            FEv::Drain(s) => {
                st[s].drain_pending = false;
                drain!(s, now);
            }
            FEv::SiteCrash(s) => {
                if !st[s].up {
                    continue;
                }
                site_crashes += 1;
                if trace_on {
                    if let Some(t) = tele.as_deref() {
                        t.tracer
                            .instant(format!("site {s} crash"), "fabric", now.0, t.pid(), 1);
                    }
                }
                st[s].up = false;
                st[s].gen += 1;
                st[s].warm.clear(); // the pool dies with the site
                for &ep in &sites[s].endpoints {
                    if !eps[ep].up {
                        continue; // already down via an endpoint fault
                    }
                    let e = &mut eps[ep];
                    e.up = false;
                    e.gen += 1; // invalidates any pending endpoint detect
                    for inv in std::mem::take(&mut e.running) {
                        lost_work_s += now.since(invs[inv].exec_start).as_secs_f64();
                        invs[inv].epoch += 1;
                        e.orphans.push(inv);
                    }
                    e.scale.settle(now);
                    e.scale.active = 0;
                    e.scale.busy = 0;
                    e.warm_until = SimTime::ZERO;
                }
                refresh_site!(s);
                let gen = st[s].gen;
                let hb = cfg
                    .site_faults
                    .as_ref()
                    .expect("site crash implies site faults")
                    .heartbeat;
                queue.schedule_at(now + hb, FEv::SiteDetect { site: s, gen });
            }
            FEv::SiteDetect { site: s, gen } => {
                if st[s].up || st[s].gen != gen {
                    continue; // recovered (or crashed again) meanwhile
                }
                site_detections += 1;
                if trace_on {
                    if let Some(t) = tele.as_deref() {
                        t.tracer.instant(
                            format!("site {s} detected down"),
                            "fabric",
                            now.0,
                            t.pid(),
                            1,
                        );
                    }
                }
                st[s].known_down = true;
                // Collect everything the dead site holds: per-endpoint
                // orphans and queues, then the buffered ingress.
                let mut displaced: Vec<usize> = Vec::new();
                for &ep in &sites[s].endpoints {
                    eps[ep].known_down = true;
                    let mut d: Vec<usize> = eps[ep].orphans.drain(..).collect();
                    d.extend(eps[ep].waiting.drain(..));
                    for inv in d {
                        eps[ep].outstanding -= 1;
                        in_system -= 1;
                        site_out[s] -= 1;
                        invs[inv].displaced = true;
                        displaced.push(inv);
                    }
                }
                while let Some(i) = st[s].ingress.pop_front() {
                    in_system -= 1;
                    invs[i].displaced = true;
                    displaced.push(i);
                }
                st[s].drain_pending = false;
                refresh_site!(s);
                // Broker-peer takeover: the least-loaded surviving site
                // adopts the displaced work through the forwarding layer,
                // as one ingress batch. Backoff is the last resort.
                let adopt = (0..n_sites)
                    .filter(|&x| site_live[x])
                    .min_by_key(|&x| (site_out[x], x));
                match adopt {
                    Some(a) if !displaced.is_empty() => {
                        takeovers += 1;
                        st[a].stats.adopted += displaced.len() as u64;
                        if let Some(h) = health.as_mut() {
                            h.anomaly(now.0, "takeover");
                        }
                        if trace_on {
                            if let Some(t) = tele.as_deref() {
                                t.tracer.instant(
                                    format!("site {a} takes over site {s}"),
                                    "fabric",
                                    now.0,
                                    t.pid(),
                                    1,
                                );
                            }
                        }
                        for i in displaced {
                            enqueue!(i, a, now);
                        }
                    }
                    _ => {
                        for i in displaced {
                            backoff_or_drop!(i, now);
                        }
                    }
                }
            }
            FEv::SiteRecover(s) => {
                if st[s].up {
                    continue;
                }
                site_recoveries += 1;
                if trace_on {
                    if let Some(t) = tele.as_deref() {
                        t.tracer
                            .instant(format!("site {s} recover"), "fabric", now.0, t.pid(), 1);
                    }
                }
                st[s].up = true;
                st[s].known_down = false;
                for &ep in &sites[s].endpoints {
                    if eps[ep].up {
                        // Came back individually while the site was down;
                        // clear any suspicion left by site detection.
                        eps[ep].known_down = false;
                        continue;
                    }
                    let e = &mut eps[ep];
                    e.up = true;
                    e.known_down = false;
                    e.scale.settle(now);
                    e.scale.active = match cfg.autoscale {
                        Some(a) => a.min_slots.min(endpoints[ep].slots).max(1),
                        None => endpoints[ep].slots,
                    };
                    debug_assert_eq!(e.scale.busy, 0);
                    // Orphans not yet displaced restart in place.
                    for inv in std::mem::take(&mut e.orphans) {
                        orphans_restarted += 1;
                        e.waiting.push_back(inv);
                    }
                    try_start_ep!(ep, now);
                }
                refresh_site!(s);
                // Work buffered before an undetected crash dispatches now.
                drain!(s, now);
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
    debug_assert_eq!(in_system, 0, "in-system count settles to zero");
    let span = end_time.as_secs_f64();
    let slot_seconds: f64 = eps
        .iter_mut()
        .map(|e| {
            e.scale.settle(end_time);
            e.scale.slot_seconds
        })
        .sum();
    let per_endpoint: Vec<u64> = eps.iter().map(|e| e.completions).collect();
    let fabric = FabricReport {
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
    };
    let routes = fwd.route_stats();
    let health_report = health.map(|h| h.finish(end_time.0));
    if let Some(t) = tele.as_deref() {
        let m = &t.metrics;
        m.inc("fabric.invocations", invocations.len() as u64);
        m.inc("fabric.completed", completed);
        m.record("fabric.reroutes", reroutes);
        m.record("fabric.retries", retries);
        m.record("fabric.dropped", dropped);
        m.record("fabric.rejected", rejected);
        m.record("fabric.failovers", failovers);
        m.record("fabric.detections", detections);
        m.record("fabric.recoveries", recoveries);
        m.record("fabric.orphans_restarted", orphans_restarted);
        m.set_gauge("fabric.lost_work_s", lost_work_s);
        if span > 0.0 {
            m.set_gauge("fabric.throughput_hz", completed as f64 / span);
        }
        for (ep, &c) in fabric.per_endpoint.iter().enumerate() {
            m.inc_labeled("fabric.endpoint_completions", ep as u32, c);
        }
        let mut snap = continuum_obs::MetricsSnapshot::new();
        snap.merge_histogram("fabric.latency", &fabric.latency_histogram());
        m.absorb(&snap);
        // Federation-level counters.
        m.record("fabric.site.takeovers", takeovers);
        m.record("fabric.site.crashes", site_crashes);
        m.record("fabric.site.detections", site_detections);
        m.record("fabric.site.recoveries", site_recoveries);
        for (s, site) in st.iter().enumerate() {
            m.inc_labeled("fabric.site.completions", s as u32, site.stats.completions);
            m.inc_labeled("fabric.site.forwarded", s as u32, site.stats.forwarded);
            m.inc_labeled("fabric.site.adopted", s as u32, site.stats.adopted);
            m.inc_labeled("fabric.site.warm_hits", s as u32, site.stats.warm_hits);
            m.inc_labeled("fabric.site.cold_boots", s as u32, site.stats.cold_boots);
        }
        m.record("fabric.batch.drains", drains);
        m.record("fabric.batch.dispatched", batched);
        m.set_gauge("fabric.batch.max", max_batch as f64);
        m.set_gauge(
            "fabric.batch.mean",
            if drains > 0 {
                batched as f64 / drains as f64
            } else {
                0.0
            },
        );
        fwd.publish_metrics(m, "fabric.forwarder");
        if let Some(hr) = &health_report {
            hr.publish(m);
        }
    }
    FederationReport {
        fabric,
        sites: st.into_iter().map(|x| x.stats).collect(),
        takeovers,
        site_crashes,
        site_detections,
        site_recoveries,
        drains,
        batched,
        max_batch,
        route_hits: routes.hits,
        route_misses: routes.misses,
        health: health_report,
    }
}

/// Deterministic flow-event id for one forwarder hop: a splitmix64-style
/// mix of the invocation index and its dispatch epoch, so the arrow tail
/// (at `assign!`) and head (at `InputReady`) compute the same id
/// independently and re-dispatches get fresh arrows.
fn fed_flow_id(inv: usize, epoch: u32) -> u64 {
    let mut z = (inv as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(epoch));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pick an endpoint among a site's `candidates` under `policy`; `None`
/// iff the candidate set is empty. Mirrors the oracle's endpoint choice
/// exactly, with the transfer times read from the forwarder's matrix
/// lookups instead of materialized paths (bit-identical results).
#[allow(clippy::too_many_arguments)]
fn choose_in_site(
    env: &Env,
    endpoints: &[Endpoint],
    eps: &[EpState],
    candidates: &[usize],
    policy: RoutingPolicy,
    rr_next: &mut usize,
    spec: &FunctionSpec,
    origin: NodeId,
    now: SimTime,
    fwd: &mut Forwarder,
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
        RoutingPolicy::LeastOutstanding => {
            // One min over `outstanding << 32 | id` keys: the same
            // (outstanding, id) order as a tuple `min_by_key`, as a plain
            // integer min the compiler can make branch-free. Ids fit in
            // 32 bits (asserted on entry to `run_federation`).
            let key = candidates
                .iter()
                .map(|&e| (u64::from(eps[e].outstanding) << 32) | e as u64)
                .min()
                .expect("candidates non-empty");
            (key & u64::from(u32::MAX)) as usize
        }
        RoutingPolicy::Locality => {
            candidates
                .iter()
                .copied()
                .map(|e| {
                    let dev = &env.fleet.device(endpoints[e].device);
                    let ep_node = dev.node;
                    let tin = fwd
                        .transfer(env, origin, ep_node, spec.in_bytes)
                        .expect("disconnected topology");
                    let tout = fwd
                        .transfer(env, ep_node, origin, spec.out_bytes)
                        .expect("disconnected topology");
                    let exec = dev
                        .spec
                        .compute_time_parallel(spec.work_flops, spec.parallelism);
                    let free = *eps[e].lane_est.iter().min().expect("endpoint has a slot");
                    let start = (now + tin).max(free);
                    (start + exec + tout, e)
                })
                .min()
                .expect("candidates non-empty")
                .1
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::endpoints_on;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, continuum_regions, ContinuumSpec, Tier};

    fn world() -> (Env, RegionPartition, Vec<NodeId>) {
        let spec = ContinuumSpec::default();
        let built = continuum(&spec);
        let sensors = built.sensors.clone();
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let partition = RegionPartition::new(&env.topology, continuum_regions(&spec), 0);
        (env, partition, sensors)
    }

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
        let mut rng = Rng::new(seed);
        let mut t = 0.0;
        let invocations = (0..n)
            .map(|i| {
                t += rng.exp(rate);
                Invocation {
                    arrival: SimTime::from_secs_f64(t),
                    origin: sensors[i % sensors.len()],
                    function: f,
                }
            })
            .collect();
        (registry, endpoints, invocations)
    }

    #[test]
    fn sites_from_partition_covers_endpoints_disjointly() {
        let (env, partition, _) = world();
        let mut devices = env.fleet.in_tier(Tier::Fog);
        devices.extend(env.fleet.in_tier(Tier::Cloud));
        let endpoints = endpoints_on(&env, &devices);
        for max_sites in [1, 2, 4, 64] {
            let sites = sites_from_partition(&env, &partition, &endpoints, max_sites);
            assert!(!sites.is_empty() && sites.len() <= max_sites);
            let mut seen = vec![false; endpoints.len()];
            for (s, site) in sites.iter().enumerate() {
                assert_eq!(site.id, SiteId(s as u32));
                assert!(site.endpoints.windows(2).all(|w| w[0] < w[1]), "ascending");
                for &e in &site.endpoints {
                    assert!(!seen[e], "endpoint {e} in two sites");
                    seen[e] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "every endpoint owned");
        }
        let one = sites_from_partition(&env, &partition, &endpoints, 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].endpoints.len(), endpoints.len());
    }

    #[test]
    fn batching_conserves_and_defers_dispatch() {
        let (env, partition, sensors) = world();
        let (registry, endpoints, invocations) = workload(&env, &sensors, 500, 300.0, 9);
        let sites = sites_from_partition(&env, &partition, &endpoints, 2);
        let mut lat = Vec::new();
        for batch in [1usize, 8, 32] {
            let mut cfg = FederationCfg::new(RoutingPolicy::RoundRobin);
            cfg.batch = batch;
            cfg.drain_every = SimDuration::from_millis(50);
            let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
            assert_eq!(
                fed.fabric.completed,
                invocations.len() as u64,
                "batch {batch}"
            );
            if batch == 1 {
                assert_eq!(fed.max_batch, 1);
            } else {
                assert!(fed.max_batch > 1, "batch {batch} never coalesced");
                assert!(fed.drains < invocations.len() as u64);
            }
            let (p50, _, _) = fed.fabric.latency_percentiles();
            lat.push(p50);
        }
        // Buffering trades latency for amortization: median latency is
        // monotone non-decreasing in batch size on this steady load.
        assert!(
            lat[0] <= lat[1] + 1e-9 && lat[1] <= lat[2] + 1e-9,
            "{lat:?}"
        );
    }

    #[test]
    fn warm_pool_hits_repeat_functions_and_evicts_lru() {
        let (env, _, sensors) = world();
        let mut registry = FunctionRegistry::new();
        let fa = registry.register("a", 5e9, 10 << 10, 1 << 10);
        let fb = registry.register("b", 5e9, 10 << 10, 1 << 10);
        let cloud = env.fleet.in_tier(Tier::Cloud);
        let endpoints = endpoints_on(&env, &cloud[..1]);
        let sites = single_site(&env, &endpoints);
        // Sparse serial traffic alternating two functions.
        let invocations: Vec<Invocation> = (0..20)
            .map(|i| Invocation {
                arrival: SimTime::from_secs_f64(10.0 * i as f64),
                origin: sensors[0],
                function: if i % 2 == 0 { fa } else { fb },
            })
            .collect();
        let pool = |capacity| {
            let mut cfg = FederationCfg::new(RoutingPolicy::RoundRobin);
            cfg.warm_pool = Some(WarmPool {
                capacity,
                cold_time: SimDuration::from_secs(1),
            });
            run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg)
        };
        // Capacity 2 holds both functions: two boots, the rest warm.
        let big = pool(2);
        assert_eq!(big.sites[0].cold_boots, 2);
        assert_eq!(big.sites[0].warm_hits, 18);
        // Capacity 1 thrashes: alternating functions evict each other.
        let small = pool(1);
        assert_eq!(small.sites[0].warm_hits, 0);
        assert_eq!(small.sites[0].cold_boots, 20);
        // Capacity 0 runs everything cold too.
        let none = pool(0);
        assert_eq!(none.sites[0].cold_boots, 20);
        // Warmth shows up in latency.
        let (big_p50, _, _) = big.fabric.latency_percentiles();
        let (small_p50, _, _) = small.fabric.latency_percentiles();
        assert!(big_p50 < small_p50);
    }

    #[test]
    fn site_crash_triggers_peer_takeover_and_conserves() {
        let (env, partition, sensors) = world();
        let (registry, endpoints, invocations) = workload(&env, &sensors, 400, 200.0, 13);
        let sites = sites_from_partition(&env, &partition, &endpoints, 4);
        assert!(sites.len() >= 2, "need peers for takeover");
        let mid = invocations[invocations.len() / 2].arrival;
        let mut cfg = FederationCfg::new(RoutingPolicy::LeastOutstanding);
        cfg.site_faults = Some(SiteFaults {
            events: vec![
                SiteFaultEvent {
                    at: mid,
                    site: 0,
                    crash: true,
                },
                SiteFaultEvent {
                    at: mid + SimDuration::from_secs(30),
                    site: 0,
                    crash: false,
                },
            ],
            heartbeat: SimDuration::from_millis(500),
            backoff: Backoff::default(),
            seed: 0xBEEF,
        });
        let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
        let f = &fed.fabric;
        assert_eq!(
            f.completed + f.dropped + f.rejected,
            invocations.len() as u64,
            "conservation"
        );
        assert_eq!(fed.site_crashes, 1);
        assert_eq!(fed.site_detections, 1);
        assert_eq!(fed.site_recoveries, 1);
        assert_eq!(fed.takeovers, 1, "a peer adopted the dead site's work");
        let adopted: u64 = fed.sites.iter().map(|s| s.adopted).sum();
        assert!(adopted > 0, "takeover moved work");
        assert!(f.completed > 0);
    }

    #[test]
    fn health_plane_records_takeover_and_leaves_fabric_untouched() {
        let (env, partition, sensors) = world();
        let (registry, endpoints, invocations) = workload(&env, &sensors, 400, 200.0, 13);
        let sites = sites_from_partition(&env, &partition, &endpoints, 4);
        let mid = invocations[invocations.len() / 2].arrival;
        let mut cfg = FederationCfg::new(RoutingPolicy::LeastOutstanding);
        cfg.warm_pool = Some(WarmPool {
            capacity: 4,
            cold_time: SimDuration::from_millis(200),
        });
        cfg.site_faults = Some(SiteFaults {
            events: vec![
                SiteFaultEvent {
                    at: mid,
                    site: 0,
                    crash: true,
                },
                SiteFaultEvent {
                    at: mid + SimDuration::from_secs(30),
                    site: 0,
                    crash: false,
                },
            ],
            heartbeat: SimDuration::from_millis(500),
            backoff: Backoff::default(),
            seed: 0xBEEF,
        });
        let plain = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
        assert!(plain.health.is_none());
        let mut hcfg = cfg.clone();
        hcfg.health = Some(HealthSpec {
            sample_every_ns: 50_000_000, // 50 ms: plenty of frames
            ..HealthSpec::default()
        });
        let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &hcfg);
        // Observing the run must not change it.
        assert_eq!(fed.fabric, plain.fabric);
        assert_eq!(fed.takeovers, plain.takeovers);
        let h = fed.health.as_ref().expect("health requested");
        assert_eq!(h.observed, fed.fabric.completed);
        assert!(h.anomalies.iter().any(|a| a.kind == "takeover"));
        assert_eq!(h.incident.as_ref().unwrap().at_ns, mid.0 + 500_000_000);
        assert!(!h.frames.is_empty(), "flight recorder sampled frames");
        assert!(
            h.frames
                .iter()
                .any(|f| f.gauges.iter().any(|(k, _)| k.ends_with(".warm_hit_rate"))),
            "frames carry per-site warm-pool gauges"
        );
        // Deterministic: the same run yields the same timeline.
        let again = run_federation(&env, &registry, &endpoints, &sites, &invocations, &hcfg);
        assert_eq!(again.health, fed.health);
    }

    #[test]
    fn site_crash_with_no_peer_backs_off_like_single_broker() {
        let (env, _, sensors) = world();
        let (registry, endpoints, invocations) = workload(&env, &sensors, 50, 100.0, 21);
        let sites = single_site(&env, &endpoints);
        let start = invocations[0].arrival;
        let mut cfg = FederationCfg::new(RoutingPolicy::RoundRobin);
        cfg.site_faults = Some(SiteFaults {
            events: vec![
                SiteFaultEvent {
                    at: start,
                    site: 0,
                    crash: true,
                },
                SiteFaultEvent {
                    at: start + SimDuration::from_secs(5),
                    site: 0,
                    crash: false,
                },
            ],
            heartbeat: SimDuration::from_millis(200),
            backoff: Backoff::default(),
            seed: 3,
        });
        let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
        let f = &fed.fabric;
        assert_eq!(
            f.completed + f.dropped + f.rejected,
            invocations.len() as u64
        );
        assert_eq!(fed.takeovers, 0, "no surviving peer to adopt");
        assert!(f.retries > 0, "displaced work backed off");
        assert!(f.completed > 0, "recovery drained the backlog");
    }

    #[test]
    fn forwarder_route_hits_dominate_on_repeat_traffic() {
        let (env, partition, sensors) = world();
        let (registry, endpoints, invocations) = workload(&env, &sensors, 1000, 300.0, 5);
        let sites = sites_from_partition(&env, &partition, &endpoints, 4);
        let fed = run_federation(
            &env,
            &registry,
            &endpoints,
            &sites,
            &invocations,
            &FederationCfg::new(RoutingPolicy::RoundRobin),
        );
        assert!(
            fed.route_hits > fed.route_misses,
            "hits {} misses {}",
            fed.route_hits,
            fed.route_misses
        );
    }
}
