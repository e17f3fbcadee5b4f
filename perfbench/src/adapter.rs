//! Every call the benchmark makes into the program lives in this module.
//!
//! Each workload is one complete front-door run: a scenario spec is
//! built into a world ([`setup`], timed as set-up), then one timed
//! operation ([`run`]) generates the seed's inputs, places or plans them,
//! drives one simulation to completion and returns the simulated outcome
//! in a program-independent shape ([`Outcome`]). Only the generated
//! inputs reach the program; the seed stays here.
//!
//! When the program's entry points change (one executor entry taking a
//! config, the single broker removed), this is the only file to update.
//! The benchmark never calls `ShardOpts::windowed` or the single-broker
//! `run_fabric*` functions.

use crate::spans::{Recorder, SpanId};
use continuum_fabric::{
    endpoints_on, run_federation, sites_from_partition, Admission, Backoff, Endpoint,
    FederationCfg, FederationReport, FunctionId, FunctionRegistry, Invocation, RoutingPolicy, Site,
    SiteFaultEvent, SiteFaults, WarmPool,
};
use continuum_model::{standard_fleet, DeviceClass, DeviceId};
use continuum_net::{
    continuum, continuum_regions, ContinuumSpec, LinkSpec, NodeId, RegionPartition, Tier,
};
use continuum_obs::{HealthReport, HealthSpec, Histogram, MetricsSnapshot, Telemetry};
use continuum_placement::{Env, HeftPlacer, OnlinePlacer, Placement, Placer};
use continuum_runtime::{
    simulate_open_loop, simulate_open_loop_sharded, simulate_stream_chaos, FaultPlane,
    OpenLoopOpts, OpenLoopReport, ShardOpts, SimOutcome, StreamRequest,
};
use continuum_sim::{
    FaultKind, FaultProcess, FaultSchedule, FaultScheduleSpec, Rng, SimDuration, SimTime,
};
use continuum_workflow::{
    layered_random, montage_like, open_loop_arrivals, ArrivalProcess, Dag, LayeredSpec,
    OpenLoopSpec,
};
use std::rc::Rc;
use std::time::Instant;

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OpenloopStream,
    PinnedShards,
    FederationDispatch,
    BatchChaos,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OpenloopStream,
        Workload::PinnedShards,
        Workload::FederationDispatch,
        Workload::BatchChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OpenloopStream => "openloop_stream",
            Workload::PinnedShards => "pinned_shards",
            Workload::FederationDispatch => "federation_dispatch",
            Workload::BatchChaos => "batch_chaos",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// ---------------------------------------------------------------------
// Workload sizes. Each is sized so one operation completes at least
// 1,000 requests (ten latency samples beyond p99) in about a second of
// host time or less, so a run times many operations.
// ---------------------------------------------------------------------

/// openloop_stream: Poisson arrivals offered at 400/s, well past the
/// scenario's knee (about 150 completions/s with Pareto-sized requests),
/// so the admission gate rejects and admitted requests queue.
const STREAM_REQUESTS: usize = 30_000;
const STREAM_RATE_HZ: f64 = 400.0;
const STREAM_MAX_LIVE: usize = 64;
/// Pareto tail index of per-request frame size and inference work.
const STREAM_SIZE_ALPHA: f64 = 4.0;

/// pinned_shards: spanning-heavy layered DAGs, 11 of every 12 placed
/// alternately on fog-side and backbone devices, on two pinned shards.
const PINNED_REQUESTS: usize = 4_000;
const PINNED_RATE_HZ: f64 = 100.0;
const PINNED_TASKS: usize = 8;
const PINNED_SHARDS: usize = 2;

/// federation_dispatch: function invocations through four site brokers.
const FED_INVOCATIONS: usize = 200_000;
const FED_RATE_HZ: f64 = 2_000.0;
const FED_SITES: usize = 4;
const FED_FUNCTIONS: usize = 64;

/// batch_chaos: small layered-random and Montage-like DAGs, each planned
/// by HEFT, under a device/link crash-recover storm.
const CHAOS_REQUESTS: usize = 1_000;
const CHAOS_RATE_HZ: f64 = 10.0;

/// SLO health plane of the stream and federation workloads: the 400 ms
/// objective of the F15 experiment with burn windows and sampling scaled
/// to about a minute of simulated time, so the short-window burn crosses
/// the 14.4 threshold mid-run and the 256-frame flight recorder fills.
fn health_spec() -> HealthSpec {
    HealthSpec {
        objective_ns: 400_000_000,
        short_window_ns: 1_000_000_000,
        long_window_ns: 12_000_000_000,
        sample_every_ns: 20_000_000,
        ..HealthSpec::default()
    }
}

/// Host seconds of each set-up stage, scenario spec to ready world.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Topology and fleet builders.
    pub topology_s: f64,
    /// `Env::new`: route table and transfer matrix.
    pub env_s: f64,
    /// Region partition.
    pub partition_s: f64,
    /// Federation sites and endpoints, device lists and placer.
    pub sites_s: f64,
}

/// A world ready for timed operations.
pub struct World {
    env: Env,
    kind: Kind,
}

enum Kind {
    Stream {
        sensors: Vec<NodeId>,
        placer: OnlinePlacer,
        wan_outage: FaultPlane,
    },
    Pinned {
        partition: RegionPartition,
        /// Per fog region: its fog node, where requests' inputs are
        /// born, and the fog node's devices; then the backbone (cloud
        /// and HPC) devices.
        fogs: Vec<(NodeId, Vec<DeviceId>)>,
        backbone: Vec<DeviceId>,
    },
    Fed {
        sensors: Vec<NodeId>,
        endpoints: Vec<Endpoint>,
        sites: Vec<Site>,
    },
    Chaos {
        edges: Vec<NodeId>,
        placer: HeftPlacer,
    },
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *slot = t0.elapsed().as_secs_f64();
    r
}

/// F15's streaming-inference scenario: one fog site, two edge gateways
/// with eight sensors each, two clouds behind a 50 ms WAN.
fn stream_spec() -> ContinuumSpec {
    ContinuumSpec {
        fogs: 1,
        edges_per_fog: 2,
        sensors_per_edge: 8,
        clouds: 2,
        hpcs: 0,
        fog_cloud: LinkSpec::new(SimDuration::from_millis(50), 1.25e9),
        ..ContinuumSpec::default()
    }
}

/// One WAN link of the stream scenario down from 1 s to 60 s of a
/// ~75 s run: routes detour through the other cloud, and while the
/// fabric is degraded every transfer takes its route from the route
/// cache, which is hit-heavy with only two epoch changes.
fn wan_outage(env: &Env) -> FaultPlane {
    let wan = env.topology.links_between(Tier::Fog, Tier::Cloud)[0];
    let mut schedule = FaultSchedule::new();
    schedule.push(SimTime::from_secs(1), FaultKind::LinkFail, wan.0);
    schedule.push(SimTime::from_secs(60), FaultKind::LinkRestore, wan.0);
    FaultPlane {
        schedule,
        detection: SimDuration::from_millis(250),
    }
}

/// The `scale` bench's fog/cloud continuum.
fn pinned_spec() -> ContinuumSpec {
    ContinuumSpec {
        fogs: 8,
        edges_per_fog: 4,
        sensors_per_edge: 4,
        clouds: 4,
        hpcs: 2,
        ..ContinuumSpec::default()
    }
}

/// The `fabric` bench's fog-densified world: 32 fog sites, each with
/// eight fog servers.
fn fed_spec() -> ContinuumSpec {
    ContinuumSpec {
        fogs: 32,
        edges_per_fog: 2,
        sensors_per_edge: 2,
        clouds: 4,
        hpcs: 2,
        ..ContinuumSpec::default()
    }
}

/// The planner bench's 526-node continuum.
fn chaos_spec() -> ContinuumSpec {
    ContinuumSpec {
        fogs: 8,
        edges_per_fog: 8,
        sensors_per_edge: 7,
        ..ContinuumSpec::default()
    }
}

/// Build `workload`'s world from its scenario spec, timing each stage.
pub fn setup(workload: Workload) -> (World, SetupTimes) {
    let mut t = SetupTimes::default();
    let world = match workload {
        Workload::OpenloopStream => {
            let spec = stream_spec();
            let (built, fleet) = timed(&mut t.topology_s, || {
                let built = continuum(&spec);
                let fleet = standard_fleet(&built);
                (built, fleet)
            });
            let env = timed(&mut t.env_s, || Env::new(built.topology.clone(), fleet));
            let placer = timed(&mut t.sites_s, || OnlinePlacer::continuum(&env));
            let wan_outage = wan_outage(&env);
            World {
                env,
                kind: Kind::Stream {
                    sensors: built.sensors,
                    placer,
                    wan_outage,
                },
            }
        }
        Workload::PinnedShards => {
            let spec = pinned_spec();
            let (built, fleet) = timed(&mut t.topology_s, || {
                let built = continuum(&spec);
                let fleet = standard_fleet(&built);
                (built, fleet)
            });
            let env = timed(&mut t.env_s, || Env::new(built.topology.clone(), fleet));
            let regions = continuum_regions(&spec);
            let partition = timed(&mut t.partition_s, || {
                RegionPartition::new(&env.topology, regions.clone(), 0)
            });
            let (fogs, backbone) = timed(&mut t.sites_s, || {
                let devices = |nodes: &[NodeId]| -> Vec<DeviceId> {
                    nodes
                        .iter()
                        .filter(|&&n| env.topology.node(n).tier >= Tier::Fog)
                        .flat_map(|&n| env.fleet.at_node(n).iter().copied())
                        .collect()
                };
                let fogs = regions[1..].iter().map(|r| (r[0], devices(r))).collect();
                (fogs, devices(&regions[0]))
            });
            World {
                env,
                kind: Kind::Pinned {
                    partition,
                    fogs,
                    backbone,
                },
            }
        }
        Workload::FederationDispatch => {
            let spec = fed_spec();
            let (built, fleet) = timed(&mut t.topology_s, || {
                let built = continuum(&spec);
                let mut fleet = standard_fleet(&built);
                for &f in &built.fogs {
                    for _ in 0..7 {
                        fleet.add_class(f, DeviceClass::FogServer);
                    }
                }
                (built, fleet)
            });
            let env = timed(&mut t.env_s, || Env::new(built.topology.clone(), fleet));
            let partition = timed(&mut t.partition_s, || {
                RegionPartition::new(&env.topology, continuum_regions(&spec), 0)
            });
            let (endpoints, sites) = timed(&mut t.sites_s, || {
                let mut devices = env.fleet.in_tier(Tier::Fog);
                devices.extend(env.fleet.in_tier(Tier::Cloud));
                let endpoints = endpoints_on(&env, &devices);
                let sites = sites_from_partition(&env, &partition, &endpoints, FED_SITES);
                (endpoints, sites)
            });
            World {
                env,
                kind: Kind::Fed {
                    sensors: built.sensors,
                    endpoints,
                    sites,
                },
            }
        }
        Workload::BatchChaos => {
            let spec = chaos_spec();
            let (built, fleet) = timed(&mut t.topology_s, || {
                let built = continuum(&spec);
                let fleet = standard_fleet(&built);
                (built, fleet)
            });
            let env = timed(&mut t.env_s, || Env::new(built.topology.clone(), fleet));
            // HEFT scans candidates serially; its picks are bit-identical
            // to the parallel scan's. The parallel scan spawns threads for
            // every task, and on a shared two-vCPU host the time of that
            // follows the hypervisor's scheduling of the other vCPU, not
            // the program: its CPU time swung 1.7x between runs while the
            // host's speed moved it 1.3x the other way.
            let placer = timed(&mut t.sites_s, || HeftPlacer {
                parallel: false,
                ..HeftPlacer::default()
            });
            World {
                env,
                kind: Kind::Chaos {
                    edges: built.edges,
                    placer,
                },
            }
        }
    };
    (world, t)
}

/// The simulated outcome of one operation, in the benchmark's terms.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Requests (invocations) the benchmark generated and handed over.
    pub generated: u64,
    /// Requests the program reports offered.
    pub offered: u64,
    pub completed: u64,
    /// Refused by admission control.
    pub rejected: u64,
    /// Abandoned after retries.
    pub dropped: u64,
    /// Simulated latency quantiles of completed requests, seconds.
    pub p50_s: f64,
    pub p99_s: f64,
    /// Latency samples behind the quantiles.
    pub samples: u64,
    /// Simulated time of the last completion, seconds.
    pub sim_end_s: f64,
    /// FNV-1a digest over every simulated output of the run.
    pub digest: u64,
}

impl Outcome {
    /// Completions per simulated second.
    pub fn goodput_hz(&self) -> f64 {
        if self.sim_end_s > 0.0 {
            self.completed as f64 / self.sim_end_s
        } else {
            0.0
        }
    }
}

/// One timed operation's result: the outcome plus per-layer counts the
/// program reported (in its report and, when traced, through the
/// ambient telemetry sink).
pub struct Run {
    pub outcome: Outcome,
    pub layers: Vec<(&'static str, f64)>,
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn u(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
    fn f(&mut self, v: f64) -> &mut Self {
        self.u(v.to_bits())
    }
    fn hist(&mut self, h: &Histogram) -> &mut Self {
        self.u(h.count).u(h.sum_ns).u(h.min_ns).u(h.max_ns);
        for (bound, count) in h.sparse_buckets() {
            self.u(bound).u(count);
        }
        self
    }
    fn health(&mut self, h: Option<&HealthReport>) -> &mut Self {
        if let Some(h) = h {
            self.u(h.objective_ns).u(h.observed).u(h.violations);
            self.f(h.burn_short).f(h.burn_long);
            self.f(h.burn_short_peak).f(h.burn_long_peak);
            self.u(h.anomalies.len() as u64).u(h.anomalies_dropped);
            self.u(h.frames.len() as u64).u(h.frames_dropped);
        }
        self
    }
}

/// Install a fresh telemetry sink around `f` when `on`, returning the
/// metrics it harvested.
fn observed<R>(on: bool, f: impl FnOnce() -> R) -> (R, Option<MetricsSnapshot>) {
    if !on {
        return (f(), None);
    }
    let tele = Rc::new(Telemetry::new(false));
    let r = continuum_obs::with_ambient(&tele, f);
    (r, Some(tele.metrics.snapshot()))
}

/// Per-layer program counters common to the stream executors, from the
/// report and the harvested telemetry.
fn executor_layers(
    rep: &OpenLoopReport,
    snap: Option<&MetricsSnapshot>,
) -> Vec<(&'static str, f64)> {
    let mut v = vec![
        ("executor.transfers", rep.transfers as f64),
        ("executor.replacements", rep.replacements as f64),
        ("executor.peak_live_requests", rep.peak_live as f64),
        ("executor.peak_record_buffer", rep.peak_record_buffer as f64),
    ];
    if let Some(h) = &rep.health {
        v.extend(health_layers(h));
    }
    v.extend(snapshot_layers(snap));
    v
}

fn health_layers(h: &HealthReport) -> [(&'static str, f64); 4] {
    [
        ("slo.burn.short_peak", h.burn_short_peak),
        ("slo.burn.violations", h.violations as f64),
        ("slo.burn.anomalies", h.anomalies.len() as f64),
        // Nonzero once the flight-recorder ring has filled.
        ("slo.recorder.frames_dropped", h.frames_dropped as f64),
    ]
}

/// Counters only the ambient telemetry sink publishes.
fn snapshot_layers(snap: Option<&MetricsSnapshot>) -> Vec<(&'static str, f64)> {
    let Some(s) = snap else {
        return Vec::new();
    };
    let c = |k: &str| s.counter(k) as f64;
    let g = |k: &str| s.gauge(k).unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (hits, misses) = (c("route_cache.hits"), c("route_cache.misses"));
    let (recomputes, flows) = (
        c("flow_engine.recomputes"),
        c("flow_engine.recomputed_flows"),
    );
    let mut v = vec![
        ("executor.stalls", c("executor.stalls")),
        ("executor.publishes", c("executor.publishes")),
        ("event_queue.scheduled", c("event_queue.scheduled")),
        ("event_queue.cancelled", c("event_queue.cancelled")),
        ("event_queue.compactions", c("event_queue.compactions")),
        ("flow_engine.recomputes", recomputes),
        ("flow_engine.recomputed_flows", flows),
        // The published gauge is last-write-wins across shard cores;
        // the counters add exactly.
        ("flow_engine.mean_batch", ratio(flows, recomputes)),
        ("route_cache.hits", hits),
        ("route_cache.misses", misses),
        ("route_cache.hit_rate", ratio(hits, hits + misses)),
        ("route_cache.epoch_bumps", c("route_cache.epoch_bumps")),
        ("shard.windows", c("shard.windows")),
        ("shard.messages", c("shard.messages")),
        ("shard.util.mean_events", g("shard.util.mean_events")),
        ("shard.util.imbalance", g("shard.util.imbalance")),
        ("fabric.invocations", c("fabric.invocations")),
        ("fabric.batch.mean", g("fabric.batch.mean")),
    ];
    if c("shard.windows") > 0.0 {
        // Every calendar of a sharded run belongs to a shard.
        v.push(("shard.events", c("event_queue.scheduled")));
    }
    v
}

fn open_loop_digest(rep: &OpenLoopReport) -> u64 {
    let mut d = Digest::new();
    d.u(rep.offered)
        .u(rep.admitted)
        .u(rep.completed)
        .u(rep.rejected);
    // `peak_record_buffer` is left out: it is the largest single shard's
    // buffer, the one output allowed to differ across shard counts.
    d.u(rep.peak_live as u64).u(rep.end_time.0);
    d.hist(&rep.latency).hist(&rep.task_duration);
    d.u(rep.tasks_executed).u(rep.bytes_moved).u(rep.transfers);
    d.u(rep.failed_attempts)
        .u(rep.replacements)
        .u(rep.killed_attempts);
    d.u(rep.device_crashes)
        .u(rep.link_failures)
        .f(rep.lost_work_s);
    for &n in &rep.tasks_by_device {
        d.u(n);
    }
    d.f(rep.energy_j).f(rep.cost_usd);
    d.health(rep.health.as_ref());
    d.0
}

fn open_loop_outcome(generated: u64, rep: &OpenLoopReport) -> Outcome {
    Outcome {
        generated,
        offered: rep.offered,
        completed: rep.completed,
        rejected: rep.rejected,
        dropped: 0,
        p50_s: rep.latency_quantile_s(0.50),
        p99_s: rep.latency_quantile_s(0.99),
        samples: rep.latency.count,
        sim_end_s: rep.end_time.as_secs_f64(),
        digest: open_loop_digest(rep),
    }
}

/// Wrap a lazy request source so the traced run sees each pull: a `gen`
/// span around the generator, a span named `place_span` around
/// placement, and a `step` span for the executor's host time between two
/// pulls.
struct Pulls<'r, I, P> {
    source: I,
    /// Places request `i` given its DAG and arrival.
    place: P,
    /// `place` for the program's online placer, `assign` for placements
    /// the benchmark generates itself.
    place_span: &'static str,
    rec: &'r mut Recorder,
    parent: SpanId,
    pulled: u64,
    last_return: u64,
}

impl<I, P> Iterator for Pulls<'_, I, P>
where
    I: Iterator<Item = (SimTime, Dag)>,
    P: FnMut(u64, &Dag, SimTime) -> Placement,
{
    type Item = StreamRequest;

    fn next(&mut self) -> Option<StreamRequest> {
        let i = self.pulled;
        if i > 0 && self.rec.enabled() {
            let now = self.rec.now();
            self.rec
                .record("step", self.last_return, now, self.parent, Some(i - 1));
        }
        let g = self.rec.open("gen", self.parent, Some(i));
        let item = self.source.next();
        self.rec.close(g);
        let (arrival, dag) = item?;
        let p = self.rec.open(self.place_span, self.parent, Some(i));
        let placement = (self.place)(i, &dag, arrival);
        self.rec.close(p);
        self.pulled += 1;
        self.last_return = self.rec.now();
        Some(StreamRequest {
            dag,
            placement,
            arrival,
        })
    }
}

/// Pinned workload requests, generated lazily from `seed`.
fn pinned_source(world: &World, seed: u64) -> impl Iterator<Item = (SimTime, Dag)> + '_ {
    let Kind::Pinned { fogs, .. } = &world.kind else {
        unreachable!("pinned source on another world")
    };
    let mut rng = Rng::new(seed);
    let mut t = 0.0;
    (0..PINNED_REQUESTS).map(move |i| {
        t += rng.exp(PINNED_RATE_HZ);
        let source = fogs[i % fogs.len()].0;
        let dag = layered_random(
            &mut rng,
            &LayeredSpec {
                tasks: PINNED_TASKS,
                width: 4,
                source,
                bytes_mu: (2e6f64).ln(),
                work_mu: (1e9f64).ln(),
                min_mem_bytes: 0,
                ..LayeredSpec::default()
            },
        );
        (SimTime::from_secs_f64(t), dag)
    })
}

/// 11 of every 12 pinned requests span the fog-cloud boundary.
fn spans_boundary(i: usize) -> bool {
    i % 12 != 11
}

/// Place pinned request `i`: a spanning request alternates fog-side and
/// backbone devices task by task, so nearly every edge crosses the
/// boundary; the rest stay on their fog.
fn pinned_placement(world: &World, i: usize, dag: &Dag) -> Placement {
    let Kind::Pinned { fogs, backbone, .. } = &world.kind else {
        unreachable!("pinned placement on another world")
    };
    let local = &fogs[i % fogs.len()].1;
    let spanning = spans_boundary(i);
    let assignment = (0..dag.len())
        .map(|t| {
            if spanning && t % 2 == 1 {
                backbone[(i + t / 2) % backbone.len()]
            } else {
                local[(i + t / 2) % local.len()]
            }
        })
        .collect();
    Placement { assignment }
}

/// Share of pinned requests that span the fog-cloud boundary.
pub fn pinned_spanning_fraction() -> f64 {
    (0..PINNED_REQUESTS).filter(|&i| spans_boundary(i)).count() as f64 / PINNED_REQUESTS as f64
}

fn pinned_run(world: &World, seed: u64, shards: usize, rec: &mut Recorder, parent: SpanId) -> Run {
    let Kind::Pinned { partition, .. } = &world.kind else {
        unreachable!("pinned run on another world")
    };
    let traced = rec.enabled();
    let call = rec.open("shard", parent, None);
    let pulls = Pulls {
        source: pinned_source(world, seed),
        place: |i, dag: &Dag, _| pinned_placement(world, i as usize, dag),
        place_span: "assign",
        rec: &mut *rec,
        parent: call,
        pulled: 0,
        last_return: 0,
    };
    let opts = OpenLoopOpts::default();
    // Shards step serially: the rayon shim spawns threads for every
    // barrier window, and on a shared two-vCPU host that cost swings by
    // 3x from run to run with hypervisor steal, too far for a bound.
    let shard_opts = ShardOpts {
        parallel: false,
        ..ShardOpts::pinned(shards)
    };
    let ((rep, generated), snap) = observed(traced, || {
        let mut pulls = pulls;
        let rep =
            simulate_open_loop_sharded(&world.env, pulls.by_ref(), partition, &opts, &shard_opts);
        (rep, pulls.pulled)
    });
    rec.close(call);
    Run {
        outcome: open_loop_outcome(generated, &rep),
        layers: executor_layers(&rep, snap.as_ref()),
    }
}

fn stream_run(world: &World, seed: u64, rec: &mut Recorder, parent: SpanId) -> Run {
    let Kind::Stream {
        sensors,
        placer,
        wan_outage,
    } = &world.kind
    else {
        unreachable!("stream run on another world")
    };
    let spec = OpenLoopSpec {
        sensors: sensors.clone(),
        requests: STREAM_REQUESTS,
        process: ArrivalProcess::Poisson {
            rate_hz: STREAM_RATE_HZ,
        },
        frame_bytes: 200 << 10,
        infer_flops: 1e8,
        size_alpha: Some(STREAM_SIZE_ALPHA),
    };
    let traced = rec.enabled();
    let hspec = health_spec();
    let opts = OpenLoopOpts {
        max_live: STREAM_MAX_LIVE,
        plane: Some(wan_outage),
        health: Some(&hspec),
        ..OpenLoopOpts::default()
    };
    let call = rec.open("exec", parent, None);
    let mut placer = placer.clone();
    let env = &world.env;
    let pulls = Pulls {
        source: open_loop_arrivals(seed, &spec),
        place: |_, dag: &Dag, arrival| placer.place_request(env, dag, arrival).0,
        place_span: "place",
        rec: &mut *rec,
        parent: call,
        pulled: 0,
        last_return: 0,
    };
    let ((rep, generated), snap) = observed(traced, || {
        let mut pulls = pulls;
        let rep = simulate_open_loop(env, pulls.by_ref(), &opts);
        (rep, pulls.pulled)
    });
    rec.close(call);
    Run {
        outcome: open_loop_outcome(generated, &rep),
        layers: executor_layers(&rep, snap.as_ref()),
    }
}

fn fed_cfg(span_s: f64) -> FederationCfg {
    let mut cfg = FederationCfg::new(RoutingPolicy::LeastOutstanding);
    cfg.batch = 32;
    cfg.drain_every = SimDuration::from_millis(5);
    // Half the functions fit: the Zipf-hot ones mostly start warm, so
    // the median sits among warm starts and p99 among cold boots.
    cfg.warm_pool = Some(WarmPool {
        capacity: FED_FUNCTIONS / 2,
        cold_time: SimDuration::from_millis(250),
    });
    cfg.admission = Some(Admission {
        max_outstanding: 2_048,
    });
    cfg.health = Some(health_spec());
    // Site 0 dies 40% into the arrival span and returns 20 s later; a
    // surviving peer adopts its work after the heartbeat.
    let crash = span_s * 0.4;
    cfg.site_faults = Some(SiteFaults {
        events: vec![
            SiteFaultEvent {
                at: SimTime::from_secs_f64(crash),
                site: 0,
                crash: true,
            },
            SiteFaultEvent {
                at: SimTime::from_secs_f64(crash + 20.0),
                site: 0,
                crash: false,
            },
        ],
        heartbeat: SimDuration::from_millis(500),
        backoff: Backoff::default(),
        seed: 0xFA11,
    });
    cfg
}

fn fed_digest(rep: &FederationReport) -> u64 {
    let f = &rep.fabric;
    let mut d = Digest::new();
    d.u(f.completed);
    for &l in &f.latencies_s {
        d.f(l);
    }
    for &n in &f.per_endpoint {
        d.u(n);
    }
    d.f(f.throughput_hz)
        .f(f.jain)
        .u(f.end_time.0)
        .f(f.slot_seconds);
    d.u(f.reroutes)
        .u(f.retries)
        .u(f.dropped)
        .u(f.rejected)
        .f(f.lost_work_s);
    for s in &rep.sites {
        d.u(s.completions).u(s.forwarded).u(s.adopted).u(s.drains);
        d.u(s.batched).u(s.warm_hits).u(s.cold_boots);
    }
    d.u(rep.takeovers)
        .u(rep.site_crashes)
        .u(rep.site_detections);
    d.u(rep.site_recoveries)
        .u(rep.drains)
        .u(rep.batched)
        .u(rep.max_batch);
    d.u(rep.route_hits).u(rep.route_misses);
    d.health(rep.health.as_ref());
    d.0
}

fn fed_run(world: &World, seed: u64, rec: &mut Recorder, parent: SpanId) -> Run {
    let Kind::Fed {
        sensors,
        endpoints,
        sites,
    } = &world.kind
    else {
        unreachable!("federation run on another world")
    };
    let g = rec.open("gen", parent, None);
    let mut rng = Rng::new(seed);
    // Functions of lognormal size, so latencies spread continuously.
    let mut registry = FunctionRegistry::new();
    let functions: Vec<FunctionId> = (0..FED_FUNCTIONS)
        .map(|i| {
            let work = rng.lognormal((2e9f64).ln(), 0.1);
            registry.register(format!("fn{i}"), work, 10 << 10, 1 << 10)
        })
        .collect();
    let mut t = 0.0;
    let invocations: Vec<Invocation> = (0..FED_INVOCATIONS)
        .map(|i| {
            t += rng.exp(FED_RATE_HZ);
            Invocation {
                arrival: SimTime::from_secs_f64(t),
                origin: sensors[i % sensors.len()],
                // Zipf-skewed popularity: a few hot functions stay warm,
                // the tail pays cold boots.
                function: functions[rng.zipf(functions.len(), 0.8)],
            }
        })
        .collect();
    let cfg = fed_cfg(t);
    rec.close(g);
    let call = rec.open("fabric", parent, None);
    let (rep, snap) = observed(rec.enabled(), || {
        run_federation(&world.env, &registry, endpoints, sites, &invocations, &cfg)
    });
    rec.close(call);
    let (p50, _, p99) = rep.fabric.latency_percentiles();
    let warm: u64 = rep.sites.iter().map(|s| s.warm_hits).sum();
    let cold: u64 = rep.sites.iter().map(|s| s.cold_boots).sum();
    let mut layers = vec![
        ("fabric.drains", rep.drains as f64),
        ("fabric.takeovers", rep.takeovers as f64),
        ("fabric.reroutes", rep.fabric.reroutes as f64),
        (
            "fabric.warm_hit_rate",
            if warm + cold > 0 {
                warm as f64 / (warm + cold) as f64
            } else {
                0.0
            },
        ),
        ("fabric.route_hits", rep.route_hits as f64),
        ("fabric.route_misses", rep.route_misses as f64),
    ];
    if let Some(h) = &rep.health {
        layers.extend(health_layers(h));
    }
    layers.extend(snapshot_layers(snap.as_ref()));
    let f = &rep.fabric;
    Run {
        outcome: Outcome {
            generated: invocations.len() as u64,
            offered: invocations.len() as u64,
            completed: f.completed,
            rejected: f.rejected,
            dropped: f.dropped,
            p50_s: p50,
            p99_s: p99,
            samples: f.latencies_s.len() as u64,
            sim_end_s: f.end_time.as_secs_f64(),
            digest: fed_digest(&rep),
        },
        layers,
    }
}

/// A device/link crash-recover storm over `horizon_s`: every device
/// and an eighth of the links (in builder order, backbone first) fail
/// repeatedly and recover quickly, so orphaned tasks re-place and
/// every link flap bumps the route cache's epoch, while the latency tail
/// stays set by the workload rather than by a few long outages.
fn chaos_plane(env: &Env, horizon_s: f64, seed: u64) -> FaultPlane {
    let n_links = env.topology.links().len() as u32;
    let schedule = FaultSchedule::generate(
        &FaultScheduleSpec {
            horizon: SimDuration::from_secs_f64(horizon_s),
            devices: FaultProcess {
                population: env.fleet.len() as u32,
                mttf_s: horizon_s,
                mttr_s: 0.2,
            },
            links: FaultProcess {
                population: (n_links / 8).max(8),
                mttf_s: horizon_s * 0.2,
                mttr_s: 0.05,
            },
            ..FaultScheduleSpec::default()
        },
        seed ^ 0xC4A0_5EED,
    );
    FaultPlane {
        schedule,
        detection: SimDuration::from_millis(50),
    }
}

fn chaos_digest(out: &SimOutcome) -> u64 {
    let t = &out.trace;
    let mut d = Digest::new();
    for r in &t.records {
        d.u(r.request as u64)
            .u(u64::from(r.task.0))
            .u(u64::from(r.device.0));
        d.u(u64::from(r.cores)).u(r.start.0).u(r.finish.0);
    }
    for (a, f) in t.request_arrival.iter().zip(&t.request_finish) {
        d.u(a.0).u(f.0);
    }
    d.u(t.bytes_moved).u(t.transfers).u(t.failed_attempts);
    d.u(t.device_crashes).u(t.link_failures).u(t.replacements);
    d.u(t.killed_attempts).f(t.lost_work_s);
    let m = &out.metrics;
    d.f(m.makespan_s)
        .f(m.energy_j)
        .f(m.cost_usd)
        .u(m.bytes_moved);
    d.0
}

fn chaos_run(world: &World, seed: u64, rec: &mut Recorder, parent: SpanId) -> Run {
    let Kind::Chaos { edges, placer } = &world.kind else {
        unreachable!("chaos run on another world")
    };
    let env = &world.env;
    let g = rec.open("gen", parent, None);
    let mut rng = Rng::new(seed);
    let mut t = 0.0;
    let dags: Vec<(SimTime, Dag)> = (0..CHAOS_REQUESTS)
        .map(|i| {
            t += rng.exp(CHAOS_RATE_HZ);
            let source = edges[rng.index(edges.len())];
            let dag = if i % 2 == 0 {
                layered_random(
                    &mut rng,
                    &LayeredSpec {
                        tasks: 10,
                        width: 4,
                        source,
                        work_sigma: 0.25,
                        bytes_sigma: 0.25,
                        ..LayeredSpec::default()
                    },
                )
            } else {
                let images = 2 + rng.index(3);
                let image_bytes = rng.lognormal((4e6f64).ln(), 0.25) as u64;
                montage_like(source, images, image_bytes)
            };
            (SimTime::from_secs_f64(t), dag)
        })
        .collect();
    let plane = chaos_plane(env, t, seed);
    rec.close(g);
    let mut tasks = 0usize;
    let reqs: Vec<StreamRequest> = dags
        .into_iter()
        .enumerate()
        .map(|(i, (arrival, dag))| {
            let p = rec.open("plan", parent, Some(i as u64));
            let placement = placer.place(env, &dag);
            rec.close(p);
            tasks += dag.len();
            StreamRequest {
                dag,
                placement,
                arrival,
            }
        })
        .collect();
    let call = rec.open("exec", parent, None);
    let (out, snap) = observed(rec.enabled(), || {
        simulate_stream_chaos(env, &reqs, None, Some(&plane))
    });
    rec.close(call);
    let lat = out.trace.latencies_s();
    let completed = out
        .trace
        .request_finish
        .iter()
        .zip(&out.trace.request_arrival)
        .filter(|(f, a)| f > a)
        .count() as u64;
    let mut layers = vec![
        ("plan.tasks", tasks as f64),
        ("executor.transfers", out.trace.transfers as f64),
        ("executor.replacements", out.trace.replacements as f64),
    ];
    layers.extend(snapshot_layers(snap.as_ref()));
    Run {
        outcome: Outcome {
            generated: reqs.len() as u64,
            offered: reqs.len() as u64,
            completed,
            rejected: 0,
            dropped: 0,
            p50_s: crate::stats::quantile(&lat, 0.50),
            p99_s: crate::stats::quantile(&lat, 0.99),
            samples: lat.len() as u64,
            sim_end_s: out.trace.makespan().as_secs_f64(),
            digest: chaos_digest(&out),
        },
        layers,
    }
}

/// One timed operation: generate `seed`'s inputs, place or plan them,
/// simulate to completion. Spans go to `rec` under `parent`; a traced
/// recorder also harvests the program's counters through an ambient
/// telemetry sink.
pub fn run(world: &World, seed: u64, rec: &mut Recorder, parent: SpanId) -> Run {
    match world.kind {
        Kind::Stream { .. } => stream_run(world, seed, rec, parent),
        Kind::Pinned { .. } => pinned_run(world, seed, PINNED_SHARDS, rec, parent),
        Kind::Fed { .. } => fed_run(world, seed, rec, parent),
        Kind::Chaos { .. } => chaos_run(world, seed, rec, parent),
    }
}

/// The outcome `run` must reproduce exactly, where the program offers an
/// independent reference path: the pinned one-shard run for
/// `pinned_shards`. Untimed, and outside set-up.
pub fn reference(world: &World, seed: u64) -> Option<Outcome> {
    match world.kind {
        Kind::Pinned { .. } => {
            Some(pinned_run(world, seed, 1, &mut Recorder::off(), crate::spans::NO_SPAN).outcome)
        }
        _ => None,
    }
}
