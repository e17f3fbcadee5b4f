//! Telemetry-plane integration tests.
//!
//! Two guarantees hold the observability layer honest:
//!
//! 1. **Telemetry never changes the run.** Executing under an ambient
//!    [`Telemetry`] — metrics and tracing both on — must produce a
//!    [`SimOutcome`] bit-identical (every trace record, every f64) to the
//!    same run with telemetry off. The plane observes; it never steers.
//! 2. **The Perfetto export is well-formed.** The exported JSON must
//!    parse, keep non-metadata events in non-decreasing timestamp order,
//!    and balance every `B` with an `E` on the same `(pid, tid)` track —
//!    the invariants ui.perfetto.dev needs to load the file at all.

use continuum_core::prelude::*;
use continuum_fabric::{
    endpoints_on, run_federation, sites_from_partition, FederationCfg, FunctionRegistry,
    Invocation, RoutingPolicy,
};
use continuum_net::{continuum_regions, RegionPartition};
use continuum_obs::{with_ambient, Telemetry};
use continuum_runtime::{
    simulate_open_loop_sharded, simulate_stream_sharded, OpenLoopOpts, OpenLoopReport, ShardOpts,
    StreamRequest,
};
use proptest::prelude::*;
use std::rc::Rc;

fn field<'v>(ev: &'v serde::Value, key: &str) -> Option<&'v serde::Value> {
    let serde::Value::Object(pairs) = ev else {
        panic!("event is not an object");
    };
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_str(v: &serde::Value) -> &str {
    match v {
        serde::Value::Str(s) => s,
        _ => panic!("expected string"),
    }
}

fn as_f64(v: &serde::Value) -> f64 {
    match v {
        serde::Value::F64(x) => *x,
        serde::Value::U64(x) => *x as f64,
        serde::Value::I64(x) => *x as f64,
        _ => panic!("expected number"),
    }
}

/// Parse an exported trace string and return its `traceEvents` array.
fn trace_events(exported: &str) -> Vec<serde::Value> {
    let root = serde_json::parse(exported).expect("export is valid JSON");
    let serde::Value::Object(top) = root else {
        panic!("export root is not an object");
    };
    let events = top
        .into_iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents key");
    let serde::Value::Array(events) = events else {
        panic!("traceEvents is not an array");
    };
    events
}

fn world() -> Continuum {
    Continuum::build(&Scenario::default_continuum())
}

fn requests(world: &Continuum, seed: u64, tasks: usize) -> Vec<StreamRequest> {
    let mut rng = Rng::new(seed);
    let dag = layered_random(
        &mut rng,
        &LayeredSpec {
            tasks,
            work_mu: (1e11f64).ln(),
            ..Default::default()
        },
    );
    let placement = world.place(&dag, &HeftPlacer::default());
    vec![StreamRequest {
        arrival: SimTime::ZERO,
        dag,
        placement,
    }]
}

fn churn_plane(world: &Continuum, seed: u64) -> FaultPlane {
    let n_dev = world.env().fleet.len() as u32;
    let n_links = world.env().topology.links().len() as u32;
    let schedule = FaultSchedule::generate(
        &FaultScheduleSpec {
            horizon: SimDuration::from_secs(40),
            devices: FaultProcess {
                population: n_dev,
                mttf_s: 6.0,
                mttr_s: 2.0,
            },
            links: FaultProcess {
                population: n_links,
                mttf_s: 10.0,
                mttr_s: 2.0,
            },
            ..Default::default()
        },
        seed ^ 0x0B5,
    );
    FaultPlane {
        schedule,
        detection: SimDuration::from_millis(250),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Running under full telemetry (metrics + tracing) yields an outcome
    /// bit-identical to running with telemetry off, under arbitrary
    /// chaos. `SimOutcome`'s `PartialEq` intentionally ignores the
    /// attached snapshot, so this compares exactly what the executor
    /// decided — makespan, every record, every counter in the trace.
    #[test]
    fn telemetry_on_is_bit_identical_to_off(seed in any::<u64>(), tasks in 10usize..40) {
        let world = world();
        let reqs = requests(&world, seed, tasks);
        let plane = churn_plane(&world, seed);

        let off = simulate_stream_chaos(world.env(), &reqs, None, Some(&plane));
        let tele = Rc::new(Telemetry::new(true));
        let on = with_ambient(&tele, || {
            simulate_stream_chaos(world.env(), &reqs, None, Some(&plane))
        });

        prop_assert_eq!(&off, &on, "telemetry changed the execution");
        // And the full traces agree field by field, not just the summary.
        prop_assert_eq!(&off.trace.records, &on.trace.records);
        prop_assert_eq!(off.trace.replacements, on.trace.replacements);
        prop_assert_eq!(off.trace.lost_work_s, on.trace.lost_work_s);
        // Off-run carries no snapshot; on-run always does.
        prop_assert!(off.telemetry.is_none());
        let snap = on.telemetry.as_ref().expect("ambient telemetry produces a snapshot");
        prop_assert_eq!(snap.counter("executor.runs"), 1);
        prop_assert_eq!(
            snap.counter("executor.replacements"),
            on.trace.replacements
        );
        prop_assert!(snap.gauge("route_cache.hit_rate").is_some());
    }
}

/// Golden test for the Perfetto/Chrome `trace_events` export: valid
/// JSON, the required top-level shape, non-decreasing timestamps after
/// the metadata block, and balanced `B`/`E` pairs per track.
#[test]
fn perfetto_export_is_well_formed() {
    let world = world();
    let reqs = requests(&world, 0x7E1E, 30);
    let plane = churn_plane(&world, 0x7E1E);
    let tele = Rc::new(Telemetry::new(true));
    let out = with_ambient(&tele, || {
        simulate_stream_chaos(world.env(), &reqs, None, Some(&plane))
    });

    let exported = tele.tracer.export_string();
    let events = trace_events(&exported);
    assert!(!events.is_empty(), "trace exported no events");
    assert_export_invariants(&events);

    // The chaos run actually put the interesting things on the timeline:
    // one span pair per request plus task slices.
    assert_eq!(out.trace.request_finish.len(), reqs.len());
    let ph_of = |e: &serde::Value| as_str(field(e, "ph").expect("ph")).to_string();
    let n_b = events.iter().filter(|e| ph_of(e) == "B").count();
    assert_eq!(n_b, reqs.len(), "one B span per request");
    let n_x = events.iter().filter(|e| ph_of(e) == "X").count();
    assert_eq!(n_x, out.trace.records.len(), "one X slice per task record");
}

/// The structural invariants ui.perfetto.dev needs: metadata first, then
/// non-decreasing timestamps; every `B` closed by an `E` on the same
/// `(pid, tid)` track; only known phases.
fn assert_export_invariants(events: &[serde::Value]) {
    let mut seen_non_meta = false;
    let mut last_ts = f64::MIN;
    let mut open: std::collections::HashMap<(u64, u64), i64> = std::collections::HashMap::new();
    for ev in events {
        let ph = as_str(field(ev, "ph").expect("ph"));
        if ph == "M" {
            assert!(!seen_non_meta, "metadata event after timed events");
            continue;
        }
        seen_non_meta = true;
        let ts = as_f64(field(ev, "ts").expect("ts"));
        assert!(ts >= last_ts, "timestamps regressed: {ts} after {last_ts}");
        last_ts = ts;
        let track = (
            as_f64(field(ev, "pid").expect("pid")) as u64,
            as_f64(field(ev, "tid").expect("tid")) as u64,
        );
        match ph {
            "B" => *open.entry(track).or_insert(0) += 1,
            "E" => {
                let depth = open.entry(track).or_insert(0);
                *depth -= 1;
                assert!(*depth >= 0, "E without matching B on {track:?}");
            }
            "X" => assert!(as_f64(field(ev, "dur").expect("dur")) >= 0.0),
            "i" | "C" | "b" | "e" | "t" => {}
            // Flow arrows carry a correlation id; the end additionally
            // binds to its enclosing slice.
            "s" => {
                assert!(field(ev, "id").is_some(), "flow start without id");
            }
            "f" => {
                assert!(field(ev, "id").is_some(), "flow end without id");
                assert_eq!(
                    as_str(field(ev, "bp").expect("bp")),
                    "e",
                    "flow end must bind to the enclosing slice"
                );
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(open.values().all(|&d| d == 0), "unclosed B spans: {open:?}");
}

/// The embedded snapshot carries the headline counters the experiment
/// harness and CI smoke step grep for — present even when zero.
#[test]
fn snapshot_carries_headline_keys() {
    let world = world();
    let reqs = requests(&world, 0xBEEF, 20);
    let tele = Rc::new(Telemetry::new(false));
    let out = with_ambient(&tele, || simulate_stream(world.env(), &reqs));
    let snap = out.telemetry.as_ref().expect("snapshot attached");
    let rendered = serde_json::to_string(snap).expect("snapshot serializes");
    for key in [
        "route_cache.hits",
        "route_cache.misses",
        "route_cache.hit_rate",
        "event_queue.compactions",
        "executor.replacements",
        "flow_engine.recomputes",
    ] {
        assert!(
            rendered.contains(&format!("\"{key}\"")),
            "snapshot missing {key}: {rendered}"
        );
    }
    // The ambient registry absorbed the same run.
    assert_eq!(tele.metrics.snapshot(), *snap.clone());
}

/// Requests spanning a fog subtree plus the backbone, so pinned-mode
/// sharding has real cross-shard envelope traffic to stitch.
fn spanning_requests(
    world: &Continuum,
    regions: &[Vec<NodeId>],
    count: usize,
) -> Vec<StreamRequest> {
    let env = world.env();
    let devs_of = |nodes: &[NodeId]| -> Vec<DeviceId> {
        nodes
            .iter()
            .flat_map(|&n| env.fleet.at_node(n).iter().copied())
            .collect()
    };
    let backbone = devs_of(&regions[0]);
    (0..count)
        .map(|i| {
            let f = 1 + (i % (regions.len() - 1));
            let fog = devs_of(&regions[f]);
            let source = *regions[f].last().expect("non-empty region");
            let mut rng = Rng::new(0x510 + i as u64);
            let dag = layered_random(
                &mut rng,
                &LayeredSpec {
                    tasks: 8,
                    source,
                    work_mu: (1e11f64).ln(),
                    ..LayeredSpec::default()
                },
            );
            // Alternate fog and backbone devices so successive layers sit
            // in different regions and pinned mode must exchange envelopes.
            let assignment = (0..dag.len())
                .map(|k| {
                    if k % 2 == 0 {
                        fog[(k / 2) % fog.len()]
                    } else {
                        backbone[(k / 2) % backbone.len()]
                    }
                })
                .collect();
            StreamRequest {
                dag,
                placement: Placement { assignment },
                arrival: SimTime::from_millis(2 * i as u64),
            }
        })
        .collect()
}

/// A small federation fixture on the default continuum: one registered
/// function, fog + cloud endpoints, Poisson arrivals from the sensors.
fn federation_fixture(
    world: &Continuum,
    partition: &RegionPartition,
    sites_n: usize,
) -> (
    FunctionRegistry,
    Vec<continuum_fabric::Endpoint>,
    Vec<continuum_fabric::Site>,
    Vec<Invocation>,
) {
    let env = world.env();
    let mut registry = FunctionRegistry::new();
    let infer = registry.register("infer", 2e9, 10 << 10, 1 << 10);
    let mut devices = env.fleet.in_tier(Tier::Fog);
    devices.extend(env.fleet.in_tier(Tier::Cloud));
    let endpoints = endpoints_on(env, &devices);
    let sites = sites_from_partition(env, partition, &endpoints, sites_n);
    let mut rng = Rng::new(0xFED0);
    let mut t = 0.0;
    let invs: Vec<Invocation> = (0..150)
        .map(|i| {
            t += rng.exp(200.0);
            Invocation {
                arrival: SimTime::from_secs_f64(t),
                origin: world.sensors()[i % world.sensors().len()],
                function: infer,
            }
        })
        .collect();
    (registry, endpoints, sites, invs)
}

/// Golden test for causal trace stitching: one telemetry sink over a
/// pinned two-shard run and a two-site federation run exports a single
/// Perfetto file in which at least one cross-shard envelope hop and one
/// cross-site forwarder hop are connected by `s`/`f` flow arrows with a
/// shared correlation id, and the process/thread metadata names every
/// shard and site track.
#[test]
fn flow_events_stitch_cross_shard_and_cross_site_hops() {
    let world = world();
    let spec = Scenario::default_continuum().spec;
    let regions = continuum_regions(&spec);
    let partition = RegionPartition::new(world.topology(), regions.clone(), 0);
    let reqs = spanning_requests(&world, &regions, 6);
    let (registry, endpoints, sites, invs) = federation_fixture(&world, &partition, 2);
    assert!(sites.len() >= 2, "fixture must span sites");
    let mut cfg = FederationCfg::new(RoutingPolicy::RoundRobin);
    cfg.batch = 4;
    cfg.drain_every = SimDuration::from_millis(5);

    let tele = Rc::new(Telemetry::new(true));
    with_ambient(&tele, || {
        std::hint::black_box(simulate_stream_sharded(
            world.env(),
            &reqs,
            None,
            None,
            &partition,
            &ShardOpts::pinned(2),
        ));
        std::hint::black_box(run_federation(
            world.env(),
            &registry,
            &endpoints,
            &sites,
            &invs,
            &cfg,
        ));
    });

    let exported = tele.tracer.export_string();
    let events = trace_events(&exported);
    assert_export_invariants(&events);

    // Base pid is 1; shard tracks live at pid 1001 + s, site threads at
    // tid 200 + s, the forwarder at tid 1.
    const SHARD_PID_BASE: u64 = 1001;
    const SITE_TID_BASE: u64 = 200;

    // Satellite: the metadata block names every shard process and every
    // site/forwarder thread.
    let mut meta: Vec<(String, u64, u64, String)> = Vec::new();
    for ev in &events {
        if as_str(field(ev, "ph").expect("ph")) != "M" {
            continue;
        }
        let args = field(ev, "args").expect("metadata args");
        let name = as_str(field(args, "name").expect("metadata name")).to_string();
        meta.push((
            as_str(field(ev, "name").expect("key")).to_string(),
            as_f64(field(ev, "pid").expect("pid")) as u64,
            as_f64(field(ev, "tid").expect("tid")) as u64,
            name,
        ));
    }
    for s in 0..2u64 {
        assert!(
            meta.iter().any(|(k, pid, _, n)| k == "process_name"
                && *pid == SHARD_PID_BASE + s
                && n == &format!("shard {s}")),
            "process metadata names shard {s}: {meta:?}"
        );
        assert!(
            meta.iter().any(|(k, pid, tid, n)| k == "thread_name"
                && *pid == SHARD_PID_BASE + s
                && *tid == 1
                && n == "xfer"),
            "thread metadata names shard {s}'s xfer track"
        );
        assert!(
            meta.iter().any(|(k, pid, tid, n)| k == "thread_name"
                && *pid == 1
                && *tid == SITE_TID_BASE + s
                && n == &format!("site {s}")),
            "thread metadata names site {s}"
        );
    }
    assert!(
        meta.iter()
            .any(|(k, pid, tid, n)| k == "thread_name" && *pid == 1 && *tid == 1 && n == "fabric"),
        "thread metadata names the forwarder track"
    );

    // Collect flow endpoints by correlation id.
    let mut flows: std::collections::HashMap<String, Vec<(String, u64, u64)>> =
        std::collections::HashMap::new();
    for ev in &events {
        let ph = as_str(field(ev, "ph").expect("ph"));
        if !matches!(ph, "s" | "t" | "f") {
            continue;
        }
        flows
            .entry(as_str(field(ev, "id").expect("flow id")).to_string())
            .or_default()
            .push((
                ph.to_string(),
                as_f64(field(ev, "pid").expect("pid")) as u64,
                as_f64(field(ev, "tid").expect("tid")) as u64,
            ));
    }
    let pair = |v: &[(String, u64, u64)]| {
        let s = v.iter().find(|(p, _, _)| p == "s")?;
        let f = v.iter().find(|(p, _, _)| p == "f")?;
        Some(((s.1, s.2), (f.1, f.2)))
    };
    let cross_shard = flows
        .values()
        .filter_map(|v| pair(v))
        .any(|((sp, _), (fp, _))| sp >= SHARD_PID_BASE && fp >= SHARD_PID_BASE && sp != fp);
    assert!(
        cross_shard,
        "no cross-shard envelope hop stitched by a flow arrow: {flows:?}"
    );
    let cross_site = flows
        .values()
        .filter_map(|v| pair(v))
        .any(|((sp, st), (fp, ft))| sp == 1 && st == 1 && fp == 1 && ft >= SITE_TID_BASE);
    assert!(
        cross_site,
        "no cross-site forwarder hop stitched by a flow arrow: {flows:?}"
    );
}

/// Telemetry on (metrics + tracing) vs off is bit-identical for the
/// sharded open loop: every counter, every f64, every histogram bucket.
#[test]
fn open_loop_sharded_telemetry_on_is_bit_identical_to_off() {
    let world = world();
    let spec = Scenario::default_continuum().spec;
    let regions = continuum_regions(&spec);
    let partition = RegionPartition::new(world.topology(), regions.clone(), 0);
    let reqs = spanning_requests(&world, &regions, 40);
    let opts = OpenLoopOpts {
        max_live: 8,
        ..OpenLoopOpts::default()
    };
    let run = || {
        simulate_open_loop_sharded(
            world.env(),
            reqs.iter().cloned(),
            &partition,
            &opts,
            &ShardOpts::pinned(2),
        )
    };
    let off: OpenLoopReport = run();
    let tele = Rc::new(Telemetry::new(true));
    let on = with_ambient(&tele, run);
    assert_eq!(off, on, "telemetry changed the sharded open loop");
    assert!(off.completed > 0, "fixture actually completed work");
    // The observing run still published the utilization gauges.
    let snap = tele.metrics.snapshot();
    assert!(snap.gauge("shard.util.mean_events").is_some());
    assert!(snap.gauge("shard.util.imbalance").is_some());
}

/// Telemetry on vs off is bit-identical for the federation: the
/// oracle-comparable fabric report and every federation counter agree.
#[test]
fn federation_telemetry_on_is_bit_identical_to_off() {
    let world = world();
    let spec = Scenario::default_continuum().spec;
    let regions = continuum_regions(&spec);
    let partition = RegionPartition::new(world.topology(), regions.clone(), 0);
    let (registry, endpoints, sites, invs) = federation_fixture(&world, &partition, 2);
    let mut cfg = FederationCfg::new(RoutingPolicy::RoundRobin);
    cfg.batch = 4;
    cfg.drain_every = SimDuration::from_millis(5);
    let run = || run_federation(world.env(), &registry, &endpoints, &sites, &invs, &cfg);
    let off = run();
    let tele = Rc::new(Telemetry::new(true));
    let on = with_ambient(&tele, run);
    assert_eq!(off.fabric, on.fabric, "telemetry changed the federation");
    assert_eq!(
        serde::Serialize::to_value(&off.sites),
        serde::Serialize::to_value(&on.sites)
    );
    assert_eq!(off.takeovers, on.takeovers);
    assert_eq!(off.drains, on.drains);
    assert_eq!(off.batched, on.batched);
    assert_eq!(off.max_batch, on.max_batch);
    assert_eq!(off.route_hits, on.route_hits);
    assert_eq!(off.route_misses, on.route_misses);
    assert!(off.fabric.completed > 0, "fixture actually completed work");
    // The forwarder's route counters reach the snapshot under their keys.
    let snap = tele.metrics.snapshot();
    assert!(on.route_hits > 0 && on.route_misses > 0);
    assert_eq!(snap.counter("fabric.forwarder.hits"), on.route_hits);
    assert_eq!(snap.counter("fabric.forwarder.misses"), on.route_misses);
    assert_eq!(snap.counter("fabric.forwarder.epoch_bumps"), 0);
    let total = (on.route_hits + on.route_misses) as f64;
    assert_eq!(
        snap.gauge("fabric.forwarder.hit_rate"),
        Some(on.route_hits as f64 / total)
    );
}
