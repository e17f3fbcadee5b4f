//! fabric — federated-dispatch benchmark.
//!
//! Three sections, one JSON report (`BENCH_fabric.json`):
//!
//! **dispatch** — wall-clock dispatch throughput of the federation, swept
//! over batch size × site count on a fog-heavy continuum with hundreds of
//! endpoints. Speedups are relative to the 1-site batch-1 arm, which is
//! the centralized per-invocation broker (the crate's lib tests assert it
//! bit-identical to the single-broker oracle); the batched and
//! multi-site arms amortize per-invocation dispatch work across a drain
//! and shard it across site brokers.
//!
//! **placement** — federated (4-site, site-local locality scan) vs
//! centralized (1-site, global scan) placement quality under the
//! locality policy: latency percentiles, balance, and wall time.
//!
//! **failure** — a mid-run site outage with broker-peer takeover at 2
//! and 4 sites: tail-latency inflation vs the fault-free run, adopted
//! work, and drops.
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run --release -p continuum-bench --bin fabric
//! ```
//!
//! `--smoke` shrinks the world so CI can assert the JSON shape without
//! paying the full measurement cost.

use continuum_fabric::{
    endpoints_on, run_federation, sites_from_partition, Admission, Backoff, Endpoint,
    FederationCfg, FunctionRegistry, Invocation, RoutingPolicy, SiteFaultEvent, SiteFaults,
};
use continuum_model::{standard_fleet, DeviceClass};
use continuum_net::{continuum, continuum_regions, ContinuumSpec, NodeId, RegionPartition, Tier};
use continuum_placement::Env;
use continuum_sim::{Rng, SimDuration, SimTime};
use serde_json::json;
use std::time::Instant;

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

/// Best-of-`n` wall time of `f`, in milliseconds.
fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            ms(t0)
        })
        .fold(f64::INFINITY, f64::min)
}

struct World {
    env: Env,
    partition: RegionPartition,
    sensors: Vec<NodeId>,
    endpoints: Vec<Endpoint>,
}

/// A fog-heavy continuum: many fog sites, each densified to 8 fog
/// servers, so the endpoint pool is large enough that per-invocation
/// dispatch work dominates — the overhead batching and site sharding
/// amortize away.
fn build_world(smoke: bool) -> World {
    let (spec, extra_fog_devices) = if smoke {
        (
            ContinuumSpec {
                fogs: 4,
                edges_per_fog: 2,
                sensors_per_edge: 2,
                clouds: 2,
                hpcs: 1,
                ..ContinuumSpec::default()
            },
            1,
        )
    } else {
        (
            ContinuumSpec {
                fogs: 32,
                edges_per_fog: 2,
                sensors_per_edge: 2,
                clouds: 4,
                hpcs: 2,
                ..ContinuumSpec::default()
            },
            7,
        )
    };
    let built = continuum(&spec);
    let mut fleet = standard_fleet(&built);
    for &f in &built.fogs {
        for _ in 0..extra_fog_devices {
            fleet.add_class(f, DeviceClass::FogServer);
        }
    }
    let sensors = built.sensors.clone();
    let env = Env::new(built.topology.clone(), fleet);
    let partition = RegionPartition::new(&env.topology, continuum_regions(&spec), 0);
    let mut devices = env.fleet.in_tier(Tier::Fog);
    devices.extend(env.fleet.in_tier(Tier::Cloud));
    let endpoints = endpoints_on(&env, &devices);
    World {
        env,
        partition,
        sensors,
        endpoints,
    }
}

fn workload(
    w: &World,
    n: usize,
    rate: f64,
    work_flops: f64,
) -> (FunctionRegistry, Vec<Invocation>) {
    let mut registry = FunctionRegistry::new();
    let f = registry.register("infer", work_flops, 10 << 10, 1 << 10);
    let mut rng = Rng::new(0xFAB);
    let mut t = 0.0;
    let invocations = (0..n)
        .map(|i| {
            t += rng.exp(rate);
            Invocation {
                arrival: SimTime::from_secs_f64(t),
                origin: w.sensors[i % w.sensors.len()],
                function: f,
            }
        })
        .collect();
    (registry, invocations)
}

fn bench_dispatch(w: &World, smoke: bool, reps: usize) -> serde_json::Value {
    let (n, rate) = if smoke {
        (2_000, 500.0)
    } else {
        (40_000, 2_000.0)
    };
    let (registry, invocations) = workload(w, n, rate, 2e9);
    let admission = Some(Admission {
        max_outstanding: 2_048,
    });
    let policy = RoutingPolicy::RoundRobin;
    let site_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let batches: &[usize] = if smoke { &[1, 8] } else { &[1, 8, 32] };

    let fed_cfg = |batch: usize| {
        let mut cfg = FederationCfg::new(policy);
        cfg.batch = batch;
        cfg.drain_every = SimDuration::from_millis(5);
        cfg.admission = admission;
        cfg
    };

    // The sweep starts at 1 site, batch 1: the centralized arm every
    // speedup is measured against.
    let mut baseline_ms = f64::NAN;
    let mut arms = Vec::new();
    let mut speedup_batch32_1site = 0.0;
    let mut best_speedup = 0.0f64;
    for &sites_n in site_counts {
        let sites = sites_from_partition(&w.env, &w.partition, &w.endpoints, sites_n);
        for &batch in batches {
            let cfg = fed_cfg(batch);
            eprintln!("fabric[dispatch]: timing {sites_n}-site batch-{batch} ...");
            let rep = run_federation(&w.env, &registry, &w.endpoints, &sites, &invocations, &cfg);
            let t = best_of(reps, || {
                run_federation(&w.env, &registry, &w.endpoints, &sites, &invocations, &cfg)
            });
            if sites_n == 1 && batch == 1 {
                baseline_ms = t;
            }
            let speedup = baseline_ms / t;
            if sites_n == 1 && batch == *batches.last().expect("non-empty") {
                speedup_batch32_1site = speedup;
            }
            best_speedup = best_speedup.max(speedup);
            arms.push(json!({
                "sites": sites.len(),
                "batch": batch,
                "ms": t,
                "dispatch_throughput_per_sec": n as f64 / (t / 1e3),
                "speedup_vs_1site_batch1": speedup,
                "completed": rep.fabric.completed,
                "rejected": rep.fabric.rejected,
                "drains": rep.drains,
                "mean_batch": if rep.drains > 0 { rep.batched as f64 / rep.drains as f64 } else { 0.0 },
                "max_batch": rep.max_batch,
                "route_hit_rate": rep.route_hits as f64
                    / (rep.route_hits + rep.route_misses).max(1) as f64,
            }));
        }
    }

    json!({
        "endpoints": w.endpoints.len(),
        "invocations": n,
        "offered_rate_hz": rate,
        "policy": "round-robin",
        "baseline_1site_batch1_ms": baseline_ms,
        "arms": arms,
        "speedup_at_max_batch_1site": speedup_batch32_1site,
        "best_speedup": best_speedup,
        "notes": [
            "Speedups are relative to the 1-site batch-1 arm, the centralized \
             per-invocation broker; the crate's lib tests assert that arm \
             bit-identical to the single-broker oracle (every latency, every \
             counter). Batched arms change only *when* dispatch work happens, \
             never the admission decision or the policy pick.",
            "Throughput is invocations per wall-second of simulation: every \
             arm pays an O(1) maintained in-system count, a cached per-site \
             candidate list and a cached route probe per invocation; batching \
             amortizes drain bookkeeping across the batch, and more sites \
             shrink each site's candidate scan.",
            "Mean batch occupancy stays below the configured cap at moderate \
             load because the drain-timer fires before the buffer fills; \
             max_batch shows the cap engaging under bursts.",
        ],
    })
}

fn bench_placement(w: &World, smoke: bool, reps: usize) -> serde_json::Value {
    let (n, rate) = if smoke {
        (1_000, 300.0)
    } else {
        (8_000, 800.0)
    };
    let (registry, invocations) = workload(w, n, rate, 5e9);
    let policy = RoutingPolicy::Locality;
    let mut arms = Vec::new();
    for sites_n in [1usize, 4] {
        let sites = sites_from_partition(&w.env, &w.partition, &w.endpoints, sites_n);
        let cfg = FederationCfg::new(policy);
        let rep = run_federation(&w.env, &registry, &w.endpoints, &sites, &invocations, &cfg);
        let t = best_of(reps, || {
            run_federation(&w.env, &registry, &w.endpoints, &sites, &invocations, &cfg)
        });
        let (p50, p95, p99) = rep.fabric.latency_percentiles();
        arms.push(json!({
            "sites": sites.len(),
            "label": if sites_n == 1 { "centralized" } else { "federated" },
            "ms": t,
            "p50_s": p50,
            "p95_s": p95,
            "p99_s": p99,
            "jain": rep.fabric.jain,
            "throughput_hz": rep.fabric.throughput_hz,
        }));
    }
    json!({
        "policy": "locality",
        "invocations": n,
        "arms": arms,
        "notes": [
            "Centralized locality scans every endpoint per invocation; \
             federated locality first picks the cheapest-broker site, then \
             scans only that site's endpoints — cheaper, but blind to a \
             marginally better endpoint in another site. The quality gap is \
             the price of the cheaper scan; the wall-time gap is its payoff.",
        ],
    })
}

fn bench_failure(w: &World, smoke: bool) -> serde_json::Value {
    let (n, rate) = if smoke {
        (1_500, 300.0)
    } else {
        (10_000, 800.0)
    };
    let (registry, invocations) = workload(w, n, rate, 2e9);
    let policy = RoutingPolicy::LeastOutstanding;
    let span = invocations.last().expect("n > 0").arrival;
    let site_counts: &[usize] = if smoke { &[2] } else { &[2, 4] };
    let mut arms = Vec::new();
    for &sites_n in site_counts {
        let sites = sites_from_partition(&w.env, &w.partition, &w.endpoints, sites_n);
        let clean_cfg = FederationCfg::new(policy);
        let clean = run_federation(
            &w.env,
            &registry,
            &w.endpoints,
            &sites,
            &invocations,
            &clean_cfg,
        );
        let mut cfg = FederationCfg::new(policy);
        cfg.site_faults = Some(SiteFaults {
            events: vec![
                SiteFaultEvent {
                    at: SimTime::from_secs_f64(span.as_secs_f64() * 0.4),
                    site: 0,
                    crash: true,
                },
                SiteFaultEvent {
                    at: SimTime::from_secs_f64(span.as_secs_f64() * 0.4 + 20.0),
                    site: 0,
                    crash: false,
                },
            ],
            heartbeat: SimDuration::from_millis(500),
            backoff: Backoff::default(),
            seed: 0xFA11,
        });
        let faulty = run_federation(&w.env, &registry, &w.endpoints, &sites, &invocations, &cfg);
        assert_eq!(
            faulty.fabric.completed + faulty.fabric.dropped + faulty.fabric.rejected,
            n as u64,
            "site-failure run lost an invocation"
        );
        let (_, _, clean_p99) = clean.fabric.latency_percentiles();
        let (_, _, faulty_p99) = faulty.fabric.latency_percentiles();
        arms.push(json!({
            "sites": sites.len(),
            "takeovers": faulty.takeovers,
            "adopted": faulty.sites.iter().map(|s| s.adopted).sum::<u64>(),
            "completed": faulty.fabric.completed,
            "dropped": faulty.fabric.dropped,
            "retries": faulty.fabric.retries,
            "clean_p99_s": clean_p99,
            "faulty_p99_s": faulty_p99,
            "p99_inflation": if clean_p99 > 0.0 { faulty_p99 / clean_p99 } else { 0.0 },
        }));
    }
    json!({
        "policy": "least-outstanding",
        "invocations": n,
        "arms": arms,
        "notes": [
            "Site 0 dies 40% into the arrival span and returns 20 s later; \
             after the 500 ms heartbeat the least-loaded surviving site \
             adopts the orphaned, queued, and buffered work as one ingress \
             batch. More sites mean a smaller blast radius: the 4-site \
             outage displaces roughly half as much work as the 2-site one.",
        ],
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { 3 };

    let w = build_world(smoke);
    eprintln!(
        "fabric: world has {} endpoints across {} regions",
        w.endpoints.len(),
        w.partition.regions().len()
    );
    let dispatch = bench_dispatch(&w, smoke, reps);
    let placement = bench_placement(&w, smoke, reps);
    let failure = bench_failure(&w, smoke);

    let out = json!({
        "bench": "fabric",
        "command": "cargo run --release -p continuum-bench --bin fabric",
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "smoke": smoke,
        "dispatch": dispatch,
        "placement": placement,
        "failure": failure,
    });
    let rendered = serde_json::to_string_pretty(&out).expect("render json");
    std::fs::write("BENCH_fabric.json", &rendered).expect("write BENCH_fabric.json");
    println!("{rendered}");
}
