//! Allocation budget of the pinned-shard open loop.
//!
//! The sharded open loop shares each admitted request between its
//! participant shards, recycles retired request slots in place, keeps
//! per-event work lists on the executor core and steps shards in place.
//! In steady state it should allocate for the transfers it starts and
//! little else. This binary counts heap allocations with its own global
//! allocator while one serial pinned run executes a pre-generated
//! workload, and fails when allocations per request exceed the budget —
//! so a change that brings back a per-event or per-window allocation
//! fails here instead of quietly slowing the shard layer down.
//!
//! The binary holds a single test: the counter is per thread, and the
//! serial run does all of its work on the test's thread.

use continuum_model::{standard_fleet, DeviceId};
use continuum_net::{continuum, continuum_regions, ContinuumSpec, NodeId, RegionPartition, Tier};
use continuum_placement::{Env, Placement};
use continuum_runtime::{simulate_open_loop_sharded, OpenLoopOpts, ShardOpts, StreamRequest};
use continuum_sim::{Rng, SimTime};
use continuum_workflow::{layered_random, LayeredSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap allocations (fresh and grown) made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot has no destructor, but stay safe during
    // thread teardown anyway.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Requests in the budget run.
const REQUESTS: usize = 1_000;

/// Allocations per request the serial pinned run may make. The run
/// measured 50.6 per request when this budget was set, and the budget
/// leaves about 25% headroom. Before the shard layer stopped churning
/// memory, the same run made 227.1 per request.
const BUDGET_PER_REQUEST: f64 = 63.0;

/// A spanning-heavy pinned workload in the shape of the front-door
/// `pinned_shards` benchmark: 8-task layered DAGs sourced at the fogs,
/// 11 of every 12 alternating fog-side and backbone devices task by
/// task, Poisson arrivals at 100/s.
fn workload(env: &Env, regions: &[Vec<NodeId>]) -> Vec<StreamRequest> {
    let devices = |nodes: &[NodeId]| -> Vec<DeviceId> {
        nodes
            .iter()
            .filter(|&&n| env.topology.node(n).tier >= Tier::Fog)
            .flat_map(|&n| env.fleet.at_node(n).iter().copied())
            .collect()
    };
    let fogs: Vec<(NodeId, Vec<DeviceId>)> =
        regions[1..].iter().map(|r| (r[0], devices(r))).collect();
    let backbone = devices(&regions[0]);
    let mut rng = Rng::new(101);
    let mut t = 0.0;
    (0..REQUESTS)
        .map(|i| {
            t += rng.exp(100.0);
            let (source, local) = &fogs[i % fogs.len()];
            let dag = layered_random(
                &mut rng,
                &LayeredSpec {
                    tasks: 8,
                    width: 4,
                    source: *source,
                    bytes_mu: (2e6f64).ln(),
                    work_mu: (1e9f64).ln(),
                    min_mem_bytes: 0,
                    ..LayeredSpec::default()
                },
            );
            let spanning = i % 12 != 11;
            let assignment = (0..dag.len())
                .map(|k| {
                    if spanning && k % 2 == 1 {
                        backbone[(i + k / 2) % backbone.len()]
                    } else {
                        local[(i + k / 2) % local.len()]
                    }
                })
                .collect();
            StreamRequest {
                dag,
                placement: Placement { assignment },
                arrival: SimTime::from_secs_f64(t),
            }
        })
        .collect()
}

#[test]
fn pinned_open_loop_stays_within_allocation_budget() {
    let spec = ContinuumSpec {
        fogs: 8,
        edges_per_fog: 4,
        sensors_per_edge: 4,
        clouds: 4,
        hpcs: 2,
        ..ContinuumSpec::default()
    };
    let built = continuum(&spec);
    let env = Env::new(built.topology.clone(), standard_fleet(&built));
    let regions = continuum_regions(&spec);
    let partition = RegionPartition::new(&env.topology, regions.clone(), 0);
    let requests = workload(&env, &regions);
    let shard_opts = ShardOpts {
        parallel: false,
        ..ShardOpts::pinned(2)
    };
    let opts = OpenLoopOpts::default();

    let before = allocs();
    let report = simulate_open_loop_sharded(&env, requests, &partition, &opts, &shard_opts);
    let used = allocs() - before;

    assert_eq!(report.completed, REQUESTS as u64);
    let per_request = used as f64 / REQUESTS as f64;
    eprintln!("pinned open loop: {used} allocations, {per_request:.1} per request");
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.1} allocations per request exceeds the budget of {BUDGET_PER_REQUEST}"
    );
}
