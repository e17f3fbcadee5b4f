//! Latency-shortest-path routing with an all-pairs route table.
//!
//! Routes are computed with Dijkstra over link latency (ties broken by hop
//! count, then lowest node index, so routing is deterministic). For the
//! topology sizes in this repository (tens to a few thousand nodes) a
//! precomputed route table per source is affordable and makes path lookup
//! O(path length).

use crate::topology::{LinkId, NodeId, Topology};
use continuum_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A routed path between two nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Path {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Links traversed, in order from `src` to `dst`. Empty iff `src == dst`.
    ///
    /// Shared (`Arc`) so that cloning a path — and registering it with the
    /// flow network, which holds the link list for the flow's lifetime —
    /// never copies the link vector.
    pub links: Arc<[LinkId]>,
    /// Sum of link latencies.
    pub latency: SimDuration,
    /// Minimum bandwidth along the path (bytes/s). `f64::INFINITY` for the
    /// trivial self-path.
    pub bottleneck_bps: f64,
}

impl Path {
    /// The zero-length path from a node to itself.
    pub fn trivial(node: NodeId) -> Path {
        Path {
            src: node,
            dst: node,
            links: Vec::new().into(),
            latency: SimDuration::ZERO,
            bottleneck_bps: f64::INFINITY,
        }
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// Analytic, contention-free transfer time for `bytes` over this path:
    /// propagation latency plus serialization at the bottleneck.
    ///
    /// Placement algorithms use this estimate; the simulated executor then
    /// charges the *actual* time under max-min fair sharing.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        if self.links.is_empty() {
            return SimDuration::ZERO; // local: no copy cost modeled
        }
        let ser = bytes as f64 / self.bottleneck_bps;
        self.latency + SimDuration::from_secs_f64(ser)
    }

    /// Absolute arrival time of a transfer started at `start`.
    pub fn arrival(&self, start: SimTime, bytes: u64) -> SimTime {
        start + self.transfer_time(bytes)
    }
}

/// Sentinel distance for "unreachable" in the flattened arena; no real
/// path accumulates `u64::MAX` nanoseconds.
const UNREACHABLE: SimDuration = SimDuration(u64::MAX);

/// Precomputed latency-shortest routes for one topology, with all
/// equal-cost predecessors retained for ECMP spreading.
///
/// Storage is two contiguous arenas instead of nested `Vec`s: distances
/// are a flat `n × n` matrix, and predecessor lists are CSR-packed
/// (`prev_off[src*n + node]..prev_off[src*n + node + 1]` indexes into
/// `prev_entries`). This keeps the table in three allocations total and
/// makes lookups cache-friendly; the seed's `Vec<Vec<Vec<_>>>` layout
/// cost ~`n²` small allocations.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Node count the table was built for.
    n: usize,
    /// `dist[src*n + node]` = shortest latency, [`UNREACHABLE`] if none.
    dist: Vec<SimDuration>,
    /// CSR offsets into `prev_entries`, length `n*n + 1`.
    prev_off: Vec<u32>,
    /// Every (previous node, link) achieving the shortest latency,
    /// grouped by `(src, node)` and sorted within a group for
    /// determinism.
    prev_entries: Vec<(NodeId, LinkId)>,
}

impl RouteTable {
    /// Run Dijkstra from every node, one source per rayon task.
    ///
    /// The result is bit-identical to [`RouteTable::build_serial`]: each
    /// source's tree is computed independently and packed in source
    /// order, so worker scheduling cannot reorder anything.
    pub fn build(topo: &Topology) -> RouteTable {
        use rayon::prelude::*;
        let n = topo.node_count();
        let rows: Vec<(Vec<SimDuration>, Vec<Preds>)> = (0..n as u32)
            .into_par_iter()
            .map(|src| dijkstra(topo, NodeId(src)))
            .collect();
        Self::assemble(n, rows)
    }

    /// Single-threaded [`RouteTable::build`]; the parallel/serial split
    /// is benchmarked by `bench/src/bin/hotpaths.rs`.
    pub fn build_serial(topo: &Topology) -> RouteTable {
        let n = topo.node_count();
        let rows: Vec<(Vec<SimDuration>, Vec<Preds>)> = (0..n as u32)
            .map(|src| dijkstra(topo, NodeId(src)))
            .collect();
        Self::assemble(n, rows)
    }

    /// Pack per-source Dijkstra trees into the flat arenas.
    fn assemble(n: usize, rows: Vec<(Vec<SimDuration>, Vec<Preds>)>) -> RouteTable {
        let mut dist = Vec::with_capacity(n * n);
        let mut prev_off = Vec::with_capacity(n * n + 1);
        let mut prev_entries = Vec::new();
        prev_off.push(0u32);
        for (dist_row, preds) in rows {
            dist.extend_from_slice(&dist_row);
            for p in preds {
                match p {
                    Preds::None => {}
                    Preds::One(e) => prev_entries.push(e),
                    Preds::Many(mut v) => {
                        // Deterministic choice order at every split.
                        v.sort_unstable();
                        prev_entries.extend_from_slice(&v);
                    }
                }
                prev_off.push(prev_entries.len() as u32);
            }
        }
        RouteTable {
            n,
            dist,
            prev_off,
            prev_entries,
        }
    }

    /// Equal-cost (previous node, link) choices into `node` on `src`'s
    /// shortest-path tree.
    fn preds(&self, src: NodeId, node: NodeId) -> &[(NodeId, LinkId)] {
        let cell = src.0 as usize * self.n + node.0 as usize;
        let lo = self.prev_off[cell] as usize;
        let hi = self.prev_off[cell + 1] as usize;
        &self.prev_entries[lo..hi]
    }

    /// Shortest-latency distance, `None` if unreachable.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        let d = self.dist[src.0 as usize * self.n + dst.0 as usize];
        (d != UNREACHABLE).then_some(d)
    }

    /// Materialize the canonical shortest path from `src` to `dst`
    /// (deterministic: the lowest-id choice at every equal-cost split).
    ///
    /// Returns `None` if `dst` is unreachable from `src`.
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
        self.path_ecmp(topo, src, dst, 0)
    }

    /// Materialize *one of* the equal-cost shortest paths, selected by
    /// hashing `salt` at every split (equal-cost multi-path). Different
    /// salts spread different flows across parallel links; the same salt
    /// always yields the same path. `salt = 0` is the canonical path.
    pub fn path_ecmp(&self, topo: &Topology, src: NodeId, dst: NodeId, salt: u64) -> Option<Path> {
        if src == dst {
            return Some(Path::trivial(src));
        }
        self.distance(src, dst)?;
        let mut links_rev = Vec::new();
        let mut cur = dst;
        let mut bottleneck = f64::INFINITY;
        let mut latency = SimDuration::ZERO;
        while cur != src {
            let choices = self.preds(src, cur);
            debug_assert!(!choices.is_empty(), "reachable node missing predecessor");
            let pick = if choices.len() == 1 || salt == 0 {
                0
            } else {
                // Mix salt with the current node so one flow doesn't make
                // correlated choices at successive splits.
                (splitmix(salt ^ (cur.0 as u64).wrapping_mul(0x9E37_79B9)) % choices.len() as u64)
                    as usize
            };
            let (p, l) = choices[pick];
            links_rev.push(l);
            let link = topo.link(l);
            bottleneck = bottleneck.min(link.bandwidth_bps);
            latency += link.latency;
            cur = p;
        }
        links_rev.reverse();
        Some(Path {
            src,
            dst,
            links: links_rev.into(),
            latency,
            bottleneck_bps: bottleneck,
        })
    }

    /// Number of equal-cost (pred, link) choices into `dst` from `src`'s
    /// tree — 1 means a unique shortest path at the last hop.
    pub fn ecmp_width(&self, src: NodeId, dst: NodeId) -> usize {
        self.preds(src, dst).len()
    }

    /// Precompute the dense node-pair transfer-cost cache for this table.
    ///
    /// One bottleneck propagation per source over the canonical
    /// shortest-path tree (the tree [`RouteTable::path`] walks), one
    /// source per rayon task. The resulting [`TransferMatrix`] answers
    /// transfer-time queries in O(1) with results bit-identical to
    /// materializing the canonical [`Path`] and calling
    /// [`Path::transfer_time`].
    pub fn transfer_matrix(&self, topo: &Topology) -> TransferMatrix {
        use rayon::prelude::*;
        let n = self.n;
        let rows: Vec<Vec<f64>> = (0..n as u32)
            .into_par_iter()
            .map(|src| self.bottleneck_row(topo, NodeId(src)))
            .collect();
        let mut bottleneck = Vec::with_capacity(n * n);
        for row in rows {
            bottleneck.extend_from_slice(&row);
        }
        TransferMatrix {
            n,
            latency: self.dist.clone(),
            bottleneck,
        }
    }

    /// Bottleneck bandwidth from `src` to every node along the canonical
    /// shortest path, via one pass over `src`'s canonical pred tree.
    ///
    /// Every reachable node's parent is its lowest (pred, link) choice —
    /// exactly the edge `path()`/`path_ecmp(salt = 0)` follows — so
    /// `min`-ing link bandwidth down the tree reproduces each canonical
    /// path's bottleneck without materializing any of them. Children are
    /// CSR-packed to keep this allocation-light per source.
    fn bottleneck_row(&self, topo: &Topology, src: NodeId) -> Vec<f64> {
        let n = self.n;
        let s = src.0 as usize;
        let mut bn = vec![f64::INFINITY; n];
        let mut off = vec![0u32; n + 1];
        for node in 0..n {
            if node == s {
                continue;
            }
            if let Some(&(p, _)) = self.preds(src, NodeId(node as u32)).first() {
                off[p.0 as usize + 1] += 1;
            }
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut child: Vec<(u32, LinkId)> = vec![(0, LinkId(0)); off[n] as usize];
        let mut fill: Vec<u32> = off[..n].to_vec();
        for node in 0..n {
            if node == s {
                continue;
            }
            if let Some(&(p, l)) = self.preds(src, NodeId(node as u32)).first() {
                let slot = fill[p.0 as usize] as usize;
                fill[p.0 as usize] += 1;
                child[slot] = (node as u32, l);
            }
        }
        // Walk the tree root-down. Like `path_ecmp`, this assumes
        // positive link latencies so canonical pred pointers cannot
        // cycle; unreachable nodes are never visited and keep the
        // (latency-sentinel-gated) placeholder.
        let mut stack: Vec<u32> = vec![src.0];
        while let Some(u) = stack.pop() {
            let (lo, hi) = (off[u as usize] as usize, off[u as usize + 1] as usize);
            for &(v, l) in &child[lo..hi] {
                bn[v as usize] = bn[u as usize].min(topo.link(l).bandwidth_bps);
                stack.push(v);
            }
        }
        bn
    }
}

/// Dense per-node-pair transfer-cost cache: canonical-path latency and
/// bottleneck bandwidth for every (src, dst), in two flat `n × n`
/// arenas.
///
/// Built once per environment by [`RouteTable::transfer_matrix`]; the
/// placement estimator and the online placer consult it instead of
/// materializing a [`Path`] (pred-walk + link-vector allocation) per
/// (task, device) probe. Answers are bit-identical to
/// [`Path::transfer_time`] on the canonical path.
#[derive(Debug, Clone)]
pub struct TransferMatrix {
    /// Node count the matrix was built for.
    n: usize,
    /// `latency[src*n + dst]` = canonical-path latency, [`UNREACHABLE`]
    /// sentinel if no route.
    latency: Vec<SimDuration>,
    /// `bottleneck[src*n + dst]` = minimum bandwidth (bytes/s) along the
    /// canonical path; `f64::INFINITY` on self cells and placeholder on
    /// unreachable cells (gated by the latency sentinel).
    bottleneck: Vec<f64>,
}

impl TransferMatrix {
    /// Node count the matrix was built for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Canonical-path latency, `None` if `dst` is unreachable.
    pub fn latency(&self, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        let d = self.latency[src.0 as usize * self.n + dst.0 as usize];
        (d != UNREACHABLE).then_some(d)
    }

    /// Bottleneck bandwidth (bytes/s) of the canonical path, `None` if
    /// unreachable. `f64::INFINITY` for the trivial self-path.
    pub fn bottleneck_bps(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let cell = src.0 as usize * self.n + dst.0 as usize;
        (self.latency[cell] != UNREACHABLE).then(|| self.bottleneck[cell])
    }

    /// Analytic, contention-free transfer time for `bytes` from `src` to
    /// `dst` — the cached equivalent of [`Path::transfer_time`] on the
    /// canonical path. `None` if unreachable.
    pub fn transfer_time(&self, src: NodeId, dst: NodeId, bytes: u64) -> Option<SimDuration> {
        if src == dst {
            return Some(SimDuration::ZERO); // local: no copy cost modeled
        }
        let cell = src.0 as usize * self.n + dst.0 as usize;
        let lat = self.latency[cell];
        if lat == UNREACHABLE {
            return None;
        }
        let ser = bytes as f64 / self.bottleneck[cell];
        Some(lat + SimDuration::from_secs_f64(ser))
    }

    /// Absolute arrival time of a transfer started at `start`; the cached
    /// equivalent of [`Path::arrival`]. `None` if unreachable.
    pub fn arrival(&self, src: NodeId, dst: NodeId, start: SimTime, bytes: u64) -> Option<SimTime> {
        Some(start + self.transfer_time(src, dst, bytes)?)
    }
}

/// Latency-shortest path from `src` to `dst` that avoids every link
/// flagged in `dead` (`dead[link.0] == true` means unusable).
///
/// The precomputed [`RouteTable`] assumes all links are up; when faults
/// take links down mid-run, callers re-route the affected pairs with this
/// on-demand single-pair Dijkstra instead of rebuilding the whole table.
/// Deterministic like the table build (lowest-id predecessor at equal
/// cost). Returns `None` when the failure disconnects the pair; returns
/// the trivial path when `src == dst`.
///
/// `dead` may be shorter than the link count; missing entries mean "up".
pub fn shortest_path_avoiding(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    dead: &[bool],
) -> Option<Path> {
    if src == dst {
        return Some(Path::trivial(src));
    }
    let n = topo.node_count();
    let mut dist: Vec<SimDuration> = vec![UNREACHABLE; n];
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.0 as usize] = SimDuration::ZERO;
    heap.push(Reverse((SimDuration::ZERO, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if dist[u.0 as usize] != d {
            continue; // stale entry
        }
        if u == dst {
            break;
        }
        for &(v, l) in topo.neighbors(u) {
            if dead.get(l.0 as usize).copied().unwrap_or(false) {
                continue;
            }
            let nd = d + topo.link(l).latency;
            let old = dist[v.0 as usize];
            // Strictly-better, or equal-cost with a lower-id predecessor
            // edge — matches the canonical (salt 0) RouteTable choice.
            if nd < old || (nd == old && prev[v.0 as usize].is_some_and(|p| (u, l) < p)) {
                dist[v.0 as usize] = nd;
                prev[v.0 as usize] = Some((u, l));
                if nd < old {
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    }
    if dist[dst.0 as usize] == UNREACHABLE {
        return None;
    }
    let mut links_rev = Vec::new();
    let mut cur = dst;
    let mut bottleneck = f64::INFINITY;
    let mut latency = SimDuration::ZERO;
    while cur != src {
        let (p, l) = prev[cur.0 as usize].expect("reachable node missing predecessor");
        links_rev.push(l);
        let link = topo.link(l);
        bottleneck = bottleneck.min(link.bandwidth_bps);
        latency += link.latency;
        cur = p;
    }
    links_rev.reverse();
    Some(Path {
        src,
        dst,
        links: links_rev.into(),
        latency,
        bottleneck_bps: bottleneck,
    })
}

/// Entry cap for [`RouteCache`]; past this the cache clears and refills.
///
/// Generous for the degraded regime (one salt-class-0 entry per node
/// pair actively transferring) while bounding the whole-fabric regime,
/// where per-flow salt classes make entries single-use and the map would
/// otherwise grow with total transfer count.
const ROUTE_CACHE_CAP: usize = 1 << 16;

/// Epoch-tagged memo for route computations.
///
/// The stream executor resolves one path per transfer: a cheap
/// [`RouteTable::path_ecmp`] pred-walk while the fabric is whole, or a
/// full single-pair [`shortest_path_avoiding`] Dijkstra while any link is
/// down — the hot path under chaos churn, where one degraded epoch can
/// re-route thousands of transfers between consecutive fault events.
/// This cache memoizes either result keyed by `(src, dst, salt class)`.
///
/// Correctness hangs on the *epoch counter*: the owner bumps it on every
/// `fail_link` / `restore_link` (any change to the dead-link set), so
/// within one epoch the inputs to a route computation other than the key
/// are constants, and a cached result is exactly what recomputing would
/// return. Entries from older epochs are overwritten on next lookup
/// (lazy invalidation — no eager sweep on bump).
///
/// The *salt class* is caller-defined: pass the actual ECMP salt when the
/// route depends on it (whole fabric), and a single sentinel class (e.g.
/// 0) when it does not ([`shortest_path_avoiding`] ignores salts), so all
/// degraded-regime transfers between a node pair share one entry.
///
/// Negative results (`None`: the pair is disconnected this epoch) are
/// cached too — re-proving disconnection is the same Dijkstra as finding
/// a path.
#[derive(Debug, Default)]
pub struct RouteCache {
    epoch: u64,
    map: std::collections::HashMap<(NodeId, NodeId, u64), (u64, Option<Path>)>,
    hits: u64,
    misses: u64,
    epoch_bumps: u64,
}

/// Lifetime counters of one [`RouteCache`], harvested by the telemetry
/// plane (see [`RouteCache::publish_metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the route computation.
    pub misses: u64,
    /// Epoch invalidations (`bump_epoch` calls).
    pub epoch_bumps: u64,
    /// Current epoch.
    pub epoch: u64,
}

impl RouteCacheStats {
    /// Publish these counters into a metrics registry under `prefix`
    /// (`{prefix}.hits`, `.misses`, `.epoch_bumps`, and the derived
    /// `.hit_rate` gauge).
    pub fn publish_metrics(&self, reg: &continuum_obs::MetricsRegistry, prefix: &str) {
        reg.record(&format!("{prefix}.hits"), self.hits);
        reg.record(&format!("{prefix}.misses"), self.misses);
        reg.record(&format!("{prefix}.epoch_bumps"), self.epoch_bumps);
        let total = self.hits + self.misses;
        let rate = if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        };
        reg.set_gauge(&format!("{prefix}.hit_rate"), rate);
    }
}

impl RouteCache {
    /// An empty cache at epoch 0.
    pub fn new() -> RouteCache {
        RouteCache::default()
    }

    /// Current network epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Declare that the dead-link set changed: all cached routes are now
    /// stale. O(1) — staleness is checked per entry at lookup time.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.epoch_bumps += 1;
    }

    /// `(hits, misses)` since construction — kept as a thin wrapper over
    /// [`RouteCache::snapshot`] for existing call sites.
    pub fn stats(&self) -> (u64, u64) {
        let s = self.snapshot();
        (s.hits, s.misses)
    }

    /// All lifetime counters at once.
    pub fn snapshot(&self) -> RouteCacheStats {
        RouteCacheStats {
            hits: self.hits,
            misses: self.misses,
            epoch_bumps: self.epoch_bumps,
            epoch: self.epoch,
        }
    }

    /// Publish this cache's counters into a metrics registry under
    /// `prefix` (e.g. `"executor.route_cache"`), including the derived
    /// hit-rate gauge.
    pub fn publish_metrics(&self, reg: &continuum_obs::MetricsRegistry, prefix: &str) {
        self.snapshot().publish_metrics(reg, prefix);
    }

    /// Look up the route for `(src, dst, class)` in the current epoch, or
    /// compute and cache it via `compute`.
    ///
    /// Returning a [`Path`] by clone is cheap: the link list is `Arc`-shared.
    pub fn route_with(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: u64,
        compute: impl FnOnce() -> Option<Path>,
    ) -> Option<Path> {
        let key = (src, dst, class);
        if let Some((epoch, path)) = self.map.get(&key) {
            if *epoch == self.epoch {
                self.hits += 1;
                return path.clone();
            }
        }
        self.misses += 1;
        let path = compute();
        if self.map.len() >= ROUTE_CACHE_CAP && !self.map.contains_key(&key) {
            self.map.clear();
        }
        self.map.insert(key, (self.epoch, path.clone()));
        path
    }
}

#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Equal-cost predecessors of one node on a source's shortest-path tree.
///
/// Almost every node has a unique shortest path, so the single
/// predecessor is stored inline; only genuine equal-cost splits pay for
/// a heap allocation. The seed allocated a `Vec` per reachable node per
/// source (`n²` small allocations across a full table build).
#[derive(Debug, Clone)]
enum Preds {
    None,
    One((NodeId, LinkId)),
    Many(Vec<(NodeId, LinkId)>),
}

impl Preds {
    fn contains(&self, e: (NodeId, LinkId)) -> bool {
        match self {
            Preds::None => false,
            Preds::One(x) => *x == e,
            Preds::Many(v) => v.contains(&e),
        }
    }

    fn push(&mut self, e: (NodeId, LinkId)) {
        match self {
            Preds::None => *self = Preds::One(e),
            Preds::One(x) => *self = Preds::Many(vec![*x, e]),
            Preds::Many(v) => v.push(e),
        }
    }
}

/// Single-source Dijkstra over link latency, retaining every equal-cost
/// predecessor.
///
/// Returns `(dist, prev)` indexed by node; unreachable nodes carry
/// [`UNREACHABLE`] / [`Preds::None`].
fn dijkstra(topo: &Topology, src: NodeId) -> (Vec<SimDuration>, Vec<Preds>) {
    let n = topo.node_count();
    let mut dist: Vec<SimDuration> = vec![UNREACHABLE; n];
    let mut prev: Vec<Preds> = vec![Preds::None; n];
    let mut heap = BinaryHeap::new();
    dist[src.0 as usize] = SimDuration::ZERO;
    heap.push(Reverse((SimDuration::ZERO, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if dist[u.0 as usize] != d {
            continue; // stale entry
        }
        for &(v, l) in topo.neighbors(u) {
            let nd = d + topo.link(l).latency;
            let old = dist[v.0 as usize];
            if nd < old {
                dist[v.0 as usize] = nd;
                prev[v.0 as usize] = Preds::One((u, l));
                heap.push(Reverse((nd, v)));
            } else if nd == old && !prev[v.0 as usize].contains((u, l)) {
                prev[v.0 as usize].push((u, l));
            }
        }
    }
    (dist, prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Tier;

    /// a --1ms/1GBs-- b --10ms/1GBs-- c, plus a direct a--c at 50ms/100MBs.
    fn triangle() -> Topology {
        let mut t = Topology::new();
        let a = t.add_node("a", Tier::Edge);
        let b = t.add_node("b", Tier::Fog);
        let c = t.add_node("c", Tier::Cloud);
        t.add_link(a, b, SimDuration::from_millis(1), 1e9);
        t.add_link(b, c, SimDuration::from_millis(10), 1e9);
        t.add_link(a, c, SimDuration::from_millis(50), 1e8);
        t
    }

    #[test]
    fn shortest_by_latency_not_hops() {
        let t = triangle();
        let rt = RouteTable::build(&t);
        // a->c via b is 11ms (two hops) vs direct 50ms (one hop).
        let p = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(p.hops(), 2);
        assert_eq!(p.latency, SimDuration::from_millis(11));
        assert_eq!(p.bottleneck_bps, 1e9);
        assert_eq!(
            rt.distance(NodeId(0), NodeId(2)),
            Some(SimDuration::from_millis(11))
        );
    }

    #[test]
    fn trivial_path() {
        let t = triangle();
        let rt = RouteTable::build(&t);
        let p = rt.path(&t, NodeId(1), NodeId(1)).unwrap();
        assert_eq!(p.hops(), 0);
        assert_eq!(p.transfer_time(1 << 30), SimDuration::ZERO);
    }

    #[test]
    fn transfer_time_latency_plus_serialization() {
        let t = triangle();
        let rt = RouteTable::build(&t);
        let p = rt.path(&t, NodeId(0), NodeId(1)).unwrap();
        // 1e9 bytes over 1e9 B/s = 1s, plus 1ms latency.
        let tt = p.transfer_time(1_000_000_000);
        assert_eq!(tt, SimDuration::from_millis(1) + SimDuration::from_secs(1));
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_node("a", Tier::Edge);
        let b = t.add_node("b", Tier::Edge);
        let c = t.add_node("c", Tier::Edge);
        t.add_link(a, b, SimDuration::from_millis(1), 1e9);
        let rt = RouteTable::build(&t);
        assert!(rt.path(&t, a, c).is_none());
        assert_eq!(rt.distance(a, c), None);
        assert!(rt.path(&t, a, b).is_some());
    }

    #[test]
    fn routes_are_symmetric_in_latency() {
        let t = triangle();
        let rt = RouteTable::build(&t);
        for i in 0..3u32 {
            for j in 0..3u32 {
                assert_eq!(
                    rt.distance(NodeId(i), NodeId(j)),
                    rt.distance(NodeId(j), NodeId(i))
                );
            }
        }
    }

    #[test]
    fn avoiding_nothing_matches_table() {
        let t = triangle();
        let rt = RouteTable::build(&t);
        let dead = vec![false; t.links().len()];
        for i in 0..3u32 {
            for j in 0..3u32 {
                let want = rt.path(&t, NodeId(i), NodeId(j)).unwrap();
                let got = shortest_path_avoiding(&t, NodeId(i), NodeId(j), &dead).unwrap();
                assert_eq!(got.links, want.links, "{i}->{j}");
                assert_eq!(got.latency, want.latency);
            }
        }
    }

    #[test]
    fn avoiding_dead_link_detours() {
        let t = triangle();
        // Kill b-c (link 1): a->c must fall back to the direct 50ms link.
        let mut dead = vec![false; t.links().len()];
        dead[1] = true;
        let p = shortest_path_avoiding(&t, NodeId(0), NodeId(2), &dead).unwrap();
        assert_eq!(p.hops(), 1);
        assert_eq!(p.links[0], LinkId(2));
        assert_eq!(p.latency, SimDuration::from_millis(50));
        assert_eq!(p.bottleneck_bps, 1e8);
    }

    #[test]
    fn avoiding_can_disconnect() {
        let t = triangle();
        // Kill both links touching c.
        let mut dead = vec![false; t.links().len()];
        dead[1] = true;
        dead[2] = true;
        assert!(shortest_path_avoiding(&t, NodeId(0), NodeId(2), &dead).is_none());
        // a->b still routes, and self-paths stay trivial.
        assert!(shortest_path_avoiding(&t, NodeId(0), NodeId(1), &dead).is_some());
        let triv = shortest_path_avoiding(&t, NodeId(2), NodeId(2), &dead).unwrap();
        assert_eq!(triv.hops(), 0);
    }

    #[test]
    fn transfer_matrix_matches_materialized_paths() {
        let t = triangle();
        let rt = RouteTable::build(&t);
        let tm = rt.transfer_matrix(&t);
        for i in 0..3u32 {
            for j in 0..3u32 {
                let p = rt.path(&t, NodeId(i), NodeId(j)).unwrap();
                assert_eq!(tm.latency(NodeId(i), NodeId(j)), Some(p.latency));
                assert_eq!(
                    tm.bottleneck_bps(NodeId(i), NodeId(j)),
                    Some(p.bottleneck_bps)
                );
                for bytes in [0u64, 1, 1 << 20, 1 << 34] {
                    assert_eq!(
                        tm.transfer_time(NodeId(i), NodeId(j), bytes),
                        Some(p.transfer_time(bytes)),
                        "{i}->{j} {bytes}B"
                    );
                }
            }
        }
    }

    #[test]
    fn transfer_matrix_unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_node("a", Tier::Edge);
        let b = t.add_node("b", Tier::Edge);
        let c = t.add_node("c", Tier::Edge);
        t.add_link(a, b, SimDuration::from_millis(1), 1e9);
        let tm = RouteTable::build(&t).transfer_matrix(&t);
        assert_eq!(tm.transfer_time(a, c, 1024), None);
        assert_eq!(tm.latency(a, c), None);
        assert_eq!(tm.bottleneck_bps(a, c), None);
        assert!(tm.transfer_time(a, b, 1024).is_some());
        // Self-transfers are free even on an isolated node.
        assert_eq!(tm.transfer_time(c, c, 1 << 30), Some(SimDuration::ZERO));
    }

    #[test]
    fn route_cache_hits_within_epoch() {
        let t = triangle();
        let rt = RouteTable::build(&t);
        let mut cache = RouteCache::new();
        let fresh = rt.path(&t, NodeId(0), NodeId(2));
        let a = cache.route_with(NodeId(0), NodeId(2), 0, || {
            rt.path(&t, NodeId(0), NodeId(2))
        });
        let b = cache.route_with(NodeId(0), NodeId(2), 0, || panic!("must hit cache"));
        assert_eq!(
            a.as_ref().map(|p| &p.links),
            fresh.as_ref().map(|p| &p.links)
        );
        assert_eq!(a.as_ref().map(|p| &p.links), b.as_ref().map(|p| &p.links));
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn route_cache_epoch_invalidates() {
        let t = triangle();
        let mut dead = vec![false; t.links().len()];
        let mut cache = RouteCache::new();
        let whole = cache
            .route_with(NodeId(0), NodeId(2), 0, || {
                shortest_path_avoiding(&t, NodeId(0), NodeId(2), &dead)
            })
            .unwrap();
        assert_eq!(whole.hops(), 2);
        // Kill b-c; without an epoch bump the stale 2-hop route would be
        // served, with one the detour is recomputed.
        dead[1] = true;
        cache.bump_epoch();
        let detour = cache
            .route_with(NodeId(0), NodeId(2), 0, || {
                shortest_path_avoiding(&t, NodeId(0), NodeId(2), &dead)
            })
            .unwrap();
        assert_eq!(detour.hops(), 1);
        assert_eq!(detour.links[0], LinkId(2));
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn route_cache_caches_disconnection() {
        let t = triangle();
        let mut dead = vec![false; t.links().len()];
        dead[1] = true;
        dead[2] = true;
        let mut cache = RouteCache::new();
        let miss = cache.route_with(NodeId(0), NodeId(2), 0, || {
            shortest_path_avoiding(&t, NodeId(0), NodeId(2), &dead)
        });
        assert!(miss.is_none());
        let hit = cache.route_with(NodeId(0), NodeId(2), 0, || panic!("must hit cache"));
        assert!(hit.is_none());
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn route_cache_snapshot_and_publish() {
        let t = triangle();
        let rt = RouteTable::build(&t);
        let mut cache = RouteCache::new();
        cache.route_with(NodeId(0), NodeId(2), 0, || {
            rt.path(&t, NodeId(0), NodeId(2))
        });
        cache.route_with(NodeId(0), NodeId(2), 0, || panic!("must hit cache"));
        cache.bump_epoch();
        cache.route_with(NodeId(0), NodeId(2), 0, || {
            rt.path(&t, NodeId(0), NodeId(2))
        });
        let s = cache.snapshot();
        assert_eq!(
            (s.hits, s.misses),
            cache.stats(),
            "stats() is a thin wrapper"
        );
        assert_eq!(s.epoch_bumps, 1);
        assert_eq!(s.epoch, 1);

        let reg = continuum_obs::MetricsRegistry::new();
        cache.publish_metrics(&reg, "rc");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rc.hits"), 1);
        assert_eq!(snap.counter("rc.misses"), 2);
        assert_eq!(snap.counter("rc.epoch_bumps"), 1);
        assert_eq!(snap.gauge("rc.hit_rate"), Some(1.0 / 3.0));
    }

    #[test]
    fn route_cache_salt_classes_are_distinct() {
        let mut t = Topology::new();
        let a = t.add_node("a", Tier::Fog);
        let b = t.add_node("b", Tier::Cloud);
        t.add_link(a, b, SimDuration::from_millis(10), 1e8);
        t.add_link(a, b, SimDuration::from_millis(10), 1e8);
        let rt = RouteTable::build(&t);
        // Find two salts picking different parallel links.
        let (mut s0, mut s1) = (0, 0);
        for salt in 1..100 {
            let p = rt.path_ecmp(&t, a, b, salt).unwrap();
            if p.links[0] == LinkId(0) {
                s0 = salt;
            } else {
                s1 = salt;
            }
        }
        assert!(s0 != 0 && s1 != 0);
        let mut cache = RouteCache::new();
        let p0 = cache
            .route_with(a, b, s0, || rt.path_ecmp(&t, a, b, s0))
            .unwrap();
        let p1 = cache
            .route_with(a, b, s1, || rt.path_ecmp(&t, a, b, s1))
            .unwrap();
        assert_ne!(p0.links[0], p1.links[0], "classes collided");
    }

    #[test]
    fn route_cache_bounded() {
        let t = triangle();
        let rt = RouteTable::build(&t);
        let mut cache = RouteCache::new();
        // Unique salt classes model the whole-fabric regime's per-flow
        // salts; the map must not grow past the cap.
        for salt in 1..(ROUTE_CACHE_CAP as u64 + 1000) {
            cache.route_with(NodeId(0), NodeId(1), salt, || {
                rt.path_ecmp(&t, NodeId(0), NodeId(1), salt)
            });
            assert!(cache.map.len() <= ROUTE_CACHE_CAP);
        }
        // Still correct after the clear-and-refill.
        let fresh = rt.path(&t, NodeId(0), NodeId(1)).unwrap();
        let cached = cache
            .route_with(NodeId(0), NodeId(1), 0, || {
                rt.path(&t, NodeId(0), NodeId(1))
            })
            .unwrap();
        assert_eq!(cached.links, fresh.links);
    }

    #[test]
    fn path_links_are_contiguous() {
        let t = triangle();
        let rt = RouteTable::build(&t);
        let p = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        // Walk the links and verify they chain src -> dst.
        let mut cur = p.src;
        for &l in p.links.iter() {
            let link = t.link(l);
            cur = if link.a == cur { link.b } else { link.a };
        }
        assert_eq!(cur, p.dst);
    }
}

#[cfg(test)]
mod ecmp_tests {
    use super::*;
    use crate::topology::{Tier, Topology};

    /// Two parallel equal-latency links between a and b (multigraph).
    fn parallel_pair() -> Topology {
        let mut t = Topology::new();
        let a = t.add_node("a", Tier::Fog);
        let b = t.add_node("b", Tier::Cloud);
        t.add_link(a, b, SimDuration::from_millis(10), 1e8);
        t.add_link(a, b, SimDuration::from_millis(10), 1e8);
        t
    }

    #[test]
    fn ecmp_width_counts_parallel_links() {
        let t = parallel_pair();
        let rt = RouteTable::build(&t);
        assert_eq!(rt.ecmp_width(NodeId(0), NodeId(1)), 2);
    }

    #[test]
    fn salts_spread_across_links() {
        let t = parallel_pair();
        let rt = RouteTable::build(&t);
        let mut used = std::collections::HashSet::new();
        for salt in 1..100u64 {
            let p = rt.path_ecmp(&t, NodeId(0), NodeId(1), salt).unwrap();
            assert_eq!(p.hops(), 1);
            assert_eq!(p.latency, SimDuration::from_millis(10));
            used.insert(p.links[0]);
        }
        assert_eq!(used.len(), 2, "ECMP never used the second link");
    }

    #[test]
    fn same_salt_same_path() {
        let t = parallel_pair();
        let rt = RouteTable::build(&t);
        let p1 = rt.path_ecmp(&t, NodeId(0), NodeId(1), 42).unwrap();
        let p2 = rt.path_ecmp(&t, NodeId(0), NodeId(1), 42).unwrap();
        assert_eq!(p1.links, p2.links);
    }

    #[test]
    fn salt_zero_is_canonical() {
        let t = parallel_pair();
        let rt = RouteTable::build(&t);
        let canon = rt.path(&t, NodeId(0), NodeId(1)).unwrap();
        let zero = rt.path_ecmp(&t, NodeId(0), NodeId(1), 0).unwrap();
        assert_eq!(canon.links, zero.links);
        assert_eq!(canon.links[0], LinkId(0));
    }

    #[test]
    fn unequal_cost_paths_not_mixed() {
        // Second link strictly slower: never chosen.
        let mut t = Topology::new();
        let a = t.add_node("a", Tier::Fog);
        let b = t.add_node("b", Tier::Cloud);
        t.add_link(a, b, SimDuration::from_millis(10), 1e8);
        t.add_link(a, b, SimDuration::from_millis(20), 1e8);
        let rt = RouteTable::build(&t);
        assert_eq!(rt.ecmp_width(a, b), 1);
        for salt in 0..50u64 {
            let p = rt.path_ecmp(&t, a, b, salt).unwrap();
            assert_eq!(p.links[0], LinkId(0));
        }
    }
}
