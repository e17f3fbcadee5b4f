//! Region partitions of a topology, for the sharded simulation kernel.
//!
//! A [`RegionPartition`] splits a topology's nodes into disjoint regions
//! that together cover the graph. The sharded executor
//! (`continuum-runtime`) assigns whole regions to shards so that no two
//! shards ever share a link; the links that cross regions (the
//! *boundary*) determine the conservative lookahead — no influence can
//! propagate between regions faster than the minimum boundary-link
//! latency, so shards may safely simulate that far past each other.
//!
//! Partitions for the stock topology builders live next to the builders:
//! [`crate::builders::fat_tree_regions`] puts each pod in its own region
//! with the core switches in region 0, and
//! [`crate::builders::continuum_regions`] does the same for fog subtrees
//! under a cloud+HPC backbone region.

use crate::routing::Path;
use crate::topology::{LinkId, NodeId, Topology};
use continuum_sim::SimDuration;
use std::sync::Arc;

/// One region-confined leg of a cross-region route.
///
/// [`RegionPartition::segment_route`] splits a global path at boundary
/// links so that each leg can be simulated entirely inside one region's
/// flow domain. A segment's links all lie in `region` *except* a trailing
/// boundary link (present when `gap > 0`): the boundary link's bandwidth
/// is charged to the upstream (sending) side, while its propagation
/// latency is deferred into `gap` — the store-and-forward handoff delay
/// before the next segment (or the final delivery) begins. Because every
/// inter-region handoff therefore waits at least one boundary-link
/// latency, handoff envelopes are always stamped at or beyond the
/// partition's conservative lookahead.
#[derive(Debug, Clone)]
pub struct RouteSeg {
    /// Links of this leg, in path order. Never empty. All inside
    /// `region`, plus the trailing boundary link when `gap > 0`.
    pub links: Arc<[LinkId]>,
    /// Node the leg starts from.
    pub src: NodeId,
    /// Node the leg's bytes land on (the far side of the trailing
    /// boundary link when there is one).
    pub dst: NodeId,
    /// Region whose flow domain carries this leg (the region of `src`).
    pub region: u32,
    /// Propagation latency paid before the leg's bytes start streaming:
    /// the sum of link latencies *excluding* the trailing boundary link.
    pub latency: SimDuration,
    /// Handoff delay after the leg's bytes finish streaming: the trailing
    /// boundary link's latency, or zero for a leg ending inside `region`.
    pub gap: SimDuration,
    /// Minimum link bandwidth along the leg (informational).
    pub bottleneck_bps: f64,
}

impl RouteSeg {
    /// The leg as a [`Path`] suitable for `FlowNetwork::start`.
    pub fn as_path(&self) -> Path {
        Path {
            src: self.src,
            dst: self.dst,
            links: self.links.clone(),
            latency: self.latency,
            bottleneck_bps: self.bottleneck_bps,
        }
    }
}

/// A disjoint cover of a topology's nodes, with the derived cross-region
/// structure the sharded kernel needs: boundary links, the conservative
/// lookahead, and which region is the shared backbone.
#[derive(Debug, Clone)]
pub struct RegionPartition {
    regions: Vec<Vec<NodeId>>,
    /// Node index → region index.
    region_of: Vec<u32>,
    /// Links whose endpoints sit in different regions.
    boundary: Vec<LinkId>,
    /// Per-link flag: is this a boundary link?
    is_boundary: Vec<bool>,
    /// Minimum latency over boundary links (`None` for a single-region
    /// partition with no boundary).
    lookahead: Option<SimDuration>,
    /// The region every cross-region route passes through (cores of a
    /// fat-tree, cloud backbone of a continuum).
    core_region: usize,
}

impl RegionPartition {
    /// Validate `regions` as a disjoint cover of `topo`'s nodes and
    /// derive the boundary structure.
    ///
    /// # Panics
    /// If a node appears in no region or in more than one, if a region is
    /// empty, or if `core_region` is out of range.
    pub fn new(topo: &Topology, regions: Vec<Vec<NodeId>>, core_region: usize) -> Self {
        assert!(core_region < regions.len(), "core_region out of range");
        let n = topo.node_count();
        let mut region_of = vec![u32::MAX; n];
        for (ri, r) in regions.iter().enumerate() {
            assert!(!r.is_empty(), "region {ri} is empty");
            for &node in r {
                let slot = &mut region_of[node.0 as usize];
                assert_eq!(
                    *slot,
                    u32::MAX,
                    "node {node} appears in regions {} and {ri}",
                    *slot
                );
                *slot = ri as u32;
            }
        }
        for (i, &r) in region_of.iter().enumerate() {
            assert_ne!(r, u32::MAX, "node n{i} is covered by no region");
        }
        let mut boundary = Vec::new();
        let mut is_boundary = vec![false; topo.links().len()];
        let mut lookahead: Option<SimDuration> = None;
        for l in topo.links() {
            if region_of[l.a.0 as usize] != region_of[l.b.0 as usize] {
                boundary.push(l.id);
                is_boundary[l.id.0 as usize] = true;
                lookahead = Some(match lookahead {
                    None => l.latency,
                    Some(cur) => cur.min(l.latency),
                });
            }
        }
        RegionPartition {
            regions,
            region_of,
            boundary,
            is_boundary,
            lookahead,
            core_region,
        }
    }

    /// The regions, in index order. Disjoint; together they cover every
    /// node.
    pub fn regions(&self) -> &[Vec<NodeId>] {
        &self.regions
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the partition has no regions (never true for a validated
    /// partition — regions must be non-empty and cover the graph).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The region a node belongs to.
    pub fn region_of(&self, node: NodeId) -> usize {
        self.region_of[node.0 as usize] as usize
    }

    /// Links whose endpoints sit in different regions, in link order.
    pub fn boundary_links(&self) -> &[LinkId] {
        &self.boundary
    }

    /// Whether a link crosses regions.
    pub fn is_boundary(&self, link: LinkId) -> bool {
        self.is_boundary[link.0 as usize]
    }

    /// The conservative lookahead: minimum one-way latency over boundary
    /// links. No event in one region can affect another region sooner
    /// than this, so shards may run this far past the global horizon
    /// without risking a causality violation. `None` when the partition
    /// has a single region (no boundary to cross).
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// The backbone region that every cross-region route passes through.
    pub fn core_region(&self) -> usize {
        self.core_region
    }

    /// Split a global route into region-confined legs at boundary links.
    ///
    /// Each returned [`RouteSeg`] is a maximal run of links ending either
    /// with a boundary link (whose latency becomes the leg's `gap`) or at
    /// the path's destination. Legs stream store-and-forward: a leg's
    /// bytes begin `latency` after the previous handoff, stream inside
    /// `region`'s flow domain, and hand off `gap` after they finish. The
    /// sum of every leg's `latency + gap` equals the path's end-to-end
    /// latency. Local (zero-hop) paths yield no segments.
    ///
    /// The legs are built straight into the shared slice (the leg count
    /// is known up front), and each leg's links are one copy of its run
    /// of `path.links`.
    pub fn segment_route(&self, topo: &Topology, path: &Path) -> Arc<[RouteSeg]> {
        let links = &path.links;
        let cuts = links.iter().filter(|&&l| self.is_boundary(l)).count();
        let tail = links.last().is_some_and(|&l| !self.is_boundary(l));
        let mut cur = path.src;
        let mut start = 0;
        (0..cuts + usize::from(tail))
            .map(|_| {
                let seg_src = cur;
                let region = self.region_of[seg_src.0 as usize];
                let mut latency = SimDuration::ZERO;
                let mut bottleneck = f64::INFINITY;
                let mut i = start;
                loop {
                    let lid = links[i];
                    let l = topo.link(lid);
                    cur = if l.a == cur { l.b } else { l.a };
                    bottleneck = bottleneck.min(l.bandwidth_bps);
                    i += 1;
                    let boundary = self.is_boundary(lid);
                    if boundary || i == links.len() {
                        let gap = if boundary {
                            l.latency
                        } else {
                            latency += l.latency;
                            SimDuration::ZERO
                        };
                        let seg = RouteSeg {
                            links: Arc::from(&links[start..i]),
                            src: seg_src,
                            dst: cur,
                            region,
                            latency,
                            gap,
                            bottleneck_bps: bottleneck,
                        };
                        start = i;
                        return seg;
                    }
                    latency += l.latency;
                }
            })
            .collect()
    }

    /// The per-direction conservative lookahead for a shard owning the
    /// regions flagged in `owned`: the minimum latency over boundary
    /// links *entering* the owned set. Nothing outside the shard can
    /// influence it faster than this, so it is a safe per-shard horizon —
    /// at least as wide as the global [`RegionPartition::lookahead`],
    /// and strictly wider for shards whose incoming WAN links are slow.
    /// `None` when no boundary link crosses into the owned set.
    pub fn incoming_lookahead(&self, topo: &Topology, owned: &[bool]) -> Option<SimDuration> {
        let mut la: Option<SimDuration> = None;
        for &lid in &self.boundary {
            let l = topo.link(lid);
            let ra = owned[self.region_of(l.a)];
            let rb = owned[self.region_of(l.b)];
            if ra != rb {
                la = Some(match la {
                    None => l.latency,
                    Some(cur) => cur.min(l.latency),
                });
            }
        }
        la
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{star, LinkSpec};
    use crate::topology::Tier;

    fn two_star() -> (Topology, Vec<Vec<NodeId>>) {
        // hub + 3 leaves; regions: {hub, leaf0}, {leaf1, leaf2}.
        let ls = LinkSpec::new(SimDuration::from_millis(1), 1e6);
        let (t, hub, leaves) = star(3, ls);
        let regions = vec![vec![hub, leaves[0]], vec![leaves[1], leaves[2]]];
        (t, regions)
    }

    #[test]
    fn boundary_and_lookahead() {
        let (t, regions) = two_star();
        let p = RegionPartition::new(&t, regions, 0);
        assert_eq!(p.len(), 2);
        // Leaves 1 and 2 attach to the hub across the boundary.
        assert_eq!(p.boundary_links().len(), 2);
        assert_eq!(p.lookahead(), Some(SimDuration::from_millis(1)));
        assert_eq!(p.region_of(NodeId(0)), 0);
        for l in t.links() {
            let cross = p.region_of(l.a) != p.region_of(l.b);
            assert_eq!(p.is_boundary(l.id), cross);
        }
    }

    #[test]
    fn single_region_has_no_lookahead() {
        let ls = LinkSpec::new(SimDuration::from_millis(1), 1e6);
        let (t, _, _) = star(3, ls);
        let all: Vec<NodeId> = t.nodes().iter().map(|n| n.id).collect();
        let p = RegionPartition::new(&t, vec![all], 0);
        assert_eq!(p.lookahead(), None);
        assert!(p.boundary_links().is_empty());
    }

    #[test]
    #[should_panic(expected = "covered by no region")]
    fn missing_node_rejected() {
        let (t, mut regions) = two_star();
        regions[1].pop();
        RegionPartition::new(&t, regions, 0);
    }

    #[test]
    #[should_panic(expected = "appears in regions")]
    fn duplicate_node_rejected() {
        let (t, mut regions) = two_star();
        let dup = regions[0][1];
        regions[1].push(dup);
        RegionPartition::new(&t, regions, 0);
    }

    #[test]
    fn segments_split_at_boundaries_and_conserve_latency() {
        // sensor -e1- edge -e2- fog =B= cloud -e3- hpc, with the fog↔cloud
        // link the only boundary. Expect two segments: [e1,e2,B] in the
        // fog region with gap = lat(B), then [e3] in the backbone.
        let mut t = Topology::new();
        let s = t.add_node("s", Tier::Sensor);
        let e = t.add_node("e", Tier::Edge);
        let f = t.add_node("f", Tier::Fog);
        let c = t.add_node("c", Tier::Cloud);
        let h = t.add_node("h", Tier::Hpc);
        t.add_link(s, e, SimDuration::from_millis(2), 3e6);
        t.add_link(e, f, SimDuration::from_millis(5), 1e8);
        t.add_link(f, c, SimDuration::from_millis(20), 1e9);
        t.add_link(c, h, SimDuration::from_millis(10), 1e10);
        let p = RegionPartition::new(&t, vec![vec![c, h], vec![s, e, f]], 0);
        let rt = crate::routing::RouteTable::build(&t);
        let path = rt.path(&t, s, h).unwrap();
        let segs = p.segment_route(&t, &path);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].region, 1);
        assert_eq!(segs[0].links.len(), 3);
        assert_eq!(segs[0].src, s);
        assert_eq!(segs[0].dst, c);
        assert_eq!(segs[0].latency, SimDuration::from_millis(7));
        assert_eq!(segs[0].gap, SimDuration::from_millis(20));
        assert_eq!(segs[0].bottleneck_bps, 3e6);
        assert_eq!(segs[1].region, 0);
        assert_eq!(segs[1].links.len(), 1);
        assert_eq!(segs[1].dst, h);
        assert_eq!(segs[1].latency, SimDuration::from_millis(10));
        assert_eq!(segs[1].gap, SimDuration::ZERO);
        let total = segs
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.latency + s.gap);
        assert_eq!(total, path.latency);
        // Every handoff gap covers the partition lookahead: the envelope
        // causality argument of the partitioned executor.
        assert!(segs[0].gap >= p.lookahead().unwrap());
    }

    #[test]
    fn intra_region_route_is_one_segment() {
        let (t, regions) = two_star();
        let p = RegionPartition::new(&t, regions, 0);
        let rt = crate::routing::RouteTable::build(&t);
        // hub -> leaf0, both region 0.
        let path = rt.path(&t, NodeId(0), NodeId(1)).unwrap();
        let segs = p.segment_route(&t, &path);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].region, 0);
        assert_eq!(segs[0].gap, SimDuration::ZERO);
        assert_eq!(segs[0].latency, path.latency);
        // Local path: no segments.
        assert!(p.segment_route(&t, &Path::trivial(NodeId(0))).is_empty());
    }

    #[test]
    fn consecutive_boundary_links_yield_single_link_segments() {
        // a =B1= b =B2= c, three singleton regions: two segments, each a
        // lone boundary link with zero in-segment latency.
        let mut t = Topology::new();
        let a = t.add_node("a", Tier::Cloud);
        let b = t.add_node("b", Tier::Cloud);
        let c = t.add_node("c", Tier::Cloud);
        t.add_link(a, b, SimDuration::from_millis(3), 1e9);
        t.add_link(b, c, SimDuration::from_millis(4), 1e9);
        let p = RegionPartition::new(&t, vec![vec![a], vec![b], vec![c]], 0);
        let rt = crate::routing::RouteTable::build(&t);
        let path = rt.path(&t, a, c).unwrap();
        let segs = p.segment_route(&t, &path);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].region, 0);
        assert_eq!(segs[0].latency, SimDuration::ZERO);
        assert_eq!(segs[0].gap, SimDuration::from_millis(3));
        assert_eq!(segs[1].region, 1);
        assert_eq!(segs[1].latency, SimDuration::ZERO);
        assert_eq!(segs[1].gap, SimDuration::from_millis(4));
    }

    #[test]
    fn incoming_lookahead_is_directional() {
        // Regions {c,h} and {s,e,f}; the only boundary is the 20ms f-c
        // link, so both sides see 20ms incoming. A shard owning both
        // regions has no incoming boundary at all.
        let mut t = Topology::new();
        let c = t.add_node("c", Tier::Cloud);
        let f = t.add_node("f", Tier::Fog);
        let e = t.add_node("e", Tier::Edge);
        t.add_link(c, f, SimDuration::from_millis(20), 1e9);
        t.add_link(f, e, SimDuration::from_millis(5), 1e8);
        let p = RegionPartition::new(&t, vec![vec![c], vec![f, e]], 0);
        assert_eq!(
            p.incoming_lookahead(&t, &[true, false]),
            Some(SimDuration::from_millis(20))
        );
        assert_eq!(
            p.incoming_lookahead(&t, &[false, true]),
            Some(SimDuration::from_millis(20))
        );
        assert_eq!(p.incoming_lookahead(&t, &[true, true]), None);
    }

    #[test]
    fn works_on_multi_tier_graph() {
        let mut t = Topology::new();
        let c = t.add_node("c", Tier::Cloud);
        let f = t.add_node("f", Tier::Fog);
        let e = t.add_node("e", Tier::Edge);
        t.add_link(c, f, SimDuration::from_millis(20), 1e9);
        t.add_link(f, e, SimDuration::from_millis(5), 1e8);
        let p = RegionPartition::new(&t, vec![vec![c], vec![f, e]], 0);
        // Lookahead is the *minimum* boundary latency.
        assert_eq!(p.lookahead(), Some(SimDuration::from_millis(20)));
        assert_eq!(p.core_region(), 0);
    }
}
