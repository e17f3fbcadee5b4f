//! The federation's forwarding layer: site selection and matrix-backed
//! payload transfers.
//!
//! Every invocation enters the federation at one origin node and is
//! *forwarded* to a site broker, which dispatches it onto one of the
//! site's endpoints. Payload legs (origin → endpoint, endpoint → origin)
//! are timed with the analytic path model (no cross-invocation link
//! contention — the fabric isolates endpoint queueing; the DAG executor
//! in `continuum-runtime` covers link contention). Each leg is one O(1)
//! read of the [`Env`]'s dense transfer matrix
//! ([`continuum_net::TransferMatrix`]): no hashing, no refcounting, no
//! allocation per invocation. The matrix is bit-identical to
//! `env.path(src, dst)?.transfer_time(bytes)` on the canonical route, so
//! forwarded transfers stay bit-identical to the test-only single-broker
//! oracle, which computes them that way and which the federation's
//! identity tests compare against.
//!
//! The forwarder still reports route hits and misses
//! ([`Forwarder::route_stats`]): a *miss* is the first lookup of a
//! `(src, dst)` pair, a *hit* every repeat, tracked in a dense bitset of
//! `node_count²` bits. These equal the hits and misses an epoch-tagged
//! [`continuum_net::RouteCache`] keyed on the same pairs counts: the
//! fabric never changes the dead-link set (so no epoch is ever bumped),
//! and its working set (9,184 pairs in the `federation_dispatch`
//! benchmark) stays far below the cache's 65,536-entry cap (so the cache
//! never evicts).

use continuum_net::{NodeId, RouteCacheStats};
use continuum_placement::Env;
use continuum_sim::SimDuration;

use crate::broker::RoutingPolicy;

/// Site-selection and transfer-timing state shared by all sites of one
/// federation run over one [`Env`].
#[derive(Debug, Default)]
pub struct Forwarder {
    /// Bit `src * n + dst` is set once the pair has been resolved;
    /// sized from the environment's node count on first use.
    seen: Vec<u64>,
    hits: u64,
    misses: u64,
    /// Site-level round-robin cursor (endpoint-level cursors live with
    /// the sites).
    rr_site: usize,
}

impl Forwarder {
    /// A fresh forwarder that has resolved no pair yet.
    pub fn new() -> Forwarder {
        Forwarder::default()
    }

    /// Transfer time for `bytes` from `src` to `dst` over the canonical
    /// route; `None` iff the pair is disconnected.
    ///
    /// Bit-identical to `env.path(src, dst)?.transfer_time(bytes)`: it is
    /// [`Env::transfer_time`], the transfer-matrix lookup.
    pub fn transfer(
        &mut self,
        env: &Env,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Option<SimDuration> {
        let n = env.xfer.node_count();
        if self.seen.is_empty() {
            self.seen = vec![0; (n * n).div_ceil(64)];
        }
        let bit = src.0 as usize * n + dst.0 as usize;
        let word = &mut self.seen[bit / 64];
        let hit = (*word >> (bit % 64)) & 1;
        *word |= 1 << (bit % 64);
        self.hits += hit;
        self.misses += 1 - hit;
        env.transfer_time(src, dst, bytes)
    }

    /// Pick the site a fresh (or re-routed) invocation is forwarded to.
    ///
    /// `live[s]` marks sites that are up, not suspected down, and own at
    /// least one routable endpoint; `outstanding[s]` is the site's
    /// assigned-but-unresponded count; `brokers[s]` is the site broker's
    /// home node. Returns `None` iff no site is live.
    ///
    /// Policies mirror the endpoint-level [`RoutingPolicy`] one level up:
    /// round-robin cycles live sites, least-outstanding picks the least
    /// loaded site (ties by id), locality picks the site whose broker is
    /// cheapest to reach from `origin` (ties by id). With a single live
    /// site every policy collapses to that site, which is what makes the
    /// 1-site federation arm comparable to the single broker.
    #[allow(clippy::too_many_arguments)]
    pub fn choose_site(
        &mut self,
        env: &Env,
        policy: RoutingPolicy,
        live: &[bool],
        outstanding: &[u64],
        brokers: &[NodeId],
        origin: NodeId,
        in_bytes: u64,
    ) -> Option<usize> {
        let n_live = live.iter().filter(|&&b| b).count();
        if n_live == 0 {
            return None;
        }
        match policy {
            RoutingPolicy::RoundRobin => {
                let k = self.rr_site % n_live;
                self.rr_site += 1;
                live.iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .nth(k)
                    .map(|(s, _)| s)
            }
            RoutingPolicy::LeastOutstanding => (0..live.len())
                .filter(|&s| live[s])
                .min_by_key(|&s| (outstanding[s], s)),
            RoutingPolicy::Locality => (0..live.len())
                .filter(|&s| live[s])
                .filter_map(|s| {
                    self.transfer(env, origin, brokers[s], in_bytes)
                        .map(|t| (t, s))
                })
                .min()
                .map(|(_, s)| s),
        }
    }

    /// Lifetime route counters: `hits` are repeat lookups, `misses` the
    /// distinct `(src, dst)` pairs resolved. The epoch fields are always 0
    /// — the forwarder serves one fixed network.
    pub fn route_stats(&self) -> RouteCacheStats {
        RouteCacheStats {
            hits: self.hits,
            misses: self.misses,
            epoch_bumps: 0,
            epoch: 0,
        }
    }

    /// Publish the forwarder's route counters under `prefix` (the same
    /// `hits`/`misses`/`epoch_bumps`/`hit_rate` keys a route cache
    /// publishes).
    pub fn publish_metrics(&self, reg: &continuum_obs::MetricsRegistry, prefix: &str) {
        self.route_stats().publish_metrics(reg, prefix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec};
    use continuum_sim::Rng;
    use std::collections::HashSet;

    fn world() -> (Env, Vec<NodeId>) {
        let built = continuum(&ContinuumSpec::default());
        let sensors = built.sensors.clone();
        (
            Env::new(built.topology.clone(), standard_fleet(&built)),
            sensors,
        )
    }

    #[test]
    fn transfer_matches_path_and_hits_on_repeat() {
        let (env, sensors) = world();
        let mut fwd = Forwarder::new();
        let dst = env.fleet.devices()[0].node;
        let bytes = 200 << 10;
        let want = env.path(sensors[0], dst).unwrap().transfer_time(bytes);
        assert_eq!(fwd.transfer(&env, sensors[0], dst, bytes), Some(want));
        assert_eq!(fwd.transfer(&env, sensors[0], dst, bytes), Some(want));
        let s = fwd.route_stats();
        assert_eq!((s.hits, s.misses, s.epoch_bumps), (1, 1, 0));
    }

    #[test]
    fn hit_miss_counts_equal_distinct_pair_count() {
        let (env, _) = world();
        let n = env.xfer.node_count() as u64;
        let mut rng = Rng::new(17);
        let mut fwd = Forwarder::new();
        let mut distinct = HashSet::new();
        // Draw from a small node range so repeats are common, plus the
        // full range so the bitset's far corners are exercised.
        for i in 0..20_000u64 {
            let span = if i % 4 == 0 { n } else { n.min(12) };
            let src = NodeId(rng.below(span) as u32);
            let dst = NodeId(rng.below(span) as u32);
            let bytes = rng.below(1 << 20);
            let got = fwd.transfer(&env, src, dst, bytes);
            assert_eq!(got, env.path(src, dst).map(|p| p.transfer_time(bytes)));
            distinct.insert((src, dst));
        }
        let s = fwd.route_stats();
        assert_eq!(s.misses, distinct.len() as u64);
        assert_eq!(s.hits, 20_000 - distinct.len() as u64);

        let reg = continuum_obs::MetricsRegistry::new();
        fwd.publish_metrics(&reg, "fwd");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("fwd.hits"), s.hits);
        assert_eq!(snap.counter("fwd.misses"), s.misses);
        assert_eq!(snap.counter("fwd.epoch_bumps"), 0);
    }

    #[test]
    fn choose_site_round_robin_cycles_live_sites() {
        let (env, sensors) = world();
        let mut fwd = Forwarder::new();
        let brokers = vec![sensors[0], sensors[1], sensors[2]];
        let live = vec![true, false, true];
        let out = vec![0, 0, 0];
        let picks: Vec<_> = (0..4)
            .map(|_| {
                fwd.choose_site(
                    &env,
                    RoutingPolicy::RoundRobin,
                    &live,
                    &out,
                    &brokers,
                    sensors[0],
                    1024,
                )
                .unwrap()
            })
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn choose_site_none_when_all_dead() {
        let (env, sensors) = world();
        let mut fwd = Forwarder::new();
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastOutstanding,
            RoutingPolicy::Locality,
        ] {
            assert_eq!(
                fwd.choose_site(
                    &env,
                    policy,
                    &[false, false],
                    &[0, 0],
                    &[sensors[0], sensors[1]],
                    sensors[0],
                    1024,
                ),
                None
            );
        }
    }

    #[test]
    fn choose_site_least_outstanding_prefers_idle() {
        let (env, sensors) = world();
        let mut fwd = Forwarder::new();
        let brokers = vec![sensors[0], sensors[1]];
        let got = fwd.choose_site(
            &env,
            RoutingPolicy::LeastOutstanding,
            &[true, true],
            &[5, 2],
            &brokers,
            sensors[0],
            1024,
        );
        assert_eq!(got, Some(1));
    }
}
