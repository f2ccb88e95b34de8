//! The token holder's local view (paper §IV).
//!
//! "The condition of Theorem 1 relies on information that is available
//! locally at a given VM u": the identity, rate and location of each peer,
//! plus the precomputed location-cost mapping. [`LocalView`] is that
//! information, deliberately *excluding* any global state — the engine only
//! ever reasons from a `LocalView`, which keeps the implementation honest
//! about S-CORE's distributed nature.

use std::cmp::Ordering;

use score_topology::{Level, LevelBuckets, LinkWeights, ServerId, Topology, VmId};
use score_traffic::PairTraffic;
use serde::{Deserialize, Serialize};

use crate::allocation::Allocation;

/// Combines the candidate-independent "cost-before" accumulator with the
/// level-bucketed "cost-after" rate sums into a Lemma-3 delta (×2).
///
/// `host`, `rack` and `zone` are *inclusive* peer-rate sums — peers hosted on
/// the target server, in the target's rack, and in the target's zone — and
/// `total` is the full peer-rate sum, so the per-bucket populations are the
/// pairwise differences. Peers landing on the target itself reach level 0
/// whose prefix weight is 0, so the host sum only appears subtractively.
///
/// A bucket term is skipped when its level exceeds the topology's
/// `max_level`: no peer pair can sit at that level, so the corresponding
/// difference is two bitwise-equal accumulators and the term is exactly
/// `+0.0`. The guard depends only on topology configuration — never on
/// traffic — which keeps the bucketed kernel and the per-peer sweep on
/// identical code paths.
#[inline]
#[allow(clippy::too_many_arguments)] // one scalar per bucket, by design
pub(crate) fn combine_bucketed(
    before: f64,
    host: f64,
    rack: f64,
    zone: f64,
    total: f64,
    weights: &LinkWeights,
    buckets: LevelBuckets,
    max_level: Level,
) -> f64 {
    let mut after = 0.0;
    if buckets.same_rack <= max_level {
        after += weights.prefix(buckets.same_rack) * (rack - host);
    }
    if buckets.same_zone <= max_level {
        after += weights.prefix(buckets.same_zone) * (zone - rack);
    }
    if buckets.remote <= max_level {
        after += weights.prefix(buckets.remote) * (total - zone);
    }
    2.0 * (before - after)
}

/// One ranked candidate: `(server, level, rate, peer index)`.
pub(crate) type RankEntry = (ServerId, Level, f64, u32);

/// Candidate ranking order: level desc, rate desc, peer index asc.
pub(crate) fn candidate_rank(a: &RankEntry, b: &RankEntry) -> Ordering {
    b.1.cmp(&a.1)
        .then(b.2.partial_cmp(&a.2).unwrap_or(Ordering::Equal))
        .then(a.3.cmp(&b.3))
}

/// What the holder knows about one peer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeerInfo {
    /// The peer VM.
    pub vm: VmId,
    /// Aggregate rate λ(z, u) in bits per second (both directions).
    pub rate: f64,
    /// The rate decisions rank and score this pair at: the peak-demand
    /// envelope `max(rate, forecast)` once
    /// [`crate::OutlookContext::fill_expected`] has run with a forecast,
    /// `rate` otherwise.
    pub expected: f64,
    /// The server hosting the peer (learned via the location probe,
    /// §V-B4).
    pub server: ServerId,
    /// Communication level ℓ_A(z, u) between holder and peer.
    pub level: Level,
}

/// Everything VM `u` knows locally when it holds the token.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalView {
    /// The observing VM.
    pub vm: VmId,
    /// Its current server.
    pub server: ServerId,
    /// Its peers `Vu` with rates, locations and levels.
    pub peers: Vec<PeerInfo>,
}

impl LocalView {
    /// Gathers the local view of `u` from simulation state.
    ///
    /// In a real deployment this data comes from the dom0 flow table
    /// (rates), location probes (peer servers) and the precomputed
    /// location-cost mapping (levels); in simulation we read the same
    /// quantities from the global structures, but only the `u`-local slice
    /// of them.
    pub fn observe<T: Topology + ?Sized>(
        u: VmId,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) -> Self {
        let mut view = LocalView::default();
        view.observe_into(u, alloc, traffic, topo);
        view
    }

    /// Re-gathers the view in place, reusing the peer buffer — the
    /// allocation-free form of [`LocalView::observe`] that every token
    /// hold runs on the ring's one view. Each peer's `expected` rate
    /// starts at its current rate.
    pub fn observe_into<T: Topology + ?Sized>(
        &mut self,
        u: VmId,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) {
        let server = alloc.server_of(u);
        self.vm = u;
        self.server = server;
        self.peers.clear();
        // `PairTraffic::peers` yields the adjacency list sorted by peer id;
        // `peers` inherits that order.
        self.peers.extend(traffic.peers(u).map(|(vm, rate)| {
            let peer_server = alloc.server_of(vm);
            PeerInfo {
                vm,
                rate,
                expected: rate,
                server: peer_server,
                level: topo.level(server, peer_server),
            }
        }));
    }

    /// Moves the holder to `server` and recomputes each peer's level from
    /// the peer server already stored — the view after the holder's own
    /// migration. A migration changes no rate, no peer's server and no
    /// forecast input, so this equals observing (and forecasting) again.
    pub fn relocate<T: Topology + ?Sized>(&mut self, server: ServerId, topo: &T) {
        self.server = server;
        for p in &mut self.peers {
            p.level = topo.level(server, p.server);
        }
    }

    /// The holder's highest communication level `ℓ_A(u)`; level 0 when the
    /// VM has no peers.
    pub fn own_level(&self) -> Level {
        self.peers
            .iter()
            .map(|p| p.level)
            .max()
            .unwrap_or(Level::ZERO)
    }

    /// Lemma-3 migration delta `ΔC_{u→x̂}` computed from the local view
    /// only, at the `expected` rates decisions score on:
    /// `2 Σ_z λ(z,u) (Σ_{i≤ℓ(z,u)} c_i − Σ_{i≤ℓ'(z,u)} c_i)`.
    ///
    /// On topologies exposing [`LevelBuckets`] the sum is evaluated in the
    /// decomposed form `2·(before − after)`: `before = Σ λ·prefix(ℓ)` is
    /// candidate-independent, and `after` depends only on how much peer
    /// rate lands on the target's host / rack / zone — the same
    /// `combine_bucketed` the single-pass kernel uses, so a per-candidate
    /// sweep of this method and the kernel produce bit-identical deltas.
    pub fn delta_for<T: Topology + ?Sized>(
        &self,
        target: ServerId,
        weights: &LinkWeights,
        topo: &T,
    ) -> f64 {
        self.delta_at(target, weights, topo, |p| p.expected)
    }

    /// [`LocalView::delta_for`] at the current rates: the ΔC an accepted
    /// move applies to `C_A`, which is what a [`crate::CostLedger`]
    /// absorbs via `apply_gain` — the global cost stays tracked without
    /// ever recomputing Eq. (2).
    pub(crate) fn current_delta_for<T: Topology + ?Sized>(
        &self,
        target: ServerId,
        weights: &LinkWeights,
        topo: &T,
    ) -> f64 {
        self.delta_at(target, weights, topo, |p| p.rate)
    }

    #[inline]
    fn delta_at<T: Topology + ?Sized>(
        &self,
        target: ServerId,
        weights: &LinkWeights,
        topo: &T,
        rate: impl Fn(&PeerInfo) -> f64,
    ) -> f64 {
        if target == self.server {
            return 0.0;
        }
        match topo.level_buckets() {
            Some(buckets) => {
                let tc = topo.coords_of(target);
                let mut before = 0.0;
                let (mut host, mut rack, mut zone, mut total) = (0.0, 0.0, 0.0, 0.0);
                for p in &self.peers {
                    let r = rate(p);
                    before += r * weights.prefix(p.level);
                    let pc = topo.coords_of(p.server);
                    if p.server == target {
                        host += r;
                    }
                    if pc.rack == tc.rack {
                        rack += r;
                    }
                    if pc.zone == tc.zone {
                        zone += r;
                    }
                    total += r;
                }
                combine_bucketed(
                    before,
                    host,
                    rack,
                    zone,
                    total,
                    weights,
                    buckets,
                    topo.max_level(),
                )
            }
            None => {
                let mut delta = 0.0;
                for p in &self.peers {
                    let after = topo.level(p.server, target);
                    delta += rate(p) * weights.level_change_saving(p.level, after);
                }
                2.0 * delta
            }
        }
    }

    /// Fills `buf` with the candidate target servers, "rank\[ed\] … from
    /// highest to lowest communication levels" (§V-B5), ties broken
    /// towards heavier (`expected`) peers. The holder's own server is
    /// excluded; duplicates are removed keeping the best rank.
    ///
    /// Rank key: level desc, rate desc, peer index asc. The explicit
    /// index tiebreak reproduces the former stable sort, so the output
    /// order is unchanged while dedup drops from O(n²) `contains`
    /// probes to two O(n log n) sorts: group by server keeping each
    /// server's best-ranked peer, then restore ranking order.
    pub(crate) fn rank_candidates_into(&self, buf: &mut Vec<RankEntry>) {
        buf.clear();
        buf.extend(
            self.peers
                .iter()
                .enumerate()
                .filter(|(_, p)| p.server != self.server)
                .map(|(i, p)| (p.server, p.level, p.expected, i as u32)),
        );
        buf.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| candidate_rank(a, b)));
        buf.dedup_by_key(|e| e.0);
        buf.sort_unstable_by(candidate_rank);
    }
}

impl Default for LocalView {
    /// An empty placeholder (VM 0 on server 0, no peers) — scratch views
    /// start here and are always `observe_into`'d before use.
    fn default() -> Self {
        LocalView {
            vm: VmId::new(0),
            server: ServerId::new(0),
            peers: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use score_topology::CanonicalTree;
    use score_traffic::PairTrafficBuilder;

    fn candidate_servers(view: &LocalView) -> Vec<ServerId> {
        let mut buf = Vec::new();
        view.rank_candidates_into(&mut buf);
        buf.into_iter().map(|e| e.0).collect()
    }

    fn fixture() -> (CanonicalTree, Allocation, PairTraffic) {
        let topo = CanonicalTree::small();
        // vm0@srv0, vm1@srv1 (same rack), vm2@srv4 (same agg), vm3@srv8 (core)
        let servers = [0u32, 1, 4, 8];
        let alloc = Allocation::from_fn(4, 16, |vm| ServerId::new(servers[vm.index()]));
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 10.0);
        b.add(VmId::new(0), VmId::new(2), 5.0);
        b.add(VmId::new(0), VmId::new(3), 1.0);
        (topo, alloc, b.build())
    }

    #[test]
    fn observation_contents() {
        let (topo, alloc, traffic) = fixture();
        let view = LocalView::observe(VmId::new(0), &alloc, &traffic, &topo);
        assert_eq!(view.server, ServerId::new(0));
        assert_eq!(view.peers.len(), 3);
        assert_eq!(view.peers[0].level, Level::RACK);
        assert_eq!(view.peers[1].level, Level::AGGREGATION);
        assert_eq!(view.peers[2].level, Level::CORE);
        assert_eq!(view.own_level(), Level::CORE);
        assert!(view.peers.iter().all(|p| p.expected == p.rate));
        assert_eq!(view.peers[0].rate, 10.0);
    }

    #[test]
    fn own_level_without_peers() {
        let (topo, alloc, traffic) = fixture();
        let view = LocalView::observe(VmId::new(1), &alloc, &traffic, &topo);
        assert_eq!(view.own_level(), Level::RACK);
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(2), VmId::new(3), 1.0);
        let t2 = b.build();
        let lonely = LocalView::observe(VmId::new(0), &alloc, &t2, &topo);
        assert_eq!(lonely.own_level(), Level::ZERO);
        assert!(candidate_servers(&lonely).is_empty());
    }

    #[test]
    fn candidates_ranked_by_level_then_rate() {
        let (topo, alloc, traffic) = fixture();
        let view = LocalView::observe(VmId::new(0), &alloc, &traffic, &topo);
        // Highest level peer is vm3@srv8 (core), then vm2@srv4, then vm1@srv1.
        assert_eq!(
            candidate_servers(&view),
            vec![ServerId::new(8), ServerId::new(4), ServerId::new(1)]
        );
    }

    #[test]
    fn candidates_exclude_own_server_and_dups() {
        let (topo, _, _) = fixture();
        // Both peers on the same server as holder or duplicated.
        let alloc =
            Allocation::from_fn(3, 16, |vm| ServerId::new(if vm.get() == 0 { 0 } else { 4 }));
        let mut b = PairTrafficBuilder::new(3);
        b.add(VmId::new(0), VmId::new(1), 1.0);
        b.add(VmId::new(0), VmId::new(2), 2.0);
        let traffic = b.build();
        let view = LocalView::observe(VmId::new(0), &alloc, &traffic, &topo);
        assert_eq!(candidate_servers(&view), vec![ServerId::new(4)]);
    }

    #[test]
    fn delta_matches_cost_model() {
        use crate::cost::CostModel;
        let (topo, alloc, traffic) = fixture();
        let model = CostModel::paper_default();
        let view = LocalView::observe(VmId::new(0), &alloc, &traffic, &topo);
        for target in [1u32, 4, 8, 12, 0] {
            let t = ServerId::new(target);
            let local = view.delta_for(t, model.weights(), &topo);
            let global = model.migration_delta(VmId::new(0), t, &alloc, &traffic, &topo);
            assert!(
                (local - global).abs() < 1e-9,
                "target {target}: {local} vs {global}"
            );
        }
    }

    /// The pre-optimization reference: stable rank sort + linear-probe
    /// dedup. The two-sort implementation must reproduce it exactly.
    fn candidate_servers_reference(view: &LocalView) -> Vec<ServerId> {
        let mut ranked: Vec<&PeerInfo> = view.peers.iter().collect();
        ranked.sort_by(|a, b| {
            b.level.cmp(&a.level).then(
                b.rate
                    .partial_cmp(&a.rate)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let mut out = Vec::new();
        for p in ranked {
            if p.server != view.server && !out.contains(&p.server) {
                out.push(p.server);
            }
        }
        out
    }

    #[test]
    fn high_degree_candidates_preserve_ranking() {
        use score_topology::FatTreeBuilder;
        // A holder with hundreds of peers spread over few servers — the
        // regime where the old O(n²) dedup hurt — including deliberate
        // exact rate ties so the index tiebreak is exercised.
        let topo = FatTreeBuilder::new().k(8).build().expect("valid arity");
        let n = 400u32;
        let num_servers = topo.num_servers() as u32;
        let alloc = Allocation::from_fn(n + 1, num_servers, |vm| {
            ServerId::new((vm.get() * 7) % num_servers)
        });
        let mut b = PairTrafficBuilder::new(n + 1);
        for z in 1..=n {
            let rate = f64::from(z % 13) + 1.0;
            b.add(VmId::new(0), VmId::new(z), rate);
        }
        let traffic = b.build();
        let view = LocalView::observe(VmId::new(0), &alloc, &traffic, &topo);
        assert!(view.peers.len() >= 400);
        let got = candidate_servers(&view);
        assert_eq!(got, candidate_servers_reference(&view));
        assert!(!got.contains(&view.server));
    }

    #[test]
    fn bucketed_delta_matches_naive_level_sweep() {
        // The decomposed (bucketed) delta must agree with the per-peer
        // level sweep it replaced, on every server of a small tree.
        let (topo, alloc, traffic) = fixture();
        let model = crate::cost::CostModel::paper_default();
        let view = LocalView::observe(VmId::new(0), &alloc, &traffic, &topo);
        assert!(topo.level_buckets().is_some());
        for target in 0..topo.num_servers() as u32 {
            let t = ServerId::new(target);
            let got = view.delta_for(t, model.weights(), &topo);
            let mut naive = 0.0;
            if t != view.server {
                for p in &view.peers {
                    let after = topo.level(p.server, t);
                    naive += p.rate * model.weights().level_change_saving(p.level, after);
                }
                naive *= 2.0;
            }
            assert!(
                (got - naive).abs() < 1e-9,
                "target {target}: {got} vs {naive}"
            );
        }
    }

    #[test]
    fn relocate_matches_a_fresh_observation() {
        let (topo, mut alloc, traffic) = fixture();
        let mut view = LocalView::observe(VmId::new(0), &alloc, &traffic, &topo);
        for target in [1u32, 4, 8, 15, 0] {
            let t = ServerId::new(target);
            view.relocate(t, &topo);
            alloc.move_vm(VmId::new(0), t);
            assert_eq!(
                view,
                LocalView::observe(VmId::new(0), &alloc, &traffic, &topo)
            );
        }
    }
}
