//! The [`Topology`] abstraction shared by every S-CORE component.
//!
//! Algorithms (cost model, token policies, baselines) only ever ask a
//! topology three questions: *which rack is this server in*, *how many hops
//! separate two servers* (which determines the communication level
//! `ℓ = h/2`), and — for link-utilization accounting — *which links does
//! traffic between two servers traverse, in what proportions*.

use crate::graph::NetGraph;
use crate::ids::{Level, LinkId, NodeId, RackId, ServerId};
use std::fmt;
use std::ops::Range;

/// A share of traffic placed on one link by a server-to-server route.
///
/// With multipath routing (ECMP in the fat-tree, multiple cores in the
/// canonical tree) a route spreads its load across equal-cost paths; the
/// `fraction` is the portion of the pair's traffic carried by `link`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteShare {
    /// The link carrying part of the route.
    pub link: LinkId,
    /// Fraction of the pair's traffic on that link, in `(0, 1]`.
    pub fraction: f64,
}

impl RouteShare {
    /// Convenience constructor.
    pub fn new(link: LinkId, fraction: f64) -> Self {
        RouteShare { link, fraction }
    }
}

/// O(1) hierarchical coordinates of one server: its rack and its zone
/// (see [`Topology::num_zones`]). Two servers' communication level is a
/// pure function of how their coordinates relate whenever the topology
/// publishes [`Topology::level_buckets`] — which is what lets the
/// decision kernel score a candidate from per-rack/per-zone rate
/// aggregates instead of per-pair [`Topology::level`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerCoords {
    /// The server's rack.
    pub rack: u32,
    /// The server's zone (aggregation group / pod).
    pub zone: u32,
}

/// The communication levels a coordinate relationship maps to, for
/// topologies whose `level(a, b)` is a pure function of *how* the
/// coordinates of `a` and `b` relate (same server / same rack / same
/// zone / different zone).
///
/// `level(a, b)` must equal, for every pair `a != b`:
///
/// - `same_rack` when `rack(a) == rack(b)`,
/// - `same_zone` when the racks differ but `zone(a) == zone(b)`,
/// - `remote` when the zones differ
///
/// (and `Level::ZERO` when `a == b`). The contract is validated by
/// [`checks::assert_level_buckets_consistent`]. Topologies where levels
/// depend on more than these three relationships must not publish
/// buckets (return `None` from [`Topology::level_buckets`]) so scoring
/// falls back to per-pair `level()` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelBuckets {
    /// Level of two distinct servers in one rack.
    pub same_rack: Level,
    /// Level of two servers in different racks of one zone.
    pub same_zone: Level,
    /// Level of two servers in different zones.
    pub remote: Level,
}

impl LevelBuckets {
    /// The three-layer mapping shared by the canonical tree and the
    /// fat-tree: rack / aggregation / core.
    pub const THREE_LAYER: LevelBuckets = LevelBuckets {
        same_rack: Level::RACK,
        same_zone: Level::AGGREGATION,
        remote: Level::CORE,
    };
}

/// A layered data-center topology.
///
/// Implementations provide closed-form hop counts (validated against BFS on
/// the explicit [`NetGraph`] in tests) and deterministic equal-cost multipath
/// route shares for link-utilization accounting.
///
/// Servers are numbered densely `0..num_servers()` and are contiguous within
/// a rack, so [`servers_in_rack`](Topology::servers_in_rack) returns a range.
pub trait Topology: fmt::Debug + Send + Sync {
    /// Short human-readable name (e.g. `"canonical-tree"`).
    fn name(&self) -> &str;

    /// Total number of physical servers.
    fn num_servers(&self) -> usize;

    /// Total number of racks (ToR switches in the canonical tree, edge
    /// switches in the fat-tree).
    fn num_racks(&self) -> usize;

    /// The rack hosting server `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    fn rack_of(&self, s: ServerId) -> RackId;

    /// Raw id range of the servers in rack `r` (servers are contiguous per
    /// rack).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    fn servers_in_rack(&self, r: RackId) -> Range<u32>;

    /// Number of hops along a shortest path between the two servers
    /// (`0` if `a == b`).
    ///
    /// # Panics
    ///
    /// Panics if either server is out of range.
    fn hops(&self, a: ServerId, b: ServerId) -> u32;

    /// Highest communication level this topology can produce
    /// (3 for three-layer topologies).
    fn max_level(&self) -> Level;

    /// The explicit node/link graph (for utilization accounting and
    /// verification).
    fn graph(&self) -> &NetGraph;

    /// Graph node of a server.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    fn host_node(&self, s: ServerId) -> NodeId;

    /// Equal-cost multipath route shares for traffic between `a` and `b`.
    ///
    /// Returns an empty vector when `a == b` (collocated VMs exchange data
    /// through server-local memory, touching no network link). Fractions for
    /// links of the same level on one side of the path sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if either server is out of range.
    fn route_shares(&self, a: ServerId, b: ServerId) -> Vec<RouteShare>;

    /// Load per link (indexed by [`LinkId`]) after fluid-routing every
    /// `(a, b, rate)` flow over its [`route_shares`](Topology::route_shares):
    /// `load[link] += rate * fraction`, flows taken in iteration order.
    ///
    /// `route_shares` is the definition; this default applies it pair by
    /// pair, which costs O(shares) per flow. Override it only when a flow
    /// has many shares *and* whole groups of links always receive the same
    /// addends (the fat-tree's ECMP bundles: `(k/2)²` paths per cross-pod
    /// pair), so one accumulator can stand for the group. An override must
    /// return, bit for bit, what this default returns — every link sums
    /// the same `rate * fraction` terms in the same flow order.
    ///
    /// # Panics
    ///
    /// Panics if a server is out of range.
    fn link_loads(&self, flows: &mut dyn Iterator<Item = (ServerId, ServerId, f64)>) -> Vec<f64> {
        let mut load = vec![0.0; self.graph().num_links()];
        for (a, b, rate) in flows {
            for share in self.route_shares(a, b) {
                load[share.link.index()] += rate * share.fraction;
            }
        }
        load
    }

    /// Communication level between two servers, `ℓ = h / 2` (paper §II).
    fn level(&self, a: ServerId, b: ServerId) -> Level {
        Level::from_hops(self.hops(a, b))
    }

    /// Number of aggregation *zones* — the subtrees one level above
    /// racks (aggregation groups in the canonical tree, pods in the
    /// fat-tree). The decision kernel buckets a VM's peer rates by zone
    /// (one accumulator per zone on the path), so a decision touches
    /// O(zones) state instead of O(cluster). Topologies without an
    /// aggregation layer report a single zone.
    fn num_zones(&self) -> usize {
        1
    }

    /// The zone containing rack `r` (see [`Topology::num_zones`]).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    fn zone_of_rack(&self, r: RackId) -> u32 {
        assert!((r.get() as usize) < self.num_racks(), "rack out of range");
        0
    }

    /// The zone containing server `s` (derived via its rack).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    fn zone_of(&self, s: ServerId) -> u32 {
        self.zone_of_rack(self.rack_of(s))
    }

    /// O(1) hierarchical coordinates of a server (its rack and zone).
    ///
    /// The default derives them from [`Topology::rack_of`] and
    /// [`Topology::zone_of_rack`]; implementations with closed-form
    /// integer layouts override this with pure arithmetic so the
    /// decision hot path never pays two virtual calls per peer.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    fn coords_of(&self, s: ServerId) -> ServerCoords {
        let rack = self.rack_of(s);
        ServerCoords {
            rack: rack.get(),
            zone: self.zone_of_rack(rack),
        }
    }

    /// The coordinate-relationship → level mapping, when levels are a
    /// pure function of server coordinates (see [`LevelBuckets`]).
    ///
    /// Returning `Some` is a *contract*: for every server pair the
    /// mapping must reproduce [`Topology::level`] exactly (validated by
    /// [`checks::assert_level_buckets_consistent`]). The default is
    /// `None`, which makes level-bucketed consumers fall back to
    /// per-pair `level()` calls — always correct, never required.
    fn level_buckets(&self) -> Option<LevelBuckets> {
        None
    }

    /// Iterator over all server ids.
    fn servers(&self) -> Box<dyn Iterator<Item = ServerId> + '_> {
        Box::new((0..self.num_servers() as u32).map(ServerId::new))
    }

    /// Iterator over all rack ids.
    fn racks(&self) -> Box<dyn Iterator<Item = RackId> + '_> {
        Box::new((0..self.num_racks() as u32).map(RackId::new))
    }

    /// Iterator over the servers of a rack as typed ids.
    fn rack_members(&self, r: RackId) -> Box<dyn Iterator<Item = ServerId> + '_> {
        Box::new(self.servers_in_rack(r).map(ServerId::new))
    }
}

/// Validation helpers shared by topology tests and property tests.
pub mod checks {
    use super::*;

    /// Asserts that the closed-form hop count of `topo` matches BFS on its
    /// explicit graph for the given pair.
    pub fn assert_hops_match_bfs<T: Topology + ?Sized>(topo: &T, a: ServerId, b: ServerId) {
        let closed = topo.hops(a, b);
        let bfs = topo
            .graph()
            .bfs_hops(topo.host_node(a), topo.host_node(b))
            .expect("topology graphs are connected");
        assert_eq!(
            closed,
            bfs,
            "closed-form hops {closed} != BFS hops {bfs} for {a} -> {b} on {}",
            topo.name()
        );
    }

    /// Asserts the [`LevelBuckets`] contract for one pair: the level
    /// derived from the servers' coordinates equals the closed-form
    /// `level(a, b)`, and `coords_of` agrees with `rack_of` /
    /// `zone_of`. A topology publishing no buckets passes vacuously.
    pub fn assert_level_buckets_consistent<T: Topology + ?Sized>(
        topo: &T,
        a: ServerId,
        b: ServerId,
    ) {
        let ca = topo.coords_of(a);
        assert_eq!(
            ca.rack,
            topo.rack_of(a).get(),
            "coords rack mismatch for {a}"
        );
        assert_eq!(ca.zone, topo.zone_of(a), "coords zone mismatch for {a}");
        let Some(buckets) = topo.level_buckets() else {
            return;
        };
        let cb = topo.coords_of(b);
        let derived = if a == b {
            Level::ZERO
        } else if ca.rack == cb.rack {
            buckets.same_rack
        } else if ca.zone == cb.zone {
            buckets.same_zone
        } else {
            buckets.remote
        };
        assert_eq!(
            derived,
            topo.level(a, b),
            "bucket-derived level disagrees with level({a}, {b}) on {}",
            topo.name()
        );
    }

    /// Asserts route-share sanity: fractions in (0,1], per-level fraction
    /// mass consistent with a path that crosses `level(a,b)` layers.
    pub fn assert_route_shares_sane<T: Topology + ?Sized>(topo: &T, a: ServerId, b: ServerId) {
        let shares = topo.route_shares(a, b);
        if a == b {
            assert!(
                shares.is_empty(),
                "collocated servers must have empty routes"
            );
            return;
        }
        let level = topo.level(a, b).get();
        let mut per_level = vec![0.0f64; (topo.max_level().get() + 1) as usize];
        for s in &shares {
            assert!(
                s.fraction > 0.0 && s.fraction <= 1.0,
                "fraction out of range"
            );
            let l = topo.graph().link(s.link).level as usize;
            per_level[l] += s.fraction;
        }
        for (l, mass) in per_level
            .iter()
            .enumerate()
            .take(level as usize + 1)
            .skip(1)
        {
            // A path of level ℓ crosses two links of every layer 1..=ℓ
            // (one on each side), so total fraction mass per layer is 2.
            assert!(
                (mass - 2.0).abs() < 1e-9,
                "layer {l} fraction mass {mass} != 2 for {a} -> {b}"
            );
        }
        for (l, &mass) in per_level.iter().enumerate().skip(level as usize + 1) {
            assert!(
                mass.abs() < 1e-12,
                "layer {l} unexpectedly used for {a} -> {b}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_share_constructor() {
        let s = RouteShare::new(LinkId::new(3), 0.5);
        assert_eq!(s.link, LinkId::new(3));
        assert_eq!(s.fraction, 0.5);
    }

    #[test]
    fn default_coords_derive_from_rack_and_zone() {
        let t = crate::tree::CanonicalTree::small();
        for s in t.servers() {
            let c = t.coords_of(s);
            assert_eq!(c.rack, t.rack_of(s).get());
            assert_eq!(c.zone, t.zone_of(s));
        }
    }

    #[test]
    fn three_layer_buckets_constants() {
        let b = LevelBuckets::THREE_LAYER;
        assert_eq!(b.same_rack, Level::RACK);
        assert_eq!(b.same_zone, Level::AGGREGATION);
        assert_eq!(b.remote, Level::CORE);
    }
}
