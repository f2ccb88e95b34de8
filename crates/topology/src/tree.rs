//! Canonical layered tree topology (paper Fig. 1a).
//!
//! Servers attach to Top-of-Rack (ToR) switches, groups of ToRs share an
//! aggregation switch, and every aggregation switch uplinks to every core
//! switch. The paper's simulations use 2560 physical hosts across 128 racks
//! (20 hosts per rack); [`CanonicalTree::paper_default`] reproduces that
//! configuration and [`CanonicalTreeBuilder`] scales it.
//!
//! Levels: collocated VMs are level 0, intra-rack pairs level 1, pairs under
//! the same aggregation switch level 2, and everything else level 3 (core).

use crate::api::{LevelBuckets, RouteShare, ServerCoords, Topology};
use crate::graph::{NetGraph, NodeKind};
use crate::ids::{Level, LinkId, NodeId, RackId, ServerId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Per-layer link capacities in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkCapacities {
    /// Host ↔ ToR (1-level) link capacity.
    pub host_bps: f64,
    /// ToR ↔ aggregation (2-level) link capacity.
    pub tor_agg_bps: f64,
    /// Aggregation ↔ core (3-level) link capacity.
    pub agg_core_bps: f64,
}

impl LinkCapacities {
    /// 1 GbE at the edge, 10 GbE uplinks — the typical oversubscribed DC of
    /// the paper's era.
    pub fn oversubscribed_default() -> Self {
        LinkCapacities {
            host_bps: 1e9,
            tor_agg_bps: 10e9,
            agg_core_bps: 10e9,
        }
    }

    /// Uniform capacity on all links (used by the fat-tree, which relies on
    /// path multiplicity rather than faster uplinks).
    pub fn uniform(bps: f64) -> Self {
        LinkCapacities {
            host_bps: bps,
            tor_agg_bps: bps,
            agg_core_bps: bps,
        }
    }
}

impl Default for LinkCapacities {
    fn default() -> Self {
        LinkCapacities::oversubscribed_default()
    }
}

/// Error building a topology from invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A structural count (racks, hosts per rack, cores, …) was zero.
    ZeroCount {
        /// Name of the offending parameter.
        what: &'static str,
    },
    /// `racks` must be divisible by `racks_per_agg`.
    RacksNotDivisible {
        /// Total number of racks requested.
        racks: u32,
        /// Racks sharing one aggregation switch.
        racks_per_agg: u32,
    },
    /// Fat-tree arity `k` must be even and at least 2.
    BadArity {
        /// The offending arity.
        k: u32,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroCount { what } => write!(f, "{what} must be at least 1"),
            BuildError::RacksNotDivisible {
                racks,
                racks_per_agg,
            } => write!(
                f,
                "number of racks ({racks}) must be divisible by racks per aggregation switch \
                 ({racks_per_agg})"
            ),
            BuildError::BadArity { k } => {
                write!(f, "fat-tree arity k must be even and >= 2, got {k}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`CanonicalTree`] ([C-BUILDER]).
///
/// # Examples
///
/// ```
/// use score_topology::{CanonicalTreeBuilder, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = CanonicalTreeBuilder::new()
///     .racks(8)
///     .hosts_per_rack(4)
///     .racks_per_agg(4)
///     .cores(2)
///     .build()?;
/// assert_eq!(topo.num_servers(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CanonicalTreeBuilder {
    racks: u32,
    hosts_per_rack: u32,
    racks_per_agg: u32,
    cores: u32,
    capacities: LinkCapacities,
}

impl CanonicalTreeBuilder {
    /// Starts from the paper's simulation scale: 128 racks × 20 hosts
    /// (2560 servers), 16 racks per aggregation switch, 2 core switches.
    pub fn new() -> Self {
        CanonicalTreeBuilder {
            racks: 128,
            hosts_per_rack: 20,
            racks_per_agg: 16,
            cores: 2,
            capacities: LinkCapacities::default(),
        }
    }

    /// Sets the number of racks (ToR switches).
    pub fn racks(&mut self, racks: u32) -> &mut Self {
        self.racks = racks;
        self
    }

    /// Sets the number of hosts per rack.
    pub fn hosts_per_rack(&mut self, hosts: u32) -> &mut Self {
        self.hosts_per_rack = hosts;
        self
    }

    /// Sets how many racks share one aggregation switch.
    pub fn racks_per_agg(&mut self, racks: u32) -> &mut Self {
        self.racks_per_agg = racks;
        self
    }

    /// Sets the number of core switches (every aggregation switch uplinks to
    /// all of them).
    pub fn cores(&mut self, cores: u32) -> &mut Self {
        self.cores = cores;
        self
    }

    /// Sets the per-layer link capacities.
    pub fn capacities(&mut self, capacities: LinkCapacities) -> &mut Self {
        self.capacities = capacities;
        self
    }

    /// Builds the topology.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if any count is zero or `racks` is not
    /// divisible by `racks_per_agg`.
    pub fn build(&self) -> Result<CanonicalTree, BuildError> {
        if self.racks == 0 {
            return Err(BuildError::ZeroCount { what: "racks" });
        }
        if self.hosts_per_rack == 0 {
            return Err(BuildError::ZeroCount {
                what: "hosts_per_rack",
            });
        }
        if self.racks_per_agg == 0 {
            return Err(BuildError::ZeroCount {
                what: "racks_per_agg",
            });
        }
        if self.cores == 0 {
            return Err(BuildError::ZeroCount { what: "cores" });
        }
        if !self.racks.is_multiple_of(self.racks_per_agg) {
            return Err(BuildError::RacksNotDivisible {
                racks: self.racks,
                racks_per_agg: self.racks_per_agg,
            });
        }
        Ok(CanonicalTree::build(self))
    }
}

impl Default for CanonicalTreeBuilder {
    fn default() -> Self {
        CanonicalTreeBuilder::new()
    }
}

/// Canonical three-layer tree topology (paper Fig. 1a).
#[derive(Debug, Clone)]
pub struct CanonicalTree {
    racks: u32,
    hosts_per_rack: u32,
    racks_per_agg: u32,
    cores: u32,
    graph: NetGraph,
    host_nodes: Vec<NodeId>,
    host_links: Vec<LinkId>,
    tor_agg_links: Vec<LinkId>,
    /// `agg_core_links[agg][core]`
    agg_core_links: Vec<Vec<LinkId>>,
}

impl CanonicalTree {
    /// The paper's simulation configuration: 2560 hosts, 128 ToR switches,
    /// 20 hosts per rack.
    pub fn paper_default() -> Self {
        CanonicalTreeBuilder::new()
            .build()
            .expect("paper default parameters are valid")
    }

    /// A small instance convenient for tests and examples: 4 racks × 4
    /// hosts, 2 racks per aggregation switch, 2 cores.
    pub fn small() -> Self {
        CanonicalTreeBuilder::new()
            .racks(4)
            .hosts_per_rack(4)
            .racks_per_agg(2)
            .cores(2)
            .build()
            .expect("small parameters are valid")
    }

    fn build(b: &CanonicalTreeBuilder) -> Self {
        let mut graph = NetGraph::new();
        let num_hosts = (b.racks * b.hosts_per_rack) as usize;
        let num_aggs = (b.racks / b.racks_per_agg) as usize;

        let host_nodes: Vec<NodeId> = (0..num_hosts)
            .map(|_| graph.add_node(NodeKind::Host))
            .collect();
        let tor_nodes: Vec<NodeId> = (0..b.racks)
            .map(|_| graph.add_node(NodeKind::Tor))
            .collect();
        let agg_nodes: Vec<NodeId> = (0..num_aggs)
            .map(|_| graph.add_node(NodeKind::Aggregation))
            .collect();
        let core_nodes: Vec<NodeId> = (0..b.cores)
            .map(|_| graph.add_node(NodeKind::Core))
            .collect();

        let mut host_links = Vec::with_capacity(num_hosts);
        for (h, &hn) in host_nodes.iter().enumerate() {
            let rack = h as u32 / b.hosts_per_rack;
            host_links.push(graph.add_link(hn, tor_nodes[rack as usize], 1, b.capacities.host_bps));
        }

        let mut tor_agg_links = Vec::with_capacity(b.racks as usize);
        for (r, &tn) in tor_nodes.iter().enumerate() {
            let agg = r as u32 / b.racks_per_agg;
            tor_agg_links.push(graph.add_link(
                tn,
                agg_nodes[agg as usize],
                2,
                b.capacities.tor_agg_bps,
            ));
        }

        let mut agg_core_links = Vec::with_capacity(num_aggs);
        for &an in &agg_nodes {
            let mut links = Vec::with_capacity(b.cores as usize);
            for &cn in &core_nodes {
                links.push(graph.add_link(an, cn, 3, b.capacities.agg_core_bps));
            }
            agg_core_links.push(links);
        }

        CanonicalTree {
            racks: b.racks,
            hosts_per_rack: b.hosts_per_rack,
            racks_per_agg: b.racks_per_agg,
            cores: b.cores,
            graph,
            host_nodes,
            host_links,
            tor_agg_links,
            agg_core_links,
        }
    }

    /// Number of hosts in every rack.
    pub fn hosts_per_rack(&self) -> u32 {
        self.hosts_per_rack
    }

    /// Number of racks sharing each aggregation switch.
    pub fn racks_per_agg(&self) -> u32 {
        self.racks_per_agg
    }

    /// Number of core switches.
    pub fn num_cores(&self) -> u32 {
        self.cores
    }

    /// Number of aggregation switches.
    pub fn num_aggs(&self) -> u32 {
        self.racks / self.racks_per_agg
    }

    /// Aggregation group of a rack.
    pub fn agg_of_rack(&self, r: RackId) -> u32 {
        assert!(r.get() < self.racks, "rack {r} out of range");
        r.get() / self.racks_per_agg
    }

    fn assert_server(&self, s: ServerId) {
        assert!(
            (s.index()) < self.num_servers(),
            "server {s} out of range (0..{})",
            self.num_servers()
        );
    }
}

impl Topology for CanonicalTree {
    fn name(&self) -> &str {
        "canonical-tree"
    }

    fn num_servers(&self) -> usize {
        (self.racks * self.hosts_per_rack) as usize
    }

    fn num_racks(&self) -> usize {
        self.racks as usize
    }

    fn rack_of(&self, s: ServerId) -> RackId {
        self.assert_server(s);
        RackId::new(s.get() / self.hosts_per_rack)
    }

    fn servers_in_rack(&self, r: RackId) -> Range<u32> {
        assert!(r.get() < self.racks, "rack {r} out of range");
        let start = r.get() * self.hosts_per_rack;
        start..start + self.hosts_per_rack
    }

    fn num_zones(&self) -> usize {
        self.num_aggs() as usize
    }

    fn zone_of_rack(&self, r: RackId) -> u32 {
        self.agg_of_rack(r)
    }

    fn hops(&self, a: ServerId, b: ServerId) -> u32 {
        self.assert_server(a);
        self.assert_server(b);
        if a == b {
            return 0;
        }
        let ra = a.get() / self.hosts_per_rack;
        let rb = b.get() / self.hosts_per_rack;
        if ra == rb {
            return 2;
        }
        if ra / self.racks_per_agg == rb / self.racks_per_agg {
            return 4;
        }
        6
    }

    fn coords_of(&self, s: ServerId) -> ServerCoords {
        self.assert_server(s);
        let rack = s.get() / self.hosts_per_rack;
        ServerCoords {
            rack,
            zone: rack / self.racks_per_agg,
        }
    }

    fn level_buckets(&self) -> Option<LevelBuckets> {
        Some(LevelBuckets::THREE_LAYER)
    }

    fn max_level(&self) -> Level {
        if self.num_aggs() > 1 {
            Level::CORE
        } else if self.racks > 1 {
            Level::AGGREGATION
        } else {
            Level::RACK
        }
    }

    fn graph(&self) -> &NetGraph {
        &self.graph
    }

    fn host_node(&self, s: ServerId) -> NodeId {
        self.assert_server(s);
        self.host_nodes[s.index()]
    }

    fn route_shares(&self, a: ServerId, b: ServerId) -> Vec<RouteShare> {
        self.assert_server(a);
        self.assert_server(b);
        if a == b {
            return Vec::new();
        }
        let mut shares = vec![
            RouteShare::new(self.host_links[a.index()], 1.0),
            RouteShare::new(self.host_links[b.index()], 1.0),
        ];
        let ra = a.get() / self.hosts_per_rack;
        let rb = b.get() / self.hosts_per_rack;
        if ra == rb {
            return shares;
        }
        shares.push(RouteShare::new(self.tor_agg_links[ra as usize], 1.0));
        shares.push(RouteShare::new(self.tor_agg_links[rb as usize], 1.0));
        let ga = ra / self.racks_per_agg;
        let gb = rb / self.racks_per_agg;
        if ga == gb {
            return shares;
        }
        // Traffic between different aggregation groups spreads evenly over
        // all core switches (per-flow ECMP averaged at the fluid level).
        let frac = 1.0 / self.cores as f64;
        for c in 0..self.cores as usize {
            shares.push(RouteShare::new(self.agg_core_links[ga as usize][c], frac));
            shares.push(RouteShare::new(self.agg_core_links[gb as usize][c], frac));
        }
        shares
    }

    /// O(flows + links), with no share list per flow: host links and ToR
    /// uplinks take `rate` directly (`rate × 1.0` is `rate`), and the
    /// `cores` agg→core links of an aggregation group receive `rate /
    /// cores` from exactly the flows that leave that group (see
    /// [`route_shares`](Topology::route_shares): the fraction does not
    /// depend on the core). No link appears twice in one flow's shares, so
    /// one accumulator per group sees the same addends in the same flow
    /// order as each of its links would, and copying it to them at the end
    /// is bit-for-bit the per-link sum.
    fn link_loads(&self, flows: &mut dyn Iterator<Item = (ServerId, ServerId, f64)>) -> Vec<f64> {
        let frac = 1.0 / self.cores as f64;
        let mut load = vec![0.0; self.graph.num_links()];
        let mut agg_up = vec![0.0; self.agg_core_links.len()];
        for (a, b, rate) in flows {
            self.assert_server(a);
            self.assert_server(b);
            if a == b {
                continue;
            }
            load[self.host_links[a.index()].index()] += rate;
            load[self.host_links[b.index()].index()] += rate;
            let (ra, rb) = (a.get() / self.hosts_per_rack, b.get() / self.hosts_per_rack);
            if ra == rb {
                continue;
            }
            load[self.tor_agg_links[ra as usize].index()] += rate;
            load[self.tor_agg_links[rb as usize].index()] += rate;
            let (ga, gb) = (ra / self.racks_per_agg, rb / self.racks_per_agg);
            if ga != gb {
                agg_up[ga as usize] += rate * frac;
                agg_up[gb as usize] += rate * frac;
            }
        }
        for (links, &up) in self.agg_core_links.iter().zip(&agg_up) {
            for link in links {
                load[link.index()] = up;
            }
        }
        load
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::checks;

    #[test]
    fn paper_default_dimensions() {
        let t = CanonicalTree::paper_default();
        assert_eq!(t.num_servers(), 2560);
        assert_eq!(t.num_racks(), 128);
        assert_eq!(t.hosts_per_rack(), 20);
        assert_eq!(t.num_aggs(), 8);
        assert_eq!(t.max_level(), Level::CORE);
        // 2560 host links + 128 tor-agg + 8 aggs * 2 cores.
        assert_eq!(t.graph().num_links(), 2560 + 128 + 16);
        assert!(t.graph().is_connected());
    }

    #[test]
    fn small_levels() {
        let t = CanonicalTree::small();
        let s = ServerId::new;
        assert_eq!(t.level(s(0), s(0)), Level::ZERO);
        assert_eq!(t.level(s(0), s(1)), Level::RACK); // same rack
        assert_eq!(t.level(s(0), s(4)), Level::AGGREGATION); // rack 0 vs 1, same agg
        assert_eq!(t.level(s(0), s(8)), Level::CORE); // rack 0 vs 2, other agg
    }

    #[test]
    fn rack_membership() {
        let t = CanonicalTree::small();
        assert_eq!(t.rack_of(ServerId::new(5)), RackId::new(1));
        assert_eq!(t.servers_in_rack(RackId::new(1)), 4..8);
        let members: Vec<_> = t.rack_members(RackId::new(0)).collect();
        assert_eq!(members.len(), 4);
        assert_eq!(members[0], ServerId::new(0));
    }

    #[test]
    fn hops_match_bfs_exhaustively_on_small() {
        let t = CanonicalTree::small();
        for a in 0..t.num_servers() as u32 {
            for b in 0..t.num_servers() as u32 {
                checks::assert_hops_match_bfs(&t, ServerId::new(a), ServerId::new(b));
            }
        }
    }

    #[test]
    fn route_shares_sane_on_small() {
        let t = CanonicalTree::small();
        for a in 0..t.num_servers() as u32 {
            for b in 0..t.num_servers() as u32 {
                checks::assert_route_shares_sane(&t, ServerId::new(a), ServerId::new(b));
            }
        }
    }

    #[test]
    fn route_shares_use_all_cores() {
        let t = CanonicalTree::small();
        let shares = t.route_shares(ServerId::new(0), ServerId::new(8));
        let core_links: Vec<_> = shares
            .iter()
            .filter(|s| t.graph().link(s.link).level == 3)
            .collect();
        assert_eq!(core_links.len(), 4); // 2 cores x 2 sides
        for s in core_links {
            assert!((s.fraction - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn link_loads_give_every_link_of_a_bundle_the_same_bits() {
        // 6 racks of 2 hosts, 2 racks per aggregation group, 3 cores.
        let t = CanonicalTreeBuilder::new()
            .racks(6)
            .hosts_per_rack(2)
            .racks_per_agg(2)
            .cores(3)
            .build()
            .unwrap();
        let s = ServerId::new;
        // Out of group 0: two cross-group flows, one same-group, one
        // same-rack, one collocated — rates whose sums round, and whose
        // `rate / 3` differs from `rate × (1/3)`.
        let flows = [
            (s(0), s(9), 7.7),
            (s(3), s(9), 5.0),
            (s(1), s(2), 0.7),
            (s(0), s(1), 5.0),
            (s(7), s(7), 9.0),
        ];
        let load = t.link_loads(&mut flows.into_iter());
        let third: f64 = 1.0 / 3.0;
        let group0 = 7.7 * third + 5.0 * third;
        for link in &t.agg_core_links[0] {
            assert_eq!(load[link.index()].to_bits(), group0.to_bits());
        }
        // Rack 0's uplink carries both of its cross-rack flows, unsplit.
        let rack0: f64 = 7.7 + 0.7;
        assert_eq!(load[t.tor_agg_links[0].index()].to_bits(), rack0.to_bits());
        // Nothing leaks past the flows' own racks and groups.
        assert_eq!(load[t.tor_agg_links[3].index()], 0.0);
        assert_eq!(load[t.agg_core_links[1][0].index()], 0.0);
        // And every link equals the per-share definition, bit for bit.
        let mut by_share = vec![0.0; t.graph().num_links()];
        for (a, b, rate) in flows {
            for share in t.route_shares(a, b) {
                by_share[share.link.index()] += rate * share.fraction;
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&load), bits(&by_share));
    }

    #[test]
    fn builder_validation() {
        assert_eq!(
            CanonicalTreeBuilder::new().racks(0).build().unwrap_err(),
            BuildError::ZeroCount { what: "racks" }
        );
        assert_eq!(
            CanonicalTreeBuilder::new()
                .hosts_per_rack(0)
                .build()
                .unwrap_err(),
            BuildError::ZeroCount {
                what: "hosts_per_rack"
            }
        );
        assert_eq!(
            CanonicalTreeBuilder::new()
                .racks(10)
                .racks_per_agg(3)
                .build()
                .unwrap_err(),
            BuildError::RacksNotDivisible {
                racks: 10,
                racks_per_agg: 3
            }
        );
        assert_eq!(
            CanonicalTreeBuilder::new().cores(0).build().unwrap_err(),
            BuildError::ZeroCount { what: "cores" }
        );
    }

    #[test]
    fn degenerate_single_agg_max_level() {
        let t = CanonicalTreeBuilder::new()
            .racks(2)
            .hosts_per_rack(2)
            .racks_per_agg(2)
            .cores(1)
            .build()
            .unwrap();
        assert_eq!(t.max_level(), Level::AGGREGATION);
        assert_eq!(t.hops(ServerId::new(0), ServerId::new(2)), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_server_panics() {
        let t = CanonicalTree::small();
        let _ = t.rack_of(ServerId::new(999));
    }

    #[test]
    fn oversubscription_present() {
        // 4 hosts/rack at 1G vs a single 10G uplink is undersubscribed in the
        // small fixture, but the paper-scale config is 20G down vs 10G up.
        let t = CanonicalTree::paper_default();
        let down = t.hosts_per_rack() as f64 * 1e9;
        let up = 10e9;
        assert!(down / up > 1.0, "ToR layer should be oversubscribed");
    }

    #[test]
    fn agg_of_rack_grouping() {
        let t = CanonicalTree::small();
        assert_eq!(t.agg_of_rack(RackId::new(0)), 0);
        assert_eq!(t.agg_of_rack(RackId::new(1)), 0);
        assert_eq!(t.agg_of_rack(RackId::new(2)), 1);
        assert_eq!(t.agg_of_rack(RackId::new(3)), 1);
    }

    #[test]
    fn level_buckets_agree_with_pairwise_levels() {
        let t = CanonicalTree::small();
        for a in 0..t.num_servers() as u32 {
            for b in 0..t.num_servers() as u32 {
                checks::assert_level_buckets_consistent(&t, ServerId::new(a), ServerId::new(b));
            }
        }
    }

    #[test]
    fn build_error_display() {
        assert!(BuildError::ZeroCount { what: "cores" }
            .to_string()
            .contains("cores"));
        assert!(BuildError::RacksNotDivisible {
            racks: 10,
            racks_per_agg: 3
        }
        .to_string()
        .contains("divisible"));
        assert!(BuildError::BadArity { k: 3 }.to_string().contains('3'));
    }
}
