//! Fat-tree topology (paper Fig. 1b), after Al-Fares et al. (SIGCOMM'08).
//!
//! A k-ary fat-tree has `k` pods; each pod holds `k/2` edge (ToR) switches
//! and `k/2` aggregation switches; each edge switch serves `k/2` hosts; there
//! are `(k/2)²` core switches. Total hosts: `k³/4`. The paper evaluates
//! `k = 16` (1024 hosts).
//!
//! The fat-tree's defining feature for S-CORE is *path diversity*: a
//! same-pod pair has `k/2` equal-cost paths and an inter-pod pair `(k/2)²`,
//! which is why the communication-cost reduction ratio is smaller than on
//! the canonical tree (Fig. 3g–i) — the topology itself already relieves the
//! core.
//!
//! "Racks" map to edge switches: `RackId` identifies an edge switch and its
//! `k/2` attached hosts.

use crate::api::{LevelBuckets, RouteShare, ServerCoords, Topology};
use crate::graph::{NetGraph, NodeKind};
use crate::ids::{Level, LinkId, NodeId, PodId, RackId, ServerId};
use crate::tree::{BuildError, LinkCapacities};
use std::ops::Range;

/// Builder for [`FatTree`].
///
/// # Examples
///
/// ```
/// use score_topology::{FatTreeBuilder, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = FatTreeBuilder::new().k(4).build()?;
/// assert_eq!(topo.num_servers(), 16); // k^3 / 4
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FatTreeBuilder {
    k: u32,
    capacities: LinkCapacities,
}

impl FatTreeBuilder {
    /// Starts from the paper's configuration `k = 16` (1024 hosts) with
    /// uniform 1 Gb/s links.
    pub fn new() -> Self {
        FatTreeBuilder {
            k: 16,
            capacities: LinkCapacities::uniform(1e9),
        }
    }

    /// Sets the fat-tree arity `k` (must be even, ≥ 2).
    pub fn k(&mut self, k: u32) -> &mut Self {
        self.k = k;
        self
    }

    /// Sets per-layer link capacities (a fat-tree is usually uniform).
    pub fn capacities(&mut self, capacities: LinkCapacities) -> &mut Self {
        self.capacities = capacities;
        self
    }

    /// Builds the topology.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::BadArity`] if `k` is odd or smaller than 2.
    pub fn build(&self) -> Result<FatTree, BuildError> {
        if self.k < 2 || !self.k.is_multiple_of(2) {
            return Err(BuildError::BadArity { k: self.k });
        }
        Ok(FatTree::build(self))
    }
}

impl Default for FatTreeBuilder {
    fn default() -> Self {
        FatTreeBuilder::new()
    }
}

/// A k-ary fat-tree topology.
#[derive(Debug, Clone)]
pub struct FatTree {
    k: u32,
    graph: NetGraph,
    host_nodes: Vec<NodeId>,
    host_links: Vec<LinkId>,
    /// `edge_agg_links[edge_global][j]`: link from edge switch to the j-th
    /// aggregation switch of its pod.
    edge_agg_links: Vec<Vec<LinkId>>,
    /// `agg_core_links[agg_global][i]`: link from aggregation switch to the
    /// i-th core switch it connects to.
    agg_core_links: Vec<Vec<LinkId>>,
}

impl FatTree {
    /// The paper's simulation configuration: `k = 16`, 1024 hosts.
    pub fn paper_default() -> Self {
        FatTreeBuilder::new()
            .build()
            .expect("paper default parameters are valid")
    }

    /// A small `k = 4` instance (16 hosts) for tests and examples.
    pub fn small() -> Self {
        FatTreeBuilder::new()
            .k(4)
            .build()
            .expect("small parameters are valid")
    }

    fn build(b: &FatTreeBuilder) -> Self {
        let k = b.k;
        let half = k / 2;
        let hosts_per_pod = half * half;
        let num_hosts = (k * hosts_per_pod) as usize;
        let num_edges = (k * half) as usize;
        let num_aggs = num_edges;
        let num_cores = (half * half) as usize;

        let mut graph = NetGraph::new();
        let host_nodes: Vec<NodeId> = (0..num_hosts)
            .map(|_| graph.add_node(NodeKind::Host))
            .collect();
        let edge_nodes: Vec<NodeId> = (0..num_edges)
            .map(|_| graph.add_node(NodeKind::Tor))
            .collect();
        let agg_nodes: Vec<NodeId> = (0..num_aggs)
            .map(|_| graph.add_node(NodeKind::Aggregation))
            .collect();
        let core_nodes: Vec<NodeId> = (0..num_cores)
            .map(|_| graph.add_node(NodeKind::Core))
            .collect();

        // Hosts: host h lives in pod h / hosts_per_pod, under edge switch
        // (h % hosts_per_pod) / half of that pod.
        let mut host_links = Vec::with_capacity(num_hosts);
        for (h, &hn) in host_nodes.iter().enumerate() {
            let pod = h as u32 / hosts_per_pod;
            let edge_in_pod = (h as u32 % hosts_per_pod) / half;
            let edge_global = (pod * half + edge_in_pod) as usize;
            host_links.push(graph.add_link(hn, edge_nodes[edge_global], 1, b.capacities.host_bps));
        }

        // Every edge switch connects to every aggregation switch of its pod.
        let mut edge_agg_links = Vec::with_capacity(num_edges);
        for e in 0..num_edges as u32 {
            let pod = e / half;
            let mut links = Vec::with_capacity(half as usize);
            for j in 0..half {
                let agg_global = (pod * half + j) as usize;
                links.push(graph.add_link(
                    edge_nodes[e as usize],
                    agg_nodes[agg_global],
                    2,
                    b.capacities.tor_agg_bps,
                ));
            }
            edge_agg_links.push(links);
        }

        // Aggregation switch j of every pod connects to cores
        // j*half .. j*half+half.
        let mut agg_core_links = Vec::with_capacity(num_aggs);
        for a in 0..num_aggs as u32 {
            let j = a % half;
            let mut links = Vec::with_capacity(half as usize);
            for i in 0..half {
                let core = (j * half + i) as usize;
                links.push(graph.add_link(
                    agg_nodes[a as usize],
                    core_nodes[core],
                    3,
                    b.capacities.agg_core_bps,
                ));
            }
            agg_core_links.push(links);
        }

        FatTree {
            k,
            graph,
            host_nodes,
            host_links,
            edge_agg_links,
            agg_core_links,
        }
    }

    /// The fat-tree arity `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// `k / 2`, the fan-out at each tier.
    pub fn half(&self) -> u32 {
        self.k / 2
    }

    /// Hosts per pod: `(k/2)²`.
    pub fn hosts_per_pod(&self) -> u32 {
        self.half() * self.half()
    }

    /// The pod of a server.
    pub fn pod_of(&self, s: ServerId) -> PodId {
        self.assert_server(s);
        PodId::new(s.get() / self.hosts_per_pod())
    }

    /// Global edge-switch index (== rack) of a server.
    fn edge_of(&self, s: ServerId) -> u32 {
        let half = self.half();
        let pod = s.get() / self.hosts_per_pod();
        let edge_in_pod = (s.get() % self.hosts_per_pod()) / half;
        pod * half + edge_in_pod
    }

    fn assert_server(&self, s: ServerId) {
        assert!(
            s.index() < self.num_servers(),
            "server {s} out of range (0..{})",
            self.num_servers()
        );
    }
}

impl Topology for FatTree {
    fn name(&self) -> &str {
        "fat-tree"
    }

    fn num_servers(&self) -> usize {
        (self.k * self.hosts_per_pod()) as usize
    }

    fn num_racks(&self) -> usize {
        (self.k * self.half()) as usize
    }

    fn rack_of(&self, s: ServerId) -> RackId {
        self.assert_server(s);
        RackId::new(self.edge_of(s))
    }

    fn servers_in_rack(&self, r: RackId) -> Range<u32> {
        assert!((r.index()) < self.num_racks(), "rack {r} out of range");
        let start = r.get() * self.half();
        start..start + self.half()
    }

    fn num_zones(&self) -> usize {
        self.k as usize
    }

    fn zone_of_rack(&self, r: RackId) -> u32 {
        assert!((r.index()) < self.num_racks(), "rack {r} out of range");
        r.get() / self.half()
    }

    fn hops(&self, a: ServerId, b: ServerId) -> u32 {
        self.assert_server(a);
        self.assert_server(b);
        if a == b {
            return 0;
        }
        if self.edge_of(a) == self.edge_of(b) {
            return 2;
        }
        if self.pod_of(a) == self.pod_of(b) {
            return 4;
        }
        6
    }

    fn coords_of(&self, s: ServerId) -> ServerCoords {
        self.assert_server(s);
        let half = self.half();
        let rack = s.get() / half;
        ServerCoords {
            rack,
            zone: rack / half,
        }
    }

    fn level_buckets(&self) -> Option<LevelBuckets> {
        Some(LevelBuckets::THREE_LAYER)
    }

    fn max_level(&self) -> Level {
        Level::CORE
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
        let ea = self.edge_of(a) as usize;
        let eb = self.edge_of(b) as usize;
        let half = self.half() as usize;
        let pa = self.pod_of(a);
        let pb = self.pod_of(b);
        // Two host links, plus 2·half edge uplinks once the pair leaves
        // its edge, plus 2·half² core links once it leaves its pod.
        let uplinks = if ea == eb { 0 } else { 2 * half };
        let core_links = if pa == pb { 0 } else { 2 * half * half };
        let mut shares = Vec::with_capacity(2 + uplinks + core_links);
        shares.push(RouteShare::new(self.host_links[a.index()], 1.0));
        shares.push(RouteShare::new(self.host_links[b.index()], 1.0));
        if ea == eb {
            return shares;
        }
        if pa == pb {
            // k/2 equal-cost paths, one per pod aggregation switch.
            let frac = 1.0 / half as f64;
            for j in 0..half {
                shares.push(RouteShare::new(self.edge_agg_links[ea][j], frac));
                shares.push(RouteShare::new(self.edge_agg_links[eb][j], frac));
            }
            return shares;
        }
        // (k/2)^2 equal-cost paths: pick aggregation j then core i. The core
        // j*half+i connects to aggregation j in *every* pod, so the downward
        // path reuses the same j.
        let frac_agg = 1.0 / half as f64;
        let frac_core = 1.0 / (half * half) as f64;
        let aggs_a = pa.get() as usize * half;
        let aggs_b = pb.get() as usize * half;
        for j in 0..half {
            shares.push(RouteShare::new(self.edge_agg_links[ea][j], frac_agg));
            shares.push(RouteShare::new(self.edge_agg_links[eb][j], frac_agg));
            for i in 0..half {
                shares.push(RouteShare::new(
                    self.agg_core_links[aggs_a + j][i],
                    frac_core,
                ));
                shares.push(RouteShare::new(
                    self.agg_core_links[aggs_b + j][i],
                    frac_core,
                ));
            }
        }
        shares
    }

    /// O(flows + links) instead of O(flows × (k/2)²): all `half` uplinks
    /// of an edge switch receive `rate / half` from exactly the flows that
    /// leave that edge, and all `half²` agg→core links of a pod receive
    /// `rate / half²` from exactly the flows that leave that pod (see
    /// [`route_shares`](Topology::route_shares): the fractions do not
    /// depend on `j` or `i`). One accumulator per bundle therefore sees
    /// the same addends in the same order as each of its links would, and
    /// copying it to them at the end is bit-for-bit the per-link sum.
    fn link_loads(&self, flows: &mut dyn Iterator<Item = (ServerId, ServerId, f64)>) -> Vec<f64> {
        let half = self.half() as usize;
        let frac_agg = 1.0 / half as f64;
        let frac_core = 1.0 / (half * half) as f64;
        let mut load = vec![0.0; self.graph.num_links()];
        let mut edge_up = vec![0.0; self.num_racks()];
        let mut pod_up = vec![0.0; self.k as usize];
        for (a, b, rate) in flows {
            self.assert_server(a);
            self.assert_server(b);
            if a == b {
                continue;
            }
            load[self.host_links[a.index()].index()] += rate;
            load[self.host_links[b.index()].index()] += rate;
            let (ea, eb) = (self.edge_of(a) as usize, self.edge_of(b) as usize);
            if ea == eb {
                continue;
            }
            edge_up[ea] += rate * frac_agg;
            edge_up[eb] += rate * frac_agg;
            let (pa, pb) = (ea / half, eb / half);
            if pa != pb {
                pod_up[pa] += rate * frac_core;
                pod_up[pb] += rate * frac_core;
            }
        }
        for (links, &up) in self.edge_agg_links.iter().zip(&edge_up) {
            for link in links {
                load[link.index()] = up;
            }
        }
        for (aggs, &up) in self.agg_core_links.chunks(half).zip(&pod_up) {
            for link in aggs.iter().flatten() {
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
        let t = FatTree::paper_default();
        assert_eq!(t.k(), 16);
        assert_eq!(t.num_servers(), 1024);
        assert_eq!(t.num_racks(), 128); // 16 pods x 8 edge switches
        assert_eq!(t.hosts_per_pod(), 64);
        // links: 1024 host + 128 edges x 8 aggs + 128 aggs x 8 cores
        assert_eq!(t.graph().num_links(), 1024 + 1024 + 1024);
        assert!(t.graph().is_connected());
    }

    #[test]
    fn small_levels() {
        let t = FatTree::small(); // k=4: 16 hosts, 4 pods, 2 hosts/edge
        let s = ServerId::new;
        assert_eq!(t.level(s(0), s(0)), Level::ZERO);
        assert_eq!(t.level(s(0), s(1)), Level::RACK); // same edge switch
        assert_eq!(t.level(s(0), s(2)), Level::AGGREGATION); // same pod
        assert_eq!(t.level(s(0), s(4)), Level::CORE); // different pod
    }

    #[test]
    fn pod_and_rack_structure() {
        let t = FatTree::small();
        assert_eq!(t.pod_of(ServerId::new(0)), PodId::new(0));
        assert_eq!(t.pod_of(ServerId::new(5)), PodId::new(1));
        assert_eq!(t.rack_of(ServerId::new(2)), RackId::new(1));
        assert_eq!(t.servers_in_rack(RackId::new(1)), 2..4);
    }

    #[test]
    fn hops_match_bfs_exhaustively_on_small() {
        let t = FatTree::small();
        for a in 0..t.num_servers() as u32 {
            for b in 0..t.num_servers() as u32 {
                checks::assert_hops_match_bfs(&t, ServerId::new(a), ServerId::new(b));
            }
        }
    }

    #[test]
    fn route_shares_sane_on_small() {
        let t = FatTree::small();
        for a in 0..t.num_servers() as u32 {
            for b in 0..t.num_servers() as u32 {
                checks::assert_route_shares_sane(&t, ServerId::new(a), ServerId::new(b));
            }
        }
    }

    #[test]
    fn interpod_path_diversity() {
        let t = FatTree::small();
        let shares = t.route_shares(ServerId::new(0), ServerId::new(4));
        // k=4: 2 agg choices x 2 core choices; core links carry 1/4 each.
        let core_shares: Vec<_> = shares
            .iter()
            .filter(|s| t.graph().link(s.link).level == 3)
            .collect();
        assert_eq!(core_shares.len(), 8); // 2 pods x 2 aggs x 2 cores
        for s in core_shares {
            assert!((s.fraction - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn link_loads_give_every_link_of_a_bundle_the_same_bits() {
        let t = FatTreeBuilder::new().k(6).build().unwrap();
        let s = ServerId::new;
        // Out of edge 0 / pod 0: two cross-pod flows, one same-pod, one
        // same-edge, one collocated — rates whose sums round.
        let flows = [
            (s(0), s(53), 0.1),
            (s(2), s(30), 1e9 / 3.0),
            (s(1), s(4), 0.7),
            (s(0), s(1), 5.0),
            (s(7), s(7), 9.0),
        ];
        let load = t.link_loads(&mut flows.into_iter());
        let uplinks = t.edge_agg_links[0].clone();
        let core: Vec<LinkId> = t.agg_core_links[..3].iter().flatten().copied().collect();
        assert_eq!((uplinks.len(), core.len()), (3, 9));
        let (third, ninth) = (1.0 / 3.0, 1.0 / 9.0);
        let expected: [f64; 2] = [
            0.1 * third + (1e9 / 3.0) * third + 0.7 * third,
            0.1 * ninth + (1e9 / 3.0) * ninth,
        ];
        for (bundle, want) in [uplinks, core].iter().zip(expected) {
            for link in bundle {
                assert_eq!(load[link.index()].to_bits(), want.to_bits());
            }
        }
        // Nothing leaks past the flows' own edges and pods.
        assert_eq!(load[t.edge_agg_links[2][0].index()], 0.0);
        assert_eq!(load[t.agg_core_links[3][0].index()], 0.0);
    }

    #[test]
    fn rejects_bad_arity() {
        assert_eq!(
            FatTreeBuilder::new().k(3).build().unwrap_err(),
            BuildError::BadArity { k: 3 }
        );
        assert_eq!(
            FatTreeBuilder::new().k(0).build().unwrap_err(),
            BuildError::BadArity { k: 0 }
        );
    }

    #[test]
    fn minimal_k2_tree() {
        let t = FatTreeBuilder::new().k(2).build().unwrap();
        assert_eq!(t.num_servers(), 2);
        assert!(t.graph().is_connected());
        assert_eq!(t.hops(ServerId::new(0), ServerId::new(1)), 6); // different pods
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_server_panics() {
        let t = FatTree::small();
        let _ = t.hops(ServerId::new(0), ServerId::new(16));
    }

    #[test]
    fn level_buckets_agree_with_pairwise_levels() {
        let t = FatTree::small();
        for a in 0..t.num_servers() as u32 {
            for b in 0..t.num_servers() as u32 {
                checks::assert_level_buckets_consistent(&t, ServerId::new(a), ServerId::new(b));
            }
        }
    }

    #[test]
    fn bisection_bandwidth_is_full() {
        // A fat-tree is rearrangeably non-blocking: the number of core links
        // equals the number of host links per pod side.
        let t = FatTree::small();
        let host_links = t.graph().links_of_level(1).count();
        let core_links = t.graph().links_of_level(3).count();
        assert_eq!(host_links, 16);
        assert_eq!(core_links, 16);
    }
}
