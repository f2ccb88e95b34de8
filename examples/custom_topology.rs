//! Bring your own fabric: implement [`Topology`] for a two-tier leaf–spine
//! network and run S-CORE on it unchanged.
//!
//! The S-CORE cost model only needs hop counts (levels) and route shares,
//! so any layered fabric plugs in. Leaf–spine has two levels: same-leaf
//! (level 1) and cross-leaf via a spine (level 2).
//!
//! ```sh
//! cargo run --example custom_topology
//! ```

use s_core::core::ScoreConfig;
use s_core::sim::{EngineSpec, PlacementSpec, PolicyKind, Scenario};
use s_core::topology::{
    Level, LinkId, LinkWeights, NetGraph, NodeId, NodeKind, RackId, RouteShare, ServerId, Topology,
};
use s_core::traffic::{CbrLoad, WorkloadConfig};
use s_core::xen::PreCopyConfig;
use std::ops::Range;
use std::sync::Arc;

/// `leaves` leaf switches × `hosts_per_leaf` servers, fully meshed to
/// `spines` spine switches.
#[derive(Debug)]
struct LeafSpine {
    leaves: u32,
    hosts_per_leaf: u32,
    spines: u32,
    graph: NetGraph,
    host_nodes: Vec<NodeId>,
    host_links: Vec<LinkId>,
    leaf_spine_links: Vec<Vec<LinkId>>,
}

impl LeafSpine {
    fn new(leaves: u32, hosts_per_leaf: u32, spines: u32) -> Self {
        let mut graph = NetGraph::new();
        let host_nodes: Vec<NodeId> = (0..leaves * hosts_per_leaf)
            .map(|_| graph.add_node(NodeKind::Host))
            .collect();
        let leaf_nodes: Vec<NodeId> = (0..leaves).map(|_| graph.add_node(NodeKind::Tor)).collect();
        let spine_nodes: Vec<NodeId> = (0..spines)
            .map(|_| graph.add_node(NodeKind::Aggregation))
            .collect();
        let host_links = host_nodes
            .iter()
            .enumerate()
            .map(|(h, &hn)| graph.add_link(hn, leaf_nodes[h / hosts_per_leaf as usize], 1, 10e9))
            .collect();
        let leaf_spine_links = leaf_nodes
            .iter()
            .map(|&ln| {
                spine_nodes
                    .iter()
                    .map(|&sn| graph.add_link(ln, sn, 2, 40e9))
                    .collect()
            })
            .collect();
        LeafSpine {
            leaves,
            hosts_per_leaf,
            spines,
            graph,
            host_nodes,
            host_links,
            leaf_spine_links,
        }
    }

    fn leaf_of(&self, s: ServerId) -> u32 {
        s.get() / self.hosts_per_leaf
    }
}

impl Topology for LeafSpine {
    fn name(&self) -> &str {
        "leaf-spine"
    }

    fn num_servers(&self) -> usize {
        (self.leaves * self.hosts_per_leaf) as usize
    }

    fn num_racks(&self) -> usize {
        self.leaves as usize
    }

    fn rack_of(&self, s: ServerId) -> RackId {
        RackId::new(self.leaf_of(s))
    }

    fn servers_in_rack(&self, r: RackId) -> Range<u32> {
        let start = r.get() * self.hosts_per_leaf;
        start..start + self.hosts_per_leaf
    }

    fn hops(&self, a: ServerId, b: ServerId) -> u32 {
        if a == b {
            0
        } else if self.leaf_of(a) == self.leaf_of(b) {
            2
        } else {
            4
        }
    }

    fn max_level(&self) -> Level {
        Level::AGGREGATION
    }

    fn graph(&self) -> &NetGraph {
        &self.graph
    }

    fn host_node(&self, s: ServerId) -> NodeId {
        self.host_nodes[s.index()]
    }

    // `Topology::link_loads` (the bulk form reports use) keeps its default,
    // which applies this per pair: a pair here has at most 2 + 2·spines
    // shares. Override it only when shares per pair grow with the square
    // of the fan-out, as in the fat-tree — and then it must return the
    // default's result bit for bit.
    fn route_shares(&self, a: ServerId, b: ServerId) -> Vec<RouteShare> {
        if a == b {
            return Vec::new();
        }
        let mut shares = vec![
            RouteShare::new(self.host_links[a.index()], 1.0),
            RouteShare::new(self.host_links[b.index()], 1.0),
        ];
        let (la, lb) = (self.leaf_of(a) as usize, self.leaf_of(b) as usize);
        if la != lb {
            let frac = 1.0 / self.spines as f64;
            for s in 0..self.spines as usize {
                shares.push(RouteShare::new(self.leaf_spine_links[la][s], frac));
                shares.push(RouteShare::new(self.leaf_spine_links[lb][s], frac));
            }
        }
        shares
    }
}

fn main() {
    let topo: Arc<dyn Topology> = Arc::new(LeafSpine::new(8, 8, 4));
    let num_vms = 128;
    let traffic = WorkloadConfig::new(num_vms, 5).generate();

    // A two-level fabric wants a two-level weight vector; everything else
    // of the scenario (placement, policy, timing) is declarative.
    let weights = LinkWeights::new([1.0, std::f64::consts::E]).expect("valid weights");
    let scenario = Scenario::builder()
        .placement(PlacementSpec::Striped)
        .policy(PolicyKind::RoundRobin)
        .engine(EngineSpec::Custom {
            score: ScoreConfig::paper_default(),
            weights,
            precopy: PreCopyConfig::paper_default(),
            background: CbrLoad::IDLE,
        })
        .horizon(1e6)
        .build();

    let mut session = scenario
        .session_with(Arc::clone(&topo), traffic)
        .expect("striped placement fits");
    let initial = session.initial_cost();
    session.run(4);
    let final_cost = session.current_cost();

    println!("leaf-spine fabric: {} leaves x {} hosts", 8, 8);
    println!(
        "cost: {initial:.3e} -> {final_cost:.3e} ({:.1}% reduction)",
        (1.0 - final_cost / initial) * 100.0
    );
    println!("S-CORE ran unmodified on a user-defined Topology implementation.");
}
