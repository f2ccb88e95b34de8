//! Property-based tests for the link-load accounting: traffic placed on
//! the fabric is conserved, and per-link attributions are coherent.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_core::{Allocation, LinkLoadMap};
use score_topology::{
    CanonicalTree, FatTree, FatTreeBuilder, Level, LinkId, NetGraph, NodeId, RackId, RouteShare,
    ServerId, StarTopology, Topology, VmId,
};
use score_traffic::{PairTraffic, WorkloadConfig};
use std::ops::Range;

fn world(seed: u64) -> (PairTraffic, Allocation) {
    let traffic = WorkloadConfig::new(24, seed).generate();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
    let alloc = Allocation::from_fn(24, 16, |_| ServerId::new(rng.gen_range(0..16)));
    (traffic, alloc)
}

/// Sum of a pair's inter-host rates: each communicating pair whose
/// endpoints sit on different servers loads both endpoints' host links
/// with its full rate.
fn expected_host_layer_load(traffic: &PairTraffic, alloc: &Allocation) -> f64 {
    traffic
        .pairs()
        .iter()
        .filter(|&&(u, v, _)| alloc.server_of(u) != alloc.server_of(v))
        .map(|&(_, _, r)| 2.0 * r)
        .sum()
}

/// A fat-tree behind a fabric that implements only the required
/// `Topology` methods, so `link_loads` is the trait's default.
#[derive(Debug)]
struct DefaultOnly(FatTree);

impl Topology for DefaultOnly {
    fn name(&self) -> &str {
        "default-only"
    }
    fn num_servers(&self) -> usize {
        self.0.num_servers()
    }
    fn num_racks(&self) -> usize {
        self.0.num_racks()
    }
    fn rack_of(&self, s: ServerId) -> RackId {
        self.0.rack_of(s)
    }
    fn servers_in_rack(&self, r: RackId) -> Range<u32> {
        self.0.servers_in_rack(r)
    }
    fn hops(&self, a: ServerId, b: ServerId) -> u32 {
        self.0.hops(a, b)
    }
    fn max_level(&self) -> Level {
        self.0.max_level()
    }
    fn graph(&self) -> &NetGraph {
        self.0.graph()
    }
    fn host_node(&self, s: ServerId) -> NodeId {
        self.0.host_node(s)
    }
    fn route_shares(&self, a: ServerId, b: ServerId) -> Vec<RouteShare> {
        self.0.route_shares(a, b)
    }
}

fn fat_tree(k: u32) -> FatTree {
    FatTreeBuilder::new().k(k).build().unwrap()
}

/// The definition `LinkLoadMap::compute` must reproduce: every live pair
/// in canonical order, every one of its route shares in turn.
fn per_pair_loads(alloc: &Allocation, traffic: &PairTraffic, topo: &dyn Topology) -> Vec<f64> {
    let mut load = vec![0.0; topo.graph().num_links()];
    for (u, v, rate) in traffic.pairs() {
        for share in topo.route_shares(alloc.server_of(u), alloc.server_of(v)) {
            load[share.link.index()] += rate * share.fraction;
        }
    }
    load
}

/// 40 VMs on `topo`: VMs 0–4 pinned so that 0–1 are collocated, 0–2
/// share an edge, 0–3 a pod and 0–4 cross the core (where the fabric is
/// big enough to tell these apart), the rest placed at random. The TM is
/// a generated one with every third pair removed, the four pinned pairs
/// inserted and a `scale_all` left pending on top.
fn churned_world(topo: &dyn Topology, seed: u64, factor: f64) -> (PairTraffic, Allocation) {
    let n = topo.num_servers() as u32;
    let per_rack = topo.servers_in_rack(RackId::new(0)).len() as u32;
    let pinned = [0, 0, 1.min(n - 1), per_rack.min(n - 1), n - 1];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfab);
    let alloc = Allocation::from_fn(40, n, |vm| {
        ServerId::new(match pinned.get(vm.index()) {
            Some(&s) => s,
            None => rng.gen_range(0..n),
        })
    });
    let mut traffic = WorkloadConfig::new(40, seed).generate();
    let mut updates: Vec<(VmId, VmId, f64)> = traffic
        .pairs()
        .into_iter()
        .step_by(3)
        .map(|(u, v, _)| (u, v, 0.0))
        .collect();
    updates.extend((1..5).map(|v| (VmId::new(0), VmId::new(v), 1e6 * f64::from(v) + 0.1)));
    traffic.apply_updates(&updates);
    traffic.scale_all(factor);
    (traffic, alloc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compute_is_bitwise_the_per_pair_accumulation(
        seed in 0u64..500,
        fabric in 0usize..7,
        factor in 0.05f64..20.0,
    ) {
        let topo: Box<dyn Topology> = match fabric {
            0..=3 => Box::new(fat_tree(2 + 2 * fabric as u32)),
            4 => Box::new(CanonicalTree::small()),
            5 => Box::new(StarTopology::new(12, 1e9)),
            _ => Box::new(DefaultOnly(fat_tree(4))),
        };
        let (traffic, alloc) = churned_world(&*topo, seed, factor);
        if topo.num_servers() >= 16 {
            for (v, level) in [Level::ZERO, Level::RACK, Level::AGGREGATION, Level::CORE]
                .into_iter()
                .enumerate()
            {
                let peer = VmId::new(v as u32 + 1);
                prop_assert!(traffic.rate(VmId::new(0), peer) > 0.0);
                prop_assert_eq!(
                    topo.level(alloc.server_of(VmId::new(0)), alloc.server_of(peer)),
                    level
                );
            }
        }
        let map = LinkLoadMap::compute(&alloc, &traffic, &*topo);
        let expected = per_pair_loads(&alloc, &traffic, &*topo);
        prop_assert_eq!(map.num_links(), expected.len());
        for (i, want) in expected.iter().enumerate() {
            prop_assert_eq!(
                map.load_bps(LinkId::new(i as u32)).to_bits(),
                want.to_bits(),
                "link {} on {}", i, topo.name()
            );
        }
    }

    #[test]
    fn host_layer_load_is_conserved_canonical(seed in 0u64..300) {
        let topo = CanonicalTree::small();
        let (traffic, alloc) = world(seed);
        let map = LinkLoadMap::compute(&alloc, &traffic, &topo);
        let got = map.total_load_at_level(Level::RACK);
        let expected = expected_host_layer_load(&traffic, &alloc);
        prop_assert!((got - expected).abs() < 1e-6 * expected.max(1.0),
            "host layer {} vs expected {}", got, expected);
    }

    #[test]
    fn host_layer_load_is_conserved_fattree(seed in 0u64..300) {
        let topo = FatTree::small();
        let (traffic, alloc) = world(seed);
        let map = LinkLoadMap::compute(&alloc, &traffic, &topo);
        let got = map.total_load_at_level(Level::RACK);
        let expected = expected_host_layer_load(&traffic, &alloc);
        prop_assert!((got - expected).abs() < 1e-6 * expected.max(1.0));
    }

    #[test]
    fn ecmp_split_conserves_upper_layer_mass(seed in 0u64..300) {
        // Core-layer mass equals 2x the rate of core-level pairs,
        // regardless of how ECMP spreads it across core links.
        let topo = FatTree::small();
        let (traffic, alloc) = world(seed);
        let map = LinkLoadMap::compute(&alloc, &traffic, &topo);
        let expected: f64 = traffic
            .pairs()
            .iter()
            .filter(|&&(u, v, _)| {
                topo.level(alloc.server_of(u), alloc.server_of(v)) == Level::CORE
            })
            .map(|&(_, _, r)| 2.0 * r)
            .sum();
        let got = map.total_load_at_level(Level::CORE);
        prop_assert!((got - expected).abs() < 1e-6 * expected.max(1.0));
    }

    #[test]
    fn contributors_attribute_twice_the_link_load(seed in 0u64..200) {
        let topo = CanonicalTree::small();
        let (traffic, alloc) = world(seed);
        let map = LinkLoadMap::compute(&alloc, &traffic, &topo);
        if let Some((hot, _)) = map.max_utilization(Level::RACK) {
            let contributed: f64 = LinkLoadMap::contributors(hot, &alloc, &traffic, &topo)
                .iter()
                .map(|&(_, c)| c)
                .sum();
            // Each pair charges both endpoints, so attribution doubles the
            // link's carried load.
            prop_assert!((contributed - 2.0 * map.load_bps(hot)).abs()
                < 1e-6 * contributed.max(1.0));
        }
    }

    #[test]
    fn collocating_everything_clears_the_fabric(seed in 0u64..100) {
        let topo = CanonicalTree::small();
        let traffic = WorkloadConfig::new(16, seed).generate();
        let alloc = Allocation::from_fn(16, 16, |_| ServerId::new(0));
        let map = LinkLoadMap::compute(&alloc, &traffic, &topo);
        for (_, load, _) in map.iter() {
            prop_assert_eq!(load, 0.0);
        }
        let _ = VmId::new(0);
    }
}
