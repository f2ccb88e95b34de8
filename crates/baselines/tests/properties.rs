//! Property-based tests for the baselines: GA feasibility/determinism and
//! the NP-reduction equivalence on random instances.

use proptest::prelude::*;
use rand::SeedableRng;
use score_baselines::{
    min_cost_brute_force, min_cut_brute_force, reduce, respects_slots, GaConfig, GeneticOptimizer,
    GraphPartitionInstance, Remedy, RemedyConfig,
};
use score_core::{Cluster, CostModel, ServerSpec, VmSpec};
use score_topology::CanonicalTree;
use score_traffic::WorkloadConfig;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ga_always_feasible_and_deterministic(seed in 0u64..50, slots in 2u32..6) {
        let topo = CanonicalTree::small();
        let traffic = WorkloadConfig::new(32, seed).generate();
        let mut config = GaConfig::fast();
        config.max_generations = 30;
        config.seed = seed;
        let run = || {
            GeneticOptimizer::new(&topo, &traffic, CostModel::paper_default(), slots, config.clone())
                .run()
        };
        let a = run();
        prop_assert!(respects_slots(&a.best, slots));
        prop_assert!(a.best.is_consistent());
        prop_assert!(a.history.windows(2).all(|w| w[1] <= w[0] + 1e-9));
        let b = run();
        prop_assert_eq!(a.best, b.best);
    }

    #[test]
    fn reduction_equivalence_on_random_instances(
        seed in 0u64..500,
        vertices in 4u32..7,
        extra_edges in 0usize..6,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // A random connected-ish instance: a path plus random chords.
        let mut edges: Vec<(u32, u32, f64)> =
            (0..vertices - 1).map(|v| (v, v + 1, rng.gen_range(1..10) as f64)).collect();
        for _ in 0..extra_edges {
            let a = rng.gen_range(0..vertices);
            let b = rng.gen_range(0..vertices);
            if a != b && !edges.iter().any(|&(x, y, _)| (x, y) == (a.min(b), a.max(b))) {
                edges.push((a.min(b), a.max(b), rng.gen_range(1..10) as f64));
            }
        }
        let gp = GraphPartitionInstance { vertices, edges, capacity: 3, goal: 5.0 };
        let ovma = reduce(&gp);
        let min_cut = min_cut_brute_force(&gp);
        let min_cost = min_cost_brute_force(&ovma);
        prop_assert!((min_cost - 2.0 * min_cut).abs() < 1e-9,
            "cost {} vs 2 x cut {}", min_cost, min_cut);
    }

    #[test]
    fn remedy_never_worsens_watched_max_util(seed in 0u64..30) {
        use score_core::LinkLoadMap;
        use score_topology::Level;
        let topo: Arc<dyn score_topology::Topology> = Arc::new(CanonicalTree::small());
        let traffic = WorkloadConfig::new(40, seed).generate();
        let alloc = score_baselines::random_placement(
            40, 16, 16, &mut rand::rngs::StdRng::seed_from_u64(seed),
        );
        let mut cluster = Cluster::new(
            Arc::clone(&topo),
            ServerSpec::paper_default(),
            VmSpec::paper_default(),
            &traffic,
            alloc,
        ).unwrap();
        let before = LinkLoadMap::compute(cluster.allocation(), &traffic.pairs(), cluster.topo())
            .max_utilization(Level::AGGREGATION).map_or(0.0, |(_, u)| u);
        let result = Remedy::new(RemedyConfig::paper_default()).run(&mut cluster, &traffic);
        let after = LinkLoadMap::compute(cluster.allocation(), &traffic.pairs(), cluster.topo())
            .max_utilization(Level::AGGREGATION).map_or(0.0, |(_, u)| u);
        prop_assert!(after <= before + 1e-9);
        for w in result.steps.windows(2) {
            prop_assert!(w[1].max_util_before <= w[0].max_util_before + 1e-9,
                "Remedy's watched max-util must not regress between steps");
        }
    }
}

/// `rand` is a dev-dependency here; keep the import used even when
/// proptest shrinks aggressively.
#[test]
fn fixture_sanity() {
    let topo = CanonicalTree::small();
    assert_eq!(score_topology::Topology::num_servers(&topo), 16);
}
