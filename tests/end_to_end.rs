//! Cross-crate integration tests driven through the `s-core` facade.

use rand::rngs::StdRng;
use rand::SeedableRng;
use s_core::baselines::{exhaustive_optimal, random_placement, GaConfig, GeneticOptimizer};
use s_core::core::{
    Allocation, Cluster, CostModel, HighestLevelFirst, OutlookContext, RoundRobin, ScoreEngine,
    ServerSpec, TokenRing, VmSpec,
};
use s_core::topology::{CanonicalTree, CanonicalTreeBuilder, ServerId, Topology, VmId};
use s_core::traffic::{PairTraffic, PairTrafficBuilder, WorkloadConfig};
use std::sync::Arc;

fn small_cluster(seed: u64) -> (Cluster, PairTraffic) {
    let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
    let traffic = WorkloadConfig::new(48, seed).generate();
    let alloc = random_placement(48, 16, 16, &mut StdRng::seed_from_u64(seed));
    let cluster = Cluster::new(
        topo,
        ServerSpec::paper_default(),
        VmSpec::paper_default(),
        &traffic,
        alloc,
    )
    .unwrap();
    (cluster, traffic)
}

/// `sweeps` iterations of `|V|` reactive holds, each hold's Lemma-3
/// delta folded into a ledger that must land on a full Eq.-(2) pass.
/// Returns each sweep's migration count.
fn run_sweeps(
    ring: &mut TokenRing,
    sweeps: usize,
    cluster: &mut Cluster,
    traffic: &PairTraffic,
) -> Vec<usize> {
    let model = ring.engine().cost_model().clone();
    let mut ledger = model.ledger(cluster.allocation(), traffic, cluster.topo());
    let ctx = OutlookContext::reactive();
    let holds = ring.token().len();
    let migrations = (0..sweeps)
        .map(|_| {
            (0..holds)
                .filter(|_| {
                    ring.step_ledgered_outlook(cluster, traffic, &mut ledger, &ctx)
                        .is_some_and(|o| o.decision.migrates())
                })
                .count()
        })
        .collect();
    let fresh = model.total_cost(cluster.allocation(), traffic, cluster.topo());
    let ledgered = ledger.current();
    assert!(
        (ledgered - fresh).abs() <= 1e-9 * fresh.max(1.0),
        "ledger {ledgered} vs full pass {fresh}"
    );
    migrations
}

#[test]
fn facade_pipeline_reduces_cost_and_respects_invariants() {
    let (mut cluster, traffic) = small_cluster(1);
    let model = CostModel::paper_default();
    let initial = model.total_cost(cluster.allocation(), &traffic, cluster.topo());

    let mut ring = TokenRing::new(ScoreEngine::paper_default(), HighestLevelFirst::new(), 48);
    let migrations = run_sweeps(&mut ring, 6, &mut cluster, &traffic);
    let final_cost = model.total_cost(cluster.allocation(), &traffic, cluster.topo());

    assert!(
        final_cost < initial,
        "S-CORE must improve a random placement"
    );
    assert_eq!(migrations[5], 0, "must converge");
    assert!(cluster.allocation().is_consistent());
    for s in cluster.topo().servers() {
        assert!(cluster.allocation().occupancy(s) <= 16);
    }
}

#[test]
fn ga_bound_dominates_distributed_result_on_average() {
    // The GA sees the whole instance; S-CORE only local info. Averaged
    // over seeds, the GA must be at least as good.
    let model = CostModel::paper_default();
    let mut ga_total = 0.0;
    let mut score_total = 0.0;
    for seed in 0..6 {
        let (mut cluster, traffic) = small_cluster(seed);
        let ga = GeneticOptimizer::new(
            cluster.topo(),
            &traffic,
            model.clone(),
            16,
            GaConfig::fast(),
        )
        .run();
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 48);
        run_sweeps(&mut ring, 6, &mut cluster, &traffic);
        ga_total += ga.best_cost;
        score_total += model.total_cost(cluster.allocation(), &traffic, cluster.topo());
    }
    assert!(
        ga_total <= score_total * 1.1,
        "GA mean {ga_total} should not lose badly to S-CORE mean {score_total}"
    );
}

#[test]
fn exhaustive_bounds_ga_and_score_on_tiny_instance() {
    let topo = CanonicalTreeBuilder::new()
        .racks(2)
        .hosts_per_rack(2)
        .racks_per_agg(2)
        .cores(1)
        .build()
        .unwrap();
    let mut b = PairTrafficBuilder::new(6);
    b.add(VmId::new(0), VmId::new(3), 100.0);
    b.add(VmId::new(1), VmId::new(4), 80.0);
    b.add(VmId::new(2), VmId::new(5), 60.0);
    b.add(VmId::new(0), VmId::new(1), 5.0);
    let traffic = b.build();
    let model = CostModel::paper_default();

    let exact = exhaustive_optimal(&topo, &traffic, &model, 3);
    let ga = GeneticOptimizer::new(&topo, &traffic, model.clone(), 3, GaConfig::fast()).run();
    assert!(
        ga.best_cost + 1e-9 >= exact.best_cost,
        "exhaustive is a lower bound"
    );

    let alloc = Allocation::from_fn(6, 4, |vm| ServerId::new(vm.get() % 4));
    let topo_arc: Arc<dyn Topology> = Arc::new(topo);
    let spec = ServerSpec {
        vm_slots: 3,
        ..ServerSpec::paper_default()
    };
    let mut cluster =
        Cluster::new(topo_arc, spec, VmSpec::paper_default(), &traffic, alloc).unwrap();
    let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 6);
    run_sweeps(&mut ring, 8, &mut cluster, &traffic);
    let score_cost = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
    assert!(
        score_cost + 1e-9 >= exact.best_cost,
        "S-CORE cannot beat the true optimum"
    );
}

#[test]
fn runs_are_deterministic_across_invocations() {
    let run = |seed| {
        let (mut cluster, traffic) = small_cluster(seed);
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), HighestLevelFirst::new(), 48);
        run_sweeps(&mut ring, 5, &mut cluster, &traffic);
        CostModel::paper_default().total_cost(cluster.allocation(), &traffic, cluster.topo())
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4));
}
