//! Property-based tests for the S-CORE core algorithm.
//!
//! The central invariant is Lemma 3: the locally-computable migration delta
//! must equal the difference of full Eq.-(2) recomputations, on any
//! topology, traffic pattern and allocation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_core::{
    Allocation, Cluster, CostModel, HighestLevelFirst, KernelScratch, LocalView, MigrationDecision,
    RoundRobin, ScoreConfig, ScoreEngine, ServerSpec, Token, TokenRing, VmSpec,
};
use score_topology::{CanonicalTree, FatTree, Level, ServerId, Topology, VmId};
use score_traffic::{PairTraffic, WorkloadConfig};
use std::sync::Arc;

fn random_traffic(num_vms: u32, seed: u64) -> PairTraffic {
    WorkloadConfig::new(num_vms, seed).generate()
}

/// One reactive hold for `u`: observe, decide, migrate if warranted.
fn hold(
    engine: &ScoreEngine,
    u: VmId,
    cluster: &mut Cluster,
    traffic: &PairTraffic,
) -> MigrationDecision {
    let view = LocalView::observe(u, cluster.allocation(), traffic, cluster.topo());
    let decision = engine.decide(&view, None, cluster, &mut KernelScratch::new());
    if let Some(target) = decision.target {
        cluster
            .migrate(u, target, engine.config().bandwidth_threshold)
            .expect("decide() validated admission for the chosen target");
    }
    decision
}

fn random_allocation(num_vms: u32, num_servers: u32, seed: u64) -> Allocation {
    let mut rng = StdRng::seed_from_u64(seed);
    Allocation::from_fn(num_vms, num_servers, |_| {
        ServerId::new(rng.gen_range(0..num_servers))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lemma3_equals_full_recomputation_canonical(
        seed in 0u64..500, vm in 0u32..24, target in 0u32..16,
    ) {
        let topo = CanonicalTree::small();
        let traffic = random_traffic(24, seed);
        let mut alloc = random_allocation(24, 16, seed ^ 0xabcd);
        let model = CostModel::paper_default();
        let u = VmId::new(vm);
        let t = ServerId::new(target);
        let delta = model.migration_delta(u, t, &alloc, &traffic, &topo);
        let before = model.total_cost(&alloc, &traffic, &topo);
        alloc.move_vm(u, t);
        let after = model.total_cost(&alloc, &traffic, &topo);
        prop_assert!((delta - (before - after)).abs() < 1e-6 * before.abs().max(1.0),
            "delta {} vs recomputed {}", delta, before - after);
    }

    #[test]
    fn lemma3_equals_full_recomputation_fattree(
        seed in 0u64..500, vm in 0u32..24, target in 0u32..16,
    ) {
        let topo = FatTree::small();
        let traffic = random_traffic(24, seed);
        let mut alloc = random_allocation(24, 16, seed ^ 0x1234);
        let model = CostModel::paper_default();
        let u = VmId::new(vm);
        let t = ServerId::new(target);
        let delta = model.migration_delta(u, t, &alloc, &traffic, &topo);
        let before = model.total_cost(&alloc, &traffic, &topo);
        alloc.move_vm(u, t);
        let after = model.total_cost(&alloc, &traffic, &topo);
        prop_assert!((delta - (before - after)).abs() < 1e-6 * before.abs().max(1.0));
    }

    #[test]
    fn local_view_delta_matches_cost_model(seed in 0u64..300, vm in 0u32..24, target in 0u32..16) {
        let topo = CanonicalTree::small();
        let traffic = random_traffic(24, seed);
        let alloc = random_allocation(24, 16, seed ^ 0x77);
        let model = CostModel::paper_default();
        let u = VmId::new(vm);
        let t = ServerId::new(target);
        let view = LocalView::observe(u, &alloc, &traffic, &topo);
        let local = view.delta_for(t, model.weights(), &topo);
        let global = model.migration_delta(u, t, &alloc, &traffic, &topo);
        // Tolerance is relative to the traffic magnitude: the bucketed
        // delta_for evaluates the same sum in decomposed order, so the two
        // agree to FP rounding of the summed terms, not absolutely.
        prop_assert!((local - global).abs() < 1e-9 * view.total_rate().max(1.0),
            "local {} vs global {}", local, global);
    }

    #[test]
    fn total_cost_is_half_vm_cost_sum(seed in 0u64..300) {
        let topo = CanonicalTree::small();
        let traffic = random_traffic(20, seed);
        let alloc = random_allocation(20, 16, seed ^ 0x99);
        let model = CostModel::paper_default();
        let total = model.total_cost(&alloc, &traffic, &topo);
        let sum: f64 = (0..20).map(|v| model.vm_cost(VmId::new(v), &alloc, &traffic, &topo)).sum();
        prop_assert!((total - sum / 2.0).abs() < 1e-6 * total.max(1.0));
    }

    #[test]
    fn token_roundtrip(ids in prop::collection::btree_set(0u32..10_000, 0..128),
                       levels in prop::collection::vec(0u8..4, 0..128)) {
        let mut token = Token::for_vms(ids.iter().copied().map(VmId::new));
        for (i, &id) in ids.iter().enumerate() {
            if let Some(&l) = levels.get(i) {
                token.set_level(VmId::new(id), Level::new(l));
            }
        }
        let decoded = Token::decode(&token.encode()).unwrap();
        prop_assert_eq!(decoded, token);
    }

    #[test]
    fn engine_never_increases_cost(seed in 0u64..200) {
        let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
        let traffic = random_traffic(32, seed);
        let alloc = Allocation::from_fn(32, 16, |vm| ServerId::new(vm.get() % 16));
        let mut cluster = Cluster::new(
            Arc::clone(&topo), ServerSpec::paper_default(), VmSpec::paper_default(),
            &traffic, alloc,
        ).unwrap();
        let engine = ScoreEngine::paper_default();
        let model = engine.cost_model().clone();
        let mut cost = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
        for v in 0..32 {
            let decision = hold(&engine, VmId::new(v), &mut cluster, &traffic);
            let now = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
            prop_assert!(now <= cost + 1e-9, "step for vm{} increased cost", v);
            if decision.migrates() {
                prop_assert!(decision.gain > 0.0);
            }
            cost = now;
        }
    }

    #[test]
    fn engine_respects_migration_cost(seed in 0u64..100, cm in 0.0f64..1e9) {
        let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
        let traffic = random_traffic(24, seed);
        let alloc = Allocation::from_fn(24, 16, |vm| ServerId::new(vm.get() % 16));
        let cluster = Cluster::new(
            Arc::clone(&topo), ServerSpec::paper_default(), VmSpec::paper_default(),
            &traffic, alloc,
        ).unwrap();
        let engine = ScoreEngine::new(
            CostModel::paper_default(),
            ScoreConfig::paper_default().with_migration_cost(cm),
        );
        for v in 0..24 {
            let view = LocalView::observe(VmId::new(v), cluster.allocation(), &traffic, cluster.topo());
            let d = engine.decide(&view, None, &cluster, &mut KernelScratch::new());
            if d.migrates() {
                prop_assert!(d.gain > cm, "gain {} must exceed cm {}", d.gain, cm);
            }
        }
    }

    #[test]
    fn ring_converges_and_respects_capacity(seed in 0u64..100, slots in 2u32..6) {
        let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
        let traffic = random_traffic(32, seed);
        let alloc = Allocation::from_fn(32, 16, |vm| ServerId::new(vm.get() % 16));
        let spec = ServerSpec { vm_slots: slots, ..ServerSpec::paper_default() };
        let mut cluster = Cluster::new(
            Arc::clone(&topo), spec, VmSpec::paper_default(), &traffic, alloc,
        ).unwrap();
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 32);
        let stats = ring.run_iterations(6, &mut cluster, &traffic);
        // Convergence: the last iteration performs no migrations (cm = 0
        // requires strictly positive gain, and gains strictly decrease the
        // cost which is bounded below).
        prop_assert_eq!(stats[5].migrations, 0, "should converge within 6 sweeps");
        for s in 0..16u32 {
            prop_assert!(cluster.allocation().occupancy(ServerId::new(s)) <= slots as usize);
        }
        prop_assert!(cluster.allocation().is_consistent());
    }

}

/// Both policies apply the same Theorem-1 condition, but visit order
/// changes which local optimum a single run lands in, so a per-seed bound
/// would be noise. Averaged over seeds, HLF must be competitive with RR
/// (the paper, §VI-B, finds it strictly better on its large instances).
#[test]
fn hlf_competitive_with_rr_on_average() {
    let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
    let model = CostModel::paper_default();
    let mut sum_rr = 0.0;
    let mut sum_hlf = 0.0;
    for seed in 0..24u64 {
        let traffic = random_traffic(48, seed);
        let alloc = Allocation::from_fn(48, 16, |vm| ServerId::new(vm.get() % 16));
        let make_cluster = |a: Allocation| {
            Cluster::new(
                Arc::clone(&topo),
                ServerSpec::paper_default(),
                VmSpec::paper_default(),
                &traffic,
                a,
            )
            .unwrap()
        };

        let mut c_rr = make_cluster(alloc.clone());
        let mut ring_rr = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 48);
        ring_rr.run_iterations(6, &mut c_rr, &traffic);
        sum_rr += model.total_cost(c_rr.allocation(), &traffic, c_rr.topo());

        let mut c_hlf = make_cluster(alloc);
        let mut ring_hlf =
            TokenRing::new(ScoreEngine::paper_default(), HighestLevelFirst::new(), 48);
        ring_hlf.run_iterations(6, &mut c_hlf, &traffic);
        sum_hlf += model.total_cost(c_hlf.allocation(), &traffic, c_hlf.topo());
    }
    assert!(
        sum_hlf <= sum_rr * 1.3,
        "mean HLF cost {} should be competitive with mean RR cost {}",
        sum_hlf / 24.0,
        sum_rr / 24.0
    );
}
