//! The full measurement loop of §IV/§V-B: ground-truth traffic is sampled
//! into discrete flows, observed through the windowed rate estimator (as
//! the dom0 flow table would), and the *estimated* rates drive S-CORE's
//! decisions. Decisions under estimates must match decisions under ground
//! truth once the window has converged.

use s_core::core::{
    Allocation, Cluster, CostModel, OutlookContext, RoundRobin, ScoreEngine, ServerSpec, TokenRing,
    VmSpec,
};
use s_core::topology::{CanonicalTree, ServerId, Topology};
use s_core::traffic::{FlowSampler, RateEstimator, WorkloadConfig};
use std::sync::Arc;

#[test]
fn estimated_rates_drive_equivalent_decisions() {
    let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
    let num_vms = 40u32;
    let truth = WorkloadConfig::new(num_vms, 99).generate();

    // Observe one full measurement window of sampled flows.
    let window_s = 60.0;
    let flows = FlowSampler::new(window_s, 5).sample(&truth);
    let mut estimator = RateEstimator::new(num_vms, window_s);
    for f in &flows {
        // Attribute each flow's bytes to its midpoint; the window makes
        // exact timing immaterial.
        estimator.observe(f.src, f.dst, f.bytes, f.start_s + f.duration_s / 2.0);
    }
    let estimated = estimator.snapshot(window_s);

    // Estimated rates match ground truth within sampling error.
    assert_eq!(estimated.num_pairs(), truth.num_pairs());
    assert!(
        (estimated.total_rate() - truth.total_rate()).abs() < 1e-6 * truth.total_rate(),
        "window-aggregate rates must reproduce the ground truth: {} vs {}",
        estimated.total_rate(),
        truth.total_rate()
    );

    // Run S-CORE once against ground truth, once against the estimates.
    let run = |traffic: &s_core::traffic::PairTraffic| {
        let alloc = Allocation::from_fn(num_vms, 16, |vm| ServerId::new(vm.get() % 16));
        let mut cluster = Cluster::new(
            Arc::clone(&topo),
            ServerSpec::paper_default(),
            VmSpec::paper_default(),
            traffic,
            alloc,
        )
        .unwrap();
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), num_vms);
        let model = ring.engine().cost_model().clone();
        let mut ledger = model.ledger(cluster.allocation(), traffic, cluster.topo());
        let ctx = OutlookContext::reactive();
        // Five iterations of |V| holds, each folded into the ledger.
        for _ in 0..5 * num_vms {
            ring.step_ledgered_outlook(&mut cluster, traffic, &mut ledger, &ctx);
        }
        let fresh = model.total_cost(cluster.allocation(), traffic, cluster.topo());
        assert!((ledger.current() - fresh).abs() <= 1e-9 * fresh.max(1.0));
        cluster
    };
    let truth_cluster = run(&truth);
    let est_cluster = run(&estimated);

    // Evaluate BOTH final allocations against the ground truth λ.
    let model = CostModel::paper_default();
    let cost_truth = model.total_cost(truth_cluster.allocation(), &truth, truth_cluster.topo());
    let cost_est = model.total_cost(est_cluster.allocation(), &truth, est_cluster.topo());
    assert!(
        cost_est <= cost_truth * 1.05 + 1e-9,
        "estimate-driven allocation ({cost_est:.3e}) must match truth-driven ({cost_truth:.3e})"
    );
}

#[test]
fn stale_estimates_decay_and_new_traffic_dominates() {
    // A pair that stops talking leaves the communication graph after one
    // window; a new pair shows up immediately.
    let num_vms = 4u32;
    let mut estimator = RateEstimator::new(num_vms, 30.0);
    use s_core::topology::VmId;
    for t in 0..30 {
        estimator.observe(VmId::new(0), VmId::new(1), 10_000.0, t as f64);
    }
    for t in 60..90 {
        estimator.observe(VmId::new(2), VmId::new(3), 10_000.0, t as f64);
    }
    let snap = estimator.snapshot(90.0);
    assert_eq!(
        snap.rate(VmId::new(0), VmId::new(1)),
        0.0,
        "stale pair must lapse"
    );
    assert!(snap.rate(VmId::new(2), VmId::new(3)) > 0.0);
    assert_eq!(snap.peers(VmId::new(0)).len(), 0);
}
