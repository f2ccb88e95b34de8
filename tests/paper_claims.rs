//! The paper's headline claims, asserted as integration tests.
//!
//! Each test names the claim and the paper section it comes from. These are
//! shape assertions (who wins, roughly by how much, where trends point),
//! not absolute-number matches — our substrate is a simulator, not the
//! authors' testbed.

use s_core::baselines::{verify_reduction, GraphPartitionInstance, Remedy, RemedyConfig};
use s_core::core::{CostModel, LinkLoadMap};
use s_core::sim::{PolicyKind, Scenario};
use s_core::topology::Level;
use s_core::traffic::{CbrLoad, TrafficIntensity};
use s_core::xen::{load_sweep, migrated_bytes_histogram, PreCopyModel};

/// §VI-B / Fig. 2: "the ratio of migrated VMs plummets after the second
/// token-passing iteration".
#[test]
fn convergence_within_two_iterations() {
    let mut scenario = Scenario::small_canonical(TrafficIntensity::Sparse, 7);
    scenario.policy = PolicyKind::RoundRobin;
    let topo = scenario
        .topology
        .build()
        .expect("preset dimensions are valid");
    let num_vms = scenario.workload.num_vms(topo.as_ref()) as f64;
    scenario.timing.t_end_s = 6.5 * num_vms * 0.06;
    scenario.timing.token_hold_s = 0.05;
    scenario.timing.token_pass_s = 0.01;
    let mut session = scenario.session().expect("preset scenario is feasible");
    session.run_to_horizon();
    let report = session.report();
    let ratios: Vec<f64> = report.migration_ratios.iter().take(5).copied().collect();
    assert!(
        ratios.len() >= 4,
        "need at least 4 iterations, got {}",
        ratios.len()
    );
    assert!(
        ratios[0] > 0.1,
        "first iteration migrates substantially: {ratios:?}"
    );
    assert!(
        ratios[2] < ratios[0] * 0.25,
        "third iteration must be a small fraction of the first: {ratios:?}"
    );
}

/// §VI-B / Fig. 3: S-CORE reaches a large share of the GA-optimal
/// reduction (72–87% at paper scale) and HLF converges at least as close
/// as RR.
#[test]
fn score_captures_most_of_the_optimal_reduction() {
    let (cells, _) = score_experiments_like_fig3();
    for (name, reduction) in &cells {
        assert!(
            *reduction > 0.7,
            "{name}: captured only {:.0}% of the GA-optimal reduction",
            reduction * 100.0
        );
    }
}

fn score_experiments_like_fig3() -> (Vec<(String, f64)>, ()) {
    use s_core::baselines::{GaConfig, GeneticOptimizer};
    let base = Scenario::small_canonical(TrafficIntensity::Sparse, 11);
    let ga_session = base.session().expect("preset scenario is feasible");
    let ga = GeneticOptimizer::new(
        ga_session.topo().as_ref(),
        ga_session.traffic(),
        CostModel::paper_default(),
        16,
        GaConfig::fast(),
    )
    .run();
    let mut cells = Vec::new();
    for policy in PolicyKind::paper_policies() {
        let mut scenario = base.clone();
        scenario.policy = policy;
        scenario.timing.t_end_s = 500.0;
        let mut session = scenario.session().expect("preset scenario is feasible");
        session.run_to_horizon();
        let report = session.report();
        let reduction = (report.initial_cost - report.final_cost)
            / (report.initial_cost - ga.best_cost).max(f64::MIN_POSITIVE);
        cells.push((policy.name().to_string(), reduction));
    }
    (cells, ())
}

/// §VI-B / Fig. 4: on a sparse TM, S-CORE reduces communication cost far
/// more than Remedy (paper: ~40% vs ~10%) and relieves core links more.
#[test]
fn score_outperforms_remedy() {
    let mut scenario = Scenario::small_canonical(TrafficIntensity::Sparse, 23);
    scenario.policy = PolicyKind::HighestLevelFirst;
    scenario.timing.t_end_s = 500.0;

    let mut score_session = scenario.session().expect("preset scenario is feasible");
    let initial = score_session.initial_cost();
    // Remedy starts from a copy of the same initial cluster.
    let mut remedy_cluster = score_session.cluster().clone();
    score_session.run_to_horizon();
    let report = score_session.report();
    let score_reduction = 1.0 - report.final_cost / initial;

    let traffic = score_session.traffic();
    Remedy::new(RemedyConfig::paper_default()).run(&mut remedy_cluster, traffic);
    let remedy_cost = score_session.cost_model().total_cost(
        remedy_cluster.allocation(),
        traffic,
        remedy_cluster.topo(),
    );
    let remedy_reduction = 1.0 - remedy_cost / initial;

    assert!(
        score_reduction > remedy_reduction + 0.1,
        "S-CORE ({:.0}%) must clearly beat Remedy ({:.0}%)",
        score_reduction * 100.0,
        remedy_reduction * 100.0
    );

    // Core-layer relief (Fig. 4a): S-CORE shifts the core CDF further left.
    let score_core = LinkLoadMap::compute(
        score_session.cluster().allocation(),
        score_session.traffic(),
        score_session.cluster().topo(),
    )
    .utilization_cdf(Level::CORE);
    let remedy_core =
        LinkLoadMap::compute(remedy_cluster.allocation(), traffic, remedy_cluster.topo())
            .utilization_cdf(Level::CORE);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(mean(&score_core) < mean(&remedy_core));
}

/// §VI-C / Fig. 5b: migrated bytes ≈ 127 ± 11 MB for 196 MB VMs.
#[test]
fn migrated_bytes_distribution_matches() {
    let (_, stats) = migrated_bytes_histogram(&PreCopyModel::default(), 300, 5.0, 99);
    assert!((stats.mean - 127.0).abs() < 8.0, "mean {:.1}", stats.mean);
    assert!((stats.std - 11.0).abs() < 7.0, "std {:.1}", stats.std);
}

/// §VI-C / Fig. 5c+5d: migration time 2.94 s → 9.34 s sub-linearly;
/// downtime an order of magnitude smaller, below 50 ms throughout.
#[test]
fn migration_time_and_downtime_anchors() {
    let sweep = load_sweep(&PreCopyModel::default(), 80, 5);
    assert!((sweep[0].time.mean - 2.94).abs() < 0.5);
    assert!((sweep[10].time.mean - 9.34).abs() < 1.6);
    for p in &sweep {
        assert!(p.downtime.max < 0.050);
        assert!(
            p.downtime.mean < p.time.mean / 10.0,
            "downtime is an order smaller"
        );
    }
    // Sub-linear: the second half of the sweep grows slower than 1:1 with
    // the first jump.
    let first_jump = sweep[1].time.mean - sweep[0].time.mean;
    let mid_jump = sweep[6].time.mean - sweep[5].time.mean;
    assert!(mid_jump < first_jump * 1.5);
    let _ = CbrLoad::paper_sweep();
}

/// Appendix: the GP → OVMA reduction is cost-equivalent (NP-completeness
/// construction), executable on concrete instances.
#[test]
fn np_reduction_equivalence() {
    let gp = GraphPartitionInstance {
        vertices: 6,
        edges: vec![
            (0, 1, 4.0),
            (1, 2, 1.0),
            (2, 3, 4.0),
            (3, 4, 1.0),
            (4, 5, 4.0),
            (5, 0, 1.0),
        ],
        capacity: 3,
        goal: 3.0,
    };
    assert!(verify_reduction(&gp));
}

/// §V-B2: the token wire format is 5 bytes per VM — "the size of the
/// message is of the order of the number of VMs in the network".
#[test]
fn token_size_is_linear_in_population() {
    use s_core::core::Token;
    use s_core::topology::VmId;
    for n in [10u32, 1000, 100_000] {
        let token = Token::for_vms((0..n).map(VmId::new));
        assert_eq!(token.encoded_len(), n as usize * 5);
    }
}
