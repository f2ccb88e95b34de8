//! Core-layer congestion relief: compare link-utilization CDFs before and
//! after S-CORE, against the Remedy baseline (the Fig. 4a scenario).
//!
//! ```sh
//! cargo run --example hotspot_relief
//! ```

use s_core::baselines::{Remedy, RemedyConfig};
use s_core::core::LinkLoadMap;
use s_core::sim::{PolicyKind, Scenario};
use s_core::topology::Level;
use s_core::traffic::TrafficIntensity;

fn describe(label: &str, cluster: &s_core::core::Cluster, traffic: &s_core::traffic::PairTraffic) {
    let map = LinkLoadMap::compute(cluster.allocation(), traffic, cluster.topo());
    let mut row = format!("{label:<12}");
    for (name, level) in [("core", Level::CORE), ("agg", Level::AGGREGATION)] {
        let cdf = map.utilization_cdf(level);
        let mean = cdf.iter().sum::<f64>() / cdf.len() as f64;
        let p95 = cdf[((cdf.len() - 1) as f64 * 0.95) as usize];
        row.push_str(&format!("  {name}: mean {mean:>7.4} p95 {p95:>7.4}"));
    }
    let total_core = map.total_load_at_level(Level::CORE) / 1e9;
    row.push_str(&format!("  core load {total_core:>6.2} Gb/s"));
    println!("{row}");
}

fn main() {
    let mut scenario = Scenario::small_canonical(TrafficIntensity::Sparse, 23);
    scenario.policy = PolicyKind::HighestLevelFirst;
    scenario.timing.t_end_s = 500.0;

    let session0 = scenario.session().expect("preset scenario is feasible");
    println!("link utilization before/after (sparse TM, random initial placement):\n");
    describe("initial", session0.cluster(), session0.traffic());

    // S-CORE localizes traffic to the cheap layers.
    let mut score_session = scenario.session().expect("preset scenario is feasible");
    score_session.run_to_horizon();
    let report = score_session.report();
    describe("s-core", score_session.cluster(), score_session.traffic());

    // Remedy balances utilization instead, on its own copy of the
    // initial cluster.
    let mut remedy_cluster = session0.cluster().clone();
    let result =
        Remedy::new(RemedyConfig::paper_default()).run(&mut remedy_cluster, session0.traffic());
    describe("remedy", &remedy_cluster, session0.traffic());

    println!(
        "\nS-CORE migrated {} VMs and cut communication cost by {:.1}%;",
        report.migrations.len(),
        (1.0 - report.final_cost / report.initial_cost) * 100.0
    );
    println!(
        "Remedy performed {} migrations aimed at its hottest links only.",
        result.steps.len()
    );
    println!("S-CORE empties the expensive layers; Remedy merely flattens them.");
}
