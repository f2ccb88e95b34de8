//! Fig. 4 — S-CORE vs Remedy on a sparse TM ("under which Remedy achieves
//! best results").
//!
//! * Fig. 4a: CDFs of core and aggregation link utilization at stable
//!   state — S-CORE shifts both sharply left; Remedy only marginally.
//! * Fig. 4b: communication-cost ratio over time — S-CORE improves cost by
//!   ~40%, Remedy by ~10%.
//!
//! For fairness the paper drives S-CORE's migration cost `c_m` from
//! Remedy's own pre-copy byte model; we translate those bytes into cost
//! units by charging the migration's bytes, moved once across rack level,
//! amortised over the measurement window.

use score_baselines::{Remedy, RemedyConfig};
use score_core::{CostModel, LinkLoadMap};
use score_sim::{PolicyKind, Scenario, UtilizationSnapshot};
use score_topology::Level;
use score_traffic::TrafficIntensity;
use std::fmt::Write as _;

use crate::{write_report, write_result};

/// Experiment outcome.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Mean core-link utilization: initial / after S-CORE / after Remedy.
    pub core_mean: [f64; 3],
    /// Mean aggregation-link utilization: initial / S-CORE / Remedy.
    pub agg_mean: [f64; 3],
    /// Communication-cost reduction fraction achieved by S-CORE.
    pub score_cost_reduction: f64,
    /// Communication-cost reduction fraction achieved by Remedy.
    pub remedy_cost_reduction: f64,
}

/// Translates Remedy's per-migration byte estimate into S-CORE cost units
/// (bits moved at rack level, amortised over `window_s`).
fn cm_from_remedy_bytes(bytes: f64, model: &CostModel, window_s: f64) -> f64 {
    let rate_bps = bytes * 8.0 / window_s;
    rate_bps * model.weights().pair_cost_per_unit(Level::RACK)
}

/// The scenario S-CORE and Remedy both start from.
pub(crate) fn scenario(paper_scale: bool) -> Scenario {
    crate::canonical(TrafficIntensity::Sparse, 23, paper_scale)
}

/// Runs the comparison and writes the Fig. 4a/4b CSVs.
pub fn run(paper_scale: bool) -> (Fig4Result, String) {
    let scenario = self::scenario(paper_scale);
    let model = CostModel::paper_default();
    let remedy_cfg = RemedyConfig::paper_default();
    let migration_bytes = Remedy::new(remedy_cfg).migration_bytes();
    let cm = cm_from_remedy_bytes(migration_bytes, &model, remedy_cfg.amortization_s);

    // Initial state (shared by both systems).
    let session0 = scenario.session().expect("preset scenario is feasible");
    let initial_cost = session0.initial_cost();
    let initial_snapshot = session0.report().link_utilization;

    // --- S-CORE run (HLF, cm from Remedy's model). ---
    let mut score_scenario = scenario.clone();
    score_scenario.policy = PolicyKind::HighestLevelFirst;
    score_scenario.timing.t_end_s = 700.0;
    score_scenario.engine = score_scenario.engine.with_migration_cost(cm);
    let mut score_session = score_scenario
        .session()
        .expect("preset scenario is feasible");
    score_session.run_to_horizon();
    let score_report = score_session.report();
    write_report("fig4_score.json", &score_report);
    let score_snapshot = score_report.link_utilization.clone();
    let t_end_s = score_scenario.timing.t_end_s;

    // --- Remedy run, stepped to produce a time series, on a copy of
    // the shared initial cluster (no `&mut Cluster` leaves a session). ---
    let mut remedy_cluster = session0.cluster().clone();
    let traffic = session0.traffic();
    let controller = Remedy::new(RemedyConfig {
        max_migrations: 1,
        ..remedy_cfg
    });
    let monitor_interval_s = 10.0;
    let mut t = 0.0;
    let mut remedy_series = vec![(0.0, initial_cost)];
    for _ in 0..remedy_cfg.max_migrations {
        let result = controller.run(&mut remedy_cluster, traffic);
        t += monitor_interval_s;
        if result.steps.is_empty() || t > t_end_s {
            break;
        }
        let cost = session0.cost_model().total_cost(
            remedy_cluster.allocation(),
            traffic,
            remedy_cluster.topo(),
        );
        remedy_series.push((t, cost));
    }
    remedy_series.push((t_end_s, remedy_series.last().unwrap().1));
    let remedy_final = remedy_series.last().unwrap().1;
    let remedy_snapshot = UtilizationSnapshot::capture(&LinkLoadMap::compute(
        remedy_cluster.allocation(),
        &traffic.pairs(),
        remedy_cluster.topo(),
    ));

    // --- Outputs. ---
    let mut csv_cdf = String::from("system,layer,utilization,cdf\n");
    for (system, snap) in [
        ("initial", &initial_snapshot),
        ("score", &score_snapshot),
        ("remedy", &remedy_snapshot),
    ] {
        for line in snap.to_csv().lines().skip(1) {
            let _ = writeln!(csv_cdf, "{system},{line}");
        }
    }
    let cdf_path = write_result("fig4a_utilization_cdf.csv", &csv_cdf);

    let mut csv_cost = String::from("system,time_s,cost,ratio_to_initial\n");
    for &(t, c) in &score_report.cost_series {
        let _ = writeln!(csv_cost, "score,{t:.1},{c:.1},{:.4}", c / initial_cost);
    }
    for &(t, c) in &remedy_series {
        let _ = writeln!(csv_cost, "remedy,{t:.1},{c:.1},{:.4}", c / initial_cost);
    }
    let cost_path = write_result("fig4b_cost_ratio.csv", &csv_cost);

    let result = Fig4Result {
        core_mean: [
            UtilizationSnapshot::mean(&initial_snapshot.core),
            UtilizationSnapshot::mean(&score_snapshot.core),
            UtilizationSnapshot::mean(&remedy_snapshot.core),
        ],
        agg_mean: [
            UtilizationSnapshot::mean(&initial_snapshot.aggregation),
            UtilizationSnapshot::mean(&score_snapshot.aggregation),
            UtilizationSnapshot::mean(&remedy_snapshot.aggregation),
        ],
        score_cost_reduction: 1.0 - score_report.final_cost / initial_cost,
        remedy_cost_reduction: 1.0 - remedy_final / initial_cost,
    };

    let mut summary = String::from("Fig. 4 — S-CORE vs Remedy (sparse TM)\n");
    let _ = writeln!(
        summary,
        "  mean core util:  initial {:.4}  S-CORE {:.4}  Remedy {:.4}",
        result.core_mean[0], result.core_mean[1], result.core_mean[2]
    );
    let _ = writeln!(
        summary,
        "  mean agg util:   initial {:.4}  S-CORE {:.4}  Remedy {:.4}",
        result.agg_mean[0], result.agg_mean[1], result.agg_mean[2]
    );
    let _ = writeln!(
        summary,
        "  cost reduction:  S-CORE {:.1}%  Remedy {:.1}%  (paper: ~40% vs ~10%)",
        result.score_cost_reduction * 100.0,
        result.remedy_cost_reduction * 100.0
    );
    let _ = writeln!(summary, "  -> {}", cdf_path.display());
    let _ = writeln!(summary, "  -> {}", cost_path.display());
    (result, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_beats_remedy_on_both_axes() {
        // The EXPERIMENTS row reports this run, with S-CORE at the `c_m`
        // of `cm_from_remedy_bytes`; `paper_claims::score_outperforms_remedy`
        // makes the same two checks at `c_m = 0`.
        let (r, summary) = run(false);
        // S-CORE reduces core/agg utilization more than Remedy does.
        assert!(
            r.core_mean[1] < r.core_mean[0],
            "S-CORE must relieve the core"
        );
        assert!(
            r.core_mean[1] < r.core_mean[2],
            "S-CORE must relieve the core more than Remedy: {:?}",
            r.core_mean
        );
        // Cost: S-CORE's reduction clearly dominates Remedy's (paper: 40%
        // vs 10%).
        assert!(
            r.score_cost_reduction > r.remedy_cost_reduction + 0.1,
            "S-CORE {} vs Remedy {}",
            r.score_cost_reduction,
            r.remedy_cost_reduction
        );
        assert!(r.score_cost_reduction > 0.2, "{}", r.score_cost_reduction);
        assert!(summary.contains("Remedy"));
    }

    #[test]
    fn cm_translation_scales_with_bytes() {
        let model = CostModel::paper_default();
        let a = cm_from_remedy_bytes(100e6, &model, 300.0);
        let b = cm_from_remedy_bytes(200e6, &model, 300.0);
        assert!(b > a);
        assert!((b / a - 2.0).abs() < 1e-9);
    }
}
