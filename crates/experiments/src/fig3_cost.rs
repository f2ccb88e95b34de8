//! Fig. 3d–i — communication-cost ratio (vs the GA-optimal approximation)
//! over time, for both topologies, three intensities, and both token
//! policies.
//!
//! The paper's headline: S-CORE achieves 72–87% of the GA-optimal cost
//! reduction in all scenarios, HLF converging faster and closer than RR,
//! with fat-tree ratios lower (its path diversity already relieves the
//! core) and denser TMs drifting further from the optimum (13% → 28%).

use score_baselines::{GaConfig, GeneticOptimizer};
use score_core::CostModel;
use score_sim::{ascii_chart, series_to_csv, PolicyKind, Scenario, ScenarioMatrix, TopologyKind};
use score_traffic::TrafficIntensity;
use std::fmt::Write as _;

use crate::{results_dir, write_result};

/// Outcome for one (intensity, policy) cell of the figure.
#[derive(Debug, Clone)]
pub struct CostRatioCell {
    /// Workload intensity.
    pub intensity: TrafficIntensity,
    /// Token policy.
    pub policy: PolicyKind,
    /// Cost ratio (vs GA) at t = 0.
    pub initial_ratio: f64,
    /// Cost ratio at the horizon.
    pub final_ratio: f64,
    /// Fraction of the GA-optimal cost *reduction* achieved:
    /// `(C_init − C_final) / (C_init − C_GA)`.
    pub reduction_achieved: f64,
    /// `(t, ratio)` series for plotting.
    pub series: Vec<(f64, f64)>,
}

/// The scenario the intensity × policy sweep expands on `kind`.
pub(crate) fn scenario(kind: TopologyKind, paper_scale: bool) -> Scenario {
    let sparse = TrafficIntensity::Sparse;
    let mut base = match kind {
        TopologyKind::CanonicalTree => crate::canonical(sparse, 11, paper_scale),
        TopologyKind::FatTree if paper_scale => Scenario::paper_fattree(sparse, 11),
        TopologyKind::FatTree => Scenario::small_fattree(sparse, 11),
        TopologyKind::Star => unreachable!("the figure plots tree fabrics only"),
    };
    base.timing.t_end_s = 700.0;
    base
}

/// Runs all intensities and policies for one topology: one
/// `ScenarioMatrix` sweep (intensity × policy), with the GA-optimal
/// approximation computed once per intensity as the ratio baseline.
pub fn run(kind: TopologyKind, paper_scale: bool) -> (Vec<CostRatioCell>, String) {
    let mut cells = Vec::new();
    let letters = match kind {
        TopologyKind::CanonicalTree => ["d", "e", "f"],
        TopologyKind::FatTree => ["g", "h", "i"],
        TopologyKind::Star => unreachable!("the figure plots tree fabrics only"),
    };
    let mut summary = format!(
        "Fig. 3{}–{} — cost ratio vs GA-optimal, {}\n",
        letters[0],
        letters[2],
        kind.name()
    );

    let base = scenario(kind, paper_scale);
    let results = crate::run_matrix(
        ScenarioMatrix::new(base)
            .intensities(TrafficIntensity::all())
            .policies(PolicyKind::paper_policies()),
    )
    .expect("preset scenarios are feasible");
    results
        .write_json(&results_dir(), &format!("fig3_{}_matrix.json", kind.name()))
        .expect("write matrix report");

    for intensity in TrafficIntensity::all() {
        // GA-optimal approximation, once per intensity (the baseline is
        // policy-independent — it optimizes the same instance).
        let ga_scenario = results
            .for_intensity(intensity)
            .next()
            .expect("matrix covers every intensity")
            .scenario
            .clone();
        let ga_session = ga_scenario.session().expect("preset scenario is feasible");
        let ga_cfg = if paper_scale {
            GaConfig::paper_default()
        } else {
            GaConfig::fast()
        };
        let ga = GeneticOptimizer::new(
            ga_session.topo().as_ref(),
            ga_session.traffic(),
            CostModel::paper_default(),
            ga_session.cluster().server_spec().vm_slots,
            ga_cfg,
        )
        .run();

        let mut chart_series = Vec::new();
        for matrix_cell in results.for_intensity(intensity) {
            let policy = matrix_cell.policy;
            let report = &matrix_cell.report;
            let series = report.ratio_series(ga.best_cost);
            let cell = CostRatioCell {
                intensity,
                policy,
                initial_ratio: report.initial_cost / ga.best_cost,
                final_ratio: report.final_cost / ga.best_cost,
                reduction_achieved: (report.initial_cost - report.final_cost)
                    / (report.initial_cost - ga.best_cost).max(f64::MIN_POSITIVE),
                series: series.clone(),
            };
            let csv = series_to_csv(&series, "time_s", "cost_ratio");
            let path = write_result(
                &format!(
                    "fig3_{}_{}_{}.csv",
                    kind.name(),
                    intensity.name(),
                    policy.name()
                ),
                &csv,
            );
            let _ = writeln!(
                summary,
                "  {:<7} {:<4} ratio {:>6.2} -> {:>5.2}  reduction achieved {:>5.1}% of GA-optimal  ({})",
                intensity.name(),
                policy.name(),
                cell.initial_ratio,
                cell.final_ratio,
                cell.reduction_achieved * 100.0,
                path.file_name().unwrap().to_string_lossy(),
            );
            chart_series.push((policy.name(), series));
            cells.push(cell);
        }
        let refs: Vec<(&str, &[(f64, f64)])> = chart_series
            .iter()
            .map(|(n, s)| (*n, s.as_slice()))
            .collect();
        let _ = writeln!(summary, "{}", ascii_chart(&refs, 64, 12));
    }
    (cells, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_tree_reproduces_headline_shape() {
        let (cells, _) = run(TopologyKind::CanonicalTree, false);
        assert_eq!(cells.len(), 6);
        for cell in &cells {
            // Every run starts above the optimum and improves.
            assert!(cell.initial_ratio > 1.0, "{cell:?}");
            assert!(cell.final_ratio <= cell.initial_ratio);
            // The paper's range: S-CORE achieves a large share of the
            // GA-optimal reduction (72–87% at paper scale; we allow a
            // wider floor at CI scale).
            assert!(
                cell.reduction_achieved > 0.5,
                "reduction {:.2} too small for {:?}/{:?}",
                cell.reduction_achieved,
                cell.intensity,
                cell.policy
            );
        }
    }

    #[test]
    fn fattree_converges_with_density_dependent_gap() {
        // The Fig. 3g–i properties: S-CORE works on the fat-tree too, and
        // the gap to the GA-optimal widens as the TM densifies (the
        // paper's 13% → 28% deviation growth).
        let (fat, _) = run(TopologyKind::FatTree, false);
        for cell in &fat {
            assert!(cell.final_ratio < cell.initial_ratio, "{cell:?}");
            assert!(cell.reduction_achieved > 0.5, "{cell:?}");
        }
        let sparse_hlf = fat
            .iter()
            .find(|c| {
                c.intensity == TrafficIntensity::Sparse && c.policy == PolicyKind::HighestLevelFirst
            })
            .unwrap();
        let dense_hlf = fat
            .iter()
            .find(|c| {
                c.intensity == TrafficIntensity::Dense && c.policy == PolicyKind::HighestLevelFirst
            })
            .unwrap();
        assert!(
            dense_hlf.reduction_achieved < sparse_hlf.reduction_achieved,
            "denser TMs must deviate more from the optimum: dense {:.2} vs sparse {:.2}",
            dense_hlf.reduction_achieved,
            sparse_hlf.reduction_achieved
        );
    }
}
