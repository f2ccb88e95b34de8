//! Extension experiment: link-weight sensitivity.
//!
//! §II: "link weight assignment can be based on DC operator policy to
//! reflect diverse metrics, such as, e.g., energy consumption, performance,
//! fault tolerance". This ablation sweeps the weight growth base under a
//! fixed, non-zero migration cost `c_m`: with `c_m = 0` the Theorem-1 gate
//! only checks the *sign* of ΔC, so any strictly increasing weights accept
//! nearly the same moves — but with a real migration cost, steeper weights
//! make more core-relieving moves clear the bar, pushing more traffic mass
//! down the hierarchy.

use score_sim::{Scenario, ScenarioMatrix};
use score_topology::LinkWeights;
use score_traffic::TrafficIntensity;
use std::fmt::Write as _;

use crate::{results_dir, write_result};

/// Outcome for one weight vector.
#[derive(Debug, Clone)]
pub struct WeightOutcome {
    /// Human-readable name of the weighting.
    pub name: String,
    /// Fraction of traffic at each level (0..=3) after convergence.
    pub breakdown: Vec<f64>,
    /// Fraction of traffic left above rack level (level ≥ 2).
    pub above_rack: f64,
}

/// The scenario every weighting runs.
pub(crate) fn scenario(paper_scale: bool) -> Scenario {
    let mut base = crate::canonical(TrafficIntensity::Sparse, 29, paper_scale);
    // A horizon that cannot cut the 6 iterations short (the event
    // queue needs a finite end marker).
    base.timing.t_end_s = 1e6;
    base
}

/// Runs the sweep (one `ScenarioMatrix` over the labeled engine axis,
/// capped at 6 iterations per cell) and writes
/// `ext_weight_sensitivity.csv` plus one collected
/// `ext_weights_matrix.json`.
pub fn run(paper_scale: bool) -> (Vec<WeightOutcome>, String) {
    let base = scenario(paper_scale);

    let weightings: Vec<(String, LinkWeights)> = vec![
        (
            "nearly-flat".into(),
            LinkWeights::new([1.0, 1.05, 1.1]).unwrap(),
        ),
        ("base-2".into(), LinkWeights::exponential(3, 2.0).unwrap()),
        ("paper-e".into(), LinkWeights::paper_default()),
        ("base-10".into(), LinkWeights::exponential(3, 10.0).unwrap()),
    ];
    // Fixed migration cost in cost units: small relative to steep-weight
    // gains, prohibitive for the flattest weighting's marginal moves.
    let cm = 5e7;
    let engines: Vec<(String, score_sim::EngineSpec)> = weightings
        .into_iter()
        .map(|(name, weights)| {
            (
                name,
                base.engine
                    .clone()
                    .with_migration_cost(cm)
                    .with_weights(weights),
            )
        })
        .collect();
    let results = crate::run_matrix(ScenarioMatrix::new(base).engines(engines).iterations(6))
        .expect("preset scenarios are feasible");
    results
        .write_json(&results_dir(), "ext_weights_matrix.json")
        .expect("write matrix report");

    let mut outcomes = Vec::new();
    let mut csv = String::from("weighting,level0,level1,level2,level3,above_rack\n");
    let mut summary = String::from("Extension — link-weight sensitivity (HLF, sparse TM)\n");
    let _ = writeln!(
        summary,
        "  {:<12} {:>7} {:>7} {:>7} {:>7}   {:>11}",
        "weighting", "L0", "L1", "L2", "L3", "above rack"
    );
    for cell in &results.cells {
        let name = cell
            .engine_label
            .clone()
            .expect("the engine axis labels every cell");
        let breakdown = cell.report.level_breakdown.clone();
        let above_rack: f64 = breakdown.iter().skip(2).sum();
        let _ = writeln!(
            csv,
            "{name},{:.4},{:.4},{:.4},{:.4},{:.4}",
            breakdown[0], breakdown[1], breakdown[2], breakdown[3], above_rack
        );
        let _ = writeln!(
            summary,
            "  {:<12} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%   {:>10.1}%",
            name,
            breakdown[0] * 100.0,
            breakdown[1] * 100.0,
            breakdown[2] * 100.0,
            breakdown[3] * 100.0,
            above_rack * 100.0
        );
        outcomes.push(WeightOutcome {
            name,
            breakdown,
            above_rack,
        });
    }
    let path = write_result("ext_weight_sensitivity.csv", &csv);
    let _ = writeln!(summary, "  -> {}", path.display());
    (outcomes, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steeper_weights_drain_the_core_harder() {
        let (outcomes, summary) = run(false);
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            let sum: f64 = o.breakdown.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{}: breakdown sums to {sum}",
                o.name
            );
        }
        // All weightings localize most traffic below the aggregation layer
        // (the Theorem-1 gate accepts any strictly positive saving).
        for o in &outcomes {
            assert!(
                o.above_rack < 0.5,
                "{}: {:.0}% above rack",
                o.name,
                o.above_rack * 100.0
            );
        }
        // The steepest weighting must leave no more above-rack mass than
        // the flattest one (allowing a small tolerance for greedy noise).
        let flat = outcomes.iter().find(|o| o.name == "nearly-flat").unwrap();
        let steep = outcomes.iter().find(|o| o.name == "base-10").unwrap();
        assert!(
            steep.above_rack <= flat.above_rack + 0.05,
            "steep {:.3} vs flat {:.3}",
            steep.above_rack,
            flat.above_rack
        );
        assert!(summary.contains("base-10"));
    }
}
