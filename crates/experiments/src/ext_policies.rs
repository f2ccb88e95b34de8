//! Extension experiment: token-policy shoot-out.
//!
//! Beyond the paper's RR-vs-HLF comparison, this pits all implemented
//! policies (including the TR-inspired Highest-Cost-First and a random
//! ablation) against each other on the same scenario, reporting final
//! cost, convergence speed, and migration churn.

use score_sim::{PolicyKind, Scenario, ScenarioMatrix};
use score_traffic::TrafficIntensity;
use std::fmt::Write as _;

use crate::{results_dir, write_result};

/// Outcome for one policy.
#[derive(Debug, Clone, Copy)]
pub struct PolicyOutcome {
    /// The policy.
    pub policy: PolicyKind,
    /// Final cost relative to the initial cost.
    pub final_fraction: f64,
    /// Simulated seconds until 90% of the run's total reduction was
    /// achieved (`f64::INFINITY` if never).
    pub t90_s: f64,
    /// Migrations performed.
    pub migrations: usize,
}

/// The scenario every policy runs.
pub(crate) fn scenario(paper_scale: bool) -> Scenario {
    let mut base = crate::canonical(TrafficIntensity::Sparse, 17, paper_scale);
    base.timing.t_end_s = 500.0;
    base
}

/// Runs the comparison (one `ScenarioMatrix` sweep over every policy)
/// and writes `ext_policy_comparison.csv` plus one collected
/// `ext_policy_matrix.json`.
pub fn run(paper_scale: bool) -> (Vec<PolicyOutcome>, String) {
    let base = scenario(paper_scale);
    let results = crate::run_matrix(ScenarioMatrix::new(base).policies(PolicyKind::all()))
        .expect("preset scenarios are feasible");
    results
        .write_json(&results_dir(), "ext_policy_matrix.json")
        .expect("write matrix report");

    let mut outcomes = Vec::new();
    let mut csv = String::from("policy,final_fraction,t90_s,migrations\n");
    let mut summary = String::from("Extension — token-policy comparison (sparse TM)\n");
    let _ = writeln!(
        summary,
        "  {:<8} {:>14} {:>10} {:>11}",
        "policy", "final cost", "t90 (s)", "migrations"
    );
    for cell in &results.cells {
        let policy = cell.policy;
        let report = &cell.report;
        let total_drop = report.initial_cost - report.final_cost;
        let target = report.initial_cost - 0.9 * total_drop;
        let t90 = report
            .cost_series
            .iter()
            .find(|&&(_, c)| c <= target)
            .map_or(f64::INFINITY, |&(t, _)| t);
        let outcome = PolicyOutcome {
            policy,
            final_fraction: report.final_cost / report.initial_cost,
            t90_s: t90,
            migrations: report.migrations.len(),
        };
        let _ = writeln!(
            csv,
            "{},{:.6},{:.1},{}",
            policy.name(),
            outcome.final_fraction,
            outcome.t90_s,
            outcome.migrations
        );
        let _ = writeln!(
            summary,
            "  {:<8} {:>12.1}% {:>10.0} {:>11}",
            policy.name(),
            outcome.final_fraction * 100.0,
            outcome.t90_s,
            outcome.migrations
        );
        outcomes.push(outcome);
    }
    let path = write_result("ext_policy_comparison.csv", &csv);
    let _ = writeln!(summary, "  -> {}", path.display());
    (outcomes, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_converge_to_similar_cost() {
        let (outcomes, summary) = run(false);
        assert_eq!(outcomes.len(), PolicyKind::all().len());
        for o in &outcomes {
            assert!(
                o.final_fraction < 0.5,
                "{} left {:.0}% of the cost",
                o.policy.name(),
                o.final_fraction * 100.0
            );
            assert!(o.migrations > 0);
        }
        // The informed policies must not be slower to t90 than random by a
        // large margin.
        let t90 = |kind: PolicyKind| outcomes.iter().find(|o| o.policy == kind).unwrap().t90_s;
        assert!(t90(PolicyKind::HighestLevelFirst).is_finite());
        assert!(t90(PolicyKind::HighestCostFirst).is_finite());
        assert!(summary.contains("hcf"));
    }
}
