//! Fig. 2 — ratio of migrated VMs in 5 consecutive token iterations.
//!
//! The paper shows the ratio plummeting after the second iteration for
//! both policies, demonstrating that "S-CORE quickly converges to a stable
//! VM distribution within two token-passing iterations".

use score_sim::{PolicyKind, Scenario};
use score_traffic::TrafficIntensity;
use std::fmt::Write as _;

use crate::{write_report, write_result};

/// Number of iterations the figure plots.
pub const ITERATIONS: usize = 5;

/// Per-policy migrated-VM ratios for the plotted iterations.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// `(policy name, ratios[0..5])`.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

/// The scenario both policies run, before their timing is set.
pub(crate) fn scenario(paper_scale: bool) -> Scenario {
    crate::canonical(TrafficIntensity::Sparse, 7, paper_scale)
}

/// Runs the experiment and writes `fig2_migration_ratio.csv`.
pub fn run(paper_scale: bool) -> (Fig2Result, String) {
    let base = scenario(paper_scale);

    let topo = base.topology.build().expect("preset dimensions are valid");
    let num_vms = base.workload.num_vms(topo.as_ref()) as f64;
    // Enough simulated time for 5 full iterations plus slack.
    let (hold, pass) = (0.05, 0.01);

    let mut series = Vec::new();
    for policy in PolicyKind::paper_policies() {
        let mut scenario = base.clone();
        scenario.policy = policy;
        scenario.timing.t_end_s = (ITERATIONS as f64 + 1.5) * num_vms * (hold + pass);
        scenario.timing.sample_interval_s = 10.0;
        scenario.timing.token_hold_s = hold;
        scenario.timing.token_pass_s = pass;
        let mut session = scenario.session().expect("preset scenario is feasible");
        session.run_to_horizon();
        let report = session.report();
        write_report(&format!("fig2_{}.json", policy.name()), &report);
        let ratios: Vec<f64> = report
            .migration_ratios
            .iter()
            .take(ITERATIONS)
            .copied()
            .collect();
        series.push((policy.name(), ratios));
    }

    let mut csv = String::from("iteration,policy,migration_ratio\n");
    let mut summary = String::from("Fig. 2 — migrated-VM ratio per iteration\n");
    let _ = writeln!(summary, "  iteration {:>8} {:>8}", series[0].0, series[1].0);
    for i in 0..ITERATIONS {
        let a = series[0].1.get(i).copied().unwrap_or(0.0);
        let b = series[1].1.get(i).copied().unwrap_or(0.0);
        let _ = writeln!(csv, "{},{},{a:.4}", i + 1, series[0].0);
        let _ = writeln!(csv, "{},{},{b:.4}", i + 1, series[1].0);
        let _ = writeln!(summary, "  {:>9} {a:>8.3} {b:>8.3}", i + 1);
    }
    let path = write_result("fig2_migration_ratio.csv", &csv);
    let _ = writeln!(summary, "  -> {}", path.display());
    (Fig2Result { series }, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_plummet_after_second_iteration() {
        let (result, summary) = run(false);
        assert!(summary.contains("Fig. 2"));
        for (name, ratios) in &result.series {
            assert_eq!(ratios.len(), ITERATIONS, "policy {name}");
            assert!(
                ratios[0] > 0.05,
                "{name}: first iteration must migrate, got {ratios:?}"
            );
            let late = ratios[3] + ratios[4];
            assert!(
                late < ratios[0] * 0.5,
                "{name}: late iterations must plummet, got {ratios:?}"
            );
        }
    }
}
