//! Extension experiment: oversubscription sweep.
//!
//! "Operators often oversubscribe their network … the oversubscription
//! ratio increases dramatically from edge to core layers" (§V-C). This
//! sweep varies the ToR-uplink oversubscription ratio of the canonical
//! tree and measures how much congestion S-CORE removes at each design
//! point — quantifying the claim that traffic localization buys operators
//! "network capacity headroom".
//!
//! The capacity axis is declared, not hand-rolled: each ratio is one
//! `TopologySpec` carrying `LinkCapacities` overrides, and the whole
//! sweep is a `ScenarioMatrix` over those specs (the last experiment to
//! migrate off bespoke topology loops).

use score_sim::{
    jain_fairness, PolicyKind, Scenario, ScenarioMatrix, TopologySpec, UtilizationSnapshot,
};
use score_topology::LinkCapacities;
use std::fmt::Write as _;

use crate::{write_report, write_result};

/// Outcome at one oversubscription ratio.
#[derive(Debug, Clone, Copy)]
pub struct OversubPoint {
    /// Downlink:uplink ratio at the ToR layer.
    pub ratio: f64,
    /// Max aggregation/core utilization before S-CORE.
    pub max_util_before: f64,
    /// Max aggregation/core utilization after S-CORE.
    pub max_util_after: f64,
    /// Jain fairness of upper-layer utilizations after S-CORE.
    pub fairness_after: f64,
}

/// Highest upper-layer (aggregation + core) utilization in a snapshot.
fn upper_max(snapshot: &UtilizationSnapshot) -> f64 {
    snapshot
        .aggregation
        .iter()
        .chain(snapshot.core.iter())
        .copied()
        .fold(0.0, f64::max)
}

/// The ToR oversubscription ratios swept.
const RATIOS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// The sweep's base scenario and one fabric per oversubscription ratio:
/// downlink hosts × 1 GbE, uplink sized for the ratio.
fn sweep(paper_scale: bool) -> (Scenario, Vec<TopologySpec>) {
    let (racks, hosts_per_rack) = if paper_scale { (128, 20) } else { (32, 5) };
    let host_bps = 1e9;
    let topologies = RATIOS
        .iter()
        .map(|&ratio| {
            let uplink = (f64::from(hosts_per_rack) * host_bps / ratio).max(1e8);
            TopologySpec::canonical(racks, hosts_per_rack).with_capacities(LinkCapacities {
                host_bps,
                tor_agg_bps: uplink,
                agg_core_bps: uplink,
            })
        })
        .collect();
    let base = Scenario::builder()
        .policy(PolicyKind::HighestLevelFirst)
        .vms_per_host(2.0)
        .workload_seed(37)
        .horizon(400.0)
        .build();
    (base, topologies)
}

/// Every scenario the sweep materializes, one per ratio.
#[cfg(test)]
pub(crate) fn scenarios(paper_scale: bool) -> Vec<Scenario> {
    let (base, topologies) = sweep(paper_scale);
    let on = |topology| Scenario {
        topology,
        ..base.clone()
    };
    topologies.into_iter().map(on).collect()
}

/// Runs the sweep and writes `ext_oversubscription.csv` plus the
/// collected `ext_oversub_matrix.json`.
pub fn run(paper_scale: bool) -> (Vec<OversubPoint>, String) {
    let (base, topologies) = sweep(paper_scale);
    let results = crate::run_matrix(ScenarioMatrix::new(base).topologies(topologies))
        .expect("sweep dimensions are valid");
    results
        .write_json(&crate::results_dir(), "ext_oversub_matrix.json")
        .expect("write matrix report");

    let mut points = Vec::new();
    let mut csv = String::from("ratio,max_util_before,max_util_after,fairness_after\n");
    let mut summary = String::from("Extension — ToR oversubscription sweep (HLF, sparse TM)\n");
    let _ = writeln!(
        summary,
        "  {:>6} {:>17} {:>16} {:>15}",
        "ratio", "max util before", "max util after", "fairness after"
    );
    for (cell, &ratio) in results.cells.iter().zip(&RATIOS) {
        // "Before": the same scenario freshly materialized, not run.
        let initial = cell
            .scenario
            .session()
            .expect("matrix cell re-materializes");
        let before = upper_max(&initial.report().link_utilization);
        let after = upper_max(&cell.report.link_utilization);
        write_report(&format!("ext_oversub_{ratio:.0}x.json"), &cell.report);
        let mut upper = cell.report.link_utilization.aggregation.clone();
        upper.extend_from_slice(&cell.report.link_utilization.core);
        let point = OversubPoint {
            ratio,
            max_util_before: before,
            max_util_after: after,
            fairness_after: jain_fairness(&upper),
        };
        let _ = writeln!(
            csv,
            "{ratio},{:.5},{:.5},{:.4}",
            point.max_util_before, point.max_util_after, point.fairness_after
        );
        let _ = writeln!(
            summary,
            "  {:>5.0}:1 {:>17.4} {:>16.4} {:>15.3}",
            ratio, point.max_util_before, point.max_util_after, point.fairness_after
        );
        points.push(point);
    }
    let _ = writeln!(
        summary,
        "  (higher oversubscription makes the initial congestion worse; S-CORE's \
         localization removes most of it at every design point)"
    );
    let path = write_result("ext_oversubscription.csv", &csv);
    let _ = writeln!(summary, "  -> {}", path.display());
    (points, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversubscription_amplifies_and_score_relieves() {
        let (points, summary) = run(false);
        assert_eq!(points.len(), 4);
        // Initial upper-layer congestion grows with the ratio.
        assert!(
            points[3].max_util_before > points[0].max_util_before,
            "8:1 ({}) should start more congested than 1:1 ({})",
            points[3].max_util_before,
            points[0].max_util_before
        );
        // S-CORE substantially relieves every design point.
        for p in &points {
            assert!(
                p.max_util_after < p.max_util_before * 0.7,
                "ratio {}: {} -> {}",
                p.ratio,
                p.max_util_before,
                p.max_util_after
            );
        }
        assert!(summary.contains("oversubscription"));
    }
}
