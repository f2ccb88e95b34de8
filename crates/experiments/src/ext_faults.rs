//! Extension experiment: recovery behaviour under seeded failure
//! storms.
//!
//! The paper's evaluation assumes a healthy fabric; the migration
//! surveys in PAPERS.md (arXiv:1601.03854, arXiv:2207.12085) stress
//! that placement systems earn their keep when hosts and links fail.
//! This experiment replays deterministic [`score_trace::FaultSpec`]
//! storms — host crashes, correlated rack failures, link
//! degradations — through the live event clock for every token policy
//! and three escalating severities, and reports the
//! [`score_sim::RecoveryStats`] block: forced evacuations, VMs the
//! fabric could no longer hold, SLO-violating seconds, and the time
//! the placement needed to stop moving again. Every cell also pins
//! the adversity invariant the test harness proves at small scale:
//! `ledger_resyncs() == 0` through the whole storm.

use score_sim::{PolicyKind, Scenario, TimingSpec};
use score_trace::{fault_storm_events, FaultSpec, TimedEvent};
use score_traffic::TrafficIntensity;
use std::fmt::Write as _;

use crate::{write_report, write_result, Stopwatch};

/// Outcome of one (severity, policy) storm cell.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Storm severity label (`breeze` / `storm` / `cascade`).
    pub severity: &'static str,
    /// Token policy.
    pub policy: PolicyKind,
    /// Fault events injected.
    pub faults: u64,
    /// Hosts down at the horizon.
    pub hosts_down: u32,
    /// Forced evacuation migrations.
    pub evacuations: u64,
    /// VMs retired because no live server could admit them.
    pub unplaceable: u64,
    /// Mean wall-clock cost of one fault application (drain excluded),
    /// in microseconds.
    pub fault_apply_us: f64,
    /// Sim-seconds from the last fault to the last migration after it.
    pub time_to_stable_s: f64,
    /// Sim-seconds sampled while degraded (host down or tier scaled).
    pub slo_violating_s: f64,
    /// Cost of the initial placement.
    pub initial_cost: f64,
    /// Cost at the horizon, after re-planning around the storm.
    pub final_cost: f64,
}

/// The storm severities this experiment escalates through, sized for
/// `num_servers` hosts in `num_racks` racks inside `horizon_s`.
pub fn severities(
    num_servers: u32,
    num_racks: u32,
    horizon_s: f64,
) -> [(&'static str, FaultSpec); 3] {
    let spec = |host_crashes, rack_fails, degradations| FaultSpec {
        num_servers,
        num_racks,
        host_crashes,
        rack_fails,
        degradations,
        degrade_factor: 0.4,
        degrade_hold_s: horizon_s / 8.0,
        max_tier: 1,
        horizon_s: horizon_s * 0.75, // leave room to re-stabilize
    };
    [
        ("breeze", spec(1, 0, 1)),
        ("storm", spec(3, 1, 2)),
        ("cascade", spec(6, 3, 3)),
    ]
}

/// The policies every storm is thrown at.
pub fn policies() -> [PolicyKind; 3] {
    [
        PolicyKind::HighestLevelFirst,
        PolicyKind::RoundRobin,
        PolicyKind::HighestCostFirst,
    ]
}

/// Drives one storm cell: the event clock advances to each fault's
/// firing time, the boundary is drained, the fault applies through the
/// Lemma-3 ledger path, and the survivors re-converge to the horizon.
fn run_cell(scenario: &Scenario, storm: &[TimedEvent]) -> (score_sim::RunReport, f64) {
    let mut session = scenario.session().expect("storm scenarios materialize");
    let mut apply_s = 0.0;
    for ev in storm {
        // `run_storm` by hand, so the drain stays out of the timed
        // window: time only the evacuation/re-pricing decision.
        session.advance_to(ev.time_s);
        let sw = Stopwatch::start();
        session
            .apply_trace_event(&ev.event)
            .expect("storm events validate");
        apply_s += sw.elapsed_s();
    }
    session.run_to_horizon();
    assert_eq!(
        session.ledger_resyncs(),
        0,
        "the adversity path never falls back to a full resync"
    );
    let per_fault_us = if storm.is_empty() {
        0.0
    } else {
        apply_s * 1e6 / storm.len() as f64
    };
    (session.report(), per_fault_us)
}

/// Runs every severity × policy storm and writes `ext_faults.csv`
/// (plus one `RunReport` JSON per cell, `recovery` block populated).
pub fn run(paper_scale: bool) -> (Vec<FaultPoint>, String) {
    let horizon = if paper_scale { 700.0 } else { 240.0 };
    let (scenario_for, num_servers, num_racks) = if paper_scale {
        (
            Scenario::paper_canonical as fn(TrafficIntensity, u64) -> Scenario,
            2560,
            512,
        )
    } else {
        (
            Scenario::small_canonical as fn(TrafficIntensity, u64) -> Scenario,
            160,
            32,
        )
    };

    let mut points = Vec::new();
    let mut csv = String::from(
        "severity,policy,faults,hosts_down,evacuations,unplaceable,fault_apply_us,\
         time_to_stable_s,slo_violating_s,initial_cost,final_cost\n",
    );
    let mut summary = String::from(
        "Extension — recovery under seeded failure storms (deterministic fault replay)\n",
    );
    for (severity, spec) in severities(num_servers, num_racks, horizon) {
        let storm = fault_storm_events(&spec, 97).expect("severity specs validate");
        let _ = writeln!(
            summary,
            "  {severity}: {} host crashes, {} rack failures, {} degradations \
             ({} timed events)",
            spec.host_crashes,
            spec.rack_fails,
            spec.degradations,
            storm.len(),
        );
        for policy in policies() {
            let mut scenario = scenario_for(TrafficIntensity::Sparse, 97);
            scenario.policy = policy;
            scenario.timing = TimingSpec {
                t_end_s: horizon,
                ..scenario.timing
            };
            let (report, fault_apply_us) = run_cell(&scenario, &storm);
            write_report(
                &format!("ext_faults_{severity}_{}.json", policy.name()),
                &report,
            );
            let r = &report.recovery;
            let point = FaultPoint {
                severity,
                policy,
                faults: r.faults_injected,
                hosts_down: r.hosts_down,
                evacuations: r.evacuations,
                unplaceable: r.unplaceable_vms,
                fault_apply_us,
                time_to_stable_s: r.time_to_stable_s,
                slo_violating_s: r.slo_violating_s,
                initial_cost: report.initial_cost,
                final_cost: report.final_cost,
            };
            let _ = writeln!(
                csv,
                "{severity},{},{},{},{},{},{:.2},{:.3},{:.3},{:.6e},{:.6e}",
                point.policy.name(),
                point.faults,
                point.hosts_down,
                point.evacuations,
                point.unplaceable,
                point.fault_apply_us,
                point.time_to_stable_s,
                point.slo_violating_s,
                point.initial_cost,
                point.final_cost,
            );
            let _ = writeln!(
                summary,
                "    {:<7} {:>3} evacuations ({} unplaceable)  {:>7.1} µs/fault  \
                 stable {:>6.1} s after last fault  {:>6.1} s degraded  \
                 cost {:>9.3e} -> {:>9.3e}",
                point.policy.name(),
                point.evacuations,
                point.unplaceable,
                point.fault_apply_us,
                point.time_to_stable_s,
                point.slo_violating_s,
                point.initial_cost,
                point.final_cost,
            );
            points.push(point);
        }
    }
    let _ = writeln!(
        summary,
        "  (every cell replays its storm at drained event boundaries with zero \
         ledger resyncs; only the fault events enter the audit log — the \
         evacuations are re-derived on replay)"
    );
    let path = write_result("ext_faults.csv", &csv);
    let _ = writeln!(summary, "  -> {}", path.display());
    (points, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storms_populate_recovery_stats() {
        let (points, summary) = run(false);
        assert_eq!(points.len(), 9, "3 severities × 3 policies");
        for p in &points {
            assert!(
                p.faults > 0,
                "{}/{} injected nothing",
                p.severity,
                p.policy.name()
            );
            assert!(p.initial_cost > 0.0 && p.final_cost >= 0.0);
            assert!(p.slo_violating_s > 0.0, "degraded time never sampled");
        }
        // Escalating severities take more hosts down.
        let down = |sev: &str| {
            points
                .iter()
                .filter(|p| p.severity == sev)
                .map(|p| u64::from(p.hosts_down))
                .max()
                .unwrap()
        };
        assert!(down("cascade") > down("breeze"));
        // At least one cell evacuated VMs through the ledger path.
        assert!(points.iter().any(|p| p.evacuations > 0));
        assert!(summary.contains("cascade"));
        assert!(summary.contains("µs/fault"));
    }
}
