//! Extension experiment: policy behaviour under **time-varying** traffic,
//! reactive vs forecast-aware.
//!
//! The paper's evaluation holds each TM fixed; related work on dynamic
//! VM management (arXiv:1602.00097, arXiv:1601.03854) stresses that
//! migration policies must be judged under *drifting* load — and that
//! predictive policies can pre-empt load shifts instead of chasing
//! them. This experiment replays two canonical time-varying patterns
//! from `score_trace` — diurnal sine drift and flash-crowd spikes —
//! through the `Session` event clock twice per policy: once reactive
//! (decisions on the current TM, the paper pipeline) and once
//! forecast-aware (`ForecastSpec::TraceOracle`, exact lookahead into
//! the trace delta stream), ranking the token policies by their
//! time-averaged communication cost and reporting how many migrations
//! the forecast pre-empted.

use score_sim::{
    ForecastSpec, PolicyKind, RunReport, Scenario, ScenarioMatrix, TopologySpec, TraceSpec,
};
use score_trace::{DiurnalShape, FlashCrowdShape};
use score_traffic::TrafficIntensity;
use std::fmt::Write as _;

use crate::{write_report, write_result};

/// Outcome of one (shape, forecast, policy) cell.
#[derive(Debug, Clone)]
pub struct DynamicPoint {
    /// Trace shape name (`diurnal` / `flash-crowd`).
    pub shape: &'static str,
    /// Forecast mode (`none` / `oracle`).
    pub forecast: &'static str,
    /// Token policy.
    pub policy: PolicyKind,
    /// Cost of the initial placement under the trace's starting TM.
    pub initial_cost: f64,
    /// Time-averaged sampled cost across the run.
    pub mean_cost: f64,
    /// Cost at the horizon.
    pub final_cost: f64,
    /// Migrations performed.
    pub migrations: usize,
    /// Migrations justified by the forecast alone (0 when reactive).
    pub preempted: u64,
    /// Mid-run traffic deltas applied.
    pub events_applied: u64,
    /// Mean wall-clock time to apply one delta batch, in microseconds —
    /// printed in the summary, never written to a results file.
    pub mean_apply_us: f64,
}

/// Time-average of the sampled cost series.
fn mean_cost(report: &RunReport) -> f64 {
    if report.cost_series.is_empty() {
        return report.final_cost;
    }
    report.cost_series.iter().map(|&(_, c)| c).sum::<f64>() / report.cost_series.len() as f64
}

/// The policies this experiment ranks (the paper pair plus both
/// cost-routed extensions — `fcf` degenerates to `hcf` when reactive).
pub fn policies() -> [PolicyKind; 4] {
    [
        PolicyKind::HighestLevelFirst,
        PolicyKind::RoundRobin,
        PolicyKind::HighestCostFirst,
        PolicyKind::ForecastCostFirst,
    ]
}

/// The two forecast modes each shape runs under: reactive, and exact
/// lookahead an eighth of the horizon ahead.
fn modes(horizon_s: f64) -> [(&'static str, ForecastSpec); 2] {
    let oracle = ForecastSpec::TraceOracle {
        horizon_s: horizon_s / 8.0,
    };
    [("none", ForecastSpec::None), ("oracle", oracle)]
}

/// The scenario of one shape × mode cell (before the policy sweep). At
/// paper scale the fabric is the paper's 2,560-host canonical tree: the
/// default 160-host tree cannot hold 5,120 VMs.
fn scenario(spec: &TraceSpec, forecast: ForecastSpec, paper_scale: bool) -> Scenario {
    let topology = match paper_scale {
        true => TopologySpec::paper_canonical(),
        false => TopologySpec::small_canonical(),
    };
    Scenario::builder()
        .topology(topology)
        .trace(spec.clone())
        .forecast(forecast)
        .seed(97)
        .build()
}

fn run_shape(
    shape_name: &'static str,
    spec: TraceSpec,
    (horizon_s, paper_scale): (f64, bool),
    points: &mut Vec<DynamicPoint>,
    csv: &mut String,
    summary: &mut String,
) {
    for (mode, forecast) in modes(horizon_s) {
        let base = scenario(&spec, forecast, paper_scale);
        let results = crate::run_matrix(ScenarioMatrix::new(base).policies(policies()))
            .expect("trace scenarios materialize");
        results
            .write_json(
                &crate::results_dir(),
                &format!("ext_dynamic_{shape_name}_{mode}_matrix.json"),
            )
            .expect("write matrix report");
        let _ = writeln!(summary, "  {shape_name} trace, forecast {mode}:");
        let mut ranked: Vec<&score_sim::MatrixCell> = results.cells.iter().collect();
        ranked.sort_by(|a, b| mean_cost(&a.report).total_cmp(&mean_cost(&b.report)));
        for (rank, cell) in ranked.iter().enumerate() {
            let report = &cell.report;
            write_report(
                &format!(
                    "ext_dynamic_{shape_name}_{mode}_{}.json",
                    cell.policy.name()
                ),
                report,
            );
            let point = DynamicPoint {
                shape: shape_name,
                forecast: mode,
                policy: cell.policy,
                initial_cost: report.initial_cost,
                mean_cost: mean_cost(report),
                final_cost: report.final_cost,
                migrations: report.migrations.len(),
                preempted: report.forecast.preempted,
                events_applied: report.trace.events_applied,
                mean_apply_us: report.trace.mean_apply_ns() / 1e3,
            };
            let _ = writeln!(
                csv,
                "{shape_name},{mode},{},{:.6e},{:.6e},{:.6e},{},{},{}",
                point.policy.name(),
                point.initial_cost,
                point.mean_cost,
                point.final_cost,
                point.migrations,
                point.preempted,
                point.events_applied,
            );
            let _ = writeln!(
                summary,
                "    #{} {:<7} mean cost {:>10.3e}  final {:>10.3e}  {:>4} migrations \
                 ({:>3} pre-empted)  {:>4} deltas  {:>6.2} µs/delta",
                rank + 1,
                point.policy.name(),
                point.mean_cost,
                point.final_cost,
                point.migrations,
                point.preempted,
                point.events_applied,
                point.mean_apply_us,
            );
            points.push(point);
        }
    }
    // Reactive-vs-oracle deltas per policy (negative = lookahead won).
    for policy in policies() {
        let pick = |mode: &str| {
            points
                .iter()
                .find(|p| p.shape == shape_name && p.forecast == mode && p.policy == policy)
                .expect("both modes ran")
        };
        let (reactive, oracle) = (pick("none"), pick("oracle"));
        let _ = writeln!(
            summary,
            "    {:<7} oracle/reactive mean-cost ratio {:.4} ({} pre-empted)",
            policy.name(),
            oracle.mean_cost / reactive.mean_cost,
            oracle.preempted,
        );
    }
}

/// The trace shapes `run` replays and their horizon.
fn shapes(paper_scale: bool) -> ([(&'static str, TraceSpec); 2], f64) {
    let num_vms: u32 = if paper_scale { 5120 } else { 256 };
    let horizon = if paper_scale { 700.0 } else { 300.0 };
    let diurnal = TraceSpec::Diurnal {
        num_vms,
        intensity: TrafficIntensity::Sparse,
        seed: 97,
        shape: DiurnalShape {
            period_s: horizon / 2.0,
            amplitude: 0.6,
            step_s: 2.0,
            horizon_s: horizon,
        },
    };
    let flash = TraceSpec::FlashCrowd {
        num_vms,
        intensity: TrafficIntensity::Sparse,
        seed: 97,
        shape: FlashCrowdShape {
            spikes: 18,
            fanout: 8,
            surge_bps: 2e8,
            hold_s: horizon / 8.0,
            horizon_s: horizon,
        },
    };
    ([("diurnal", diurnal), ("flash-crowd", flash)], horizon)
}

/// Every scenario `run` materializes, one per shape × mode.
#[cfg(test)]
pub(crate) fn scenarios(paper_scale: bool) -> Vec<Scenario> {
    let (shapes, horizon) = shapes(paper_scale);
    let cells = shapes.iter().flat_map(|(_, spec)| {
        modes(horizon).map(|(_, forecast)| scenario(spec, forecast, paper_scale))
    });
    cells.collect()
}

/// Runs both trace shapes across the policies, reactive and
/// forecast-aware, and writes `ext_dynamic.csv` (plus one matrix JSON
/// per shape × mode).
pub fn run(paper_scale: bool) -> (Vec<DynamicPoint>, String) {
    let (shapes, horizon) = shapes(paper_scale);
    let mut points = Vec::new();
    let mut csv = String::from(
        "shape,forecast,policy,initial_cost,mean_cost,final_cost,migrations,preempted,\
         events_applied\n",
    );
    let mut summary = String::from(
        "Extension — policy rankings under time-varying traffic, reactive vs forecast-aware\n",
    );
    for (name, spec) in shapes {
        let scale = (horizon, paper_scale);
        run_shape(name, spec, scale, &mut points, &mut csv, &mut summary);
    }
    let _ = writeln!(
        summary,
        "  (every delta is applied in place between token holds; the oracle forecaster \
         reads the compiled delta stream ahead of the event clock — pre-empted \
         migrations cleared Theorem 1 on predicted rates only)"
    );
    let path = write_result("ext_dynamic.csv", &csv);
    let _ = writeln!(summary, "  -> {}", path.display());
    (points, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_traces_rank_policies() {
        let (points, summary) = run(false);
        assert_eq!(points.len(), 16, "2 shapes × 2 modes × 4 policies");
        for p in &points {
            // Every cell replayed well over the acceptance floor of 100
            // mid-run deltas (149 diurnal steps, 288 flash edges).
            assert!(
                p.events_applied >= 100,
                "{} × {} × {} applied only {} deltas",
                p.shape,
                p.forecast,
                p.policy.name(),
                p.events_applied
            );
            assert!(p.mean_cost > 0.0 && p.final_cost > 0.0);
            assert!(
                p.migrations > 0,
                "{} never migrated under {}",
                p.policy.name(),
                p.shape
            );
            // Reactive runs cannot pre-empt, by definition.
            if p.forecast == "none" {
                assert_eq!(p.preempted, 0);
            }
        }
        // The flash-crowd oracle runs act ahead of spikes at least once.
        let preempted: u64 = points
            .iter()
            .filter(|p| p.shape == "flash-crowd" && p.forecast == "oracle")
            .map(|p| p.preempted)
            .sum();
        assert!(preempted > 0, "the oracle never pre-empted a flash crowd");
        assert!(summary.contains("diurnal"));
        assert!(summary.contains("flash-crowd"));
        assert!(summary.contains("oracle/reactive"));
        assert!(summary.contains("µs/delta"));
    }
}
