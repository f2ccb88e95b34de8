//! The unified run report: every experiment, example and bench reads its
//! results from one machine-readable type.
//!
//! [`RunReport`] carries the cost trajectory (Fig. 3d–i / 4b), the
//! per-iteration migration ratios (Fig. 2), migration overheads
//! (Fig. 5b–d), the link-utilization snapshot (Fig. 4a) and the dom0
//! flow-table operation counts (Fig. 5a context) — and serializes to one
//! JSON format via [`RunReport::to_json`] / [`RunReport::write_json`].

use score_core::IterationStats;
use score_topology::{ServerId, VmId};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

use crate::metrics::UtilizationSnapshot;

/// One migration performed during a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationEvent {
    /// Decision time.
    pub time_s: f64,
    /// The VM that moved.
    pub vm: VmId,
    /// Source server.
    pub from: ServerId,
    /// Destination server.
    pub to: ServerId,
    /// Lemma-3 gain of the move under the TM at decision time (what
    /// the cost ledger absorbed; ≤ 0 for pre-emptive moves).
    pub gain: f64,
    /// The gain the decision was ranked on, at the expected rates
    /// (equals `gain` for reactive decisions). The per-move
    /// predicted-vs-actual spread is the forecaster's scorecard.
    pub predicted_gain: f64,
    /// Bytes moved by pre-copy.
    pub bytes: f64,
    /// Total migration duration in seconds.
    pub duration_s: f64,
    /// Stop-and-copy downtime in seconds.
    pub downtime_s: f64,
}

/// Dom0 flow-table operation counts implied by a run: every token hold
/// aggregates the local flow table once (§V-B1), and every migration
/// reinstalls flow rules at the source and destination dom0s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowTableOps {
    /// Whole-table aggregation passes (one per token hold).
    pub aggregations: u64,
    /// Flow-rule reinstallations (two per migration).
    pub rule_updates: u64,
}

impl FlowTableOps {
    /// Total flow-table operations.
    pub fn total(&self) -> u64 {
        self.aggregations + self.rule_updates
    }
}

/// Bookkeeping of trace-driven traffic deltas applied during a run:
/// how many event batches fired and how many pairs they re-priced. All
/// zeros for static workloads. A session reads no clock, so every field
/// is simulated state and a report is byte-stable across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceReplayStats {
    /// Trace delta batches applied mid-run.
    pub events_applied: u64,
    /// Live pairs whose effective rate changed, summed over all batches.
    /// For sparse batches the ledger work is `O(this)`; a uniform
    /// `ScaleAll` changes every live pair's rate and counts them all,
    /// though it re-prices none of them individually.
    pub pairs_repriced: u64,
    /// Always 0: a session times no batch. Kept, with the JSON key, only
    /// for its two readers, `benchmark/src/sim_workloads.rs:40`
    /// (`report_hash`) and `:633` (replay `sim.loop_overhead_ns`);
    /// ROADMAP item 5(e) drops those reads, and then the field goes.
    #[doc(hidden)]
    pub apply_ns_total: u64,
    /// Always 0; see `apply_ns_total`.
    #[doc(hidden)]
    pub apply_ns_max: u64,
}

impl TraceReplayStats {
    /// Counts one applied batch that changed `pairs` rates.
    pub(crate) fn count_batch(&mut self, pairs: usize) {
        self.events_applied += 1;
        self.pairs_repriced += pairs as u64;
    }
}

/// Pre-empted-vs-reactive migration counts under a forecasting
/// pipeline: a *pre-emptive* migration cleared Theorem 1 only on the
/// expected rates (the current TM alone would not have
/// justified it — the move anticipates a shift instead of chasing one);
/// a *reactive* migration cleared it on current rates. Without an
/// active `ForecastSpec` every migration is reactive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ForecastStats {
    /// Migrations justified by the forecast alone.
    pub preempted: u64,
    /// Migrations the current TM already justified.
    pub reactive: u64,
    /// Per-pair forecast evaluations scored this segment: each predicted
    /// rate at the lookahead horizon that came due and was compared
    /// against the realized rate (0 without an active nonzero-horizon
    /// forecast).
    pub error_samples: u64,
    /// Mean absolute error of predicted vs realized pair rates over
    /// `error_samples` (0 when none were scored).
    pub mae: f64,
    /// Mean signed error (predicted − realized) over `error_samples`:
    /// positive means the forecaster overshoots, negative undershoots.
    pub bias: f64,
}

/// Recovery accounting of the adversity engine: what faults hit the
/// run and how the re-planning pipeline absorbed them. All zeros for a
/// fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Fault events applied: one per `HostCrash` / `RackFail` /
    /// `LinkDegrade` / `LinkRestore` (a `RackFail` counts once, however
    /// many hosts it takes down).
    pub faults_injected: u64,
    /// Hosts marked down at report time.
    pub hosts_down: u32,
    /// Evacuation migrations forced by host/rack failures (distinct
    /// from Theorem-1 migrations: these preserve liveness, not cost).
    pub evacuations: u64,
    /// VMs retired because no live server could admit them during an
    /// evacuation.
    pub unplaceable_vms: u64,
    /// Seconds from the last injected fault to the last migration at or
    /// after it — the time the placement needed to stop moving again.
    /// 0 when no fault fired or nothing migrated afterwards.
    pub time_to_stable_s: f64,
    /// Simulated seconds sampled while the cluster was in a degraded
    /// state (any host down, or any link tier degraded).
    pub slo_violating_s: f64,
}

impl RecoveryStats {
    /// True when no fault ever touched the run.
    pub fn is_clean(&self) -> bool {
        self.faults_injected == 0
    }
}

/// Unified result of one [`crate::Session`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Fabric name (e.g. `canonical-tree`).
    pub topology: String,
    /// Policy name (e.g. `hlf`).
    pub policy: String,
    /// `(time, Eq.-(2) cost)` samples.
    pub cost_series: Vec<(f64, f64)>,
    /// Cost at t = 0.
    pub initial_cost: f64,
    /// Cost when the report was taken.
    pub final_cost: f64,
    /// All migrations in decision order.
    pub migrations: Vec<MigrationEvent>,
    /// Per-iteration (|V| token holds) migration statistics — the Fig. 2
    /// series.
    pub iterations: Vec<IterationStats>,
    /// Migrated-VM ratio per iteration (`iterations[i].migration_ratio()`
    /// precomputed for plotting).
    pub migration_ratios: Vec<f64>,
    /// Token holds executed.
    pub token_holds: usize,
    /// Share of pairwise traffic mass at each communication level under
    /// the final placement (`level_breakdown[ℓ]`, summing to 1 for
    /// non-empty traffic) — the mass S-CORE physically pushes down the
    /// hierarchy.
    pub level_breakdown: Vec<f64>,
    /// Link-utilization snapshot at report time (Fig. 4a ingredient).
    pub link_utilization: UtilizationSnapshot,
    /// Flow-table operation counts implied by the run.
    pub flow_table: FlowTableOps,
    /// Trace-replay bookkeeping (all zeros for static workloads).
    pub trace: TraceReplayStats,
    /// Pre-empted-vs-reactive migration counts (all migrations are
    /// reactive without an active forecast).
    pub forecast: ForecastStats,
    /// Recovery accounting of the adversity engine (all zeros for a
    /// fault-free run).
    pub recovery: RecoveryStats,
}

impl RunReport {
    /// Total migration bytes.
    pub fn total_migration_bytes(&self) -> f64 {
        self.migrations.iter().map(|m| m.bytes).sum()
    }

    /// Total VM downtime across all migrations.
    pub fn total_downtime_s(&self) -> f64 {
        self.migrations.iter().map(|m| m.downtime_s).sum()
    }

    /// Fractional communication-cost reduction achieved:
    /// `1 − final/initial`.
    pub fn cost_reduction(&self) -> f64 {
        if self.initial_cost == 0.0 {
            0.0
        } else {
            1.0 - self.final_cost / self.initial_cost
        }
    }

    /// Cost series normalised by a baseline cost (the "communication cost
    /// ratio" y-axis of Fig. 3d–i, with the GA-optimal as baseline).
    ///
    /// # Panics
    ///
    /// Panics if `baseline_cost` is not positive.
    pub fn ratio_series(&self, baseline_cost: f64) -> Vec<(f64, f64)> {
        assert!(baseline_cost > 0.0, "baseline cost must be positive");
        self.cost_series
            .iter()
            .map(|&(t, c)| (t, c / baseline_cost))
            .collect()
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialization is infallible")
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the report as pretty JSON to `dir/name`, creating the
    /// directory — the one machine-readable format every experiment
    /// emits.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json(&self, dir: &Path, name: &str) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(name);
        std::fs::write(&path, self.to_json_pretty())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            topology: "canonical-tree".into(),
            policy: "hlf".into(),
            cost_series: vec![(0.0, 100.0), (5.0, 80.0), (10.0, 50.0)],
            initial_cost: 100.0,
            final_cost: 50.0,
            migrations: vec![
                MigrationEvent {
                    time_s: 1.0,
                    vm: VmId::new(3),
                    from: ServerId::new(0),
                    to: ServerId::new(1),
                    gain: 20.0,
                    predicted_gain: 20.0,
                    bytes: 1e8,
                    duration_s: 3.0,
                    downtime_s: 0.01,
                },
                MigrationEvent {
                    time_s: 2.0,
                    vm: VmId::new(5),
                    from: ServerId::new(1),
                    to: ServerId::new(2),
                    gain: 30.0,
                    predicted_gain: 35.0,
                    bytes: 2e8,
                    duration_s: 4.0,
                    downtime_s: 0.02,
                },
            ],
            iterations: vec![IterationStats {
                steps: 8,
                migrations: 2,
                total_gain: 50.0,
            }],
            migration_ratios: vec![0.25],
            token_holds: 8,
            level_breakdown: vec![0.5, 0.25, 0.15, 0.1],
            link_utilization: UtilizationSnapshot {
                core: vec![0.1, 0.2],
                aggregation: vec![0.05],
                edge: vec![0.01],
            },
            flow_table: FlowTableOps {
                aggregations: 8,
                rule_updates: 4,
            },
            trace: TraceReplayStats::default(),
            forecast: ForecastStats {
                preempted: 1,
                reactive: 1,
                ..ForecastStats::default()
            },
            recovery: RecoveryStats::default(),
        }
    }

    #[test]
    fn recovery_stats_round_trip() {
        let mut r = sample_report();
        r.recovery = RecoveryStats {
            faults_injected: 4,
            hosts_down: 2,
            evacuations: 7,
            unplaceable_vms: 1,
            time_to_stable_s: 12.5,
            slo_violating_s: 40.0,
        };
        assert!(!r.recovery.is_clean());
        assert!(RecoveryStats::default().is_clean());
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn trace_stats_aggregates() {
        let mut stats = TraceReplayStats::default();
        stats.count_batch(30);
        stats.count_batch(0);
        stats.count_batch(10);
        assert_eq!(
            stats,
            TraceReplayStats {
                events_applied: 3,
                pairs_repriced: 40,
                apply_ns_total: 0,
                apply_ns_max: 0,
            }
        );
    }

    #[test]
    fn aggregates() {
        let r = sample_report();
        assert_eq!(r.total_migration_bytes(), 3e8);
        assert!((r.total_downtime_s() - 0.03).abs() < 1e-12);
        assert!((r.cost_reduction() - 0.5).abs() < 1e-12);
        assert_eq!(r.flow_table.total(), 12);
    }

    #[test]
    fn ratio_series_normalises() {
        let r = sample_report();
        let ratios = r.ratio_series(50.0);
        assert_eq!(ratios.last().unwrap().1, 1.0);
        assert_eq!(ratios[0].1, 2.0);
    }

    #[test]
    #[should_panic(expected = "baseline cost must be positive")]
    fn ratio_series_rejects_zero_baseline() {
        let _ = sample_report().ratio_series(0.0);
    }

    #[test]
    fn json_round_trip() {
        let r = sample_report();
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        let back = RunReport::from_json(&r.to_json_pretty()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn write_json_creates_file() {
        let dir = std::env::temp_dir().join("score_report_test");
        let r = sample_report();
        let path = r.write_json(&dir, "run.json").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(RunReport::from_json(&text).unwrap(), r);
        std::fs::remove_file(path).ok();
    }
}
