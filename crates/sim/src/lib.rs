//! Flow-level discrete-event data-center simulator for S-CORE — the
//! reproduction's stand-in for the paper's ns-3 environment (§VI) — and
//! the **`Scenario`/`Session` experiment API** every binary, example and
//! bench in this repository runs through.
//!
//! * [`spec`] — [`Scenario`]: a fully serde-round-trippable experiment
//!   description (`TopologySpec` × `WorkloadSpec` × `PlacementSpec` ×
//!   `PolicySpec` × `EngineSpec` × `ForecastSpec` × `TimingSpec`), with
//!   builder and paper presets;
//! * [`session`] — [`Session`]: the materialized cluster + token ring +
//!   event clock, advanced with `step`/`run`/`run_to_horizon`; costs are
//!   sampled from an incremental `CostLedger` in `O(1)`;
//! * [`matrix`] — [`ScenarioMatrix`]: policy × topology × intensity
//!   (× engine) sweeps collected into one [`MatrixReport`] with a
//!   single JSON writer; [`MatrixRunner`] fans the cells out onto
//!   scoped worker threads with bit-identical results;
//! * [`report`] — [`RunReport`]: one unified, JSON-serializable result
//!   format (cost trajectory, migration ratios, link utilization,
//!   flow-table ops);
//! * [`events`] — the deterministic discrete-event queue;
//! * [`metrics`] — utilization CDF snapshots (Fig. 4a), CSV and ASCII
//!   plotting helpers.
//!
//! # Example
//!
//! ```
//! use score_sim::{PolicyKind, Scenario};
//! use score_traffic::TrafficIntensity;
//!
//! let scenario = Scenario::builder()
//!     .canonical_tree(32, 5)
//!     .sparse_traffic(7)
//!     .policy(PolicyKind::HighestLevelFirst)
//!     .horizon(60.0)
//!     .build();
//! let mut session = scenario.session().unwrap();
//! session.run_to_horizon();
//! let report = session.report();
//! assert!(report.final_cost <= report.initial_cost);
//! // The spec round-trips through JSON; the report serializes too.
//! assert_eq!(Scenario::from_json(&scenario.to_json()).unwrap(), scenario);
//! let _json = report.to_json();
//! # let _ = TrafficIntensity::Sparse;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod events;
pub mod matrix;
pub mod metrics;
pub mod report;
pub mod session;
pub mod spec;

pub use events::{EventQueue, SimEvent};
pub use matrix::{MatrixCell, MatrixReport, MatrixRunner, RunLength, ScenarioMatrix};
pub use metrics::{ascii_chart, jain_fairness, series_to_csv, UtilizationSnapshot};
pub use report::{
    FlowTableOps, ForecastStats, HypervisorStats, MigrationEvent, RecoveryStats, RunReport,
    TraceReplayStats,
};
pub use session::{FaultOutcome, Session};
pub use spec::{
    EngineSpec, ForecastSpec, PlacementSpec, PolicyKind, PolicySpec, ResourceSpec, Scenario,
    ScenarioBuilder, ScenarioError, TimingSpec, TopologyKind, TopologySpec, TraceSpec,
    WorkloadSpec,
};
