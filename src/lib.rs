//! # s-core — facade crate for the S-CORE reproduction
//!
//! One-stop import for the full reproduction of **"Scalable Traffic-Aware
//! Virtual Machine Management for Cloud Data Centers"** (Tso, Oikonomou,
//! Kavvadia, Pezaros — IEEE ICDCS 2014):
//!
//! * [`topology`] — canonical-tree / fat-tree / star DC fabrics, levels,
//!   link weights;
//! * [`traffic`] — synthetic DC workloads (sparse/medium/dense), traffic
//!   matrices, flows, CBR;
//! * [`flowtable`] — the dom0 flow-monitoring table;
//! * [`core`] — the S-CORE algorithm: cost model, token, RR/HLF policies,
//!   decision engine, cluster state;
//! * [`baselines`] — GA approximate-optimal, Remedy, naive placements, the
//!   NP-completeness reduction;
//! * [`xen`] — pre-copy live-migration model and the Fig. 5 testbed
//!   harnesses;
//! * [`trace`] — trace-driven time-varying workloads: traffic-delta
//!   event streams, JSONL persistence, synthetic generators;
//! * [`obs`] — metrics + decision-journal telemetry, attachable to any
//!   session or daemon without perturbing results;
//! * [`sim`] — the flow-level discrete-event simulator and the
//!   `Scenario`/`Session` experiment API.
//!
//! ## Quickstart
//!
//! Every experiment is two moves: *declare* a [`sim::Scenario`] (builder,
//! preset, or JSON — the spec is fully serde-round-trippable), then
//! *materialize* it into a [`sim::Session`] and run:
//!
//! ```
//! use s_core::sim::{PolicyKind, Scenario};
//!
//! let scenario = Scenario::builder()
//!     .canonical_tree(32, 5)
//!     .sparse_traffic(42)
//!     .policy(PolicyKind::HighestLevelFirst)
//!     .horizon(60.0)
//!     .build();
//!
//! let mut session = scenario.session().expect("scenario is feasible");
//! session.run_to_horizon();
//! let report = session.report();
//! println!(
//!     "communication cost: {:.3e} -> {:.3e} ({} migrations)",
//!     report.initial_cost,
//!     report.final_cost,
//!     report.migrations.len()
//! );
//! assert!(report.final_cost <= report.initial_cost);
//!
//! // The spec round-trips through JSON, and the report serializes to the
//! // same machine-readable format every experiment binary emits.
//! assert_eq!(Scenario::from_json(&scenario.to_json()).unwrap(), scenario);
//! let _json = report.to_json();
//! ```
//!
//! See `examples/` for richer scenarios (dynamic workloads, custom
//! fabrics, `c_m` sweeps) and `crates/experiments` for the binaries
//! regenerating every figure of the paper.

pub use score_baselines as baselines;
pub use score_core as core;
pub use score_flowtable as flowtable;
pub use score_obs as obs;
pub use score_sim as sim;
pub use score_topology as topology;
pub use score_trace as trace;
pub use score_traffic as traffic;
pub use score_xen as xen;
