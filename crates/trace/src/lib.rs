//! Trace-driven time-varying workloads for the S-CORE reproduction.
//!
//! The paper evaluates S-CORE "under realistic DC load patterns at
//! increasing intensities" — but real DC load is not a static snapshot:
//! it drifts diurnally, spikes under flash crowds, and churns at flow
//! granularity. This crate models such workloads as a **time-ordered
//! stream of traffic deltas** instead of one fixed matrix:
//!
//! * [`Trace`] / [`TraceEvent`] — the event stream: absolute re-rates
//!   (`SetRate`), multiplicative drift (`ScaleAll` / `ScalePair`) and
//!   phase markers over an initial base TM;
//! * [`Trace::to_jsonl`] / [`Trace::from_jsonl`] — a line-oriented
//!   persistence format (header line + one JSON object per event) that
//!   appends and diffs cleanly;
//! * [`Trace::compile`] — folds the stream into [`CompiledTrace`]
//!   segments: per marker interval, the exact `PairTraffic` at segment
//!   start plus a [`ShiftRun`] of one in-segment [`DeltaBatch`] per
//!   event — canonical `(u, v, new_rate)` updates ready for a sparse
//!   O(changed-pairs) rebind path (all of a segment's in one flat store
//!   the batches name ranges of), or a uniform `ScaleAll` factor applied
//!   in O(1);
//! * [`diurnal_trace`] / [`flash_crowd_trace`] / [`churn_trace`] —
//!   deterministic synthetic generators for the three canonical
//!   time-varying patterns (sine drift, hot-set spikes, and
//!   mice/elephant flow churn built on `score_traffic::FlowSampler`);
//! * [`OracleForecaster`] — exact short-horizon lookahead into the
//!   compiled delta stream (the `score_traffic::RateForecaster` every
//!   online estimator is judged against);
//! * [`TraceRecorder`] — captures the deltas a live run applied back
//!   into a replayable trace, a uniform scale as the one `ScaleAll` it
//!   was (incremental JSONL append included).
//!
//! The simulator counterpart lives in `score_sim`: a
//! `WorkloadSpec::Trace` scenario materializes into a session whose
//! event clock interleaves these deltas with token holds, re-pricing
//! the cost ledger per changed pair (a `ScaleAll` scales it whole).
//!
//! # Example
//!
//! ```
//! use score_trace::{diurnal_trace, DiurnalShape, Trace, TraceEvent, TrafficDelta};
//! use score_traffic::sparse_workload;
//!
//! // A day/night cycle over a synthetic base TM, deterministic.
//! let base = sparse_workload(64, 42);
//! let shape = DiurnalShape { period_s: 200.0, amplitude: 0.4, step_s: 10.0, horizon_s: 400.0 };
//! let trace = diurnal_trace(&base, &shape).unwrap();
//! assert_eq!(trace.num_events(), 39);
//!
//! // Traces persist as JSONL and round-trip exactly.
//! let back = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
//! assert_eq!(back, trace);
//!
//! // Compilation yields replayable segments with one batch per event:
//! // a diurnal step stays a single uniform scale however many pairs
//! // the TM holds.
//! let compiled = back.compile();
//! assert_eq!(compiled.segments.len(), 1);
//! assert_eq!(compiled.num_shifts(), 39);
//! assert_eq!(compiled.segments[0].initial, base);
//! let TraceEvent::ScaleAll { factor } = back.events()[0].event else {
//!     unreachable!("diurnal traces are ScaleAll streams");
//! };
//! assert_eq!(
//!     compiled.segments[0].shifts[0].delta,
//!     TrafficDelta::ScaleAll(factor)
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod jsonl;
pub mod oracle;
pub mod recorder;
pub mod synth;
pub mod trace;

pub use oracle::OracleForecaster;
pub use recorder::TraceRecorder;
pub use synth::{
    churn_trace, diurnal_trace, fault_storm_events, fault_storm_trace, flash_crowd_trace,
    ChurnShape, DiurnalShape, FaultSpec, FlashCrowdShape,
};
pub use trace::{
    scaled_rate, CompiledTrace, DeltaBatch, ShiftRun, TimedEvent, Trace, TraceBuilder, TraceError,
    TraceEvent, TraceSegment, TrafficDelta, UpdateRange,
};
