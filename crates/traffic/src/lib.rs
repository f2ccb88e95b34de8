//! Synthetic data-center traffic for the S-CORE reproduction.
//!
//! This crate is the stand-in for the paper's custom "DC traffic generator"
//! (§VI) that produced workloads "under realistic DC load patterns at
//! increasing intensities" calibrated to published measurement studies.
//! It provides:
//!
//! * pairwise VM loads λ(u, v) with per-VM peer sets ([`PairTraffic`]) — the
//!   local information S-CORE's migration condition consumes;
//! * a clustered, hotspot-skewed workload generator with the paper's
//!   sparse / medium (×10) / dense (×50) intensities
//!   ([`WorkloadConfig`], [`TrafficIntensity`]);
//! * ToR-to-ToR traffic matrices for the Fig. 3a–c heatmaps
//!   ([`TrafficMatrix`]);
//! * discrete flow instantiation with long-tail mice/elephant structure
//!   ([`FlowSampler`], [`Flow`]);
//! * short-horizon per-pair rate forecasting for the forecast-aware
//!   decision pipeline ([`RateForecaster`], [`EwmaForecaster`]);
//! * CBR background load for the migration experiments ([`CbrLoad`]);
//! * hand-rolled distributions (log-normal, bounded Pareto) in [`dist`].
//!
//! # Examples
//!
//! ```
//! use score_traffic::{TrafficMatrix, WorkloadConfig};
//! use score_topology::RackId;
//!
//! let traffic = WorkloadConfig::new(400, 42).generate();
//! // Aggregate to a 20-rack TM with a trivial placement: VM v on rack v/20.
//! let tm = TrafficMatrix::from_pairs(20, &traffic, |v| RackId::new(v.get() / 20));
//! assert_eq!(tm.get(0, 1), tm.get(1, 0));
//! assert!(tm.total() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cbr;
pub mod dist;
pub mod flows;
pub mod forecast;
pub mod generator;
pub mod matrix;
pub mod pairwise;

pub use cbr::CbrLoad;
pub use flows::{Flow, FlowSampler, ELEPHANT_THRESHOLD_BPS};
pub use forecast::{EwmaForecaster, RateForecaster};
pub use generator::{TrafficIntensity, WorkloadConfig};
pub use matrix::TrafficMatrix;
pub use pairwise::{PairTraffic, PairTrafficBuilder};
