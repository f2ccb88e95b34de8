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
//! * hand-rolled distributions (log-normal, bounded Pareto, exponential) in
//!   [`dist`].
//!
//! # Examples
//!
//! ```
//! use score_traffic::{sparse_workload, TrafficMatrix};
//! use score_topology::{RackId, VmId};
//!
//! let traffic = sparse_workload(400, 42);
//! // Aggregate to a 20-rack TM with a trivial placement: VM v on rack v/20.
//! let tm = TrafficMatrix::from_pairs(20, &traffic, |v| RackId::new(v.get() / 20));
//! assert!(tm.is_symmetric(1e-9));
//! assert!(tm.total() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cbr;
pub mod dist;
pub mod estimator;
pub mod flows;
pub mod forecast;
pub mod generator;
pub mod matrix;
pub mod pairwise;

pub use cbr::{residual_bandwidth, CbrLoad};
pub use estimator::RateEstimator;
pub use flows::{Flow, FlowSampler, ELEPHANT_THRESHOLD_BPS};
pub use forecast::{predicted_traffic, EwmaForecaster, RateForecaster};
pub use generator::{
    dense_workload, medium_workload, sparse_workload, TrafficIntensity, WorkloadConfig,
};
pub use matrix::TrafficMatrix;
pub use pairwise::{PairTraffic, PairTrafficBuilder};
