//! Xen-testbed substitute for the S-CORE reproduction (paper §V-B, §VI-C).
//!
//! The paper implements S-CORE inside dom0 of the Xen hypervisor and
//! evaluates migration overheads on a physical testbed. This crate
//! reproduces the pieces of that deployment that the evaluation depends
//! on, as calibrated models:
//!
//! * [`livemig`] — the pre-copy live-migration model (Clark et al.,
//!   NSDI'05) with dirty-page feedback, producing the migrated-bytes
//!   distribution (Fig. 5b), total migration times (Fig. 5c) and
//!   stop-and-copy downtimes (Fig. 5d) under CBR background load;
//! * [`testbed`] — harnesses running the Fig. 5 experimental designs.
//!
//! Substitution note: we do not have the paper's Intel P4 testbed; the
//! model's constants are calibrated to the paper's published measurements
//! (127 ± 11 MB migrated, 2.94 s / 4.29 s / 9.34 s total times, < 50 ms
//! downtime) and its *mechanisms* (geometric pre-copy rounds,
//! stop-and-copy residue) are implemented faithfully, so the shape of
//! every Fig. 5 curve derives from mechanism, not curve-fitting.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod livemig;
pub mod testbed;

pub use livemig::{
    migration_throughput_fraction, MigrationSample, PreCopyConfig, PreCopyModel, SummaryStats,
};
pub use testbed::{load_sweep, migrated_bytes_histogram, HistogramBin, SweepPoint};
