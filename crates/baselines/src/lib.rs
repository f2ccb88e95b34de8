//! Baseline VM placement/management algorithms for the S-CORE
//! reproduction.
//!
//! The paper evaluates S-CORE against:
//!
//! * a **GA approximate-optimal** allocation (§VI-A): population 1000,
//!   edge-assembly crossover, tournament selection, rack-swap mutation,
//!   stopping below 1% improvement over 10 generations —
//!   [`GeneticOptimizer`];
//! * **Remedy** (§VI-B, ref. \[15\]): a centralized, OpenFlow-based,
//!   utilization-balancing VM manager — [`Remedy`];
//! * traffic-agnostic initial placements (random / shuffled-packed) —
//!   [`placement`].
//!
//! Additionally:
//!
//! * [`exhaustive`] provides a provably optimal branch-and-bound search for
//!   tiny instances, used to validate the GA and S-CORE;
//! * [`reduction`] implements the paper's appendix — the Graph-Partitioning
//!   → OVMA NP-completeness reduction — as executable, tested code.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exhaustive;
pub mod ga;
pub mod placement;
pub mod reduction;
pub mod remedy;

pub use exhaustive::{exhaustive_optimal, ExhaustiveResult, MAX_STATES};
pub use ga::{GaConfig, GaResult, GeneticOptimizer};
pub use placement::{random_placement, respects_slots, shuffled_packed_placement};
pub use reduction::{
    min_cost_brute_force, min_cut_brute_force, reduce, verify_reduction, GraphPartitionInstance,
    OvmaInstance,
};
pub use remedy::{remedy_cost_reduction, Remedy, RemedyConfig, RemedyResult, RemedyStep};
