//! Data-center network topologies for the S-CORE reproduction.
//!
//! This crate provides the network substrate that every other `score-*`
//! crate builds on:
//!
//! * strongly-typed identifiers ([`VmId`], [`ServerId`], [`RackId`], …) and
//!   the communication [`Level`] (`ℓ = hops / 2`, paper §II);
//! * per-layer link weights [`LinkWeights`] with the paper's
//!   `c1 = e⁰, c2 = e¹, c3 = e³` default and precomputed prefix sums;
//! * the [`Topology`] trait with two concrete three-layer topologies used in
//!   the paper's evaluation: the [`CanonicalTree`] (2560 hosts, 128 ToR, 20
//!   hosts/rack) and the [`FatTree`] (`k = 16`, 1024 hosts);
//! * an explicit [`NetGraph`] per topology for link-utilization accounting
//!   and BFS cross-validation;
//! * the location-cost mapping ([`Topology::level`], precomputed as
//!   [`LevelBuckets`]) that lets S-CORE determine communication levels
//!   from information available locally (paper §V-B4).
//!
//! # Examples
//!
//! ```
//! use score_topology::{CanonicalTree, LinkWeights, Level, ServerId, Topology};
//!
//! let topo = CanonicalTree::small();
//! let weights = LinkWeights::paper_default();
//!
//! // VMs in different aggregation groups communicate at level 3 (core).
//! let level = topo.level(ServerId::new(0), ServerId::new(8));
//! assert_eq!(level, Level::CORE);
//!
//! // One unit of traffic at that level costs 2 * (c1 + c2 + c3).
//! let per_unit = weights.pair_cost_per_unit(level);
//! assert!(per_unit > 2.0 * weights.pair_cost_per_unit(Level::RACK) / 2.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod api;
pub mod fattree;
pub mod graph;
pub mod ids;
pub mod star;
pub mod tree;
pub mod weights;

pub use api::{checks, LevelBuckets, RouteShare, ServerCoords, Topology};
pub use fattree::{FatTree, FatTreeBuilder};
pub use graph::{Link, NetGraph, Node, NodeKind};
pub use ids::{Level, LinkId, NodeId, PodId, RackId, ServerId, VmId};
pub use star::StarTopology;
pub use tree::{BuildError, CanonicalTree, CanonicalTreeBuilder, LinkCapacities};
pub use weights::{LinkWeights, WeightsError};
