//! # S-CORE: Scalable Communication-Cost Reduction for cloud data centers
//!
//! A production-quality Rust implementation of **"Scalable Traffic-Aware
//! Virtual Machine Management for Cloud Data Centers"** (Tso, Oikonomou,
//! Kavvadia, Pezaros — IEEE ICDCS 2014).
//!
//! S-CORE dynamically re-allocates VMs through live migration to minimise
//! the network-wide, link-weighted communication cost of pairwise VM
//! traffic. Its defining property is being **fully distributed**: a token
//! circulates among the VMs, and the token holder unilaterally decides —
//! from locally available information only — whether moving to a peer's
//! server reduces the global cost by more than the migration cost
//! (Theorem 1).
//!
//! ## Crate layout
//!
//! * [`cost`] — Eq. (1)/(2) communication costs and the Lemma-3 migration
//!   delta;
//! * [`ledger`] — [`CostLedger`]: the incrementally maintained Eq.-(2)
//!   total (`O(1)` sampling, Lemma-3 delta application, `O(changed
//!   pairs)` traffic rebinds);
//! * [`allocation`] / [`resources`] / [`cluster`] — VM→server assignments
//!   with slot/RAM/CPU/bandwidth capacity enforcement;
//! * [`token`] — the 5-byte-per-entry migration token of §V-B2;
//! * [`policy`] — Round-Robin and Highest-Level-First (Algorithm 1) token
//!   policies;
//! * [`view`] — the holder's local knowledge ([`LocalView`]);
//! * [`outlook`] — [`TrafficOutlook`], the decision input proper: the
//!   local view plus an optional short-horizon per-peer rate forecast
//!   (reactive outlooks reproduce the paper pipeline bit for bit);
//! * [`engine`] — the §V-B5 decision procedure (rank peers, probe
//!   capacity, apply Theorem 1): one [`ScoreEngine::decide`], scored by
//!   the single-pass level-bucketed kernel or a per-candidate sweep
//!   depending on the candidate count;
//! * [`scratch`] — [`DecisionScratch`]: reusable buffers so the
//!   steady-state decision path performs zero heap allocations;
//! * [`ring`] — iteration driver producing the paper's per-iteration
//!   migration statistics.
//!
//! ## Example
//!
//! This crate is the algorithm layer. Most users should declare a
//! `Scenario` in `score_sim` and run a `Session` instead; drop down to
//! this level to drive the ring by hand on custom cluster state.
//! [`TokenRing`] holds its policy as a `Box<dyn TokenPolicy>`, so
//! policies are runtime values (pass any policy to [`TokenRing::new`],
//! or an already-boxed one to [`TokenRing::with_boxed`]):
//!
//! ```
//! use score_core::{
//!     Allocation, Cluster, RoundRobin, ScoreEngine, ServerSpec, TokenRing, VmSpec,
//! };
//! use score_topology::{CanonicalTree, ServerId};
//! use score_traffic::WorkloadConfig;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = Arc::new(CanonicalTree::small());
//! let traffic = WorkloadConfig::new(32, 42).generate();
//! // Traffic-agnostic initial placement: VM v on server v mod 16.
//! let alloc = Allocation::from_fn(32, 16, |vm| ServerId::new(vm.get() % 16));
//! let mut cluster = Cluster::new(
//!     topo,
//!     ServerSpec::paper_default(),
//!     VmSpec::paper_default(),
//!     &traffic,
//!     alloc,
//! )?;
//!
//! let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 32);
//! let stats = ring.run_iterations(3, &mut cluster, &traffic);
//! assert!(stats[0].migrations > 0); // the first sweep finds improvements
//! assert_eq!(ring.policy().name(), "rr"); // the policy is a runtime value
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allocation;
pub mod cluster;
pub mod cost;
pub mod engine;
pub mod ledger;
pub mod netload;
pub mod outlook;
pub mod policy;
pub mod resources;
pub mod ring;
pub mod scratch;
pub mod slotindex;
pub mod token;
pub mod view;

pub use allocation::Allocation;
pub use cluster::{Cluster, ClusterError};
pub use cost::{level_breakdown, CostModel};
pub use engine::{MigrationDecision, ScoreConfig, ScoreEngine, KERNEL_MIN_CANDIDATES};
pub use ledger::CostLedger;
pub use netload::LinkLoadMap;
pub use outlook::{OutlookContext, TrafficOutlook};
pub use policy::{
    ForecastCostFirst, HighestCostFirst, HighestLevelFirst, RandomNext, RoundRobin, TokenPolicy,
};
pub use resources::{AdmissionError, CapacityReport, ServerSpec, ServerUsage, VmSpec};
pub use ring::{IterationStats, StepOutcome, TokenRing};
pub use scratch::{DecisionScratch, KernelScratch};
pub use slotindex::FreeSlotIndex;
pub use token::{Token, TokenCodecError, TokenEntry};
pub use view::{LocalView, PeerInfo};
