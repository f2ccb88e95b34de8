//! Hypervisor-resident flow monitoring for S-CORE (paper §V-B1).
//!
//! In the paper's Xen deployment, dom0 maintains a flow table fed by
//! periodically polling Open vSwitch datapath statistics. The table answers
//! the questions the token holder asks before a migration decision: *which
//! peers does this VM talk to and at what aggregate rate* (§V-B3).
//!
//! This crate reproduces that module:
//!
//! * [`FlowKey`] / [`Protocol`] — 5-tuple flow identification;
//! * [`FlowTable`] — add/update/lookup/delete with a by-IP secondary index,
//!   byte counters and timestamps;
//! * [`benchset`] — the type-1/type-2 million-flow stress sets of Fig. 5a.
//!
//! The simulator's decisions read per-pair rates from
//! `score_traffic::PairTraffic` directly; the table's by-IP index is what
//! Fig. 5a times.
//!
//! # Examples
//!
//! ```
//! use std::net::Ipv4Addr;
//! use score_flowtable::{FlowKey, FlowTable};
//!
//! let mut table = FlowTable::new();
//! let vm = Ipv4Addr::new(10, 0, 0, 1);
//! let peer = Ipv4Addr::new(10, 0, 1, 1);
//! table.record(FlowKey::tcp(vm, 40_000, peer, 80), 1_000_000, 800, 0.0);
//!
//! // A migration decision for `vm` drops every flow it is part of.
//! assert_eq!(table.flows_by_ip(peer).count(), 1);
//! assert_eq!(table.clear_ip(vm), 1);
//! assert!(table.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod benchset;
pub mod key;
pub mod table;

pub use benchset::{paper_type2_flows, type1_flows, TYPE2_GROUP};
pub use key::{FlowKey, Protocol};
pub use table::{FlowRecord, FlowTable};
