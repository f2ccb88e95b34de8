//! `scored`: the long-running S-CORE placement daemon.
//!
//! The batch pipeline (`scorectl run`) answers "what would this
//! workload cost"; `scored` answers "what does *my cluster* cost right
//! now". It wraps one [`score_sim::Session`] per tenant in an
//! always-on event loop: the token ring keeps circulating on the event
//! clock between requests (paced against wall time), while clients
//! mutate the live cluster over a line-delimited JSON socket protocol
//! — placing and removing VMs, re-rating traffic with the trace-event
//! encoding, pausing, subscribing, and pulling reports.
//!
//! Three layers:
//!
//! * [`proto`] — the wire protocol ([`Request`] / [`Response`] lines).
//! * [`engine`] — [`TenantEngine`], the drained-boundary mutation and
//!   pacing core, plus the [`replay_trace`] / [`replay_dir`] side that
//!   reproduces a recorded daemon session byte for byte.
//! * [`daemon`] — the socket front end: listeners, per-tenant worker
//!   threads, subscriber fan-out, graceful shutdown.
//!
//! The headline guarantee is **replayability**: every mutation is
//! applied at a drained event boundary and appended to an audit trace;
//! `scorectl replay` of a recorded session reproduces the live run's
//! final report byte for byte.

pub mod daemon;
pub mod engine;
pub mod proto;

pub use daemon::{Daemon, DaemonConfig};
pub use engine::{canonical_report_json, replay_dir, replay_trace, Applied, Faulted, TenantEngine};
pub use proto::{parse_request, response_line, Request, Response};
