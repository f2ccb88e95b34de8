//! Thread-safe flow table for concurrent dom0 components.
//!
//! In the Xen deployment the table is written by the Open vSwitch polling
//! loop while the token listener reads it to make migration decisions.
//! [`SharedFlowTable`] wraps [`FlowTable`] in a `std::sync::RwLock` and
//! exposes the handful of operations each side needs.

use crate::key::FlowKey;
use crate::table::{FlowRecord, FlowTable};
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A cheaply clonable, thread-safe handle to a [`FlowTable`].
#[derive(Debug, Clone, Default)]
pub struct SharedFlowTable {
    inner: Arc<RwLock<FlowTable>>,
}

impl SharedFlowTable {
    /// Creates an empty shared table.
    pub fn new() -> Self {
        SharedFlowTable::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, FlowTable> {
        self.inner
            .read()
            .expect("a thread panicked while writing the flow table")
    }

    fn write(&self) -> RwLockWriteGuard<'_, FlowTable> {
        self.inner
            .write()
            .expect("a thread panicked while writing the flow table")
    }

    /// Records a flow sample (see [`FlowTable::record`]).
    pub fn record(&self, key: FlowKey, bytes: u64, packets: u64, now_s: f64) -> bool {
        self.write().record(key, bytes, packets, now_s)
    }

    /// Applies a batch of samples under a single write lock — how the
    /// datapath poller commits one polling round.
    pub fn record_batch<I>(&self, samples: I, now_s: f64) -> usize
    where
        I: IntoIterator<Item = (FlowKey, u64, u64)>,
    {
        let mut table = self.write();
        let mut added = 0;
        for (key, bytes, packets) in samples {
            if table.record(key, bytes, packets, now_s) {
                added += 1;
            }
        }
        added
    }

    /// Copies one record out of the table.
    pub fn get(&self, key: &FlowKey) -> Option<FlowRecord> {
        self.read().get(key).copied()
    }

    /// Removes one flow.
    pub fn remove(&self, key: &FlowKey) -> Option<FlowRecord> {
        self.write().remove(key)
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True if no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Aggregate per-peer rates for `local` (see
    /// [`FlowTable::aggregate_peer_rates`]).
    pub fn aggregate_peer_rates(
        &self,
        local: Ipv4Addr,
        now_s: f64,
        min_age_s: f64,
    ) -> Vec<(Ipv4Addr, f64)> {
        self.read().aggregate_peer_rates(local, now_s, min_age_s)
    }

    /// Clears all flows touching `ip` after a migration decision.
    pub fn clear_ip(&self, ip: Ipv4Addr) -> usize {
        self.write().clear_ip(ip)
    }

    /// Runs `f` with read access to the full table (for snapshots and
    /// custom queries).
    pub fn with_read<R>(&self, f: impl FnOnce(&FlowTable) -> R) -> R {
        f(&self.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn batch_commit() {
        let table = SharedFlowTable::new();
        let added = table.record_batch(
            (0..100u16).map(|p| (FlowKey::tcp(ip(1), p, ip(2), 80), 100, 1)),
            0.0,
        );
        assert_eq!(added, 100);
        assert_eq!(table.len(), 100);
        // Re-recording the same keys adds no new flows.
        let added = table.record_batch(
            (0..100u16).map(|p| (FlowKey::tcp(ip(1), p, ip(2), 80), 100, 1)),
            1.0,
        );
        assert_eq!(added, 0);
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let table = SharedFlowTable::new();
        let writers: Vec<_> = (0..4u8)
            .map(|w| {
                let t = table.clone();
                thread::spawn(move || {
                    for p in 0..500u16 {
                        t.record(FlowKey::tcp(ip(w + 1), p, ip(100), 80), 10, 1, 0.0);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let t = table.clone();
                thread::spawn(move || {
                    for _ in 0..200 {
                        let _ = t.aggregate_peer_rates(ip(100), 10.0, 0.0);
                        let _ = t.len();
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        assert_eq!(table.len(), 4 * 500);
        assert!(table.with_read(|t| t.index_is_consistent()));
    }

    #[test]
    fn shared_semantics_match_plain_table() {
        let table = SharedFlowTable::new();
        let k = FlowKey::tcp(ip(1), 1, ip(2), 80);
        table.record(k, 1000, 1, 0.0);
        table.record(k, 1000, 1, 5.0);
        assert_eq!(table.get(&k).unwrap().bytes, 2000);
        let rates = table.aggregate_peer_rates(ip(1), 10.0, 1.0);
        assert_eq!(rates, vec![(ip(2), 200.0)]);
        assert_eq!(table.clear_ip(ip(1)), 1);
        assert!(table.is_empty());
        assert!(table.remove(&k).is_none());
    }
}
