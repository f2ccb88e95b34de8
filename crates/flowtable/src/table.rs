//! The dom0 flow table (paper §V-B1).
//!
//! The paper's implementation keeps per-flow statistics in dom0, updated by
//! periodically polling Open vSwitch, and supports:
//!
//! * fast addition of new flows;
//! * updating existing flows;
//! * retrieval of a subset of flows, by IP address;
//! * access to the number of bytes transmitted per flow;
//! * access to flow duration, for calculation of throughput (the
//!   record's `first_seen_s` and `last_seen_s`).
//!
//! "Flows are stored from when they start and until a migration decision is
//! made for a VM" — hence the explicit [`FlowTable::clear`] and per-IP
//! removal instead of TTL eviction.
//!
//! Timestamps are plain `f64` seconds supplied by the caller, which keeps
//! the table deterministic under test and simulation.

use crate::key::FlowKey;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// Statistics of one flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// The flow's 5-tuple.
    pub key: FlowKey,
    /// Bytes transmitted since the flow was first seen.
    pub bytes: u64,
    /// Packets transmitted since the flow was first seen.
    pub packets: u64,
    /// Timestamp (seconds) when the flow was first seen.
    pub first_seen_s: f64,
    /// Timestamp (seconds) of the most recent update.
    pub last_seen_s: f64,
}

/// Per-hypervisor flow table with a by-IP secondary index.
///
/// # Examples
///
/// ```
/// use std::net::Ipv4Addr;
/// use score_flowtable::{FlowKey, FlowTable};
///
/// let mut table = FlowTable::new();
/// let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 40000, Ipv4Addr::new(10, 0, 0, 2), 80);
/// table.record(key, 1500, 1, 0.0);
/// table.record(key, 1500, 1, 1.0);
/// let rec = table.get(&key).unwrap();
/// assert_eq!(rec.bytes, 3000);
/// assert_eq!(table.flows_by_ip(Ipv4Addr::new(10, 0, 0, 2)).count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    flows: HashMap<FlowKey, FlowRecord>,
    by_ip: HashMap<Ipv4Addr, HashSet<FlowKey>>,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Creates an empty table with capacity for `n` flows.
    pub fn with_capacity(n: usize) -> Self {
        FlowTable {
            flows: HashMap::with_capacity(n),
            by_ip: HashMap::new(),
        }
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Records `bytes`/`packets` for a flow at time `now_s`, creating the
    /// flow if it is new (the paper's *add* + *update* operations).
    ///
    /// Returns `true` if the flow was newly added.
    pub fn record(&mut self, key: FlowKey, bytes: u64, packets: u64, now_s: f64) -> bool {
        match self.flows.get_mut(&key) {
            Some(rec) => {
                rec.bytes = rec.bytes.saturating_add(bytes);
                rec.packets = rec.packets.saturating_add(packets);
                rec.last_seen_s = now_s;
                false
            }
            None => {
                self.flows.insert(
                    key,
                    FlowRecord {
                        key,
                        bytes,
                        packets,
                        first_seen_s: now_s,
                        last_seen_s: now_s,
                    },
                );
                self.by_ip.entry(key.src_ip).or_default().insert(key);
                self.by_ip.entry(key.dst_ip).or_default().insert(key);
                true
            }
        }
    }

    /// Looks up one flow.
    pub fn get(&self, key: &FlowKey) -> Option<&FlowRecord> {
        self.flows.get(key)
    }

    /// Removes one flow, returning its final record.
    pub fn remove(&mut self, key: &FlowKey) -> Option<FlowRecord> {
        let rec = self.flows.remove(key)?;
        for ip in [key.src_ip, key.dst_ip] {
            if let Some(set) = self.by_ip.get_mut(&ip) {
                set.remove(key);
                if set.is_empty() {
                    self.by_ip.remove(&ip);
                }
            }
        }
        Some(rec)
    }

    /// All flows touching `ip` as either endpoint — the paper's "retrieval
    /// of a subset of flows, by IP address".
    pub fn flows_by_ip(&self, ip: Ipv4Addr) -> impl Iterator<Item = &FlowRecord> + '_ {
        self.by_ip
            .get(&ip)
            .into_iter()
            .flat_map(move |set| set.iter().filter_map(move |k| self.flows.get(k)))
    }

    /// Removes every flow touching `ip`, returning how many were dropped.
    /// Used when a migration decision has been made for the VM at `ip` and
    /// its statistics window restarts.
    pub fn clear_ip(&mut self, ip: Ipv4Addr) -> usize {
        let keys: Vec<FlowKey> = match self.by_ip.get(&ip) {
            Some(set) => set.iter().copied().collect(),
            None => return 0,
        };
        let n = keys.len();
        for k in keys {
            self.remove(&k);
        }
        n
    }

    /// Drops all flows.
    pub fn clear(&mut self) {
        self.flows.clear();
        self.by_ip.clear();
    }

    /// Iterates over all records.
    pub fn iter(&self) -> impl Iterator<Item = &FlowRecord> + '_ {
        self.flows.values()
    }

    /// Verifies the secondary index against the primary map; used by tests
    /// and debug assertions.
    pub fn index_is_consistent(&self) -> bool {
        // Every indexed key exists and involves the indexing IP.
        for (ip, keys) in &self.by_ip {
            for k in keys {
                if !self.flows.contains_key(k) || !k.involves(*ip) {
                    return false;
                }
            }
        }
        // Every flow is indexed under both endpoints.
        for k in self.flows.keys() {
            for ip in [k.src_ip, k.dst_ip] {
                if !self.by_ip.get(&ip).is_some_and(|s| s.contains(k)) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn key(src: u8, dst: u8, sport: u16) -> FlowKey {
        FlowKey::tcp(ip(src), sport, ip(dst), 80)
    }

    #[test]
    fn add_then_update_accumulates() {
        let mut t = FlowTable::new();
        assert!(t.record(key(1, 2, 1000), 100, 1, 0.0));
        assert!(!t.record(key(1, 2, 1000), 50, 1, 2.0));
        let rec = t.get(&key(1, 2, 1000)).unwrap();
        assert_eq!(rec.bytes, 150);
        assert_eq!(rec.packets, 2);
        assert_eq!(rec.first_seen_s, 0.0);
        assert_eq!(rec.last_seen_s, 2.0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn by_ip_retrieval() {
        let mut t = FlowTable::new();
        t.record(key(1, 2, 1000), 10, 1, 0.0);
        t.record(key(1, 3, 1001), 20, 1, 0.0);
        t.record(key(4, 1, 1002), 30, 1, 0.0);
        t.record(key(5, 6, 1003), 40, 1, 0.0);
        assert_eq!(t.flows_by_ip(ip(1)).count(), 3);
        assert_eq!(t.flows_by_ip(ip(6)).count(), 1);
        assert_eq!(t.flows_by_ip(ip(9)).count(), 0);
    }

    #[test]
    fn removal_updates_index() {
        let mut t = FlowTable::new();
        t.record(key(1, 2, 1000), 10, 1, 0.0);
        t.record(key(1, 2, 1001), 20, 1, 0.0);
        let rec = t.remove(&key(1, 2, 1000)).unwrap();
        assert_eq!(rec.bytes, 10);
        assert_eq!(t.len(), 1);
        assert_eq!(t.flows_by_ip(ip(1)).count(), 1);
        assert!(t.index_is_consistent());
        assert!(t.remove(&key(1, 2, 1000)).is_none());
    }

    #[test]
    fn clear_ip_drops_all_involving_flows() {
        let mut t = FlowTable::new();
        t.record(key(1, 2, 1000), 10, 1, 0.0);
        t.record(key(3, 1, 1001), 20, 1, 0.0);
        t.record(key(4, 5, 1002), 30, 1, 0.0);
        assert_eq!(t.clear_ip(ip(1)), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.clear_ip(ip(1)), 0);
        assert!(t.index_is_consistent());
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = FlowTable::new();
        t.record(key(1, 2, 1000), 10, 1, 0.0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.flows_by_ip(ip(1)).count(), 0);
        assert!(t.index_is_consistent());
    }

    #[test]
    fn totals() {
        let mut t = FlowTable::with_capacity(16);
        t.record(key(1, 2, 1000), 10, 1, 0.0);
        t.record(key(1, 3, 1001), 20, 1, 0.0);
        assert_eq!(t.iter().map(|r| r.bytes).sum::<u64>(), 30);
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn byte_counter_saturates() {
        let mut t = FlowTable::new();
        t.record(key(1, 2, 1000), u64::MAX, 1, 0.0);
        t.record(key(1, 2, 1000), 100, 1, 1.0);
        assert_eq!(t.get(&key(1, 2, 1000)).unwrap().bytes, u64::MAX);
    }
}
