//! Stress-test flow sets of Fig. 5a.
//!
//! The paper stress-tested the flow table with up to one million
//! simultaneous flows of two shapes:
//!
//! * **type 1** — 1 million flows with all source IP addresses unique;
//! * **type 2** — 1 million unique flows where groups of 1000 flows share
//!   the same source IP address.
//!
//! Type-2 sets exercise the by-IP index with deep buckets, which is what
//! makes its add/lookup/delete profile differ from type 1.

use crate::key::FlowKey;
use std::net::Ipv4Addr;

/// Size of a type-2 sharing group in the paper.
pub const TYPE2_GROUP: usize = 1000;

fn nth_ip(n: u32) -> Ipv4Addr {
    // Walk the 10.0.0.0/8 space deterministically.
    Ipv4Addr::new(10, (n >> 16) as u8, (n >> 8) as u8, n as u8)
}

/// Generates `n` type-1 flows: every flow has a unique source IP.
pub fn type1_flows(n: usize) -> Vec<FlowKey> {
    assert!(n <= (1 << 24), "type-1 set limited to the 10/8 space");
    (0..n as u32)
        .map(|i| FlowKey::tcp(nth_ip(i), 40_000, Ipv4Addr::new(172, 16, 0, 1), 80))
        .collect()
}

/// Generates `n` unique type-2 flows where each group of `group` flows
/// shares one source IP (ports differentiate the flows).
fn type2_flows(n: usize, group: usize) -> Vec<FlowKey> {
    assert!(group >= 1, "group size must be at least 1");
    assert!(group <= u16::MAX as usize, "group must fit the port space");
    (0..n as u32)
        .map(|i| {
            let g = i / group as u32;
            let within = (i % group as u32) as u16;
            FlowKey::tcp(nth_ip(g), 10_000 + within, Ipv4Addr::new(172, 16, 0, 1), 80)
        })
        .collect()
}

/// The paper's type-2 set with its group size of 1000.
pub fn paper_type2_flows(n: usize) -> Vec<FlowKey> {
    type2_flows(n, TYPE2_GROUP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn type1_source_ips_unique() {
        let flows = type1_flows(5000);
        let ips: HashSet<_> = flows.iter().map(|f| f.src_ip).collect();
        assert_eq!(ips.len(), 5000);
    }

    #[test]
    fn type2_groups_share_source() {
        let flows = type2_flows(3000, 1000);
        let ips: HashSet<_> = flows.iter().map(|f| f.src_ip).collect();
        assert_eq!(ips.len(), 3);
        // but all flows are unique keys
        let keys: HashSet<_> = flows.iter().collect();
        assert_eq!(keys.len(), 3000);
    }

    #[test]
    fn paper_group_size() {
        let flows = paper_type2_flows(2500);
        let ips: HashSet<_> = flows.iter().map(|f| f.src_ip).collect();
        assert_eq!(ips.len(), 3); // ceil(2500/1000)
    }

    #[test]
    fn both_sets_have_unique_keys_at_scale() {
        let n = 100_000;
        let t1: HashSet<_> = type1_flows(n).into_iter().collect();
        let t2: HashSet<_> = paper_type2_flows(n).into_iter().collect();
        assert_eq!(t1.len(), n);
        assert_eq!(t2.len(), n);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn zero_group_rejected() {
        let _ = type2_flows(10, 0);
    }
}
