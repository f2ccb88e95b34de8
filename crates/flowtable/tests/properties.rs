//! Property-based tests: the flow table's by-IP index stays consistent
//! under arbitrary operation sequences.

use proptest::prelude::*;
use score_flowtable::{FlowKey, FlowTable};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
enum Op {
    Record {
        src: u8,
        dst: u8,
        port: u16,
        bytes: u64,
    },
    Remove {
        src: u8,
        dst: u8,
        port: u16,
    },
    ClearIp {
        ip: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8, 0u8..8, 0u16..16, 1u64..10_000).prop_map(|(src, dst, port, bytes)| Op::Record {
            src,
            dst,
            port,
            bytes
        }),
        (0u8..8, 0u8..8, 0u16..16).prop_map(|(src, dst, port)| Op::Remove { src, dst, port }),
        (0u8..8).prop_map(|ip| Op::ClearIp { ip }),
    ]
}

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 9, 9, last)
}

fn key(src: u8, dst: u8, port: u16) -> FlowKey {
    FlowKey::tcp(ip(src), port, ip(dst), 80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn index_consistent_under_arbitrary_ops(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut table = FlowTable::new();
        let mut now = 0.0;
        for op in ops {
            now += 0.1;
            match op {
                Op::Record { src, dst, port, bytes } => {
                    if src != dst {
                        table.record(key(src, dst, port), bytes, 1, now);
                    }
                }
                Op::Remove { src, dst, port } => {
                    let _ = table.remove(&key(src, dst, port));
                }
                Op::ClearIp { ip: last } => {
                    let _ = table.clear_ip(ip(last));
                }
            }
            prop_assert!(table.index_is_consistent());
        }
    }

    #[test]
    fn by_ip_matches_linear_scan(ops in prop::collection::vec(op_strategy(), 1..150), probe in 0u8..8) {
        let mut table = FlowTable::new();
        let mut now = 0.0;
        for op in ops {
            now += 0.1;
            match op {
                Op::Record { src, dst, port, bytes } => {
                    if src != dst {
                        table.record(key(src, dst, port), bytes, 1, now);
                    }
                }
                Op::Remove { src, dst, port } => {
                    let _ = table.remove(&key(src, dst, port));
                }
                Op::ClearIp { ip: last } => {
                    let _ = table.clear_ip(ip(last));
                }
            }
        }
        let via_index: usize = table.flows_by_ip(ip(probe)).count();
        let via_scan: usize = table.iter().filter(|r| r.key.involves(ip(probe))).count();
        prop_assert_eq!(via_index, via_scan);
    }
}
