//! Recovery invariants of the adversity engine, on both topology
//! families, under arbitrary interleavings of faults, traffic patches,
//! and token steps:
//!
//! * a recorded fault run replays **byte-for-byte** from its adversity
//!   log (only the fault events are logged; evacuations and
//!   retirements are re-derived deterministically);
//! * after every fault, `C_A` read from the incremental cost ledger is
//!   within 1e-9 relative of a from-scratch recomputation;
//! * no migration — voluntary or forced — ever lands a VM on a host
//!   that was down at decision time, and the final placement keeps
//!   every live VM on a live host;
//! * `Session::check_invariants` (cluster, ledger and token accounts)
//!   holds after every operation (debug builds, which carry the check).

use proptest::prelude::*;
use score_sim::{PolicyKind, Scenario, Session};
use score_topology::{RackId, ServerId, VmId};
use score_trace::TraceEvent;

fn scenario(fat_tree: bool, seed: u64) -> Scenario {
    let mut s = if fat_tree {
        Scenario::builder()
            .fat_tree(8)
            .sparse_traffic(seed)
            .policy(PolicyKind::HighestLevelFirst)
            .build()
    } else {
        Scenario::builder()
            .canonical_tree(16, 4)
            .sparse_traffic(seed)
            .policy(PolicyKind::HighestLevelFirst)
            .build()
    };
    s.seed = seed;
    s.timing.t_end_s = 600.0;
    s
}

/// One step of the adversity interleaving, drawn by proptest.
#[derive(Debug, Clone)]
enum Op {
    Crash { pick: usize },
    RackFail { pick: usize },
    Degrade { tenths: u32 },
    Restore,
    Patch { pick: usize, peer: usize, rate: f64 },
    Run { steps: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4096).prop_map(|pick| Op::Crash { pick }),
        (0usize..4096).prop_map(|pick| Op::RackFail { pick }),
        (1u32..=10).prop_map(|tenths| Op::Degrade { tenths }),
        Just(Op::Restore),
        (0usize..64, 0usize..64, 0.0f64..5e6).prop_map(|(pick, peer, rate)| Op::Patch {
            pick,
            peer,
            rate
        }),
        (1usize..12).prop_map(|steps| Op::Run { steps }),
        (1usize..12).prop_map(|steps| Op::Run { steps }),
    ]
}

/// The exactness oracle: ledger vs a full Eq.-(2) pass.
fn assert_cost_exact(session: &Session) {
    let fresh = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    let ledgered = session.current_cost();
    assert!(
        (ledgered - fresh).abs() <= 1e-9 * fresh.abs().max(1.0),
        "ledger {ledgered} diverged from full recomputation {fresh}"
    );
}

fn assert_no_vm_on_dead_host(session: &Session) {
    for v in 0..session.cluster().num_vms() {
        let vm = VmId::new(v);
        if session.cluster().is_active(vm) {
            let host = session.cluster().allocation().server_of(vm);
            assert!(
                session.cluster().host_is_up(host),
                "{vm} left stranded on dead {host}"
            );
        }
    }
}

/// Drives the op list against a recording session, checking the cost
/// and placement invariants after every fault; returns the report and
/// the `(time, server)` log of every host that went down.
fn drive(fat_tree: bool, seed: u64, ops: &[Op]) {
    let mut session = scenario(fat_tree, seed).session().unwrap();
    session.start_trace_recording();
    let num_servers = session.topo().num_servers();
    let num_racks = session.topo().num_racks();
    let num_vms = session.traffic().num_vms();
    let mut downed: Vec<(f64, ServerId)> = Vec::new();
    let mut faults = 0u64;
    for op in ops {
        match *op {
            Op::Crash { pick } => {
                session.drain_to_boundary();
                let server = (pick % num_servers) as u32;
                let outcome = session
                    .apply_fault(&TraceEvent::HostCrash { server })
                    .unwrap();
                let now = session.now_s();
                downed.extend(outcome.hosts_failed.iter().map(|&s| (now, s)));
                faults += 1;
                assert_cost_exact(&session);
                assert_no_vm_on_dead_host(&session);
            }
            Op::RackFail { pick } => {
                session.drain_to_boundary();
                let rack = (pick % num_racks) as u32;
                let outcome = session.apply_fault(&TraceEvent::RackFail { rack }).unwrap();
                let now = session.now_s();
                downed.extend(outcome.hosts_failed.iter().map(|&s| (now, s)));
                faults += 1;
                assert_cost_exact(&session);
                assert_no_vm_on_dead_host(&session);
            }
            Op::Degrade { tenths } => {
                session.drain_to_boundary();
                session
                    .apply_fault(&TraceEvent::LinkDegrade {
                        tier: 0,
                        factor: f64::from(tenths) / 10.0,
                    })
                    .unwrap();
                faults += 1;
            }
            Op::Restore => {
                session.drain_to_boundary();
                session
                    .apply_fault(&TraceEvent::LinkRestore { tier: 0 })
                    .unwrap();
                faults += 1;
            }
            Op::Patch { pick, peer, rate } => {
                session.drain_to_boundary();
                let (u, v) = (
                    (pick % num_vms as usize) as u32,
                    (peer % num_vms as usize) as u32,
                );
                if u == v {
                    continue;
                }
                let (u, v) = (VmId::new(u), VmId::new(v));
                if session.cluster().is_active(u) && session.cluster().is_active(v) {
                    session.apply_traffic_deltas(&[(u, v, rate)]).unwrap();
                }
            }
            Op::Run { steps } => {
                for _ in 0..steps {
                    if session.step().is_none() {
                        break;
                    }
                }
            }
        }
        // Capacity, NIC cache, down hosts, VM counts, ledger and token
        // after every op (debug builds carry the check).
        #[cfg(debug_assertions)]
        session.check_invariants();
    }
    session.run_to_horizon();
    assert_cost_exact(&session);
    assert_no_vm_on_dead_host(&session);

    let report = session.report();
    assert_eq!(report.recovery.faults_injected, faults);
    // No migration ever lands on a host that was already down when the
    // decision was taken (a decision in the same event-queue instant as
    // the fault is ordered before it and stays legal).
    for m in &report.migrations {
        for &(t, server) in &downed {
            assert!(
                m.to != server || m.time_s <= t,
                "migration at {}s targets {server}, down since {t}s",
                m.time_s
            );
        }
    }
    // Down hosts never come back in this op set: the recovery stats and
    // the cluster agree on the body count.
    let unique_down: std::collections::BTreeSet<ServerId> =
        downed.iter().map(|&(_, s)| s).collect();
    assert_eq!(report.recovery.hosts_down as usize, unique_down.len());
    for &s in &unique_down {
        assert!(!session.cluster().host_is_up(s));
    }

    // Byte-identical replay from the adversity log (`run_storm` drains
    // to each event's boundary and re-applies it): compare full reports.
    let trace = session.recorded_trace().unwrap();
    if faults > 0 {
        assert!(trace.has_faults(), "fault events must be in the log");
    }
    let mut replay = scenario(fat_tree, seed).session().unwrap();
    replay.run_storm(trace.events()).unwrap();
    replay.run_to_horizon();
    assert_eq!(
        report,
        replay.report(),
        "a recorded adversity run must replay byte-for-byte"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Canonical tree: arbitrary fault/traffic/step interleavings hold
    /// every recovery invariant and replay byte-for-byte.
    #[test]
    fn canonical_tree_faults_hold_recovery_invariants(
        seed in 0u64..1_000,
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        drive(false, seed, &ops);
    }

    /// Fat-tree: same contract on the multipath family.
    #[test]
    fn fat_tree_faults_hold_recovery_invariants(
        seed in 0u64..1_000,
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        drive(true, seed, &ops);
    }
}

/// Deterministic pin: the whole-rack sweep on the canonical tree keeps
/// rack-local victims together and the ledger exact (regression anchor
/// with a fixed seed, independent of the proptest shim's RNG).
#[test]
fn rack_sweep_pin() {
    let mut session = scenario(false, 7).session().unwrap();
    session.run(1);
    session.drain_to_boundary();
    let rack = session
        .topo()
        .rack_of(session.cluster().allocation().server_of(VmId::new(0)));
    let outcome = session
        .apply_fault(&TraceEvent::RackFail { rack: rack.get() })
        .unwrap();
    let expected: Vec<ServerId> = session
        .topo()
        .servers_in_rack(RackId::new(rack.get()))
        .map(ServerId::new)
        .collect();
    assert_eq!(outcome.hosts_failed, expected);
    for &(_, to) in &outcome.evacuated {
        assert_ne!(
            session.topo().rack_of(to),
            rack,
            "evacuee landed back in the dead rack"
        );
    }
    assert_cost_exact(&session);
    session.run_to_horizon();
    assert_cost_exact(&session);
    assert!(session.report().recovery.slo_violating_s > 0.0);
}
