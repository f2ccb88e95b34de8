//! Churn-at-scale equivalence: the adjacency store behind `PairTraffic`
//! (sorted per-VM peer lists, nothing else holding a rate) with its
//! lazily applied uniform scale must be observationally identical to
//! the obvious reference — a sorted map of canonical
//! `(u, v) → rate` entries in which a `ScaleAll` multiplies every entry
//! — under arbitrary interleavings of `place_vm` / `remove_vm` /
//! absolute patches / pair removals / `ScalePair` / `ScaleAll` / token
//! holds (migrations), on both topology families.
//!
//! Checked after every operation:
//!
//! * every canonical pair rate matches the reference map: bit for bit
//!   for a pair written since the last `ScaleAll` (an absolute write
//!   reads back exactly whatever was scaled before it), within 1e-12
//!   relative otherwise (the store multiplies by the composed factor
//!   once, the reference by each factor in turn);
//! * the pair count and the canonical `pairs()` ordering match;
//! * every host's external NIC load — the account `Cluster::can_host`
//!   decides on, memoized per host, multiplied through by a `ScaleAll`
//!   and dropped by patches, churn and migrations — matches a
//!   from-scratch sum over the reference rates and the allocation to
//!   ≤ 1e-9 relative;
//! * the incremental cost ledger stays within 1e-9 relative of a full
//!   Eq.-(2) pass over the reference-rebuilt matrix, with zero resyncs;
//! * `PairTraffic::check_invariants` holds on the session's store
//!   (sorted peer lists, bit-equal twin rows, `live` and the running
//!   total re-derivable), and `Cluster::check_invariants` on its cluster
//!   (usage = the hosted specs, within capacity; memoised external loads
//!   = a fresh sum; down hosts empty; one VM count) — in debug builds,
//!   which carry the checks.
//!
//! Running sums keep float residue proportional to the largest values
//! they ever carried, so from the first scale on the relative bounds
//! are taken against the largest rate the run has held (until then the
//! absolute floor under them is 1, as it was before scales existed).

use proptest::prelude::*;
use score_sim::{PolicyKind, Scenario, Session};
use score_topology::{ServerId, VmId};
use score_trace::{scaled_rate, TraceEvent};
use std::collections::BTreeMap;

fn scenario(fat_tree: bool, seed: u64) -> Scenario {
    let mut s = if fat_tree {
        Scenario::builder()
            .fat_tree(8)
            .sparse_traffic(seed)
            .policy(PolicyKind::RoundRobin)
            .build()
    } else {
        Scenario::builder()
            .canonical_tree(16, 4)
            .sparse_traffic(seed)
            .policy(PolicyKind::RoundRobin)
            .build()
    };
    s.seed = seed;
    s.timing.t_end_s = 600.0;
    s
}

/// One step of the interleaving, drawn by proptest.
#[derive(Debug, Clone)]
enum Op {
    Place,
    Remove {
        pick: usize,
    },
    Patch {
        pick: usize,
        peer: usize,
        rate: f64,
    },
    ScalePair {
        pick: usize,
        peer: usize,
        factor: f64,
    },
    ScaleAll {
        factor: f64,
    },
    Run {
        steps: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shim's `prop_oneof!` is uniform; patches are listed twice to
    // keep the interleavings traffic-heavy.
    prop_oneof![
        Just(Op::Place),
        (0usize..64).prop_map(|pick| Op::Remove { pick }),
        (0usize..64, 0usize..64, 0.0f64..5e6).prop_map(|(pick, peer, rate)| Op::Patch {
            pick,
            peer,
            rate
        }),
        // Removing a pair outright (a drawn rate is never exactly 0).
        (0usize..64, 0usize..64).prop_map(|(pick, peer)| Op::Patch {
            pick,
            peer,
            rate: 0.0
        }),
        (0usize..64, 0usize..64, 0.0f64..3.0).prop_map(|(pick, peer, factor)| Op::ScalePair {
            pick,
            peer,
            factor
        }),
        // Wide enough that 40 of them in a row leave the store's pending
        // range and force a renormalizing sweep.
        (0.02f64..50.0).prop_map(|factor| Op::ScaleAll { factor }),
        (0.02f64..50.0).prop_map(|factor| Op::ScaleAll { factor }),
        (1usize..8).prop_map(|steps| Op::Run { steps }),
    ]
}

/// A reference entry: the rate, and whether the store must agree with
/// it bit for bit (written since the last `ScaleAll`).
type Reference = BTreeMap<(u32, u32), (f64, bool)>;

/// The reference rate map after canonicalization: `u < v`, no zeros.
fn reference_rates(session: &Session) -> Reference {
    session
        .traffic()
        .pairs()
        .iter()
        .map(|&(u, v, r)| ((u.get(), v.get()), (r, true)))
        .collect()
}

fn check_equivalence(session: &Session, reference: &Reference, floor: f64) {
    // Rates and canonical ordering match the reference map.
    let pairs = session.traffic().pairs();
    assert_eq!(pairs.len(), reference.len(), "pair population diverged");
    for (&(u, v), &(rate, exact)) in reference.iter() {
        let got = session.traffic().rate(VmId::new(u), VmId::new(v));
        if exact {
            assert_eq!(got, rate, "rate of ({u}, {v}) diverged from the reference");
        } else {
            assert!(
                (got - rate).abs() <= 1e-12 * rate,
                "rate of ({u}, {v}) is {got}, the expanded reference says {rate}"
            );
        }
    }
    let canonical: Vec<(u32, u32)> = reference.keys().copied().collect();
    let observed: Vec<(u32, u32)> = pairs.iter().map(|&(u, v, _)| (u.get(), v.get())).collect();
    assert_eq!(observed, canonical, "pairs() lost canonical order");
    // Memoized external NIC loads match a reference recomputation.
    let alloc = session.cluster().allocation();
    let mut expect = vec![0.0f64; alloc.num_servers() as usize];
    for (&(u, v), &(r, _)) in reference.iter() {
        let (su, sv) = (alloc.server_of(VmId::new(u)), alloc.server_of(VmId::new(v)));
        if su != sv {
            expect[su.index()] += r;
            expect[sv.index()] += r;
        }
    }
    for (s, &expect) in expect.iter().enumerate() {
        let got = session
            .cluster()
            .host_external_load(ServerId::new(s as u32));
        assert!(
            (got - expect).abs() <= 1e-9 * expect.max(floor),
            "srv{s} external load {got} diverged from reference {expect}"
        );
    }
    // The incremental ledger matches a full Eq.-(2) pass, resync-free.
    let fresh = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    let ledgered = session.current_cost();
    assert!(
        (ledgered - fresh).abs() <= 1e-9 * fresh.abs().max(floor),
        "ledger {ledgered} diverged from full recomputation {fresh}"
    );
    assert_eq!(session.ledger_resyncs(), 0, "a full-pass resync was paid");
    let drift = session.shard_drift();
    assert!(
        drift <= 1e-9 * fresh.abs().max(floor),
        "shard partials drifted by {drift}"
    );
}

fn drive(fat_tree: bool, seed: u64, ops: &[Op]) {
    let mut session = scenario(fat_tree, seed).session().unwrap();
    let mut reference = reference_rates(&session);
    let mut live: Vec<u32> = (0..session.traffic().num_vms()).collect();
    // The largest rate held so far, and whether anything was scaled yet.
    let max_rate = |r: &Reference| r.values().map(|&(rate, _)| rate).fold(1.0, f64::max);
    let mut peak = max_rate(&reference);
    let mut scaled = false;
    // Likewise the largest total, for the store's running sum.
    #[cfg(debug_assertions)]
    let mut peak_total = session.traffic().total_rate();
    for op in ops {
        scaled |= matches!(op, Op::ScalePair { .. } | Op::ScaleAll { .. });
        match *op {
            Op::Place => {
                if let Ok((vm, _server)) = session.place_vm(None) {
                    live.push(vm.get());
                }
            }
            Op::Remove { pick } => {
                if live.len() > 2 {
                    let vm = live.remove(pick % live.len());
                    session.remove_vm(VmId::new(vm)).unwrap();
                    reference.retain(|&(u, v), _| u != vm && v != vm);
                }
            }
            Op::Patch { pick, peer, rate } => {
                let (u, v) = (live[pick % live.len()], live[peer % live.len()]);
                if u == v {
                    continue;
                }
                let key = if u < v { (u, v) } else { (v, u) };
                session
                    .apply_traffic_deltas(&[(VmId::new(u), VmId::new(v), rate)])
                    .unwrap();
                if rate == 0.0 {
                    reference.remove(&key);
                } else {
                    reference.insert(key, (rate, true));
                }
            }
            Op::ScalePair { pick, peer, factor } => {
                let (u, v) = (live[pick % live.len()], live[peer % live.len()]);
                session
                    .apply_trace_event(&TraceEvent::ScalePair { u, v, factor })
                    .unwrap();
                let key = if u < v { (u, v) } else { (v, u) };
                if let Some((rate, _)) = reference.get_mut(&key) {
                    *rate = scaled_rate(*rate, factor);
                    if *rate == 0.0 {
                        reference.remove(&key);
                    }
                }
            }
            Op::ScaleAll { factor } => {
                session.apply_traffic_scale(factor).unwrap();
                for (rate, exact) in reference.values_mut() {
                    *rate = scaled_rate(*rate, factor);
                    *exact = false;
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
        peak = peak.max(max_rate(&reference));
        let floor = if scaled { peak } else { 1.0 };
        check_equivalence(&session, &reference, floor);
        // The store's and the cluster's own invariants (debug builds
        // carry the checks).
        #[cfg(debug_assertions)]
        {
            peak_total = peak_total.max(session.traffic().total_rate());
            session.traffic().check_invariants(peak_total);
            session.cluster().check_invariants();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Canonical tree: interleaved churn, patches, and token steps keep
    /// the adjacency store equivalent to the reference map.
    #[test]
    fn canonical_tree_churn_matches_reference(
        seed in 0u64..1_000,
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        drive(false, seed, &ops);
    }

    /// Fat-tree: same contract on the multipath family.
    #[test]
    fn fat_tree_churn_matches_reference(
        seed in 0u64..1_000,
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        drive(true, seed, &ops);
    }
}
