//! Survivor-election tests for the token ring under host crashes (S-CORE
//! adversity engine): killing any token holder — including mid-hold —
//! elects the same deterministic successor no matter how the dead set is
//! batched, ordered, or raced across threads, and a fully-dead ring
//! degrades gracefully instead of spinning.

use proptest::prelude::*;
use score_core::{
    Allocation, Cluster, CostLedger, CostModel, OutlookContext, RoundRobin, ScoreEngine,
    ServerSpec, StepOutcome, TokenRing, VmSpec,
};
use score_topology::{CanonicalTree, ServerId, VmId};
use score_traffic::{PairTraffic, WorkloadConfig};
use std::sync::Arc;

const NUM_VMS: u32 = 24;

/// A cluster, its TM and its cost ledger, stepped by a ring.
#[derive(Clone)]
struct World {
    cluster: Cluster,
    traffic: PairTraffic,
    ledger: CostLedger,
}

impl World {
    /// One reactive hold of `ring`'s token.
    fn step(&mut self, ring: &mut TokenRing) -> Option<StepOutcome> {
        let ctx = OutlookContext::reactive();
        ring.step_ledgered_outlook(&mut self.cluster, &self.traffic, &mut self.ledger, &ctx)
    }
}

fn fixture(seed: u64) -> World {
    let topo = Arc::new(CanonicalTree::small()); // 16 servers
    let traffic = WorkloadConfig::new(NUM_VMS, seed).generate();
    let alloc = Allocation::from_fn(NUM_VMS, 16, |vm| ServerId::new(vm.get() % 16));
    let cluster = Cluster::new(
        topo,
        ServerSpec::paper_default(),
        VmSpec::paper_default(),
        &traffic,
        alloc,
    )
    .unwrap();
    let ledger = CostModel::paper_default().ledger(cluster.allocation(), &traffic, cluster.topo());
    World {
        cluster,
        traffic,
        ledger,
    }
}

fn ring() -> TokenRing {
    TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), NUM_VMS)
}

/// Reference election: first member after the holder in ascending-id
/// ring order that is not dead.
fn expected_successor(members: &[u32], holder: u32, dead: &[u32]) -> Option<u32> {
    let pos = members.iter().position(|&m| m == holder)?;
    (1..=members.len())
        .map(|k| members[(pos + k) % members.len()])
        .find(|m| !dead.contains(m) && *m != holder)
}

#[test]
fn killing_the_holder_elects_its_ring_successor() {
    let mut r = ring();
    assert_eq!(r.holder(), Some(VmId::new(0)));
    let survivor = r.fail_vms(&[VmId::new(0), VmId::new(1), VmId::new(3)]);
    assert_eq!(survivor, Some(VmId::new(2)));
    assert_eq!(r.token().len(), (NUM_VMS - 3) as usize);
    // Dead VMs are gone from the membership.
    assert!(!r.token().contains(VmId::new(0)));
    assert!(!r.token().contains(VmId::new(3)));
}

#[test]
fn election_is_insensitive_to_batch_order() {
    let dead = [7u32, 2, 0, 5, 1];
    let mut perms: Vec<Vec<u32>> = vec![
        dead.to_vec(),
        vec![0, 1, 2, 5, 7],
        vec![7, 5, 2, 1, 0],
        vec![2, 7, 1, 0, 5],
    ];
    // Duplicates must not matter either.
    perms.push(vec![7, 7, 2, 0, 0, 5, 1, 2]);
    let mut holders = Vec::new();
    for p in perms {
        let mut r = ring();
        let ids: Vec<VmId> = p.iter().map(|&v| VmId::new(v)).collect();
        holders.push(r.fail_vms(&ids));
    }
    assert!(holders.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(holders[0], Some(VmId::new(3)));
}

#[test]
fn killing_the_holder_mid_hold_converges() {
    // Advance the token into the middle of an iteration, then crash the
    // current holder plus neighbours on both sides.
    let mut w = fixture(11);
    let mut r = ring();
    for _ in 0..9 {
        w.step(&mut r);
    }
    let holder = r.holder().unwrap().get();
    let dead = [
        holder,
        (holder + 1) % NUM_VMS,
        holder.wrapping_sub(1) % NUM_VMS,
    ];
    let members: Vec<u32> = (0..NUM_VMS).collect();
    let want = expected_successor(&members, holder, &dead);
    let got = r.fail_vms(&dead.map(VmId::new));
    assert_eq!(got.map(|v| v.get()), want);
    // The ring keeps making progress over the survivors only.
    assert_eq!(r.token().len(), (NUM_VMS - 3) as usize);
    for _ in 0..r.token().len() {
        assert!(w.step(&mut r).is_some());
    }
    assert!(w.cluster.allocation().is_consistent());
    let model = CostModel::paper_default();
    let fresh = model.total_cost(w.cluster.allocation(), &w.traffic, w.cluster.topo());
    assert!((w.ledger.current() - fresh).abs() <= 1e-9 * fresh.max(1.0));
}

#[test]
fn fully_dead_ring_degrades_gracefully() {
    let mut w = fixture(13);
    let mut r = ring();
    let everyone: Vec<VmId> = (0..NUM_VMS).map(VmId::new).collect();
    assert_eq!(r.fail_vms(&everyone), None);
    assert!(r.holder().is_none());
    assert!(r.token().is_empty());
    // A step terminates instead of spinning.
    assert!(w.step(&mut r).is_none());
    // A later arrival restarts the ring.
    assert!(r.add_vm(VmId::new(5)));
    assert_eq!(r.holder(), Some(VmId::new(5)));
}

#[test]
fn non_member_and_empty_batches_are_noops() {
    let mut r = ring();
    let before = r.holder();
    assert_eq!(r.fail_vms(&[]), before);
    assert_eq!(r.fail_vms(&[VmId::new(999)]), before);
    assert_eq!(r.token().len(), NUM_VMS as usize);
}

#[test]
fn election_is_identical_across_thread_counts() {
    // The election must be a pure function of (token order, dead set):
    // racing many clones of the ring across threads — any interleaving
    // the scheduler produces — always converges on one successor.
    let dead: Vec<VmId> = [0u32, 4, 8, 1].iter().map(|&v| VmId::new(v)).collect();
    for threads in [1usize, 2, 4, 8] {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut d = dead.clone();
                // Each thread reports the victims in its own order.
                let n = d.len();
                d.rotate_left(t % n);
                std::thread::spawn(move || {
                    let mut r = ring();
                    r.fail_vms(&d)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), Some(VmId::new(2)), "threads={threads}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any dead set, applied after any number of steps, elects exactly
    /// the reference successor, and one batch equals many sequential
    /// batches of the same victims.
    #[test]
    fn survivor_election_matches_reference(
        seed in 0u64..200,
        steps in 0usize..30,
        dead_raw in prop::collection::btree_set(0u32..NUM_VMS, 1..=NUM_VMS as usize),
    ) {
        let mut w = fixture(seed);
        let mut r = ring();
        for _ in 0..steps {
            w.step(&mut r);
        }
        let dead: Vec<u32> = dead_raw.iter().copied().collect();
        let holder = r.holder().unwrap().get();
        let members: Vec<u32> = (0..NUM_VMS).collect();
        let want = if dead.contains(&holder) {
            expected_successor(&members, holder, &dead)
        } else {
            Some(holder)
        };

        // One batch …
        let mut batched = ring();
        let mut w2 = w.clone();
        for _ in 0..steps {
            w2.step(&mut batched);
        }
        let ids: Vec<VmId> = dead.iter().map(|&v| VmId::new(v)).collect();
        let got = batched.fail_vms(&ids);
        prop_assert_eq!(got.map(|v| v.get()), want);

        // … equals victim-at-a-time in descending order (worst case for
        // order sensitivity), as long as each sub-batch carries the
        // whole remaining dead set's effect: sequential single-victim
        // feeds may pass through intermediate holders, but the final
        // membership must agree.
        let mut seq = ring();
        let mut w3 = w.clone();
        for _ in 0..steps {
            w3.step(&mut seq);
        }
        let mut desc = ids.clone();
        desc.sort_unstable_by(|a, b| b.cmp(a));
        let mut last = seq.holder();
        for vm in &desc {
            last = seq.fail_vms(&[*vm]);
        }
        prop_assert_eq!(seq.token().len(), batched.token().len());
        if dead.len() == NUM_VMS as usize {
            prop_assert_eq!(last, None);
            prop_assert_eq!(got, None);
        }
    }
}
