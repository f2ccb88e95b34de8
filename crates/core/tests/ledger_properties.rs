//! Property-based tests for the incremental cost ledger.
//!
//! The invariant: a [`CostLedger`] fed only Lemma-3 deltas (for accepted
//! migrations) and sparse re-prices (for traffic-phase shifts, landed
//! pair by pair as a trace replay lands them) must agree with a fresh
//! Eq.-(2) recomputation after *any* interleaving of those operations —
//! on both paper fabrics. The tolerance is 1e-9
//! relative: the ledger and the recomputation sum the same terms in
//! different orders, so exact bit equality is not guaranteed, but drift
//! beyond rounding noise means the ledger missed or double-counted a
//! pair.

use proptest::prelude::*;
use score_core::{
    Cluster, CostModel, KernelScratch, LocalView, MigrationDecision, ScoreEngine, ServerSpec,
    VmSpec,
};
use score_topology::{CanonicalTree, FatTree, Topology, VmId};
use score_traffic::{PairTraffic, WorkloadConfig};
use std::sync::Arc;

const NUM_VMS: u32 = 32;

/// One step of the interleaving: a token-holder decision for `vm`
/// (whose accepted Lemma-3 delta feeds the ledger), or a traffic-phase
/// shift to a freshly generated matrix.
#[derive(Debug, Clone, Copy)]
enum Op {
    Decide { vm: u32 },
    Shift { workload_seed: u64 },
}

/// One reactive hold for `u`: observe, decide, migrate if warranted.
fn hold(
    engine: &ScoreEngine,
    u: VmId,
    cluster: &mut Cluster,
    traffic: &PairTraffic,
) -> MigrationDecision {
    let view = LocalView::observe(u, cluster.allocation(), traffic, cluster.topo());
    let decision = engine.decide(&view, cluster, traffic, &mut KernelScratch::new());
    if let Some(target) = decision.target {
        cluster
            .migrate(traffic, u, target, engine.config().bandwidth_threshold)
            .expect("decide() validated admission for the chosen target");
    }
    decision
}

fn decode_ops(raw: &[(u8, u32)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, arg)| {
            // Bias towards decisions: shifts are rarer in a real run.
            if kind < 3 {
                Op::Decide { vm: arg % NUM_VMS }
            } else {
                Op::Shift {
                    workload_seed: u64::from(arg),
                }
            }
        })
        .collect()
}

/// Drives an interleaving of decisions and shifts over `topo`,
/// checking the ledger against a fresh recomputation after every
/// operation.
fn check_interleaving(topo: Arc<dyn Topology>, seed: u64, ops: &[Op]) -> Result<(), String> {
    let mut traffic = WorkloadConfig::new(NUM_VMS, seed).generate();
    let alloc = score_core::Allocation::from_fn(NUM_VMS, topo.num_servers() as u32, |vm| {
        score_topology::ServerId::new(vm.get() % topo.num_servers() as u32)
    });
    let mut cluster = Cluster::new(
        Arc::clone(&topo),
        ServerSpec::paper_default(),
        VmSpec::paper_default(),
        &traffic,
        alloc,
    )
    .expect("striped placement fits");
    let engine = ScoreEngine::paper_default();
    let model: &CostModel = engine.cost_model();
    let mut ledger = model.ledger(cluster.allocation(), &traffic, cluster.topo());

    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Decide { vm } => {
                let decision = hold(&engine, VmId::new(vm), &mut cluster, &traffic);
                ledger.apply_gain(decision.gain);
            }
            Op::Shift { workload_seed } => {
                // Every pair either matrix has, one single-pair batch
                // each: the old pairs re-rated or zeroed, then the new.
                let next = WorkloadConfig::new(NUM_VMS, workload_seed).generate();
                let mut pairs = traffic.pairs();
                pairs.extend(next.pairs());
                for (u, v, _) in pairs {
                    let (old, new) = (traffic.rate(u, v), next.rate(u, v));
                    if old != new {
                        let change = [(u, v, old, new)];
                        cluster.patch_traffic(&change);
                        ledger.apply_rate_changes(cluster.allocation(), &change, cluster.topo());
                        traffic.apply_update(u, v, new);
                    }
                }
                prop_assert_eq!(traffic.pairs(), next.pairs());
            }
        }
        let fresh = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
        let drift = (ledger.current() - fresh).abs();
        prop_assert!(
            drift <= 1e-9 * fresh.abs().max(1.0),
            "after op {i} ({op:?}): ledger {} vs fresh {fresh} (drift {drift})",
            ledger.current()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ledger_tracks_interleavings_on_canonical_tree(
        seed in 0u64..500,
        raw_ops in prop::collection::vec((0u8..4, 0u32..10_000), 1..48),
    ) {
        let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
        check_interleaving(topo, seed, &decode_ops(&raw_ops))?;
    }

    #[test]
    fn ledger_tracks_interleavings_on_fattree(
        seed in 0u64..500,
        raw_ops in prop::collection::vec((0u8..4, 0u32..10_000), 1..48),
    ) {
        let topo: Arc<dyn Topology> = Arc::new(FatTree::small());
        check_interleaving(topo, seed, &decode_ops(&raw_ops))?;
    }
}
