//! The communication cost model (paper §III, Eq. 1–2) and migration deltas
//! (Lemmas 1–3, Theorem 1).
//!
//! * Per-VM cost, Eq. (1): `C_A(u) = 2 Σ_{v∈Vu} λ(u,v) Σ_{i=1..ℓA(u,v)} c_i`
//! * Network-wide cost, Eq. (2): `C_A = Σ_u Σ_{v∈Vu} λ(u,v) Σ_{i≤ℓ} c_i`
//!   (each unordered pair counted once)
//! * Migration delta, Lemma 3: for `u → x̂`,
//!   `ΔC = 2 Σ_{z∈Vu} λ(z,u) (Σ_{i≤ℓA(z,u)} c_i − Σ_{i≤ℓA'(z,u)} c_i)`
//!
//! Theorem 1: the migration compensates its cost iff `ΔC > c_m`.

use score_topology::{LinkWeights, ServerId, Topology, VmId};
use score_traffic::PairTraffic;

use crate::allocation::Allocation;

/// Communication-cost calculator binding link weights to a topology.
///
/// # Examples
///
/// ```
/// use score_core::{Allocation, CostModel};
/// use score_topology::{CanonicalTree, ServerId, VmId};
/// use score_traffic::PairTrafficBuilder;
///
/// let topo = CanonicalTree::small();
/// let mut b = PairTrafficBuilder::new(2);
/// b.add(VmId::new(0), VmId::new(1), 100.0);
/// let traffic = b.build();
///
/// // Same rack: the pair costs 2 * λ * c1.
/// let alloc = Allocation::from_fn(2, 16, |vm| ServerId::new(vm.get()));
/// let model = CostModel::paper_default();
/// let cost = model.total_cost(&alloc, &traffic, &topo);
/// assert!((cost - 200.0).abs() < 1e-9);
///
/// // Collocating them drops the cost to zero (Lemma 3 predicts it).
/// let delta = model.migration_delta(VmId::new(0), ServerId::new(1), &alloc, &traffic, &topo);
/// assert!((delta - 200.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct CostModel {
    weights: LinkWeights,
}

impl CostModel {
    /// Creates a cost model with the given link weights.
    pub fn new(weights: LinkWeights) -> Self {
        CostModel { weights }
    }

    /// The paper's evaluation weights (`c_i = e^0, e^1, e^3`).
    pub fn paper_default() -> Self {
        CostModel::new(LinkWeights::paper_default())
    }

    /// The link weights in use.
    pub fn weights(&self) -> &LinkWeights {
        &self.weights
    }

    /// Per-VM communication cost `C_A(u)` — Eq. (1).
    pub fn vm_cost<T: Topology + ?Sized>(
        &self,
        u: VmId,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) -> f64 {
        let su = alloc.server_of(u);
        let mut cost = 0.0;
        for (v, rate) in traffic.peers(u) {
            let level = topo.level(su, alloc.server_of(v));
            cost += rate * self.weights.prefix(level);
        }
        2.0 * cost
    }

    /// Network-wide communication cost `C_A` — Eq. (2).
    pub fn total_cost<T: Topology + ?Sized>(
        &self,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) -> f64 {
        let mut cost = 0.0;
        for (u, v, rate) in traffic.pairs() {
            let level = topo.level(alloc.server_of(u), alloc.server_of(v));
            cost += rate * self.weights.prefix(level);
        }
        // Eq. (2) carries the same 2× factor as Eq. (1): a level-ℓ path
        // crosses *two* links of each layer 1..=ℓ.
        2.0 * cost
    }

    /// Migration delta `ΔC_{u→x̂}` — Lemma 3. Positive means the move
    /// reduces the network-wide cost.
    ///
    /// Runs in `O(|Vu|)` using only information local to `u`: its peers,
    /// their rates, and their hosting servers.
    pub fn migration_delta<T: Topology + ?Sized>(
        &self,
        u: VmId,
        target: ServerId,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) -> f64 {
        let su = alloc.server_of(u);
        if su == target {
            return 0.0;
        }
        let mut delta = 0.0;
        for (z, rate) in traffic.peers(u) {
            let sz = alloc.server_of(z);
            let before = topo.level(sz, su);
            let after = topo.level(sz, target);
            delta += rate * self.weights.level_change_saving(before, after);
        }
        2.0 * delta
    }

    /// Seeds a [`crate::CostLedger`] with this model and one full
    /// Eq.-(2) pass — after which `C_A` stays observable in `O(1)` by
    /// folding each accepted migration's [`CostModel::migration_delta`]
    /// into the ledger instead of recomputing.
    pub fn ledger<T: Topology + ?Sized>(
        &self,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) -> crate::CostLedger {
        crate::CostLedger::new(self.clone(), alloc, traffic, topo)
    }

    /// Theorem 1: should `u` migrate to `target` given migration cost
    /// `cm`? True iff `ΔC > cm`.
    pub fn should_migrate<T: Topology + ?Sized>(
        &self,
        u: VmId,
        target: ServerId,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
        cm: f64,
    ) -> bool {
        self.migration_delta(u, target, alloc, traffic, topo) > cm
    }

    /// The highest communication level of `u` under `alloc` —
    /// `ℓ_A(u) = max_{v∈Vu} ℓ_A(u, v)` (§II), used by the HLF token policy.
    /// Returns level 0 for VMs with no peers.
    pub fn highest_level<T: Topology + ?Sized>(
        &self,
        u: VmId,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) -> score_topology::Level {
        let su = alloc.server_of(u);
        traffic
            .peers(u)
            .map(|(v, _)| topo.level(su, alloc.server_of(v)))
            .max()
            .unwrap_or(score_topology::Level::ZERO)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_default()
    }
}

/// Share of pairwise traffic volume communicated at each level under an
/// allocation: `breakdown[ℓ]` is the fraction of total λ whose pair sits
/// at communication level ℓ.
///
/// This is the quantity S-CORE physically moves: migrations shift mass
/// from high indices (core) to low ones (rack/host). The vector has
/// `max_level + 1` entries and sums to 1 for non-empty traffic.
///
/// `pairs` is the TM as [`PairTraffic::pairs`] lists it; each level's
/// mass is summed in that order, so the same list gives the same bits. A
/// caller that also needs link loads passes the one list to
/// [`crate::LinkLoadMap::compute`] too, and walks the TM once.
pub fn level_breakdown<T: Topology + ?Sized>(
    alloc: &Allocation,
    pairs: &[(VmId, VmId, f64)],
    topo: &T,
) -> Vec<f64> {
    let mut mass = vec![0.0; topo.max_level().index() + 1];
    for &(u, v, rate) in pairs {
        let level = topo.level(alloc.server_of(u), alloc.server_of(v));
        mass[level.index()] += rate;
    }
    let total: f64 = mass.iter().sum();
    if total > 0.0 {
        for m in &mut mass {
            *m /= total;
        }
    }
    mass
}

#[cfg(test)]
mod tests {
    use super::*;
    use score_topology::{CanonicalTree, Level};
    use score_traffic::PairTrafficBuilder;

    /// 4 racks x 4 hosts, 2 racks per agg, 2 cores.
    fn topo() -> CanonicalTree {
        CanonicalTree::small()
    }

    fn traffic() -> PairTraffic {
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 10.0);
        b.add(VmId::new(0), VmId::new(2), 5.0);
        b.add(VmId::new(2), VmId::new(3), 1.0);
        b.build()
    }

    /// vm0 -> srv0, vm1 -> srv1 (same rack), vm2 -> srv4 (same agg),
    /// vm3 -> srv8 (other agg / core level).
    fn alloc() -> Allocation {
        let servers = [0u32, 1, 4, 8];
        Allocation::from_fn(4, 16, |vm| ServerId::new(servers[vm.index()]))
    }

    fn w(i: u8) -> f64 {
        LinkWeights::paper_default().prefix(Level::new(i))
    }

    #[test]
    fn vm_cost_matches_hand_computation() {
        let m = CostModel::paper_default();
        // vm0: 10 * prefix(1) [to vm1, same rack] + 5 * prefix(2) [to vm2].
        let expected = 2.0 * (10.0 * w(1) + 5.0 * w(2));
        let got = m.vm_cost(VmId::new(0), &alloc(), &traffic(), &topo());
        assert!(
            (got - expected).abs() < 1e-9,
            "got {got} expected {expected}"
        );
    }

    #[test]
    fn total_cost_matches_hand_computation() {
        let m = CostModel::paper_default();
        // Pairs: (0,1)@L1 rate10, (0,2)@L2 rate5, (2,3)@L3 rate1.
        let expected = 2.0 * (10.0 * w(1) + 5.0 * w(2) + 1.0 * w(3));
        let got = m.total_cost(&alloc(), &traffic(), &topo());
        assert!((got - expected).abs() < 1e-9);
    }

    #[test]
    fn total_is_half_sum_of_vm_costs() {
        // C_A = ½ Σ_u C_A(u) (paper §III).
        let m = CostModel::paper_default();
        let (a, t, topo) = (alloc(), traffic(), topo());
        let total = m.total_cost(&a, &t, &topo);
        let sum: f64 = (0..4).map(|v| m.vm_cost(VmId::new(v), &a, &t, &topo)).sum();
        assert!((total - sum / 2.0).abs() < 1e-9);
    }

    #[test]
    fn delta_matches_full_recomputation() {
        let m = CostModel::paper_default();
        let (mut a, t, topo) = (alloc(), traffic(), topo());
        let before = m.total_cost(&a, &t, &topo);
        // Move vm0 next to vm2 (server 4).
        let delta = m.migration_delta(VmId::new(0), ServerId::new(4), &a, &t, &topo);
        a.move_vm(VmId::new(0), ServerId::new(4));
        let after = m.total_cost(&a, &t, &topo);
        assert!(
            (delta - (before - after)).abs() < 1e-9,
            "delta {delta} vs {}",
            before - after
        );
    }

    #[test]
    fn delta_for_noop_move_is_zero() {
        let m = CostModel::paper_default();
        let (a, t, topo) = (alloc(), traffic(), topo());
        assert_eq!(
            m.migration_delta(VmId::new(0), ServerId::new(0), &a, &t, &topo),
            0.0
        );
    }

    #[test]
    fn collocation_zeroes_pair_cost() {
        let m = CostModel::paper_default();
        let (mut a, t, topo) = (alloc(), traffic(), topo());
        // Put vm0 on vm1's server: their 10-unit pair stops costing.
        a.move_vm(VmId::new(0), ServerId::new(1));
        let cost = m.total_cost(&a, &t, &topo);
        let expected = 2.0 * (5.0 * w(2) + 1.0 * w(3));
        assert!((cost - expected).abs() < 1e-9);
    }

    #[test]
    fn theorem1_gate() {
        let m = CostModel::paper_default();
        let (a, t, topo) = (alloc(), traffic(), topo());
        let delta = m.migration_delta(VmId::new(0), ServerId::new(1), &a, &t, &topo);
        assert!(delta > 0.0);
        assert!(m.should_migrate(VmId::new(0), ServerId::new(1), &a, &t, &topo, 0.0));
        // A migration cost above the gain blocks the move.
        assert!(!m.should_migrate(VmId::new(0), ServerId::new(1), &a, &t, &topo, delta + 1.0));
    }

    #[test]
    fn highest_level() {
        let m = CostModel::paper_default();
        let (a, t, topo) = (alloc(), traffic(), topo());
        assert_eq!(
            m.highest_level(VmId::new(0), &a, &t, &topo),
            Level::AGGREGATION
        );
        assert_eq!(m.highest_level(VmId::new(2), &a, &t, &topo), Level::CORE);
        // vm with no peers
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 1.0);
        let t2 = b.build();
        assert_eq!(m.highest_level(VmId::new(3), &a, &t2, &topo), Level::ZERO);
    }

    #[test]
    fn level_breakdown_sums_to_one_and_tracks_moves() {
        let (mut a, t, topo) = (alloc(), traffic(), topo());
        let before = level_breakdown(&a, &t.pairs(), &topo);
        assert_eq!(before.len(), 4);
        assert!((before.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Pairs: 10@L1, 5@L2, 1@L3 → shares 10/16, 5/16, 1/16.
        assert!((before[1] - 10.0 / 16.0).abs() < 1e-12);
        assert!((before[3] - 1.0 / 16.0).abs() < 1e-12);
        // Collocate vm0 with vm1: the 10-unit pair drops to level 0.
        a.move_vm(VmId::new(0), ServerId::new(1));
        let after = level_breakdown(&a, &t.pairs(), &topo);
        assert!((after[0] - 10.0 / 16.0).abs() < 1e-12);
        assert!(after[1] < before[1]);
    }

    #[test]
    fn level_breakdown_empty_traffic() {
        let (a, _, topo) = (alloc(), traffic(), topo());
        let empty = score_traffic::PairTraffic::empty(4);
        let breakdown = level_breakdown(&a, &empty.pairs(), &topo);
        assert!(breakdown.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn moving_away_increases_cost() {
        let m = CostModel::paper_default();
        let (a, t, topo) = (alloc(), traffic(), topo());
        // vm1 away from its only peer vm0: negative delta.
        let delta = m.migration_delta(VmId::new(1), ServerId::new(12), &a, &t, &topo);
        assert!(delta < 0.0);
    }
}
