//! Exhaustive optimal allocation for tiny instances.
//!
//! Optimal VM allocation is NP-complete (paper appendix), but for a handful
//! of VMs and servers a branch-and-bound enumeration is tractable. The
//! exhaustive optimum validates both the GA (it must reach or approach it)
//! and S-CORE (its converged cost must be bounded below by it).

use score_core::{Allocation, CostModel};
use score_topology::{ServerId, Topology, VmId};
use score_traffic::PairTraffic;

/// Result of an exhaustive search.
#[derive(Debug, Clone)]
pub struct ExhaustiveResult {
    /// A provably optimal allocation.
    pub best: Allocation,
    /// Its Eq.-(2) cost.
    pub best_cost: f64,
    /// Assignments examined (after pruning).
    pub examined: u64,
}

/// Upper bound on `servers^vms` enumeration effort before
/// [`exhaustive_optimal`] refuses to run.
pub const MAX_STATES: f64 = 5e7;

/// Finds the provably optimal allocation by depth-first enumeration with
/// branch-and-bound pruning on the partial cost.
///
/// # Panics
///
/// Panics if the instance is too large (`servers^vms > MAX_STATES`) or the
/// slot capacity cannot hold the VMs.
pub fn exhaustive_optimal<T: Topology + ?Sized>(
    topo: &T,
    traffic: &PairTraffic,
    model: &CostModel,
    slots_per_server: u32,
) -> ExhaustiveResult {
    let n = traffic.num_vms() as usize;
    let servers = topo.num_servers();
    assert!(
        (servers as f64).powi(n as i32) <= MAX_STATES,
        "instance too large for exhaustive search: {servers}^{n}"
    );
    assert!(
        servers as u64 * slots_per_server as u64 >= n as u64,
        "not enough slots for the VM population"
    );

    let mut assignment = vec![0u32; n];
    let mut occupancy = vec![0u32; servers];
    let mut best_assignment = None;
    let mut best_cost = f64::INFINITY;
    let mut examined = 0u64;

    // Depth-first over VMs in id order; partial cost counts pairs whose
    // both endpoints are already placed.
    #[allow(clippy::too_many_arguments)] // internal DFS carries its whole search state
    fn recurse<T: Topology + ?Sized>(
        vm: usize,
        n: usize,
        servers: usize,
        slots: u32,
        topo: &T,
        traffic: &PairTraffic,
        model: &CostModel,
        assignment: &mut [u32],
        occupancy: &mut [u32],
        partial_cost: f64,
        best_cost: &mut f64,
        best_assignment: &mut Option<Vec<u32>>,
        examined: &mut u64,
    ) {
        if partial_cost >= *best_cost {
            return; // prune: costs only grow as more pairs complete
        }
        if vm == n {
            *examined += 1;
            *best_cost = partial_cost;
            *best_assignment = Some(assignment.to_vec());
            return;
        }
        let u = VmId::new(vm as u32);
        for s in 0..servers {
            if occupancy[s] >= slots {
                continue;
            }
            // Cost added by pairs (u, z) with z already placed.
            let su = ServerId::new(s as u32);
            let mut added = 0.0;
            for (z, rate) in traffic.peers(u) {
                if (z.index()) < vm {
                    let sz = ServerId::new(assignment[z.index()]);
                    let level = topo.level(su, sz);
                    added += rate * model.weights().prefix(level);
                }
            }
            let added = 2.0 * added;
            assignment[vm] = s as u32;
            occupancy[s] += 1;
            recurse(
                vm + 1,
                n,
                servers,
                slots,
                topo,
                traffic,
                model,
                assignment,
                occupancy,
                partial_cost + added,
                best_cost,
                best_assignment,
                examined,
            );
            occupancy[s] -= 1;
        }
    }

    recurse(
        0,
        n,
        servers,
        slots_per_server,
        topo,
        traffic,
        model,
        &mut assignment,
        &mut occupancy,
        0.0,
        &mut best_cost,
        &mut best_assignment,
        &mut examined,
    );

    let best_vec = best_assignment.expect("at least one feasible assignment exists");
    let best = Allocation::from_fn(n as u32, servers as u32, |vm| {
        ServerId::new(best_vec[vm.index()])
    });
    ExhaustiveResult {
        best,
        best_cost,
        examined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::{GaConfig, GeneticOptimizer};
    use score_topology::CanonicalTree;
    use score_traffic::PairTrafficBuilder;

    fn tiny_topo() -> CanonicalTree {
        // 2 racks x 2 hosts, single agg: 4 servers.
        score_topology::CanonicalTreeBuilder::new()
            .racks(2)
            .hosts_per_rack(2)
            .racks_per_agg(2)
            .cores(1)
            .build()
            .unwrap()
    }

    fn chain_traffic(n: u32) -> PairTraffic {
        let mut b = PairTrafficBuilder::new(n);
        for v in 0..n - 1 {
            b.add(VmId::new(v), VmId::new(v + 1), (v + 1) as f64 * 10.0);
        }
        b.build()
    }

    #[test]
    fn optimal_collocates_heavy_chain() {
        let topo = tiny_topo();
        let traffic = chain_traffic(4);
        let result = exhaustive_optimal(&topo, &traffic, &CostModel::paper_default(), 4);
        // All four VMs fit on one server: optimal cost 0.
        assert_eq!(result.best_cost, 0.0);
    }

    #[test]
    fn optimal_with_tight_slots() {
        let topo = tiny_topo();
        let traffic = chain_traffic(4);
        let model = CostModel::paper_default();
        // 2 slots per server: pairs (2,3)-heavy edges should collocate.
        let result = exhaustive_optimal(&topo, &traffic, &model, 2);
        assert!(result.best_cost > 0.0);
        // Verify against a fully naive enumeration of all 4^4 assignments.
        let mut naive_best = f64::INFINITY;
        for mask in 0..(4u32.pow(4)) {
            let digits: Vec<u32> = (0..4).map(|i| (mask / 4u32.pow(i)) % 4).collect();
            let mut occ = [0u32; 4];
            let mut feasible = true;
            for &d in &digits {
                occ[d as usize] += 1;
                if occ[d as usize] > 2 {
                    feasible = false;
                    break;
                }
            }
            if !feasible {
                continue;
            }
            let alloc = Allocation::from_fn(4, 4, |vm| ServerId::new(digits[vm.index()]));
            let cost = model.total_cost(&alloc, &traffic, &topo);
            naive_best = naive_best.min(cost);
        }
        assert!((result.best_cost - naive_best).abs() < 1e-9);
    }

    #[test]
    fn ga_reaches_exhaustive_optimum_on_tiny_instance() {
        let topo = tiny_topo();
        let traffic = chain_traffic(6);
        let model = CostModel::paper_default();
        let exact = exhaustive_optimal(&topo, &traffic, &model, 2);
        let ga = GeneticOptimizer::new(&topo, &traffic, model, 2, GaConfig::fast()).run();
        assert!(
            ga.best_cost <= exact.best_cost * 1.05 + 1e-9,
            "GA {} should be within 5% of optimal {}",
            ga.best_cost,
            exact.best_cost
        );
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_instance_rejected() {
        let topo = CanonicalTree::small(); // 16 servers
        let traffic = chain_traffic(32);
        let _ = exhaustive_optimal(&topo, &traffic, &CostModel::paper_default(), 16);
    }

    #[test]
    fn pruning_still_finds_optimum() {
        // Compare against no-pruning by checking a second traffic shape.
        let topo = tiny_topo();
        let mut b = PairTrafficBuilder::new(5);
        b.add(VmId::new(0), VmId::new(4), 100.0);
        b.add(VmId::new(1), VmId::new(3), 90.0);
        b.add(VmId::new(2), VmId::new(4), 5.0);
        let traffic = b.build();
        let model = CostModel::paper_default();
        let result = exhaustive_optimal(&topo, &traffic, &model, 2);
        let cost = model.total_cost(&result.best, &traffic, &topo);
        assert!((cost - result.best_cost).abs() < 1e-9);
        // Heavy pairs must be collocated in the optimum.
        assert_eq!(
            result.best.server_of(VmId::new(0)),
            result.best.server_of(VmId::new(4))
        );
        assert_eq!(
            result.best.server_of(VmId::new(1)),
            result.best.server_of(VmId::new(3))
        );
    }
}
