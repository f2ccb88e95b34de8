//! The Graph-Partitioning → Optimal-VM-Allocation reduction (paper
//! appendix), executable.
//!
//! The paper proves OVMA NP-complete by reducing Graph Partitioning (GP,
//! Garey & Johnson) with unit vertex weights to it: vertices become VMs,
//! edge weights become traffic loads λ, the partition capacity `K` becomes
//! the rack capacity, and the cut-weight goal `J` carries over. On a
//! single-level topology (one link weight `c1`) the communication cost of
//! an allocation is `2·c1 ×` the weight of the edges cut by the induced
//! partition, so the decision problems coincide.
//!
//! This module builds the reduced instance on a [`StarTopology`] and
//! verifies the equivalence by brute force on small instances — the
//! appendix, as a test suite.

use score_core::{Allocation, CostModel};
use score_topology::{LinkWeights, ServerId, StarTopology, Topology, VmId};
use score_traffic::{PairTraffic, PairTrafficBuilder};
use serde::{Deserialize, Serialize};

/// A Graph Partitioning instance with unit vertex weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphPartitionInstance {
    /// Number of vertices.
    pub vertices: u32,
    /// Weighted undirected edges `(u, v, l(e))`.
    pub edges: Vec<(u32, u32, f64)>,
    /// Maximum vertices per part (`K`; NP-complete for `K ≥ 3`).
    pub capacity: u32,
    /// Cut-weight goal (`J`).
    pub goal: f64,
}

/// The reduced OVMA instance.
#[derive(Debug, Clone)]
pub struct OvmaInstance {
    /// Pairwise VM traffic: λ(v_i, v_j) = l(e).
    pub traffic: PairTraffic,
    /// One "rack" (here: star-topology server) per potential part.
    pub topology: StarTopology,
    /// Rack capacity `K`.
    pub rack_capacity: u32,
    /// Cost goal: an allocation answers "yes" iff its Eq.-(2) cost is
    /// `≤ 2·c1·J`.
    pub cost_goal: f64,
    /// The cost model with the single link weight `c1`.
    pub model: CostModel,
}

/// Reduces a GP instance to OVMA (polynomial — in fact linear — time).
///
/// # Panics
///
/// Panics if an edge references an out-of-range vertex or has a
/// non-positive weight.
pub fn reduce(gp: &GraphPartitionInstance) -> OvmaInstance {
    let parts = gp.vertices.div_ceil(gp.capacity.max(1)).max(2);
    let mut b = PairTrafficBuilder::new(gp.vertices);
    for &(u, v, w) in &gp.edges {
        b.add(VmId::new(u), VmId::new(v), w);
    }
    let c1 = 1.0;
    OvmaInstance {
        traffic: b.build(),
        // Enough single-server "racks" that every feasible partition is
        // expressible (at most `vertices` parts are ever needed).
        topology: StarTopology::new(gp.vertices.max(parts), 1e9),
        rack_capacity: gp.capacity,
        cost_goal: 2.0 * c1 * gp.goal,
        model: CostModel::new(LinkWeights::new([c1]).expect("single positive weight")),
    }
}

/// Brute-force: does a partition with cut weight ≤ `goal` and parts of at
/// most `capacity` vertices exist? Returns the best (minimum) cut weight.
///
/// # Panics
///
/// Panics for instances with more than 10 vertices.
pub fn min_cut_brute_force(gp: &GraphPartitionInstance) -> f64 {
    assert!(gp.vertices <= 10, "brute force limited to 10 vertices");
    let parts = gp.vertices; // at most one part per vertex
    let mut best = f64::INFINITY;
    let n = gp.vertices as usize;
    let total = (parts as u64).pow(n as u32);
    for code in 0..total {
        let mut assignment = vec![0u32; n];
        let mut c = code;
        for slot in assignment.iter_mut() {
            *slot = (c % parts as u64) as u32;
            c /= parts as u64;
        }
        let mut occupancy = vec![0u32; parts as usize];
        let mut feasible = true;
        for &p in &assignment {
            occupancy[p as usize] += 1;
            if occupancy[p as usize] > gp.capacity {
                feasible = false;
                break;
            }
        }
        if !feasible {
            continue;
        }
        let cut: f64 = gp
            .edges
            .iter()
            .filter(|&&(u, v, _)| assignment[u as usize] != assignment[v as usize])
            .map(|&(_, _, w)| w)
            .sum();
        best = best.min(cut);
    }
    best
}

/// Brute-force minimum OVMA cost of a reduced instance.
///
/// # Panics
///
/// Panics for instances with more than 10 VMs.
pub fn min_cost_brute_force(ovma: &OvmaInstance) -> f64 {
    let n = ovma.traffic.num_vms() as usize;
    assert!(n <= 10, "brute force limited to 10 VMs");
    let servers = ovma.topology.num_servers() as u64;
    let mut best = f64::INFINITY;
    for code in 0..servers.pow(n as u32) {
        let mut assignment = vec![0u32; n];
        let mut c = code;
        for slot in assignment.iter_mut() {
            *slot = (c % servers) as u32;
            c /= servers;
        }
        let mut occupancy = vec![0u32; servers as usize];
        let mut feasible = true;
        for &p in &assignment {
            occupancy[p as usize] += 1;
            if occupancy[p as usize] > ovma.rack_capacity {
                feasible = false;
                break;
            }
        }
        if !feasible {
            continue;
        }
        let alloc = Allocation::from_fn(n as u32, servers as u32, |vm| {
            ServerId::new(assignment[vm.index()])
        });
        let cost = ovma.model.total_cost(&alloc, &ovma.traffic, &ovma.topology);
        best = best.min(cost);
    }
    best
}

/// Verifies the reduction on a small instance: the minimum OVMA cost must
/// equal `2·c1 ×` the minimum cut weight, so the decision answers agree
/// for every goal `J`.
pub fn verify_reduction(gp: &GraphPartitionInstance) -> bool {
    let ovma = reduce(gp);
    let min_cut = min_cut_brute_force(gp);
    let min_cost = min_cost_brute_force(&ovma);
    (min_cost - 2.0 * min_cut).abs() < 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> GraphPartitionInstance {
        GraphPartitionInstance {
            vertices: 4,
            edges: vec![(0, 1, 3.0), (1, 2, 2.0), (2, 0, 1.0), (2, 3, 5.0)],
            capacity: 3,
            goal: 3.0,
        }
    }

    #[test]
    fn reduction_structure() {
        let gp = triangle_plus_pendant();
        let ovma = reduce(&gp);
        assert_eq!(ovma.traffic.num_vms(), 4);
        assert_eq!(ovma.traffic.num_pairs(), 4);
        assert_eq!(ovma.rack_capacity, 3);
        assert_eq!(ovma.cost_goal, 6.0);
        assert_eq!(
            ovma.traffic.rate(VmId::new(2), VmId::new(3)),
            5.0,
            "edge weights become traffic loads"
        );
    }

    #[test]
    fn reduction_is_cost_equivalent() {
        assert!(verify_reduction(&triangle_plus_pendant()));
    }

    #[test]
    fn reduction_equivalence_on_k3_instances() {
        // K=3 keeps GP NP-complete; verify equivalence on several shapes.
        let instances = vec![
            GraphPartitionInstance {
                vertices: 5,
                edges: vec![
                    (0, 1, 1.0),
                    (1, 2, 2.0),
                    (2, 3, 3.0),
                    (3, 4, 4.0),
                    (4, 0, 5.0),
                ],
                capacity: 3,
                goal: 3.0,
            },
            GraphPartitionInstance {
                vertices: 6,
                edges: vec![
                    (0, 1, 10.0),
                    (2, 3, 10.0),
                    (4, 5, 10.0),
                    (1, 2, 1.0),
                    (3, 4, 1.0),
                ],
                capacity: 3,
                goal: 2.0,
            },
        ];
        for gp in instances {
            assert!(verify_reduction(&gp), "equivalence failed for {gp:?}");
        }
    }

    #[test]
    fn min_cut_finds_obvious_partition() {
        // Three heavy pairs with capacity 2: cutting the light chain links
        // is optimal (cut weight 2).
        let gp = GraphPartitionInstance {
            vertices: 6,
            edges: vec![
                (0, 1, 10.0),
                (2, 3, 10.0),
                (4, 5, 10.0),
                (1, 2, 1.0),
                (3, 4, 1.0),
            ],
            capacity: 2,
            goal: 2.0,
        };
        assert_eq!(min_cut_brute_force(&gp), 2.0);
    }

    #[test]
    #[should_panic(expected = "limited to 10")]
    fn brute_force_refuses_large_instances() {
        let gp = GraphPartitionInstance {
            vertices: 11,
            edges: vec![],
            capacity: 3,
            goal: 0.0,
        };
        let _ = min_cut_brute_force(&gp);
    }
}
