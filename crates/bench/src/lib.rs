//! Criterion benchmark harness for the S-CORE reproduction.
//!
//! The ablations bench and the two CI-gated records; see `benches/`.
//! Shared fixtures live here so bench code stays small.

use score_core::{Allocation, Cluster, ServerSpec, VmSpec};
use score_topology::{CanonicalTree, ServerId, Topology};
use score_traffic::{PairTraffic, WorkloadConfig};
use std::sync::Arc;

/// A small canonical-tree world reused across benches.
pub fn bench_world(vms: u32, seed: u64) -> (Cluster, PairTraffic) {
    let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
    let traffic = WorkloadConfig::new(vms, seed).generate();
    let servers = topo.num_servers() as u32;
    let alloc = Allocation::from_fn(vms, servers, |vm| ServerId::new(vm.get() % servers));
    let cluster = Cluster::new(
        topo,
        ServerSpec::paper_default(),
        VmSpec::paper_default(),
        &traffic,
        alloc,
    )
    .expect("bench world is capacity-feasible");
    (cluster, traffic)
}
