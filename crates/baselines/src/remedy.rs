//! Re-implementation of Remedy (Mann et al., IFIP Networking 2012 — the
//! paper's reference \[15\]), the centralized comparator of §VI-B.
//!
//! Remedy is "network-aware steady state VM management": an OpenFlow
//! controller monitors link utilization globally, detects congested links,
//! and migrates VMs contributing to them onto hosts that *balance* network
//! load — explicitly modelling the cost of each migration as the bytes
//! moved by pre-copy. Unlike S-CORE it aims at balancing utilization, not
//! at localizing traffic to cheap layers, which is why the paper finds it
//! reduces communication cost by only ~10% (vs S-CORE's ~40%) while being
//! more responsive to transient congestion.

use score_core::{Allocation, Cluster, CostModel, LinkLoadMap};
use score_topology::{Level, ServerId, Topology, VmId};
use score_traffic::PairTraffic;
use serde::{Deserialize, Serialize};

/// Estimated bytes transferred by an n-round pre-copy migration — Remedy's
/// migration cost model: a geometric series over the page-dirty/bandwidth
/// ratio, `V · (1 − r^{n+1}) / (1 − r)` with `r = dirty_rate / bandwidth`.
///
/// # Panics
///
/// Panics if `bandwidth_bytes_per_s` is not positive.
fn precopy_bytes_estimate(
    ram_bytes: f64,
    dirty_rate_bytes_per_s: f64,
    bandwidth_bytes_per_s: f64,
    rounds: u32,
) -> f64 {
    assert!(bandwidth_bytes_per_s > 0.0, "bandwidth must be positive");
    let r = (dirty_rate_bytes_per_s / bandwidth_bytes_per_s).min(0.99);
    if r <= f64::EPSILON {
        return ram_bytes;
    }
    ram_bytes * (1.0 - r.powi(rounds as i32 + 1)) / (1.0 - r)
}

/// Remedy tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RemedyConfig {
    /// Links above this utilization are congested and trigger action.
    pub utilization_threshold: f64,
    /// Lowest link level the controller watches (Remedy cares about the
    /// oversubscribed upper layers).
    pub min_level: Level,
    /// Hard cap on migrations per run.
    pub max_migrations: usize,
    /// How many top contributors of a hot link to consider moving.
    pub candidates_per_step: usize,
    /// How many candidate target hosts to evaluate per VM.
    pub targets_per_candidate: usize,
    /// VM memory for the pre-copy byte estimate, bytes.
    pub vm_ram_bytes: f64,
    /// Page dirty rate, bytes per second.
    pub dirty_rate_bytes_per_s: f64,
    /// Migration-path bandwidth, bytes per second.
    pub migration_bw_bytes_per_s: f64,
    /// Pre-copy rounds assumed by the cost model.
    pub precopy_rounds: u32,
    /// Seconds over which a utilization improvement amortises the
    /// migration bytes (steady-state condition).
    pub amortization_s: f64,
}

impl RemedyConfig {
    /// Configuration matching the paper's comparison setup: 196 MB VMs on
    /// 1 GbE with a moderate dirty rate.
    pub fn paper_default() -> Self {
        RemedyConfig {
            utilization_threshold: 0.05,
            min_level: Level::AGGREGATION,
            max_migrations: 256,
            candidates_per_step: 3,
            targets_per_candidate: 8,
            vm_ram_bytes: 196.0 * 1024.0 * 1024.0,
            dirty_rate_bytes_per_s: 12.0 * 1024.0 * 1024.0,
            migration_bw_bytes_per_s: 125e6, // 1 Gb/s
            precopy_rounds: 4,
            amortization_s: 300.0,
        }
    }
}

impl Default for RemedyConfig {
    fn default() -> Self {
        RemedyConfig::paper_default()
    }
}

/// One migration performed by Remedy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RemedyStep {
    /// The migrated VM.
    pub vm: VmId,
    /// Source server.
    pub from: ServerId,
    /// Destination server.
    pub to: ServerId,
    /// Watched-layer max utilization before the move.
    pub max_util_before: f64,
    /// Watched-layer max utilization after the move.
    pub max_util_after: f64,
    /// Estimated migration traffic in bytes.
    pub migrated_bytes: f64,
}

/// Result of a Remedy run.
#[derive(Debug, Clone, Default)]
pub struct RemedyResult {
    /// Migrations performed, in order.
    pub steps: Vec<RemedyStep>,
    /// Final max utilization on the watched layers.
    pub final_max_util: f64,
}

/// The Remedy controller.
///
/// # Examples
///
/// ```
/// use score_baselines::{Remedy, RemedyConfig};
///
/// let controller = Remedy::new(RemedyConfig::paper_default());
/// // Remedy's own pre-copy cost model prices a 196 MB VM migration.
/// let bytes = controller.migration_bytes();
/// assert!(bytes > 196.0 * 1024.0 * 1024.0);
/// ```
#[derive(Debug, Clone)]
pub struct Remedy {
    config: RemedyConfig,
}

impl Remedy {
    /// Creates a controller.
    pub fn new(config: RemedyConfig) -> Self {
        Remedy { config }
    }

    /// The configuration.
    pub fn config(&self) -> &RemedyConfig {
        &self.config
    }

    /// Per-migration byte cost under the configured pre-copy model.
    pub fn migration_bytes(&self) -> f64 {
        precopy_bytes_estimate(
            self.config.vm_ram_bytes,
            self.config.dirty_rate_bytes_per_s,
            self.config.migration_bw_bytes_per_s,
            self.config.precopy_rounds,
        )
    }

    /// Predicted watched-layer max utilization if `vm` moved to `target`.
    fn predicted_max_util(
        &self,
        vm: VmId,
        target: ServerId,
        alloc: &Allocation,
        pairs: &[(VmId, VmId, f64)],
        topo: &dyn Topology,
    ) -> f64 {
        let mut hypothetical = alloc.clone();
        hypothetical.move_vm(vm, target);
        LinkLoadMap::compute(&hypothetical, pairs, topo)
            .max_utilization(self.config.min_level)
            .map_or(0.0, |(_, u)| u)
    }

    /// Candidate target hosts: servers with free capacity, ranked by the
    /// residual headroom of their host link (Remedy balances load, so it
    /// prefers the least-loaded corners of the fabric).
    fn candidate_targets(
        &self,
        vm: VmId,
        cluster: &Cluster,
        traffic: &PairTraffic,
        map: &LinkLoadMap,
    ) -> Vec<ServerId> {
        let topo = cluster.topo();
        let current = cluster.allocation().server_of(vm);
        let mut targets: Vec<(ServerId, f64)> = topo
            .servers()
            .filter(|&s| s != current)
            .filter(|&s| cluster.can_host(traffic, s, vm, 1.0).is_ok())
            .map(|s| {
                // Utilization of the server's access link.
                let shares = topo.route_shares(s, current);
                let host_util = shares
                    .first()
                    .map_or(0.0, |share| map.utilization(share.link));
                (s, host_util)
            })
            .collect();
        targets.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        targets.truncate(self.config.targets_per_candidate);
        targets.into_iter().map(|(s, _)| s).collect()
    }

    /// Runs the controller to steady state (no congested link, no
    /// beneficial move, or the migration cap).
    pub fn run(&self, cluster: &mut Cluster, traffic: &PairTraffic) -> RemedyResult {
        let mut result = RemedyResult::default();
        let bytes_per_migration = self.migration_bytes();
        // The TM is fixed for the run: one pair list serves every map.
        let pairs = traffic.pairs();

        for _ in 0..self.config.max_migrations {
            let map = LinkLoadMap::compute(cluster.allocation(), &pairs, cluster.topo());
            let Some((hot_link, max_util)) = map.max_utilization(self.config.min_level) else {
                break;
            };
            result.final_max_util = max_util;
            if max_util < self.config.utilization_threshold {
                break;
            }

            let contributors =
                LinkLoadMap::contributors(hot_link, cluster.allocation(), traffic, cluster.topo());
            let mut best: Option<(VmId, ServerId, f64)> = None;
            for &(vm, _) in contributors.iter().take(self.config.candidates_per_step) {
                for target in self.candidate_targets(vm, cluster, traffic, &map) {
                    let predicted = self.predicted_max_util(
                        vm,
                        target,
                        cluster.allocation(),
                        &pairs,
                        cluster.topo(),
                    );
                    if best.as_ref().is_none_or(|&(_, _, b)| predicted < b) {
                        best = Some((vm, target, predicted));
                    }
                }
            }

            let Some((vm, target, predicted)) = best else {
                break;
            };
            // Steady-state gate: the utilization relief, amortised over the
            // configured window on the hot link's capacity, must pay for
            // the migration bytes.
            let relief = max_util - predicted;
            let hot_capacity = cluster.topo().graph().link(hot_link).capacity_bps / 8.0;
            let benefit_bytes = relief * hot_capacity * self.config.amortization_s;
            if relief <= 1e-12 || benefit_bytes <= bytes_per_migration {
                break;
            }
            let from = cluster.allocation().server_of(vm);
            cluster
                .migrate(traffic, vm, target, 1.0)
                .expect("candidate_targets validated capacity");
            result.steps.push(RemedyStep {
                vm,
                from,
                to: target,
                max_util_before: max_util,
                max_util_after: predicted,
                migrated_bytes: bytes_per_migration,
            });
            result.final_max_util = predicted;
        }
        result
    }
}

/// Convenience: communication cost before/after a Remedy run (for the
/// Fig. 4b comparison).
pub fn remedy_cost_reduction(
    cluster: &mut Cluster,
    traffic: &PairTraffic,
    model: &CostModel,
    config: RemedyConfig,
) -> (f64, f64, RemedyResult) {
    let before = model.total_cost(cluster.allocation(), traffic, cluster.topo());
    let result = Remedy::new(config).run(cluster, traffic);
    let after = model.total_cost(cluster.allocation(), traffic, cluster.topo());
    (before, after, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::random_placement;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use score_core::{ServerSpec, VmSpec};
    use score_topology::CanonicalTree;
    use score_traffic::WorkloadConfig;
    use std::sync::Arc;

    fn world(seed: u64) -> (Cluster, PairTraffic) {
        let topo = Arc::new(CanonicalTree::small());
        let traffic = WorkloadConfig::new(48, seed).generate();
        let alloc = random_placement(48, 16, 16, &mut StdRng::seed_from_u64(seed));
        let cluster = Cluster::new(
            topo,
            ServerSpec::paper_default(),
            VmSpec::paper_default(),
            &traffic,
            alloc,
        )
        .unwrap();
        (cluster, traffic)
    }

    #[test]
    fn precopy_estimate_properties() {
        let v = 196e6;
        // No dirtying: exactly the RAM.
        assert_eq!(precopy_bytes_estimate(v, 0.0, 125e6, 4), v);
        // Dirtying inflates the transfer.
        let dirty = precopy_bytes_estimate(v, 30e6, 125e6, 4);
        assert!(dirty > v);
        // More rounds → more bytes, bounded by the geometric limit.
        let more = precopy_bytes_estimate(v, 30e6, 125e6, 8);
        assert!(more >= dirty);
        let limit = v / (1.0 - 30e6 / 125e6);
        assert!(more < limit * 1.001);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn precopy_rejects_zero_bandwidth() {
        let _ = precopy_bytes_estimate(1.0, 1.0, 0.0, 1);
    }

    #[test]
    fn remedy_reduces_max_utilization() {
        let (mut cluster, traffic) = world(11);
        let before = LinkLoadMap::compute(cluster.allocation(), &traffic.pairs(), cluster.topo())
            .max_utilization(Level::AGGREGATION)
            .unwrap()
            .1;
        let result = Remedy::new(RemedyConfig::paper_default()).run(&mut cluster, &traffic);
        let after = LinkLoadMap::compute(cluster.allocation(), &traffic.pairs(), cluster.topo())
            .max_utilization(Level::AGGREGATION)
            .unwrap()
            .1;
        assert!(
            after <= before + 1e-12,
            "max util must not increase: {before} -> {after}"
        );
        if !result.steps.is_empty() {
            assert!(after < before, "performed migrations must reduce max util");
            // Every step's bookkeeping is coherent.
            for s in &result.steps {
                assert!(s.max_util_after < s.max_util_before);
                assert!(s.migrated_bytes > 0.0);
            }
        }
    }

    #[test]
    fn remedy_respects_capacity() {
        let (mut cluster, traffic) = world(12);
        Remedy::new(RemedyConfig::paper_default()).run(&mut cluster, &traffic);
        for s in cluster.topo().servers() {
            assert!(cluster.allocation().occupancy(s) <= 16);
        }
        assert!(cluster.allocation().is_consistent());
    }

    #[test]
    fn high_threshold_does_nothing() {
        let (mut cluster, traffic) = world(13);
        let cfg = RemedyConfig {
            utilization_threshold: 1e9,
            ..RemedyConfig::paper_default()
        };
        let result = Remedy::new(cfg).run(&mut cluster, &traffic);
        assert!(result.steps.is_empty());
    }

    #[test]
    fn expensive_migrations_gate_moves() {
        let (mut cluster, traffic) = world(14);
        let cfg = RemedyConfig {
            // Absurd VM size: no relief can amortise it.
            vm_ram_bytes: 1e18,
            ..RemedyConfig::paper_default()
        };
        let result = Remedy::new(cfg).run(&mut cluster, &traffic);
        assert!(result.steps.is_empty());
    }

    #[test]
    fn remedy_cost_reduction_is_modest() {
        // The headline §VI-B contrast: Remedy improves communication cost
        // far less than S-CORE does, because it balances rather than
        // localizes. Here we only assert it does not *increase* cost
        // catastrophically and reports coherent numbers.
        let (mut cluster, traffic) = world(15);
        let model = CostModel::paper_default();
        let (before, after, result) = remedy_cost_reduction(
            &mut cluster,
            &traffic,
            &model,
            RemedyConfig::paper_default(),
        );
        assert!(before > 0.0);
        assert!(after > 0.0);
        assert_eq!(
            result.steps.iter().map(|s| s.migrated_bytes).sum::<f64>(),
            result.steps.len() as f64
                * Remedy::new(RemedyConfig::paper_default()).migration_bytes()
        );
    }
}
