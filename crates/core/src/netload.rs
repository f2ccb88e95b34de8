//! Per-link load accounting.
//!
//! Given an allocation and the pairwise loads, route every VM pair over the
//! topology's (multipath) route shares and accumulate bits per second on
//! each link. This produces the link-utilization CDFs of Fig. 4a and the
//! congestion signal that the Remedy baseline consumes.

use score_topology::{Level, LinkId, Topology, VmId};
use score_traffic::PairTraffic;
use serde::{Deserialize, Serialize};

use crate::allocation::Allocation;

/// Load and utilization of every link under one allocation.
///
/// # Examples
///
/// ```
/// use score_core::{Allocation, LinkLoadMap};
/// use score_topology::{CanonicalTree, Level, ServerId, VmId};
/// use score_traffic::PairTrafficBuilder;
///
/// let topo = CanonicalTree::small();
/// let mut b = PairTrafficBuilder::new(2);
/// b.add(VmId::new(0), VmId::new(1), 100e6); // 100 Mb/s across the core
/// let traffic = b.build();
/// let alloc = Allocation::from_fn(2, 16, |vm| ServerId::new(vm.get() * 8));
///
/// let map = LinkLoadMap::compute(&alloc, &traffic.pairs(), &topo);
/// // Both 1 GbE host links carry the full rate: 10% utilization.
/// let (_, max_util) = map.max_utilization(Level::RACK).unwrap();
/// assert!((max_util - 0.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkLoadMap {
    /// Load per link in bits per second, indexed by `LinkId`.
    load_bps: Vec<f64>,
    /// Capacity per link in bits per second.
    capacity_bps: Vec<f64>,
    /// Link level (1 = host↔ToR, 2 = ToR↔agg, 3 = agg↔core).
    level: Vec<u8>,
}

impl LinkLoadMap {
    /// Computes link loads for `alloc` by fluid-routing every communicating
    /// pair over its topology route shares ([`Topology::link_loads`]).
    ///
    /// `pairs` is the TM as [`PairTraffic::pairs`] lists it; every link
    /// sums its addends in that order, so the same list gives the same
    /// bits (the list [`crate::level_breakdown`] takes too).
    pub fn compute<T: Topology + ?Sized>(
        alloc: &Allocation,
        pairs: &[(VmId, VmId, f64)],
        topo: &T,
    ) -> Self {
        let links = topo.graph().links();
        let load_bps = topo.link_loads(
            &mut pairs
                .iter()
                .map(|&(u, v, rate)| (alloc.server_of(u), alloc.server_of(v), rate)),
        );
        LinkLoadMap {
            load_bps,
            capacity_bps: links.iter().map(|l| l.capacity_bps).collect(),
            level: links.iter().map(|l| l.level).collect(),
        }
    }

    /// Number of links tracked.
    pub fn num_links(&self) -> usize {
        self.load_bps.len()
    }

    /// Load on one link in bits per second.
    pub fn load_bps(&self, link: LinkId) -> f64 {
        self.load_bps[link.index()]
    }

    /// Utilization of one link in `[0, ∞)` (can exceed 1 when demand
    /// exceeds capacity).
    pub fn utilization(&self, link: LinkId) -> f64 {
        self.load_bps[link.index()] / self.capacity_bps[link.index()]
    }

    /// Iterator over `(link, load_bps, utilization)` tuples.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, f64, f64)> + '_ {
        (0..self.load_bps.len()).map(move |i| {
            (
                LinkId::new(i as u32),
                self.load_bps[i],
                self.load_bps[i] / self.capacity_bps[i],
            )
        })
    }

    /// The most utilized link and its utilization, optionally restricted to
    /// a minimum level (Remedy watches the oversubscribed upper layers).
    pub fn max_utilization(&self, min_level: Level) -> Option<(LinkId, f64)> {
        (0..self.load_bps.len())
            .filter(|&i| self.level[i] >= min_level.get())
            .map(|i| {
                (
                    LinkId::new(i as u32),
                    self.load_bps[i] / self.capacity_bps[i],
                )
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Total load carried on links of the given level (bps, both
    /// directions of every path counted once per link).
    pub fn total_load_at_level(&self, level: Level) -> f64 {
        (0..self.load_bps.len())
            .filter(|&i| self.level[i] == level.get())
            .map(|i| self.load_bps[i])
            .sum()
    }

    /// Empirical CDF of the utilizations at `level`: returns the sorted
    /// utilization values; plotting index/(n-1) against value reproduces
    /// Fig. 4a's per-layer CDFs.
    pub fn utilization_cdf(&self, level: Level) -> Vec<f64> {
        let mut utils: Vec<f64> = (0..self.load_bps.len())
            .filter(|&i| self.level[i] == level.get())
            .map(|i| self.load_bps[i] / self.capacity_bps[i])
            .collect();
        utils.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        utils
    }

    /// VMs contributing load to `link` under `alloc`, with their
    /// contributed bps, descending — Remedy's candidate selection signal.
    pub fn contributors<T: Topology + ?Sized>(
        link: LinkId,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) -> Vec<(VmId, f64)> {
        let mut contrib: Vec<f64> = vec![0.0; traffic.num_vms() as usize];
        for (u, v, rate) in traffic.pairs() {
            let (su, sv) = (alloc.server_of(u), alloc.server_of(v));
            for share in topo.route_shares(su, sv) {
                if share.link == link {
                    contrib[u.index()] += rate * share.fraction;
                    contrib[v.index()] += rate * share.fraction;
                }
            }
        }
        let mut out: Vec<(VmId, f64)> = contrib
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0.0)
            .map(|(i, c)| (VmId::new(i as u32), c))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use score_topology::{CanonicalTree, ServerId};
    use score_traffic::PairTrafficBuilder;

    fn fixture() -> (CanonicalTree, Allocation, PairTraffic) {
        let topo = CanonicalTree::small();
        // vm0@srv0, vm1@srv1 (same rack), vm2@srv8 (across core)
        let servers = [0u32, 1, 8];
        let alloc = Allocation::from_fn(3, 16, |vm| ServerId::new(servers[vm.index()]));
        let mut b = PairTrafficBuilder::new(3);
        b.add(VmId::new(0), VmId::new(1), 100e6);
        b.add(VmId::new(0), VmId::new(2), 50e6);
        (topo, alloc, b.build())
    }

    #[test]
    fn loads_land_on_route_links() {
        let (topo, alloc, traffic) = fixture();
        let map = LinkLoadMap::compute(&alloc, &traffic.pairs(), &topo);
        // srv0's host link carries both pairs: 150 Mb/s.
        let host0 =
            score_topology::Topology::route_shares(&topo, ServerId::new(0), ServerId::new(1))[0]
                .link;
        assert!((map.load_bps(host0) - 150e6).abs() < 1.0);
        // Host link utilization: 150 Mb/s over 1 Gb/s.
        assert!((map.utilization(host0) - 0.15).abs() < 1e-9);
    }

    #[test]
    fn core_links_split_by_ecmp() {
        let (topo, alloc, traffic) = fixture();
        let map = LinkLoadMap::compute(&alloc, &traffic.pairs(), &topo);
        // The 50 Mb/s core pair splits across 2 cores: each agg-core link
        // on the path carries 25 Mb/s.
        let core_loads: Vec<f64> = map
            .iter()
            .filter(|&(l, _, _)| map.level[l.index()] == Level::CORE.get())
            .map(|(_, load, _)| load)
            .filter(|&l| l > 0.0)
            .collect();
        assert_eq!(core_loads.len(), 4); // 2 sides x 2 cores
        for l in core_loads {
            assert!((l - 25e6).abs() < 1.0);
        }
        assert!((map.total_load_at_level(Level::CORE) - 100e6).abs() < 1.0);
    }

    #[test]
    fn max_utilization_finds_hot_link() {
        let (topo, alloc, traffic) = fixture();
        let map = LinkLoadMap::compute(&alloc, &traffic.pairs(), &topo);
        let (_link, util) = map.max_utilization(Level::RACK).unwrap();
        assert!((util - 0.15).abs() < 1e-9); // srv0's host link
                                             // Restricted to core level only.
        let (_link, util) = map.max_utilization(Level::CORE).unwrap();
        assert!((util - 25e6 / 10e9).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_sorted_and_complete() {
        let (topo, alloc, traffic) = fixture();
        let map = LinkLoadMap::compute(&alloc, &traffic.pairs(), &topo);
        let cdf = map.utilization_cdf(Level::RACK);
        assert_eq!(cdf.len(), 16); // all host links
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn contributors_ranked() {
        let (topo, alloc, traffic) = fixture();
        let map = LinkLoadMap::compute(&alloc, &traffic.pairs(), &topo);
        let (hot, _) = map.max_utilization(Level::CORE).unwrap();
        let contribs = LinkLoadMap::contributors(hot, &alloc, &traffic, &topo);
        // Only the core pair (vm0, vm2) touches core links.
        assert_eq!(contribs.len(), 2);
        let vms: Vec<VmId> = contribs.iter().map(|&(v, _)| v).collect();
        assert!(vms.contains(&VmId::new(0)) && vms.contains(&VmId::new(2)));
    }

    #[test]
    fn collocation_produces_zero_load() {
        let (topo, _, traffic) = fixture();
        let together = Allocation::from_fn(3, 16, |_| ServerId::new(0));
        let map = LinkLoadMap::compute(&together, &traffic.pairs(), &topo);
        assert!(map.iter().all(|(_, load, _)| load == 0.0));
        assert!(map.max_utilization(Level::RACK).unwrap().1 == 0.0);
    }
}
