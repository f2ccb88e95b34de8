//! Reusable decision-path buffers.
//!
//! A steady-state token hold must not touch the heap: at 100k hosts the
//! decision itself is a few microseconds, so even one `Vec` growth per
//! hold shows up. [`DecisionScratch`] owns every buffer the hold needs —
//! the observed view, the forecast-re-rated decision view, the
//! post-migration view, the predicted-rate slab, and the level-bucket
//! accumulators of the single-pass kernel — all grown once to the
//! topology's size and reused forever after.
//!
//! Ownership rules (see `docs/ARCHITECTURE.md` § Decision kernel):
//! every [`crate::TokenRing`] owns exactly one scratch (so `Session`,
//! `scored`'s tenant engines and `MatrixRunner` cells each get their own
//! through the rings they already own), and a scratch is never shared
//! across threads — per-worker rings mean per-worker scratches.

use score_topology::{ServerId, Topology};

use crate::view::{LocalView, RankEntry};

/// Epoch-stamped sparse accumulators for the level-bucketed kernel.
///
/// The kernel needs per-server / per-rack / per-zone peer-rate sums for
/// one holder at a time. Dense arrays sized to the topology give O(1)
/// reads, and an epoch stamp per slot gives O(1) *clearing*: a slot is
/// valid only when its mark equals the current epoch, so starting a new
/// decision is one counter increment, not an O(topology) memset.
#[derive(Debug, Default)]
pub struct KernelScratch {
    epoch: u32,
    host_rate: Vec<f64>,
    host_mark: Vec<u32>,
    rack_rate: Vec<f64>,
    rack_mark: Vec<u32>,
    zone_rate: Vec<f64>,
    zone_mark: Vec<u32>,
    /// Ranked-candidate buffer, filled by
    /// `LocalView::rank_candidates_into`.
    pub(crate) candidates: Vec<RankEntry>,
}

impl KernelScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        KernelScratch::default()
    }

    /// Grows the accumulator arrays to the topology's dimensions. New
    /// slots start with mark 0, which is never a live epoch.
    pub fn ensure_topology<T: Topology + ?Sized>(&mut self, topo: &T) {
        let servers = topo.num_servers();
        if self.host_rate.len() < servers {
            self.host_rate.resize(servers, 0.0);
            self.host_mark.resize(servers, 0);
        }
        let racks = topo.num_racks();
        if self.rack_rate.len() < racks {
            self.rack_rate.resize(racks, 0.0);
            self.rack_mark.resize(racks, 0);
        }
        let zones = topo.num_zones();
        if self.zone_rate.len() < zones {
            self.zone_rate.resize(zones, 0.0);
            self.zone_mark.resize(zones, 0);
        }
    }

    /// Starts a new decision: invalidates every slot in O(1) by
    /// advancing the epoch (with an O(topology) mark reset on the once-
    /// per-4-billion wrap, so stale marks can never alias a live epoch).
    pub fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.host_mark.fill(0);
            self.rack_mark.fill(0);
            self.zone_mark.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    #[inline]
    fn add(epoch: u32, rate: &mut [f64], mark: &mut [u32], idx: usize, r: f64) {
        if mark[idx] == epoch {
            rate[idx] += r;
        } else {
            mark[idx] = epoch;
            rate[idx] = r;
        }
    }

    #[inline]
    fn get(epoch: u32, rate: &[f64], mark: &[u32], idx: usize) -> f64 {
        if mark[idx] == epoch {
            rate[idx]
        } else {
            0.0
        }
    }

    /// Accumulates one peer's rate onto its server slot.
    #[inline]
    pub(crate) fn add_host(&mut self, s: ServerId, r: f64) {
        Self::add(
            self.epoch,
            &mut self.host_rate,
            &mut self.host_mark,
            s.index(),
            r,
        );
    }

    /// Accumulates one peer's rate onto its rack slot.
    #[inline]
    pub(crate) fn add_rack(&mut self, rack: u32, r: f64) {
        Self::add(
            self.epoch,
            &mut self.rack_rate,
            &mut self.rack_mark,
            rack as usize,
            r,
        );
    }

    /// Accumulates one peer's rate onto its zone slot.
    #[inline]
    pub(crate) fn add_zone(&mut self, zone: u32, r: f64) {
        Self::add(
            self.epoch,
            &mut self.zone_rate,
            &mut self.zone_mark,
            zone as usize,
            r,
        );
    }

    /// Peer rate hosted on `s` this epoch (0 when untouched).
    #[inline]
    pub(crate) fn host_sum(&self, s: ServerId) -> f64 {
        Self::get(self.epoch, &self.host_rate, &self.host_mark, s.index())
    }

    /// Peer rate in rack `rack` this epoch (0 when untouched).
    #[inline]
    pub(crate) fn rack_sum(&self, rack: u32) -> f64 {
        Self::get(self.epoch, &self.rack_rate, &self.rack_mark, rack as usize)
    }

    /// Peer rate in zone `zone` this epoch (0 when untouched).
    #[inline]
    pub(crate) fn zone_sum(&self, zone: u32) -> f64 {
        Self::get(self.epoch, &self.zone_rate, &self.zone_mark, zone as usize)
    }
}

/// Every buffer one token hold needs, reusable across holds.
#[derive(Debug, Default)]
pub struct DecisionScratch {
    /// The holder's observed (pre-migration) view.
    pub(crate) view: LocalView,
    /// The post-migration view the policy consumes (only refilled when a
    /// migration actually happened; otherwise the pre-view is reused).
    pub(crate) post_view: LocalView,
    /// The forecast-re-rated scoring view (forecast contexts only).
    pub(crate) decision_view: LocalView,
    /// Predicted per-peer rates, index-aligned with `view.peers`.
    pub(crate) predicted: Vec<f64>,
    /// The level-bucketed kernel's accumulators.
    pub(crate) kernel: KernelScratch,
}

impl DecisionScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DecisionScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use score_topology::CanonicalTree;

    #[test]
    fn epoch_invalidates_between_decisions() {
        let topo = CanonicalTree::small();
        let mut k = KernelScratch::new();
        k.ensure_topology(&topo);
        k.begin();
        k.add_host(ServerId::new(3), 5.0);
        k.add_host(ServerId::new(3), 2.5);
        k.add_rack(1, 7.5);
        k.add_zone(0, 7.5);
        assert_eq!(k.host_sum(ServerId::new(3)), 7.5);
        assert_eq!(k.host_sum(ServerId::new(4)), 0.0);
        assert_eq!(k.rack_sum(1), 7.5);
        assert_eq!(k.zone_sum(0), 7.5);
        k.begin();
        assert_eq!(k.host_sum(ServerId::new(3)), 0.0, "new epoch, clean slate");
        assert_eq!(k.rack_sum(1), 0.0);
        assert_eq!(k.zone_sum(0), 0.0);
    }

    #[test]
    fn epoch_wrap_resets_marks() {
        let topo = CanonicalTree::small();
        let mut k = KernelScratch::new();
        k.ensure_topology(&topo);
        k.epoch = u32::MAX - 1;
        k.begin(); // -> MAX
        k.add_host(ServerId::new(0), 1.0);
        k.begin(); // wrap -> 1, marks reset
        assert_eq!(k.epoch, 1);
        assert_eq!(k.host_sum(ServerId::new(0)), 0.0);
    }
}
