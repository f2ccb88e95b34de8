//! Pairwise VM traffic loads λ(u, v) — the communication graph.
//!
//! The paper (§III) defines λ(u, v) as the average rate exchanged between
//! VMs u and v (incoming *and* outgoing) over a measurement window.
//! [`PairTraffic`] stores those unordered pairwise rates as a per-VM
//! adjacency (`Vu`, "the set of VMs that exchange data with VM u"), which
//! is exactly the local information S-CORE consults when a VM holds the
//! migration token.
//!
//! # Storage layout (the adjacency is the store)
//!
//! `adjacency[u]` is `Vu` as `(peer, λ)` rows sorted by peer id; a live
//! pair is one row on each endpoint's list carrying the same rate, and
//! nothing else holds a rate (removing a pair removes its two rows; a
//! stored rate is never 0). Reads and writes resolve `(u, v)` by binary
//! search in O(log degree) — *degree*, not cluster size, which keeps
//! sparse trace deltas flat as pair counts grow into the millions.
//! [`PairTraffic::pairs`] walks each `adjacency[u]` above `u`: canonical
//! `(u, v)` order by construction, whatever the churn history, so cost
//! summation order (and with it byte-identical reports) needs no sort.
//!
//! ## Uniform scaling is lazy
//!
//! Eq. (2) is linear in λ, so a uniform rescale
//! ([`PairTraffic::scale_all`]) is one multiplication on a *pending
//! factor* that every read folds in (`stored × factor`, saturated into
//! `[f64::from_bits(1), f64::MAX]` so a live pair never reads 0 or
//! `inf`) — O(1) however many pairs there are. The factor is settled
//! into the rows by one sweep before the first absolute write after a
//! scale, so a written rate always reads back bit for bit, and whenever
//! the composed factor leaves `2^±64`, so it can neither overflow nor
//! underflow. Settling leaves every read unchanged: it stores exactly
//! the product the reads were already returning.

use score_topology::VmId;
use serde::{Deserialize, Serialize};

/// Builder that accumulates pairwise rates before freezing them into a
/// [`PairTraffic`].
#[derive(Debug, Clone, Default)]
pub struct PairTrafficBuilder {
    num_vms: u32,
    // Every `add` in arrival order, keyed by its canonical (min, max)
    // pair; `build` sorts and sums them.
    rates: Vec<((u32, u32), f64)>,
}

impl PairTrafficBuilder {
    /// Creates a builder for VMs `0..num_vms`.
    pub fn new(num_vms: u32) -> Self {
        PairTrafficBuilder {
            num_vms,
            rates: Vec::new(),
        }
    }

    /// Adds `rate` (bits per second, both directions combined) between `u`
    /// and `v`, accumulating with any rate already recorded for the pair.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-traffic never leaves the VM), if either id
    /// is out of range, or if `rate` is not positive and finite.
    pub fn add(&mut self, u: VmId, v: VmId, rate: f64) -> &mut Self {
        if let Err(why) = self.try_add(u, v, rate) {
            panic!("{why}");
        }
        self
    }

    /// [`PairTrafficBuilder::add`], naming the pair it cannot take
    /// instead of panicking — the deserializer's entry.
    fn try_add(&mut self, u: VmId, v: VmId, rate: f64) -> Result<(), String> {
        let why = if u == v {
            "self-traffic is not part of the communication graph"
        } else if u.get() >= self.num_vms || v.get() >= self.num_vms {
            "vm out of range"
        } else if !(rate.is_finite() && rate > 0.0) {
            "rate must be positive and finite"
        } else {
            self.rates.push(((u.min(v).get(), u.max(v).get()), rate));
            return Ok(());
        };
        Err(format!("pair ({u}, {v}) at rate {rate}: {why}"))
    }

    /// Freezes the builder into an immutable [`PairTraffic`].
    pub fn build(&self) -> PairTraffic {
        // Key order, equal keys still in arrival order (the sort is
        // stable), so a pair's adds are summed from 0.0 in the order they
        // were made: the float sum every golden TM hash pins. Adds that
        // arrived in key order (a `pairs()` walk fed back in) need no
        // copy and no sort.
        let mut sorted = Vec::new();
        let rates = if self.rates.is_sorted_by_key(|&(key, _)| key) {
            &self.rates
        } else {
            sorted.clone_from(&self.rates);
            sorted.sort_by_key(|&(key, _)| key);
            &sorted
        };
        // Keys ascend by `(u, v)` with `u < v`, so VM `x` receives its
        // peers below `x` (keys `(u, x)`, ascending `u`) before its peers
        // above (keys `(x, v)`, ascending `v`): every list ends up sorted.
        let mut adjacency = vec![Vec::new(); self.num_vms as usize];
        let mut total = 0.0;
        let mut live = 0;
        for adds in rates.chunk_by(|a, b| a.0 == b.0) {
            let (u, v) = adds[0].0;
            // Saturating like every scaled rate does: reads already clamp
            // an overflowed sum to `f64::MAX`, so the row may as well hold it.
            let rate = adds.iter().fold(0.0, |sum, &(_, r)| sum + r).min(f64::MAX);
            adjacency[u as usize].push((VmId::new(v), rate));
            adjacency[v as usize].push((VmId::new(u), rate));
            total += rate;
            live += 1;
        }
        let traffic = PairTraffic {
            num_vms: self.num_vms,
            live,
            adjacency,
            total,
            scale: 1.0,
        };
        #[cfg(any(test, debug_assertions))]
        traffic.check_invariants(0.0);
        traffic
    }
}

/// The composed pending factor may roam `[1 / SCALE_LIMIT, SCALE_LIMIT]`
/// (2^±64) before it is settled into the rows: wide enough that
/// drifting loads never sweep, narrow enough that the factor itself can
/// never overflow or underflow.
const SCALE_LIMIT: f64 = 18446744073709551616.0;

/// The smallest rate a live pair can read: scaling saturates here
/// instead of underflowing to the 0 that means "no such pair".
const MIN_RATE: f64 = f64::from_bits(1);

/// A live pair's stored rate with the pending factor folded in.
#[inline]
fn fold(stored: f64, scale: f64) -> f64 {
    (stored * scale).clamp(MIN_RATE, f64::MAX)
}

/// Pairwise VM traffic: rates λ(u, v) held in the per-VM peer sets `Vu`
/// (see the module docs).
///
/// # Examples
///
/// ```
/// use score_topology::VmId;
/// use score_traffic::PairTrafficBuilder;
///
/// let mut b = PairTrafficBuilder::new(3);
/// b.add(VmId::new(0), VmId::new(1), 100.0);
/// b.add(VmId::new(1), VmId::new(2), 50.0);
/// let traffic = b.build();
/// assert_eq!(traffic.rate(VmId::new(1), VmId::new(0)), 100.0);
/// assert_eq!(traffic.peers(VmId::new(1)).len(), 2);
/// assert_eq!(traffic.total_rate(), 150.0);
/// ```
#[derive(Debug, Clone)]
pub struct PairTraffic {
    num_vms: u32,
    /// Number of live pairs.
    live: usize,
    /// `adjacency[u]` = Vu with rates, sorted by peer id; each live pair
    /// is one row on either side. Stored rates (here and in `total`) are
    /// effective rates only once multiplied by `scale`.
    adjacency: Vec<Vec<(VmId, f64)>>,
    total: f64,
    /// The pending uniform factor (see the module docs); exactly `1.0`
    /// on a store that was never scaled or has been settled.
    scale: f64,
}

impl PartialEq for PairTraffic {
    /// Semantic equality: same population and same live `(u, v, λ)` set
    /// (and identical running total). Whether a scale is still pending
    /// is a storage detail two equal graphs may differ in.
    fn eq(&self, other: &Self) -> bool {
        self.num_vms == other.num_vms
            && self.live == other.live
            && self.total_rate() == other.total_rate()
            && self.pairs() == other.pairs()
    }
}

impl Serialize for PairTraffic {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("num_vms".to_string(), self.num_vms.to_value()),
            ("pairs".to_string(), self.pairs().to_value()),
        ])
    }
}

impl Deserialize for PairTraffic {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected PairTraffic object"))?;
        let num_vms = u32::from_value(serde::field(obj, "num_vms")?)?;
        let pairs = Vec::<(VmId, VmId, f64)>::from_value(serde::field(obj, "pairs")?)?;
        let mut b = PairTrafficBuilder::new(num_vms);
        for (u, v, r) in pairs {
            b.try_add(u, v, r).map_err(serde::Error::custom)?;
        }
        Ok(b.build())
    }
}

impl PairTraffic {
    /// An empty communication graph over `num_vms` VMs.
    pub fn empty(num_vms: u32) -> Self {
        PairTrafficBuilder::new(num_vms).build()
    }

    /// Number of VMs (ids are dense `0..num_vms`).
    pub fn num_vms(&self) -> u32 {
        self.num_vms
    }

    /// Number of communicating pairs.
    pub fn num_pairs(&self) -> usize {
        self.live
    }

    /// Rate λ(u, v); zero if the pair does not communicate.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn rate(&self, u: VmId, v: VmId) -> f64 {
        assert!(
            u.get() < self.num_vms && v.get() < self.num_vms,
            "vm out of range"
        );
        let peers = &self.adjacency[u.index()];
        match peers.binary_search_by_key(&v, |&(p, _)| p) {
            Ok(i) => fold(peers[i].1, self.scale),
            Err(_) => 0.0,
        }
    }

    /// The peer set `Vu` of a VM as `(peer, λ)`, sorted by peer id.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn peers(&self, u: VmId) -> impl ExactSizeIterator<Item = (VmId, f64)> + Clone + '_ {
        assert!(u.get() < self.num_vms, "vm {u} out of range");
        let scale = self.scale;
        self.adjacency[u.index()]
            .iter()
            .map(move |&(peer, stored)| (peer, fold(stored, scale)))
    }

    /// Number of peers of `u`.
    pub fn degree(&self, u: VmId) -> usize {
        self.peers(u).len()
    }

    /// All live pairs `(u, v, λ)` with `u < v`, in canonical `(u, v)`
    /// order — the iteration order every cost summation uses, which the
    /// sorted peer lists yield by construction whatever the churn
    /// history.
    pub fn pairs(&self) -> Vec<(VmId, VmId, f64)> {
        let mut out = Vec::with_capacity(self.live);
        for (u, peers) in self.adjacency.iter().enumerate() {
            let u = VmId::new(u as u32);
            let above = peers.partition_point(|&(p, _)| p < u);
            for &(v, stored) in &peers[above..] {
                out.push((u, v, fold(stored, self.scale)));
            }
        }
        out
    }

    /// Sum of λ over all pairs.
    pub fn total_rate(&self) -> f64 {
        (self.total * self.scale).min(f64::MAX)
    }

    /// Returns a copy with every rate multiplied by `factor` — the paper's
    /// "scaled the initial TM by a factor of 10 and 50".
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scaled(&self, factor: f64) -> PairTraffic {
        let mut next = self.clone();
        next.scale_all(factor);
        next
    }

    /// Multiplies every rate by `factor` **in place** in O(1): the
    /// factor joins the pending one that reads fold in (see the module
    /// docs). Rates saturate at `f64::MAX`, as every other lowering of a
    /// scale event does. The running total scales with the rates (Eq. (2)
    /// is linear in λ, so downstream ledgers may do the same).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scale_all(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "factor must be positive"
        );
        let composed = self.scale * factor;
        if (1.0 / SCALE_LIMIT..=SCALE_LIMIT).contains(&composed) {
            self.scale = composed;
        } else {
            // The composed factor may have overflowed or underflowed;
            // each of the two sweeps multiplies by a finite one.
            self.settle_scale();
            self.sweep(factor);
        }
    }

    /// Settles the pending factor into the rows, leaving it at `1.0`
    /// and every read unchanged.
    fn settle_scale(&mut self) {
        let pending = std::mem::replace(&mut self.scale, 1.0);
        if pending != 1.0 {
            self.sweep(pending);
        }
    }

    /// Multiplies every stored rate by `factor`.
    fn sweep(&mut self, factor: f64) {
        for p in self.adjacency.iter_mut().flatten() {
            p.1 = fold(p.1, factor);
        }
        self.total = (self.total * factor).min(f64::MAX);
    }

    /// Returns a copy with every pair rate clamped to at most `cap` —
    /// the line-rate ceiling a single VM pair can physically sustain.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not positive and finite.
    pub fn capped(&self, cap: f64) -> PairTraffic {
        assert!(cap.is_finite() && cap > 0.0, "cap must be positive");
        let mut next = self.clone();
        next.settle_scale();
        for p in next.adjacency.iter_mut().flatten() {
            p.1 = p.1.min(cap);
        }
        next.total = next.pairs().iter().map(|&(_, _, r)| r).sum();
        next
    }

    /// Applies absolute-rate updates **in place**: each `(u, v, rate)`
    /// entry *replaces* λ(u, v) (a rate of `0` removes the pair).
    /// Updates are applied in order ([`PairTraffic::apply_update`]
    /// each), so when the same pair appears twice the later entry wins.
    ///
    /// # Panics
    ///
    /// Panics on the entries [`PairTraffic::apply_update`] panics on.
    pub fn apply_updates(&mut self, updates: &[(VmId, VmId, f64)]) {
        for &(u, v, rate) in updates {
            self.apply_update(u, v, rate);
        }
    }

    /// Replaces λ(u, v) with `rate` **in place** (a rate of `0` removes
    /// the pair) — one entry of [`PairTraffic::apply_updates`], for a
    /// caller that has its updates in another shape and would only
    /// collect them to pass a slice. The pair costs one O(log degree)
    /// probe of each endpoint's peer list, then a write, an insert or a
    /// remove in those two lists; nothing else is touched (only an
    /// insertion into a full peer list reallocates). The running total
    /// is adjusted incrementally (it can drift from a fresh summation by
    /// ordinary float rounding). A pending scale is settled first (one
    /// sweep), so every written rate reads back exactly.
    ///
    /// # Panics
    ///
    /// Panics on a self-pair, an out-of-range VM, or a
    /// negative/non-finite rate.
    pub fn apply_update(&mut self, u: VmId, v: VmId, rate: f64) {
        assert_ne!(u, v, "self-traffic is not part of the communication graph");
        assert!(
            u.get() < self.num_vms && v.get() < self.num_vms,
            "vm out of range"
        );
        assert!(
            rate.is_finite() && rate >= 0.0,
            "rate must be finite and >= 0"
        );
        self.settle_scale();
        let find = |peers: &[(VmId, f64)], p| peers.binary_search_by_key(&p, |&(q, _)| q);
        match find(&self.adjacency[u.index()], v) {
            Ok(i) => {
                let old = self.adjacency[u.index()][i].1;
                if old == rate {
                    return;
                }
                let j = find(&self.adjacency[v.index()], u).expect("adjacency is symmetric");
                if rate == 0.0 {
                    self.adjacency[u.index()].remove(i);
                    self.adjacency[v.index()].remove(j);
                    self.live -= 1;
                } else {
                    self.adjacency[u.index()][i].1 = rate;
                    self.adjacency[v.index()][j].1 = rate;
                }
                self.total += rate - old;
            }
            Err(_) if rate == 0.0 => {}
            Err(i) => {
                let j = find(&self.adjacency[v.index()], u).expect_err("adjacency is symmetric");
                self.adjacency[u.index()].insert(i, (v, rate));
                self.adjacency[v.index()].insert(j, (u, rate));
                self.live += 1;
                self.total += rate;
            }
        }
    }

    /// Panics unless the store is what the module docs say it is: one
    /// peer list per VM, each ascending strictly by peer id with no self
    /// row and no peer outside the population; every stored rate finite
    /// and positive; the two rows of a pair carrying the same bits; `live`
    /// the number of pairs; and the running total within 1e-9 of a fresh
    /// sum, relative to the larger of the two and `peak_total` — a running
    /// sum keeps float residue proportional to the largest value it ever
    /// carried, which only the caller knows (`0.0` for a store that was
    /// only built, never patched). O(pairs · log degree): the builder runs
    /// it once per build, the property suites inside their step loops.
    #[cfg(any(test, debug_assertions))]
    #[doc(hidden)]
    pub fn check_invariants(&self, peak_total: f64) {
        assert_eq!(self.adjacency.len(), self.num_vms as usize, "one list a VM");
        assert!(
            self.scale.is_finite() && self.scale > 0.0,
            "pending scale {} must be positive and finite",
            self.scale
        );
        let mut rows = 0;
        for (u, peers) in self.adjacency.iter().enumerate() {
            let u = VmId::new(u as u32);
            assert!(
                peers.windows(2).all(|w| w[0].0 < w[1].0),
                "peers of {u} must ascend strictly"
            );
            for &(v, stored) in peers {
                assert!(v != u && v.get() < self.num_vms, "{u} lists peer {v}");
                assert!(
                    stored.is_finite() && stored > 0.0,
                    "({u}, {v}) stores {stored}"
                );
                let back = &self.adjacency[v.index()];
                let twin = back
                    .binary_search_by_key(&u, |&(p, _)| p)
                    .map(|i| back[i].1.to_bits());
                assert_eq!(
                    twin,
                    Ok(stored.to_bits()),
                    "({u}, {v}) has no equal twin row"
                );
            }
            rows += peers.len();
        }
        assert_eq!(rows, 2 * self.live, "live counts the pairs");
        let fresh: f64 = self.pairs().iter().map(|&(_, _, r)| r).sum();
        let (fresh, total) = (fresh.min(f64::MAX), self.total_rate());
        assert!(
            (total - fresh).abs() <= 1e-9 * total.max(fresh).max(peak_total),
            "running total {total} drifted from the fresh sum {fresh}"
        );
    }

    /// Grows the population by one VM (the next dense id), returning the
    /// new VM's id. The newcomer starts with an empty peer set — rates
    /// involving it arrive later through
    /// [`PairTraffic::apply_updates`] — so growth never touches existing
    /// pairs and costs O(1).
    pub fn push_vm(&mut self) -> VmId {
        let vm = VmId::new(self.num_vms);
        self.num_vms += 1;
        self.adjacency.push(Vec::new());
        vm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> PairTraffic {
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 10.0);
        b.add(VmId::new(1), VmId::new(2), 20.0);
        b.add(VmId::new(2), VmId::new(0), 30.0);
        b.build()
    }

    #[test]
    fn rates_are_symmetric() {
        let t = triangle();
        assert_eq!(t.rate(VmId::new(0), VmId::new(1)), 10.0);
        assert_eq!(t.rate(VmId::new(1), VmId::new(0)), 10.0);
        assert_eq!(t.rate(VmId::new(0), VmId::new(3)), 0.0);
        assert_eq!(t.rate(VmId::new(0), VmId::new(0)), 0.0);
    }

    #[test]
    fn adjacency_is_sorted_and_complete() {
        let t = triangle();
        let peers: Vec<_> = t.peers(VmId::new(0)).collect();
        assert_eq!(peers, [(VmId::new(1), 10.0), (VmId::new(2), 30.0)]);
        assert_eq!(t.degree(VmId::new(3)), 0);
        assert_eq!(t.degree(VmId::new(1)), 2);
    }

    #[test]
    fn duplicate_adds_accumulate() {
        let mut b = PairTrafficBuilder::new(2);
        b.add(VmId::new(0), VmId::new(1), 5.0);
        b.add(VmId::new(1), VmId::new(0), 7.0);
        let t = b.build();
        assert_eq!(t.rate(VmId::new(0), VmId::new(1)), 12.0);
        assert_eq!(t.num_pairs(), 1);
        // A sum that overflows is stored as the `f64::MAX` it reads as.
        b.add(VmId::new(0), VmId::new(1), f64::MAX);
        b.add(VmId::new(0), VmId::new(1), f64::MAX);
        assert_eq!(b.build().adjacency[0], [(VmId::new(1), f64::MAX)]);
    }

    #[test]
    fn totals_and_density() {
        let t = triangle();
        assert_eq!(t.total_rate(), 60.0);
        assert_eq!(t.num_pairs(), 3);
    }

    #[test]
    fn scaling_scales_everything() {
        let t = triangle().scaled(10.0);
        assert_eq!(t.rate(VmId::new(0), VmId::new(1)), 100.0);
        assert_eq!(t.total_rate(), 600.0);
        assert_eq!(t.num_pairs(), 3); // pure scaling preserves the pattern
    }

    #[test]
    fn scale_all_matches_scaled() {
        let mut t = triangle();
        t.scale_all(10.0);
        assert_eq!(t, triangle().scaled(10.0));
        assert_eq!(t.rate(VmId::new(1), VmId::new(2)), 200.0);
        assert_eq!(
            t.peers(VmId::new(0)).collect::<Vec<_>>(),
            [(VmId::new(1), 100.0), (VmId::new(2), 300.0)]
        );
        assert_eq!(t.pairs()[0], (VmId::new(0), VmId::new(1), 100.0));
        // A pending factor is a storage detail: the settled twin is equal
        // and serializes identically.
        let mut settled = t.clone();
        settled.settle_scale();
        assert_eq!(settled.scale, 1.0);
        assert_eq!(settled, t);
        use serde::Serialize as _;
        assert_eq!(settled.to_value(), t.to_value());
        // Saturation mirrors every other lowering of a scale event.
        let mut hot = triangle().scaled(f64::MAX / 40.0);
        hot.scale_all(4.0);
        assert_eq!(hot.rate(VmId::new(2), VmId::new(0)), f64::MAX);
        assert!(hot.total_rate().is_finite());
    }

    #[test]
    fn absolute_writes_read_back_exactly_after_any_scale_history() {
        let mut t = triangle();
        let written = [0.1, 1e-9, 7.3e15, f64::MAX, f64::from_bits(1)];
        for (k, &rate) in written.iter().enumerate() {
            for i in 0..=k {
                t.scale_all(1.0 + 0.37 * (i as f64 + 1.0));
            }
            t.apply_updates(&[(VmId::new(0), VmId::new(1), rate)]);
            assert_eq!(t.rate(VmId::new(0), VmId::new(1)), rate);
            assert_eq!(t.scale, 1.0, "the first write after a scale settles it");
            // Both endpoints' rows take the write.
            t.scale_all(0.3);
            t.apply_update(VmId::new(2), VmId::new(1), rate);
            assert_eq!(t.peers(VmId::new(1)).nth(1), Some((VmId::new(2), rate)));
            assert_eq!(t.peers(VmId::new(2)).nth(1), Some((VmId::new(1), rate)));
        }
    }

    #[test]
    fn extreme_factors_saturate_and_never_resurrect_a_tombstone() {
        let mut t = triangle();
        t.apply_updates(&[(VmId::new(1), VmId::new(2), 0.0)]);
        let check = |t: &PairTraffic| {
            assert_eq!(t.num_pairs(), 2);
            assert_eq!(t.rate(VmId::new(1), VmId::new(2)), 0.0);
            assert!(t.adjacency.iter().flatten().all(|p| p.1.is_finite()));
            assert!(t.total_rate().is_finite());
            for (u, v, r) in t.pairs() {
                assert!(r > 0.0 && r.is_finite(), "({u}, {v}) reads {r}");
                assert_eq!(t.rate(u, v), r);
            }
        };
        // Out of the pending range at once: swept eagerly, saturating.
        t.scale_all(1e300);
        check(&t);
        assert_eq!(t.rate(VmId::new(0), VmId::new(1)), 1e301);
        t.scale_all(1e300);
        check(&t);
        assert_eq!(t.rate(VmId::new(0), VmId::new(1)), f64::MAX);
        assert_eq!(t.total_rate(), f64::MAX);
        // Back down, far past the smallest positive rate: live pairs
        // bottom out above zero instead of reading as absent.
        for _ in 0..5 {
            t.scale_all(1e-300);
            check(&t);
        }
        assert_eq!(t.rate(VmId::new(0), VmId::new(1)), MIN_RATE);
        // Factors that only leave the range once composed renormalize.
        let mut drift = triangle();
        for _ in 0..100 {
            drift.scale_all(1e10);
        }
        assert!((1.0 / SCALE_LIMIT..=SCALE_LIMIT).contains(&drift.scale));
        assert_eq!(drift.rate(VmId::new(0), VmId::new(1)), f64::MAX);
    }

    #[test]
    fn updated_replaces_inserts_and_removes() {
        let mut next = triangle();
        next.apply_updates(&[
            (VmId::new(1), VmId::new(0), 99.0), // replace (either order)
            (VmId::new(2), VmId::new(0), 0.0),  // remove
            (VmId::new(1), VmId::new(3), 7.0),  // insert
        ]);
        assert_eq!(next.rate(VmId::new(0), VmId::new(1)), 99.0);
        assert_eq!(next.rate(VmId::new(0), VmId::new(2)), 0.0);
        assert_eq!(next.rate(VmId::new(1), VmId::new(3)), 7.0);
        assert_eq!(next.rate(VmId::new(1), VmId::new(2)), 20.0); // untouched
        assert_eq!(next.num_pairs(), 3);
        assert_eq!(next.total_rate(), 99.0 + 7.0 + 20.0);
        // Adjacency stays consistent with the pair list.
        assert_eq!(
            next.peers(VmId::new(0)).collect::<Vec<_>>(),
            [(VmId::new(1), 99.0)]
        );
        assert_eq!(next.degree(VmId::new(3)), 1);
    }

    #[test]
    fn updated_matches_builder_equivalent() {
        let mut next = triangle();
        next.apply_updates(&[(VmId::new(0), VmId::new(3), 5.0)]);
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 10.0);
        b.add(VmId::new(1), VmId::new(2), 20.0);
        b.add(VmId::new(2), VmId::new(0), 30.0);
        b.add(VmId::new(0), VmId::new(3), 5.0);
        assert_eq!(next, b.build());
        // Later duplicate update wins.
        next.apply_updates(&[
            (VmId::new(0), VmId::new(1), 1.0),
            (VmId::new(0), VmId::new(1), 2.0),
        ]);
        assert_eq!(next.rate(VmId::new(0), VmId::new(1)), 2.0);
        // Empty updates and removing a pair that does not exist are no-ops.
        let mut same = triangle();
        same.apply_updates(&[]);
        same.apply_updates(&[(VmId::new(0), VmId::new(3), 0.0)]);
        assert_eq!(same, triangle());
    }

    #[test]
    fn canonical_order_survives_churn() {
        // Remove then insert: pairs() walks the sorted peer lists, so the
        // newcomer lands in (u, v) order without a sort.
        let mut t = triangle();
        t.apply_updates(&[(VmId::new(1), VmId::new(2), 0.0)]);
        t.apply_updates(&[(VmId::new(0), VmId::new(3), 5.0)]);
        assert_eq!(
            t.pairs(),
            vec![
                (VmId::new(0), VmId::new(1), 10.0),
                (VmId::new(0), VmId::new(2), 30.0),
                (VmId::new(0), VmId::new(3), 5.0),
            ]
        );
        assert_eq!(t.num_pairs(), 3);
    }

    #[test]
    fn serde_round_trip_preserves_semantics() {
        use serde::{Deserialize as _, Serialize as _};
        let mut t = triangle();
        // Churn first: a round trip rebuilds through the builder.
        t.apply_updates(&[
            (VmId::new(1), VmId::new(2), 0.0),
            (VmId::new(0), VmId::new(3), 5.0),
        ]);
        let back = PairTraffic::from_value(&t.to_value()).unwrap();
        assert_eq!(back, t);
        assert!(back.peers(VmId::new(0)).eq(t.peers(VmId::new(0))));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn updated_rejects_negative_rates() {
        triangle().apply_updates(&[(VmId::new(0), VmId::new(1), -1.0)]);
    }

    #[test]
    fn deserialize_rejects_invalid_pairs_without_panicking() {
        // {"num_vms":2,"pairs":[[u,v,rate]]} — as `serde_json` parses it.
        let doc = |u: u32, v: u32, rate: f64| {
            serde::Value::Object(vec![
                ("num_vms".to_string(), 2u32.to_value()),
                ("pairs".to_string(), vec![(u, v, rate)].to_value()),
            ])
        };
        for (u, v, rate, why) in [
            (0, 0, 1.0, "self-traffic"),
            (0, 5, 1.0, "out of range"),
            (0, 1, -1.0, "positive and finite"),
            (0, 1, f64::NAN, "positive and finite"),
        ] {
            let err = PairTraffic::from_value(&doc(u, v, rate)).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(why), "{msg}");
            assert!(msg.contains(&format!("(vm{u}, vm{v})")), "{msg}");
        }
        assert!(PairTraffic::from_value(&doc(1, 0, 2.5)).is_ok());
    }

    #[test]
    fn check_invariants_accepts_churn_and_catches_each_corruption() {
        let mut t = triangle();
        t.check_invariants(0.0);
        t.scale_all(3.0);
        t.apply_update(VmId::new(0), VmId::new(3), 5.0);
        t.apply_update(VmId::new(1), VmId::new(2), 0.0);
        t.check_invariants(180.0);
        PairTraffic::empty(0).check_invariants(0.0);

        type Corruption = fn(&mut PairTraffic);
        let corruptions: [(&str, Corruption); 7] = [
            ("twin", |t| t.adjacency[0][0].1 = 11.0),
            ("ascend", |t| t.adjacency[0].swap(0, 1)),
            ("lists peer", |t| t.adjacency[3].push((VmId::new(3), 1.0))),
            ("stores", |t| {
                t.adjacency[0][0].1 = f64::INFINITY;
                t.adjacency[1][0].1 = f64::INFINITY;
            }),
            ("live", |t| t.live += 1),
            ("drifted", |t| t.total *= 1.0 + 1e-6),
            ("one list a VM", |t| t.num_vms += 1),
        ];
        for (what, corrupt) in corruptions {
            let mut bad = triangle();
            corrupt(&mut bad);
            let caught = std::panic::catch_unwind(|| bad.check_invariants(0.0)).unwrap_err();
            let msg = caught.downcast_ref::<String>().expect("a formatted panic");
            assert!(msg.contains(what), "{what}: {msg}");
        }
    }

    #[test]
    fn empty_graph() {
        let t = PairTraffic::empty(5);
        assert_eq!(t.num_vms(), 5);
        assert_eq!(t.num_pairs(), 0);
        assert_eq!(t.total_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "self-traffic")]
    fn rejects_self_pairs() {
        PairTrafficBuilder::new(2).add(VmId::new(1), VmId::new(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        PairTrafficBuilder::new(2).add(VmId::new(0), VmId::new(5), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_rate() {
        PairTrafficBuilder::new(2).add(VmId::new(0), VmId::new(1), 0.0);
    }
}
