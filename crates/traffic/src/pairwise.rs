//! Pairwise VM traffic loads λ(u, v) — the communication graph.
//!
//! The paper (§III) defines λ(u, v) as the average rate exchanged between
//! VMs u and v (incoming *and* outgoing) over a measurement window.
//! [`PairTraffic`] stores those unordered pairwise rates together with a
//! per-VM adjacency (`Vu`, "the set of VMs that exchange data with VM u"),
//! which is exactly the local information S-CORE consults when a VM holds
//! the migration token.
//!
//! # Storage layout (struct of arrays)
//!
//! Rates live in flat parallel arrays — `ep_u[h]`, `ep_v[h]`, `rates[h]`
//! — indexed by a stable integer [`PairHandle`] `h`. Removing a pair
//! tombstones its slot (rate 0) and recycles the handle through a free
//! list; nothing else moves, so every other handle stays valid. A dense
//! per-VM adjacency index (`Vu` sorted by peer id, position-aligned with
//! the owning handles) resolves `(u, v)` → handle in O(log degree) —
//! *degree*, not cluster size, which is what keeps sparse trace deltas
//! flat as pair counts grow into the millions.
//!
//! ## Uniform scaling is lazy
//!
//! Eq. (2) is linear in λ, so a uniform rescale
//! ([`PairTraffic::scale_all`]) is one multiplication on a *pending
//! factor* that every read folds in (`stored × factor`, saturated into
//! `[f64::from_bits(1), f64::MAX]` so a live pair never reads 0 or
//! `inf`) — O(1) however many pairs there are. The factor is settled
//! into the slots by one sweep before the first absolute write after a
//! scale, so a written rate always reads back bit for bit, and whenever
//! the composed factor leaves `2^±64`, so it can neither overflow nor
//! underflow. Settling leaves every read unchanged: it stores exactly
//! the product the reads were already returning.
//!
//! ## Handle stability contract
//!
//! A [`PairHandle`] obtained from [`PairTraffic::handle`] stays valid —
//! same pair, O(1) access — for as long as the pair is live. Setting a
//! pair's rate to 0 removes it and *invalidates* its handle; the slot may
//! be recycled for a future insertion. Accessing a stale handle panics
//! (the slot is either tombstoned or owned by a different pair).
//! Canonical iteration order ([`PairTraffic::pairs`]) is by `(u, v)`,
//! independent of handle numbering, so cost summation order — and with
//! it byte-identical reports — survives any churn history.

use score_topology::VmId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Builder that accumulates pairwise rates before freezing them into a
/// [`PairTraffic`].
#[derive(Debug, Clone, Default)]
pub struct PairTrafficBuilder {
    num_vms: u32,
    // Canonically ordered (min, max) pair → accumulated rate.
    rates: BTreeMap<(u32, u32), f64>,
}

impl PairTrafficBuilder {
    /// Creates a builder for VMs `0..num_vms`.
    pub fn new(num_vms: u32) -> Self {
        PairTrafficBuilder {
            num_vms,
            rates: BTreeMap::new(),
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
        assert_ne!(u, v, "self-traffic is not part of the communication graph");
        assert!(u.get() < self.num_vms, "vm {u} out of range");
        assert!(v.get() < self.num_vms, "vm {v} out of range");
        assert!(
            rate.is_finite() && rate > 0.0,
            "rate must be positive and finite"
        );
        let key = if u < v {
            (u.get(), v.get())
        } else {
            (v.get(), u.get())
        };
        *self.rates.entry(key).or_insert(0.0) += rate;
        self
    }

    /// Number of distinct pairs recorded so far.
    pub fn num_pairs(&self) -> usize {
        self.rates.len()
    }

    /// Freezes the builder into an immutable [`PairTraffic`].
    pub fn build(&self) -> PairTraffic {
        let n = self.rates.len();
        let mut ep_u = Vec::with_capacity(n);
        let mut ep_v = Vec::with_capacity(n);
        let mut rates = Vec::with_capacity(n);
        // (peer, rate, handle) staging rows, sorted by peer id below.
        let mut adj: Vec<Vec<(VmId, f64, u32)>> = vec![Vec::new(); self.num_vms as usize];
        let mut total = 0.0;
        for (h, (&(u, v), &rate)) in self.rates.iter().enumerate() {
            ep_u.push(VmId::new(u));
            ep_v.push(VmId::new(v));
            rates.push(rate);
            adj[u as usize].push((VmId::new(v), rate, h as u32));
            adj[v as usize].push((VmId::new(u), rate, h as u32));
            total += rate;
        }
        let mut adjacency = Vec::with_capacity(adj.len());
        let mut adj_handles = Vec::with_capacity(adj.len());
        for mut rows in adj {
            rows.sort_by_key(|&(vm, _, _)| vm);
            adjacency.push(rows.iter().map(|&(vm, r, _)| (vm, r)).collect());
            adj_handles.push(rows.iter().map(|&(_, _, h)| h).collect());
        }
        PairTraffic {
            num_vms: self.num_vms,
            ep_u,
            ep_v,
            rates,
            free: Vec::new(),
            live: n,
            canonical: true,
            adjacency,
            adj_handles,
            total,
            scale: 1.0,
        }
    }
}

/// The composed pending factor may roam `[1 / SCALE_LIMIT, SCALE_LIMIT]`
/// (2^±64) before it is settled into the slots: wide enough that
/// drifting loads never sweep, narrow enough that the factor itself can
/// never overflow or underflow.
const SCALE_LIMIT: f64 = 18446744073709551616.0;

/// The smallest rate a live pair can read: scaling saturates here
/// instead of underflowing to the 0 that marks a tombstone.
const MIN_RATE: f64 = f64::from_bits(1);

/// A live pair's stored rate with the pending factor folded in.
#[inline]
fn fold(stored: f64, scale: f64) -> f64 {
    (stored * scale).clamp(MIN_RATE, f64::MAX)
}

/// A stable integer handle naming one live communicating pair inside a
/// [`PairTraffic`] (see the module docs for the stability contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PairHandle(u32);

impl PairHandle {
    /// The handle's slot index into the flat rate array.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Pairwise VM traffic: rates λ(u, v) and per-VM peer sets `Vu`, stored
/// struct-of-arrays with stable pair handles (see the module docs).
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
/// let h = traffic.handle(VmId::new(0), VmId::new(1)).unwrap();
/// assert_eq!(traffic.rate_of(h), 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct PairTraffic {
    num_vms: u32,
    /// Slot arrays: endpoint `u < v` and the stored rate, indexed by
    /// handle. Tombstoned slots carry rate 0 and sit on the free list.
    /// Stored rates (here, in `adjacency` and in `total`) are effective
    /// rates only once multiplied by `scale`.
    ep_u: Vec<VmId>,
    ep_v: Vec<VmId>,
    rates: Vec<f64>,
    /// Recycled slot indices (tombstones).
    free: Vec<u32>,
    /// Number of live pairs.
    live: usize,
    /// True while iterating slots `0..len` in index order (skipping
    /// tombstones) yields pairs in canonical `(u, v)` order. Builders
    /// emit canonical layouts; re-rates and removals preserve the
    /// property (a subsequence of a sorted sequence stays sorted);
    /// insertions clear it.
    canonical: bool,
    /// `adjacency[u]` = Vu with rates, sorted by peer id.
    adjacency: Vec<Vec<(VmId, f64)>>,
    /// `adj_handles[u][i]` = slot of the pair `(u, adjacency[u][i].0)`.
    adj_handles: Vec<Vec<u32>>,
    total: f64,
    /// The pending uniform factor (see the module docs); exactly `1.0`
    /// on a store that was never scaled or has been settled.
    scale: f64,
}

impl PartialEq for PairTraffic {
    /// Semantic equality: same population and same live `(u, v, λ)` set
    /// (and identical running total). Slot numbering, tombstones,
    /// free-list state and whether a scale is still pending are storage
    /// details two equal graphs may differ in — a builder-built graph
    /// equals its churned-into twin.
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
            b.add(u, v, r);
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
        if u == v {
            return 0.0;
        }
        let peers = &self.adjacency[u.index()];
        match peers.binary_search_by_key(&v, |&(p, _)| p) {
            Ok(i) => fold(peers[i].1, self.scale),
            Err(_) => 0.0,
        }
    }

    /// The stable handle of a live pair, or `None` if the pair does not
    /// communicate. Costs one O(log degree) search; the returned handle
    /// then gives O(1) access ([`PairTraffic::rate_of`],
    /// [`PairTraffic::endpoints`]) until the pair is removed.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn handle(&self, u: VmId, v: VmId) -> Option<PairHandle> {
        assert!(
            u.get() < self.num_vms && v.get() < self.num_vms,
            "vm out of range"
        );
        if u == v {
            return None;
        }
        let (u, v) = if u < v { (u, v) } else { (v, u) };
        self.adjacency[u.index()]
            .binary_search_by_key(&v, |&(p, _)| p)
            .ok()
            .map(|i| PairHandle(self.adj_handles[u.index()][i]))
    }

    /// The canonical `(u, v)` endpoints of a live pair (`u < v`).
    ///
    /// # Panics
    ///
    /// Panics on a stale handle (the pair was removed).
    pub fn endpoints(&self, h: PairHandle) -> (VmId, VmId) {
        self.check_live(h);
        (self.ep_u[h.index()], self.ep_v[h.index()])
    }

    /// The current rate of a live pair — an O(1) array read.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle (the pair was removed).
    pub fn rate_of(&self, h: PairHandle) -> f64 {
        self.check_live(h);
        fold(self.rates[h.index()], self.scale)
    }

    fn check_live(&self, h: PairHandle) {
        assert!(
            h.index() < self.rates.len() && self.rates[h.index()] > 0.0,
            "stale pair handle {h:?} (pair was removed)"
        );
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
    /// order — the iteration order every cost summation uses, which is
    /// why it is independent of slot numbering and churn history.
    pub fn pairs(&self) -> Vec<(VmId, VmId, f64)> {
        let mut out = Vec::with_capacity(self.live);
        for h in 0..self.rates.len() {
            if self.rates[h] > 0.0 {
                out.push((self.ep_u[h], self.ep_v[h], fold(self.rates[h], self.scale)));
            }
        }
        if !self.canonical {
            out.sort_by_key(|&(u, v, _)| (u, v));
        }
        out
    }

    /// Sum of λ over all pairs.
    pub fn total_rate(&self) -> f64 {
        (self.total * self.scale).min(f64::MAX)
    }

    /// Average number of peers per VM (communication-graph density).
    pub fn mean_degree(&self) -> f64 {
        if self.num_vms == 0 {
            return 0.0;
        }
        2.0 * self.live as f64 / self.num_vms as f64
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
            // Each sweep multiplies by a finite factor, so a tombstone's
            // 0 stays 0 where an overflowed product would make it NaN.
            self.settle_scale();
            self.sweep(factor);
        }
    }

    /// Settles the pending factor into the slots, leaving it at `1.0`
    /// and every read unchanged.
    fn settle_scale(&mut self) {
        let pending = std::mem::replace(&mut self.scale, 1.0);
        if pending != 1.0 {
            self.sweep(pending);
        }
    }

    /// Multiplies every stored rate by `factor`: one pass over the
    /// contiguous rate array plus the adjacency mirror.
    fn sweep(&mut self, factor: f64) {
        for r in &mut self.rates {
            if *r > 0.0 {
                *r = fold(*r, factor);
            }
        }
        for peers in &mut self.adjacency {
            for p in peers {
                p.1 = fold(p.1, factor);
            }
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
        for r in &mut next.rates {
            *r = r.min(cap);
        }
        for peers in &mut next.adjacency {
            for p in peers {
                p.1 = p.1.min(cap);
            }
        }
        next.total = next.pairs().iter().map(|&(_, _, r)| r).sum();
        next
    }

    /// Applies absolute-rate updates **in place**: each `(u, v, rate)`
    /// entry *replaces* λ(u, v) (a rate of `0` removes the pair).
    /// Updates are canonicalized and applied in order
    /// ([`PairTraffic::apply_update`] each), so when the same pair
    /// appears twice the later entry wins.
    ///
    /// # Panics
    ///
    /// Panics if an update names a self-pair, an out-of-range VM, or a
    /// negative/non-finite rate.
    pub fn apply_updates(&mut self, updates: &[(VmId, VmId, f64)]) {
        for &(u, v, rate) in updates {
            self.apply_update(u, v, rate);
        }
    }

    /// Replaces λ(u, v) with `rate` **in place** (a rate of `0` removes
    /// the pair) — one entry of [`PairTraffic::apply_updates`], for a
    /// caller that has its updates in another shape and would only
    /// collect them to pass a slice. The pair costs one O(log degree)
    /// adjacency probe to resolve its slot handle and then O(1)
    /// flat-array writes — no global pair-list search, no map rebuild,
    /// no reallocation of untouched state (only an insertion into a full
    /// peer list grows it) — which is what keeps trace replay flat as
    /// clusters grow to millions of pairs. The running total is adjusted
    /// incrementally (it can drift from a fresh summation by ordinary
    /// float rounding). A pending scale is settled first (one sweep), so
    /// every written rate reads back exactly.
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
        let (u, v) = if u < v { (u, v) } else { (v, u) };
        match self.adjacency[u.index()].binary_search_by_key(&v, |&(p, _)| p) {
            Ok(i) => {
                let h = self.adj_handles[u.index()][i] as usize;
                let old = self.rates[h];
                if old == rate {
                    return;
                }
                if rate == 0.0 {
                    self.remove_slot(h, u, v, i);
                } else {
                    self.rates[h] = rate;
                    self.adjacency[u.index()][i].1 = rate;
                    let j = self.adjacency[v.index()]
                        .binary_search_by_key(&u, |&(p, _)| p)
                        .expect("adjacency is symmetric");
                    self.adjacency[v.index()][j].1 = rate;
                }
                self.total += rate - old;
            }
            Err(i) => {
                if rate != 0.0 {
                    self.insert_slot(u, v, rate, i);
                    self.total += rate;
                }
            }
        }
    }

    /// Re-rates a live pair through its handle: the O(1)-slot variant of
    /// a single-pair [`PairTraffic::apply_updates`] (a rate of `0`
    /// removes the pair and invalidates the handle). The two adjacency
    /// mirror entries still cost one O(log degree) probe each.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle or a negative/non-finite rate.
    pub fn set_rate(&mut self, h: PairHandle, rate: f64) {
        self.check_live(h);
        assert!(
            rate.is_finite() && rate >= 0.0,
            "rate must be finite and >= 0"
        );
        self.settle_scale();
        let (u, v) = (self.ep_u[h.index()], self.ep_v[h.index()]);
        let old = self.rates[h.index()];
        if old == rate {
            return;
        }
        let i = self.adjacency[u.index()]
            .binary_search_by_key(&v, |&(p, _)| p)
            .expect("adjacency is symmetric");
        if rate == 0.0 {
            self.remove_slot(h.index(), u, v, i);
        } else {
            self.rates[h.index()] = rate;
            self.adjacency[u.index()][i].1 = rate;
            let j = self.adjacency[v.index()]
                .binary_search_by_key(&u, |&(p, _)| p)
                .expect("adjacency is symmetric");
            self.adjacency[v.index()][j].1 = rate;
        }
        self.total += rate - old;
    }

    /// Tombstones slot `h` for canonical pair `(u, v)` whose entry in
    /// `adjacency[u]` sits at position `i`.
    fn remove_slot(&mut self, h: usize, u: VmId, v: VmId, i: usize) {
        self.adjacency[u.index()].remove(i);
        self.adj_handles[u.index()].remove(i);
        let j = self.adjacency[v.index()]
            .binary_search_by_key(&u, |&(p, _)| p)
            .expect("adjacency is symmetric");
        self.adjacency[v.index()].remove(j);
        self.adj_handles[v.index()].remove(j);
        self.rates[h] = 0.0;
        self.free.push(h as u32);
        self.live -= 1;
        // A subsequence of a canonically ordered slot walk stays
        // canonically ordered: `canonical` is preserved.
    }

    /// Inserts canonical pair `(u, v)` at rate `rate > 0`, with `i` the
    /// insertion position in `adjacency[u]`, reusing a tombstoned slot
    /// when one is free.
    fn insert_slot(&mut self, u: VmId, v: VmId, rate: f64, i: usize) {
        let h = match self.free.pop() {
            Some(h) => {
                self.ep_u[h as usize] = u;
                self.ep_v[h as usize] = v;
                self.rates[h as usize] = rate;
                h
            }
            None => {
                self.ep_u.push(u);
                self.ep_v.push(v);
                self.rates.push(rate);
                (self.rates.len() - 1) as u32
            }
        };
        self.adjacency[u.index()].insert(i, (v, rate));
        self.adj_handles[u.index()].insert(i, h);
        let j = self.adjacency[v.index()]
            .binary_search_by_key(&u, |&(p, _)| p)
            .expect_err("pair missing from one side must be missing from both");
        self.adjacency[v.index()].insert(j, (u, rate));
        self.adj_handles[v.index()].insert(j, h);
        self.live += 1;
        self.canonical = false;
    }

    /// Returns a copy with the given absolute-rate updates applied —
    /// [`PairTraffic::apply_updates`] on a clone.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid updates as
    /// [`PairTraffic::apply_updates`].
    #[must_use]
    pub fn updated(&self, updates: &[(VmId, VmId, f64)]) -> PairTraffic {
        let mut next = self.clone();
        next.apply_updates(updates);
        next
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
        self.adj_handles.push(Vec::new());
        vm
    }

    /// Merges another communication graph over the same VM population into
    /// this one, accumulating rates of shared pairs.
    ///
    /// # Panics
    ///
    /// Panics if the VM populations differ.
    pub fn merged(&self, other: &PairTraffic) -> PairTraffic {
        assert_eq!(self.num_vms, other.num_vms, "VM populations differ");
        let mut b = PairTrafficBuilder::new(self.num_vms);
        for &(u, v, r) in self.pairs().iter().chain(other.pairs().iter()) {
            b.add(u, v, r);
        }
        b.build()
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
    }

    #[test]
    fn totals_and_density() {
        let t = triangle();
        assert_eq!(t.total_rate(), 60.0);
        assert_eq!(t.num_pairs(), 3);
        assert!((t.mean_degree() - 1.5).abs() < 1e-12);
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
        let h = t.handle(VmId::new(0), VmId::new(2)).unwrap();
        assert_eq!(t.rate_of(h), 300.0);
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
            // The handle path settles too.
            t.scale_all(0.3);
            let h = t.handle(VmId::new(1), VmId::new(2)).unwrap();
            t.set_rate(h, rate);
            assert_eq!(t.rate_of(h), rate);
            assert_eq!(t.peers(VmId::new(2)).nth(1), Some((VmId::new(1), rate)));
        }
    }

    #[test]
    fn extreme_factors_saturate_and_never_resurrect_a_tombstone() {
        let mut t = triangle();
        t.apply_updates(&[(VmId::new(1), VmId::new(2), 0.0)]); // tombstone
        let check = |t: &PairTraffic| {
            assert_eq!(t.num_pairs(), 2);
            assert_eq!(t.rate(VmId::new(1), VmId::new(2)), 0.0);
            assert_eq!(t.handle(VmId::new(1), VmId::new(2)), None);
            assert!(t.rates.iter().all(|r| r.is_finite()));
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
        // bottom out above zero instead of turning into tombstones.
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
        let t = triangle();
        let next = t.updated(&[
            (VmId::new(1), VmId::new(0), 99.0), // replace (canonicalized)
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
        // The original is untouched.
        assert_eq!(t.num_pairs(), 3);
    }

    #[test]
    fn updated_matches_builder_equivalent() {
        let t = triangle();
        let next = t.updated(&[(VmId::new(0), VmId::new(3), 5.0)]);
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 10.0);
        b.add(VmId::new(1), VmId::new(2), 20.0);
        b.add(VmId::new(2), VmId::new(0), 30.0);
        b.add(VmId::new(0), VmId::new(3), 5.0);
        assert_eq!(next, b.build());
        // Later duplicate update wins; empty updates are identity.
        let twice = t.updated(&[
            (VmId::new(0), VmId::new(1), 1.0),
            (VmId::new(0), VmId::new(1), 2.0),
        ]);
        assert_eq!(twice.rate(VmId::new(0), VmId::new(1)), 2.0);
        assert_eq!(t.updated(&[]), t);
        // Removing a pair that does not exist is a no-op.
        assert_eq!(t.updated(&[(VmId::new(0), VmId::new(3), 0.0)]), t);
    }

    #[test]
    fn canonical_order_survives_churn() {
        // Remove then insert: the recycled slot sits out of (u, v) order
        // in the flat arrays, but pairs() re-canonicalizes.
        let mut t = triangle();
        t.apply_updates(&[(VmId::new(1), VmId::new(2), 0.0)]); // tombstone
        t.apply_updates(&[(VmId::new(0), VmId::new(3), 5.0)]); // recycles slot
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
    fn handles_are_stable_across_unrelated_churn() {
        let mut t = triangle();
        let h01 = t.handle(VmId::new(0), VmId::new(1)).unwrap();
        assert_eq!(t.endpoints(h01), (VmId::new(0), VmId::new(1)));
        assert_eq!(t.rate_of(h01), 10.0);
        // Reversed endpoint order resolves to the same handle.
        assert_eq!(t.handle(VmId::new(1), VmId::new(0)), Some(h01));
        assert_eq!(t.handle(VmId::new(0), VmId::new(3)), None);
        assert_eq!(t.handle(VmId::new(2), VmId::new(2)), None);

        // Unrelated removals and insertions leave the handle intact.
        t.apply_updates(&[
            (VmId::new(1), VmId::new(2), 0.0),
            (VmId::new(2), VmId::new(3), 8.0),
        ]);
        assert_eq!(t.rate_of(h01), 10.0);
        t.set_rate(h01, 42.0);
        assert_eq!(t.rate(VmId::new(0), VmId::new(1)), 42.0);
        assert_eq!(t.total_rate(), 42.0 + 30.0 + 8.0);
    }

    #[test]
    #[should_panic(expected = "stale pair handle")]
    fn stale_handle_panics() {
        let mut t = triangle();
        let h = t.handle(VmId::new(0), VmId::new(1)).unwrap();
        t.set_rate(h, 0.0); // removes the pair, invalidating h
        let _ = t.rate_of(h);
    }

    #[test]
    fn set_rate_matches_apply_updates() {
        let mut by_handle = triangle();
        let h = by_handle.handle(VmId::new(1), VmId::new(2)).unwrap();
        by_handle.set_rate(h, 7.5);
        let by_update = triangle().updated(&[(VmId::new(1), VmId::new(2), 7.5)]);
        assert_eq!(by_handle, by_update);
        assert_eq!(by_handle.total_rate(), by_update.total_rate());
        // Identical-rate writes are no-ops on the running total.
        by_handle.set_rate(h, 7.5);
        assert_eq!(by_handle.total_rate(), by_update.total_rate());
    }

    #[test]
    fn serde_round_trip_preserves_semantics() {
        use serde::{Deserialize as _, Serialize as _};
        let mut t = triangle();
        // Churn so the slot layout differs from a fresh build.
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
        let _ = triangle().updated(&[(VmId::new(0), VmId::new(1), -1.0)]);
    }

    #[test]
    fn merge_accumulates() {
        let t = triangle();
        let m = t.merged(&t);
        assert_eq!(m.rate(VmId::new(0), VmId::new(1)), 20.0);
        assert_eq!(m.num_pairs(), 3);
    }

    #[test]
    fn empty_graph() {
        let t = PairTraffic::empty(5);
        assert_eq!(t.num_vms(), 5);
        assert_eq!(t.num_pairs(), 0);
        assert_eq!(t.total_rate(), 0.0);
        assert_eq!(t.mean_degree(), 0.0);
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

    #[test]
    #[should_panic(expected = "populations differ")]
    fn merge_rejects_mismatched_populations() {
        let a = PairTraffic::empty(2);
        let b = PairTraffic::empty(3);
        let _ = a.merged(&b);
    }
}
