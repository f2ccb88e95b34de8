//! Token-passing policies (paper §V-A).
//!
//! The token holder decides whether to migrate, then picks the next holder
//! according to the policy. The paper evaluates two: Round-Robin
//! ([`RoundRobin`]) and Highest-Level-First ([`HighestLevelFirst`],
//! Algorithm 1). [`RandomNext`] is included as an ablation baseline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_topology::{Level, VmId};
use std::fmt;

use crate::token::Token;
use crate::view::{LocalView, PeerInfo};

/// A token-passing policy.
///
/// `next_holder` is invoked while `holder` still owns the token, *after*
/// its migration decision; `view` is the holder's post-decision
/// [`LocalView`], whose peers carry their `expected` rates when the
/// pipeline forecasts. Implementations may update the token's level
/// entries (HLF does, RR does not need to). Returning `None` means no
/// next holder exists (empty or singleton token).
pub trait TokenPolicy: fmt::Debug + Send {
    /// Short policy name for logs and CSV columns (e.g. `"rr"`, `"hlf"`).
    fn name(&self) -> &'static str;

    /// Picks the next token holder and updates token state.
    fn next_holder(&mut self, token: &mut Token, holder: VmId, view: &LocalView) -> Option<VmId>;

    /// Builds any derived acceleration state for `token` ahead of the first
    /// hold, so construction (not the steady-state decision path) pays the
    /// one-time O(n) cost. Purely an optimisation hook: `next_holder` must
    /// behave identically whether or not this was called. Stateless
    /// policies need not override it.
    fn prepare(&mut self, token: &Token) {
        let _ = token;
    }
}

impl<P: TokenPolicy + ?Sized> TokenPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn next_holder(&mut self, token: &mut Token, holder: VmId, view: &LocalView) -> Option<VmId> {
        (**self).next_holder(token, holder, view)
    }

    fn prepare(&mut self, token: &Token) {
        (**self).prepare(token)
    }
}

/// A per-round "already checked" membership set, epoch-stamped so that
/// clearing a round is O(1) (bump the epoch) and queries are a single
/// indexed load — the policies sit on the steady-state decision path and
/// must not hash or allocate per step (the backing vector only grows
/// when the VM population does).
#[derive(Debug, Clone)]
struct CheckedSet {
    /// Stamp meaning "checked this round". Entries with any other value
    /// are unchecked.
    epoch: u32,
    /// vm id → epoch stamp of its last check.
    mark: Vec<u32>,
}

impl Default for CheckedSet {
    fn default() -> Self {
        // Epoch 0 would make the zero-initialised marks read as checked.
        CheckedSet {
            epoch: 1,
            mark: Vec::new(),
        }
    }
}

impl CheckedSet {
    fn insert(&mut self, vm: VmId) {
        let i = vm.index();
        if self.mark.len() <= i {
            self.mark.resize(i + 1, 0);
        }
        self.mark[i] = self.epoch;
    }

    fn contains(&self, vm: VmId) -> bool {
        self.mark.get(vm.index()) == Some(&self.epoch)
    }

    fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

/// A two-level bitset over VM ids: one bit per id plus a summary bit per
/// 64-bit word, giving O(1)-ish `min`/successor queries (at most a
/// couple of word scans through the summary) over populations of
/// hundreds of thousands of VMs. Backing storage grows only when the id
/// space does — steady-state operations never allocate.
#[derive(Debug, Clone, Default)]
struct IdBitSet {
    words: Vec<u64>,
    /// Bit `w` set iff `words[g*64 + w]` of group `g` is non-zero.
    summary: Vec<u64>,
}

impl IdBitSet {
    fn insert(&mut self, i: usize) {
        let w = i / 64;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
            self.summary.resize((w + 1).div_ceil(64), 0);
        }
        self.words[w] |= 1 << (i % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    /// Clears bit `i`; returns whether it was set.
    fn remove(&mut self, i: usize) -> bool {
        let w = i / 64;
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let bit = 1u64 << (i % 64);
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        if *word == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        true
    }

    /// Recomputes the summary from scratch after a bulk word rewrite.
    fn rebuild_summary(&mut self) {
        self.summary.clear();
        self.summary.resize(self.words.len().div_ceil(64), 0);
        for (w, &word) in self.words.iter().enumerate() {
            if word != 0 {
                self.summary[w / 64] |= 1 << (w % 64);
            }
        }
    }

    /// Lowest set id ≥ `from`, if any.
    fn succ_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        if w >= self.words.len() {
            return None;
        }
        let masked = self.words[w] & (!0u64 << (from % 64));
        if masked != 0 {
            return Some(w * 64 + masked.trailing_zeros() as usize);
        }
        // Next non-empty word via the summary.
        let mut g = w / 64;
        let gmask = if w % 64 == 63 {
            0
        } else {
            !0u64 << (w % 64 + 1)
        };
        let mut bits = self.summary[g] & gmask;
        loop {
            if bits != 0 {
                w = g * 64 + bits.trailing_zeros() as usize;
                return Some(w * 64 + self.words[w].trailing_zeros() as usize);
            }
            g += 1;
            if g >= self.summary.len() {
                return None;
            }
            bits = self.summary[g];
        }
    }

    fn min(&self) -> Option<usize> {
        self.succ_from(0)
    }
}

/// The staleness rule of the policies' derived indexes: an index built
/// from a token is current until that token's membership
/// [`Token::version`] (or length) moves — churn the policy was not told
/// about — or the owner invalidates it.
#[derive(Debug, Clone, Copy, Default)]
struct TokenStamp {
    built: bool,
    version: u64,
    len: usize,
}

impl TokenStamp {
    fn is_current(&self, token: &Token) -> bool {
        self.built && self.version == token.version() && self.len == token.len()
    }

    fn record(&mut self, token: &Token) {
        *self = TokenStamp {
            built: true,
            version: token.version(),
            len: token.len(),
        };
    }

    fn invalidate(&mut self) {
        self.built = false;
    }
}

/// Per-level index of the *unchecked* token entries, mirroring
/// `{(e.id, e.level) : e ∈ token, !checked(e.id)}` so the Algorithm-1
/// scans ("first unchecked VM at level L after the holder", "lowest-id
/// unchecked VM at level L", "best unchecked by level desc, id asc")
/// answer in O(1)-ish instead of walking every token entry — at 200k
/// VMs those walks were the single most expensive part of an HLF step.
///
/// The index is purely derived state: it is rebuilt from the token and
/// the checked set whenever the token's membership [`Token::version`]
/// (or length) changes under the policy's feet, and the policy keeps it
/// in sync through every level update and check it performs itself.
#[derive(Debug, Clone, Default)]
struct UncheckedIndex {
    stamp: TokenStamp,
    /// One bitset per level value (index = `Level::get()`).
    levels: Vec<IdBitSet>,
}

impl UncheckedIndex {
    /// Rebuilds from scratch if the token changed membership since the
    /// last sync (or the index was never built / invalidated).
    fn sync(&mut self, token: &Token, checked: &CheckedSet) {
        if self.stamp.is_current(token) {
            return;
        }
        // Bulk rebuild: size every level to the full id range up front, set
        // raw word bits in one pass over the entries, then derive the
        // summaries. Avoids per-insert growth and summary maintenance,
        // which dominate when the token holds hundreds of thousands of VMs.
        let max_level = token
            .members()
            .map(|(_, level)| level.get() as usize)
            .max()
            .unwrap_or(0);
        let words = token.id_span().div_ceil(64);
        if self.levels.len() <= max_level {
            self.levels.resize_with(max_level + 1, IdBitSet::default);
        }
        for set in &mut self.levels {
            set.words.clear();
            set.words.resize(words, 0);
        }
        for (id, level) in token.members() {
            if !checked.contains(id) {
                let i = id.index();
                self.levels[level.get() as usize].words[i / 64] |= 1 << (i % 64);
            }
        }
        for set in &mut self.levels {
            set.rebuild_summary();
        }
        self.stamp.record(token);
    }

    fn invalidate(&mut self) {
        self.stamp.invalidate();
    }

    fn insert(&mut self, vm: VmId, level: Level) {
        let l = level.get() as usize;
        if self.levels.len() <= l {
            self.levels.resize_with(l + 1, IdBitSet::default);
        }
        self.levels[l].insert(vm.index());
    }

    /// Clears `vm` at `level`; returns whether it was present.
    fn remove(&mut self, vm: VmId, level: Level) -> bool {
        match self.levels.get_mut(level.get() as usize) {
            Some(set) => set.remove(vm.index()),
            None => false,
        }
    }

    /// Re-levels `vm` — a no-op when it is checked (not present).
    fn move_level(&mut self, vm: VmId, old: Level, new: Level) {
        if old != new && self.remove(vm, old) {
            self.insert(vm, new);
        }
    }

    /// First unchecked VM at `level` with id > `from`, wrapping to the
    /// lowest id — the cyclic Algorithm-1 scan (the holder itself is
    /// checked by the time this runs, so no exclusion is needed).
    fn cyclic_after(&self, from: VmId, level: Level) -> Option<VmId> {
        let set = self.levels.get(level.get() as usize)?;
        set.succ_from(from.index() + 1)
            .or_else(|| set.min())
            .map(|i| VmId::new(i as u32))
    }

    /// Lowest-id unchecked VM at `level`.
    fn first_at(&self, level: Level) -> Option<VmId> {
        self.levels
            .get(level.get() as usize)?
            .min()
            .map(|i| VmId::new(i as u32))
    }

    /// Best unchecked VM by (level desc, id asc).
    fn best(&self) -> Option<VmId> {
        for set in self.levels.iter().rev() {
            if let Some(i) = set.min() {
                return Some(VmId::new(i as u32));
            }
        }
        None
    }
}

/// Round-robin: pass the token in ascending VM-id order, wrapping at the
/// top ("trivial to implement" but "wasteful since not all VMs will need to
/// migrate at any given time", §V-A1).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl RoundRobin {
    /// Creates the policy.
    pub fn new() -> Self {
        RoundRobin
    }
}

impl TokenPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "rr"
    }

    fn next_holder(&mut self, token: &mut Token, holder: VmId, _view: &LocalView) -> Option<VmId> {
        let next = token.next_after(holder)?;
        if next == holder {
            None
        } else {
            Some(next)
        }
    }
}

/// Highest-Level-First (Algorithm 1): prioritise VMs whose traffic crosses
/// the most expensive layers, using the partial level estimates stored in
/// the token.
///
/// Algorithm 1 tracks which VMs have already been *checked* in the current
/// round ("if !found then ⊲ No unchecked VMs are left", line 15): without
/// it, two permanently core-level VMs would ping-pong the token between
/// themselves forever and starve the rest of the population. The checked
/// set conceptually travels with the token (one bit per entry); we keep it
/// inside the policy, which is equivalent for a single ring.
#[derive(Debug, Clone, Default)]
pub struct HighestLevelFirst {
    checked: CheckedSet,
    /// Accelerates the Algorithm-1 scans; derived from `checked` + the
    /// token, never authoritative.
    index: UncheckedIndex,
}

impl HighestLevelFirst {
    /// Creates the policy.
    pub fn new() -> Self {
        HighestLevelFirst::default()
    }
}

impl TokenPolicy for HighestLevelFirst {
    fn name(&self) -> &'static str {
        "hlf"
    }

    fn prepare(&mut self, token: &Token) {
        self.index.invalidate();
        self.index.sync(token, &self.checked);
    }

    fn next_holder(&mut self, token: &mut Token, holder: VmId, view: &LocalView) -> Option<VmId> {
        self.index.sync(token, &self.checked);
        // Line 1 and the preceding text: the holder refreshes its own entry
        // (it knows ℓ_A(u) exactly) …
        let own = view.own_level();
        if let Some(old) = token.level_of(holder) {
            token.set_level(holder, own);
            self.index.move_level(holder, old, own);
        }
        // … and lines 3–5: raises peer entries it has fresher knowledge of.
        for p in &view.peers {
            let old = token.level_of(p.vm);
            if token.raise_level(p.vm, p.level) {
                let old = old.expect("raised entries are tracked");
                self.index.move_level(p.vm, old, p.level);
            }
        }
        // The holder has now been checked this round.
        self.checked.insert(holder);
        if let Some(l) = token.level_of(holder) {
            self.index.remove(holder, l);
        }

        // Lines 6–14: search the holder's level starting after it, then
        // lower levels starting from v0 — unchecked VMs only. The holder
        // itself is checked (above), so the index never returns it.
        let cl0 = token.level_of(holder).unwrap_or(Level::ZERO);
        for cl in (0..=cl0.get()).rev() {
            let level = Level::new(cl);
            let found = if cl == cl0.get() {
                self.index.cyclic_after(holder, level)
            } else {
                self.index.first_at(level)
            };
            if let Some(z) = found {
                return Some(z);
            }
        }

        // Nothing unchecked at or below the holder's level; VMs whose
        // (possibly freshly raised) level exceeds the holder's may still be
        // unchecked — serve the highest of them first.
        if let Some(z) = self.index.best() {
            return Some(z);
        }

        // Lines 15–16: no unchecked VMs are left — the round is over.
        // Restart from the highest-level VM with the lowest ID; if that is
        // the holder itself, fall back to its round-robin successor.
        // O(token) once per round; the index rebuilds on the next call.
        self.checked.clear();
        self.index.invalidate();
        let max = token.members().map(|(_, level)| level).max()?;
        if let Some((id, _)) = token
            .members()
            .find(|&(id, level)| level == max && id != holder)
        {
            return Some(id);
        }
        token.next_after(holder).filter(|&z| z != holder)
    }
}

/// A fixed-size max-tournament over VM ids: an implicit binary tree of
/// `f64` whose leaf `i` holds the key of VM id `i`
/// ([`MaxTournament::ABSENT`] when it has none) and whose inner nodes
/// hold the maximum of their children. Ties resolve to the left child,
/// so [`MaxTournament::best`] is the *first* maximum in id order.
/// Storage only grows when the id span does.
#[derive(Debug, Clone, Default)]
struct MaxTournament {
    /// `tree[1]` is the root, `tree[cap + i]` leaf `i`; `tree[0]` unused.
    tree: Vec<f64>,
    /// Leaf count: a power of two ≥ the id span. 0 until the first
    /// [`MaxTournament::rebuild`], which must precede any other call.
    cap: usize,
}

impl MaxTournament {
    /// Key of a leaf that takes no part in the tournament. Real keys are
    /// finite and ≥ 0, so every one of them beats it.
    const ABSENT: f64 = f64::NEG_INFINITY;

    /// Makes `leaves` leaves, absent but for the `(leaf, key)` pairs of
    /// `keys`, and replays every match: O(leaves).
    fn rebuild(&mut self, leaves: usize, keys: impl Iterator<Item = (usize, f64)>) {
        self.cap = leaves.next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * self.cap, Self::ABSENT);
        for (leaf, key) in keys {
            self.tree[self.cap + leaf] = key;
        }
        for i in (1..self.cap).rev() {
            self.tree[i] = Self::winner(self.tree[2 * i], self.tree[2 * i + 1]);
        }
    }

    /// Whether `leaf` takes part: a leaf past the last one does not.
    fn is_present(&self, leaf: usize) -> bool {
        leaf < self.cap && self.tree[self.cap + leaf] > Self::ABSENT
    }

    fn winner(left: f64, right: f64) -> f64 {
        if right > left {
            right
        } else {
            left
        }
    }

    /// Re-keys `leaf` and replays its matches towards the root, stopping
    /// at the first one whose winner does not change.
    fn set(&mut self, leaf: usize, key: f64) {
        let mut i = self.cap + leaf;
        self.tree[i] = key;
        while i > 1 {
            i /= 2;
            let w = Self::winner(self.tree[2 * i], self.tree[2 * i + 1]);
            if self.tree[i] == w {
                break;
            }
            self.tree[i] = w;
        }
    }

    /// Leaf of the highest key, the lowest leaf among equals; `None` when
    /// every leaf is absent.
    fn best(&self) -> Option<usize> {
        let mut i = 1;
        while i < self.cap {
            i *= 2;
            if self.tree[i + 1] > self.tree[i] {
                i += 1;
            }
        }
        (self.tree[i] > Self::ABSENT).then_some(i - self.cap)
    }
}

/// The shared mechanics of the cost-routed policies ([`HighestCostFirst`]
/// and [`ForecastCostFirst`]): per-VM cost estimates tracked the same
/// way HLF tracks levels — exact for VMs that held the token, partial
/// (from observed pairs) for their peers — plus the per-round checked
/// set that guarantees coverage. The two public policies differ *only*
/// in which rate each pair is priced at (current vs expected), which is
/// what keeps "fcf ≡ hcf without a forecast" true by construction.
///
/// "Highest estimate among the unchecked, lowest id first" is answered
/// by a [`MaxTournament`] with one leaf per id, keyed by the estimates of
/// the unchecked token members; departed ids, ids that never joined and
/// checked VMs are absent leaves. A hop thus costs O(peers · log n)
/// instead of a walk over every member. The tournament is purely derived
/// state: the policy keeps it in step with every estimate it raises and
/// every VM it checks, and rebuilds it in O(id span) when a round
/// restarts or the token's membership moved under its feet
/// ([`TokenStamp`]).
#[derive(Debug, Clone, Default)]
struct CostFirstCore {
    /// vm id → estimate, covering every id up to the highest the token
    /// has ever held; survives membership churn. Observations of ids
    /// beyond that range (peers that were never members) are dropped.
    estimates: Vec<f64>,
    checked: CheckedSet,
    /// Derived from `estimates` + `checked` + the token, never
    /// authoritative: a leaf is present exactly when its id is an
    /// unchecked member.
    unchecked: MaxTournament,
    stamp: TokenStamp,
}

impl CostFirstCore {
    /// The current cost estimate for a VM (0 when unobserved).
    fn estimate(&self, vm: VmId) -> f64 {
        self.estimates.get(vm.index()).copied().unwrap_or(0.0)
    }

    /// Re-derives the tournament (and the estimate range) from the token.
    fn rebuild(&mut self, token: &Token) {
        let span = token.id_span();
        if self.estimates.len() < span {
            self.estimates.resize(span, 0.0);
        }
        let (estimates, checked) = (&self.estimates, &self.checked);
        let keys = token
            .ids()
            .iter()
            .filter(|&&id| !checked.contains(id))
            .map(|id| (id.index(), estimates[id.index()]));
        self.unchecked.rebuild(span, keys);
        self.stamp.record(token);
    }

    /// Records an estimate; ids outside the tracked range are dropped.
    fn write_estimate(&mut self, vm: VmId, est: f64) {
        debug_assert!(
            est.is_finite() && est >= 0.0,
            "cost estimate {est} for {vm:?} must be finite and non-negative"
        );
        if let Some(slot) = self.estimates.get_mut(vm.index()) {
            *slot = est;
        }
    }

    /// One holder visit: refresh estimates (Eq. 1 with each pair priced
    /// by `rate_of(peer)`), keep token levels fresh, mark the
    /// holder checked, and pick the next holder — restarting the round
    /// at the globally highest-estimate VM when everyone was checked.
    fn next_holder(
        &mut self,
        weights: &score_topology::LinkWeights,
        token: &mut Token,
        holder: VmId,
        view: &LocalView,
        rate_of: impl Fn(&PeerInfo) -> f64,
    ) -> Option<VmId> {
        if !self.stamp.is_current(token) {
            self.rebuild(token);
        }
        // Exact cost for the holder (Eq. 1 over its local view) …
        let own: f64 = 2.0
            * view
                .peers
                .iter()
                .map(|p| rate_of(p) * weights.prefix(p.level))
                .sum::<f64>();
        self.write_estimate(holder, own);
        // … and a partial lower-bound estimate for each peer: the pair the
        // holder can see. Keep the max across observations.
        for p in &view.peers {
            let pair_cost = 2.0 * rate_of(p) * weights.prefix(p.level);
            if self.estimate(p.vm) < pair_cost {
                self.write_estimate(p.vm, pair_cost);
                if self.unchecked.is_present(p.vm.index()) {
                    self.unchecked.set(p.vm.index(), pair_cost);
                }
            }
        }
        // Keep the token's level entries fresh too (interoperable state).
        token.set_level(holder, view.own_level());
        for p in &view.peers {
            token.raise_level(p.vm, p.level);
        }
        self.checked.insert(holder);
        let holder_leaf = holder.index();
        if self.unchecked.is_present(holder_leaf) {
            self.unchecked.set(holder_leaf, MaxTournament::ABSENT);
        }

        // The holder is checked, so the tournament cannot return it.
        if let Some(leaf) = self.unchecked.best() {
            return Some(VmId::new(leaf as u32));
        }
        // Round over: restart at the globally highest-cost VM. The holder
        // is unchecked again but must not succeed itself, so it sits this
        // one query out.
        self.checked.clear();
        self.rebuild(token);
        let holder_in = self.unchecked.is_present(holder_leaf);
        if holder_in {
            self.unchecked.set(holder_leaf, MaxTournament::ABSENT);
        }
        let best = self.unchecked.best();
        if holder_in {
            self.unchecked.set(holder_leaf, self.estimate(holder));
        }
        match best {
            Some(leaf) => Some(VmId::new(leaf as u32)),
            None => token.next_after(holder).filter(|&z| z != holder),
        }
    }
}

/// Highest-Cost-First: prioritise VMs by their estimated *communication
/// cost* contribution instead of their level.
///
/// One of the "number of distinct token passing policies" the paper's
/// companion technical report (TR-2013-338) explores beyond RR and HLF: a
/// VM at core level with negligible traffic matters less than one at
/// aggregation level moving gigabits. Pairs are priced at their
/// *current* rates; see [`ForecastCostFirst`] for the variant priced at
/// the expected rates.
#[derive(Debug, Clone)]
pub struct HighestCostFirst {
    weights: score_topology::LinkWeights,
    core: CostFirstCore,
}

impl HighestCostFirst {
    /// Creates the policy with the cost weights used for estimates.
    pub fn new(weights: score_topology::LinkWeights) -> Self {
        HighestCostFirst {
            weights,
            core: CostFirstCore::default(),
        }
    }

    /// Creates the policy with the paper's default weights.
    pub fn paper_default() -> Self {
        HighestCostFirst::new(score_topology::LinkWeights::paper_default())
    }
}

impl TokenPolicy for HighestCostFirst {
    fn name(&self) -> &'static str {
        "hcf"
    }

    fn prepare(&mut self, token: &Token) {
        self.core.rebuild(token);
    }

    fn next_holder(&mut self, token: &mut Token, holder: VmId, view: &LocalView) -> Option<VmId> {
        self.core
            .next_holder(&self.weights, token, holder, view, |p| p.rate)
    }
}

/// Forecast-Cost-First: the forecast-aware variant of
/// [`HighestCostFirst`] — prioritise VMs by the communication cost they
/// are *expected* to incur at the forecast horizon, so the token
/// reaches tomorrow's elephants before their spike lands.
///
/// Same cost-first mechanics; only the pair pricing differs
/// ([`PeerInfo::expected`] instead of the current rate), so without a
/// forecast this is exactly [`HighestCostFirst`].
#[derive(Debug, Clone)]
pub struct ForecastCostFirst {
    weights: score_topology::LinkWeights,
    core: CostFirstCore,
}

impl ForecastCostFirst {
    /// Creates the policy with the cost weights used for estimates.
    pub fn new(weights: score_topology::LinkWeights) -> Self {
        ForecastCostFirst {
            weights,
            core: CostFirstCore::default(),
        }
    }

    /// Creates the policy with the paper's default weights.
    pub fn paper_default() -> Self {
        ForecastCostFirst::new(score_topology::LinkWeights::paper_default())
    }
}

impl TokenPolicy for ForecastCostFirst {
    fn name(&self) -> &'static str {
        "fcf"
    }

    fn prepare(&mut self, token: &Token) {
        self.core.rebuild(token);
    }

    fn next_holder(&mut self, token: &mut Token, holder: VmId, view: &LocalView) -> Option<VmId> {
        self.core
            .next_holder(&self.weights, token, holder, view, |p| p.expected)
    }
}

/// Uniform-random next holder (ablation baseline; not in the paper).
#[derive(Debug)]
pub struct RandomNext {
    rng: StdRng,
}

impl RandomNext {
    /// Creates the policy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomNext {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl TokenPolicy for RandomNext {
    fn name(&self) -> &'static str {
        "random"
    }

    fn next_holder(&mut self, token: &mut Token, holder: VmId, _view: &LocalView) -> Option<VmId> {
        let ids = token.ids();
        // Index-walk formulation of "uniform pick among ids ≠ holder":
        // sample k in the skip-holder index space, then map it back onto
        // the id array. Draws the same `gen_range` bound as collecting
        // the others into a vector would, so picks are bit-identical to
        // the allocating formulation this replaces.
        let holder_pos = ids.binary_search(&holder);
        let others = ids.len() - usize::from(holder_pos.is_ok());
        if others == 0 {
            return None;
        }
        let k = self.rng.gen_range(0..others);
        let idx = match holder_pos {
            Ok(h) if k >= h => k + 1,
            _ => k,
        };
        Some(ids[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use score_topology::ServerId;

    fn peer(vm: VmId, rate: f64, server: u32, level: Level) -> PeerInfo {
        PeerInfo {
            vm,
            rate,
            expected: rate,
            server: ServerId::new(server),
            level,
        }
    }

    fn view_with_level(vm: VmId, own: Level, peers: Vec<(VmId, Level)>) -> LocalView {
        // Build a synthetic view: the engine fields not used by the
        // policies (rates, servers) are filled with placeholders, except
        // levels which the policies read.
        LocalView {
            vm,
            server: ServerId::new(0),
            peers: peers
                .into_iter()
                .map(|(v, l)| peer(v, 1.0, 1, l))
                .chain(std::iter::once(peer(VmId::new(u32::MAX), 0.0, 1, own)))
                .collect(),
        }
    }

    #[test]
    fn round_robin_cycles_in_id_order() {
        let mut token = Token::for_vms([2, 5, 9].map(VmId::new));
        let mut rr = RoundRobin::new();
        let v = view_with_level(VmId::new(2), Level::ZERO, vec![]);
        assert_eq!(
            rr.next_holder(&mut token, VmId::new(2), &v),
            Some(VmId::new(5))
        );
        assert_eq!(
            rr.next_holder(&mut token, VmId::new(5), &v),
            Some(VmId::new(9))
        );
        assert_eq!(
            rr.next_holder(&mut token, VmId::new(9), &v),
            Some(VmId::new(2))
        );
    }

    #[test]
    fn round_robin_singleton_stops() {
        let mut token = Token::for_vms([VmId::new(4)]);
        let mut rr = RoundRobin::new();
        let v = view_with_level(VmId::new(4), Level::ZERO, vec![]);
        assert_eq!(rr.next_holder(&mut token, VmId::new(4), &v), None);
    }

    #[test]
    fn hlf_updates_holder_and_peer_levels() {
        let mut token = Token::for_vms([0, 1, 2].map(VmId::new));
        let mut hlf = HighestLevelFirst::new();
        let v = view_with_level(
            VmId::new(0),
            Level::CORE,
            vec![(VmId::new(1), Level::AGGREGATION)],
        );
        let _ = hlf.next_holder(&mut token, VmId::new(0), &v);
        assert_eq!(token.level_of(VmId::new(0)), Some(Level::CORE));
        assert_eq!(token.level_of(VmId::new(1)), Some(Level::AGGREGATION));
        assert_eq!(token.level_of(VmId::new(2)), Some(Level::ZERO));
    }

    #[test]
    fn hlf_prefers_same_level_after_holder() {
        let mut token = Token::for_vms([0, 1, 2, 3].map(VmId::new));
        token.set_level(VmId::new(1), Level::CORE);
        token.set_level(VmId::new(3), Level::CORE);
        let mut hlf = HighestLevelFirst::new();
        // Holder 2 at core level: scan starts after 2, finds 3 before 1.
        let v = view_with_level(VmId::new(2), Level::CORE, vec![]);
        assert_eq!(
            hlf.next_holder(&mut token, VmId::new(2), &v),
            Some(VmId::new(3))
        );
    }

    #[test]
    fn hlf_drops_to_lower_level_from_v0() {
        let mut token = Token::for_vms([0, 1, 2, 3].map(VmId::new));
        token.set_level(VmId::new(1), Level::RACK);
        token.set_level(VmId::new(3), Level::RACK);
        let mut hlf = HighestLevelFirst::new();
        // Holder 2 at aggregation level, nobody else there → drop to rack
        // level and take the lowest id (1).
        let v = view_with_level(VmId::new(2), Level::AGGREGATION, vec![]);
        assert_eq!(
            hlf.next_holder(&mut token, VmId::new(2), &v),
            Some(VmId::new(1))
        );
    }

    #[test]
    fn hlf_falls_back_to_max_level_min_id() {
        let mut token = Token::for_vms([0, 1, 2].map(VmId::new));
        token.set_level(VmId::new(1), Level::CORE);
        token.set_level(VmId::new(2), Level::CORE);
        let mut hlf = HighestLevelFirst::new();
        // Holder 0 at level 0; nobody else at level 0 → lines 15–16 pick
        // the lowest-id max-level VM (1).
        let v = view_with_level(VmId::new(0), Level::ZERO, vec![]);
        // own level 0 comes from the synthetic "no peers above 0" view.
        let v0 = LocalView {
            vm: VmId::new(0),
            server: ServerId::new(0),
            peers: vec![],
        };
        let _ = v;
        assert_eq!(
            hlf.next_holder(&mut token, VmId::new(0), &v0),
            Some(VmId::new(1))
        );
    }

    #[test]
    fn hlf_singleton_stops() {
        let mut token = Token::for_vms([VmId::new(7)]);
        let mut hlf = HighestLevelFirst::new();
        let v = LocalView {
            vm: VmId::new(7),
            server: ServerId::new(0),
            peers: vec![],
        };
        assert_eq!(hlf.next_holder(&mut token, VmId::new(7), &v), None);
    }

    #[test]
    fn hlf_does_not_starve_low_level_vms() {
        // Two VMs pinned at core level that never migrate must not trap the
        // token between themselves: every VM gets the token each round.
        let mut token = Token::for_vms([0, 1, 2, 3, 4].map(VmId::new));
        token.set_level(VmId::new(0), Level::CORE);
        token.set_level(VmId::new(1), Level::CORE);
        let mut hlf = HighestLevelFirst::new();
        let mut holder = VmId::new(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            seen.insert(holder);
            // Holders report their stored level as their true level.
            let own = token.level_of(holder).unwrap();
            let v = view_with_level(holder, own, vec![]);
            match hlf.next_holder(&mut token, holder, &v) {
                Some(next) => holder = next,
                None => break,
            }
        }
        assert_eq!(seen.len(), 5, "all 5 VMs must hold the token: {seen:?}");
    }

    #[test]
    fn hlf_round_restart_targets_max_level() {
        let mut token = Token::for_vms([0, 1].map(VmId::new));
        token.set_level(VmId::new(1), Level::CORE);
        let mut hlf = HighestLevelFirst::new();
        // 0 -> 1 (only unchecked), then 1 -> round restart -> 0? No: after
        // both checked, restart picks max-level min-id excluding holder.
        let v0 = LocalView {
            vm: VmId::new(0),
            server: ServerId::new(0),
            peers: vec![],
        };
        assert_eq!(
            hlf.next_holder(&mut token, VmId::new(0), &v0),
            Some(VmId::new(1))
        );
        let v1 = view_with_level(VmId::new(1), Level::CORE, vec![]);
        // Round over: restart. Max level is 1's own CORE, but 1 is the
        // holder, so 0 gets it.
        assert_eq!(
            hlf.next_holder(&mut token, VmId::new(1), &v1),
            Some(VmId::new(0))
        );
    }

    #[test]
    fn random_next_avoids_holder_and_is_seeded() {
        let mut token = Token::for_vms([0, 1, 2, 3].map(VmId::new));
        let v = LocalView {
            vm: VmId::new(0),
            server: ServerId::new(0),
            peers: vec![],
        };
        let picks: Vec<Option<VmId>> = {
            let mut p = RandomNext::new(9);
            (0..16)
                .map(|_| p.next_holder(&mut token, VmId::new(0), &v))
                .collect()
        };
        assert!(picks
            .iter()
            .all(|p| p.is_some() && p.unwrap() != VmId::new(0)));
        let mut p2 = RandomNext::new(9);
        let picks2: Vec<Option<VmId>> = (0..16)
            .map(|_| p2.next_holder(&mut token, VmId::new(0), &v))
            .collect();
        assert_eq!(picks, picks2, "seeded policy must be deterministic");
    }

    #[test]
    fn policy_names() {
        assert_eq!(RoundRobin::new().name(), "rr");
        assert_eq!(HighestLevelFirst::new().name(), "hlf");
        assert_eq!(RandomNext::new(0).name(), "random");
        assert_eq!(HighestCostFirst::paper_default().name(), "hcf");
    }

    #[test]
    fn hcf_prefers_costly_vms() {
        let mut token = Token::for_vms([0, 1, 2, 3].map(VmId::new));
        let mut hcf = HighestCostFirst::paper_default();
        // Holder 0 sees peer 2 with a heavy core-level pair and peer 1
        // with a light rack-level pair → 2 gets the higher estimate.
        let view = LocalView {
            vm: VmId::new(0),
            server: ServerId::new(0),
            peers: vec![
                peer(VmId::new(1), 1.0, 1, Level::RACK),
                peer(VmId::new(2), 100.0, 8, Level::CORE),
            ],
        };
        let next = hcf.next_holder(&mut token, VmId::new(0), &view);
        assert_eq!(next, Some(VmId::new(2)));
        assert!(hcf.core.estimate(VmId::new(2)) > hcf.core.estimate(VmId::new(1)));
        // The holder's own (exact) estimate covers both pairs.
        assert!(hcf.core.estimate(VmId::new(0)) > hcf.core.estimate(VmId::new(2)));
    }

    #[test]
    fn hcf_covers_everyone_per_round() {
        let mut token = Token::for_vms([0, 1, 2, 3, 4].map(VmId::new));
        let mut hcf = HighestCostFirst::paper_default();
        let mut holder = VmId::new(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            seen.insert(holder);
            let view = LocalView {
                vm: holder,
                server: ServerId::new(0),
                peers: vec![],
            };
            match hcf.next_holder(&mut token, holder, &view) {
                Some(next) => holder = next,
                None => break,
            }
        }
        assert_eq!(seen.len(), 5, "all VMs must hold the token: {seen:?}");
    }

    #[test]
    fn hcf_singleton_stops() {
        let mut token = Token::for_vms([VmId::new(3)]);
        let mut hcf = HighestCostFirst::paper_default();
        let view = LocalView {
            vm: VmId::new(3),
            server: ServerId::new(0),
            peers: vec![],
        };
        assert_eq!(hcf.next_holder(&mut token, VmId::new(3), &view), None);
    }

    #[test]
    fn an_id_keyed_tournament_serves_the_lowest_id_among_equal_maxima() {
        const ABSENT: f64 = MaxTournament::ABSENT;
        // Ids 0..10: members 1, 4, 6 and 9 are unchecked; 2 and 7 have
        // departed, 5 is checked and 0, 3 and 8 never joined, so all of
        // those (and the padding leaves 10..16) are absent.
        let mut t = MaxTournament::default();
        t.rebuild(10, [(1, 2.0), (4, 5.0), (6, 5.0), (9, 1.0)].into_iter());
        assert_eq!(t.cap, 16);
        assert!(t.is_present(4) && !t.is_present(5) && !t.is_present(12));
        assert!(!t.is_present(16) && !t.is_present(usize::MAX / 2));
        assert_eq!(t.best(), Some(4), "equal maxima go to the lowest id");
        // A re-keyed leaf replays its matches to the root, up and down.
        t.set(9, 7.0);
        assert_eq!((t.tree[1], t.best()), (7.0, Some(9)));
        t.set(9, ABSENT);
        assert_eq!((t.tree[1], t.best()), (5.0, Some(4)));
        t.set(4, ABSENT);
        assert_eq!(t.best(), Some(6), "past the absent 5");
        t.set(1, 5.0);
        assert_eq!(t.best(), Some(1), "a raised low id takes the tie");
        for leaf in [1, 6] {
            t.set(leaf, ABSENT);
        }
        assert_eq!((t.tree[1], t.best()), (ABSENT, None));

        // Random re-keys against a linear scan of the leaves.
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        let mut leaves = [ABSENT; 37];
        t.rebuild(leaves.len(), std::iter::empty());
        for _ in 0..2_000 {
            let r = rng.next();
            let leaf = (r % leaves.len() as u64) as usize;
            let key = [ABSENT, 0.0, 1.0, 3.0][(r >> 8) as usize % 4];
            leaves[leaf] = key;
            t.set(leaf, key);
            let max = leaves.iter().copied().fold(ABSENT, f64::max);
            let first = leaves.iter().position(|&k| k == max && k > ABSENT);
            assert_eq!((t.tree[1], t.best()), (max, first));
            assert_eq!(t.is_present(leaf), key > ABSENT);
        }
    }

    /// xorshift64: a seeded stream of random views.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Ids the cost-first tests draw members and peers from.
    const COST_IDS: u32 = 48;
    /// Few distinct rates (and four levels), so equal estimates are the
    /// norm and zero-cost pairs are common.
    const COST_RATES: [f64; 4] = [0.0, 1.0, 2.0, 5.0];

    /// A random post-decision view for `holder`: up to four peers out of
    /// [`COST_IDS`] (members or not) plus one id that never joins any
    /// token, whose estimate must not size anything.
    fn random_cost_view(rng: &mut XorShift, holder: VmId) -> LocalView {
        let r = rng.next();
        let mut peers: Vec<PeerInfo> = (0..(r >> 24) % 5)
            .map(|_| {
                let p = rng.next();
                let vm = VmId::new((p % u64::from(COST_IDS)) as u32);
                peer(
                    vm,
                    COST_RATES[(p >> 8) as usize % 4],
                    1,
                    Level::new((p >> 16) as u8 % 4),
                )
            })
            .filter(|p| p.vm != holder)
            .collect();
        peers.push(peer(
            VmId::new(u32::MAX),
            COST_RATES[(r >> 32) as usize % 4],
            1,
            Level::CORE,
        ));
        LocalView {
            vm: holder,
            server: ServerId::new(0),
            peers,
        }
    }

    #[test]
    fn fcf_under_reactive_outlook_equals_hcf_hop_for_hop() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut token_h = Token::for_vms((0..COST_IDS).map(VmId::new));
        let mut token_f = token_h.clone();
        let mut hcf = HighestCostFirst::paper_default();
        let mut fcf = ForecastCostFirst::paper_default();
        let mut holder = VmId::new(0);
        for step in 0..1000 {
            let view = random_cost_view(&mut rng, holder);
            let h = hcf.next_holder(&mut token_h, holder, &view);
            let f = fcf.next_holder(&mut token_f, holder, &view);
            assert_eq!(h, f, "divergence at step {step}");
            assert_eq!(token_h, token_f);
            for v in (0..COST_IDS).map(VmId::new) {
                assert_eq!(
                    hcf.core.estimate(v).to_bits(),
                    fcf.core.estimate(v).to_bits()
                );
            }
            holder = h.expect("more than one member");
        }
    }

    #[test]
    fn cost_first_estimates_are_bounded_by_the_token() {
        // A peer id far beyond any member (here the view helper's
        // `u32::MAX`) must not size the dense estimate vector.
        let mut token = Token::for_vms([0, 1, 2].map(VmId::new));
        let mut hcf = HighestCostFirst::paper_default();
        let v = view_with_level(VmId::new(0), Level::CORE, vec![(VmId::new(2), Level::CORE)]);
        assert_eq!(
            hcf.next_holder(&mut token, VmId::new(0), &v),
            Some(VmId::new(2))
        );
        assert_eq!(hcf.core.estimates.len(), 3);
        assert_eq!(hcf.core.estimate(VmId::new(u32::MAX)), 0.0);
    }
}
