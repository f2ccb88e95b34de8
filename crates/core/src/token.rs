//! The migration token (paper §V-A, §V-B2).
//!
//! "A token is a message formed as an array of entries … capable of
//! representing over 4 billion IDs before recycling, and an 8-bit
//! communication level. Entries are stored in ascending order by VM ID."
//!
//! That array of 5-byte entries (a 32-bit VM id plus one level byte) is
//! the wire form, so "the size of the message is of the order of the
//! number of VMs in the network". The simulator passes the token in
//! memory and prices each hop by [`Token::encoded_len`], the size of that
//! array; it has no byte codec. In memory the token keeps the ids in
//! ascending order and, apart from them, one level byte per VM id, so a
//! hold reads or raises a peer's level with one load into an array of
//! `id_span` bytes.

use score_topology::{Level, VmId};

/// The migration token: the members in ascending id order, each with its
/// last known highest communication level `l_v`.
///
/// # Examples
///
/// ```
/// use score_core::Token;
/// use score_topology::{Level, VmId};
///
/// let mut token = Token::for_vms((0..4).map(VmId::new));
/// token.raise_level(VmId::new(2), Level::CORE);
/// assert_eq!(token.level_of(VmId::new(2)), Some(Level::CORE));
/// assert_eq!(token.encoded_len(), 4 * Token::ENTRY_BYTES);
/// ```
#[derive(Debug, Clone)]
pub struct Token {
    /// The members, strictly ascending: token order, for successors,
    /// random picks and round restarts.
    ids: Vec<VmId>,
    /// The members' levels. While the ids are dense ([`Token::is_dense`])
    /// this is indexed by id, exactly `id_span()` long, with
    /// [`NOT_MEMBER`] for ids without an entry: the per-peer calls of a
    /// hold (`contains`, `level_of`, `set_level`, `raise_level`) touch
    /// one byte. A sparser token keeps one byte per member in `ids` order
    /// instead and finds a member by binary search. Membership changes
    /// keep the table in place: an append writes one byte, a removal
    /// clears one and trims the table to the new highest id.
    levels: Vec<u8>,
    /// Bumped by every membership change (`add_vm`/`remove_vm`), so
    /// policies keeping derived indexes over the members can detect
    /// churn they were not told about and rebuild. Not part of token
    /// identity.
    version: u64,
}

/// The level byte of an id without an entry in a by-id table. No level
/// a topology yields comes near it; writing it as a level panics.
const NOT_MEMBER: u8 = u8::MAX;

/// The density rule: `members` ids whose highest is `span - 1` carry a
/// by-id level table when it holds at most 32 slots a member, so no id
/// that [`Token::add_vm`] is given — `u32::MAX` included — can size a
/// table on its own. A `Session` mints ids densely and never reuses one,
/// so its token stays on the table until over 31 of every 32 VMs it ever
/// admitted have left.
fn dense(span: usize, members: usize) -> bool {
    span <= 32 * members + 64
}

/// `level` as a stored byte.
fn level_byte(level: Level) -> u8 {
    assert_ne!(level.get(), NOT_MEMBER, "level {NOT_MEMBER} is reserved");
    level.get()
}

impl PartialEq for Token {
    fn eq(&self, other: &Self) -> bool {
        // The ids fix the layout, so equal members give equal level bytes.
        self.ids == other.ids && self.levels == other.levels
    }
}

impl Eq for Token {}

impl Token {
    /// Bytes per entry on the wire: a 32-bit id plus an 8-bit level.
    pub const ENTRY_BYTES: usize = 5;

    /// Creates a token covering the given VMs with all levels initialised
    /// to zero ("the highest communication level is initialized at zero for
    /// all VMs", §V-A). Ids are deduplicated and sorted.
    pub fn for_vms<I: IntoIterator<Item = VmId>>(vms: I) -> Self {
        let mut ids: Vec<VmId> = vms.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let mut token = Token {
            levels: vec![0; ids.len()],
            ids,
            version: 0,
        };
        if token.is_dense() {
            token.unpack();
        }
        token
    }

    /// Membership-change counter: two reads returning the same value from
    /// the same `Token` instance guarantee no `add_vm`/`remove_vm`
    /// happened in between. Derived-index owners (e.g. the HLF policy)
    /// use this to detect churn without scanning the members.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// One past the highest tracked id (0 for an empty token): the length
    /// of any dense id-indexed table covering the members.
    pub(crate) fn id_span(&self) -> usize {
        self.ids.last().map_or(0, |id| id.index() + 1)
    }

    /// Whether the levels are kept by id (see [`dense`]).
    fn is_dense(&self) -> bool {
        dense(self.id_span(), self.ids.len())
    }

    /// How many of the lowest members are ids `0, 1, 2, …`: the prefix in
    /// which a member's rank is its id, so both layouts put its level in
    /// the same slot. An id is at least its rank, and once above it stays
    /// above, so bisection finds the prefix.
    fn settled(&self) -> usize {
        let (mut lo, mut hi) = (0, self.ids.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.ids[mid].index() == mid {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Turns one level a member, in `ids` order, into the by-id table,
    /// once the ids are dense. In place, highest rank first: a member's
    /// id is at least its rank, so no level is overwritten before it
    /// moves, and a rank's slot is cleared before any member lands on it.
    fn unpack(&mut self) {
        let settled = self.settled();
        self.levels.resize(self.id_span(), NOT_MEMBER);
        for rank in (settled..self.ids.len()).rev() {
            let level = std::mem::replace(&mut self.levels[rank], NOT_MEMBER);
            self.levels[self.ids[rank].index()] = level;
        }
    }

    /// Turns the by-id table into one level a member, in `ids` order, once
    /// the ids are sparse. In place, lowest rank first, for the same
    /// reason as [`Token::unpack`]. A member the table does not cover
    /// yet — the one just added — is at level 0.
    fn pack(&mut self) {
        let len = self.ids.len();
        if self.levels.len() < len {
            self.levels.resize(len, NOT_MEMBER);
        }
        for rank in self.settled()..len {
            self.levels[rank] = match self.levels.get(self.ids[rank].index()) {
                Some(&l) if l != NOT_MEMBER => l,
                _ => 0,
            };
        }
        self.levels.truncate(len);
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the token has no members.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The members, ascending by VM id.
    pub fn ids(&self) -> &[VmId] {
        &self.ids
    }

    /// The members and their levels, ascending by VM id.
    pub(crate) fn members(&self) -> impl Iterator<Item = (VmId, Level)> + '_ {
        let dense = self.is_dense();
        self.ids.iter().enumerate().map(move |(rank, &id)| {
            let slot = if dense { id.index() } else { rank };
            (id, Level::new(self.levels[slot]))
        })
    }

    /// The lowest VM id, `v0`.
    pub fn first(&self) -> Option<VmId> {
        self.ids.first().copied()
    }

    /// Where `vm`'s level byte is in `levels`, if it is a member.
    fn slot(&self, vm: VmId) -> Option<usize> {
        if self.is_dense() {
            let i = vm.index();
            self.levels
                .get(i)
                .is_some_and(|&l| l != NOT_MEMBER)
                .then_some(i)
        } else {
            self.ids.binary_search(&vm).ok()
        }
    }

    /// Panics unless the ids ascend strictly and the levels are in the
    /// layout the density rule picks: a dense token's table is exactly
    /// `id_span()` long, with a level at every member and [`NOT_MEMBER`]
    /// everywhere else; a sparse token has one level a member. Debug
    /// builds run it after every membership change.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_invariants(&self) {
        assert!(
            self.ids.windows(2).all(|w| w[0] < w[1]),
            "token ids must ascend strictly"
        );
        if !self.is_dense() {
            assert_eq!(self.levels.len(), self.ids.len(), "one level a member");
            assert!(
                !self.levels.contains(&NOT_MEMBER),
                "a member without a level"
            );
            return;
        }
        assert_eq!(self.levels.len(), self.id_span(), "table length");
        let mut members = self.ids.iter().peekable();
        for (id, &level) in self.levels.iter().enumerate() {
            match members.next_if(|m| m.index() == id) {
                Some(_) => assert_ne!(level, NOT_MEMBER, "level of member {id}"),
                None => assert_eq!(level, NOT_MEMBER, "level of non-member {id}"),
            }
        }
    }

    /// True if the token tracks `vm`.
    pub fn contains(&self, vm: VmId) -> bool {
        self.slot(vm).is_some()
    }

    /// The stored level `l_v` for a VM.
    pub fn level_of(&self, vm: VmId) -> Option<Level> {
        self.slot(vm).map(|i| Level::new(self.levels[i]))
    }

    /// Overwrites the stored level of a VM (used for the holder's own
    /// entry, which is always refreshed). Returns `false` for unknown VMs.
    pub fn set_level(&mut self, vm: VmId, level: Level) -> bool {
        match self.slot(vm) {
            Some(i) => {
                self.levels[i] = level_byte(level);
                true
            }
            None => false,
        }
    }

    /// Raises the stored level of a VM if `level` is greater (the peer
    /// update rule of Algorithm 1: "this update takes place only if the
    /// existing estimation is smaller"). Returns `true` if the entry
    /// changed.
    pub fn raise_level(&mut self, vm: VmId, level: Level) -> bool {
        match self.slot(vm) {
            Some(i) if self.levels[i] < level.get() => {
                self.levels[i] = level_byte(level);
                true
            }
            _ => false,
        }
    }

    /// The cyclic successor of `vm` in ascending id order (round-robin:
    /// "starting from the VM with lowest ID … there is no other VM x such
    /// that ID_u > ID_x > ID_v"). Works whether or not `vm` itself is
    /// tracked. Returns `None` on an empty token; returns `vm` itself only
    /// when it is the sole entry.
    pub fn next_after(&self, vm: VmId) -> Option<VmId> {
        let above = self.ids.partition_point(|&id| id <= vm);
        self.ids.get(above).or(self.ids.first()).copied()
    }

    /// Adds a VM (level 0). Returns `false` if it was already present.
    /// Supports VM arrivals between iterations. An id above every member
    /// — what a placement manager minting ascending ids always sends —
    /// costs O(1) past the search; one below costs the memmove of the ids
    /// after it.
    pub fn add_vm(&mut self, vm: VmId) -> bool {
        let Err(i) = self.ids.binary_search(&vm) else {
            return false;
        };
        let was_dense = self.is_dense();
        self.ids.insert(i, vm);
        self.version += 1;
        match (was_dense, self.is_dense()) {
            (true, true) => {
                // Only an append grows the span.
                self.levels.resize(self.id_span(), NOT_MEMBER);
                self.levels[vm.index()] = 0;
            }
            (true, false) => self.pack(),
            (false, dense) => {
                self.levels.insert(i, 0);
                if dense {
                    self.unpack();
                }
            }
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
        true
    }

    /// Removes a VM. Returns `false` if it was not present. Supports VM
    /// departures between iterations. Costs the memmove of the ids after
    /// it.
    pub fn remove_vm(&mut self, vm: VmId) -> bool {
        let Ok(i) = self.ids.binary_search(&vm) else {
            return false;
        };
        let was_dense = self.is_dense();
        self.ids.remove(i);
        self.version += 1;
        if was_dense {
            self.levels[vm.index()] = NOT_MEMBER;
            if self.is_dense() {
                // Only removing the highest id shrinks the span.
                self.levels.truncate(self.id_span());
            } else {
                self.pack();
            }
        } else {
            self.levels.remove(i);
            if self.is_dense() {
                self.unpack();
            }
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
        true
    }

    /// Size in bytes of the token as the paper sends it:
    /// [`Token::ENTRY_BYTES`] an entry.
    pub fn encoded_len(&self) -> usize {
        self.ids.len() * Self::ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token() -> Token {
        Token::for_vms([3, 1, 7, 1, 5].map(VmId::new))
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let t = token();
        assert_eq!(t.len(), 4);
        let ids: Vec<u32> = t.ids().iter().map(|id| id.get()).collect();
        assert_eq!(ids, vec![1, 3, 5, 7]);
        assert!(t.members().all(|(_, level)| level == Level::ZERO));
        assert_eq!(t.first(), Some(VmId::new(1)));
    }

    #[test]
    fn level_updates() {
        let mut t = token();
        assert!(t.set_level(VmId::new(3), Level::AGGREGATION));
        assert_eq!(t.level_of(VmId::new(3)), Some(Level::AGGREGATION));
        // raise only goes up
        assert!(!t.raise_level(VmId::new(3), Level::RACK));
        assert_eq!(t.level_of(VmId::new(3)), Some(Level::AGGREGATION));
        assert!(t.raise_level(VmId::new(3), Level::CORE));
        assert_eq!(t.level_of(VmId::new(3)), Some(Level::CORE));
        // unknown VM
        assert!(!t.set_level(VmId::new(99), Level::RACK));
        assert_eq!(t.level_of(VmId::new(99)), None);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn the_non_member_byte_is_no_level() {
        // Stored, it would read back as "not a member".
        token().set_level(VmId::new(3), Level::new(u8::MAX));
    }

    #[test]
    fn round_robin_successor() {
        let t = token();
        assert_eq!(t.next_after(VmId::new(1)), Some(VmId::new(3)));
        assert_eq!(t.next_after(VmId::new(7)), Some(VmId::new(1))); // wraps
                                                                    // For ids not in the token, the next higher tracked id is chosen.
        assert_eq!(t.next_after(VmId::new(4)), Some(VmId::new(5)));
        assert_eq!(t.next_after(VmId::new(100)), Some(VmId::new(1)));
        assert_eq!(Token::for_vms([]).next_after(VmId::new(0)), None);
        let solo = Token::for_vms([VmId::new(9)]);
        assert_eq!(solo.next_after(VmId::new(9)), Some(VmId::new(9)));
    }

    #[test]
    fn membership_changes() {
        let mut t = token();
        assert!(t.add_vm(VmId::new(4)));
        assert!(!t.add_vm(VmId::new(4)));
        assert_eq!(t.next_after(VmId::new(3)), Some(VmId::new(4)));
        assert!(t.remove_vm(VmId::new(4)));
        assert!(!t.remove_vm(VmId::new(4)));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn lookups_fall_back_without_pos_map() {
        // One far id makes the token sparse: it keeps one level a member,
        // and every lookup must still work (via binary search).
        let far = VmId::new(10_000);
        let mut t = Token::for_vms([3, 1, 7, 5].map(VmId::new).into_iter().chain([far]));
        assert!(!t.is_dense() && t.levels.len() == 5);
        assert_eq!(t.level_of(VmId::new(3)), Some(Level::ZERO));
        assert!(t.set_level(VmId::new(5), Level::CORE));
        assert_eq!(t.level_of(VmId::new(5)), Some(Level::CORE));
        assert!(t.raise_level(far, Level::RACK));
        assert!(!t.raise_level(far, Level::ZERO));
        assert_eq!(t.level_of(far), Some(Level::RACK));
        assert_eq!(t.next_after(far), Some(VmId::new(1)));
        assert_eq!(t.next_after(VmId::new(7)), Some(far));
        assert!(!t.contains(VmId::new(2)) && !t.contains(VmId::new(4)));
        assert!(!t.set_level(VmId::new(2), Level::RACK));
        assert_eq!(t.level_of(VmId::new(2)), None);
        // A membership change that stays sparse keeps one level a member.
        assert!(t.add_vm(VmId::new(2)));
        assert_eq!(t.levels.len(), 6);
        assert_eq!(t.next_after(VmId::new(1)), Some(VmId::new(2)));
        assert_eq!(t.level_of(VmId::new(5)), Some(Level::CORE));
        t.check_invariants();
    }

    /// `contains`/`level_of`/`next_after` of a one-entry token whose only
    /// id is `u32::MAX`, added without a table sized by that id.
    fn assert_lone_max_id(t: &Token) {
        let max = VmId::new(u32::MAX);
        assert!(!t.is_dense() && t.levels.len() == 1 && t.levels.capacity() < 64);
        t.check_invariants();
        assert!(t.contains(max) && !t.contains(VmId::new(0)));
        assert_eq!(t.level_of(max), Some(Level::new(3)));
        assert_eq!(t.level_of(VmId::new(7)), None);
        assert_eq!(t.next_after(VmId::new(7)), Some(max));
        assert_eq!(t.next_after(max), Some(max));
    }

    #[test]
    fn an_id_of_u32_max_sizes_no_table() {
        // This asked the allocator for 16 GiB and aborted.
        let mut t = Token::for_vms([]);
        assert!(t.add_vm(VmId::new(u32::MAX)));
        assert!(t.set_level(VmId::new(u32::MAX), Level::new(3)));
        assert_lone_max_id(&t);
    }

    #[test]
    fn a_dense_token_regains_its_map_when_the_sparse_id_leaves() {
        let mut t = Token::for_vms((0..100).map(VmId::new));
        assert!(t.is_dense() && t.levels.len() == 100);
        // 100 members carry at most 32 · 100 + 64 slots.
        let far = VmId::new(32 * 101 + 64);
        assert!(t.add_vm(far));
        assert!(!t.is_dense(), "one far id drops the map");
        assert_eq!(t.levels.len(), 101, "one level a member");
        assert_eq!(t.next_after(VmId::new(99)), Some(far));
        assert!(t.raise_level(VmId::new(42), Level::CORE));
        assert!(t.remove_vm(far));
        assert!(t.is_dense(), "and its departure restores it");
        assert_eq!(t.levels.len(), 100);
        assert_eq!(t.level_of(VmId::new(42)), Some(Level::CORE));
        // The last id still inside the rule keeps the map.
        assert!(t.add_vm(VmId::new(32 * 101 + 63)));
        assert!(t.is_dense() && t.levels.len() == 32 * 101 + 64);
        assert_eq!(t.level_of(VmId::new(42)), Some(Level::CORE));
        assert_eq!(t.level_of(VmId::new(32 * 101 + 63)), Some(Level::ZERO));
        t.check_invariants();
    }

    /// One step of the model test below.
    #[derive(Debug, Clone)]
    enum Op {
        Add(u32),
        Remove(u32),
        Raise(u32, u8),
        Set(u32, u8),
        Fail(Vec<u32>),
    }

    /// Ids near zero keep a token dense; the occasional id up to 100k
    /// pushes it over the density rule and back.
    fn any_id() -> impl proptest::Strategy<Value = u32> {
        proptest::prop_oneof![0u32..64, 0u32..64, 0u32..3_000, 0u32..100_000]
    }

    fn any_op() -> impl proptest::Strategy<Value = Op> {
        use proptest::Strategy as _;
        proptest::prop_oneof![
            any_id().prop_map(Op::Add),
            any_id().prop_map(Op::Add),
            any_id().prop_map(Op::Remove),
            (any_id(), 0u8..5).prop_map(|(id, l)| Op::Raise(id, l)),
            (any_id(), 0u8..5).prop_map(|(id, l)| Op::Set(id, l)),
            proptest::prop::collection::vec(any_id(), 0..6).prop_map(Op::Fail),
        ]
    }

    /// The member an op aimed at `id` lands on: the first at or above
    /// it, so removals and level writes hit far more often than random
    /// ids in a 100k span would.
    fn aim(model: &std::collections::BTreeMap<u32, u8>, id: u32) -> u32 {
        model.range(id..).next().map_or(id, |(&k, _)| k)
    }

    proptest::proptest! {
        /// `Token` (and the token inside a `TokenRing`, which only sees
        /// the membership ops) against a `BTreeMap<id, level>`, over id
        /// spans wide enough to cross the density rule both ways (62 of
        /// the 64 default cases do): after every op the invariants hold
        /// and members, lookups, successor and size are the model's.
        #[test]
        fn token_matches_a_btreemap_model(
            start in 0u32..80,
            ops in proptest::prop::collection::vec(any_op(), 1..120),
            probes in proptest::prop::collection::vec(any_id(), 8),
        ) {
            use crate::{RoundRobin, ScoreEngine, TokenRing};
            use std::collections::BTreeMap;
            let mut model: BTreeMap<u32, u8> = (0..start).map(|id| (id, 0)).collect();
            let mut t = Token::for_vms((0..start).map(VmId::new));
            let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), start);
            for op in ops {
                let version = t.version();
                let changes = match op {
                    Op::Add(id) => {
                        let new = model.insert(id, 0).is_none();
                        if !new {
                            // `add_vm` of a member leaves its level alone.
                            model.insert(id, t.level_of(VmId::new(id)).unwrap().get());
                        }
                        proptest::prop_assert_eq!(t.add_vm(VmId::new(id)), new);
                        proptest::prop_assert_eq!(ring.add_vm(VmId::new(id)), new);
                        u64::from(new)
                    }
                    Op::Remove(id) => {
                        let id = aim(&model, id);
                        let was = model.remove(&id).is_some();
                        proptest::prop_assert_eq!(t.remove_vm(VmId::new(id)), was);
                        proptest::prop_assert_eq!(ring.remove_vm(VmId::new(id)), was);
                        u64::from(was)
                    }
                    Op::Raise(id, level) => {
                        let id = aim(&model, id);
                        let raised = model.get_mut(&id).is_some_and(|l| {
                            let up = *l < level;
                            *l = (*l).max(level);
                            up
                        });
                        proptest::prop_assert_eq!(
                            t.raise_level(VmId::new(id), Level::new(level)),
                            raised
                        );
                        0
                    }
                    Op::Set(id, level) => {
                        let id = aim(&model, id);
                        let known = model.get_mut(&id).map(|l| *l = level).is_some();
                        proptest::prop_assert_eq!(
                            t.set_level(VmId::new(id), Level::new(level)),
                            known
                        );
                        0
                    }
                    Op::Fail(ids) => {
                        let dead: Vec<VmId> =
                            ids.iter().map(|&id| VmId::new(aim(&model, id))).collect();
                        let mut gone = 0;
                        for vm in &dead {
                            if model.remove(&vm.get()).is_some() {
                                gone += 1;
                                proptest::prop_assert!(t.remove_vm(*vm));
                            }
                        }
                        ring.fail_vms(&dead);
                        gone
                    }
                };
                proptest::prop_assert_eq!(t.version(), version + changes);
                t.check_invariants();
                ring.token().check_invariants();

                let ids: Vec<u32> = model.keys().copied().collect();
                let got: Vec<(u32, u8)> =
                    t.members().map(|(id, level)| (id.get(), level.get())).collect();
                let want: Vec<(u32, u8)> = model.iter().map(|(&k, &l)| (k, l)).collect();
                proptest::prop_assert_eq!(got, want);
                let ring_ids: Vec<u32> =
                    ring.token().ids().iter().map(|id| id.get()).collect();
                proptest::prop_assert_eq!(&ring_ids, &ids);
                match ring.holder() {
                    Some(h) => proptest::prop_assert!(model.contains_key(&h.get())),
                    None => proptest::prop_assert!(model.is_empty()),
                }
                proptest::prop_assert_eq!(t.encoded_len(), Token::ENTRY_BYTES * model.len());
                for &probe in probes.iter().chain(ids.iter().take(4)) {
                    let vm = VmId::new(probe);
                    proptest::prop_assert_eq!(
                        t.level_of(vm).map(Level::get),
                        model.get(&probe).copied()
                    );
                    let next = model
                        .range(probe + 1..)
                        .next()
                        .or_else(|| model.iter().next())
                        .map(|(&k, _)| VmId::new(k));
                    proptest::prop_assert_eq!(t.next_after(vm), next);
                    proptest::prop_assert_eq!(ring.token().next_after(vm), next);
                }
            }
        }

        /// Any `add_vm`/`remove_vm`/`raise_level` sequence — through gaps,
        /// new highest ids, removal of the highest id, emptying, and far
        /// ids that cross the density rule both ways — bumps the version
        /// once per real membership change and leaves the level bytes
        /// exactly what a from-scratch build of the same members and
        /// levels gives (the contract the in-place upkeep keeps).
        #[test]
        fn membership_changes_keep_the_position_map_exact(
            // A narrow id span empties the token over and over.
            span in 1u32..40,
            start in proptest::prop::collection::vec(0u32..40, 0..12),
            ops in proptest::prop::collection::vec((0u8..3, 0u32..40, 0u8..8), 1..200),
        ) {
            let mut t = Token::for_vms(start.into_iter().map(|id| VmId::new(id % span)));
            for (op, id, far) in ops {
                // One op in eight names an id far beyond 32 a member.
                let vm = VmId::new(if far == 0 { 4_000 + id } else { id % span });
                let version = t.version();
                let changed = match op {
                    0 => t.remove_vm(vm),
                    1 => t.add_vm(vm),
                    _ => {
                        t.raise_level(vm, Level::new((id % 4) as u8));
                        false
                    }
                };
                proptest::prop_assert_eq!(t.version(), version + u64::from(changed));
                if op < 2 {
                    proptest::prop_assert_eq!(t.contains(vm), op == 1);
                }
                let mut rebuilt = Token::for_vms(t.ids().iter().copied());
                for (member, level) in t.members() {
                    rebuilt.set_level(member, level);
                }
                proptest::prop_assert_eq!(&t.levels, &rebuilt.levels);
                t.check_invariants();
            }
        }
    }
}
