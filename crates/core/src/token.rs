//! The migration token (paper §V-A, §V-B2).
//!
//! "A token is a message formed as an array of entries … capable of
//! representing over 4 billion IDs before recycling, and an 8-bit
//! communication level. Entries are stored in ascending order by VM ID."
//!
//! The wire format packs each entry as a big-endian `u32` VM id followed by
//! one level byte (5 bytes per VM), so "the size of the message is of the
//! order of the number of VMs in the network".

use score_topology::{Level, VmId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One token entry: a VM id and its last known highest communication level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenEntry {
    /// The VM this entry describes.
    pub id: VmId,
    /// Last recorded highest communication level `l_v` (0 initially).
    pub level: Level,
}

/// Error decoding a token from bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenCodecError {
    /// The byte length is not a multiple of the 5-byte entry size.
    BadLength {
        /// Received length in bytes.
        len: usize,
    },
    /// Entries were not in strictly ascending VM-id order.
    NotSorted {
        /// Index of the first out-of-order entry.
        index: usize,
    },
}

impl fmt::Display for TokenCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenCodecError::BadLength { len } => {
                write!(
                    f,
                    "token length {len} is not a multiple of {} bytes",
                    Token::ENTRY_BYTES
                )
            }
            TokenCodecError::NotSorted { index } => {
                write!(f, "token entry {index} is not in ascending VM-id order")
            }
        }
    }
}

impl std::error::Error for TokenCodecError {}

/// The migration token: an ordered array of `(VM id, level)` entries.
///
/// # Examples
///
/// ```
/// use score_core::Token;
/// use score_topology::{Level, VmId};
///
/// let mut token = Token::for_vms((0..4).map(VmId::new));
/// token.raise_level(VmId::new(2), Level::CORE);
/// let bytes = token.encode();
/// assert_eq!(bytes.len(), 4 * Token::ENTRY_BYTES);
/// let decoded = Token::decode(&bytes).unwrap();
/// assert_eq!(decoded.level_of(VmId::new(2)), Some(Level::CORE));
/// ```
#[derive(Debug, Clone)]
pub struct Token {
    entries: Vec<TokenEntry>,
    /// Direct map from VM id to entry index ([`NO_POS`] for untracked
    /// ids), so the per-step entry lookups (`set_level`, `raise_level`,
    /// `level_of`, `next_after`) are O(1) instead of binary searches.
    /// Kept only while the ids are dense ([`Token::is_dense`]), and then
    /// exactly `id_span()` long; a sparser token leaves it empty and
    /// lookups fall back to binary search. Membership changes maintain
    /// it in place: an append writes one slot, an interior change
    /// renumbers the entries after it — never a pass over the id span.
    pos: Vec<u32>,
    /// Bumped by every membership change (`add_vm`/`remove_vm`), so
    /// policies keeping derived indexes over the entries can detect
    /// churn they were not told about and rebuild. Not part of token
    /// identity or the wire format.
    version: u64,
}

/// Sentinel in [`Token::pos`] for ids without an entry.
const NO_POS: u32 = u32::MAX;

// Manual impls so the derived wire shape stays exactly what the
// entries-only struct produced — the position map is derived state and
// must not leak into persisted tokens.
impl Serialize for Token {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![("entries".to_string(), self.entries.to_value())])
    }
}

impl Deserialize for Token {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries = v
            .get("entries")
            .ok_or_else(|| serde::Error::custom("Token: missing field `entries`"))?;
        let mut token = Token {
            entries: Vec::<TokenEntry>::from_value(entries)?,
            pos: Vec::new(),
            version: 0,
        };
        token.rebuild_pos();
        Ok(token)
    }
}

impl PartialEq for Token {
    fn eq(&self, other: &Self) -> bool {
        // The position map is derived state; token identity is the entries.
        self.entries == other.entries
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
            entries: ids
                .into_iter()
                .map(|id| TokenEntry {
                    id,
                    level: Level::ZERO,
                })
                .collect(),
            pos: Vec::new(),
            version: 0,
        };
        token.rebuild_pos();
        token
    }

    /// Membership-change counter: two reads returning the same value from
    /// the same `Token` instance guarantee no `add_vm`/`remove_vm`
    /// happened in between. Derived-index owners (e.g. the HLF policy)
    /// use this to detect churn without scanning the entries.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// One past the highest tracked id (0 for an empty token): the length
    /// of any dense id-indexed table covering the members.
    pub(crate) fn id_span(&self) -> usize {
        self.entries.last().map_or(0, |e| e.id.index() + 1)
    }

    /// Whether the members are dense enough in their id span to carry
    /// the position map: at most 32 slots (4 bytes each) a member, so no
    /// id — `u32::MAX` arriving in a decoded token included — can size a
    /// table on its own. A `Session` mints ids densely and never reuses
    /// one, so its token stays on the map until over 31 of every 32 VMs
    /// it ever admitted have left.
    fn is_dense(&self) -> bool {
        self.id_span() <= 32 * self.entries.len() + 64
    }

    /// Rebuilds the id→index map from the (sorted) entries; a sparse
    /// token gets none (and gives back the one it outgrew).
    fn rebuild_pos(&mut self) {
        if !self.is_dense() {
            self.pos = Vec::new();
            return;
        }
        self.pos.clear();
        self.pos.resize(self.id_span(), NO_POS);
        for (i, e) in self.entries.iter().enumerate() {
            self.pos[e.id.index()] = i as u32;
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the token has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, ascending by VM id.
    pub fn entries(&self) -> &[TokenEntry] {
        &self.entries
    }

    /// The lowest VM id, `v0`.
    pub fn first(&self) -> Option<VmId> {
        self.entries.first().map(|e| e.id)
    }

    fn position(&self, vm: VmId) -> Result<usize, usize> {
        if !self.pos_is_valid() {
            return self.entries.binary_search_by_key(&vm, |e| e.id);
        }
        match self.pos.get(vm.index()).copied() {
            Some(i) if i != NO_POS => Ok(i as usize),
            // Untracked id: callers still need the insertion index.
            _ => Err(self.entries.partition_point(|e| e.id < vm)),
        }
    }

    /// The map is valid only when sized to cover exactly the highest id
    /// (a sparse token keeps it empty).
    fn pos_is_valid(&self) -> bool {
        self.pos.len() == self.id_span()
    }

    /// Panics unless the entries ascend strictly and the position map is
    /// either absent (a sparse token) or exact: `id_span()` long, every
    /// member's slot its index and every other slot [`NO_POS`]. Debug
    /// builds run it after every membership change.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_invariants(&self) {
        assert!(
            self.entries.windows(2).all(|w| w[0].id < w[1].id),
            "token entries must ascend strictly by id"
        );
        if self.pos.is_empty() {
            assert!(
                self.entries.is_empty() || !self.is_dense(),
                "a dense token must carry its position map"
            );
            return;
        }
        assert!(self.is_dense(), "a sparse token must not carry a map");
        assert_eq!(self.pos.len(), self.id_span(), "map length");
        let mut members = self.entries.iter().enumerate().peekable();
        for (id, &slot) in self.pos.iter().enumerate() {
            match members.next_if(|(_, e)| e.id.index() == id) {
                Some((i, _)) => assert_eq!(slot, i as u32, "slot of member {id}"),
                None => assert_eq!(slot, NO_POS, "slot of non-member {id}"),
            }
        }
    }

    /// True if the token tracks `vm`.
    pub fn contains(&self, vm: VmId) -> bool {
        self.position(vm).is_ok()
    }

    /// Index of `vm`'s entry in [`Token::entries`], for policies that
    /// key derived state by token position.
    pub(crate) fn index_of(&self, vm: VmId) -> Option<usize> {
        self.position(vm).ok()
    }

    /// The stored level `l_v` for a VM.
    pub fn level_of(&self, vm: VmId) -> Option<Level> {
        self.position(vm).ok().map(|i| self.entries[i].level)
    }

    /// Overwrites the stored level of a VM (used for the holder's own
    /// entry, which is always refreshed). Returns `false` for unknown VMs.
    pub fn set_level(&mut self, vm: VmId, level: Level) -> bool {
        match self.position(vm) {
            Ok(i) => {
                self.entries[i].level = level;
                true
            }
            Err(_) => false,
        }
    }

    /// Raises the stored level of a VM if `level` is greater (the peer
    /// update rule of Algorithm 1: "this update takes place only if the
    /// existing estimation is smaller"). Returns `true` if the entry
    /// changed.
    pub fn raise_level(&mut self, vm: VmId, level: Level) -> bool {
        match self.position(vm) {
            Ok(i) if self.entries[i].level < level => {
                self.entries[i].level = level;
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
        if self.entries.is_empty() {
            return None;
        }
        let idx = match self.position(vm) {
            Ok(i) => (i + 1) % self.entries.len(),
            Err(i) => i % self.entries.len(),
        };
        Some(self.entries[idx].id)
    }

    /// Adds a VM (level 0). Returns `false` if it was already present.
    /// Supports VM arrivals between iterations. An id above every member
    /// — what a placement manager minting ascending ids always sends —
    /// costs O(1); one below costs the entries after it.
    pub fn add_vm(&mut self, vm: VmId) -> bool {
        let Err(i) = self.position(vm) else {
            return false;
        };
        let mapped = self.pos_is_valid();
        self.entries.insert(
            i,
            TokenEntry {
                id: vm,
                level: Level::ZERO,
            },
        );
        self.version += 1;
        if mapped && self.is_dense() {
            for e in &self.entries[i + 1..] {
                self.pos[e.id.index()] += 1;
            }
            // Only an append grows the span.
            self.pos.resize(self.id_span(), NO_POS);
            self.pos[vm.index()] = i as u32;
        } else {
            // The token changed sides of the density rule, or stays sparse.
            self.rebuild_pos();
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
        true
    }

    /// Removes a VM. Returns `false` if it was not present. Supports VM
    /// departures between iterations. Costs the entries after it.
    pub fn remove_vm(&mut self, vm: VmId) -> bool {
        let Ok(i) = self.position(vm) else {
            return false;
        };
        let mapped = self.pos_is_valid();
        self.entries.remove(i);
        self.version += 1;
        if mapped && self.is_dense() {
            for e in &self.entries[i..] {
                self.pos[e.id.index()] -= 1;
            }
            self.pos[vm.index()] = NO_POS;
            // Only removing the highest id shrinks the span.
            self.pos.truncate(self.id_span());
        } else {
            self.rebuild_pos();
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
        true
    }

    /// Serialises the token to its 5-byte-per-entry wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        for e in &self.entries {
            buf.extend_from_slice(&e.id.get().to_be_bytes());
            buf.push(e.level.get());
        }
        buf
    }

    /// Parses a token from its wire format.
    ///
    /// # Errors
    ///
    /// Returns [`TokenCodecError`] if the length is not a multiple of the
    /// entry size or entries are not strictly ascending by id.
    pub fn decode(bytes: &[u8]) -> Result<Self, TokenCodecError> {
        if !bytes.len().is_multiple_of(Self::ENTRY_BYTES) {
            return Err(TokenCodecError::BadLength { len: bytes.len() });
        }
        let mut entries = Vec::with_capacity(bytes.len() / Self::ENTRY_BYTES);
        let mut prev: Option<u32> = None;
        for (index, entry) in bytes.chunks_exact(Self::ENTRY_BYTES).enumerate() {
            let id = u32::from_be_bytes([entry[0], entry[1], entry[2], entry[3]]);
            let level = entry[4];
            if let Some(p) = prev {
                if id <= p {
                    return Err(TokenCodecError::NotSorted { index });
                }
            }
            prev = Some(id);
            entries.push(TokenEntry {
                id: VmId::new(id),
                level: Level::new(level),
            });
        }
        let mut token = Token {
            entries,
            pos: Vec::new(),
            version: 0,
        };
        token.rebuild_pos();
        Ok(token)
    }

    /// Wire size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.entries.len() * Self::ENTRY_BYTES
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
        let ids: Vec<u32> = t.entries().iter().map(|e| e.id.get()).collect();
        assert_eq!(ids, vec![1, 3, 5, 7]);
        assert!(t.entries().iter().all(|e| e.level == Level::ZERO));
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
    fn encode_decode_roundtrip() {
        let mut t = token();
        t.set_level(VmId::new(5), Level::CORE);
        let bytes = t.encode();
        assert_eq!(bytes.len(), t.encoded_len());
        assert_eq!(bytes.len(), 4 * Token::ENTRY_BYTES);
        let decoded = Token::decode(&bytes).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn wire_format_layout() {
        let mut t = Token::for_vms([VmId::new(0x01020304)]);
        t.set_level(VmId::new(0x01020304), Level::new(9));
        let bytes = t.encode();
        assert_eq!(&bytes[..], &[0x01, 0x02, 0x03, 0x04, 9]);
    }

    #[test]
    fn decode_rejects_bad_length() {
        assert_eq!(
            Token::decode(&[0, 0, 0]),
            Err(TokenCodecError::BadLength { len: 3 })
        );
    }

    #[test]
    fn decode_rejects_unsorted() {
        // two entries: id 2 then id 1
        let bytes = [0, 0, 0, 2, 0, 0, 0, 0, 1, 0];
        assert_eq!(
            Token::decode(&bytes),
            Err(TokenCodecError::NotSorted { index: 1 })
        );
        // duplicate ids are also rejected
        let dup = [0, 0, 0, 2, 0, 0, 0, 0, 2, 0];
        assert_eq!(
            Token::decode(&dup),
            Err(TokenCodecError::NotSorted { index: 1 })
        );
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
        // A sparse token carries no position map; every lookup must still
        // work (via binary search).
        let mut t = token();
        t.pos.clear();
        assert_eq!(t.level_of(VmId::new(3)), Some(Level::ZERO));
        assert!(t.set_level(VmId::new(5), Level::CORE));
        assert_eq!(t.level_of(VmId::new(5)), Some(Level::CORE));
        assert_eq!(t.next_after(VmId::new(7)), Some(VmId::new(1)));
        assert!(!t.contains(VmId::new(2)));
        // A membership change rebuilds the map.
        assert!(t.add_vm(VmId::new(2)));
        assert_eq!(t.pos.len(), 8);
        assert_eq!(t.next_after(VmId::new(1)), Some(VmId::new(2)));
        assert_eq!(t.level_of(VmId::new(5)), Some(Level::CORE));
    }

    /// `contains`/`level_of`/`next_after` of a one-entry token whose only
    /// id is `u32::MAX`, decoded without a table sized by that id.
    fn assert_lone_max_id(t: &Token) {
        let max = VmId::new(u32::MAX);
        assert!(t.pos.is_empty() && t.pos.capacity() == 0);
        t.check_invariants();
        assert!(t.contains(max) && !t.contains(VmId::new(0)));
        assert_eq!(t.level_of(max), Some(Level::new(3)));
        assert_eq!(t.level_of(VmId::new(7)), None);
        assert_eq!(t.next_after(VmId::new(7)), Some(max));
        assert_eq!(t.next_after(max), Some(max));
    }

    #[test]
    fn an_id_of_u32_max_sizes_no_table() {
        // Each of these asked the allocator for 16 GiB and aborted.
        assert_lone_max_id(&Token::decode(&[0xff, 0xff, 0xff, 0xff, 0x03]).unwrap());
        let entry = serde::Value::Object(vec![
            ("id".to_string(), serde::Value::Int(i128::from(u32::MAX))),
            ("level".to_string(), serde::Value::Int(3)),
        ]);
        let doc = serde::Value::Object(vec![(
            "entries".to_string(),
            serde::Value::Array(vec![entry]),
        )]);
        assert_lone_max_id(&Token::from_value(&doc).unwrap());
        let mut t = Token::for_vms([]);
        assert!(t.add_vm(VmId::new(u32::MAX)));
        assert!(t.set_level(VmId::new(u32::MAX), Level::new(3)));
        assert_lone_max_id(&t);
    }

    #[test]
    fn a_dense_token_regains_its_map_when_the_sparse_id_leaves() {
        let mut t = Token::for_vms((0..100).map(VmId::new));
        assert_eq!(t.pos.len(), 100);
        // 100 members carry at most 32 · 100 + 64 slots.
        let far = VmId::new(32 * 101 + 64);
        assert!(t.add_vm(far));
        assert!(t.pos.is_empty(), "one far id drops the map");
        assert_eq!(t.next_after(VmId::new(99)), Some(far));
        assert!(t.raise_level(VmId::new(42), Level::CORE));
        assert!(t.remove_vm(far));
        assert_eq!(t.pos.len(), 100, "and its departure restores it");
        assert_eq!(t.level_of(VmId::new(42)), Some(Level::CORE));
        // The last id still inside the rule keeps the map.
        assert!(t.add_vm(VmId::new(32 * 101 + 63)));
        assert_eq!(t.pos.len(), 32 * 101 + 64);
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
        /// and entries, lookups, successor and wire bytes are the model's.
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
                    t.entries().iter().map(|e| (e.id.get(), e.level.get())).collect();
                let want: Vec<(u32, u8)> = model.iter().map(|(&k, &l)| (k, l)).collect();
                proptest::prop_assert_eq!(got, want);
                let ring_ids: Vec<u32> =
                    ring.token().entries().iter().map(|e| e.id.get()).collect();
                proptest::prop_assert_eq!(&ring_ids, &ids);
                match ring.holder() {
                    Some(h) => proptest::prop_assert!(model.contains_key(&h.get())),
                    None => proptest::prop_assert!(model.is_empty()),
                }
                let wire: Vec<u8> = model
                    .iter()
                    .flat_map(|(&k, &l)| k.to_be_bytes().into_iter().chain([l]))
                    .collect();
                proptest::prop_assert_eq!(&t.encode()[..], &wire[..]);
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

        /// Any `add_vm`/`remove_vm` sequence — through gaps, new highest
        /// ids, removal of the highest id and emptying — bumps the
        /// version once per real change and leaves the position map
        /// exactly what a from-scratch rebuild gives (the contract the
        /// incremental update of the map keeps).
        #[test]
        fn membership_changes_keep_the_position_map_exact(
            // A narrow id span empties the token over and over.
            span in 1u32..40,
            start in proptest::prop::collection::vec(0u32..40, 0..12),
            ops in proptest::prop::collection::vec((0u8..2, 0u32..40), 1..200),
        ) {
            let mut t = Token::for_vms(start.into_iter().map(|id| VmId::new(id % span)));
            for (add, id) in ops {
                let vm = VmId::new(id % span);
                let version = t.version();
                let add = add == 1;
                let changed = if add { t.add_vm(vm) } else { t.remove_vm(vm) };
                proptest::prop_assert_eq!(t.version(), version + u64::from(changed));
                proptest::prop_assert_eq!(t.contains(vm), add);
                let mut rebuilt = t.clone();
                rebuilt.rebuild_pos();
                proptest::prop_assert_eq!(&t.pos, &rebuilt.pos);
                proptest::prop_assert!(t.entries.windows(2).all(|w| w[0].id < w[1].id));
            }
        }
    }

    #[test]
    fn codec_error_display() {
        assert!(TokenCodecError::BadLength { len: 3 }
            .to_string()
            .contains('3'));
        assert!(TokenCodecError::NotSorted { index: 1 }
            .to_string()
            .contains("entry 1"));
    }
}
