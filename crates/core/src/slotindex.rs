//! A max-free-slots segment tree over the server fleet.
//!
//! The §V-A placement manager picks "the admissible server with the most
//! free slots, lowest id winning ties". A linear scan reproduces that in
//! O(servers) — fine at 2,560 hosts, a per-placement millisecond burner
//! at 100k. Every server of a cluster hosts the same number of VMs (see
//! [`crate::ServerSpec::vm_capacity`]), so a free slot on an up host is
//! the whole slot/RAM/CPU admission check, and [`FreeSlotIndex`] is the
//! cluster's one slot account. The pick is then the leftmost maximum of
//! its leaves, found in one O(log servers) descent.

/// Max-free-slots segment tree; leaves are servers in id order.
#[derive(Debug, Clone)]
pub(crate) struct FreeSlotIndex {
    /// Number of servers (leaves in use).
    n: usize,
    /// Power-of-two leaf span.
    size: usize,
    /// `tree[1]` is the root; leaf `i` lives at `size + i`. Values are
    /// free VM slots; unused padding leaves hold 0.
    tree: Vec<u32>,
}

impl FreeSlotIndex {
    /// Builds the index from per-server free-slot counts.
    pub(crate) fn new(free: impl ExactSizeIterator<Item = u32>) -> Self {
        let n = free.len();
        let size = n.next_power_of_two().max(1);
        let mut tree = vec![0u32; 2 * size];
        for (i, f) in free.enumerate() {
            tree[size + i] = f;
        }
        for i in (1..size).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        FreeSlotIndex { n, size, tree }
    }

    /// Current free-slot count of server `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn free(&self, i: usize) -> u32 {
        assert!(i < self.n, "server index {i} out of range");
        self.tree[self.size + i]
    }

    /// Updates server `i`'s free-slot count, repairing the O(log n) path
    /// to the root.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn set(&mut self, i: usize, free: u32) {
        assert!(i < self.n, "server index {i} out of range");
        let mut node = self.size + i;
        self.tree[node] = free;
        node /= 2;
        while node >= 1 {
            let next = self.tree[2 * node].max(self.tree[2 * node + 1]);
            if self.tree[node] == next {
                break; // ancestors unchanged
            }
            self.tree[node] = next;
            node /= 2;
        }
    }

    /// The server with the most free slots, lowest id winning ties, or
    /// `None` when every server is full: from the root, step into the
    /// left child whenever it holds the maximum.
    pub(crate) fn best(&self) -> Option<usize> {
        if self.tree[1] == 0 {
            return None;
        }
        let mut node = 1;
        while node < self.size {
            node = if self.tree[2 * node] == self.tree[node] {
                2 * node
            } else {
                2 * node + 1
            };
        }
        Some(node - self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear scan the index replaces: most free slots, lowest id
    /// winning ties, never a full server.
    fn scan(frees: &[u32]) -> Option<usize> {
        let mut best: Option<(u32, usize)> = None;
        for (i, &f) in frees.iter().enumerate() {
            if f > 0 && best.is_none_or(|(bf, _)| f > bf) {
                best = Some((f, i));
            }
        }
        best.map(|(_, i)| i)
    }

    #[test]
    fn matches_linear_scan_choice() {
        let frees = [3u32, 7, 7, 0, 5, 7, 1, 2];
        let idx = FreeSlotIndex::new(frees.iter().copied());
        assert_eq!(idx.best(), Some(1));
        assert_eq!(idx.best(), scan(&frees));
        assert_eq!(FreeSlotIndex::new([0u32; 3].into_iter()).best(), None);
        assert_eq!(FreeSlotIndex::new(std::iter::empty::<u32>()).best(), None);
    }

    #[test]
    fn set_updates_choices() {
        let mut idx = FreeSlotIndex::new([1u32, 1, 1].into_iter());
        assert_eq!(idx.best(), Some(0));
        idx.set(2, 9);
        assert_eq!(idx.free(2), 9);
        assert_eq!(idx.best(), Some(2));
        idx.set(2, 0);
        idx.set(0, 0);
        assert_eq!(idx.best(), Some(1));
        idx.set(1, 0);
        assert_eq!(idx.best(), None, "a full fleet has no pick");
    }

    #[test]
    fn exhaustive_vs_scan_on_random_fleets() {
        // Deterministic pseudo-random fleet shapes, each updated at random
        // and compared against the reference linear scan after every set.
        let mut state = 0x243F_6A88u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for n in [1usize, 2, 3, 5, 16, 17, 64, 100] {
            let mut frees: Vec<u32> = (0..n).map(|_| next() % 17).collect();
            let mut idx = FreeSlotIndex::new(frees.iter().copied());
            assert_eq!(idx.best(), scan(&frees), "fleet {frees:?}");
            for _ in 0..2 * n {
                let (i, f) = (next() as usize % n, next() % 17);
                frees[i] = f;
                idx.set(i, f);
                assert_eq!(idx.best(), scan(&frees), "fleet {frees:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        FreeSlotIndex::new([1u32].into_iter()).free(1);
    }
}
