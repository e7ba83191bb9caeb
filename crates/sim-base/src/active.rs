//! Active-set worklists for cycle-driven kernels.
//!
//! A cycle-driven simulator spends most of its time scanning components that
//! have nothing to do: an idle switch has no queued packets, a quiescent
//! controller has empty mailboxes. An [`ActiveSet`] tracks which small-integer
//! indices (switches, nodes) are *active* so the per-cycle loop can skip the
//! rest. Membership updates are O(1) and the structure is `Clone`, so it can
//! live inside checkpointable architectural state.
//!
//! Simulators usually need a rotating round-robin visit order for fairness.
//! [`ActiveSet::iter_from`] yields exactly the active indices in that order —
//! `start, start+1, …, capacity-1, 0, …, start-1`, members only — by scanning
//! a packed 64-bit-word bitmap, so visiting the active switches of an
//! `n`-node machine costs O(n/64 + |active|) per cycle instead of the O(n)
//! of a dense membership scan. The order is identical to filtering a dense
//! scan through [`ActiveSet::contains`], which keeps worklist-driven
//! schedules bit-identical to their exhaustive-scan ancestors.

/// A set of indices in `0..capacity` with O(1) insert/remove/contains and
/// order-preserving sparse iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSet {
    /// Packed membership bitmap; bit `i % 64` of word `i / 64` is index `i`.
    words: Vec<u64>,
    capacity: usize,
    count: usize,
}

impl ActiveSet {
    /// Creates an empty set over the index range `0..capacity`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
            count: 0,
        }
    }

    /// The index range this set covers.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of active indices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no index is active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Panics when `index` is outside `0..capacity` (matching the slice
    /// indexing of the original dense-bitmap implementation).
    fn check(&self, index: usize) {
        assert!(
            index < self.capacity,
            "index {index} out of range for ActiveSet of capacity {}",
            self.capacity
        );
    }

    /// True when `index` is active.
    #[must_use]
    pub fn contains(&self, index: usize) -> bool {
        self.check(index);
        self.words[index / 64] & (1 << (index % 64)) != 0
    }

    /// Marks `index` active; returns true if it was previously inactive.
    pub fn insert(&mut self, index: usize) -> bool {
        self.check(index);
        let (w, b) = (index / 64, 1u64 << (index % 64));
        if self.words[w] & b != 0 {
            return false;
        }
        self.words[w] |= b;
        self.count += 1;
        true
    }

    /// Marks `index` inactive; returns true if it was previously active.
    pub fn remove(&mut self, index: usize) -> bool {
        self.check(index);
        let (w, b) = (index / 64, 1u64 << (index % 64));
        if self.words[w] & b == 0 {
            return false;
        }
        self.words[w] &= !b;
        self.count -= 1;
        true
    }

    /// The smallest active index that is `>= from`, or `None` when no active
    /// index remains at or after `from`. O(words scanned), not O(range
    /// scanned): whole empty 64-index words are skipped with one load.
    ///
    /// This is the cursor primitive behind [`Self::iter_from`]; worklist
    /// loops that mutate the set mid-scan (deactivating the index they just
    /// visited) can drive it directly:
    /// `while let Some(i) = set.next_at_or_after(pos) { …; pos = i + 1; }`.
    #[must_use]
    pub fn next_at_or_after(&self, from: usize) -> Option<usize> {
        if from >= self.capacity {
            return None;
        }
        let mut w = from / 64;
        // Mask off the bits below `from` in the first word.
        let mut word = self.words[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                let index = w * 64 + word.trailing_zeros() as usize;
                // The last word may carry no stale high bits (insert checks
                // the range), so any set bit is a real member.
                return Some(index);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            word = self.words[w];
        }
    }

    /// Iterates the active indices in rotation order starting at `start`:
    /// `start, start+1, …, capacity-1, 0, …, start-1`, members only, each
    /// exactly once. Equivalent to (but sparser than) scanning all indices in
    /// that order and filtering through [`Self::contains`].
    ///
    /// The iterator borrows the set; loops that mutate membership while
    /// visiting should use [`Self::next_at_or_after`] with an explicit
    /// cursor instead.
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = usize> + '_ {
        let split = start.min(self.capacity);
        let mut pos = split;
        let mut wrapped = false;
        std::iter::from_fn(move || loop {
            let limit = if wrapped { split } else { self.capacity };
            match self.next_at_or_after(pos) {
                Some(i) if i < limit => {
                    pos = i + 1;
                    return Some(i);
                }
                _ if !wrapped => {
                    wrapped = true;
                    pos = 0;
                }
                _ => return None,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn insert_remove_contains_len() {
        let mut s = ActiveSet::new(8);
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3), "double insert is a no-op");
        assert!(s.insert(7));
        assert_eq!(s.len(), 2);
        assert!(s.contains(3) && s.contains(7) && !s.contains(0));
        assert!(s.remove(3));
        assert!(!s.remove(3), "double remove is a no-op");
        assert_eq!(s.len(), 1);
        assert!(!s.contains(3));
    }

    #[test]
    fn clone_preserves_membership() {
        let mut s = ActiveSet::new(4);
        s.insert(1);
        let c = s.clone();
        assert_eq!(s, c);
        s.remove(1);
        assert!(c.contains(1), "clone is independent");
    }

    #[test]
    #[should_panic]
    fn out_of_range_index_panics() {
        let s = ActiveSet::new(2);
        let _ = s.contains(5);
    }

    #[test]
    fn next_at_or_after_skips_empty_words() {
        let mut s = ActiveSet::new(300);
        assert_eq!(s.next_at_or_after(0), None);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(257);
        assert_eq!(s.next_at_or_after(0), Some(0));
        assert_eq!(s.next_at_or_after(1), Some(63));
        assert_eq!(s.next_at_or_after(63), Some(63));
        assert_eq!(s.next_at_or_after(64), Some(64));
        assert_eq!(s.next_at_or_after(65), Some(257));
        assert_eq!(s.next_at_or_after(258), None);
        assert_eq!(s.next_at_or_after(1000), None, "past capacity");
    }

    /// The order-preservation contract: for arbitrary membership and any
    /// rotation start, `iter_from` must equal the dense scan
    /// `(start..cap).chain(0..start).filter(contains)` the forwarding pass
    /// used before the sparse iterator existed.
    #[test]
    fn iter_from_matches_dense_rotation_scan() {
        let mut rng = DetRng::new(0xac71);
        for &cap in &[1usize, 7, 64, 65, 130, 128] {
            for density_pct in [0u64, 5, 50, 100] {
                let mut s = ActiveSet::new(cap);
                for i in 0..cap {
                    if rng.next_below(100) < density_pct {
                        s.insert(i);
                    }
                }
                for start in [0, 1, cap / 2, cap.saturating_sub(1)] {
                    let sparse: Vec<usize> = s.iter_from(start).collect();
                    let dense: Vec<usize> = (start..cap)
                        .chain(0..start)
                        .filter(|&i| s.contains(i))
                        .collect();
                    assert_eq!(
                        sparse, dense,
                        "cap {cap}, density {density_pct}%, start {start}"
                    );
                    assert_eq!(sparse.len(), s.len());
                }
            }
        }
    }

    #[test]
    fn iter_from_with_empty_set_and_zero_capacity() {
        let s = ActiveSet::new(0);
        assert_eq!(s.iter_from(0).count(), 0);
        let s = ActiveSet::new(10);
        assert_eq!(s.iter_from(3).count(), 0);
    }

    #[test]
    fn cursor_loop_supports_mid_scan_removal() {
        // The forwarding-pass pattern: visit members in rotation order while
        // deactivating the index just visited.
        let mut s = ActiveSet::new(200);
        for i in [3usize, 70, 71, 199] {
            s.insert(i);
        }
        let mut visited = Vec::new();
        let mut pos = 70;
        while let Some(i) = s.next_at_or_after(pos) {
            visited.push(i);
            s.remove(i);
            pos = i + 1;
        }
        let mut pos = 0;
        while let Some(i) = s.next_at_or_after(pos) {
            if i >= 70 {
                break;
            }
            visited.push(i);
            s.remove(i);
            pos = i + 1;
        }
        assert_eq!(visited, vec![70, 71, 199, 3]);
        assert!(s.is_empty());
    }
}
