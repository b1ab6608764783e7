//! Active-set worklists: fixed-capacity bitsets over router/node ids.
//!
//! The engine's per-cycle cost must be proportional to *active* work,
//! not network size: each pipeline phase keeps a bitset of the routers
//! (or nodes) that can possibly do anything this cycle, and walks only
//! the set bits with `trailing_zeros`. Because the words are scanned in
//! ascending order, iteration visits members in ascending id order —
//! exactly the order of the naive `for r in 0..n` scan it replaces,
//! which is what keeps the masked kernel bit-identical to the
//! `reference` audit (the routing phase consumes a shared RNG stream,
//! so visit *order* is observable).
//!
//! Membership updates during a phase are restricted by construction:
//! a phase may remove the member it is currently visiting (it drained)
//! and may insert into the worklists of *later* phases, but never
//! inserts into the set it is iterating. The phase walks snapshot one
//! word at a time, so removals of already-visited bits and insertions
//! elsewhere cannot be missed.
//!
//! The phase kernel works on the backing words directly
//! (`ActiveSet::words_mut`, `set_bit`, `clear_bit`): a shard of a
//! sharded run owns the word sub-range covering its 64-aligned id
//! range, and the serial run owns all of them.

/// Set bit `id` in a word slice whose first word covers ids `0..64`.
#[inline]
pub(crate) fn set_bit(words: &mut [u64], id: usize) {
    words[id >> 6] |= 1u64 << (id & 63);
}

/// Clear bit `id`, same addressing as [`set_bit`].
#[inline]
pub(crate) fn clear_bit(words: &mut [u64], id: usize) {
    words[id >> 6] &= !(1u64 << (id & 63));
}

/// A bitset over `0..capacity` ids supporting ascending iteration.
#[derive(Clone, Debug, Default)]
pub struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// An empty set able to hold ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        ActiveSet {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Add `id` (idempotent).
    #[inline]
    pub fn insert(&mut self, id: usize) {
        set_bit(&mut self.words, id);
    }

    /// Remove `id` (idempotent).
    #[inline]
    pub fn remove(&mut self, id: usize) {
        clear_bit(&mut self.words, id);
    }

    /// Empty the set.
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether `id` is a member.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.words[id >> 6] & (1u64 << (id & 63)) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words (bit `b` of word `w` is id `w * 64 + b`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The backing words, mutably (see the module docs).
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ActiveSet::new(200);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(199);
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(64));
        assert!(!s.contains(65));
        s.remove(63);
        s.remove(63); // idempotent
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn words_expose_members_in_ascending_order() {
        let mut s = ActiveSet::new(130);
        s.insert(1);
        s.insert(129);
        assert_eq!(s.words(), &[2, 0, 2]);
        set_bit(s.words_mut(), 64);
        clear_bit(s.words_mut(), 1);
        assert!(s.contains(64) && !s.contains(1));
    }
}
