//! A dense index set over `0..capacity` backed by a bitmap.
//!
//! The engine's hot paths need set membership over small dense id spaces
//! (the failed channels) with none of the hashing and heap traffic a
//! `HashSet` pays per operation: [`ActiveSet`] gives O(1) insert / remove /
//! contains on one cache line per 512 ids, plus its members in order.

/// A set of `usize` indices in `0..capacity`, stored one bit per index.
#[derive(Debug, Clone, Default)]
pub struct ActiveSet {
    words: Vec<u64>,
    len: usize,
}

impl ActiveSet {
    /// An empty set able to hold indices in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        ActiveSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of indices currently in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `i`. Returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if `i` is out of capacity.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        self.len += fresh as usize;
        fresh
    }

    /// Remove `i`. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        let Some(word) = self.words.get_mut(i / 64) else {
            return false;
        };
        let b = 1u64 << (i % 64);
        let had = *word & b != 0;
        *word &= !b;
        self.len -= had as usize;
        had
    }

    /// Whether `i` is in the set. Out-of-capacity indices are never present.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// The members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(w * 64 + b)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ActiveSet::new(200);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(199));
        assert!(!s.insert(63), "double insert");
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(64) && !s.contains(65));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.len(), 3);
        assert!(!s.contains(63));
        assert!(!s.contains(100_000), "out of capacity is absent");
        assert!(!s.remove(100_000));
    }

    #[test]
    fn iter_yields_sorted_members() {
        let mut s = ActiveSet::new(256);
        let members = [7usize, 8, 63, 64, 128, 255];
        for &i in members.iter().rev() {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), members);
    }
}
