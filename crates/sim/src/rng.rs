//! Reproducible random-number streams.
//!
//! Every stochastic element of an experiment (source selection, inter-arrival
//! times, message mix, lengths) draws from a named substream derived from a
//! single experiment seed, so (a) runs are bit-reproducible given the seed and
//! (b) changing how often one component draws does not perturb the others —
//! the standard variance-reduction discipline for simulation studies.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seedable random stream (ChaCha8: fast, portable, stable across releases).
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// A root stream from an experiment seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// A replication stream: the `rep`-th independent stream derived from a
    /// master experiment seed.
    ///
    /// The master seed keys the cipher and the replication index selects the
    /// ChaCha stream number, so every replication draws from the same keyed
    /// cipher on non-overlapping streams. The derivation is a pure function
    /// of `(master_seed, rep)` — results are bit-identical no matter which
    /// worker thread runs the replication or in what order.
    pub fn for_replication(master_seed: u64, rep: u64) -> Self {
        let mut inner = ChaCha8Rng::seed_from_u64(master_seed);
        // Splay the replication index across the 64-bit stream space so
        // labelled substreams (an XOR of the label hash, below) of different
        // replications cannot collide for small `rep`.
        inner.set_stream(rep.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        SimRng { inner }
    }

    /// Derive an independent, reproducible substream for component `label`.
    ///
    /// The derivation XORs a hash of the label into the stream number of the
    /// ChaCha cipher, so substreams never overlap regardless of how much
    /// each is consumed, and substreams of distinct replication streams
    /// ([`SimRng::for_replication`]) stay distinct.
    pub fn substream(&self, label: &str) -> SimRng {
        let mut inner = self.inner.clone();
        inner.set_stream(inner.get_stream() ^ fnv1a(label.as_bytes()));
        inner.set_word_pos(0);
        SimRng { inner }
    }

    /// A uniformly distributed index in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        self.inner.gen_range(0..n)
    }

    /// A uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.unit() < p
    }

    /// A uniformly distributed u64.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Expose the raw `Rng` for distribution sampling.
    pub fn raw(&mut self) -> &mut impl Rng {
        &mut self.inner
    }
}

/// 64-bit FNV-1a — tiny, stable hash for deriving stream ids from labels.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should diverge, {same}/64 equal");
    }

    #[test]
    fn substreams_are_independent_of_consumption() {
        let root = SimRng::new(42);
        let mut s1 = root.substream("arrivals");
        let first = s1.next_u64();

        // Consuming the root (or another substream) must not shift "arrivals".
        let mut root2 = SimRng::new(42);
        for _ in 0..10 {
            root2.next_u64();
        }
        let mut s2 = SimRng::new(42).substream("arrivals");
        assert_eq!(first, s2.next_u64());
    }

    #[test]
    fn substreams_differ_by_label() {
        let root = SimRng::new(42);
        let mut a = root.substream("a");
        let mut b = root.substream("b");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn replication_streams_are_order_independent() {
        // Stream 3 is the same whether or not streams 0..2 were ever built
        // or consumed — the property the parallel harness relies on.
        let mut direct = SimRng::for_replication(9, 3);
        let expected: Vec<u64> = (0..16).map(|_| direct.next_u64()).collect();

        for other in [0u64, 1, 2, 7] {
            let mut r = SimRng::for_replication(9, other);
            r.next_u64();
        }
        let mut again = SimRng::for_replication(9, 3);
        let got: Vec<u64> = (0..16).map(|_| again.next_u64()).collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn replication_streams_differ() {
        let mut a = SimRng::for_replication(9, 0);
        let mut b = SimRng::for_replication(9, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "replication streams should diverge, {same}/64");
    }

    #[test]
    fn replication_zero_matches_root_seed() {
        // Replication 0 of a master seed is the root stream of that seed, so
        // single-replication experiments keep their historical draws.
        let mut a = SimRng::for_replication(77, 0);
        let mut b = SimRng::new(77);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn replication_substreams_stay_distinct() {
        let mut a = SimRng::for_replication(5, 1).substream("arrivals");
        let mut b = SimRng::for_replication(5, 2).substream("arrivals");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn index_in_range() {
        let mut r = SimRng::new(1);
        for _ in 0..1000 {
            let i = r.index(17);
            assert!(i < 17);
        }
    }

    #[test]
    fn index_covers_range() {
        let mut r = SimRng::new(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
