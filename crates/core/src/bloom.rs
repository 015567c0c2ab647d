//! Bloom filters for the Bloom-join rewrite (§4.2).
//!
//! Each node builds a filter over the join keys of its local fragment,
//! the query's combine tree ORs them on their way to its root, and the
//! root multicasts the result to the nodes holding the opposite table.
//! Tuples whose keys miss the filter are never rehashed, trading a tree
//! round and two multicasts for rehash bandwidth.

use pier_dht::geom::splitmix64;

/// A fixed-shape Bloom filter over 64-bit key hashes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u32,
    n_hashes: u32,
}

impl BloomFilter {
    /// `n_bits` is rounded up to a multiple of 64. Typical workload use:
    /// ~8 bits per expected key and 3–4 hashes for ≈2–3 % false positives.
    pub fn new(n_bits: u32, n_hashes: u32) -> Self {
        let (n_bits, n_hashes) = shape(n_bits, n_hashes);
        BloomFilter {
            bits: vec![0; n_bits as usize / 64],
            n_bits,
            n_hashes,
        }
    }

    /// Size a filter for an expected number of keys at ~8 bits/key.
    pub fn for_capacity(expected_keys: usize) -> Self {
        BloomFilter::new((expected_keys as u32).saturating_mul(8).max(64), 4)
    }

    /// Is this the filter `BloomFilter::new(n_bits, n_hashes)` builds —
    /// can it be OR-ed into one ([`Self::union`])?
    pub fn has_shape(&self, n_bits: u32, n_hashes: u32) -> bool {
        (self.n_bits, self.n_hashes) == shape(n_bits, n_hashes)
    }

    fn positions(n_bits: u32, n_hashes: u32, key: u64) -> impl Iterator<Item = usize> {
        let n = n_bits as u64;
        (0..n_hashes as u64)
            .map(move |i| (splitmix64(key ^ (i.wrapping_mul(0xA5A5_5A5A_0F0F_F0F0))) % n) as usize)
    }

    pub fn insert(&mut self, key: u64) {
        for p in Self::positions(self.n_bits, self.n_hashes, key) {
            self.bits[p / 64] |= 1u64 << (p % 64);
        }
    }

    /// May return false positives; never false negatives.
    pub fn contains(&self, key: u64) -> bool {
        Self::positions(self.n_bits, self.n_hashes, key)
            .all(|p| self.bits[p / 64] & (1u64 << (p % 64)) != 0)
    }

    /// OR in another filter (must have the same shape: a node asks
    /// [`Self::has_shape`] of a filter from the network first).
    pub fn union(&mut self, other: &BloomFilter) {
        assert_eq!(self.n_bits, other.n_bits, "bloom shape mismatch");
        assert_eq!(self.n_hashes, other.n_hashes, "bloom shape mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Wire bytes of the filter payload: its shape, then the bitmap or
    /// the positions of its set bits, whichever is smaller — 2 bytes a
    /// position up to 65 536 bits, 4 above. A node's filter over a few
    /// keys ships as those keys' positions.
    pub fn wire_size(&self) -> usize {
        let set: usize = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        let position = if self.n_bits <= 1 << 16 { 2 } else { 4 };
        8 + (self.bits.len() * 8).min(set * position)
    }
}

/// The shape a requested one is built as: bits rounded up to whole
/// 64-bit words (at least one), hashes clamped to 1–16.
fn shape(n_bits: u32, n_hashes: u32) -> (u32, u32) {
    (n_bits.div_ceil(64).max(1) * 64, n_hashes.clamp(1, 16))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::for_capacity(1000);
        for k in 0..1000u64 {
            f.insert(k * 31);
        }
        for k in 0..1000u64 {
            assert!(f.contains(k * 31));
        }
    }

    #[test]
    fn false_positive_rate_is_low_at_8_bits_per_key() {
        let mut f = BloomFilter::for_capacity(2000);
        for k in 0..2000u64 {
            f.insert(splitmix64(k));
        }
        let fps = (0..20_000u64)
            .map(|k| splitmix64(k + 1_000_000))
            .filter(|&k| f.contains(k))
            .count();
        let rate = fps as f64 / 20_000.0;
        assert!(rate < 0.05, "false positive rate {rate}");
    }

    #[test]
    fn union_is_bitwise_or() {
        let mut a = BloomFilter::new(256, 3);
        let mut b = BloomFilter::new(256, 3);
        a.insert(1);
        b.insert(2);
        a.union(&b);
        assert!(a.contains(1) && a.contains(2));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn union_rejects_shape_mismatch() {
        let mut a = BloomFilter::new(128, 3);
        let b = BloomFilter::new(256, 3);
        a.union(&b);
    }

    #[test]
    fn shape_test_asks_for_what_new_builds() {
        let f = BloomFilter::new(100, 3);
        assert!(f.has_shape(100, 3) && f.has_shape(128, 3));
        assert!(!f.has_shape(256, 3) && !f.has_shape(128, 4));
        assert!(BloomFilter::new(0, 0).has_shape(64, 1));
        assert!(BloomFilter::new(1 << 16, 40).has_shape(1 << 16, 16));
    }

    #[test]
    fn a_sparse_filter_ships_its_set_positions() {
        let mut f = BloomFilter::new(1 << 16, 4);
        assert_eq!(f.wire_size(), 8, "nothing set, nothing shipped");
        f.insert(7);
        let set = f
            .bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>();
        assert_eq!(f.wire_size(), 8 + 2 * set);
        let mut wide = BloomFilter::new((1 << 16) + 64, 4);
        wide.insert(7);
        let set = wide
            .bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>();
        assert_eq!(wide.wire_size(), 8 + 4 * set);
        let mut dense = BloomFilter::new(256, 4);
        (0..1000).for_each(|k| dense.insert(splitmix64(k)));
        assert_eq!(
            dense.wire_size(),
            8 + 256 / 8,
            "a dense one ships its bitmap"
        );
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(512, 4);
        assert!(f.is_empty());
        assert!((0..100u64).all(|k| !f.contains(splitmix64(k))));
    }

    proptest! {
        #[test]
        fn inserted_keys_always_found(keys in prop::collection::vec(any::<u64>(), 1..200)) {
            let mut f = BloomFilter::for_capacity(keys.len());
            for &k in &keys {
                f.insert(k);
            }
            for &k in &keys {
                prop_assert!(f.contains(k));
            }
        }

        #[test]
        fn union_preserves_both_sides(
            xs in prop::collection::vec(any::<u64>(), 1..100),
            ys in prop::collection::vec(any::<u64>(), 1..100),
        ) {
            let mut a = BloomFilter::new(4096, 4);
            let mut b = BloomFilter::new(4096, 4);
            for &k in &xs { a.insert(k); }
            for &k in &ys { b.insert(k); }
            a.union(&b);
            for &k in xs.iter().chain(&ys) {
                prop_assert!(a.contains(k));
            }
        }
    }
}
