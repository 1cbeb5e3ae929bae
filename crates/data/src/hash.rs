//! Fast non-cryptographic hashing for counting and grouping workloads.
//!
//! Pattern counting is a group-by over millions of short integer keys, so
//! hash throughput dominates. This is the well-known Fx multiply-rotate
//! hash used by rustc (`rustc-hash` is not in our sanctioned offline crate
//! set, so the ~30-line algorithm is reimplemented; it is public domain by
//! triviality). HashDoS resistance is irrelevant here: keys are dense
//! dictionary ids derived from the data itself.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Fx hash (64-bit golden-ratio mix).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx hasher: one multiply and rotate per 8 bytes of input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Creates an [`FxHashMap`] with at least `cap` capacity.
pub fn fx_map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

/// Creates an [`FxHashSet`] with at least `cap` capacity.
pub fn fx_set_with_capacity<T>(cap: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        let key: Vec<u32> = vec![1, 2, 3];
        assert_eq!(hash_of(&key), hash_of(&key.clone()));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a statistical test, just a sanity check that single-bit and
        // positional differences change the hash.
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&vec![1u32, 2u32]), hash_of(&vec![2u32, 1u32]));
        assert_ne!(hash_of(&vec![0u32, 0]), hash_of(&vec![0u32, 0, 0]));
    }

    #[test]
    fn collision_rate_reasonable_on_dense_ids() {
        let mut seen = FxHashSet::default();
        for a in 0..100u32 {
            for b in 0..100u32 {
                seen.insert(hash_of(&(a, b)));
            }
        }
        // All 10,000 dense pairs should hash distinctly.
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<Vec<u32>, u64> = fx_map_with_capacity(4);
        *m.entry(vec![1, 2]).or_insert(0) += 1;
        *m.entry(vec![1, 2]).or_insert(0) += 1;
        assert_eq!(m[&vec![1, 2]], 2);
        let mut s: FxHashSet<u64> = fx_set_with_capacity(4);
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn partial_byte_writes() {
        // The chunked `write` path must handle non-multiple-of-8 lengths.
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 4]));
        assert_ne!(hash_of(&[0u8; 7]), hash_of(&[0u8; 9]));
    }
}
