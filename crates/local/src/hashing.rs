//! A fast, non-cryptographic hasher for the exact-keyed view structures.
//!
//! The canonical-view engine hashes whole views (adjacency lists, labels)
//! on every cache lookup and every exact-dedup probe, and hashes canonical
//! codes (`Vec<u64>`) on every dedup insertion.  `std`'s default SipHash is
//! DoS-resistant but an order of magnitude slower than needed for these
//! trusted, in-process keys, and profiles showed it dominating the dedup
//! prepass.  This is the classic `FxHash` mix (as used by rustc): one
//! rotate-xor-multiply per word.
//!
//! Use it only for in-process keys derived from trusted inputs — it has no
//! collision-attack resistance.

use std::hash::{BuildHasherDefault, Hasher};

/// One-word-at-a-time multiplicative hasher (the rustc `FxHasher` scheme).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// The multiplier: truncated golden-ratio constant, as in rustc's FxHash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// Little-endian 8-byte words, the last one zero-padded.  Slices of
    /// `u64` (exact keys, canonical codes) arrive here as raw bytes, so the
    /// whole-word loop carries every hot-path hash.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(word);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps and sets.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the fast in-process hasher.
// ld-analyze: allow(D001, reason = "definitional site of the deterministic Fx alias the rule points everyone at")
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by the fast in-process hasher.
// ld-analyze: allow(D001, reason = "definitional site of the deterministic Fx alias the rule points everyone at")
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn equal_values_hash_equal_and_order_matters() {
        let build = FxBuildHasher::default();
        let h = |v: &Vec<u64>| build.hash_one(v);
        assert_eq!(h(&vec![1, 2, 3]), h(&vec![1, 2, 3]));
        assert_ne!(h(&vec![1, 2, 3]), h(&vec![3, 2, 1]));
    }

    #[test]
    fn byte_writes_cover_partial_chunks() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        b.write(&[9]);
        // Not required to be equal (chunking differs), but both must be
        // deterministic and non-zero for non-trivial input.
        assert_ne!(a.finish(), 0);
        assert_eq!(a.finish(), a.finish());
        assert_eq!(b.finish(), b.finish());
    }

    /// The `chunks(8)` loop `write` used before it split whole words from
    /// the tail; hash values (and so every Fx map's iteration order) must
    /// not move.
    fn reference_write(hasher: &mut FxHasher, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            hasher.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[test]
    fn write_matches_the_reference_chunk_loop_at_every_length() {
        let bytes: Vec<u8> = (0u8..40).map(|b| b.wrapping_mul(37) ^ 0xa5).collect();
        for len in 0..=40 {
            for seed in [0, 0x0123_4567_89ab_cdef] {
                let mut fast = FxHasher { hash: seed };
                fast.write(&bytes[..len]);
                let mut reference = FxHasher { hash: seed };
                reference_write(&mut reference, &bytes[..len]);
                assert_eq!(fast.finish(), reference.finish(), "length {len}");
            }
        }
    }

    #[test]
    fn sets_and_maps_work_with_compound_keys() {
        let mut set: FxHashSet<(u32, Vec<u8>)> = FxHashSet::default();
        assert!(set.insert((1, vec![1, 2])));
        assert!(!set.insert((1, vec![1, 2])));
        assert!(set.insert((1, vec![2, 1])));
        let mut map: FxHashMap<String, usize> = FxHashMap::default();
        map.insert("a".to_string(), 1);
        assert_eq!(map.get("a"), Some(&1));
        let mut hasher = FxHasher::default();
        "compound".hash(&mut hasher);
        assert_ne!(hasher.finish(), 0);
    }
}
