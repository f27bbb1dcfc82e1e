//! A fast hasher for the schema's small copy keys.
//!
//! Table III's distinct sets ([`SummarySets`](crate::SummarySets)) and
//! the IP maps of `ddos-analytics` (the epoch fold's index of known IPs,
//! the source table's sweep and the `Botlist` join) perform millions of
//! set/map operations over fixed-width keys the process generated
//! itself — ids, addresses, two-letter country codes.
//! HashDoS resistance buys nothing against a fixed research trace, so
//! [`FastHasher`] trades SipHash for one multiply plus an xor-shift per
//! word (the classic Fibonacci-hash mix).
//!
//! Collections keyed this way iterate in a different order than SipHash
//! ones — only use [`FastSet`]/[`FastMap`] where results are independent
//! of iteration order (membership tests, distinct counts, or maps that
//! get sorted before anything order-sensitive reads them).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply–xor-shift hasher for small fixed-width keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Short inputs only (a country code, an enum tag); fold whole
        // words where possible so `[u8; 2]` keys cost one mix.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        // Mix the previous state in so composite keys still distribute.
        let x = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Hash set using [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// Hash map using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FastHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_distinguishing() {
        assert_eq!(hash_of(42u32), hash_of(42u32));
        assert_ne!(hash_of(42u32), hash_of(43u32));
        assert_ne!(hash_of([b'R', b'U']), hash_of([b'U', b'R']));
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
    }

    #[test]
    fn byte_writes_fold_into_words() {
        // 9 bytes exercises both the whole-word and the remainder path.
        assert_ne!(hash_of(*b"abcdefghi"), hash_of(*b"abcdefghj"));
        assert_eq!(hash_of(*b"abcdefghi"), hash_of(*b"abcdefghi"));
    }

    #[test]
    fn set_behaves_like_std_for_membership() {
        let mut set = FastSet::<u32>::default();
        assert!(set.insert(7));
        assert!(!set.insert(7));
        assert!(set.contains(&7));
        assert_eq!(set.len(), 1);
        let map: FastMap<u32, u32> = [(1, 2)].into_iter().collect();
        assert_eq!(map.get(&1), Some(&2));
    }
}
