//! A fast, non-cryptographic hasher for the hot analysis paths.
//!
//! The coherence engines hash small integer keys (region ids, task ids,
//! equivalence-set ids) millions of times per run; SipHash is a poor fit.
//! This is the well-known "Fx" multiply-rotate hash used by rustc,
//! re-implemented here so we take no extra dependency.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One Fx step: fold `word` into `hash`.
#[inline]
pub(crate) fn fx_add(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// Multiply-rotate hasher (the rustc "Fx" hash).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = fx_add(self.hash, word);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(42);
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let h = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_ne!(h(0), h(1));
        assert_ne!(h(1), h(2));
        assert_ne!(h(0), h(1 << 32));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn unaligned_bytes_hash() {
        let mut a = FxHasher::default();
        a.write(b"hello world"); // 11 bytes: one chunk + remainder
        let mut b = FxHasher::default();
        b.write(b"hello worle");
        assert_ne!(a.finish(), b.finish());
    }
}
