//! A fast, non-cryptographic hasher (the FxHash algorithm used by rustc).
//!
//! The Datalog fixpoint hashes tuples of constants billions of times on the
//! larger workloads; SipHash (std's default) is measurably slower there.
//! Implementing the ~30-line algorithm in-tree avoids a dependency on
//! `rustc-hash` (the workspace has zero external dependencies, see
//! ARCHITECTURE.md's opening paragraph).

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// `HashMap` for keys that are themselves high-quality 64-bit hashes
/// (e.g. the engine's precomputed row hashes): the "hasher" passes the
/// key through verbatim, so probes skip a hash round entirely and table
/// resizes become re-hash-free relocations. Keys **must** already be
/// well-mixed in their low bits (see `database::row_hash`'s finalizer) —
/// this is not a general-purpose integer map.
pub type PrehashedMap<V> = std::collections::HashMap<u64, V, BuildHasherDefault<PrehashedHasher>>;

/// The pass-through hasher behind [`PrehashedMap`].
#[derive(Default, Clone)]
pub struct PrehashedHasher {
    hash: u64,
}

impl Hasher for PrehashedHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PrehashedMap keys are u64 hashes");
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = n;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash hasher: a multiply-and-rotate word hash.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = FxHasher::default();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.get("a"), Some(&1));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn unaligned_tail_bytes() {
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 4]));
        assert_ne!(
            hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9]),
            hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 10])
        );
    }
}
