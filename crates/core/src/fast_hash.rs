//! Fast hashing for maps and sets keyed by small integer ids.
//!
//! The expansions themselves do not hash: their per-node state (distance
//! labels, visit marks, verification counters) lives in the direct-address
//! [`crate::NodeTable`]. What remains hashed are the small per-query sets of
//! [`rnn_graph::PointId`]s (verified / discovered candidates), the node maps
//! that `rnn-index` checks out of the `Scratch` pools, and result maps
//! handed to callers. The default SipHash hasher of the standard library is
//! overkill for 32-bit ids, so this module provides a small multiplicative
//! hasher in the spirit of `FxHash` without adding a dependency. HashDoS
//! resistance is irrelevant here: keys are dense internal ids, not
//! attacker-controlled input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, non-cryptographic hasher for small integer keys.
#[derive(Default, Clone, Copy)]
pub struct FastHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback: fold 8 bytes at a time.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = (self.state.rotate_left(5) ^ i).wrapping_mul(SEED);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `HashMap` using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` using [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// Creates an empty [`FastMap`].
pub fn fast_map<K, V>() -> FastMap<K, V> {
    FastMap::default()
}

/// Creates an empty [`FastSet`].
pub fn fast_set<K>() -> FastSet<K> {
    FastSet::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::NodeId;

    #[test]
    fn map_and_set_behave_like_std() {
        let mut m: FastMap<NodeId, u32> = fast_map();
        for i in 0..1000u32 {
            m.insert(NodeId(i), i * 2);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&NodeId(i)), Some(&(i * 2)));
        }
        assert_eq!(m.get(&NodeId(5000)), None);

        let mut s: FastSet<u64> = fast_set();
        s.insert(7);
        s.insert(7);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn hasher_distributes_sequential_keys() {
        // Sequential ids must not all collide into a few buckets: check that
        // the low bits of the hashes take many distinct values.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..256u64 {
            let mut h = FastHasher::default();
            h.write_u64(i);
            low_bits.insert(h.finish() & 0xff);
        }
        assert!(low_bits.len() > 100, "only {} distinct low bytes", low_bits.len());
    }

    #[test]
    fn write_bytes_fallback_is_deterministic() {
        let mut a = FastHasher::default();
        a.write(b"hello world");
        let mut b = FastHasher::default();
        b.write(b"hello world");
        assert_eq!(a.finish(), b.finish());
        let mut c = FastHasher::default();
        c.write(b"hello worle");
        assert_ne!(a.finish(), c.finish());
    }
}
