//! The hasher of the one hash table left in the crate, which is not a
//! query's per-node or per-point state (that lives in [`crate::NodeTable`]):
//! the LRU of eager-M's simulated table pages (`materialize/mod.rs`). Its
//! keys are small integers, for which the standard library's SipHash is
//! overkill, so this is a small multiplicative hasher in the spirit of
//! `FxHash`, without a dependency.
//! HashDoS resistance is irrelevant: keys are internal ids, not
//! attacker-controlled input.

use std::hash::Hasher;

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

#[cfg(test)]
mod tests {
    use super::*;

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
