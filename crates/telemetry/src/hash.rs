//! One multiply-xor hasher for the integer-keyed maps on the per-call path.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-xor hasher (FxHash-style) for maps keyed by integers the
/// stack mints itself: span keys, wire handles, call ids. Such keys are
/// tiny and attacker-free, and these maps are probed on every forwarded
/// call — SipHash's DoS resistance costs more there than the whole map
/// operation. Keep the default hasher for keys taken from outside input.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }
}

/// A `HashMap` hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_keys_spread_and_round_trip() {
        let mut map: IntMap<u64, u64> = IntMap::default();
        for k in 0x4000_0000..0x4000_0400u64 {
            map.insert(k, k * 2);
        }
        assert_eq!(map.len(), 0x400);
        assert!((0x4000_0000..0x4000_0400u64).all(|k| map.get(&k) == Some(&(k * 2))));
        let hash = |k: u64| {
            let mut h = IntHasher::default();
            h.write_u64(k);
            h.finish()
        };
        assert_ne!(hash(1), hash(2));
        // Low bits pick the bucket; neighbouring keys must not share them.
        assert_ne!(hash(0x4000_0000) & 0xff, hash(0x4000_0001) & 0xff);
    }
}
