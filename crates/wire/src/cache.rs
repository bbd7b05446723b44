//! Content-addressed transfer-cache primitives.
//!
//! The guest library and the API server each keep a small LRU keyed by a
//! 64-bit content digest of buffer payloads that have already crossed the
//! transport. When the guest is about to resend a payload whose digest is
//! cached, it marshals [`crate::Value::CachedBytes`] — digest plus length —
//! instead of the bytes, and the server rematerializes the payload from its
//! mirror cache. Both sides apply the same insert/touch sequence in transport
//! order over the same capacity, so the caches evolve in lockstep on an
//! ordered, reliable transport; any divergence (migration, forced eviction,
//! mismatched configuration) is healed by the `ReplyStatus::CacheMiss` NACK
//! and a full resend.
//!
//! The digest is [`digest64`] — a four-lane multiply-fold hash (wyhash-style
//! mixing) that runs well above memcpy speed, with a reference FNV-1a
//! fallback for sub-block payloads. It is collision-safe enough for a
//! cooperative cache where a collision costs correctness only within one
//! guest's own traffic. This is a transfer-elision cache, not an integrity
//! check.

use std::collections::HashMap;

/// 64-bit FNV-1a content digest.
///
/// Offset basis `0xcbf29ce484222325`, prime `0x100000001b3` — the standard
/// parameters, so test vectors from the FNV reference implementation apply.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Folds a full 64x64 -> 128 multiply back to 64 bits (the wyhash mixing
/// primitive): one `mul` instruction on 64-bit targets, with every input
/// bit influencing every output bit.
#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let r = u128::from(a) * u128::from(b);
    (r as u64) ^ ((r >> 64) as u64)
}

/// Fast 64-bit content digest for the transfer-cache hot path.
///
/// FNV-1a is byte-serial — one dependent multiply per byte — which put the
/// whole digest cost on the marshaling critical path and made cache-on a
/// wall-time *loss* on low-latency transports despite the byte elision.
/// The break-even point is the memcpy the elision avoids: on an in-process
/// transport a cache hit saves only one payload copy, so the digest must
/// run well above memcpy speed to leave a margin. `digest64` consumes
/// 64 bytes per step across four independent lanes, each folding 16 bytes
/// through a single widening multiply (`mix`, the wyhash primitive) —
/// one multiply per 16 bytes instead of FNV's one per byte — then combines
/// the lanes with the input length. Buffers shorter than one block fall
/// back to reference FNV-1a, so tiny payloads pay no setup.
///
/// Guest and server mirrors must agree on the digest function, not on any
/// particular one — both sides call this. Like FNV it is a transfer-elision
/// digest, not an integrity check.
pub fn digest64(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    if data.len() < 64 {
        return fnv1a64(data);
    }
    // Distinct odd constants per lane (from the golden ratio / FNV basis
    // family) so equal 16-byte chunks land differently in each lane.
    const SECRET: [u64; 4] = [
        0xa076_1d64_78bd_642f,
        0xe703_7ed1_a0b4_28db,
        0x8ebc_6af0_9c88_c6e3,
        0x5899_65cc_7537_4cc3,
    ];
    let mut lanes = [
        BASIS,
        BASIS ^ 0x9e37_79b9_7f4a_7c15,
        BASIS.rotate_left(17),
        BASIS.rotate_left(43),
    ];
    let mut chunks = data.chunks_exact(64);
    for chunk in chunks.by_ref() {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w0 = u64::from_le_bytes(chunk[i * 16..i * 16 + 8].try_into().expect("8-byte word"));
            let w1 = u64::from_le_bytes(
                chunk[i * 16 + 8..i * 16 + 16]
                    .try_into()
                    .expect("8-byte word"),
            );
            *lane = mix(w0 ^ SECRET[i], w1 ^ *lane);
        }
    }
    let mut acc = BASIS ^ (data.len() as u64);
    for lane in lanes {
        acc = (acc ^ lane).wrapping_mul(PRIME).rotate_left(29);
    }
    for &b in chunks.remainder() {
        acc = (acc ^ u64::from(b)).wrapping_mul(PRIME);
    }
    acc
}

/// A fixed-capacity LRU map from content digest to `V`.
///
/// Eviction is strict least-recently-used over *entry count* (not bytes), so
/// two caches configured with the same capacity that observe the same
/// insert/touch sequence hold exactly the same digests — the property the
/// guest/server mirror-cache protocol relies on. Recency is tracked with a
/// monotonic tick; lookup of the victim is `O(n)` in the capacity, which is
/// small (tens of entries) and off the byte-moving hot path.
#[derive(Debug)]
pub struct DigestLru<V> {
    capacity: usize,
    tick: u64,
    entries: HashMap<u64, (u64, V)>,
}

impl<V> DigestLru<V> {
    /// Creates a cache holding at most `capacity` entries. A capacity of 0
    /// disables the cache (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        DigestLru {
            capacity,
            tick: 0,
            entries: HashMap::with_capacity(capacity),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `digest`, marking it most-recently-used on hit.
    pub fn get(&mut self, digest: u64) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&digest) {
            Some((used, value)) => {
                *used = tick;
                Some(value)
            }
            None => None,
        }
    }

    /// True when `digest` is cached; does not touch recency.
    pub fn contains(&self, digest: u64) -> bool {
        self.entries.contains_key(&digest)
    }

    /// Inserts (or refreshes) `digest`, evicting the least-recently-used
    /// entry if the cache is full. Inserting an existing digest only
    /// refreshes its recency and replaces its value.
    pub fn insert(&mut self, digest: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.entries.get_mut(&digest) {
            *slot = (tick, value);
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(d, _)| *d)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(digest, (tick, value));
    }

    /// Removes `digest`, returning its value if present. Used by tests to
    /// force a guest/server desync.
    pub fn remove(&mut self, digest: u64) -> Option<V> {
        self.entries.remove(&digest).map(|(_, v)| v)
    }

    /// Drops every entry (epoch change: reconnect or migration).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Vectors from the FNV reference implementation.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest64_is_deterministic_and_length_aware() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 131 % 251) as u8).collect();
        assert_eq!(digest64(&data), digest64(&data));
        // Prefixes straddling the 64-byte block boundary all digest
        // differently (the fold mixes in the length, so even a
        // zero-padded tail cannot collide with its prefix).
        let lens = [0usize, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1024];
        let digests: Vec<u64> = lens.iter().map(|&n| digest64(&data[..n])).collect();
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "lens {} vs {}", lens[i], lens[j]);
            }
        }
    }

    #[test]
    fn digest64_short_inputs_match_fnv1a() {
        for n in 0..64usize {
            let data: Vec<u8> = (0..n as u32).map(|i| i as u8).collect();
            assert_eq!(digest64(&data), fnv1a64(&data));
        }
    }

    #[test]
    fn digest64_sees_single_byte_changes() {
        let mut data = vec![7u8; 4096];
        let base = digest64(&data);
        for pos in [0usize, 31, 32, 1000, 4095] {
            data[pos] ^= 1;
            assert_ne!(digest64(&data), base, "flip at {pos} undetected");
            data[pos] ^= 1;
        }
        assert_eq!(digest64(&data), base);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = DigestLru::new(2);
        lru.insert(1, "one");
        lru.insert(2, "two");
        assert_eq!(lru.get(1), Some(&"one")); // 1 is now freshest
        lru.insert(3, "three"); // evicts 2
        assert!(lru.contains(1));
        assert!(!lru.contains(2));
        assert!(lru.contains(3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_recency_without_evicting() {
        let mut lru = DigestLru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.insert(1, 11); // refresh, not a new entry
        assert_eq!(lru.len(), 2);
        lru.insert(3, 30); // evicts 2, the stale one
        assert!(lru.contains(1));
        assert!(!lru.contains(2));
        assert_eq!(lru.get(1), Some(&11));
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut lru = DigestLru::new(0);
        lru.insert(1, ());
        assert!(lru.is_empty());
        assert_eq!(lru.get(1), None);
    }

    #[test]
    fn mirrored_caches_stay_in_lockstep() {
        // The protocol invariant: same capacity + same operation sequence
        // (insert on send == insert on receive, get on hit) => same digests.
        let mut guest = DigestLru::new(3);
        let mut server = DigestLru::new(3);
        let ops: &[u64] = &[5, 6, 7, 5, 8, 9, 6, 5, 10];
        for &d in ops {
            let g_hit = guest.get(d).is_some();
            let s_hit = server.get(d).is_some();
            assert_eq!(g_hit, s_hit, "caches diverged at digest {d}");
            if !g_hit {
                guest.insert(d, ());
                server.insert(d, ());
            }
        }
    }

    #[test]
    fn clear_and_remove() {
        let mut lru = DigestLru::new(4);
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert_eq!(lru.remove(1), Some("a"));
        assert_eq!(lru.remove(1), None);
        lru.clear();
        assert!(lru.is_empty());
    }
}
