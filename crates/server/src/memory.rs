//! Device-memory residency accounting and the host-side swap store.
//!
//! One [`MemoryManager`] exists per device (pool slot, or per VM on
//! private stacks). It is the bookkeeping half of the §4.3 swapping
//! machinery: the [`ApiServer`] decides *when* to evict (device OOM or
//! capacity pressure) and *which* object goes (its LRU order is the
//! stack's only one); the manager tracks the outcome — which buffers are
//! resident on the device versus parked in host memory — and keeps the
//! swapped payloads in a content-deduplicated store so identical content
//! swapped out by different VMs (or re-swapped by one) is held once.
//!
//! Accounting invariant (property-tested): for every manager,
//! `resident_bytes + swapped_bytes == live_bytes`, where live bytes is
//! the total footprint of all registered buffers. Eviction and fault-in
//! move bytes between the two sides; alloc/free move the total.
//!
//! [`ApiServer`]: crate::server::ApiServer

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ava_telemetry::{Counter, Gauge, IntMap, Registry};
use ava_wire::{digest64, VmId};

/// A point-in-time view of one manager's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryStats {
    /// Bytes of tracked buffers currently resident on the device.
    pub resident_bytes: u64,
    /// Bytes of tracked buffers parked in the host-side store.
    pub swapped_bytes: u64,
    /// Total tracked footprint (`resident + swapped`).
    pub live_bytes: u64,
    /// Buffers evicted to the host store (cumulative).
    pub evictions: u64,
    /// Buffers faulted back onto the device (cumulative).
    pub faults: u64,
    /// Allocations refused for exceeding a VM quota (cumulative).
    pub quota_rejects: u64,
    /// Bytes actually held by the host store (after dedup).
    pub host_store_bytes: u64,
    /// Evictions whose payload was already in the host store.
    pub dedup_hits: u64,
    /// Highest fraction `swapped / live` ever observed (0 when nothing
    /// was ever tracked). Used by tests to prove a run really ran with
    /// part of its working set swapped out.
    pub peak_swapped_fraction: f64,
}

#[derive(Debug, Clone)]
struct BufState {
    bytes: u64,
    resident: bool,
    /// Host-store key of the parked payload while swapped.
    key: Option<u64>,
}

#[derive(Debug)]
struct StoreEntry {
    data: Arc<Vec<u8>>,
    refs: usize,
}

#[derive(Default)]
struct MemState {
    buffers: IntMap<(VmId, u64), BufState>,
    store: HashMap<u64, StoreEntry>,
    resident_bytes: u64,
    swapped_bytes: u64,
    host_store_bytes: u64,
    peak_swapped_fraction: f64,
}

impl MemState {
    fn bump_peak(&mut self) {
        let live = self.resident_bytes + self.swapped_bytes;
        if live > 0 {
            let frac = self.swapped_bytes as f64 / live as f64;
            if frac > self.peak_swapped_fraction {
                self.peak_swapped_fraction = frac;
            }
        }
    }
}

/// Tracks device-buffer residency for one device and parks swapped-out
/// payloads in a content-deduplicated host-side store.
///
/// All methods are idempotent where re-invocation is plausible: marking
/// an already-swapped buffer evicted, or an already-resident buffer
/// faulted in, is a no-op — crash recovery may replay either transition.
pub struct MemoryManager {
    state: Mutex<MemState>,
    /// Soft resident-bytes ceiling; `None` disables proactive pressure
    /// eviction (device OOM remains the backstop).
    capacity: Option<u64>,
    resident_gauge: Gauge,
    swapped_gauge: Gauge,
    evictions: Counter,
    faults: Counter,
    quota_rejects: Counter,
    dedup_hits: Counter,
}

impl MemoryManager {
    /// Creates a manager with an optional resident-bytes capacity.
    pub fn new(capacity: Option<u64>) -> Self {
        Self {
            state: Mutex::new(MemState::default()),
            capacity,
            resident_gauge: Gauge::new(),
            swapped_gauge: Gauge::new(),
            evictions: Counter::new(),
            faults: Counter::new(),
            quota_rejects: Counter::new(),
            dedup_hits: Counter::new(),
        }
    }

    /// Registers the manager's gauges/counters as
    /// `mem.<scope>.{resident_bytes,swapped_bytes,faults,evictions}`.
    pub fn register(&self, registry: &Registry, scope: &str) {
        registry.register_gauge(&format!("mem.{scope}.resident_bytes"), &self.resident_gauge);
        registry.register_gauge(&format!("mem.{scope}.swapped_bytes"), &self.swapped_gauge);
        registry.register_counter(&format!("mem.{scope}.faults"), &self.faults);
        registry.register_counter(&format!("mem.{scope}.evictions"), &self.evictions);
    }

    /// The configured resident-bytes capacity, if any.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Locks the shared accounting state, recovering from poison.
    ///
    /// The manager is shared by every lane thread on a device. A lane
    /// that panics mid-update (transport torn down in the middle of a
    /// fault-in, for example) poisons the mutex; a plain `unwrap()` in
    /// the surviving lanes would turn one dead tenant into a cascade of
    /// panics during shutdown. Instead we take the state as-is — the
    /// mutation sites below use saturating arithmetic, so a
    /// half-applied transition degrades to slightly conservative
    /// accounting rather than an abort.
    fn locked(&self) -> MutexGuard<'_, MemState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or re-registers) a buffer as resident. Re-registering
    /// an existing buffer updates its size in place without disturbing
    /// its residency side.
    pub fn alloc(&self, vm: VmId, wire: u64, bytes: u64) {
        let mut st = self.locked();
        match st.buffers.get_mut(&(vm, wire)) {
            Some(buf) => {
                let old = buf.bytes;
                buf.bytes = bytes;
                if buf.resident {
                    st.resident_bytes = st.resident_bytes.saturating_sub(old) + bytes;
                } else {
                    st.swapped_bytes = st.swapped_bytes.saturating_sub(old) + bytes;
                }
            }
            None => {
                st.buffers.insert(
                    (vm, wire),
                    BufState {
                        bytes,
                        resident: true,
                        key: None,
                    },
                );
                st.resident_bytes += bytes;
            }
        }
        self.publish(&st);
    }

    /// Forgets a buffer, releasing its host-store reference if swapped.
    /// Unknown buffers are ignored (free can race a crash replay).
    pub fn free(&self, vm: VmId, wire: u64) {
        let mut st = self.locked();
        if let Some(buf) = st.buffers.remove(&(vm, wire)) {
            Self::drop_buf(&mut st, &buf);
        }
        self.publish(&st);
    }

    /// Forgets every buffer owned by `vm` (detach, migration away, or a
    /// crash whose replay will re-register the survivors).
    pub fn free_all(&self, vm: VmId) {
        let mut st = self.locked();
        let owned: Vec<(VmId, u64)> = st.buffers.keys().filter(|k| k.0 == vm).copied().collect();
        for key in owned {
            if let Some(buf) = st.buffers.remove(&key) {
                Self::drop_buf(&mut st, &buf);
            }
        }
        self.publish(&st);
    }

    fn drop_buf(st: &mut MemState, buf: &BufState) {
        if buf.resident {
            st.resident_bytes = st.resident_bytes.saturating_sub(buf.bytes);
        } else {
            st.swapped_bytes = st.swapped_bytes.saturating_sub(buf.bytes);
            if let Some(key) = buf.key {
                Self::store_unref(st, key);
            }
        }
    }

    fn store_unref(st: &mut MemState, key: u64) {
        if let Some(entry) = st.store.get_mut(&key) {
            entry.refs = entry.refs.saturating_sub(1);
            if entry.refs == 0 {
                if let Some(gone) = st.store.remove(&key) {
                    st.host_store_bytes =
                        st.host_store_bytes.saturating_sub(gone.data.len() as u64);
                }
            }
        }
    }

    /// Marks a buffer evicted and parks its payload in the host store,
    /// deduplicating by content: a payload shares an entry only when its
    /// bytes equal the entry's. Entries are keyed by the payload's digest;
    /// a payload whose digest collides with an entry of other bytes takes
    /// the next free key after it, so the store holds both and each
    /// buffer faults back its own. Returns the canonical `Arc` for the
    /// payload (shared when identical content was already parked).
    /// Idempotent: evicting an already-swapped buffer returns the stored
    /// payload without counting a second eviction.
    pub fn note_evicted(&self, vm: VmId, wire: u64, data: Arc<Vec<u8>>) -> Arc<Vec<u8>> {
        let mut st = self.locked();
        let Some(buf) = st.buffers.get(&(vm, wire)).cloned() else {
            // Untracked buffer (no resource(device_mem) annotation):
            // nothing to account, pass the payload through.
            return data;
        };
        if !buf.resident {
            if let Some(key) = buf.key {
                if let Some(entry) = st.store.get(&key) {
                    return Arc::clone(&entry.data);
                }
            }
            return data;
        }
        let mut key = digest64(&data);
        let canonical = loop {
            match st.store.get_mut(&key) {
                Some(entry) if entry.data == data => {
                    entry.refs += 1;
                    self.dedup_hits.inc();
                    break Arc::clone(&entry.data);
                }
                Some(_) => key = key.wrapping_add(1),
                None => {
                    st.host_store_bytes += data.len() as u64;
                    let entry = StoreEntry {
                        data: Arc::clone(&data),
                        refs: 1,
                    };
                    st.store.insert(key, entry);
                    break data;
                }
            }
        };
        let Some(buf) = st.buffers.get_mut(&(vm, wire)) else {
            // The entry vanished between the clone above and here only if
            // a panicking lane left the map mid-mutation; surrendering the
            // eviction is safer than unwrapping.
            return canonical;
        };
        buf.resident = false;
        buf.key = Some(key);
        let bytes = buf.bytes;
        st.resident_bytes = st.resident_bytes.saturating_sub(bytes);
        st.swapped_bytes += bytes;
        st.bump_peak();
        self.evictions.inc();
        self.publish(&st);
        canonical
    }

    /// Marks a swapped buffer resident again, releasing its host-store
    /// reference. Idempotent: faulting an already-resident buffer is a
    /// no-op.
    pub fn note_faulted(&self, vm: VmId, wire: u64) {
        let mut st = self.locked();
        let Some(buf) = st.buffers.get_mut(&(vm, wire)) else {
            return;
        };
        if buf.resident {
            return;
        }
        buf.resident = true;
        let key = buf.key.take();
        let bytes = buf.bytes;
        st.swapped_bytes = st.swapped_bytes.saturating_sub(bytes);
        st.resident_bytes += bytes;
        if let Some(key) = key {
            Self::store_unref(&mut st, key);
        }
        self.faults.inc();
        self.publish(&st);
    }

    /// Whether admitting `incoming` more resident bytes would cross the
    /// capacity ceiling (always `false` without a capacity).
    pub fn over_capacity(&self, incoming: u64) -> bool {
        match self.capacity {
            Some(cap) => {
                let st = self.locked();
                st.resident_bytes + incoming > cap
            }
            None => false,
        }
    }

    /// Counts a quota rejection (the server enforces the quota; the
    /// manager only keeps score).
    pub fn count_quota_reject(&self) {
        self.quota_rejects.inc();
    }

    /// Total tracked footprint (resident + swapped) owned by `vm`.
    pub fn vm_bytes(&self, vm: VmId) -> u64 {
        let st = self.locked();
        st.buffers
            .iter()
            .filter(|(k, _)| k.0 == vm)
            .map(|(_, b)| b.bytes)
            .sum()
    }

    /// Bytes currently resident on the device (all VMs on this device).
    pub fn resident_bytes(&self) -> u64 {
        self.locked().resident_bytes
    }

    /// A full accounting snapshot.
    pub fn stats(&self) -> MemoryStats {
        let st = self.locked();
        MemoryStats {
            resident_bytes: st.resident_bytes,
            swapped_bytes: st.swapped_bytes,
            live_bytes: st.resident_bytes + st.swapped_bytes,
            evictions: self.evictions.get(),
            faults: self.faults.get(),
            quota_rejects: self.quota_rejects.get(),
            host_store_bytes: st.host_store_bytes,
            dedup_hits: self.dedup_hits.get(),
            peak_swapped_fraction: st.peak_swapped_fraction,
        }
    }

    fn publish(&self, st: &MemState) {
        self.resident_gauge.set(st.resident_bytes as f64);
        self.swapped_gauge.set(st.swapped_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn payload(seed: u8, len: usize) -> Arc<Vec<u8>> {
        Arc::new((0..len).map(|i| seed.wrapping_add(i as u8)).collect())
    }

    #[test]
    fn alloc_free_moves_totals() {
        let mm = MemoryManager::new(None);
        mm.alloc(1, 10, 100);
        mm.alloc(1, 11, 50);
        mm.alloc(2, 10, 25);
        let s = mm.stats();
        assert_eq!(s.resident_bytes, 175);
        assert_eq!(s.swapped_bytes, 0);
        assert_eq!(mm.vm_bytes(1), 150);
        mm.free(1, 10);
        assert_eq!(mm.stats().resident_bytes, 75);
        mm.free_all(1);
        assert_eq!(mm.stats().resident_bytes, 25);
        mm.free_all(2);
        assert_eq!(mm.stats().live_bytes, 0);
    }

    #[test]
    fn evict_fault_round_trip_restores_accounting() {
        let mm = MemoryManager::new(None);
        mm.alloc(1, 10, 100);
        let parked = mm.note_evicted(1, 10, payload(7, 100));
        assert_eq!(parked.len(), 100);
        let s = mm.stats();
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.swapped_bytes, 100);
        assert_eq!(s.live_bytes, 100);
        assert_eq!(s.host_store_bytes, 100);
        assert_eq!(s.evictions, 1);
        assert!(s.peak_swapped_fraction > 0.99);
        mm.note_faulted(1, 10);
        let s = mm.stats();
        assert_eq!(s.resident_bytes, 100);
        assert_eq!(s.swapped_bytes, 0);
        assert_eq!(s.host_store_bytes, 0);
        assert_eq!(s.faults, 1);
    }

    #[test]
    fn identical_swapped_content_dedups_in_host_store() {
        let mm = MemoryManager::new(None);
        mm.alloc(1, 10, 64);
        mm.alloc(2, 20, 64);
        let a = mm.note_evicted(1, 10, payload(3, 64));
        let b = mm.note_evicted(2, 20, payload(3, 64));
        assert!(Arc::ptr_eq(&a, &b), "identical payloads must share one Arc");
        let s = mm.stats();
        assert_eq!(s.swapped_bytes, 128, "accounting is per-buffer");
        assert_eq!(s.host_store_bytes, 64, "storage is per-content");
        assert_eq!(s.dedup_hits, 1);
        // First fault-in keeps the shared entry alive for the second ref.
        mm.note_faulted(1, 10);
        assert_eq!(mm.stats().host_store_bytes, 64);
        mm.note_faulted(2, 20);
        assert_eq!(mm.stats().host_store_bytes, 0);
    }

    /// A digest match alone does not make two payloads equal: the store
    /// is shared by every VM on a device and the digest has no key, so a
    /// colliding payload must never be handed back for another's bytes.
    #[test]
    fn a_digest_collision_keeps_both_payloads() {
        let mm = MemoryManager::new(None);
        let (a, other) = (payload(1, 64), payload(2, 64));
        {
            // Plant `other` under A's digest, as a collision would.
            let mut st = mm.locked();
            st.host_store_bytes += other.len() as u64;
            let entry = StoreEntry {
                data: Arc::clone(&other),
                refs: 1,
            };
            st.store.insert(digest64(&a), entry);
        }
        mm.alloc(1, 10, 64);
        let parked = mm.note_evicted(1, 10, Arc::clone(&a));
        assert_eq!(parked, a, "evicting A must park A's bytes");
        let s = mm.stats();
        assert_eq!(s.dedup_hits, 0, "a collision is not a dedup hit");
        assert_eq!(s.host_store_bytes, 128, "both payloads are held");
        mm.note_faulted(1, 10);
        assert_eq!(mm.stats().host_store_bytes, 64, "only A's entry goes");
    }

    #[test]
    fn free_of_swapped_buffer_releases_store_ref() {
        let mm = MemoryManager::new(None);
        mm.alloc(1, 10, 32);
        mm.note_evicted(1, 10, payload(9, 32));
        mm.free(1, 10);
        let s = mm.stats();
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.host_store_bytes, 0);
    }

    #[test]
    fn capacity_pressure_signal() {
        let mm = MemoryManager::new(Some(100));
        assert!(!mm.over_capacity(100));
        assert!(mm.over_capacity(101));
        mm.alloc(1, 10, 60);
        assert!(!mm.over_capacity(40));
        assert!(mm.over_capacity(41));
        let unlimited = MemoryManager::new(None);
        assert!(!unlimited.over_capacity(u64::MAX / 2));
    }

    #[test]
    fn double_evict_and_double_fault_are_idempotent() {
        let mm = MemoryManager::new(None);
        mm.alloc(1, 10, 40);
        let first = mm.note_evicted(1, 10, payload(5, 40));
        let again = mm.note_evicted(1, 10, payload(5, 40));
        assert!(Arc::ptr_eq(&first, &again));
        let s = mm.stats();
        assert_eq!(s.evictions, 1, "second evict must not double-count");
        assert_eq!(s.swapped_bytes, 40);
        mm.note_faulted(1, 10);
        mm.note_faulted(1, 10);
        let s = mm.stats();
        assert_eq!(s.faults, 1, "second fault must not double-count");
        assert_eq!(s.resident_bytes, 40);
        assert_eq!(s.swapped_bytes, 0);
    }

    #[test]
    fn gauges_track_residency() {
        let registry = Registry::new();
        let mm = MemoryManager::new(None);
        mm.register(&registry, "slot0");
        mm.alloc(1, 10, 100);
        mm.note_evicted(1, 10, payload(2, 100));
        let snap = registry.snapshot();
        assert_eq!(snap.gauges.get("mem.slot0.resident_bytes"), Some(&0.0));
        assert_eq!(snap.gauges.get("mem.slot0.swapped_bytes"), Some(&100.0));
        assert_eq!(snap.counters.get("mem.slot0.evictions"), Some(&1));
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        let mm = Arc::new(MemoryManager::new(Some(1024)));
        mm.alloc(1, 10, 100);
        mm.note_evicted(1, 10, payload(1, 100));
        // A lane thread dies while holding the accounting lock — the
        // shape of a transport being torn down mid-fault-in.
        let mm2 = Arc::clone(&mm);
        let _ = std::thread::spawn(move || {
            let _guard = mm2.state.lock().unwrap();
            panic!("lane died mid-fault-in");
        })
        .join();
        assert!(mm.state.is_poisoned());
        // Every entry point still works on the surviving lanes, and the
        // shutdown path (free_all) completes cleanly.
        mm.note_faulted(1, 10);
        assert_eq!(mm.stats().resident_bytes, 100);
        mm.alloc(1, 11, 50);
        assert!(!mm.over_capacity(0));
        assert_eq!(mm.vm_bytes(1), 150);
        assert_eq!(mm.resident_bytes(), 150);
        mm.free(1, 11);
        mm.free_all(1);
        let s = mm.stats();
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.host_store_bytes, 0);
    }

    /// One step of an arbitrary workload against the manager.
    #[derive(Debug, Clone)]
    enum Op {
        Alloc { vm: VmId, wire: u64, bytes: u64 },
        Free { vm: VmId, wire: u64 },
        Evict { vm: VmId, wire: u64 },
        Fault { vm: VmId, wire: u64 },
        FreeAll { vm: VmId },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let vm = 0u32..3;
        let wire = 0u64..8;
        prop_oneof![
            (vm.clone(), wire.clone(), 1u64..512).prop_map(|(vm, wire, bytes)| Op::Alloc {
                vm,
                wire,
                bytes
            }),
            (vm.clone(), wire.clone()).prop_map(|(vm, wire)| Op::Free { vm, wire }),
            (vm.clone(), wire.clone()).prop_map(|(vm, wire)| Op::Evict { vm, wire }),
            (vm.clone(), wire).prop_map(|(vm, wire)| Op::Fault { vm, wire }),
            vm.prop_map(|vm| Op::FreeAll { vm }),
        ]
    }

    fn run_ops(mm: &MemoryManager, ops: &[Op]) {
        for op in ops {
            match *op {
                Op::Alloc { vm, wire, bytes } => mm.alloc(vm, wire, bytes),
                Op::Free { vm, wire } => mm.free(vm, wire),
                Op::Evict { vm, wire } => {
                    // Payload length need not match accounting; equal wires
                    // park equal content, so the store dedups across VMs.
                    mm.note_evicted(vm, wire, payload(wire as u8, 16));
                }
                Op::Fault { vm, wire } => mm.note_faulted(vm, wire),
                Op::FreeAll { vm } => mm.free_all(vm),
            }
        }
    }

    proptest! {
        /// The core invariant: however the workload interleaves
        /// alloc/free/evict/fault, resident + swapped == live.
        #[test]
        fn residency_invariant_holds(ops in proptest::collection::vec(arb_op(), 0..64)) {
            let mm = MemoryManager::new(None);
            run_ops(&mm, &ops);
            let s = mm.stats();
            prop_assert_eq!(s.resident_bytes + s.swapped_bytes, s.live_bytes);
            // live_bytes must equal the sum over per-VM footprints.
            let per_vm: u64 = (0..3).map(|vm| mm.vm_bytes(vm)).sum();
            prop_assert_eq!(per_vm, s.live_bytes);
        }

        /// Store refcounts can never leak: freeing everything empties the
        /// host store exactly.
        #[test]
        fn host_store_drains_on_free_all(ops in proptest::collection::vec(arb_op(), 0..64)) {
            let mm = MemoryManager::new(None);
            run_ops(&mm, &ops);
            for vm in 0..3 {
                mm.free_all(vm);
            }
            let s = mm.stats();
            prop_assert_eq!(s.live_bytes, 0);
            prop_assert_eq!(s.host_store_bytes, 0);
        }
    }
}
