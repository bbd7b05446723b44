//! Per-VM handle translation.
//!
//! The guest never sees silo (vendor-library) handles: every object handle
//! crossing the transport is a *wire handle* minted by the API server. The
//! table maps wire → silo and records the handle kind so translations are
//! type-checked. An entry can also be in the `Swapped` state, meaning its
//! device-side object was evicted and its payload parked in host memory
//! (buffer-granularity swapping, §4.3). Each entry also carries what the
//! server knows about the object — its estimated device bytes and its
//! LRU stamp — so retiring a handle is one `remove`.

use std::sync::Arc;

use ava_telemetry::IntMap;

use crate::error::{Result, ServerError};

/// State of one wire handle.
#[derive(Debug, Clone, PartialEq)]
pub enum HandleState {
    /// Backed by a live silo object.
    Live(u64),
    /// Device object evicted; payload parked host-side. The payload is
    /// shared with the [`MemoryManager`]'s digest-deduplicated store, so
    /// identical swapped content is held once however many handles (or
    /// VMs) reference it.
    ///
    /// [`MemoryManager`]: crate::memory::MemoryManager
    Swapped {
        /// Saved object contents (shared with the host-side store).
        data: Arc<Vec<u8>>,
    },
}

/// One table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct HandleEntry {
    /// Handle kind (the typedef name, e.g. `cl_mem`).
    pub kind: String,
    /// Live or swapped state.
    pub state: HandleState,
    /// Estimated device bytes, for objects created by a `record(alloc)`
    /// call with a `resource(device_mem, ...)` annotation.
    pub(crate) bytes: Option<u64>,
    /// The server's LRU clock at the object's last use (0: never used);
    /// swap victims are the least recent.
    pub(crate) last_use: u64,
}

impl HandleEntry {
    fn live(kind: &str, silo: u64) -> Self {
        HandleEntry {
            kind: kind.to_string(),
            state: HandleState::Live(silo),
            bytes: None,
            last_use: 0,
        }
    }
}

/// The wire↔silo handle table for one VM.
#[derive(Debug, Default)]
pub struct HandleTable {
    next: u64,
    map: IntMap<u64, HandleEntry>,
}

impl HandleTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        HandleTable {
            next: 0x4000_0000,
            map: IntMap::default(),
        }
    }

    /// Mints a new wire handle for a silo object.
    pub fn insert(&mut self, kind: &str, silo: u64) -> u64 {
        let wire = self.next;
        self.next += 1;
        self.map.insert(wire, HandleEntry::live(kind, silo));
        wire
    }

    /// Binds a *specific* wire handle (used by migration replay, where the
    /// guest already holds the old wire values).
    pub fn bind(&mut self, wire: u64, kind: &str, silo: u64) {
        self.next = self.next.max(wire + 1);
        self.map.insert(wire, HandleEntry::live(kind, silo));
    }

    /// Looks up an entry.
    pub fn get(&self, wire: u64) -> Option<&HandleEntry> {
        self.map.get(&wire)
    }

    /// Looks up an entry for update.
    pub(crate) fn get_mut(&mut self, wire: u64) -> Option<&mut HandleEntry> {
        self.map.get_mut(&wire)
    }

    /// All entries (wire, entry), in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &HandleEntry)> {
        self.map.iter().map(|(w, e)| (*w, e))
    }

    /// Translates a wire handle of the expected kind to its silo handle.
    pub fn to_silo(&self, wire: u64, kind: &str) -> Result<u64> {
        let entry = self.map.get(&wire).ok_or(ServerError::BadHandle(wire))?;
        if entry.kind != kind {
            return Err(ServerError::BadArguments(format!(
                "handle {wire:#x} is a {} but a {kind} was expected",
                entry.kind
            )));
        }
        match &entry.state {
            HandleState::Live(silo) => Ok(*silo),
            HandleState::Swapped { .. } => Err(ServerError::Swap(format!(
                "handle {wire:#x} is swapped out"
            ))),
        }
    }

    /// Removes an entry, returning it.
    pub fn remove(&mut self, wire: u64) -> Option<HandleEntry> {
        self.map.remove(&wire)
    }

    /// Marks a handle swapped-out, parking `data`.
    pub fn mark_swapped(&mut self, wire: u64, data: Arc<Vec<u8>>) -> Result<()> {
        let entry = self
            .map
            .get_mut(&wire)
            .ok_or(ServerError::BadHandle(wire))?;
        entry.state = HandleState::Swapped { data };
        Ok(())
    }

    /// Brings a swapped handle back to life with a new silo handle,
    /// returning the parked payload.
    pub fn mark_live(&mut self, wire: u64, silo: u64) -> Result<Arc<Vec<u8>>> {
        let entry = self
            .map
            .get_mut(&wire)
            .ok_or(ServerError::BadHandle(wire))?;
        match std::mem::replace(&mut entry.state, HandleState::Live(silo)) {
            HandleState::Swapped { data } => Ok(data),
            live @ HandleState::Live(_) => {
                entry.state = live;
                Err(ServerError::Swap(format!(
                    "handle {wire:#x} was not swapped"
                )))
            }
        }
    }

    /// True if the handle is currently swapped out.
    pub fn is_swapped(&self, wire: u64) -> bool {
        matches!(
            self.map.get(&wire).map(|e| &e.state),
            Some(HandleState::Swapped { .. })
        )
    }

    /// All entries (wire, entry), sorted by wire handle.
    pub fn entries(&self) -> Vec<(u64, &HandleEntry)> {
        let mut out: Vec<(u64, &HandleEntry)> = self.iter().collect();
        out.sort_by_key(|(w, _)| *w);
        out
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_translate_remove() {
        let mut t = HandleTable::new();
        let w = t.insert("cl_mem", 0x99);
        assert_eq!(t.to_silo(w, "cl_mem").unwrap(), 0x99);
        assert!(t.to_silo(w, "cl_context").is_err(), "kind mismatch");
        assert!(t.to_silo(0xdead, "cl_mem").is_err(), "unknown handle");
        assert!(t.remove(w).is_some());
        assert!(t.to_silo(w, "cl_mem").is_err());
    }

    #[test]
    fn wire_values_are_unique_and_disjoint_from_silo() {
        let mut t = HandleTable::new();
        let a = t.insert("k", 1);
        let b = t.insert("k", 1);
        assert_ne!(a, b);
        assert!(
            a >= 0x4000_0000,
            "wire namespace must not collide with silo ids"
        );
    }

    #[test]
    fn bind_reserves_explicit_wire_values() {
        let mut t = HandleTable::new();
        t.bind(0x4000_0005, "cl_mem", 7);
        assert_eq!(t.to_silo(0x4000_0005, "cl_mem").unwrap(), 7);
        // Fresh inserts must not collide with the bound value.
        let w = t.insert("cl_mem", 8);
        assert!(w > 0x4000_0005);
    }

    #[test]
    fn swap_lifecycle() {
        let mut t = HandleTable::new();
        let w = t.insert("cl_mem", 3);
        assert!(!t.is_swapped(w));
        t.mark_swapped(w, Arc::new(vec![1, 2, 3])).unwrap();
        assert!(t.is_swapped(w));
        assert!(t.to_silo(w, "cl_mem").is_err(), "swapped handle not usable");
        let data = t.mark_live(w, 12).unwrap();
        assert_eq!(*data, vec![1, 2, 3]);
        assert_eq!(t.to_silo(w, "cl_mem").unwrap(), 12);
        assert!(t.mark_live(w, 13).is_err(), "double swap-in rejected");
    }
}
