//! The API-handler contract between the generic server runtime and an
//! API-specific backend.
//!
//! CAvA generates one handler per API (the "API server" of Figure 3); in
//! this repository the generated handlers live in `ava-core` and bind to
//! the `simcl`/`simnc` silos. The server runtime performs everything
//! API-agnostic — handle translation, recording, swapping, reply framing —
//! and delegates the actual API execution to this trait.

use std::sync::Arc;

use ava_spec::FunctionDesc;
use ava_wire::Value;
use parking_lot::Mutex;

use crate::error::Result;

/// A handler that may be shared by several [`crate::ApiServer`]s bound to
/// the same device-pool slot. The mutex *is* the device: holding it for
/// the duration of a dispatch serializes all VMs mapped to the slot, so
/// contention on a shared device is real rather than simulated.
/// `parking_lot` is used deliberately — a panicking VM thread must not
/// poison the device for its slot-mates.
pub type SharedHandler = Arc<Mutex<Box<dyn ApiHandler>>>;

/// Wraps a handler for sharing across the servers of one pool slot.
pub fn shared_handler(handler: Box<dyn ApiHandler>) -> SharedHandler {
    Arc::new(Mutex::new(handler))
}

/// Result of dispatching one call.
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerOutput {
    /// Return value. Handle-valued returns carry *silo* handles; the
    /// runtime translates them to wire handles.
    pub ret: Value,
    /// Output-parameter values as `(param index, value)`; handle-valued
    /// outputs carry silo handles.
    pub outputs: Vec<(u32, Value)>,
    /// For calls whose parameters carry a `deallocates` annotation:
    /// whether the object actually died. `None` means "trust the
    /// annotation" (object dies on success); `Some(false)` keeps the wire
    /// handle alive (e.g. a release that only dropped a reference count).
    pub destroyed: Option<bool>,
    /// The call failed for lack of device memory: the server evicts a
    /// victim and retries it (buffer-granularity swapping).
    pub device_oom: bool,
}

impl Default for HandlerOutput {
    fn default() -> Self {
        HandlerOutput {
            ret: Value::Unit,
            outputs: Vec::new(),
            destroyed: None,
            device_oom: false,
        }
    }
}

impl HandlerOutput {
    /// An output with just a return value.
    pub fn ret(value: Value) -> Self {
        HandlerOutput {
            ret: value,
            ..HandlerOutput::default()
        }
    }
}

/// An API-specific execution backend.
pub trait ApiHandler: Send {
    /// Executes `func` with `args`. Handle arguments have already been
    /// translated to silo handles; buffer arguments carry their bytes.
    ///
    /// API-level failures (e.g. `CL_INVALID_VALUE`) must be encoded in the
    /// returned status value, not as `Err` — `Err` is reserved for
    /// transport-level problems that make the call undeliverable.
    fn dispatch(&mut self, func: &FunctionDesc, args: &[Value]) -> Result<HandlerOutput>;

    /// Handle kinds whose objects hold swappable device memory (e.g.
    /// `["cl_mem"]`). Default: none.
    fn swappable_kinds(&self) -> &[&str] {
        &[]
    }

    /// Reads back the device-resident payload of an object, if it has one
    /// (used for migration snapshots and swap-out).
    fn snapshot_object(&mut self, kind: &str, silo: u64) -> Option<Vec<u8>>;

    /// Writes a payload back into a (re)created object. Returns false if
    /// the object cannot accept the payload.
    fn restore_object(&mut self, kind: &str, silo: u64, data: &[u8]) -> bool;

    /// Frees an object outside the normal API flow (swap-out eviction and
    /// migration teardown). Returns false if the object was unknown.
    fn drop_object(&mut self, kind: &str, silo: u64) -> bool;
}
