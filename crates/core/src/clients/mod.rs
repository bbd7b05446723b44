//! The "generated guest libraries": typed remoting clients implementing
//! the same API traits as the native silos.

pub mod mvnc;
pub mod opencl;

pub use mvnc::MvncClient;
pub use opencl::OpenClClient;

use ava_guest::{CallResult, GuestError, GuestLibrary};
use ava_wire::{FnId, Value};

/// Forwards one call to a function resolved by a client's table.
fn call_by_id(
    lib: &GuestLibrary,
    id: Option<FnId>,
    args: Vec<Value>,
) -> ava_guest::Result<CallResult> {
    let func = id
        .and_then(|id| lib.descriptor().by_id(id))
        .ok_or_else(|| GuestError::UnknownFunction("entry point not in the descriptor".into()))?;
    lib.call_fn(func, args)
}
