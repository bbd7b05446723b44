//! The "generated guest libraries": typed remoting clients implementing
//! the same API traits as the native silos.

pub mod mvnc;
pub mod opencl;

pub use mvnc::MvncClient;
pub use opencl::OpenClClient;

use ava_guest::{CallResult, GuestError, GuestLibrary};
use ava_wire::{FnId, Value};

/// Declares the entry points a client forwards, as an enum whose variants
/// index the table `resolve` builds from the descriptor once, when the
/// client is constructed — so a call never searches the descriptor by
/// name. A name the descriptor lacks resolves to `None`.
macro_rules! fn_table {
    ($table:ident { $($variant:ident => $name:literal,)* }) => {
        #[derive(Clone, Copy)]
        enum $table {
            $($variant,)*
        }

        impl $table {
            fn resolve(desc: &ava_spec::ApiDescriptor) -> Vec<Option<ava_wire::FnId>> {
                [$($name,)*]
                    .iter()
                    .map(|name| desc.by_name(name).map(|f| f.id))
                    .collect()
            }
        }
    };
}
pub(crate) use fn_table;

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
