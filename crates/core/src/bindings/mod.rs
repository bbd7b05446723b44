//! The "generated API servers": per-API handlers binding the generic
//! server runtime to the native silos.
//!
//! Both bindings have one shape: resolve the call's entry once per `FnId`
//! (`Entries`), read its arguments by index (`Args`), call the silo, and
//! build the reply from the silo's result (`reply`/`done`).

pub mod mvnc;
pub mod opencl;

pub use mvnc::MvncHandler;
pub use opencl::OpenClHandler;

use ava_server::{HandlerOutput, Result, ServerError};
use ava_spec::FunctionDesc;
use ava_wire::Value;
use simcl::ClError;
use simnc::NcError;

use crate::specs::EntryPoint;

/// The entry of every `FnId` a handler has met, resolved by name the
/// first time. `FnId`s are a spec's declaration order, so all descriptors
/// compiled from one spec agree on them.
pub(crate) struct Entries<E>(Vec<Option<E>>);

impl<E: EntryPoint> Entries<E> {
    pub(crate) fn new() -> Self {
        Entries(Vec::new())
    }

    /// The entry `func` names.
    pub(crate) fn of(&mut self, func: &FunctionDesc) -> Result<E> {
        let i = func.id as usize;
        if let Some(Some(entry)) = self.0.get(i) {
            return Ok(*entry);
        }
        let entry = E::from_name(&func.name)
            .ok_or_else(|| ServerError::Handler(format!("unhandled function `{}`", func.name)))?;
        if self.0.len() <= i {
            self.0.resize(i + 1, None);
        }
        self.0[i] = Some(entry);
        Ok(entry)
    }
}

/// A call's arguments, read by parameter index. A missing or mistyped
/// argument is [`ServerError::BadArguments`].
#[derive(Clone, Copy)]
pub(crate) struct Args<'a>(pub(crate) &'a [Value]);

impl<'a> Args<'a> {
    pub(crate) fn arg(self, i: usize) -> Result<&'a Value> {
        self.0
            .get(i)
            .ok_or_else(|| ServerError::BadArguments(format!("missing argument {i}")))
    }

    /// Argument `i` as `f` reads it; `what` names the expected type.
    pub(crate) fn read<T>(self, i: usize, what: &str, f: fn(&'a Value) -> Option<T>) -> Result<T> {
        f(self.arg(i)?)
            .ok_or_else(|| ServerError::BadArguments(format!("argument {i} is not {what}")))
    }

    pub(crate) fn handle(self, i: usize) -> Result<u64> {
        self.read(i, "a handle", Value::as_handle)
    }

    pub(crate) fn uint(self, i: usize) -> Result<u64> {
        self.read(i, "an integer", Value::as_u64)
    }

    pub(crate) fn usize(self, i: usize) -> Result<usize> {
        self.uint(i).map(|v| v as usize)
    }

    pub(crate) fn int(self, i: usize) -> Result<i64> {
        self.read(i, "an integer", Value::as_i64)
    }

    pub(crate) fn bytes(self, i: usize) -> Result<&'a [u8]> {
        self.read(i, "a buffer", |v| v.as_bytes().map(|b| b.as_ref()))
    }

    /// A buffer, or `None` for NULL.
    pub(crate) fn opt_bytes(self, i: usize) -> Result<Option<&'a [u8]>> {
        self.read(i, "a buffer or NULL", |v| match v {
            Value::Null => Some(None),
            v => v.as_bytes().map(|b| Some(b.as_ref())),
        })
    }

    pub(crate) fn string(self, i: usize) -> Result<&'a str> {
        self.read(i, "a string", Value::as_str)
    }

    /// A string, or `""` for NULL.
    pub(crate) fn opt_string(self, i: usize) -> Result<&'a str> {
        self.read(i, "a string or NULL", |v| match v {
            Value::Null => Some(""),
            v => v.as_str(),
        })
    }

    /// Whether the guest passed a (non-NULL) out-parameter `i`.
    pub(crate) fn wants(self, i: usize) -> bool {
        self.0.get(i).is_some_and(|v| !v.is_null())
    }

    /// Adds out-parameter `i` to `out` if the guest asked for it.
    pub(crate) fn put(self, out: &mut HandlerOutput, i: u32, value: impl FnOnce() -> Value) {
        if self.wants(i as usize) {
            out.outputs.push((i, value()));
        }
    }
}

/// An API's error type: the status code it carries, and the success code.
pub(crate) trait Status {
    const OK: i32;
    fn code(&self) -> i32;
}

impl Status for ClError {
    const OK: i32 = simcl::status::CL_SUCCESS;
    fn code(&self) -> i32 {
        self.0
    }
}

impl Status for NcError {
    const OK: i32 = simnc::status::MVNC_OK;
    fn code(&self) -> i32 {
        self.0
    }
}

/// The reply to a silo result: its status and, on success, the outputs
/// `fill` adds from the value.
pub(crate) fn reply<T, E: Status>(
    result: std::result::Result<T, E>,
    fill: impl FnOnce(&mut HandlerOutput, T),
) -> HandlerOutput {
    match result {
        Ok(value) => {
            let mut out = HandlerOutput::ret(Value::I32(E::OK));
            fill(&mut out, value);
            out
        }
        Err(e) => HandlerOutput::ret(Value::I32(e.code())),
    }
}

/// The reply to a status-only silo call.
pub(crate) fn done<E: Status>(result: std::result::Result<(), E>) -> HandlerOutput {
    HandlerOutput::ret(Value::I32(result.err().map_or(E::OK, |e| e.code())))
}
