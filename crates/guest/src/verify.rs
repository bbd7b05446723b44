//! Client-side verification, the sync/async decision, and the values the
//! guest answers with itself for transparently-async calls (§4.2).

use ava_spec::{ApiDescriptor, FunctionDesc, RetDesc, ScalarKind};
use ava_wire::{CallReply, ReplyStatus, Value};

use crate::{GuestError, Result};

/// Verifies `args` against `func`'s spec and decides the call's mode:
/// true when this invocation must run synchronously.
pub(crate) fn check_call(
    desc: &ApiDescriptor,
    func: &FunctionDesc,
    args: &[Value],
) -> Result<bool> {
    let env = desc.env_for(func, args);
    let bad = |e: ava_spec::SpecError| GuestError::BadArgument(e.to_string());
    func.verify_args(args, &env, &desc.types).map_err(bad)?;
    let policy_sync = func.is_sync_for(&env, &desc.types).map_err(bad)?;
    // Transparent asynchrony is only sound when this invocation has no
    // outputs the application could observe (§4.2).
    Ok(policy_sync || func.has_output_for(args))
}

/// The synthesized immediate return for a transparently-async call.
pub(crate) fn synthesized_success(func: &FunctionDesc) -> Value {
    let RetDesc::Status { kind, success } = func.ret else {
        return Value::Unit;
    };
    match kind {
        ScalarKind::I32 => Value::I32(success as i32),
        ScalarKind::I64 => Value::I64(success),
        ScalarKind::U32 => Value::U32(success as u32),
        ScalarKind::U64 => Value::U64(success as u64),
        ScalarKind::Bool => Value::Bool(success != 0),
        ScalarKind::F32 => Value::F32(success as f32),
        ScalarKind::F64 => Value::F64(success as f64),
    }
}

/// The failure an async call's reply leaves for deferred delivery: its
/// own return value when the server executed it and it failed; for a
/// transport or policy failure, a generic failure status if the return
/// type allows one. `None` for a success.
pub(crate) fn async_failure(func: &FunctionDesc, rep: CallReply) -> Option<Value> {
    if rep.status == ReplyStatus::Ok {
        return (!func.succeeded(&rep.ret)).then_some(rep.ret);
    }
    match func.ret {
        RetDesc::Status {
            kind: ScalarKind::I32,
            ..
        } => Some(Value::I32(-9999)),
        RetDesc::Status { .. } => Some(Value::I64(-9999)),
        _ => None,
    }
}
