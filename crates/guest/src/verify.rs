//! Client-side verification, the sync/async decision, and the values the
//! guest answers with itself for transparently-async calls (§4.2).

use ava_spec::{
    ApiDescriptor, Direction, ElemKind, EvalEnv, FunctionDesc, RetDesc, ScalarKind, Transfer,
};
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
    verify_args(desc, func, args, &env)?;
    let policy_sync = func
        .is_sync_for(&env, &desc.types)
        .map_err(|e| GuestError::BadArgument(e.to_string()))?;
    // Transparent asynchrony is only sound when this invocation has no
    // outputs the application could observe (§4.2).
    Ok(policy_sync || func.has_output_for(args))
}

/// Client-side argument verification against the descriptor; `env`
/// binds `args` to `func`'s parameter names.
fn verify_args(
    desc: &ApiDescriptor,
    func: &FunctionDesc,
    args: &[Value],
    env: &EvalEnv<'_>,
) -> Result<()> {
    if args.len() != func.params.len() {
        return Err(GuestError::BadArgument(format!(
            "`{}` takes {} arguments, got {}",
            func.name,
            func.params.len(),
            args.len()
        )));
    }
    for (param, arg) in func.params.iter().zip(args) {
        let bad = |what: String| Err(GuestError::BadArgument(format!("`{}`: {what}", param.name)));
        let well_shaped = match (&param.transfer, arg) {
            (Transfer::Scalar(_), v) => {
                v.as_i64().is_some() || matches!(v, Value::F32(_) | Value::F64(_))
            }
            (Transfer::Handle { .. }, Value::Handle(_)) | (Transfer::Str, Value::Str(_)) => true,
            (Transfer::Handle { .. } | Transfer::Str, Value::Null) => param.nullable,
            (Transfer::Callback | Transfer::Opaque | Transfer::OutElement { .. }, _) => true,
            // Permissible for nullable/out buffers.
            (Transfer::Buffer { .. }, Value::Null) => true,
            (Transfer::Buffer { len, elem }, value) => {
                let out_only = matches!(param.direction, Direction::Out);
                let expected = len
                    .eval_size(env, &desc.types)
                    .map_err(|e| GuestError::BadArgument(e.to_string()))?;
                match (elem, value) {
                    (ElemKind::Handle { .. }, Value::List(items)) if items.len() != expected => {
                        let n = items.len();
                        return bad(format!("handle list has {n} entries, spec says {expected}"));
                    }
                    (ElemKind::Bytes { elem_size }, Value::Bytes(bytes))
                        if !out_only && bytes.len() != expected * elem_size =>
                    {
                        let (n, want) = (bytes.len(), expected * elem_size);
                        return bad(format!("buffer is {n} bytes, spec expression gives {want}"));
                    }
                    (ElemKind::Handle { .. }, Value::List(_))
                    | (ElemKind::Bytes { .. }, Value::Bytes(_)) => true,
                    (_, Value::U64(_)) => out_only,
                    _ => false,
                }
            }
            _ => false,
        };
        if !well_shaped {
            return bad(format!("unexpected value shape {arg:?}"));
        }
    }
    Ok(())
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
        return (!ret_is_success(func, &rep.ret)).then_some(rep.ret);
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

/// True if `ret` equals the function's declared success value (non-status
/// returns always count as success).
pub(crate) fn ret_is_success(func: &FunctionDesc, ret: &Value) -> bool {
    match &func.ret {
        RetDesc::Status { success, .. } => ret.as_i64() == Some(*success),
        _ => true,
    }
}
