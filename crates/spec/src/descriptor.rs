//! The runtime API descriptor: the lowered, validated form of a
//! specification that drives marshaling in the guest library, policy in the
//! router and dispatch in the API server.

use std::collections::BTreeMap;

use ava_wire::{FnId, Value};

use crate::ast::{ApiSpec, DirectionSpec, RecordCategory, SyncSpec};
use crate::ctypes::{CType, TypeTable};
use crate::error::{Result, SpecError, SpecErrorKind};
use crate::expr::{EvalEnv, Expr};
use crate::infer;

/// Scalar wire representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarKind {
    Bool,
    I32,
    I64,
    U32,
    U64,
    F32,
    F64,
}

impl ScalarKind {
    /// Size of the scalar in bytes.
    pub fn size(self) -> usize {
        match self {
            ScalarKind::Bool => 1,
            ScalarKind::I32 | ScalarKind::U32 | ScalarKind::F32 => 4,
            ScalarKind::I64 | ScalarKind::U64 | ScalarKind::F64 => 8,
        }
    }
}

/// Element type of a buffer or out-element parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ElemKind {
    /// Raw bytes; `elem_size` is the stride per logical element (1 for
    /// `void*` byte buffers, `sizeof(T)` for typed buffers and structs).
    Bytes {
        /// Bytes per element.
        elem_size: usize,
    },
    /// Scalar element (used for single-element out pointers such as
    /// `cl_int *errcode_ret`).
    Scalar(ScalarKind),
    /// Opaque handle element; values are translated through the handle
    /// table on each side.
    Handle {
        /// Handle kind (the typedef name, e.g. `cl_event`).
        kind: String,
    },
}

/// Direction of data flow for a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Guest → server only.
    In,
    /// Server → guest only.
    Out,
    /// Both directions.
    InOut,
}

/// How a parameter's native representation maps to wire values.
#[derive(Debug, Clone, PartialEq)]
pub enum Transfer {
    /// Pass-by-value scalar.
    Scalar(ScalarKind),
    /// Opaque handle (translated through per-VM handle tables).
    Handle {
        /// Handle kind name.
        kind: String,
        /// The call releases this object (the server drops its table entry).
        deallocates: bool,
    },
    /// Pointer to `len` elements.
    Buffer {
        /// Element count expression, evaluated against sibling arguments.
        len: Expr,
        /// Element representation.
        elem: ElemKind,
    },
    /// Pointer to exactly one element, written by the callee. A handle
    /// element gets a fresh wire handle.
    OutElement {
        /// Element representation.
        elem: ElemKind,
    },
    /// NUL-terminated input string.
    Str,
    /// Function pointer: the guest registers the callback locally and sends
    /// a registration token.
    Callback,
    /// Pointer-sized opaque token passed through without interpretation
    /// (callback `user_data`).
    Opaque,
}

/// Return-value treatment.
#[derive(Debug, Clone, PartialEq)]
pub enum RetDesc {
    /// `void`.
    Void,
    /// Plain scalar.
    Scalar(ScalarKind),
    /// Status code with a known success value (synthesized for async calls).
    Status {
        /// Scalar representation of the status type.
        kind: ScalarKind,
        /// The "call succeeded" value (e.g. `CL_SUCCESS` = 0).
        success: i64,
    },
    /// Returned opaque handle; the server enters it into the handle table.
    Handle {
        /// Handle kind name.
        kind: String,
    },
}

/// Blocking policy after lowering.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncPolicy {
    /// Always wait for the reply.
    Sync,
    /// Never wait (deferred error delivery).
    Async,
    /// Wait iff the expression evaluates true against the arguments.
    SyncIf(Expr),
}

/// A resource-cost estimate attached to a function (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceEstimate {
    /// Resource name (e.g. `device_time_us`, `bus_bytes`, `device_mem`).
    pub resource: String,
    /// Amount expression over the call's arguments.
    pub amount: Expr,
}

/// One parameter of a lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDesc {
    /// Parameter name (used by size expressions).
    pub name: String,
    /// Data-flow direction.
    pub direction: Direction,
    /// Wire mapping.
    pub transfer: Transfer,
    /// `NULL` is a legal value.
    pub nullable: bool,
}

/// One lowered API function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDesc {
    /// Stable function id (index into [`ApiDescriptor::functions`]).
    pub id: FnId,
    /// API function name.
    pub name: String,
    /// Return treatment.
    pub ret: RetDesc,
    /// Parameters in declaration order.
    pub params: Vec<ParamDesc>,
    /// Blocking policy.
    pub sync: SyncPolicy,
    /// What migration records of the call.
    pub record: Option<RecordCategory>,
    /// Resource-cost estimates for the router's scheduler.
    pub resources: Vec<ResourceEstimate>,
}

impl FunctionDesc {
    /// Whether the call *always* carries output data (non-nullable out
    /// params or a non-status return). Transparently-async forwarding is
    /// only faithful when there is no output (§4.2); nullable out
    /// parameters (e.g. an optional `cl_event *event`) are checked
    /// dynamically by the guest library per call.
    pub fn has_output(&self) -> bool {
        let out_param = self.params.iter().any(|p| {
            !p.nullable
                && (matches!(p.direction, Direction::Out | Direction::InOut)
                    || matches!(p.transfer, Transfer::OutElement { .. }))
        });
        let out_ret = !matches!(self.ret, RetDesc::Void | RetDesc::Status { .. });
        out_param || out_ret
    }

    /// Whether this particular invocation carries output data, given the
    /// actual arguments (a `NULL` passed for a nullable out parameter
    /// suppresses that output).
    pub fn has_output_for(&self, args: &[Value]) -> bool {
        if !matches!(self.ret, RetDesc::Void | RetDesc::Status { .. }) {
            return true;
        }
        self.params.iter().zip(args.iter()).any(|(p, arg)| {
            let is_out = matches!(p.direction, Direction::Out | Direction::InOut)
                || matches!(p.transfer, Transfer::OutElement { .. });
            is_out && !arg.is_null()
        })
    }

    /// Evaluates the sync policy against marshaled arguments.
    pub fn is_sync_for(&self, env: &EvalEnv<'_>, types: &TypeTable) -> Result<bool> {
        match &self.sync {
            SyncPolicy::Sync => Ok(true),
            SyncPolicy::Async => Ok(false),
            SyncPolicy::SyncIf(cond) => cond.eval_bool(env, types),
        }
    }

    /// Checks wire-form `args` against this function's argument contract:
    /// the arity, each value's shape for its parameter's [`Transfer`], each
    /// input buffer's length against its size expression, and each handle
    /// list's length. `NULL` passes for any buffer, an out-only buffer may
    /// be a `U64` placeholder, and [`Value::CachedBytes`] counts as a
    /// buffer of its `len` bytes (what the router sees on transfer-cache
    /// hits). `env` binds `args` to the parameter names; an accepted call
    /// allocates nothing.
    pub fn verify_args(&self, args: &[Value], env: &EvalEnv<'_>, types: &TypeTable) -> Result<()> {
        if args.len() != self.params.len() {
            let (want, got) = (self.params.len(), args.len());
            return Err(bad_argument(format!(
                "`{}` takes {want} arguments, got {got}",
                self.name
            )));
        }
        for (param, arg) in self.params.iter().zip(args) {
            param.verify(arg, env, types)?;
        }
        Ok(())
    }

    /// Whether `ret` reports success: a status equals its success value,
    /// a returned handle is not `NULL`, and any other return succeeds.
    pub fn succeeded(&self, ret: &Value) -> bool {
        match &self.ret {
            RetDesc::Status { success, .. } => ret.as_i64() == Some(*success),
            RetDesc::Handle { .. } => !ret.is_null(),
            RetDesc::Void | RetDesc::Scalar(_) => true,
        }
    }
}

impl ParamDesc {
    /// [`FunctionDesc::verify_args`] for one argument.
    fn verify(&self, arg: &Value, env: &EvalEnv<'_>, types: &TypeTable) -> Result<()> {
        let bad = |what: String| Err(bad_argument(format!("`{}`: {what}", self.name)));
        let (len, elem) = match (&self.transfer, arg) {
            (Transfer::Scalar(_), v) if v.as_i64().is_some() => return Ok(()),
            (Transfer::Scalar(_), Value::F32(_) | Value::F64(_)) => return Ok(()),
            (Transfer::Handle { .. }, Value::Handle(_)) | (Transfer::Str, Value::Str(_)) => {
                return Ok(())
            }
            (Transfer::Handle { .. } | Transfer::Str, Value::Null) if self.nullable => {
                return Ok(())
            }
            (Transfer::Callback | Transfer::Opaque | Transfer::OutElement { .. }, _) => {
                return Ok(())
            }
            (Transfer::Buffer { .. }, Value::Null) => return Ok(()),
            (Transfer::Buffer { len, elem }, _) => (len, elem),
            _ => return bad(format!("unexpected value shape {arg:?}")),
        };
        let expected = len.eval_size(env, types)?;
        let out_only = self.direction == Direction::Out;
        // What the value holds against what its size expression gives.
        let (held, want, unit) = match (elem, arg) {
            (ElemKind::Handle { .. }, Value::List(items)) => {
                (items.len(), Some(expected), "entries")
            }
            (ElemKind::Bytes { elem_size }, Value::Bytes(bytes)) if !out_only => {
                (bytes.len(), expected.checked_mul(*elem_size), "bytes")
            }
            (ElemKind::Bytes { elem_size }, &Value::CachedBytes { len, .. }) if !out_only => {
                (len as usize, expected.checked_mul(*elem_size), "bytes")
            }
            (ElemKind::Bytes { .. }, Value::Bytes(_) | Value::CachedBytes { .. }) => return Ok(()),
            (_, Value::U64(_)) if out_only => return Ok(()),
            _ => return bad(format!("unexpected value shape {arg:?}")),
        };
        if want != Some(held) {
            return bad(format!(
                "holds {held} {unit}, its size expression gives {want:?}"
            ));
        }
        Ok(())
    }
}

fn bad_argument(message: String) -> SpecError {
    SpecError::nowhere(SpecErrorKind::Argument(message))
}

/// Options controlling lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerOptions {
    /// Honour `async` annotations. When false every call is lowered as
    /// synchronous — the "unoptimized specification" baseline from §5.
    pub enable_async: bool,
    /// Apply name-convention inference for un-annotated pointer sizes
    /// (`<p>_size`, `num_<p>`) instead of failing.
    pub infer_conventions: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            enable_async: true,
            infer_conventions: true,
        }
    }
}

/// The complete lowered API.
#[derive(Debug, Clone)]
pub struct ApiDescriptor {
    /// API name.
    pub api_name: String,
    /// API version.
    pub version: u32,
    /// Integer constants from the header (used by expression evaluation).
    pub constants: BTreeMap<String, i64>,
    /// Type table (used by `sizeof` in expressions).
    pub types: TypeTable,
    /// Lowered functions; `functions[i].id == i`.
    pub functions: Vec<FunctionDesc>,
    by_name: BTreeMap<String, FnId>,
}

impl ApiDescriptor {
    /// Looks up a function by name.
    pub fn by_name(&self, name: &str) -> Option<&FunctionDesc> {
        self.by_name
            .get(name)
            .map(|id| &self.functions[*id as usize])
    }

    /// Looks up a function by id.
    pub fn by_id(&self, id: FnId) -> Option<&FunctionDesc> {
        self.functions.get(id as usize)
    }

    /// Builds an evaluation environment binding `args` (wire values) to the
    /// parameter names of `func`.
    pub fn env_for<'a>(&'a self, func: &'a FunctionDesc, args: &'a [Value]) -> EvalEnv<'a> {
        EvalEnv::for_call(&self.constants, &func.params, args)
    }
}

/// Lowers a parsed specification to a runtime descriptor.
pub fn lower(spec: &ApiSpec, opts: LowerOptions) -> Result<ApiDescriptor> {
    let mut functions = Vec::new();
    let mut by_name = BTreeMap::new();

    for proto in &spec.header.protos {
        if by_name.contains_key(&proto.name) {
            continue; // Duplicate declaration (header + inline spec).
        }
        // Explicit spec or inferred default.
        let owned_spec;
        let fspec = match spec.function(&proto.name) {
            Some(f) => f,
            None => {
                owned_spec =
                    infer::infer_function_spec(proto, &spec.header.types, opts.infer_conventions);
                &owned_spec
            }
        };
        if fspec.unsupported {
            continue;
        }
        let id = functions.len() as FnId;
        let func = lower_function(spec, fspec, id, opts).map_err(|e| {
            SpecError::at(
                e.loc,
                SpecErrorKind::Lowering(format!("in `{}`: {}", proto.name, e.kind_text())),
            )
        })?;
        by_name.insert(func.name.clone(), id);
        functions.push(func);
    }

    Ok(ApiDescriptor {
        api_name: spec.name.clone(),
        version: spec.version,
        constants: spec.header.constants.clone(),
        types: spec.header.types.clone(),
        functions,
        by_name,
    })
}

impl SpecError {
    fn kind_text(&self) -> String {
        // Reuse Display minus the location prefix.
        let full = self.to_string();
        match full.split_once(": ") {
            Some((maybe_loc, rest)) if maybe_loc.contains(':') => rest.to_string(),
            _ => full,
        }
    }
}

fn lower_function(
    spec: &ApiSpec,
    fspec: &crate::ast::FunctionSpec,
    id: FnId,
    opts: LowerOptions,
) -> Result<FunctionDesc> {
    let proto = &fspec.proto;

    if proto.params.iter().any(|p| p.name == "...") {
        return Err(SpecError::nowhere(SpecErrorKind::Lowering(
            "variadic functions cannot be forwarded; annotate `unsupported`".into(),
        )));
    }

    let mut params = Vec::with_capacity(proto.params.len());
    for cparam in &proto.params {
        let pspec = fspec.param(&cparam.name);
        params.push(lower_param(spec, proto, cparam, &pspec)?);
    }

    let ret = lower_return(spec, &proto.ret)?;

    let sync = if opts.enable_async {
        match &fspec.sync {
            SyncSpec::Default | SyncSpec::Sync => SyncPolicy::Sync,
            SyncSpec::Async => SyncPolicy::Async,
            SyncSpec::SyncIf(e) => SyncPolicy::SyncIf(e.clone()),
        }
    } else {
        SyncPolicy::Sync
    };

    if let Some(RecordCategory::Writes { holder, index }) = &fspec.record {
        check_slot_key(&params[*holder], index.iter().map(|&i| &params[i]))?;
    }
    let func = FunctionDesc {
        id,
        name: proto.name.clone(),
        ret,
        params,
        sync,
        record: fspec.record.clone(),
        resources: fspec
            .resources
            .iter()
            .map(|(name, amount)| ResourceEstimate {
                resource: name.clone(),
                amount: amount.clone(),
            })
            .collect(),
    };

    // Async forwarding of a call *with outputs* cannot be faithful; the
    // spec language allows it only through the conditional form (where the
    // sync branch covers the output-producing case, as in
    // clEnqueueReadBuffer's blocking_read). Reject a plain `async` with
    // outputs other than status returns.
    if matches!(func.sync, SyncPolicy::Async) && func.has_output() {
        return Err(SpecError::nowhere(SpecErrorKind::Lowering(
            "function annotated `async` has output parameters; \
             errors and outputs cannot be delivered"
                .into(),
        )));
    }

    // Validate that every expression only references known scalar params
    // or constants.
    let known: Vec<&str> = func.params.iter().map(|p| p.name.as_str()).collect();
    let check_expr = |e: &Expr| -> Result<()> {
        let mut names = Vec::new();
        e.referenced_names(&mut names);
        for n in &names {
            if !known.contains(&n.as_str()) && !spec.header.constants.contains_key(n) {
                return Err(SpecError::nowhere(SpecErrorKind::Unknown(format!(
                    "expression references `{n}`, which is neither a parameter \
                     nor a constant"
                ))));
            }
        }
        Ok(())
    };
    for p in &func.params {
        if let Transfer::Buffer { len, .. } = &p.transfer {
            check_expr(len)?;
        }
    }
    if let SyncPolicy::SyncIf(cond) = &func.sync {
        check_expr(cond)?;
    }
    for r in &func.resources {
        check_expr(&r.amount)?;
    }

    Ok(func)
}

/// Checks a `writes(...)` key: a handle parameter, then integer scalars.
fn check_slot_key<'a>(
    holder: &ParamDesc,
    mut index: impl Iterator<Item = &'a ParamDesc>,
) -> Result<()> {
    let float = |k| matches!(k, ScalarKind::F32 | ScalarKind::F64);
    let integer = |p: &&ParamDesc| matches!(p.transfer, Transfer::Scalar(k) if !float(k));
    let bad = if !matches!(holder.transfer, Transfer::Handle { .. }) {
        &holder.name
    } else if let Some(p) = index.find(|p| !integer(p)) {
        &p.name
    } else {
        return Ok(());
    };
    Err(SpecError::nowhere(SpecErrorKind::Lowering(format!(
        "writes(...) takes a handle parameter, then integer scalars: `{bad}` does not fit"
    ))))
}

/// Maps a resolved scalar C type to its wire representation.
fn scalar_kind(types: &TypeTable, ty: &CType) -> Option<ScalarKind> {
    match types.resolve(ty).ok()? {
        CType::Bool => Some(ScalarKind::Bool),
        CType::Int { signed, bits } => Some(match (signed, bits) {
            (true, 64) => ScalarKind::I64,
            (true, _) => ScalarKind::I32,
            (false, 64) => ScalarKind::U64,
            (false, _) => ScalarKind::U32,
        }),
        CType::Float { bits: 64 } => Some(ScalarKind::F64),
        CType::Float { .. } => Some(ScalarKind::F32),
        CType::Enum(_) => Some(ScalarKind::I32),
        _ => None,
    }
}

/// Returns the handle-kind name if `ty` is (or names) an opaque handle.
fn handle_kind(spec: &ApiSpec, ty: &CType) -> Option<String> {
    if let CType::Named(name) = ty {
        let forced = spec.type_rules.get(name).map(|r| r.handle).unwrap_or(false);
        if forced || spec.header.types.is_opaque_handle(ty) {
            return Some(name.clone());
        }
    }
    None
}

fn elem_kind_for(spec: &ApiSpec, pointee: &CType) -> Result<ElemKind> {
    if let Some(kind) = handle_kind(spec, pointee) {
        return Ok(ElemKind::Handle { kind });
    }
    let types = &spec.header.types;
    match types.resolve(pointee)? {
        CType::Void => Ok(ElemKind::Bytes { elem_size: 1 }),
        other => {
            if let Some(sk) = scalar_kind(types, other) {
                Ok(ElemKind::Bytes {
                    elem_size: sk.size(),
                })
            } else {
                let size = types.size_of(other)?;
                Ok(ElemKind::Bytes { elem_size: size })
            }
        }
    }
}

fn lower_param(
    spec: &ApiSpec,
    proto: &crate::cparse::Prototype,
    cparam: &crate::cparse::CParam,
    pspec: &crate::ast::ParamSpec,
) -> Result<ParamDesc> {
    let types = &spec.header.types;
    let name = cparam.name.clone();

    if pspec.userdata {
        return Ok(ParamDesc {
            name,
            direction: Direction::In,
            transfer: Transfer::Opaque,
            nullable: true,
        });
    }
    if matches!(types.resolve(&cparam.ty)?, CType::FnPtr) {
        return Ok(ParamDesc {
            name,
            direction: Direction::In,
            transfer: Transfer::Callback,
            nullable: true,
        });
    }

    // Direct handle parameter (e.g. `cl_mem buf`).
    if let Some(kind) = handle_kind(spec, &cparam.ty) {
        return Ok(ParamDesc {
            name,
            direction: Direction::In,
            transfer: Transfer::Handle {
                kind,
                deallocates: pspec.deallocates,
            },
            nullable: pspec.nullable,
        });
    }

    // Pointer parameters.
    if let CType::Pointer {
        pointee,
        const_pointee,
    } = types.resolve(&cparam.ty)?.clone()
    {
        let is_const = const_pointee || cparam.const_qualified;
        // `const char*` (or explicit `string;`) → input string.
        let pointee_resolved = types.resolve(&pointee)?.clone();
        let is_char = matches!(pointee_resolved, CType::Int { bits: 8, .. });
        if pspec.string || (is_char && is_const && pspec.buffer.is_none()) {
            return Ok(ParamDesc {
                name,
                direction: Direction::In,
                transfer: Transfer::Str,
                nullable: pspec.nullable,
            });
        }

        let elem = elem_kind_for(spec, &pointee)?;

        if let Some(len) = &pspec.buffer {
            let direction = match pspec.direction {
                Some(DirectionSpec::Out) => Direction::Out,
                Some(DirectionSpec::InOut) => Direction::InOut,
                Some(DirectionSpec::In) => Direction::In,
                None => {
                    if is_const {
                        Direction::In
                    } else {
                        Direction::Out
                    }
                }
            };
            return Ok(ParamDesc {
                name,
                direction,
                transfer: Transfer::Buffer {
                    len: len.clone(),
                    elem,
                },
                nullable: pspec.nullable || matches!(direction, Direction::In) && !is_const,
            });
        }

        // `element { }` or a bare non-const pointer → single out element.
        if pspec.element || (!is_const && !matches!(pointee_resolved, CType::Void)) {
            let elem = match &elem {
                ElemKind::Bytes { elem_size } => {
                    // Prefer a scalar representation for single elements.
                    match scalar_kind(types, &pointee) {
                        Some(sk) => ElemKind::Scalar(sk),
                        None => ElemKind::Bytes {
                            elem_size: *elem_size,
                        },
                    }
                }
                other => other.clone(),
            };
            return Ok(ParamDesc {
                name,
                direction: Direction::Out,
                transfer: Transfer::OutElement { elem },
                nullable: true, // out params are almost always optional in C APIs
            });
        }

        // Const pointer with no size information: unloadable.
        return Err(SpecError::nowhere(SpecErrorKind::Lowering(format!(
            "pointer parameter `{}` of `{}` has no buffer(...) annotation and \
             no size convention matched; refine the specification",
            cparam.name, proto.name,
        ))));
    }

    // Plain scalar.
    if let Some(sk) = scalar_kind(types, &cparam.ty) {
        return Ok(ParamDesc {
            name,
            direction: Direction::In,
            transfer: Transfer::Scalar(sk),
            nullable: false,
        });
    }

    Err(SpecError::nowhere(SpecErrorKind::Lowering(format!(
        "parameter `{}` of `{}` has unsupported type {:?}",
        cparam.name, proto.name, cparam.ty
    ))))
}

fn lower_return(spec: &ApiSpec, ret: &CType) -> Result<RetDesc> {
    let types = &spec.header.types;
    if matches!(types.resolve(ret)?, CType::Void) {
        return Ok(RetDesc::Void);
    }
    if let Some(kind) = handle_kind(spec, ret) {
        return Ok(RetDesc::Handle { kind });
    }
    if let Some(sk) = scalar_kind(types, ret) {
        // A scalar return with a registered success value becomes a status.
        if let CType::Named(name) = ret {
            if let Some(rule) = spec.type_rules.get(name) {
                if let Some(success_expr) = &rule.success {
                    let env = EvalEnv::with_constants(&spec.header.constants);
                    let success = success_expr.eval(&env, types)?;
                    return Ok(RetDesc::Status { kind: sk, success });
                }
            }
        }
        return Ok(RetDesc::Scalar(sk));
    }
    Err(SpecError::nowhere(SpecErrorKind::Lowering(format!(
        "unsupported return type {ret:?}"
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_spec;
    use crate::preprocess::MapResolver;

    const CL_H: &str = r#"
#define CL_SUCCESS 0
#define CL_TRUE 1
typedef int cl_int;
typedef unsigned int cl_uint;
typedef cl_uint cl_bool;
typedef struct _cl_command_queue *cl_command_queue;
typedef struct _cl_mem *cl_mem;
typedef struct _cl_event *cl_event;
typedef struct _cl_context *cl_context;
"#;

    fn lower_src(spec_src: &str) -> ApiDescriptor {
        let resolver = MapResolver::new().with("cl.h", CL_H);
        let full = format!("#include <cl.h>\n{spec_src}");
        let spec = parse_spec(&full, &resolver).unwrap();
        lower(&spec, LowerOptions::default()).unwrap()
    }

    #[test]
    fn figure4_lowers_fully() {
        let desc = lower_src(
            r#"
type(cl_int) { success(CL_SUCCESS); }
cl_int clEnqueueReadBuffer(
    cl_command_queue command_queue,
    cl_mem buf, cl_bool blocking_read,
    size_t offset, size_t size, void *ptr,
    cl_uint num_events_in_wait_list,
    const cl_event *event_wait_list, cl_event *event) {
  if (blocking_read == CL_TRUE) sync; else async;
  parameter(ptr) { out; buffer(size); }
  parameter(event_wait_list) { buffer(num_events_in_wait_list); nullable; }
  parameter(event) { out; element { } }
}
"#,
        );
        let f = desc.by_name("clEnqueueReadBuffer").unwrap();
        assert_eq!(
            f.ret,
            RetDesc::Status {
                kind: ScalarKind::I32,
                success: 0
            }
        );
        assert!(matches!(f.sync, SyncPolicy::SyncIf(_)));

        // command_queue, buf: handles.
        assert!(matches!(
            &f.params[0].transfer,
            Transfer::Handle { kind, .. } if kind == "cl_command_queue"
        ));
        // blocking_read: scalar u32.
        assert_eq!(f.params[2].transfer, Transfer::Scalar(ScalarKind::U32));
        // ptr: out byte buffer of `size` elements.
        match &f.params[5].transfer {
            Transfer::Buffer { len, elem } => {
                assert_eq!(len.to_string(), "size");
                assert_eq!(elem, &ElemKind::Bytes { elem_size: 1 });
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(f.params[5].direction, Direction::Out);
        // event_wait_list: in handle buffer.
        match &f.params[7].transfer {
            Transfer::Buffer {
                elem: ElemKind::Handle { kind },
                ..
            } => {
                assert_eq!(kind, "cl_event")
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(f.params[7].direction, Direction::In);
        // event: out element handle.
        match &f.params[8].transfer {
            Transfer::OutElement {
                elem: ElemKind::Handle { kind },
            } => {
                assert_eq!(kind, "cl_event");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sync_condition_evaluates_against_args() {
        let desc = lower_src(
            r#"
type(cl_int) { success(CL_SUCCESS); }
cl_int clEnqueueReadBuffer(
    cl_command_queue q, cl_mem buf, cl_bool blocking_read,
    size_t offset, size_t size, void *ptr,
    cl_uint n, const cl_event *wl, cl_event *event) {
  if (blocking_read == CL_TRUE) sync; else async;
  parameter(ptr) { out; buffer(size); }
  parameter(wl) { buffer(n); }
  parameter(event) { out; element { } }
}
"#,
        );
        let f = desc.by_name("clEnqueueReadBuffer").unwrap();
        let args_blocking = vec![
            ava_wire::Value::Handle(1),
            ava_wire::Value::Handle(2),
            ava_wire::Value::U32(1),
        ];
        let env = desc.env_for(f, &args_blocking);
        assert!(f.is_sync_for(&env, &desc.types).unwrap());
        let args_nonblocking = vec![
            ava_wire::Value::Handle(1),
            ava_wire::Value::Handle(2),
            ava_wire::Value::U32(0),
        ];
        let env = desc.env_for(f, &args_nonblocking);
        assert!(!f.is_sync_for(&env, &desc.types).unwrap());
    }

    /// A write of `size` floats with a wait list, for `verify_args`.
    fn write_floats() -> ApiDescriptor {
        lower_src(
            r#"
type(cl_int) { success(CL_SUCCESS); }
cl_int write(cl_command_queue q, cl_mem buf, size_t size, const float *ptr,
             cl_uint n, const cl_event *wl) {
  parameter(ptr) { in; buffer(size); }
  parameter(wl) { buffer(n); nullable; }
}
"#,
        )
    }

    fn write_args(size: u64, ptr: Value, n: u32, wl: Value) -> Vec<Value> {
        let queue_and_mem = [Value::Handle(1), Value::Handle(2)];
        let rest = [Value::U64(size), ptr, Value::U32(n), wl];
        queue_and_mem.into_iter().chain(rest).collect()
    }

    fn verify(desc: &ApiDescriptor, args: &[Value]) -> Result<()> {
        let f = desc.by_name("write").unwrap();
        f.verify_args(args, &desc.env_for(f, args), &desc.types)
    }

    #[test]
    fn verify_args_accepts_what_the_spec_allows() {
        let desc = write_floats();
        let events = Value::List(vec![Value::Handle(3), Value::Handle(4)]);
        let cached = Value::CachedBytes { digest: 9, len: 12 };
        for args in [
            write_args(3, Value::Bytes(vec![0; 12].into()), 2, events.clone()),
            write_args(3, cached, 2, events),
            write_args(3, Value::Null, 0, Value::Null),
        ] {
            verify(&desc, &args).unwrap();
        }
    }

    #[test]
    fn verify_args_refuses_shape_length_and_arity() {
        let desc = write_floats();
        let bytes = |n: usize| Value::Bytes(vec![0; n].into());
        let one_event = Value::List(vec![Value::Handle(3)]);
        let mut too_many = write_args(3, bytes(12), 0, Value::Null);
        too_many.push(Value::Null);
        let mut mem_as_integer = write_args(3, bytes(12), 0, Value::Null);
        mem_as_integer[1] = Value::U64(2);
        let refused = [
            (
                "payload one byte short",
                write_args(3, bytes(11), 0, Value::Null),
            ),
            (
                "payload one byte long",
                write_args(3, bytes(13), 0, Value::Null),
            ),
            (
                "cached length off",
                write_args(3, Value::CachedBytes { digest: 9, len: 13 }, 0, Value::Null),
            ),
            (
                "string for bytes",
                write_args(3, Value::Str("x".repeat(12)), 0, Value::Null),
            ),
            (
                "list one entry long",
                write_args(3, bytes(12), 0, one_event.clone()),
            ),
            (
                "list one entry short",
                write_args(3, bytes(12), 2, one_event),
            ),
            (
                "size overflows",
                write_args(1 << 62, bytes(0), 0, Value::Null),
            ),
            ("arity", too_many),
            ("integer for handle", mem_as_integer),
        ];
        for (what, args) in refused {
            let err = verify(&desc, &args).unwrap_err();
            assert!(
                matches!(err.kind, SpecErrorKind::Argument(_)),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn succeeded_reads_the_return_kind() {
        let desc = lower_src(
            r#"
type(cl_int) { success(CL_SUCCESS); }
cl_int status(cl_mem m);
cl_mem create(cl_context c);
void nothing(cl_mem m);
"#,
        );
        let f = |name| desc.by_name(name).unwrap();
        assert!(f("status").succeeded(&Value::I32(0)));
        assert!(!f("status").succeeded(&Value::I32(-5)));
        assert!(f("create").succeeded(&Value::Handle(7)));
        assert!(!f("create").succeeded(&Value::Null));
        assert!(f("nothing").succeeded(&Value::Unit));
    }

    #[test]
    fn handle_return_lowers() {
        let desc =
            lower_src("cl_mem clCreateBuffer(cl_context ctx, size_t size) { record(alloc); }");
        let f = desc.by_name("clCreateBuffer").unwrap();
        assert_eq!(
            f.ret,
            RetDesc::Handle {
                kind: "cl_mem".into()
            }
        );
        assert_eq!(f.record, Some(RecordCategory::Alloc));
    }

    #[test]
    fn writes_lowers_to_parameter_indices() {
        let desc = lower_src(
            "cl_int set(cl_mem m, size_t size, cl_uint index) { writes(m, index); }\n\
             cl_int build(cl_mem m) { writes(m); }",
        );
        let key = |name| desc.by_name(name).unwrap().record.clone();
        let slot = |holder, index| Some(RecordCategory::Writes { holder, index });
        assert_eq!(key("set"), slot(0, vec![2]));
        assert_eq!(key("build"), slot(0, vec![]));
    }

    #[test]
    fn malformed_writes_is_refused() {
        let resolver = MapResolver::new().with("cl.h", CL_H);
        for (annotation, why) in [
            ("writes(m, nope)", "`nope` not found"),
            ("writes(index, m)", "`index` does not fit"),
            ("writes(m, data)", "`data` does not fit"),
            ("writes(m, ratio)", "`ratio` does not fit"),
            ("writes(m, other)", "`other` does not fit"),
        ] {
            let src = format!(
                "#include <cl.h>\ncl_int f(cl_mem m, cl_mem other, cl_uint index, \
                 float ratio, const void *data, size_t data_size) {{ {annotation}; \
                 parameter(data) {{ buffer(data_size); }} }}"
            );
            let spec = parse_spec(&src, &resolver);
            let err = spec
                .and_then(|s| lower(&s, LowerOptions::default()))
                .unwrap_err();
            assert!(err.to_string().contains(why), "{annotation}: {err}");
        }
    }

    #[test]
    fn async_with_output_rejected() {
        let resolver = MapResolver::new().with("cl.h", CL_H);
        let src = format!(
            "#include <cl.h>\n{}",
            "cl_int f(void *buf, size_t n) { async; parameter(buf) { out; buffer(n); } }"
        );
        let spec = parse_spec(&src, &resolver).unwrap();
        let err = lower(&spec, LowerOptions::default()).unwrap_err();
        assert!(err.to_string().contains("output"));
    }

    #[test]
    fn disabling_async_lowers_everything_sync() {
        let resolver = MapResolver::new().with("cl.h", CL_H);
        let src = "#include <cl.h>\ntype(cl_int) { success(CL_SUCCESS); }\ncl_int clFlushThing(cl_command_queue q) { async; }";
        let spec = parse_spec(src, &resolver).unwrap();
        let on = lower(&spec, LowerOptions::default()).unwrap();
        assert!(matches!(
            on.by_name("clFlushThing").unwrap().sync,
            SyncPolicy::Async
        ));
        let off = lower(
            &spec,
            LowerOptions {
                enable_async: false,
                ..LowerOptions::default()
            },
        )
        .unwrap();
        assert!(matches!(
            off.by_name("clFlushThing").unwrap().sync,
            SyncPolicy::Sync
        ));
    }

    #[test]
    fn unsupported_functions_are_excluded() {
        let desc = lower_src("cl_int weird(cl_uint n, const void *p) { unsupported; }");
        assert!(desc.by_name("weird").is_none());
    }

    #[test]
    fn const_pointer_without_size_fails_lowering() {
        let resolver = MapResolver::new().with("cl.h", CL_H);
        let src = "#include <cl.h>\ncl_int f(const float *data) { }";
        let spec = parse_spec(src, &resolver).unwrap();
        let err = lower(
            &spec,
            LowerOptions {
                infer_conventions: false,
                ..LowerOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("refine"), "{err}");
    }

    #[test]
    fn convention_infers_size_suffix() {
        // With conventions on, `data` + `data_size` pairs automatically.
        let resolver = MapResolver::new().with("cl.h", CL_H);
        let src = "#include <cl.h>\ncl_int f(const float *data, size_t data_size);";
        let spec = parse_spec(src, &resolver).unwrap();
        let desc = lower(&spec, LowerOptions::default()).unwrap();
        let f = desc.by_name("f").unwrap();
        match &f.params[0].transfer {
            Transfer::Buffer { len, elem } => {
                assert_eq!(len.to_string(), "data_size");
                assert_eq!(elem, &ElemKind::Bytes { elem_size: 4 });
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn out_scalar_element() {
        let desc = lower_src("cl_int f(cl_context ctx, cl_uint *count) { }");
        let f = desc.by_name("f").unwrap();
        assert_eq!(
            f.params[1].transfer,
            Transfer::OutElement {
                elem: ElemKind::Scalar(ScalarKind::U32),
            }
        );
    }

    #[test]
    fn string_param_lowers() {
        let desc = lower_src("cl_int build(cl_context c, const char *options) { }");
        let f = desc.by_name("build").unwrap();
        assert_eq!(f.params[1].transfer, Transfer::Str);
    }

    #[test]
    fn callback_and_userdata() {
        let desc = lower_src(
            "cl_context clCreateContext(cl_uint n, void (*pfn_notify)(const char *, const void *, size_t, void *), void *user_data) { parameter(user_data) { userdata; } }",
        );
        let f = desc.by_name("clCreateContext").unwrap();
        assert_eq!(f.params[1].transfer, Transfer::Callback);
        assert_eq!(f.params[2].transfer, Transfer::Opaque);
    }

    #[test]
    fn ids_are_stable_and_dense() {
        let desc =
            lower_src("cl_int a(cl_uint x) { }\ncl_int b(cl_uint x) { }\ncl_int c(cl_uint x) { }");
        for (i, f) in desc.functions.iter().enumerate() {
            assert_eq!(f.id as usize, i);
            assert_eq!(desc.by_id(f.id).unwrap().name, f.name);
        }
    }

    #[test]
    fn variadic_function_rejected() {
        let resolver = MapResolver::new();
        let spec = parse_spec("int printf_like(const char *fmt, ...);", &resolver).unwrap();
        assert!(lower(&spec, LowerOptions::default()).is_err());
    }

    #[test]
    fn buffer_expr_with_unknown_name_rejected() {
        let resolver = MapResolver::new().with("cl.h", CL_H);
        let src = "#include <cl.h>\ncl_int f(const float *d, size_t n) { parameter(d) { buffer(bogus); } }";
        let spec = parse_spec(src, &resolver).unwrap();
        let err = lower(&spec, LowerOptions::default()).unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }
}
