//! The CAvA API specification language (§3–4.2 of the AvA paper).
//!
//! This crate turns an annotated API specification — an unmodified C header
//! plus declarative annotations in the Figure-4 format — into a runtime
//! [`ApiDescriptor`] that drives every API-specific decision in the AvA
//! stack: argument marshaling in the guest library, policy evaluation in
//! the hypervisor router, and dispatch/object-tracking in the API server.
//!
//! Pipeline:
//!
//! 1. [`preprocess`]: comments, `#include`, `#define` constants, guards;
//! 2. [`cparse`]: C declarations — typedefs, structs, enums, prototypes;
//! 3. [`parse::parse_spec`]: the annotation language (sync/async
//!    conditions, buffer sizes, handle rules, record categories and the
//!    state slots a call `writes`, resource estimates);
//! 4. [`infer`]: preliminary-spec generation for everything the developer
//!    did not annotate, using type information and naming conventions;
//! 5. [`descriptor::lower`]: validation and lowering to [`ApiDescriptor`].

pub mod ast;
pub mod cparse;
pub mod ctypes;
pub mod descriptor;
pub mod error;
pub mod expr;
pub mod infer;
pub mod lexer;
pub mod parse;
pub mod preprocess;

pub use ast::{ApiSpec, RecordCategory, SyncSpec};
pub use cparse::{Header, Prototype};
pub use ctypes::{CType, TypeTable};
pub use descriptor::{
    ApiDescriptor, Direction, ElemKind, FunctionDesc, LowerOptions, ParamDesc, ResourceEstimate,
    RetDesc, ScalarKind, SyncPolicy, Transfer,
};
pub use error::{Loc, Result, SpecError, SpecErrorKind};
pub use expr::{EvalEnv, Expr};
pub use infer::generate_preliminary_spec;
pub use parse::parse_spec;
pub use preprocess::{HeaderResolver, MapResolver, NoHeaders};

/// Parses and lowers a specification in one step.
pub fn compile_spec(
    src: &str,
    resolver: &dyn HeaderResolver,
    opts: LowerOptions,
) -> Result<ApiDescriptor> {
    let spec = parse_spec(src, resolver)?;
    descriptor::lower(&spec, opts)
}
