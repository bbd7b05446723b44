//! Abstract syntax of a CAvA API specification.
//!
//! A specification references an unmodified C header (via `#include`) and
//! adds the information the header cannot express: buffer sizes, parameter
//! directions, sync/async behaviour, resource-cost estimates and
//! record/replay categories (Figure 4 of the paper).

use std::collections::BTreeMap;

use crate::cparse::{Header, Prototype};
use crate::expr::Expr;

/// A complete parsed specification.
#[derive(Debug, Clone)]
pub struct ApiSpec {
    /// API name from `api("name", version);` (defaults to `"api"`).
    pub name: String,
    /// API version from the `api` metadata item.
    pub version: u32,
    /// Types, constants and prototypes gathered from included headers and
    /// from prototypes declared inline in the spec.
    pub header: Header,
    /// Per-type rules from `type(T) { ... }` items, keyed by type name.
    pub type_rules: BTreeMap<String, TypeRule>,
    /// Function specifications, in order of appearance.
    pub functions: Vec<FunctionSpec>,
}

impl ApiSpec {
    /// Looks up the explicit spec for a function, if one was written.
    pub fn function(&self, name: &str) -> Option<&FunctionSpec> {
        self.functions.iter().find(|f| f.proto.name == name)
    }
}

/// Annotations attached to a named type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeRule {
    /// `success(expr)`: the value of this type that means "call succeeded".
    /// Used to synthesize return values for transparently-async calls.
    pub success: Option<Expr>,
    /// `handle;`: force this type to be treated as an opaque handle even if
    /// auto-detection would not classify it as one.
    pub handle: bool,
}

/// How a call's blocking behaviour is specified.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncSpec {
    /// No annotation: the lowering default (synchronous) applies.
    Default,
    /// Always synchronous.
    Sync,
    /// Always forwarded asynchronously.
    Async,
    /// `if (cond) sync; else async;` — synchronous when `cond` is true.
    SyncIf(Expr),
}

/// What record-and-replay VM migration (§4.3) keeps of a succeeded call.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RecordCategory {
    /// `record(config)` (e.g. `cuInit`): every call is kept.
    Config,
    /// `record(alloc)` (e.g. `clCreateBuffer`): kept while its object lives.
    Alloc,
    /// `writes(holder, index...)`: only the latest call per slot is kept.
    /// A slot is the values of these parameters alone, so calls that name
    /// the same values write the same slot (`clSetKernelArg` and
    /// `clSetKernelArgMem` share `(kernel, arg_index)`).
    Writes {
        /// Position of the handle parameter whose object holds the slot.
        holder: usize,
        /// Positions of the integer parameters that pick the slot.
        index: Vec<usize>,
    },
}

/// Annotations for one parameter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamSpec {
    /// Explicit direction (`in; out; inout;`).
    pub direction: Option<DirectionSpec>,
    /// `buffer(expr)`: the parameter points to `expr` elements.
    pub buffer: Option<Expr>,
    /// `element { }`: single-element out pointer semantics.
    pub element: bool,
    /// `deallocates;` on a handle parameter: the call releases the object.
    pub deallocates: bool,
    /// `nullable;` — `NULL` is a legal value and must round-trip as such.
    pub nullable: bool,
    /// `string;` — NUL-terminated C string.
    pub string: bool,
    /// `userdata;` — opaque pointer-sized token forwarded verbatim
    /// (callback user data). Never dereferenced by the remoting stack.
    pub userdata: bool,
}

/// Explicit parameter direction annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectionSpec {
    /// Read by the callee.
    In,
    /// Written by the callee.
    Out,
    /// Both.
    InOut,
}

/// A function specification: prototype plus annotation body.
#[derive(Debug, Clone)]
pub struct FunctionSpec {
    /// The C prototype (from the spec file or copied from the header).
    pub proto: Prototype,
    /// Blocking behaviour.
    pub sync: SyncSpec,
    /// Per-parameter annotations, keyed by parameter name.
    pub params: BTreeMap<String, ParamSpec>,
    /// What migration records of the call.
    pub record: Option<RecordCategory>,
    /// Resource-cost estimates: `(resource name, amount expression)`.
    pub resources: Vec<(String, Expr)>,
    /// `unsupported;` — exclude from the generated stack.
    pub unsupported: bool,
    /// Free-form notes (`note("...")`), also used by the preliminary-spec
    /// generator to ask the developer for refinement.
    pub notes: Vec<String>,
}

impl FunctionSpec {
    /// Creates an empty spec for a prototype (no annotations).
    pub fn bare(proto: Prototype) -> Self {
        FunctionSpec {
            proto,
            sync: SyncSpec::Default,
            params: BTreeMap::new(),
            record: None,
            resources: Vec::new(),
            unsupported: false,
            notes: Vec::new(),
        }
    }

    /// Returns the annotations for `param`, or a default if none given.
    pub fn param(&self, param: &str) -> ParamSpec {
        self.params.get(param).cloned().unwrap_or_default()
    }
}
