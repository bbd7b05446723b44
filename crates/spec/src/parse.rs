//! Parser for the CAvA specification format (Figure 4 of the paper).
//!
//! A spec file mixes three kinds of items:
//!
//! * `api("name", version);` — metadata;
//! * `type(T) { success(EXPR); handle; }` — per-type rules;
//! * `#include <...>` — pulls in the unmodified C header (handled by the
//!   preprocessor);
//! * a C function prototype followed by `{ ... }` — per-function
//!   annotations.

use std::collections::BTreeMap;

use crate::ast::{
    ApiSpec, DirectionSpec, FunctionSpec, ParamSpec, RecordCategory, SyncSpec, TypeRule,
};
use crate::cparse::{parse_preprocessed, parse_prototype, Header};
use crate::error::{Result, SpecError, SpecErrorKind};
use crate::expr::Expr;
use crate::lexer::{lex, Cursor, Tok};
use crate::preprocess::{preprocess, HeaderResolver};

/// Parses a specification source file, resolving `#include`s through
/// `resolver`.
pub fn parse_spec(src: &str, resolver: &dyn HeaderResolver) -> Result<ApiSpec> {
    let pre = preprocess(src, resolver)?;
    let mut spec = ApiSpec {
        name: "api".to_string(),
        version: 1,
        header: Header::default(),
        type_rules: BTreeMap::new(),
        functions: Vec::new(),
    };

    // The header declarations and the function specs are interleaved in one
    // token stream. We scan once: spec-specific items (`api`, `type`,
    // prototype-with-annotation-body) are parsed here, and runs of plain C
    // declarations are collected and handed to the C parser.
    let mut c_tokens: Vec<crate::lexer::Token> = Vec::new();
    let all_tokens = lex(&pre.text)?;
    let mut i = 0usize;
    while i < all_tokens.len() {
        let tok = &all_tokens[i];
        let is_item_kw = |name: &str| matches!(&tok.tok, Tok::Ident(s) if s == name);
        if is_item_kw("api")
            && matches!(all_tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct("(")))
        {
            let mut cur2 = Cursor::new(all_tokens[i..].to_vec());
            let consumed = parse_api_item(&mut cur2, &mut spec)?;
            i += consumed;
            continue;
        }
        if is_item_kw("type")
            && matches!(all_tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct("(")))
        {
            let mut cur2 = Cursor::new(all_tokens[i..].to_vec());
            let consumed = parse_type_item(&mut cur2, &mut spec)?;
            i += consumed;
            continue;
        }
        // Detect "prototype followed by `{`": scan forward to the matching
        // `)` of the first `(` and check the next token.
        if let Some(end) = prototype_with_body_end(&all_tokens, i) {
            // Flush pending C declarations first so typedefs are known.
            flush_c(&mut c_tokens, &mut spec)?;
            let slice = all_tokens[i..=end].to_vec();
            let mut cur2 = Cursor::new(slice);
            let func = parse_function_spec(&mut cur2, &spec)?;
            spec.functions.push(func);
            i = end + 1;
            continue;
        }
        c_tokens.push(tok.clone());
        i += 1;
    }
    flush_c(&mut c_tokens, &mut spec)?;

    // Constants from the preprocessor (defines) belong in the header table.
    for (k, v) in &pre.constants {
        spec.header.constants.entry(k.clone()).or_insert(*v);
    }

    // Every function spec must correspond to a known prototype; if the
    // prototype was only declared inline in the spec, register it.
    for f in &spec.functions {
        if spec.header.proto(&f.proto.name).is_none() {
            spec.header.protos.push(f.proto.clone());
        }
    }
    Ok(spec)
}

/// Reconstructs C declarations from accumulated tokens and merges them into
/// the spec's header tables.
fn flush_c(c_tokens: &mut Vec<crate::lexer::Token>, spec: &mut ApiSpec) -> Result<()> {
    if c_tokens.is_empty() {
        return Ok(());
    }
    let text = detokenize(c_tokens);
    c_tokens.clear();
    let pre = crate::preprocess::Preprocessed {
        text,
        constants: BTreeMap::new(),
    };
    let parsed = parse_preprocessed(&pre)?;
    // Merge.
    for (name, ty) in parsed.types.typedefs() {
        spec.header.types.add_typedef(name.clone(), ty.clone());
    }
    for p in parsed.protos {
        spec.header.protos.push(p);
    }
    for (k, v) in parsed.constants {
        spec.header.constants.insert(k, v);
    }
    spec.header.types.merge_from(&parsed.types);
    Ok(())
}

/// Renders tokens back to compilable C text (whitespace-separated).
fn detokenize(tokens: &[crate::lexer::Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        match &t.tok {
            Tok::Ident(s) => {
                out.push_str(s);
                out.push(' ');
            }
            Tok::Int(v) => {
                out.push_str(&v.to_string());
                out.push(' ');
            }
            Tok::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        other => out.push(other),
                    }
                }
                out.push_str("\" ");
            }
            Tok::Punct(p) => {
                out.push_str(p);
                out.push(' ');
            }
        }
    }
    out
}

/// If the tokens starting at `start` form `TYPE NAME ( ... ) {`, returns the
/// index of the matching closing `}` of the annotation body.
fn prototype_with_body_end(tokens: &[crate::lexer::Token], start: usize) -> Option<usize> {
    // Heuristic pre-check: an identifier must appear before the first `(`,
    // and no `;`, `{`, `}`, `=` may appear before it.
    let mut j = start;
    let mut saw_ident = false;
    loop {
        match tokens.get(j).map(|t| &t.tok) {
            Some(Tok::Ident(_)) => saw_ident = true,
            Some(Tok::Punct("*")) => {}
            Some(Tok::Punct("(")) if saw_ident => break,
            _ => return None,
        }
        j += 1;
        if j > start + 16 {
            return None;
        }
    }
    // Find matching `)`.
    let mut depth = 0usize;
    while j < tokens.len() {
        match tokens[j].tok {
            Tok::Punct("(") => depth += 1,
            Tok::Punct(")") => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    if j >= tokens.len() {
        return None;
    }
    // Next token must be `{` for this to be a function spec.
    if !matches!(tokens.get(j + 1).map(|t| &t.tok), Some(Tok::Punct("{"))) {
        return None;
    }
    // Find matching `}`.
    let mut depth = 0usize;
    let mut k = j + 1;
    while k < tokens.len() {
        match tokens[k].tok {
            Tok::Punct("{") => depth += 1,
            Tok::Punct("}") => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// Parses `api("name", version);`, returning tokens consumed.
fn parse_api_item(cur: &mut Cursor, spec: &mut ApiSpec) -> Result<usize> {
    cur.next(); // api
    cur.expect_punct("(")?;
    match cur.next() {
        Some(Tok::Str(s)) => spec.name = s,
        Some(Tok::Ident(s)) => spec.name = s,
        _ => return Err(cur.err_here("expected API name".into())),
    }
    if cur.eat_punct(",") {
        let v = cur.expect_int()?;
        spec.version = u32::try_from(v).map_err(|_| cur.err_here("version out of range".into()))?;
    }
    cur.expect_punct(")")?;
    cur.eat_punct(";");
    Ok(cur.consumed())
}

/// Parses `type(T) { ... };?`, returning tokens consumed.
fn parse_type_item(cur: &mut Cursor, spec: &mut ApiSpec) -> Result<usize> {
    cur.next(); // type
    cur.expect_punct("(")?;
    let tyname = cur.expect_ident()?;
    cur.expect_punct(")")?;
    cur.expect_punct("{")?;
    let mut rule = TypeRule::default();
    loop {
        if cur.eat_punct("}") {
            break;
        }
        let prop = cur.expect_ident()?;
        match prop.as_str() {
            "success" => {
                cur.expect_punct("(")?;
                rule.success = Some(Expr::parse(cur)?);
                cur.expect_punct(")")?;
            }
            "handle" => rule.handle = true,
            other => return Err(cur.err_here(format!("unknown type property `{other}`"))),
        }
        cur.expect_punct(";")?;
    }
    cur.eat_punct(";");
    spec.type_rules.insert(tyname, rule);
    Ok(cur.consumed())
}

/// Parses `RET NAME(PARAMS) { annotation* }` (cursor covers exactly this
/// token range).
fn parse_function_spec(cur: &mut Cursor, spec: &ApiSpec) -> Result<FunctionSpec> {
    let proto = parse_prototype(cur, &spec.header)?;
    cur.expect_punct("{")?;
    let mut func = FunctionSpec::bare(proto);
    parse_annotation_block(cur, &mut func)?;
    Ok(func)
}

/// Parses annotation statements until the matching `}` is consumed.
fn parse_annotation_block(cur: &mut Cursor, func: &mut FunctionSpec) -> Result<()> {
    loop {
        if cur.eat_punct("}") {
            return Ok(());
        }
        parse_annotation_stmt(cur, func)?;
    }
}

fn parse_annotation_stmt(cur: &mut Cursor, func: &mut FunctionSpec) -> Result<()> {
    if cur.eat_ident("sync") {
        cur.expect_punct(";")?;
        set_sync(cur, func, SyncSpec::Sync)?;
        return Ok(());
    }
    if cur.eat_ident("async") {
        cur.expect_punct(";")?;
        set_sync(cur, func, SyncSpec::Async)?;
        return Ok(());
    }
    if cur.eat_ident("if") {
        cur.expect_punct("(")?;
        let cond = Expr::parse(cur)?;
        cur.expect_punct(")")?;
        // Then-branch: `sync;` or `async;` (possibly braced).
        let then_sync = parse_sync_branch(cur)?;
        let else_sync = if cur.eat_ident("else") {
            Some(parse_sync_branch(cur)?)
        } else {
            None
        };
        let policy = match (then_sync, else_sync) {
            (true, Some(false)) | (true, None) => SyncSpec::SyncIf(cond),
            (false, Some(true)) => {
                SyncSpec::SyncIf(Expr::Unary(crate::expr::UnOp::Not, Box::new(cond)))
            }
            (true, Some(true)) => SyncSpec::Sync,
            (false, Some(false)) | (false, None) => SyncSpec::Async,
        };
        set_sync(cur, func, policy)?;
        return Ok(());
    }
    if cur.eat_ident("parameter") {
        cur.expect_punct("(")?;
        let pname = func.proto.params[expect_param(cur, func)?].name.clone();
        cur.expect_punct(")")?;
        cur.expect_punct("{")?;
        let mut pspec = func.params.remove(&pname).unwrap_or_default();
        parse_param_props(cur, &mut pspec)?;
        func.params.insert(pname, pspec);
        return Ok(());
    }
    if cur.eat_ident("record") {
        cur.expect_punct("(")?;
        let cat = cur.expect_ident()?;
        cur.expect_punct(")")?;
        cur.expect_punct(";")?;
        func.record = Some(match cat.as_str() {
            "config" => RecordCategory::Config,
            "alloc" => RecordCategory::Alloc,
            other => return Err(cur.err_here(format!("unknown record category `{other}`"))),
        });
        return Ok(());
    }
    if cur.eat_ident("writes") {
        cur.expect_punct("(")?;
        let holder = expect_param(cur, func)?;
        let mut index = Vec::new();
        while cur.eat_punct(",") {
            index.push(expect_param(cur, func)?);
        }
        cur.expect_punct(")")?;
        cur.expect_punct(";")?;
        func.record = Some(RecordCategory::Writes { holder, index });
        return Ok(());
    }
    if cur.eat_ident("resource") {
        cur.expect_punct("(")?;
        let rname = match cur.next() {
            Some(Tok::Ident(s)) | Some(Tok::Str(s)) => s,
            _ => return Err(cur.err_here("expected resource name".into())),
        };
        cur.expect_punct(",")?;
        let amount = Expr::parse(cur)?;
        cur.expect_punct(")")?;
        cur.expect_punct(";")?;
        func.resources.push((rname, amount));
        return Ok(());
    }
    if cur.eat_ident("unsupported") {
        cur.expect_punct(";")?;
        func.unsupported = true;
        return Ok(());
    }
    if cur.eat_ident("note") {
        cur.expect_punct("(")?;
        match cur.next() {
            Some(Tok::Str(s)) => func.notes.push(s),
            _ => return Err(cur.err_here("expected string in note(...)".into())),
        }
        cur.expect_punct(")")?;
        cur.expect_punct(";")?;
        return Ok(());
    }
    Err(cur.err_here(format!("unknown annotation {}", cur.describe())))
}

/// Parses a branch of an `if` that must consist of sync/async statements;
/// returns true for sync.
fn parse_sync_branch(cur: &mut Cursor) -> Result<bool> {
    if cur.eat_punct("{") {
        let v = parse_sync_branch(cur)?;
        cur.expect_punct("}")?;
        return Ok(v);
    }
    if cur.eat_ident("sync") {
        cur.expect_punct(";")?;
        return Ok(true);
    }
    if cur.eat_ident("async") {
        cur.expect_punct(";")?;
        return Ok(false);
    }
    Err(cur.err_here("expected `sync;` or `async;` in conditional".into()))
}

fn set_sync(cur: &Cursor, func: &mut FunctionSpec, policy: SyncSpec) -> Result<()> {
    if func.sync != SyncSpec::Default {
        return Err(SpecError::at(
            cur.loc(),
            SpecErrorKind::Conflict(format!("multiple sync policies for `{}`", func.proto.name)),
        ));
    }
    func.sync = policy;
    Ok(())
}

/// Reads the name of one of `func`'s parameters; returns its position.
fn expect_param(cur: &mut Cursor, func: &FunctionSpec) -> Result<usize> {
    let name = cur.expect_ident()?;
    let params = &func.proto.params;
    params.iter().position(|p| p.name == name).ok_or_else(|| {
        SpecError::at(
            cur.loc(),
            SpecErrorKind::Unknown(format!(
                "parameter `{name}` not found in `{}`",
                func.proto.name
            )),
        )
    })
}

fn parse_param_props(cur: &mut Cursor, pspec: &mut ParamSpec) -> Result<()> {
    loop {
        if cur.eat_punct("}") {
            return Ok(());
        }
        let prop = cur.expect_ident()?;
        match prop.as_str() {
            "in" => pspec.direction = Some(DirectionSpec::In),
            "out" => pspec.direction = Some(DirectionSpec::Out),
            "inout" => pspec.direction = Some(DirectionSpec::InOut),
            "buffer" => {
                cur.expect_punct("(")?;
                pspec.buffer = Some(Expr::parse(cur)?);
                cur.expect_punct(")")?;
            }
            "element" => {
                cur.expect_punct("{")?;
                cur.expect_punct("}")?;
                pspec.element = true;
                // `element { }` blocks are not followed by `;`.
                continue;
            }
            "deallocates" => pspec.deallocates = true,
            "nullable" => pspec.nullable = true,
            "string" => pspec.string = true,
            "userdata" => pspec.userdata = true,
            other => return Err(cur.err_here(format!("unknown parameter property `{other}`"))),
        }
        cur.expect_punct(";")?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::MapResolver;

    /// The example from Figure 4 of the paper, against a minimal cl.h. The
    /// figure also marks the event element `allocates;`, which this
    /// language leaves out: the server mints a wire handle for every
    /// handle out-element.
    const FIG4_CL_H: &str = r#"
#ifndef CL_H
#define CL_H 1
#define CL_SUCCESS 0
#define CL_TRUE 1
#define CL_FALSE 0
typedef int cl_int;
typedef unsigned int cl_uint;
typedef cl_uint cl_bool;
typedef struct _cl_command_queue *cl_command_queue;
typedef struct _cl_mem *cl_mem;
typedef struct _cl_event *cl_event;
cl_int clEnqueueReadBuffer(cl_command_queue command_queue,
    cl_mem buf, cl_bool blocking_read,
    size_t offset, size_t size, void *ptr,
    cl_uint num_events_in_wait_list,
    const cl_event *event_wait_list, cl_event *event);
#endif
"#;

    const FIG4_SPEC: &str = r#"
type(cl_int) { success(CL_SUCCESS); }
#include <CL/cl.h>
cl_int clEnqueueReadBuffer(
    cl_command_queue command_queue,
    cl_mem buf, cl_bool blocking_read,
    size_t offset, size_t size, void *ptr,
    cl_uint num_events_in_wait_list,
    const cl_event *event_wait_list, cl_event *event) {
  if (blocking_read == CL_TRUE) sync; else async;
  parameter(ptr) { out; buffer(size); }
  parameter(event_wait_list) {
      buffer(num_events_in_wait_list); }
  parameter(event) { out; element { } }
}
"#;

    fn fig4() -> ApiSpec {
        let resolver = MapResolver::new().with("CL/cl.h", FIG4_CL_H);
        parse_spec(FIG4_SPEC, &resolver).unwrap()
    }

    #[test]
    fn figure4_parses() {
        let spec = fig4();
        assert_eq!(spec.functions.len(), 1);
        let f = &spec.functions[0];
        assert_eq!(f.proto.name, "clEnqueueReadBuffer");
        assert_eq!(f.proto.params.len(), 9);
    }

    #[test]
    fn figure4_type_rule() {
        let spec = fig4();
        let rule = &spec.type_rules["cl_int"];
        assert_eq!(rule.success, Some(Expr::Ident("CL_SUCCESS".into())));
    }

    #[test]
    fn figure4_sync_policy_is_conditional() {
        let spec = fig4();
        match &spec.functions[0].sync {
            SyncSpec::SyncIf(cond) => {
                let printed = cond.to_string();
                assert!(printed.contains("blocking_read"), "{printed}");
                assert!(printed.contains("CL_TRUE"), "{printed}");
            }
            other => panic!("expected SyncIf, got {other:?}"),
        }
    }

    #[test]
    fn figure4_parameter_annotations() {
        let spec = fig4();
        let f = &spec.functions[0];
        let ptr = f.param("ptr");
        assert_eq!(ptr.direction, Some(DirectionSpec::Out));
        assert_eq!(ptr.buffer, Some(Expr::Ident("size".into())));
        let wl = f.param("event_wait_list");
        assert_eq!(
            wl.buffer,
            Some(Expr::Ident("num_events_in_wait_list".into()))
        );
        assert_eq!(wl.direction, None); // inferred from const later
        let ev = f.param("event");
        assert_eq!(ev.direction, Some(DirectionSpec::Out));
        assert!(ev.element);
    }

    #[test]
    fn figure4_header_contents_merged() {
        let spec = fig4();
        assert_eq!(spec.header.constants["CL_SUCCESS"], 0);
        assert!(spec
            .header
            .types
            .is_opaque_handle(&crate::ctypes::CType::Named("cl_mem".into())));
        // The header prototype and the spec prototype are the same function.
        assert!(spec.header.proto("clEnqueueReadBuffer").is_some());
    }

    #[test]
    fn api_metadata_item() {
        let spec = parse_spec(
            "api(\"opencl\", 3);\nint f(int a) { sync; }\n",
            &MapResolver::new(),
        )
        .unwrap();
        assert_eq!(spec.name, "opencl");
        assert_eq!(spec.version, 3);
    }

    #[test]
    fn record_and_resource_annotations() {
        let spec = parse_spec(
            r#"
typedef struct _m *m_t;
m_t create(unsigned long size) { record(alloc); resource(device_mem, size); }
int set(m_t h, int slot, int v) { writes(h, slot); }
int destroy(m_t h) { parameter(h) { deallocates; } }
"#,
            &MapResolver::new(),
        )
        .unwrap();
        assert_eq!(spec.functions[0].record, Some(RecordCategory::Alloc));
        assert_eq!(spec.functions[0].resources.len(), 1);
        let slot = RecordCategory::Writes {
            holder: 0,
            index: vec![1],
        };
        assert_eq!(spec.functions[1].record, Some(slot));
        assert!(spec.functions[2].param("h").deallocates);
    }

    #[test]
    fn unsupported_and_notes() {
        let spec = parse_spec(
            "int weird(int n) { unsupported; note(\"varargs sibling\"); }\n",
            &MapResolver::new(),
        )
        .unwrap();
        assert!(spec.functions[0].unsupported);
        assert_eq!(spec.functions[0].notes[0], "varargs sibling");
    }

    #[test]
    fn duplicate_sync_rejected() {
        let err = parse_spec("int f(int a) { sync; async; }", &MapResolver::new()).unwrap_err();
        assert!(err.to_string().contains("multiple sync"));
    }

    #[test]
    fn unknown_parameter_rejected() {
        let err =
            parse_spec("int f(int a) { parameter(b) { in; } }", &MapResolver::new()).unwrap_err();
        assert!(err.to_string().contains("`b`"));
    }

    #[test]
    fn unknown_annotation_rejected() {
        let err = parse_spec("int f(int a) { frobnicate; }", &MapResolver::new()).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn inverted_conditional_normalizes() {
        let spec = parse_spec(
            "int f(int fast) { if (fast == 1) async; else sync; }",
            &MapResolver::new(),
        )
        .unwrap();
        match &spec.functions[0].sync {
            SyncSpec::SyncIf(e) => assert!(e.to_string().starts_with("!")),
            other => panic!("expected SyncIf, got {other:?}"),
        }
    }

    #[test]
    fn plain_header_only_spec() {
        // A spec that is nothing but an include: all functions inferred.
        let resolver = MapResolver::new().with("CL/cl.h", FIG4_CL_H);
        let spec = parse_spec("#include <CL/cl.h>\n", &resolver).unwrap();
        assert!(spec.functions.is_empty());
        assert_eq!(spec.header.protos.len(), 1);
    }
}
