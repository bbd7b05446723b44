//! Preliminary-specification inference (§3 of the paper).
//!
//! CAvA first creates a preliminary specification from the unmodified
//! header: argument types carry most of the information (`const T*` is an
//! input buffer, `T*` an output, pointer-to-incomplete-struct an opaque
//! handle), and naming conventions supply buffer sizes (for example "the
//! size parameter for every pointer argument has the same name with `_size`
//! appended"). Whatever cannot be inferred is flagged with a `note(...)`
//! asking the developer to refine the spec — exactly the workflow in
//! Figure 2.

use crate::ast::{DirectionSpec, FunctionSpec, ParamSpec, RecordCategory};
use crate::cparse::{Header, Prototype};
use crate::ctypes::{CType, TypeTable};
use crate::expr::Expr;

/// Size-naming conventions tried, in order, for a pointer parameter `p`.
/// `{}` is replaced by the parameter name.
const SIZE_CONVENTIONS: &[&str] = &["{}_size", "num_{}", "{}_count", "{}_len", "n_{}"];

/// Returns the name of a sibling scalar parameter that, by convention,
/// carries the element count of pointer parameter `pname`.
pub fn size_sibling(proto: &Prototype, types: &TypeTable, pname: &str) -> Option<String> {
    for pattern in SIZE_CONVENTIONS {
        let candidate = pattern.replace("{}", pname);
        let found = proto.params.iter().any(|p| {
            p.name == candidate
                && matches!(
                    types.resolve(&p.ty),
                    Ok(CType::Int { .. }) | Ok(CType::Bool) | Ok(CType::Enum(_))
                )
        });
        if found {
            return Some(candidate);
        }
    }
    None
}

/// Infers a [`FunctionSpec`] for a prototype with no explicit annotations.
///
/// When `conventions` is false only type-derived facts are used (the
/// "annotations describing the conventions used in that header" knob from
/// §3 is off).
pub fn infer_function_spec(
    proto: &Prototype,
    types: &TypeTable,
    conventions: bool,
) -> FunctionSpec {
    let mut fspec = FunctionSpec::bare(proto.clone());
    for cparam in &proto.params {
        let resolved = match types.resolve(&cparam.ty) {
            Ok(t) => t.clone(),
            Err(_) => continue,
        };
        // Handles and scalars need no annotations.
        if types.is_opaque_handle(&cparam.ty) {
            continue;
        }
        if let CType::Pointer {
            pointee,
            const_pointee,
        } = resolved
        {
            let is_const = const_pointee || cparam.const_qualified;
            let pointee_resolved = types.resolve(&pointee).cloned().unwrap_or(CType::Void);
            let is_char = matches!(pointee_resolved, CType::Int { bits: 8, .. });
            if is_char && is_const {
                // `const char*` defaults to a string; nothing to add.
                continue;
            }
            let mut pspec = ParamSpec::default();
            if let Some(sibling) = conventions
                .then(|| size_sibling(proto, types, &cparam.name))
                .flatten()
            {
                pspec.buffer = Some(Expr::Ident(sibling));
                pspec.direction = Some(if is_const {
                    DirectionSpec::In
                } else {
                    DirectionSpec::Out
                });
            } else if !is_const {
                // Bare non-const pointer: single output element.
                pspec.direction = Some(DirectionSpec::Out);
                pspec.element = true;
            } else {
                // Const pointer with unknown size: needs refinement.
                fspec.notes.push(format!(
                    "verify: input pointer `{}` has no inferable size; add \
                     `parameter({}) {{ buffer(...); }}`",
                    cparam.name, cparam.name
                ));
                continue;
            }
            fspec.params.insert(cparam.name.clone(), pspec);
        }
    }
    fspec
}

/// Renders a preliminary specification for every prototype in `header`,
/// producing text in the Figure-4 format that parses back through
/// [`crate::parse::parse_spec`].
pub fn generate_preliminary_spec(header: &Header, api_name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("api(\"{api_name}\", 1);\n\n"));
    for proto in &header.protos {
        let fspec = infer_function_spec(proto, &header.types, true);
        out.push_str(&render_function_spec(&fspec, &header.types));
        out.push('\n');
    }
    out
}

/// Renders one function spec back to specification syntax.
pub fn render_function_spec(fspec: &FunctionSpec, types: &TypeTable) -> String {
    let proto = &fspec.proto;
    let mut out = String::new();
    out.push_str(&render_ctype(&proto.ret));
    out.push(' ');
    out.push_str(&proto.name);
    out.push('(');
    for (i, p) in proto.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&render_ctype(&p.ty));
        out.push(' ');
        out.push_str(&p.name);
    }
    out.push_str(") {\n");
    match &fspec.sync {
        crate::ast::SyncSpec::Default => {}
        crate::ast::SyncSpec::Sync => out.push_str("  sync;\n"),
        crate::ast::SyncSpec::Async => out.push_str("  async;\n"),
        crate::ast::SyncSpec::SyncIf(cond) => {
            out.push_str(&format!("  if ({cond}) sync; else async;\n"))
        }
    }
    for (pname, pspec) in &fspec.params {
        let mut props = Vec::new();
        match pspec.direction {
            Some(DirectionSpec::In) => props.push("in;".to_string()),
            Some(DirectionSpec::Out) => props.push("out;".to_string()),
            Some(DirectionSpec::InOut) => props.push("inout;".to_string()),
            None => {}
        }
        if let Some(buf) = &pspec.buffer {
            props.push(format!("buffer({buf});"));
        }
        if pspec.element {
            props.push("element { }".to_string());
        }
        if pspec.deallocates {
            props.push("deallocates;".to_string());
        }
        if pspec.nullable {
            props.push("nullable;".to_string());
        }
        if pspec.string {
            props.push("string;".to_string());
        }
        if pspec.userdata {
            props.push("userdata;".to_string());
        }
        if !props.is_empty() {
            out.push_str(&format!("  parameter({pname}) {{ {} }}\n", props.join(" ")));
        }
    }
    for (rname, amount) in &fspec.resources {
        out.push_str(&format!("  resource({rname}, {amount});\n"));
    }
    match &fspec.record {
        Some(RecordCategory::Config) => out.push_str("  record(config);\n"),
        Some(RecordCategory::Alloc) => out.push_str("  record(alloc);\n"),
        Some(RecordCategory::Writes { holder, index }) => {
            let keys = std::iter::once(holder).chain(index);
            let names: Vec<&str> = keys.map(|&i| proto.params[i].name.as_str()).collect();
            out.push_str(&format!("  writes({});\n", names.join(", ")));
        }
        None => {}
    }
    for note in &fspec.notes {
        out.push_str(&format!("  note(\"{}\");\n", note.replace('"', "'")));
    }
    let _ = types;
    out.push_str("}\n");
    out
}

/// Renders a C type back to source syntax.
pub fn render_ctype(ty: &CType) -> String {
    match ty {
        CType::Void => "void".into(),
        CType::Bool => "_Bool".into(),
        CType::Int { signed, bits } => match (signed, bits) {
            (true, 8) => "char".into(),
            (false, 8) => "unsigned char".into(),
            (true, 16) => "short".into(),
            (false, 16) => "unsigned short".into(),
            (true, 32) => "int".into(),
            (false, 32) => "unsigned int".into(),
            (true, _) => "long".into(),
            (false, _) => "unsigned long".into(),
        },
        CType::Float { bits: 32 } => "float".into(),
        CType::Float { .. } => "double".into(),
        CType::Named(n) => n.clone(),
        CType::Pointer {
            pointee,
            const_pointee,
        } => {
            if *const_pointee {
                format!("const {} *", render_ctype(pointee))
            } else {
                format!("{} *", render_ctype(pointee))
            }
        }
        CType::Struct(tag) => format!("struct {tag}"),
        CType::Union(tag) => format!("union {tag}"),
        CType::Enum(tag) => format!("enum {tag}"),
        CType::Array { elem, len } => format!("{}[{len}]", render_ctype(elem)),
        CType::FnPtr => "void *".into(), // opaque in re-rendered specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cparse::parse_header;
    use crate::preprocess::NoHeaders;

    fn header(src: &str) -> Header {
        parse_header(src, &NoHeaders).unwrap()
    }

    #[test]
    fn size_suffix_convention_matches() {
        let h = header("int f(const float *data, unsigned long data_size);");
        let p = h.proto("f").unwrap();
        assert_eq!(size_sibling(p, &h.types, "data"), Some("data_size".into()));
    }

    #[test]
    fn num_prefix_convention_matches() {
        let h = header("typedef struct _e *ev;\nint f(unsigned int num_events, const ev *events);");
        let p = h.proto("f").unwrap();
        assert_eq!(
            size_sibling(p, &h.types, "events"),
            Some("num_events".into())
        );
    }

    #[test]
    fn non_scalar_sibling_is_not_a_size() {
        let h = header("int f(const float *data, const char *data_size);");
        let p = h.proto("f").unwrap();
        assert_eq!(size_sibling(p, &h.types, "data"), None);
    }

    #[test]
    fn infers_out_element_for_bare_pointer() {
        let h = header("typedef struct _d *dev;\nint get_dev(dev *out);");
        let f = infer_function_spec(h.proto("get_dev").unwrap(), &h.types, true);
        let p = &f.params["out"];
        assert_eq!(p.direction, Some(DirectionSpec::Out));
        assert!(p.element);
    }

    #[test]
    fn infers_nothing_for_scalars_and_handles() {
        let h = header("typedef struct _m *mem;\nint f(mem m, unsigned int flags);");
        let f = infer_function_spec(h.proto("f").unwrap(), &h.types, true);
        assert!(f.params.is_empty());
        assert!(f.notes.is_empty());
    }

    #[test]
    fn unresolvable_input_pointer_gets_note() {
        let h = header("int f(const float *mystery);");
        let f = infer_function_spec(h.proto("f").unwrap(), &h.types, true);
        assert_eq!(f.notes.len(), 1);
        assert!(f.notes[0].contains("mystery"));
    }

    #[test]
    fn conventions_off_produces_note_instead() {
        let h = header("int f(const float *data, unsigned long data_size);");
        let f = infer_function_spec(h.proto("f").unwrap(), &h.types, false);
        assert!(!f.params.contains_key("data"));
        assert_eq!(f.notes.len(), 1);
    }

    #[test]
    fn preliminary_spec_round_trips_through_parser() {
        let h = header(
            "typedef struct _m *mem;\n\
             typedef struct _q *queue;\n\
             int enqueue_write(queue q, mem m, unsigned long off, unsigned long size, const void *src, unsigned long src_size);\n\
             mem create(unsigned long size);\n\
             int destroy(mem m);",
        );
        let text = generate_preliminary_spec(&h, "toy");
        // The generated text must itself be a valid spec. Supply the type
        // declarations alongside.
        let full = format!("typedef struct _m *mem; typedef struct _q *queue;\n{text}");
        let spec = crate::parse::parse_spec(&full, &NoHeaders).unwrap();
        assert_eq!(spec.name, "toy");
        assert_eq!(spec.functions.len(), 3);
        let f = spec.function("enqueue_write").unwrap();
        assert_eq!(
            f.param("src").buffer.as_ref().map(|e| e.to_string()),
            Some("src_size".to_string())
        );
    }

    #[test]
    fn render_ctype_spot_checks() {
        assert_eq!(render_ctype(&CType::const_ptr(CType::Void)), "const void *");
        assert_eq!(
            render_ctype(&CType::ptr(CType::Named("cl_event".into()))),
            "cl_event *"
        );
        assert_eq!(
            render_ctype(&CType::Int {
                signed: false,
                bits: 64
            }),
            "unsigned long"
        );
    }
}
