//! A minimal TOML reader/writer for `avad` configuration files.
//!
//! The repo builds offline with `--locked` and no external crates, so the
//! daemon carries its own parser for the TOML subset its config schema
//! actually uses: `[table]` / `[table.sub]` headers, `key = value` pairs
//! with string / integer / float / boolean values, comments, and blank
//! lines. Arrays, inline tables, dotted keys, and multi-line strings are
//! rejected with a line-numbered error — the config schema never needs
//! them, and refusing beats silently misreading.

use std::collections::BTreeMap;
use std::fmt;

/// A scalar TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic string.
    Str(String),
    /// An integer (underscore separators accepted).
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl TomlValue {
    /// Human name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Int(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
        }
    }
}

/// One `[section]`'s key→value pairs.
pub type TomlTable = BTreeMap<String, TomlValue>;

/// A parsed document: table path (`""` for top-level keys, `"a.b"` for
/// `[a.b]`) → key/value pairs. Table order is not preserved; the schema
/// layer addresses tables by name.
pub type TomlDoc = BTreeMap<String, TomlTable>;

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, message: impl Into<String>) -> TomlError {
    TomlError {
        line,
        message: message.into(),
    }
}

/// Parses a TOML document (the subset described in the module docs).
pub fn parse(src: &str) -> Result<TomlDoc, TomlError> {
    let mut doc = TomlDoc::new();
    doc.insert(String::new(), TomlTable::new());
    let mut current = String::new();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            if rest.starts_with('[') {
                return Err(err(lineno, "array-of-tables `[[...]]` is not supported"));
            }
            let Some(name) = rest.strip_suffix(']') else {
                return Err(err(lineno, "unterminated table header"));
            };
            let name = name.trim();
            if name.is_empty() {
                return Err(err(lineno, "empty table name"));
            }
            for part in name.split('.') {
                if !is_bare_key(part.trim()) {
                    return Err(err(lineno, format!("invalid table name `{name}`")));
                }
            }
            let canonical = name
                .split('.')
                .map(|p| p.trim().to_string())
                .collect::<Vec<_>>()
                .join(".");
            current = canonical.clone();
            doc.entry(canonical).or_default();
            continue;
        }
        let Some(eq) = find_unquoted_eq(line) else {
            return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
        };
        let key = line[..eq].trim();
        let value = line[eq + 1..].trim();
        if !is_bare_key(key) {
            return Err(err(lineno, format!("invalid key `{key}`")));
        }
        if value.is_empty() {
            return Err(err(lineno, format!("key `{key}` has no value")));
        }
        let parsed = parse_value(value, lineno)?;
        let table = doc.entry(current.clone()).or_default();
        if table.insert(key.to_string(), parsed).is_some() {
            return Err(err(lineno, format!("duplicate key `{key}`")));
        }
    }
    Ok(doc)
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = in_str && c == '\\' && !escaped;
    }
    line
}

fn find_unquoted_eq(line: &str) -> Option<usize> {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '=' if !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

fn is_bare_key(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_value(value: &str, lineno: usize) -> Result<TomlValue, TomlError> {
    if let Some(rest) = value.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(err(lineno, "unterminated string"));
        };
        return Ok(TomlValue::Str(unescape(inner, lineno)?));
    }
    if value.starts_with('[') || value.starts_with('{') {
        return Err(err(lineno, "arrays and inline tables are not supported"));
    }
    match value {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    let numeric: String = value.chars().filter(|&c| c != '_').collect();
    if numeric.contains('.') || numeric.contains('e') || numeric.contains('E') {
        if let Ok(f) = numeric.parse::<f64>() {
            return Ok(TomlValue::Float(f));
        }
    } else if let Ok(i) = numeric.parse::<i64>() {
        return Ok(TomlValue::Int(i));
    }
    Err(err(lineno, format!("cannot parse value `{value}`")))
}

fn unescape(s: &str, lineno: usize) -> Result<String, TomlError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            if c == '"' {
                return Err(err(lineno, "unescaped quote inside string"));
            }
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            other => {
                return Err(err(
                    lineno,
                    format!("unsupported escape `\\{}`", other.unwrap_or(' ')),
                ))
            }
        }
    }
    Ok(out)
}

/// Serializes a string as a quoted TOML value.
pub fn write_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes a float so the parser reads the identical value back
/// (Rust's shortest round-trip `Display`, forced to carry a `.` or
/// exponent so TOML typing stays `Float`).
pub fn write_float(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.')
        || s.contains('e')
        || s.contains('E')
        || s.contains("inf")
        || s.contains("NaN")
    {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_keys_and_scalar_types() {
        let doc = parse(
            r#"
# top comment
top_level = 3
[daemon]
listen = "127.0.0.1:0" # trailing comment
drain = 1_000
frac = 0.25
flag = true
[tenants.alice]
token = "se#cret \"x\""
"#,
        )
        .unwrap();
        assert_eq!(doc[""]["top_level"], TomlValue::Int(3));
        assert_eq!(
            doc["daemon"]["listen"],
            TomlValue::Str("127.0.0.1:0".into())
        );
        assert_eq!(doc["daemon"]["drain"], TomlValue::Int(1000));
        assert_eq!(doc["daemon"]["frac"], TomlValue::Float(0.25));
        assert_eq!(doc["daemon"]["flag"], TomlValue::Bool(true));
        assert_eq!(
            doc["tenants.alice"]["token"],
            TomlValue::Str("se#cret \"x\"".into())
        );
    }

    #[test]
    fn rejects_unsupported_and_malformed_syntax() {
        for (src, needle) in [
            ("[[vms]]\n", "array-of-tables"),
            ("x = [1, 2]\n", "arrays"),
            ("x = \n", "no value"),
            ("x 3\n", "expected `key = value`"),
            ("[a\n", "unterminated table header"),
            ("x = \"abc\n", "unterminated string"),
            ("[a]\nx = 1\nx = 2\n", "duplicate key"),
            ("x = zebra\n", "cannot parse value"),
        ] {
            let e = parse(src).unwrap_err();
            assert!(
                e.message.contains(needle),
                "{src:?} -> {e} (wanted {needle})"
            );
        }
    }

    #[test]
    fn float_writer_round_trips() {
        for v in [0.0, 1.0, 0.05, 1e-9, 123456.789, 8.0] {
            let s = write_float(v);
            match parse_value(&s, 1).unwrap() {
                TomlValue::Float(back) => assert_eq!(back, v, "{s}"),
                other => panic!("{s} parsed as {other:?}"),
            }
        }
    }
}
