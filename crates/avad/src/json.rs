//! A minimal JSON reader/writer for the `avad` HTTP surface.
//!
//! Same rationale as the TOML module: the workspace builds offline with
//! no external crates, and the control-plane bodies are tiny, so the
//! daemon carries its own codec. Supports objects, arrays, strings,
//! numbers, booleans and null; rejects everything else with a positioned
//! error.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as f64; integers round-trip up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order normalized).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A numeric value from a u64 (lossy above 2^53, fine for stats).
    pub fn u64(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) => {
                if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) {
                    write!(f, "{}", *v as i64)
                } else {
                    write!(f, "{v}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Parses a JSON document.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(out));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'u') => {
                                let hex = src_slice(bytes, *pos + 1, 4)?;
                                let unit = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                                let code = match unit {
                                    // High surrogate: JSON encodes non-BMP
                                    // characters as a UTF-16 pair of
                                    // escapes, so the matching low
                                    // surrogate must follow immediately.
                                    0xD800..=0xDBFF => {
                                        if bytes.get(*pos + 5) != Some(&b'\\')
                                            || bytes.get(*pos + 6) != Some(&b'u')
                                        {
                                            return Err(format!(
                                                "unpaired surrogate at byte {pos}"
                                            ));
                                        }
                                        let lo_hex = src_slice(bytes, *pos + 7, 4)?;
                                        let lo = u32::from_str_radix(lo_hex, 16)
                                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                                        if !(0xDC00..=0xDFFF).contains(&lo) {
                                            return Err(format!(
                                                "unpaired surrogate at byte {pos}"
                                            ));
                                        }
                                        *pos += 6;
                                        0x1_0000 + ((unit - 0xD800) << 10) + (lo - 0xDC00)
                                    }
                                    0xDC00..=0xDFFF => {
                                        return Err(format!("unpaired surrogate at byte {pos}"))
                                    }
                                    other => other,
                                };
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| format!("bad codepoint at byte {pos}"))?,
                                );
                                *pos += 4;
                            }
                            other => {
                                return Err(format!("unsupported escape {other:?} at byte {pos}"))
                            }
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Advance one UTF-8 char.
                        let rest = std::str::from_utf8(&bytes[*pos..])
                            .map_err(|_| "invalid UTF-8".to_string())?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).unwrap();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("cannot parse number `{text}`"))
        }
        _ => {
            for (lit, value) in [
                ("null", Json::Null),
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
            ] {
                if bytes[*pos..].starts_with(lit.as_bytes()) {
                    *pos += lit.len();
                    return Ok(value);
                }
            }
            Err(format!("unexpected character at byte {pos}"))
        }
    }
}

fn src_slice(bytes: &[u8], start: usize, len: usize) -> Result<&str, String> {
    bytes
        .get(start..start + len)
        .and_then(|b| std::str::from_utf8(b).ok())
        .ok_or_else(|| "truncated escape".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_objects() {
        let src = r#"{"name":"vm-1","policy":{"weight":4,"rate":0.5},"tags":[1,2],"ok":true,"gone":null}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("vm-1"));
        assert_eq!(
            v.get("policy").unwrap().get("weight").unwrap().as_u64(),
            Some(4)
        );
        let printed = v.to_string();
        assert_eq!(parse(&printed).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for src in [
            "{",
            "[1,",
            "\"abc",
            "{\"a\":}",
            "tru",
            "{\"a\":1} x",
            "{1:2}",
        ] {
            assert!(parse(src).is_err(), "{src:?} should fail");
        }
    }

    #[test]
    fn decodes_utf16_surrogate_pairs() {
        // Python's json.dumps (ensure_ascii default) writes non-BMP
        // characters as surrogate-pair escapes; both halves must combine.
        let v = parse("{\"name\":\"\\ud83d\\ude00 vm\"}").unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("\u{1F600} vm"));
        // BMP escapes still decode alone.
        let v = parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("A\u{e9}"));
    }

    #[test]
    fn rejects_unpaired_surrogates() {
        for src in [
            r#""\ud83d""#,   // lone high surrogate
            r#""\ud83d x""#, // high surrogate followed by plain text
            r#""\ud83dA""#,  // high surrogate paired with a non-surrogate
            r#""\ude00""#,   // lone low surrogate
        ] {
            assert!(parse(src).is_err(), "{src:?} should fail");
        }
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::str("a\"b\\c\nd\u{1}");
        let printed = v.to_string();
        assert_eq!(parse(&printed).unwrap(), v);
    }
}
