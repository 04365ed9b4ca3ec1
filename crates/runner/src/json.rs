//! A minimal JSON document builder and reader.
//!
//! The workspace builds offline with no serialisation crate, so the runner
//! carries its own codec for the two directions it needs: emitting reports,
//! and reading them back
//! ([`Json::parse`], the substrate of the version-compatible
//! [`crate::summary::ReportSummary`] reader).  Rendering is fully
//! deterministic — object keys keep insertion order and numbers format the
//! same way on every run — which is what lets the determinism harness
//! compare reports byte for byte.

use std::fmt::Write as _;

/// A JSON value.  Construct with the `From` impls and [`Json::object`] /
/// [`Json::array`], render with [`Json::render`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (seeds and counters exceed `i64`).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float, rendered with Rust's shortest-roundtrip formatting.
    F64(f64),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An empty object, to be filled with [`Json::set`].
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// An array from anything iterable.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Appends `key: value` to an object (panics on non-objects: a builder
    /// misuse, not a data error).
    #[must_use]
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// The value of `key`, for objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, for strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, for non-negative integers.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The boolean payload, for booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements, for arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (the inverse of [`Json::render`], accepting
    /// any standard JSON, not just this module's layout).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error, or
    /// on trailing non-whitespace input.
    pub fn parse(text: &str) -> std::result::Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline, the layout all `ldx` reports use.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the value *as a fragment* of a larger document: exactly the
    /// bytes [`Json::render`] would emit for this value at nesting `depth`,
    /// with no trailing newline.  This is what lets the streaming report
    /// writer ([`crate::stream`]) produce output byte-identical to rendering
    /// the whole document at once.
    pub fn write_fragment(&self, out: &mut String, depth: usize) {
        self.write(out, depth);
    }

    /// Renders the document on a single line with no inter-token spacing
    /// and no trailing newline — the layout of checkpoint sidecar lines,
    /// which must be appendable one per line.  [`Json::parse`] reads both
    /// layouts back.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
            // Scalars render identically in both layouts.
            other => other.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", byte as char))
    }
}

/// Maximum container nesting `Json::parse` accepts.  Reports nest a small
/// constant number of levels; the cap turns pathological input (e.g. tens
/// of thousands of `[`s) into an `Err` instead of a stack overflow.
const MAX_PARSE_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_PARSE_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_PARSE_DEPTH} at byte {pos}"
        ));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected '{literal}' at byte {pos}"))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // Standard serializers encode non-BMP characters
                        // as a UTF-16 surrogate pair of consecutive \u
                        // escapes; combine them.  An unpaired surrogate
                        // decodes to the replacement char rather than
                        // erroring.
                        if (0xd800..=0xdbff).contains(&code)
                            && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u")
                        {
                            if let Ok(low) = parse_hex4(bytes, *pos + 3) {
                                if (0xdc00..=0xdfff).contains(&low) {
                                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    *pos += 6;
                                }
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xc0 == 0x80 {
                    *pos += 1;
                }
                // ld-analyze: allow(D004, reason = "the scan loop above only advances over validated UTF-8 boundaries")
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid utf-8"));
            }
        }
    }
}

/// The four hex digits of a `\u` escape starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let hex = std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape".to_string())?;
    u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape at byte {at}"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    // ld-analyze: allow(D004, reason = "the digit loop only consumes ASCII bytes, which are valid UTF-8")
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    if text.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    // Integers keep full u64/i64 precision (seeds exceed 2^53); everything
    // else goes through f64.
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| format!("bad number '{text}' at byte {start}"))
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = Json::object()
            .set("name", "sweep")
            .set("cells", 3usize)
            .set("ok", true)
            .set("rate", 0.5f64)
            .set("tags", Json::array(["a", "b"]))
            .set("empty", Json::Arr(vec![]))
            .set("nothing", Json::Null);
        let text = doc.render();
        assert!(text.contains("\"name\": \"sweep\""));
        assert!(text.contains("\"cells\": 3"));
        assert!(text.contains("\"rate\": 0.5"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.contains("\"nothing\": null"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings() {
        let doc = Json::object().set("msg", "a \"b\"\n\\c\u{1}");
        let text = doc.render();
        assert!(text.contains(r#"\"b\""#), "{text}");
        assert!(text.contains("\\u0001"), "{text}");
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null\n");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn parse_roundtrips_rendered_documents() {
        let doc = Json::object()
            .set("name", "sweep \"x\"\n")
            .set("cells", 3usize)
            .set("seed", u64::MAX)
            .set("delta", -4i64)
            .set("rate", 0.625f64)
            .set("ok", true)
            .set("tags", Json::array(["a", "b"]))
            .set("empty", Json::Arr(vec![]))
            .set("nothing", Json::Null);
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_accepts_compact_and_foreign_layout() {
        let parsed = Json::parse("{\"a\":[1,2.5,null],\"b\":{\"c\":\"\\u0041\"}}").unwrap();
        assert_eq!(parsed.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            parsed.get("b").unwrap().get("c").unwrap().as_str(),
            Some("A")
        );
        assert_eq!(
            parsed.get("a").unwrap().as_arr().unwrap()[0].as_u64(),
            Some(1)
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nope").is_err());
    }

    #[test]
    fn parse_combines_surrogate_pairs() {
        // A standard ASCII-escaping serializer encodes U+1F600 as a
        // surrogate pair; the reader must reassemble it.
        let parsed = Json::parse("{\"msg\": \"a \\ud83d\\ude00 b\"}").unwrap();
        assert_eq!(parsed.get("msg").unwrap().as_str(), Some("a \u{1f600} b"));
        // Unpaired surrogates decode to the replacement char, not an error.
        let lone = Json::parse("\"\\ud83d x\"").unwrap();
        assert_eq!(lone.as_str(), Some("\u{fffd} x"));
    }

    #[test]
    fn parse_bounds_nesting_depth_instead_of_overflowing() {
        let deep = "[".repeat(50_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A merely-nested-but-reasonable document still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let doc = Json::object().set("n", 3usize);
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("n").unwrap().as_str(), None);
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::I64(-1).as_u64(), None);
    }

    #[test]
    fn compact_rendering_roundtrips_and_has_no_whitespace() {
        let doc = Json::object()
            .set("a", Json::array([1u64, 2]))
            .set("b", Json::object().set("c", "x y"))
            .set("d", Json::Null);
        let compact = doc.render_compact();
        assert_eq!(compact, "{\"a\":[1,2],\"b\":{\"c\":\"x y\"},\"d\":null}");
        assert_eq!(Json::parse(&compact).unwrap(), doc);
    }

    #[test]
    fn fragments_compose_into_the_full_rendering() {
        let inner = Json::object().set("k", 1u64).set("l", Json::array(["a"]));
        let doc = Json::object().set("outer", inner.clone());
        let mut spliced = String::from("{\n  \"outer\": ");
        inner.write_fragment(&mut spliced, 1);
        spliced.push_str("\n}\n");
        assert_eq!(spliced, doc.render());
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            Json::object()
                .set("a", 1u64)
                .set("b", Json::array([Json::F64(1.25), Json::I64(-3)]))
                .render()
        };
        assert_eq!(build(), build());
    }
}
