//! Minimal JSON writing and reading support for the trace sinks, the
//! JSON reports of `tybec lint` and `tybec analyze`, and the `tybec
//! serve` wire protocol.
//!
//! The workspace has no serde; the sinks hand-roll their output and the
//! only guarantee they need from this module is that [`escape`] yields a
//! valid JSON string for *any* Rust string, and that [`parse`] accepts
//! exactly (a superset of) what the sinks emit — enough for the tests
//! to read traces, lint and analysis reports back without an external
//! JSON library.
//!
//! Because `tybec serve` feeds this parser *untrusted network input*,
//! it is strict where leniency would be a liability: trailing bytes
//! after the top-level value are rejected, recursion is capped at
//! [`MAX_DEPTH`] (a 10 kB `[[[[…` bomb must produce a structured error,
//! not a stack overflow), and every error carries the byte offset it
//! was detected at ([`JsonError`]) so servers can map it to a span.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. Far beyond anything
/// the sinks emit (span trees are a few levels), and small enough that
/// the recursive-descent parser cannot be driven to stack exhaustion by
/// adversarial input.
pub const MAX_DEPTH: usize = 64;

/// A parse failure: what went wrong and the byte offset where it was
/// detected. `Display` renders as `"{message} at byte {offset}"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the source where the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn new(offset: usize, message: impl Into<String>) -> JsonError {
        JsonError { offset, message: message.into() }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Escape `s` as the *contents* of a JSON string literal (no quotes).
/// `"` and `\` are escaped, control characters become `\u00XX`, and
/// everything else passes through as UTF-8 (valid per RFC 8259). The
/// runs between bytes that need escaping are copied whole.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // Every byte that needs work is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out
}

/// Format an `f64` as a JSON value. JSON has no NaN/Infinity, so
/// non-finite values degrade to strings.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("\"{v}\"")
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (key order is not preserved).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse one complete JSON document. Returns a message with a byte
/// offset on malformed input or trailing garbage.
pub fn parse(src: &str) -> Result<Json, String> {
    parse_spanned(src).map_err(|e| e.to_string())
}

/// [`parse`] with the structured [`JsonError`] (offset preserved, for
/// callers that map parse failures to spans — the `tybec serve` wire
/// protocol does).
pub fn parse_spanned(src: &str) -> Result<Json, JsonError> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(src, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError::new(pos, "trailing data"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::new(*pos, format!("expected `{}`", b as char)))
    }
}

fn parse_value(src: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH {
        return Err(JsonError::new(*pos, format!("nesting deeper than {MAX_DEPTH} levels")));
    }
    match bytes.get(*pos) {
        None => Err(JsonError::new(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(src, pos, "null", Json::Null),
        Some(b't') => parse_lit(src, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(src, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(src, bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(src, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::new(*pos, "expected `,` or `]`")),
                }
            }
        }
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
                let key = parse_string(src, bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(src, bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(JsonError::new(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(src, bytes, pos),
        Some(&b) => Err(JsonError::new(*pos, format!("unexpected byte `{}`", b as char))),
    }
}

fn parse_lit(src: &str, pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if src[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError::new(*pos, "bad literal"))
    }
}

fn parse_number(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    src[start..*pos]
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|e| JsonError::new(start, format!("bad number: {e}")))
}

fn parse_string(src: &str, bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote, backslash or control byte
        // whole; all three are ASCII, so the run ends on a char boundary.
        let run = *pos;
        while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20) {
            *pos += 1;
        }
        out.push_str(&src[run..*pos]);
        match bytes.get(*pos) {
            None => return Err(JsonError::new(*pos, "unterminated string")),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(src, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&code) {
                            // High surrogate: require the low half.
                            if !src[*pos + 1..].starts_with("\\u") {
                                return Err(JsonError::new(*pos, "lone surrogate"));
                            }
                            let low = parse_hex4(src, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(JsonError::new(*pos, "bad surrogate pair"));
                            }
                            *pos += 6;
                            let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            out.push(char::from_u32(c).expect("valid supplementary char"));
                        } else {
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(JsonError::new(*pos, "lone surrogate")),
                            }
                        }
                    }
                    _ => return Err(JsonError::new(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => return Err(JsonError::new(*pos, "raw control character")),
        }
    }
}

fn parse_hex4(src: &str, at: usize) -> Result<u32, JsonError> {
    src.get(at..at + 4)
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| JsonError::new(at, "bad \\u escape"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("n\nr\rt\t"), "n\\nr\\rt\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("日本 ✓"), "日本 ✓");
    }

    /// The escape rule one char at a time, as a reference for the
    /// run-copying [`escape`].
    fn escape_per_char(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn escape_copies_runs_as_the_per_char_rule_escapes() {
        let ascii: String = (0u8..0x80).map(char::from).collect();
        let mut cases = vec![
            String::new(),
            ascii.clone(),
            ascii.chars().rev().collect(),
            "\"\"\\\\ \"a\\b\" \\".to_string(),
            "é€🦀 ;\n\té\"€\\🦀\u{1f}".to_string(),
            "\u{0}\u{1}x\u{7f}\u{80}\u{ffff}\u{10ffff}".to_string(),
        ];
        // Every ASCII byte between and around multi-byte characters.
        cases.extend((0u8..0x80).map(|b| format!("é{}€{}🦀", char::from(b), char::from(b))));
        for s in &cases {
            let e = escape(s);
            assert_eq!(e, escape_per_char(s), "{s:?}");
            assert_eq!(parse(&format!("\"{e}\"")), Ok(Json::Str(s.clone())), "{s:?}");
        }
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        for (doc, offset, message) in [
            ("\"abc", 4, "unterminated string"),
            ("\"é€\u{1}\"", 6, "raw control character"),
            ("\"🦀\\q\"", 6, "bad escape"),
            ("\"ab\\ud834x\"", 8, "lone surrogate"),
            ("\"\\u12\"", 3, "bad \\u escape"),
        ] {
            let err = parse_spanned(doc).unwrap_err();
            assert_eq!((err.offset, err.message.as_str()), (offset, message), "{doc:?}");
        }
    }

    #[test]
    fn parse_round_trips_escaped_strings() {
        for s in ["", "plain", "a\"b\\c", "n\nr\rt\t\u{1}", "日本 ✓", "𝄞 clef"] {
            let doc = format!("\"{}\"", escape(s));
            assert_eq!(parse(&doc), Ok(Json::Str(s.to_string())), "{doc}");
        }
    }

    #[test]
    fn parse_handles_nested_documents() {
        let doc = r#"{"a": [1, -2.5, 1e3, true, null], "b": {"c": "\u0041\ud834\udd1e"}}"#;
        let v = parse(doc).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[2].as_num(), Some(1000.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("A𝄞"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "nul", "01x", "[1] garbage", "\"\\u12\""]
        {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_trailing_garbage_with_its_offset() {
        let err = parse_spanned("{\"a\": 1} {").unwrap_err();
        assert_eq!(err.offset, 9);
        assert_eq!(err.message, "trailing data");
        assert_eq!(err.to_string(), "trailing data at byte 9");
        // A second complete document is still trailing garbage (JSONL
        // framing is one document per line, enforced by the caller).
        assert!(parse("1 2").is_err());
        assert!(parse("[1][2]").is_err());
    }

    #[test]
    fn parse_accepts_nesting_up_to_the_depth_limit() {
        let deep = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&deep).is_ok(), "depth {MAX_DEPTH} must parse");
    }

    #[test]
    fn parse_rejects_a_nesting_bomb_with_a_structured_error() {
        // One past the limit, and an adversarial 64 kB bomb: both must
        // come back as errors (never a stack overflow).
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = parse_spanned(&over).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);

        let bomb = "[".repeat(64 * 1024);
        assert!(parse_spanned(&bomb).is_err());
        let obj_bomb = "{\"k\":".repeat(64 * 1024);
        assert!(parse_spanned(&obj_bomb).is_err());
    }

    #[test]
    fn spanned_errors_carry_the_detection_offset() {
        let err = parse_spanned("{\"a\" 1}").unwrap_err();
        assert_eq!(err.offset, 5);
        assert_eq!(err.message, "expected `:`");
        let err = parse_spanned("").unwrap_err();
        assert_eq!(err.offset, 0);
        assert_eq!(err.message, "unexpected end of input");
    }

    #[test]
    fn number_degrades_non_finite_values() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "\"NaN\"");
        assert_eq!(number(f64::INFINITY), "\"inf\"");
        assert!(parse(&number(f64::NEG_INFINITY)).is_ok());
    }
}
