//! A small, deterministic JSON value model with writer and parser.
//!
//! The vendored `serde` is a compile-only stub, so the manifest format
//! serializes through this module instead. Two properties matter more
//! here than generality:
//!
//! - **Deterministic output.** Objects preserve insertion order (they are
//!   vectors of pairs, not maps), integers print as exact digits, and
//!   floats print via Rust's shortest-roundtrip formatting — so the same
//!   value always renders to the same bytes on every platform.
//! - **Lossless counters.** Cycle totals exceed `2^53` at paper scale, so
//!   integers are carried as `u128`/`i128`, never through `f64`.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (printed as exact digits).
    Uint(u128),
    /// A negative integer.
    Int(i128),
    /// A finite float (non-finite values render as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved and significant for the
    /// byte-identical determinism contract.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(u) => u64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as a `u128`, if it is a non-negative integer.
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::Uint(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert; precision may be lost
    /// above `2^53`, which is why counters should be read via
    /// [`Json::as_u128`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Uint(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON with 2-space indents and
    /// a trailing newline. Deterministic: same value, same bytes.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // `{:?}` is the shortest representation that round-trips,
                    // and always includes a `.` or exponent for floats.
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
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

/// A parse failure with byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting the parser accepts. The parser recurses
/// per `[`/`{` level, so unbounded nesting from a hostile document
/// would overflow the stack; 512 is far beyond any artifact this
/// workspace writes (manifests nest < 10 deep) while staying well
/// inside default thread stacks.
pub const MAX_DEPTH: usize = 512;

/// Parses a JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, trailing garbage, or
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(value)
}

fn err(at: usize, message: &str) -> ParseError {
    ParseError {
        at,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(err(*pos, "nesting exceeds maximum depth")),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&c) => Err(err(*pos, &format!("unexpected character '{}'", c as char))),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected '{literal}'")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                        // Exactly four hex digits (`from_str_radix` alone
                        // would also take a sign).
                        let code = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|hex| {
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
                            })
                            .ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        // Surrogates are not paired; the writer never emits
                        // them, so reject rather than mis-decode.
                        let c = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "\\u escape is not a scalar value"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Unescaped text up to the next quote or backslash. Both
                // are ASCII, so the run starts and ends on char
                // boundaries of the `&str` input and is valid UTF-8.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                let text =
                    std::str::from_utf8(&bytes[*pos..*pos + run]).map_err(|_| err(*pos, "utf8"))?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    let mut is_float = false;
    if bytes.get(*pos) == Some(&b'.') {
        is_float = true;
        *pos += 1;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        is_float = true;
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    if text.is_empty() || text == "-" {
        return Err(err(start, "malformed number"));
    }
    if !is_float {
        if let Some(stripped) = text.strip_prefix('-') {
            if let Ok(i) = stripped.parse::<i128>() {
                return Ok(Json::Int(-i));
            }
        } else if let Ok(u) = text.parse::<u128>() {
            return Ok(Json::Uint(u));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| err(start, "malformed number"))
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(pairs));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_structure_and_order() {
        let value = Json::obj([
            ("b_second_key_first", Json::Uint(1)),
            (
                "a_first_key_second",
                Json::obj([("nested", Json::Bool(true))]),
            ),
            (
                "list",
                Json::Array(vec![
                    Json::Null,
                    Json::Int(-3),
                    Json::Float(0.25),
                    Json::Str("hi \"there\"\n".to_string()),
                ]),
            ),
            ("big", Json::Uint(u128::from(u64::MAX) * 7)),
        ]);
        let text = value.to_pretty();
        let back = parse(&text).expect("own output parses");
        assert_eq!(back, value);
        // Determinism: rendering the parse renders the same bytes.
        assert_eq!(back.to_pretty(), text);
    }

    #[test]
    fn big_integers_do_not_lose_precision() {
        let n = 170_141_183_460_469_231_731u128; // > 2^64
        let text = Json::Uint(n).to_pretty();
        assert_eq!(parse(&text).unwrap().as_u128(), Some(n));
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = parse(r#"{"a": {"b": [1, 2.5, "x"]}, "n": -4}"#).unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-4.0));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "01x",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let s = "tab\t newline\n quote\" backslash\\ control\u{1} unicode\u{263a}";
        let text = Json::Str(s.to_string()).to_pretty();
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn long_strings_roundtrip() {
        // Unescaped runs between escapes, multi-byte scalars at run
        // edges, and one run of 256 KiB.
        let s = format!(
            "{}\"\u{263a}x\\\u{e9}\n{}",
            "ab\u{e9}".repeat(65_536),
            "z".repeat(7)
        );
        let text = Json::Str(s.clone()).to_pretty();
        assert_eq!(parse(&text).unwrap().as_str(), Some(s.as_str()));
    }

    #[test]
    fn nonfinite_floats_render_null() {
        assert_eq!(Json::Float(f64::NAN).to_pretty(), "null\n");
        assert_eq!(Json::Float(f64::INFINITY).to_pretty(), "null\n");
    }

    #[test]
    fn unicode_escapes_decode_and_surrogates_are_rejected() {
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
        assert_eq!(parse(r#""☺""#).unwrap().as_str(), Some("\u{263a}"));
        // Lone surrogates are not Unicode scalar values; mis-decoding
        // them would poison every consumer downstream.
        assert!(parse(r#""\ud800""#).is_err());
        assert!(parse(r#""\udfff""#).is_err());
        // Truncated and non-hex escapes.
        assert!(parse(r#""\u00""#).is_err());
        assert!(parse(r#""\uzzzz""#).is_err());
        assert!(parse(r#""\x41""#).is_err(), "unknown escape letter");
        assert!(parse(r#""\u+041""#).is_err(), "signed \\u escape");
    }

    #[test]
    fn integer_extremes_parse_exactly() {
        let max = u128::MAX.to_string();
        assert_eq!(parse(&max).unwrap().as_u128(), Some(u128::MAX));
        let min_exact = (i128::MIN + 1).to_string();
        assert_eq!(parse(&min_exact).unwrap(), Json::Int(i128::MIN + 1));
        // The parser negates after parsing the magnitude, so i128::MIN
        // itself (magnitude i128::MAX + 1) falls back to float — the
        // writer never emits it; this pins the asymmetry.
        assert!(matches!(
            parse(&i128::MIN.to_string()).unwrap(),
            Json::Float(_)
        ));
        // One past u128::MAX no longer fits an integer; the parser
        // falls back to a lossy float rather than rejecting — the
        // writer never emits such a number, this pins the behaviour.
        let over = format!("{}0", u128::MAX);
        assert!(matches!(parse(&over).unwrap(), Json::Float(_)));
    }

    #[test]
    fn deep_nesting_is_bounded_not_a_stack_overflow() {
        let nest = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        // Well under the cap: parses fine.
        assert!(parse(&nest(400)).is_ok());
        // Past the cap: a graceful error, not a crash. 100k levels
        // would overflow the stack without the depth guard.
        let e = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.message.contains("depth"), "got: {e}");
        assert!(parse(&nest(100_000)).is_err());
        // Objects count against the same budget.
        let deep_obj = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&deep_obj).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        for bad in ["1 2", "{} []", "null,", "[1] x", "\"a\" \"b\"", "{}{}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Trailing whitespace alone stays legal.
        assert!(parse("{} \n\t ").is_ok());
    }

    #[test]
    fn number_lookalikes_are_rejected() {
        for bad in ["inf", "Infinity", "NaN", "+1", "-", ".5", "0x10", "1e"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Standard exponent forms still parse (as floats).
        assert!(matches!(parse("1e3").unwrap(), Json::Float(_)));
        assert!(matches!(parse("-2.5e-2").unwrap(), Json::Float(_)));
    }
}
