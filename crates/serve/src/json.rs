//! A minimal, dependency-free JSON tree: parser, writer, and accessors.
//!
//! The workspace builds hermetically against vendored stand-ins for its
//! crates.io dependencies, and no JSON library is among them — so the wire
//! protocol carries its own ~300-line implementation instead of growing a new
//! vendored crate. It covers exactly what the protocol needs: RFC 8259
//! objects/arrays/strings/numbers/booleans/null, `\uXXXX` escapes (surrogate
//! pairs included), a nesting-depth limit so a hostile request cannot blow
//! the stack, and a compact writer.
//!
//! Numbers come in two variants. Non-negative integer literals that fit a
//! `u64` parse to [`Json::UInt`] and print from the integer directly, so the
//! counters the protocol carries (ids, work and span statistics, latencies)
//! round-trip exactly even at and beyond 2⁵³ where `f64` rounds. Everything
//! else (fractions, exponents, negatives) is [`Json::Num`] (`f64`).
//! Equality treats the two variants numerically — `UInt(8)` equals `Num(8.0)`
//! — with the comparison done on the integer side, never through a lossy
//! `u64 → f64` conversion; [`Json::as_u64`] refuses `Num` values that are not
//! exactly representable non-negative integers rather than rounding.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Maximum nesting depth the parser accepts. Wire values are shallow (a
/// binding for a deeply nested complex object is the worst case); 128 is far
/// above anything legitimate and far below stack exhaustion.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-integer, negative, or out-of-`u64`-range JSON number.
    Num(f64),
    /// A non-negative integer number, kept exact at any magnitude a `u64`
    /// holds (see the module docs on integer exactness).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys: last one wins on
    /// lookup, both are written back out — the protocol never emits
    /// duplicates).
    Obj(Vec<(String, Json)>),
    /// A pre-serialized JSON fragment, emitted verbatim by the writer. Never
    /// produced by the parser — it exists so already-serialized pieces (the
    /// engine's `Diagnostic::to_json`, and wire value encodings from
    /// [`crate::protocol::write_value`]) embed without a parse round-trip or
    /// a tree of their own.
    Raw(String),
}

impl Json {
    /// A `Json::Str` from anything string-like.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A `Json::UInt` from an unsigned integer (exact at any magnitude).
    pub fn num(n: u64) -> Json {
        Json::UInt(n)
    }

    /// Member lookup on an object (`None` on non-objects / missing keys).
    /// With duplicate keys, the last occurrence wins.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is a number. Lossy above 2⁵³ for `UInt` values —
    /// exact consumers use [`Json::as_u64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer: any `UInt`, or a `Num`
    /// with no fractional part in `[0, 2^53]` (a float above that boundary
    /// may have been rounded at parse time, so it is refused).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && *n <= 9_007_199_254_740_992.0 && n.fract() == 0.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Does the float `b` denote exactly the integer `a`? Decided on the integer
/// side: converting `a` to `f64` would itself round above 2⁵³ and report
/// false equalities, so instead `b` must be integral, in `u64` range, and
/// convert back to precisely `a`.
fn uint_eq_num(a: u64, b: f64) -> bool {
    b >= 0.0 && b.fract() == 0.0 && b < 18_446_744_073_709_551_616.0 && b as u64 == a
}

impl PartialEq for Json {
    /// Structural equality, except numbers compare numerically across the
    /// `UInt`/`Num` variants — decided exactly on the integer side, never by
    /// converting the `u64` to `f64` — so a value that took the float parse
    /// path still equals its integer-built counterpart.
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::UInt(a), Json::UInt(b)) => a == b,
            (Json::UInt(a), Json::Num(b)) | (Json::Num(b), Json::UInt(a)) => uint_eq_num(*a, *b),
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            (Json::Raw(a), Json::Raw(b)) => a == b,
            _ => false,
        }
    }
}

/// Append `s` as a JSON string literal. Runs of bytes that need no escape
/// are copied with one `push_str`; escapes only ever replace ASCII bytes, so
/// every run boundary is a char boundary.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            write!(out, "\\u{b:04x}").expect("writing to a String cannot fail");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append the decimal digits of `n`.
pub(crate) fn write_uint(out: &mut String, n: u64) {
    write!(out, "{n}").expect("writing to a String cannot fail");
}

fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => {
            // Integral values print without the trailing `.0` so ids and
            // counters read (and re-parse) as integers.
            if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
                write!(out, "{}", *n as i64)
            } else {
                write!(out, "{n}")
            }
            .expect("writing to a String cannot fail");
        }
        Json::UInt(n) => write_uint(out, *n),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
        Json::Raw(fragment) => out.push_str(fragment),
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self);
        f.write_str(&out)
    }
}

/// Why a text failed to parse as JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset at which the problem was detected.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// A cursor over JSON text. Besides backing [`parse`], it is what the
/// protocol uses to read a request envelope member by member and to stream
/// binding values straight into `Value`s without building a `Json` tree.
///
/// Depth is counted the way [`parse`] counts it: the outermost value is at
/// depth 0 and each array element or object member sits one level deeper
/// than its container, so a streaming reader that passes the same depths
/// accepts and rejects exactly what `parse` does.
pub(crate) struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte. Only ever advanced past ASCII
    /// bytes or whole string runs, so it always sits on a char boundary.
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A cursor at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Parser<'a> {
        Parser { text, pos: 0 }
    }

    /// The current byte offset, for a later [`Parser::rewind`].
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Go back to an offset previously read from [`Parser::pos`].
    pub(crate) fn rewind(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// An error at the current offset.
    pub(crate) fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            message: message.into(),
            at: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.text.as_bytes().get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    /// Refuse a value nested deeper than the protocol allows.
    fn check_depth(&self, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return self.err("nesting deeper than the protocol allows");
        }
        Ok(())
    }

    /// Whether the next value (after whitespace) starts with `b`.
    pub(crate) fn next_is(&mut self, b: u8) -> bool {
        self.skip_ws();
        self.peek() == Some(b)
    }

    /// Enter the array or object that `open` (`[` or `{`) starts, as a value
    /// at nesting `depth`.
    pub(crate) fn open(&mut self, open: u8, depth: usize) -> Result<(), JsonError> {
        self.check_depth(depth)?;
        self.skip_ws();
        self.expect(open)
    }

    /// Step to the next element of the array just opened: `true` when one
    /// follows (its separator consumed), `false` after the closing `]`.
    /// `first` says whether any element has been read yet.
    pub(crate) fn next_element(&mut self, first: bool) -> Result<bool, JsonError> {
        self.next_item(b']', first, "expected `,` or `]` in array")
    }

    /// Step to the next member of the object just opened: its key (the `:`
    /// consumed) when one follows, `None` after the closing `}`. `first` says
    /// whether any member has been read yet.
    pub(crate) fn next_member(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.next_item(b'}', first, "expected `,` or `}` in object")? {
            return Ok(None);
        }
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return self.err("expected a string key in object");
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    fn next_item(&mut self, close: u8, first: bool, expected: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => self.err(expected),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    /// One whole JSON value at nesting `depth`, as a tree.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.check_depth(depth)?;
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                while self.next_element(items.is_empty())? {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                while let Some(key) = self.next_member(members.is_empty())? {
                    let value = self.value(depth + 1)?;
                    members.push((key.into_owned(), value));
                }
                Ok(Json::Obj(members))
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => self.err(format!("unexpected byte `{}`", other as char)),
        }
    }

    /// A string literal. Runs of unescaped bytes are copied whole; a string
    /// without escapes is borrowed from the input.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out: Option<String> = None;
        loop {
            let run = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The run stops before an ASCII byte or at the end of the input,
            // so both of its ends are char boundaries.
            let run = &self.text[run..self.pos];
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = out.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push(c);
                }
                Some(_) => return self.err("raw control character in string"),
            }
        }
    }

    /// The character an escape stands for; the cursor sits just past the
    /// backslash and ends just past the escape.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                if !(0xD800..0xDC00).contains(&hi) {
                    return match char::from_u32(hi) {
                        Some(c) => Ok(c),
                        None => self.err("invalid \\u escape"),
                    };
                }
                // Surrogate pair: a following `\uXXXX` low surrogate is
                // mandatory.
                if self.peek() != Some(b'\\') {
                    return self.err("lone high surrogate");
                }
                self.pos += 1;
                if self.peek() != Some(b'u') {
                    return self.err("lone high surrogate");
                }
                self.pos += 1;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return self.err("invalid low surrogate");
                }
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return match char::from_u32(code) {
                    Some(c) => Ok(c),
                    None => self.err("invalid surrogate pair"),
                };
            }
            _ => return self.err("invalid escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return self.err("truncated \\u escape");
        }
        let code = self
            .text
            .get(self.pos..end)
            .and_then(|digits| u32::from_str_radix(digits, 16).ok());
        match code {
            Some(code) => {
                self.pos = end;
                Ok(code)
            }
            None => self.err("invalid \\u escape"),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        // Plain digits so far: keep a non-negative integer exact as `UInt`
        // unless a fraction/exponent follows or it overflows `u64` (then the
        // general `f64` path below takes over).
        let integral = self.text.as_bytes()[start] != b'-';
        if integral && !matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            if let Ok(n) = self.text[start..self.pos].parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => self.err("invalid number"),
        }
    }

    /// Require that only whitespace remains.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return self.err("trailing bytes after the JSON value");
        }
        Ok(())
    }
}

/// Parse one JSON value from `text`, requiring it to span the whole input
/// (modulo surrounding whitespace).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut parser = Parser::new(text);
    let value = parser.value(0)?;
    parser.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let text = r#"{"op":"execute","id":7,"text":"{@1} union {@2}","bindings":[{"name":"s","value":{"set":[{"atom":1}]}}],"deadline_ms":250}"#;
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.get("op").unwrap().as_str(), Some("execute"));
        assert_eq!(parsed.get("id").unwrap().as_u64(), Some(7));
        let reprinted = parse(&parsed.to_string()).unwrap();
        assert_eq!(parsed, reprinted);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = Json::str("a \"quote\"\nand \\ tab\t€ done");
        let reparsed = parse(&original.to_string()).unwrap();
        assert_eq!(original, reparsed);
        // \u escapes, including a surrogate pair.
        let fancy = parse(r#""A€😀""#).unwrap();
        assert_eq!(fancy.as_str(), Some("A€😀"));
    }

    #[test]
    fn rejects_garbage_with_positions() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "nul", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let err = parse("{\"a\": }").unwrap_err();
        assert!(err.at > 0);
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn depth_limit_holds() {
        let mut deep = String::new();
        for _ in 0..1000 {
            deep.push('[');
        }
        for _ in 0..1000 {
            deep.push(']');
        }
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"));
    }

    #[test]
    fn numbers_are_exact_where_the_protocol_needs_them() {
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        // Integral numbers reprint without a fractional suffix.
        assert_eq!(Json::num(42).to_string(), "42");
    }

    #[test]
    fn integers_round_trip_exactly_across_the_f64_boundary() {
        // 2^53 ± 1 is where `f64` starts rounding; the integer path must not.
        for n in [
            (1u64 << 53) - 1,
            1u64 << 53,
            (1u64 << 53) + 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(Json::num(n).to_string(), n.to_string());
            assert_eq!(parse(&n.to_string()).unwrap().as_u64(), Some(n), "{n}");
        }
        // The old lossy path would collapse 2^53 + 1 onto 2^53.
        assert_ne!(
            parse("9007199254740993").unwrap(),
            parse("9007199254740992").unwrap()
        );
        // Beyond u64: falls back to f64 and stops pretending to be exact.
        let huge = parse("18446744073709551616").unwrap();
        assert_eq!(huge.as_u64(), None);
        assert!(huge.as_f64().is_some());
    }

    #[test]
    fn numeric_equality_bridges_the_variants_exactly() {
        assert_eq!(Json::UInt(1000), Json::Num(1000.0));
        assert_eq!(parse("1e3").unwrap(), Json::num(1000));
        assert_ne!(Json::UInt(3), Json::Num(3.5));
        // At the boundary the comparison must not round the integer side:
        // (2^53 + 1) as f64 == 2^53 exactly, so a float-side comparison would
        // wrongly accept this pair.
        assert_ne!(Json::UInt((1 << 53) + 1), Json::Num(9007199254740992.0));
        assert_eq!(Json::UInt(1 << 53), Json::Num(9007199254740992.0));
        assert_ne!(Json::UInt(0), Json::Num(-0.5));
    }

    #[test]
    fn raw_fragments_embed_verbatim() {
        let obj = Json::Obj(vec![(
            "diagnostic".to_string(),
            Json::Raw("{\"severity\":\"error\"}".to_string()),
        )]);
        assert_eq!(obj.to_string(), r#"{"diagnostic":{"severity":"error"}}"#);
        let reparsed = parse(&obj.to_string()).unwrap();
        assert_eq!(
            reparsed.get("diagnostic").unwrap().get("severity").unwrap(),
            &Json::str("error")
        );
    }
}
