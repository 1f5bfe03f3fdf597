//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! # Grammar
//!
//! One request per line, one response line per request, ids echoed back:
//!
//! ```text
//! request  := { "op": op, "id": uint, ...op-fields } "\n"
//! op       := "prepare" | "execute" | "execute_with_bindings" | "stats" | "close"
//!
//! prepare  fields: "text": string, "schema"?: [ {"name": string, "type": string} ]
//! execute  fields: prepare's fields plus
//!                  "bindings"?:     [ {"name": string, "value": value} ]
//!                  "deadline_ms"?:  uint   (capped by the server's maximum)
//!                  "max_work"?:     uint   (capped by the session's limit)
//!                  "max_set_size"?: uint   (capped by the session's limit)
//! value    := {"atom": uint} | {"bool": bool} | {"nat": uint} | {"unit": true}
//!           | {"pair": [value, value]} | {"set": [value...]}
//!             (a value object has exactly one member; `unit` takes `true`)
//!
//! response := { "id": uint|null, "ok": ... } "\n"
//!           | { "id": uint|null, "error": { "code": code, "diagnostic": diag } } "\n"
//! code     := "parse" | "type" | "eval" | "object" | "lint"   (engine errors)
//!           | "deadline" | "work_budget"                      (per-request isolation)
//!           | "busy"                                          (admission control)
//!           | "protocol"                                      (malformed envelope)
//! diag     := { "severity": string, "message": string,
//!               "span": {"start": uint, "end": uint} | null,
//!               "line": uint|null, "column": uint|null, "snippet": string|null }
//! ```
//!
//! The `diag` object is exactly the engine's
//! [`Diagnostic::to_json`](ncql_engine::Diagnostic::to_json) — the same
//! structured form the REPL's `--json` flag prints — so every span, line,
//! column and snippet a caret rendering would show arrives machine-readable.
//! Result values are carried in the object layer's canonical printed form
//! (`"{a1, a2}"`, `"42"`, `"(true, a7)"`), which is what the sorted,
//! duplicate-free [`Value`] display guarantees to be deterministic.

use crate::json::{self, Json, JsonError, Parser};
use ncql_core::EvalError;
use ncql_engine::Error;
use ncql_object::{Type, Value};

/// The error-code strings of the wire protocol.
pub mod code {
    /// Lex/parse failure of the query text.
    pub const PARSE: &str = "parse";
    /// Typecheck failure.
    pub const TYPE: &str = "type";
    /// Evaluation failure other than the two isolation codes below.
    pub const EVAL: &str = "eval";
    /// Object-model failure (binding validation, value typing).
    pub const OBJECT: &str = "object";
    /// Deny-level lint rejection at prepare.
    pub const LINT: &str = "lint";
    /// The request's wall-clock deadline expired and the evaluation was
    /// cooperatively cancelled.
    pub const DEADLINE: &str = "deadline";
    /// The request's work budget (or the session's) was exhausted.
    pub const WORK_BUDGET: &str = "work_budget";
    /// Admission control refused the request: too many evaluations already in
    /// flight. Retry later; nothing was evaluated.
    pub const BUSY: &str = "busy";
    /// The request line itself was malformed (bad JSON, unknown op, missing
    /// id, oversized line, invalid schema/binding encoding).
    pub const PROTOCOL: &str = "protocol";
}

/// The wire error code for an engine error: the five engine variants map to
/// their own names, except that the two per-request isolation failures get
/// dedicated codes — a work-budget trip is [`code::WORK_BUDGET`] and a
/// cancelled (deadline-expired) evaluation is [`code::DEADLINE`] — so clients
/// can distinguish "the query is wrong" from "the query was too expensive for
/// this request's budget".
pub fn error_code(error: &Error) -> &'static str {
    match error {
        Error::Parse(_) => code::PARSE,
        Error::Type(_) => code::TYPE,
        Error::Object { .. } => code::OBJECT,
        Error::Lint { .. } => code::LINT,
        Error::Eval(EvalError::WorkLimitExceeded { .. }) => code::WORK_BUDGET,
        Error::Eval(EvalError::Cancelled { .. }) => code::DEADLINE,
        Error::Eval(_) => code::EVAL,
    }
}

/// A parsed request envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run the front end and report what it learned; nothing is evaluated.
    Prepare {
        /// Echo id.
        id: u64,
        /// The query text.
        text: String,
        /// Declared free variables, already type-parsed.
        schema: Vec<(String, Type)>,
    },
    /// Prepare (served by the plan cache after the first time) and evaluate.
    /// `execute` and `execute_with_bindings` are one op on the wire — the
    /// latter is the same envelope with a non-empty `bindings` array.
    Execute {
        /// Echo id.
        id: u64,
        /// The query text.
        text: String,
        /// Declared free variables.
        schema: Vec<(String, Type)>,
        /// Values for the declared free variables.
        bindings: Vec<(String, Value)>,
        /// Requested wall-clock deadline (ms); the server caps it.
        deadline_ms: Option<u64>,
        /// Requested work budget; the session's limit caps it.
        max_work: Option<u64>,
        /// Requested intermediate-set cap; the session's limit caps it.
        max_set_size: Option<usize>,
    },
    /// Session observability: cache metrics, pool workers, plan count.
    Stats {
        /// Echo id.
        id: u64,
    },
    /// Close this connection after acknowledging.
    Close {
        /// Echo id.
        id: u64,
    },
}

impl Request {
    /// The request's echo id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Prepare { id, .. }
            | Request::Execute { id, .. }
            | Request::Stats { id }
            | Request::Close { id } => *id,
        }
    }
}

/// A protocol-level failure: the envelope could not be understood. Carries
/// the echo id when one was readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// The request's id, when the envelope got far enough to read one.
    pub id: Option<u64>,
    /// What was wrong.
    pub message: String,
}

impl ProtocolError {
    fn new(id: Option<u64>, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            id,
            message: message.into(),
        }
    }
}

/// Append the wire encoding of `value` (the `value` production of the
/// grammar) to `out`, straight from the value: no `Json` node is built and
/// numbers are written through `fmt::Write`. The bytes are exactly what the
/// generic JSON writer prints for the equivalent tree.
pub fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Atom(a) => {
            out.push_str("{\"atom\":");
            json::write_uint(out, *a);
            out.push('}');
        }
        Value::Bool(true) => out.push_str("{\"bool\":true}"),
        Value::Bool(false) => out.push_str("{\"bool\":false}"),
        Value::Unit => out.push_str("{\"unit\":true}"),
        Value::Nat(n) => {
            out.push_str("{\"nat\":");
            json::write_uint(out, *n);
            out.push('}');
        }
        Value::Pair(a, b) => {
            out.push_str("{\"pair\":[");
            write_value(out, a);
            out.push(',');
            write_value(out, b);
            out.push_str("]}");
        }
        Value::Set(s) => {
            out.push_str("{\"set\":[");
            for (i, x) in s.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, x);
            }
            out.push_str("]}");
        }
    }
}

/// Encode a [`Value`] as wire JSON: the [`write_value`] bytes, embedded as
/// one pre-serialized [`Json::Raw`] fragment.
pub fn value_to_json(value: &Value) -> Json {
    let mut out = String::new();
    write_value(&mut out, value);
    Json::Raw(out)
}

/// Decode a wire-JSON value (the inverse of [`value_to_json`]) by writing it
/// back out and streaming it through the one value decoder the server runs
/// on request bytes. Set elements are canonicalized (sorted, deduplicated)
/// by construction.
pub fn value_from_json(json: &Json) -> Result<Value, String> {
    let text = json.to_string();
    let mut parser = Parser::new(&text);
    decode_value(&mut parser, 0)
        .and_then(|value| parser.finish().map(|()| value))
        .map_err(|e| format!("invalid value encoding: {e}"))
}

/// Stream one wire value (the `value` production) at nesting `depth`
/// straight into a [`Value`]: no `Json` node is built for objects, arrays or
/// keys. Counts depth as [`json::parse`] does, takes numbers by the
/// [`Json::as_u64`] rules, and requires a value object to have exactly one
/// member.
pub(crate) fn decode_value(p: &mut Parser<'_>, depth: usize) -> Result<Value, JsonError> {
    if !p.next_is(b'{') {
        return p.err("expected a value object");
    }
    p.open(b'{', depth)?;
    let Some(tag) = p.next_member(true)? else {
        return p.err("empty value object");
    };
    let value = match &*tag {
        "atom" => Value::Atom(uint(p, depth + 1, "atom")?),
        "nat" => Value::Nat(uint(p, depth + 1, "nat")?),
        "bool" => match p.value(depth + 1)? {
            Json::Bool(b) => Value::Bool(b),
            _ => return p.err("`bool` takes `true` or `false`"),
        },
        "unit" => match p.value(depth + 1)? {
            Json::Bool(true) => Value::Unit,
            _ => return p.err("`unit` takes `true`"),
        },
        "pair" => {
            p.open(b'[', depth + 1)?;
            let mut halves = [None, None];
            let mut read = 0;
            while p.next_element(read == 0)? {
                if read == 2 {
                    return p.err("`pair` takes exactly two values");
                }
                halves[read] = Some(decode_value(p, depth + 2)?);
                read += 1;
            }
            match halves {
                [Some(a), Some(b)] => Value::pair(a, b),
                _ => return p.err("`pair` takes exactly two values"),
            }
        }
        "set" => {
            p.open(b'[', depth + 1)?;
            let mut elements = Vec::new();
            while p.next_element(elements.is_empty())? {
                elements.push(decode_value(p, depth + 2)?);
            }
            Value::set_from(elements)
        }
        other => return p.err(format!("unknown value tag `{other}`")),
    };
    if p.next_member(false)?.is_some() {
        return p.err("a value object has exactly one member");
    }
    Ok(value)
}

/// The payload of an `atom`/`nat` member, by the [`Json::as_u64`] rules.
fn uint(p: &mut Parser<'_>, depth: usize, tag: &str) -> Result<u64, JsonError> {
    match p.value(depth)?.as_u64() {
        Some(n) => Ok(n),
        None => p.err(format!("`{tag}` takes a non-negative integer")),
    }
}

/// The `bindings` member as read from the envelope: the decoded bindings, or
/// why they break the grammar.
type Bindings = Result<Vec<(String, Value)>, String>;

/// Read the envelope object member by member: `bindings` streams through
/// [`read_bindings`], every other member parses to a (small) `Json` tree.
/// A line that is JSON but not an object parses whole, so it still earns the
/// "missing `op`" answer.
fn read_envelope(line: &str) -> Result<(Json, Option<Bindings>), JsonError> {
    let mut p = Parser::new(line);
    if !p.next_is(b'{') {
        let json = p.value(0)?;
        p.finish()?;
        return Ok((json, None));
    }
    p.open(b'{', 0)?;
    let mut members = Vec::new();
    let mut bindings = None;
    let mut first = true;
    while let Some(key) = p.next_member(first)? {
        first = false;
        if key == "bindings" {
            bindings = Some(read_bindings(&mut p, 1)?);
        } else {
            members.push((key.into_owned(), p.value(1)?));
        }
    }
    p.finish()?;
    Ok((Json::Obj(members), bindings))
}

/// Stream the `bindings` member at nesting `depth`. When decoding fails, the
/// member is re-read as plain JSON from its start: if that fails too, the
/// line is not JSON and the error is the line's; otherwise the failure was a
/// grammar violation, returned as `Ok(Err(why))` so the rest of the envelope
/// (its id included) is still read.
fn read_bindings(p: &mut Parser<'_>, depth: usize) -> Result<Bindings, JsonError> {
    let start = p.pos();
    match stream_bindings(p, depth) {
        Ok(bindings) => Ok(Ok(bindings)),
        Err(why) => {
            p.rewind(start);
            p.value(depth)?;
            Ok(Err(why.to_string()))
        }
    }
}

fn stream_bindings(p: &mut Parser<'_>, depth: usize) -> Result<Vec<(String, Value)>, JsonError> {
    if !p.next_is(b'[') {
        return p.err("`bindings` must be an array");
    }
    p.open(b'[', depth)?;
    let mut bindings = Vec::new();
    while p.next_element(bindings.is_empty())? {
        if !p.next_is(b'{') {
            return p.err("binding entry missing `name`");
        }
        p.open(b'{', depth + 1)?;
        let (mut name, mut value) = (None, None);
        let mut first = true;
        while let Some(key) = p.next_member(first)? {
            first = false;
            match &*key {
                "name" => {
                    name = match p.value(depth + 2)? {
                        Json::Str(s) => Some(s),
                        _ => None,
                    }
                }
                "value" => {
                    let decoded = decode_value(p, depth + 2).map_err(|e| JsonError {
                        message: format!("invalid value encoding: {}", e.message),
                        at: e.at,
                    })?;
                    value = Some(decoded);
                }
                _ => {
                    p.value(depth + 2)?;
                }
            }
        }
        let Some(name) = name else {
            return p.err("binding entry missing `name`");
        };
        let Some(value) = value else {
            return p.err("binding entry missing `value`");
        };
        bindings.push((name, value));
    }
    Ok(bindings)
}

/// Parse one request line (already length-checked by the connection loop).
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let (json, bindings) = read_envelope(line)
        .map_err(|e| ProtocolError::new(None, format!("request is not valid JSON: {e}")))?;
    // The id is extracted first so even a bad envelope echoes it back.
    let id = json.get("id").and_then(Json::as_u64);
    let op = json
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::new(id, "missing or non-string `op`"))?
        .to_string();
    let id = id.ok_or_else(|| ProtocolError::new(None, "missing or non-integer `id`"))?;

    let text = |field_required: bool| -> Result<String, ProtocolError> {
        match json.get("text").and_then(Json::as_str) {
            Some(t) => Ok(t.to_string()),
            None if field_required => Err(ProtocolError::new(id.into(), "missing `text`")),
            None => Ok(String::new()),
        }
    };
    let schema = || -> Result<Vec<(String, Type)>, ProtocolError> {
        let mut out = Vec::new();
        if let Some(entries) = json.get("schema") {
            let entries = entries
                .as_arr()
                .ok_or_else(|| ProtocolError::new(id.into(), "`schema` must be an array"))?;
            for entry in entries {
                let name = entry
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtocolError::new(id.into(), "schema entry missing `name`"))?;
                let ty_text = entry
                    .get("type")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtocolError::new(id.into(), "schema entry missing `type`"))?;
                let ty = ncql_surface::parse_type(ty_text).map_err(|e| {
                    ProtocolError::new(id.into(), format!("invalid schema type `{ty_text}`: {e}"))
                })?;
                out.push((name.to_string(), ty));
            }
        }
        Ok(out)
    };

    match op.as_str() {
        "prepare" => Ok(Request::Prepare {
            id,
            text: text(true)?,
            schema: schema()?,
        }),
        "execute" | "execute_with_bindings" => {
            let bindings = bindings
                .unwrap_or(Ok(Vec::new()))
                .map_err(|e| ProtocolError::new(id.into(), e))?;
            let uint_field = |name: &str| -> Result<Option<u64>, ProtocolError> {
                match json.get(name) {
                    None => Ok(None),
                    Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                        ProtocolError::new(
                            id.into(),
                            format!("`{name}` must be a non-negative integer"),
                        )
                    }),
                }
            };
            Ok(Request::Execute {
                id,
                text: text(true)?,
                schema: schema()?,
                bindings,
                deadline_ms: uint_field("deadline_ms")?,
                max_work: uint_field("max_work")?,
                max_set_size: uint_field("max_set_size")?.map(|n| n as usize),
            })
        }
        "stats" => Ok(Request::Stats { id }),
        "close" => Ok(Request::Close { id }),
        other => Err(ProtocolError::new(
            id.into(),
            format!("unknown op `{other}`"),
        )),
    }
}

/// An `ok` response envelope around `body`.
pub fn ok_response(id: u64, body: Json) -> String {
    Json::Obj(vec![
        ("id".to_string(), Json::num(id)),
        ("ok".to_string(), body),
    ])
    .to_string()
}

/// An `error` response envelope: the code plus the structured diagnostic
/// (pre-serialized by the engine's `Diagnostic::to_json`).
pub fn error_response(id: Option<u64>, code: &str, diagnostic_json: String) -> String {
    Json::Obj(vec![
        ("id".to_string(), id.map(Json::num).unwrap_or(Json::Null)),
        (
            "error".to_string(),
            Json::Obj(vec![
                ("code".to_string(), Json::str(code)),
                ("diagnostic".to_string(), Json::Raw(diagnostic_json)),
            ]),
        ),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_the_wire_encoding() {
        let values = [
            Value::Atom(7),
            Value::Bool(false),
            Value::Unit,
            Value::Nat(123456),
            Value::pair(Value::Atom(1), Value::Bool(true)),
            Value::set_from([
                Value::pair(Value::Atom(1), Value::Atom(2)),
                Value::pair(Value::Atom(2), Value::Atom(3)),
            ]),
            Value::empty_set(),
        ];
        for v in values {
            let json = value_to_json(&v);
            let back = value_from_json(&crate::json::parse(&json.to_string()).unwrap()).unwrap();
            assert_eq!(v, back, "{json}");
        }
    }

    #[test]
    fn counters_beyond_the_f64_boundary_survive_the_wire() {
        // Work/span statistics and `nat` payloads are u64s; 2^53 ± 1 is where
        // a float-encoded wire would silently collapse adjacent values.
        for n in [(1u64 << 53) - 1, 1u64 << 53, (1u64 << 53) + 1, u64::MAX] {
            let v = Value::Nat(n);
            let json = value_to_json(&v);
            let back = value_from_json(&crate::json::parse(&json.to_string()).unwrap()).unwrap();
            assert_eq!(v, back, "{json}");
        }
        let stats = Json::Obj(vec![
            ("work".to_string(), Json::num((1 << 53) + 1)),
            ("span".to_string(), Json::num(17)),
        ]);
        let reparsed = crate::json::parse(&stats.to_string()).unwrap();
        assert_eq!(
            reparsed.get("work").unwrap().as_u64(),
            Some((1 << 53) + 1),
            "lossless work counter"
        );
    }

    #[test]
    fn set_encodings_canonicalize() {
        // Duplicates and out-of-order elements are legal on the wire; the
        // decoded set is canonical regardless.
        let json = crate::json::parse(r#"{"set":[{"atom":9},{"atom":1},{"atom":9}]}"#).unwrap();
        let v = value_from_json(&json).unwrap();
        assert_eq!(v, Value::atom_set([1, 9]));
    }

    #[test]
    fn requests_parse_with_schemas_and_bindings() {
        let line = r#"{"op":"execute_with_bindings","id":3,"text":"card(s)","schema":[{"name":"s","type":"{atom}"}],"bindings":[{"name":"s","value":{"set":[{"atom":1},{"atom":2}]}}],"deadline_ms":50,"max_work":1000}"#;
        match parse_request(line).unwrap() {
            Request::Execute {
                id,
                text,
                schema,
                bindings,
                deadline_ms,
                max_work,
                max_set_size,
            } => {
                assert_eq!(id, 3);
                assert_eq!(text, "card(s)");
                assert_eq!(schema.len(), 1);
                assert_eq!(schema[0].0, "s");
                assert_eq!(schema[0].1.to_string(), "{atom}");
                assert_eq!(bindings, vec![("s".to_string(), Value::atom_set([1, 2]))]);
                assert_eq!(deadline_ms, Some(50));
                assert_eq!(max_work, Some(1000));
                assert_eq!(max_set_size, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn envelope_failures_carry_the_id_when_readable() {
        let no_id = parse_request(r#"{"op":"execute","text":"1"}"#).unwrap_err();
        assert_eq!(no_id.id, None);
        let bad_op = parse_request(r#"{"op":"evaluate","id":9}"#).unwrap_err();
        assert_eq!(bad_op.id, Some(9));
        assert!(bad_op.message.contains("unknown op"));
        let bad_schema = parse_request(
            r#"{"op":"prepare","id":4,"text":"s","schema":[{"name":"s","type":"{"}]}"#,
        )
        .unwrap_err();
        assert_eq!(bad_schema.id, Some(4));
        assert!(bad_schema.message.contains("invalid schema type"));
    }

    /// The tree the wire encoding used to be built as, printed by the
    /// generic writer: the byte-for-byte reference for [`write_value`].
    fn tree(value: &Value) -> Json {
        let tagged = |tag: &str, body: Json| Json::Obj(vec![(tag.to_string(), body)]);
        match value {
            Value::Atom(a) => tagged("atom", Json::num(*a)),
            Value::Bool(b) => tagged("bool", Json::Bool(*b)),
            Value::Unit => tagged("unit", Json::Bool(true)),
            Value::Nat(n) => tagged("nat", Json::num(*n)),
            Value::Pair(a, b) => tagged("pair", Json::Arr(vec![tree(a), tree(b)])),
            Value::Set(s) => tagged("set", Json::Arr(s.iter().map(tree).collect())),
        }
    }

    /// Stream `text` through the value decoder as a whole input.
    fn decode(text: &str) -> Result<Value, JsonError> {
        let mut parser = Parser::new(text);
        let value = decode_value(&mut parser, 0)?;
        parser.finish()?;
        Ok(value)
    }

    fn pinned_values() -> Vec<(Value, &'static str)> {
        vec![
            (
                Value::pair(
                    Value::pair(Value::Atom(1), Value::Nat(2)),
                    Value::pair(Value::Bool(true), Value::Unit),
                ),
                r#"{"pair":[{"pair":[{"atom":1},{"nat":2}]},{"pair":[{"bool":true},{"unit":true}]}]}"#,
            ),
            (
                Value::set_from([
                    Value::atom_set([3, 1]),
                    Value::empty_set(),
                    Value::set_from([Value::pair(Value::Atom(2), Value::Bool(false))]),
                ]),
                r#"{"set":[{"set":[]},{"set":[{"atom":1},{"atom":3}]},{"set":[{"pair":[{"atom":2},{"bool":false}]}]}]}"#,
            ),
            (Value::empty_set(), r#"{"set":[]}"#),
            (Value::Unit, r#"{"unit":true}"#),
            (Value::Nat(u64::MAX), r#"{"nat":18446744073709551615}"#),
        ]
    }

    #[test]
    fn write_value_output_is_pinned_and_matches_the_tree_writer() {
        for (value, expected) in pinned_values() {
            let mut out = String::new();
            write_value(&mut out, &value);
            assert_eq!(out, expected);
            assert_eq!(tree(&value).to_string(), expected, "tree writer drifted");
            assert_eq!(value_to_json(&value).to_string(), expected);
        }
    }

    #[test]
    fn streaming_decode_equals_the_canonical_value() {
        for (value, text) in pinned_values() {
            assert_eq!(decode(text).unwrap(), value, "{text}");
            assert_eq!(value_from_json(&json::parse(text).unwrap()).unwrap(), value);
        }
        let spaced = " { \"pair\" :\n[ {\"atom\" : 4 } ,\t{ \"set\":[ ] } ] } ";
        assert_eq!(
            decode(spaced).unwrap(),
            Value::pair(Value::Atom(4), Value::empty_set())
        );
        let unordered = r#"{"set":[{"atom":9},{"atom":1},{"atom":9},{"atom":5},{"atom":1}]}"#;
        assert_eq!(decode(unordered).unwrap(), Value::atom_set([1, 5, 9]));
        assert_eq!(decode(r#"{"nat":1e3}"#).unwrap(), Value::Nat(1000));
        // Exact integers past 2^53; a float at or past the boundary is refused.
        assert_eq!(
            decode(r#"{"atom":9007199254740993}"#).unwrap(),
            Value::Atom((1 << 53) + 1)
        );
        assert!(decode(r#"{"atom":9.007199254740994e15}"#).is_err());
        // Escaped keys decode like plain ones; trailing bytes do not.
        assert_eq!(decode(r#"{"\u0061tom":7}"#).unwrap(), Value::Atom(7));
        assert!(decode(r#"{"atom":7} x"#).is_err());
    }

    /// An execute envelope whose one binding is `value`, nested `levels`
    /// times inside single-element sets.
    fn nested_set_request(levels: usize) -> String {
        let value = format!(
            "{}{{\"atom\":1}}{}",
            "{\"set\":[".repeat(levels),
            "]}".repeat(levels)
        );
        format!(
            r#"{{"op":"execute","id":5,"text":"s","bindings":[{{"name":"s","value":{value}}}]}}"#
        )
    }

    #[test]
    fn the_depth_limit_falls_exactly_where_the_json_parser_puts_it() {
        let mut accepted = Vec::new();
        for levels in 55..70 {
            let line = nested_set_request(levels);
            let tree_ok = json::parse(&line).is_ok();
            let streamed = parse_request(&line);
            assert_eq!(streamed.is_ok(), tree_ok, "{levels} levels");
            if let Err(e) = streamed {
                assert_eq!(e.id, None, "a depth violation is not JSON");
                assert!(e.message.contains("nesting"), "{}", e.message);
            }
            accepted.push(tree_ok);
        }
        // The window straddles the limit: both outcomes occur.
        assert!(accepted.contains(&true) && accepted.contains(&false));
    }

    #[test]
    fn grammar_violations_echo_the_id_even_before_it_is_read() {
        for bad in [
            "{}",
            r#"{"atom":"x"}"#,
            r#"{"pair":[{"atom":1},{"atom":2},{"atom":3}]}"#,
            r#"{"atom":1,"junk":2}"#,
            r#"{"unit":1}"#,
        ] {
            let line = format!(
                r#"{{"op":"execute","bindings":[{{"name":"s","value":{bad}}}],"id":12,"text":"s"}}"#
            );
            let err = parse_request(&line).unwrap_err();
            assert_eq!(err.id, Some(12), "{bad}: {}", err.message);
            assert!(
                err.message.contains("invalid value encoding"),
                "{bad}: {}",
                err.message
            );
        }
        // Broken JSON inside a value is still a whole-line failure.
        let line = r#"{"op":"execute","bindings":[{"name":"s","value":{"atom":}}],"id":12}"#;
        let err = parse_request(line).unwrap_err();
        assert_eq!(err.id, None);
        assert!(err.message.contains("not valid JSON"), "{}", err.message);
    }

    #[test]
    fn isolation_failures_get_their_own_codes() {
        use ncql_core::EvalError;
        assert_eq!(
            error_code(&Error::Eval(EvalError::work_limit_exceeded(5))),
            code::WORK_BUDGET
        );
        assert_eq!(
            error_code(&Error::Eval(EvalError::cancelled(
                "deadline of 5ms exceeded"
            ))),
            code::DEADLINE
        );
        assert_eq!(
            error_code(&Error::Eval(EvalError::stuck("pi1 of non-pair"))),
            code::EVAL
        );
    }
}
