//! Machine-readable findings: a hand-rolled JSON writer (and a small
//! parser for the self-check tests). No dependencies, stable schema.
//!
//! # Schema (version 3)
//!
//! ```json
//! {
//!   "schema": 3,
//!   "files_scanned": 123,
//!   "suppressions_used": 4,
//!   "counts": {"panic_path": 0, "...": 0},
//!   "findings": [
//!     {"rule": "hot_transitive", "path": "crates/...", "line": 7,
//!      "msg": "...", "call_path": ["f (a.rs:1)", "g (b.rs:2)"]}
//!   ]
//! }
//! ```
//!
//! Each finding is serialised on **one line**, in the report's sorted
//! (path, line, rule) order, so `diff`/`comm` against a committed
//! baseline works line-by-line (`scripts/phylint_diff.sh`). Key order
//! is fixed; adding or removing keys bumps `schema`. Version 2 added
//! the `test_only_api` count; version 3 dropped the `lock_order` and
//! `feature_gate` counts with their rules. `counts` carries one key
//! per rule and the validator requires every one.

use std::collections::BTreeMap;

use crate::report::{Finding, Report, ALL_RULES};

/// Current schema version.
pub const SCHEMA_VERSION: u32 = 3;

/// Escape a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// One finding as a single-line JSON object.
pub fn finding_to_json(f: &Finding) -> String {
    let path = escape(&f.path.display().to_string());
    let call_path: Vec<String> = f
        .call_path
        .iter()
        .map(|s| format!("\"{}\"", escape(s)))
        .collect();
    format!(
        "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"msg\":\"{}\",\"call_path\":[{}]}}",
        f.rule.name(),
        path,
        f.line,
        escape(&f.msg),
        call_path.join(",")
    )
}

/// The whole report. Findings one per line; everything else compact.
pub fn report_to_json(r: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("\"schema\":{SCHEMA_VERSION},\n"));
    out.push_str(&format!("\"files_scanned\":{},\n", r.files_scanned));
    out.push_str(&format!("\"suppressions_used\":{},\n", r.suppressions_used));
    let counts: Vec<String> = r
        .counts()
        .iter()
        .map(|(rule, n)| format!("\"{}\":{n}", rule.name()))
        .collect();
    out.push_str(&format!("\"counts\":{{{}}},\n", counts.join(",")));
    out.push_str("\"findings\":[\n");
    for (i, f) in r.findings.iter().enumerate() {
        out.push_str(&finding_to_json(f));
        if i + 1 < r.findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n}\n");
    out
}

/// A parsed JSON value — just enough for the self-check tests to
/// round-trip the emitted report.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A JSON parse or schema-validation failure: a message, usually
/// carrying a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl JsonError {
    fn new(msg: impl Into<String>) -> JsonError {
        JsonError(msg.into())
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

/// Parse a JSON document. Errors carry a byte offset.
pub fn parse(src: &str) -> Result<Value, JsonError> {
    parse_impl(src).map_err(JsonError)
}

/// Parser internals keep plain `String` errors; [`parse`] wraps them
/// into the typed [`JsonError`] at the public boundary.
fn parse_impl(src: &str) -> Result<Value, String> {
    let b = src.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek_byte() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek_byte() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(format!("unexpected byte {}", self.i)),
        }
    }

    fn parse_lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek_byte() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek_byte()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek_byte() else {
                return Err("unterminated string".to_string());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek_byte() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.i += 4;
                            // Surrogate pairs unsupported: the writer
                            // never emits them (only escapes < 0x20).
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                _ => {
                    // Re-sync to char boundary for multi-byte UTF-8.
                    let s = &self.b[self.i - 1..];
                    let ch_len = utf8_len(c);
                    let chunk = std::str::from_utf8(&s[..ch_len.min(s.len())])
                        .map_err(|_| "bad utf-8 in string".to_string())?;
                    out.push_str(chunk);
                    self.i += ch_len - 1;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek_byte() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.parse_value()?);
            self.skip_ws();
            match self.peek_byte() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek_byte() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.parse_value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek_byte() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
            }
        }
    }
}

/// UTF-8 sequence length from the lead byte.
fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Validate the emitted report against the current schema; returns the
/// parsed value for further assertions.
pub fn validate_schema(src: &str) -> Result<Value, JsonError> {
    let v = parse(src)?;
    let num = |field: &Value, key: &str| {
        field
            .get(key)
            .and_then(Value::as_num)
            .ok_or_else(|| JsonError::new(format!("missing `{key}`")))
    };
    let schema = num(&v, "schema")?;
    if schema != f64::from(SCHEMA_VERSION) {
        return Err(JsonError::new(format!(
            "schema version {schema} != {SCHEMA_VERSION}"
        )));
    }
    num(&v, "files_scanned")?;
    num(&v, "suppressions_used")?;
    let counts = v
        .get("counts")
        .ok_or_else(|| JsonError::new("missing `counts`"))?;
    for rule in ALL_RULES {
        num(counts, rule.name())
            .map_err(|_| JsonError::new(format!("counts missing `{}`", rule.name())))?;
    }
    let findings = v
        .get("findings")
        .and_then(Value::as_arr)
        .ok_or_else(|| JsonError::new("missing `findings`"))?;
    for (i, f) in findings.iter().enumerate() {
        let field = |key: &str| {
            f.get(key)
                .ok_or_else(|| JsonError::new(format!("finding {i}: missing `{key}`")))
        };
        let rule = field("rule")?
            .as_str()
            .ok_or_else(|| JsonError::new(format!("finding {i}: non-string `rule`")))?;
        if crate::report::RuleId::parse(rule).is_none() {
            return Err(JsonError::new(format!("finding {i}: unknown rule `{rule}`")));
        }
        field("path")?
            .as_str()
            .ok_or_else(|| JsonError::new(format!("finding {i}: non-string `path`")))?;
        field("line")?
            .as_num()
            .ok_or_else(|| JsonError::new(format!("finding {i}: non-numeric `line`")))?;
        field("msg")?
            .as_str()
            .ok_or_else(|| JsonError::new(format!("finding {i}: non-string `msg`")))?;
        let cp = field("call_path")?
            .as_arr()
            .ok_or_else(|| JsonError::new(format!("finding {i}: non-array `call_path`")))?;
        if cp.iter().any(|e| e.as_str().is_none()) {
            return Err(JsonError::new(format!(
                "finding {i}: non-string call_path entry"
            )));
        }
    }
    Ok(v)
}
