//! A minimal JSON value, writer, and parser.
//!
//! The workspace builds offline with no external crates, so the
//! observability layer carries its own JSON support: enough for
//! chrome-trace files, JSON-lines event logs, figure records, and
//! parse-back in tests. Numbers are `f64`, except integers from 2^53 up:
//! an `f64` stops counting in ones there, yet flow ids and packed
//! `(rank << 48) | bytes` values reach it from rank 32 on, so those stay
//! exact as [`Json::U64`].

use std::collections::VecDeque;
use std::fmt::Write as _;

/// A parsed or under-construction JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, except the integers [`Json::U64`] holds.
    Num(f64),
    /// An integer from 2^53 up, kept exact. Smaller integers are always
    /// `Num` (see [`Json::from_u64`]), so each value has one form.
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An exact unsigned integer: `Num` below 2^53, `U64` from there up.
    pub fn from_u64(n: u64) -> Json {
        if n < EXACT_F64 {
            Json::Num(n as f64)
        } else {
            Json::U64(n)
        }
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => self.as_f64().filter(|n| *n >= 0.0).map(|n| n as u64),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_str(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Parses one JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    /// Malformed input, with the byte offset of the failure.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }

    /// Parses a stream of whitespace/newline-separated JSON documents
    /// (the JSON-lines shape).
    ///
    /// # Errors
    /// Malformed input anywhere in the stream.
    pub fn parse_lines(input: &str) -> Result<Vec<Json>, JsonError> {
        let mut out = Vec::new();
        for (i, line) in input.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            out.push(Json::parse(line).map_err(|mut e| {
                e.msg = format!("line {}: {}", i + 1, e.msg);
                e
            })?);
        }
        Ok(out)
    }
}

/// Compact serialization (no whitespace); `to_string()` comes with it.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// 2^53: from here up, an `f64` no longer holds every integer.
const EXACT_F64: u64 = 1 << 53;

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf; mirror serde_json
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => self.eat("null").map(|()| Json::Null),
            b't' => self.eat("true").map(|()| Json::Bool(true)),
            b'f' => self.eat("false").map(|()| Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:`"));
            }
            self.pos += 1;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        let mut pending_surrogate: Option<u16> = None;
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    if pending_surrogate.is_some() {
                        return Err(self.err("unpaired surrogate"));
                    }
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    let simple = match esc {
                        b'"' => Some('"'),
                        b'\\' => Some('\\'),
                        b'/' => Some('/'),
                        b'b' => Some('\u{8}'),
                        b'f' => Some('\u{c}'),
                        b'n' => Some('\n'),
                        b'r' => Some('\r'),
                        b't' => Some('\t'),
                        b'u' => None,
                        _ => return Err(self.err("bad escape")),
                    };
                    if let Some(c) = simple {
                        if pending_surrogate.is_some() {
                            return Err(self.err("unpaired surrogate"));
                        }
                        out.push(c);
                        continue;
                    }
                    // \uXXXX
                    if self.pos + 4 > self.bytes.len() {
                        return Err(self.err("truncated \\u escape"));
                    }
                    let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                        .map_err(|_| self.err("bad \\u escape"))?;
                    let code =
                        u16::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    match (pending_surrogate.take(), code) {
                        (None, 0xD800..=0xDBFF) => pending_surrogate = Some(code),
                        (None, c) => match char::from_u32(u32::from(c)) {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid code point")),
                        },
                        (Some(hi), 0xDC00..=0xDFFF) => {
                            let c = 0x10000
                                + ((u32::from(hi) - 0xD800) << 10)
                                + (u32::from(code) - 0xDC00);
                            match char::from_u32(c) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid surrogate pair")),
                            }
                        }
                        (Some(_), _) => return Err(self.err("unpaired surrogate")),
                    }
                }
                _ => {
                    if pending_surrogate.is_some() {
                        return Err(self.err("unpaired surrogate"));
                    }
                    // Consume one UTF-8 code point.
                    let start = self.pos;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    if start + len > self.bytes.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
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
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::from_u64(n));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

/// Breadth-first pretty assertion helper used by tests: collects every
/// `(path, scalar)` leaf of a value.
pub fn leaves(root: &Json) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut queue: VecDeque<(String, &Json)> = VecDeque::new();
    queue.push_back((String::new(), root));
    while let Some((path, v)) = queue.pop_front() {
        match v {
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    queue.push_back((format!("{path}[{i}]"), item));
                }
            }
            Json::Obj(fields) => {
                for (k, item) in fields {
                    queue.push_back((format!("{path}.{k}"), item));
                }
            }
            scalar => out.push((path, scalar.to_string())),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_values() {
        let v = Json::obj(vec![
            ("name", Json::Str("mimir \"obs\"\n".into())),
            ("n", Json::Num(42.0)),
            ("frac", Json::Num(0.5)),
            ("neg", Json::Num(-17.0)),
            ("ok", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "arr",
                Json::Arr(vec![Json::Num(1.0), Json::Str("x".into()), Json::Null]),
            ),
        ]);
        let text = v.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        let pretty = v.to_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#"{"s":"a\tbé😀c"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\tbé😀c");
    }

    #[test]
    fn integers_print_without_exponent() {
        assert_eq!(Json::Num(1_000_000_000_000.0).to_string(), "1000000000000");
        assert_eq!(Json::Num(0.25).to_string(), "0.25");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_lines_splits_documents() {
        let docs = Json::parse_lines("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[1].get("b").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn get_and_accessors() {
        let v = Json::parse(r#"{"x": 3, "y": [1, 2], "s": "hi", "b": false}"#).unwrap();
        assert_eq!(v.get("x").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("y").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
        assert!(leaves(&v).len() >= 5);
    }
}
