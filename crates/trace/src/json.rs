//! The workspace's one JSON reader and writer.
//!
//! The workspace builds offline with no serialisation crate, so this
//! module is hand-rolled. [`Json::parse`] reads the full recursive grammar
//! for every consumer: the `trace.jsonl` event reader
//! ([`crate::report::parse_jsonl`]), the `profile.json` / `BENCH_*.json`
//! analytics of `ipcl-tracetool`, and the `ipcl-serve` wire protocol and
//! proof cache. [`write_json_string`] and [`write_json_value`] are the
//! matching writers.
//!
//! Numbers keep their literal's kind, as [`Value`] does: an integer literal
//! (no fraction, no exponent) is read exactly as [`Json::U64`] or, when
//! negative, [`Json::I64`]; everything else is a [`Json::F64`]. So
//! `u64::MAX` and `i64::MIN` round-trip, and [`Json::as_u64`] never rounds.
//!
//! Nesting is bounded by [`MAX_DEPTH`]: a deeper document is an `Err`, not
//! a stack overflow, so a hostile request line cannot abort a process that
//! parses untrusted input (the `ipcl-serve` wire protocol).

use std::fmt::Write as _;

use crate::Value;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// documents of this workspace nest fewer than ten levels deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal that fits a `u64`.
    U64(u64),
    /// A negative integer literal that fits an `i64`.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: every member, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member `key` of an object — the first, if the key repeats (`None`
    /// for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number (integers above 2^53 are rounded).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, exactly: a literal with a
    /// fraction or exponent, or a negative one, is `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Escapes `s` into `out` as a JSON string literal (with quotes).
pub fn write_json_string(out: &mut String, s: &str) {
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

/// Writes a typed event field as JSON. An `F64` always carries a `.` (so
/// it reads back as a float, not an integer); a non-finite one is `null`,
/// which the event reader takes back as NaN.
pub fn write_json_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) if v.is_finite() => {
            let start = out.len();
            let _ = write!(out, "{v}");
            if !out[start..].contains('.') {
                out.push_str(".0");
            }
        }
        Value::F64(_) => out.push_str("null"),
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Str(v) => write_json_string(out, v),
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected literal '{lit}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.expect(b'}')?;
            return Ok(Json::Obj(members));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            members.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.expect(b',')?,
                Some(b'}') => {
                    self.expect(b'}')?;
                    return Ok(Json::Obj(members));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.expect(b']')?;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.expect(b',')?,
                Some(b']') => {
                    self.expect(b']')?;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece: both
            // are ASCII, so the run ends on a character boundary.
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| !matches!(b, b'"' | b'\\'))
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_owned());
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let Some(&esc) = self.bytes.get(self.pos) else {
                return Err("unterminated escape".to_owned());
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => out.push(self.unicode_escape()?),
                other => return Err(format!("bad escape '\\{}'", other as char)),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` was just read. A UTF-16
    /// high surrogate must be followed by an escaped low one (the pair is
    /// one non-BMP character); a lone or reversed surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&code) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err("unpaired surrogate in \\u escape".to_owned());
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err("unpaired surrogate in \\u escape".to_owned());
            }
            0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
        } else {
            code
        };
        char::from_u32(code).ok_or_else(|| "invalid \\u escape".to_owned())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() {
            return Err(format!("expected a value at byte {start}"));
        }
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
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = Json::parse(
            r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true, "e": null}, "f": []}"#,
        )
        .unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[0].as_u64(),
            Some(1)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny")
        );
        assert_eq!(
            doc.get("b").unwrap().get("d").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(doc.get("b").unwrap().get("e"), Some(&Json::Null));
        assert_eq!(doc.get("f").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).unwrap_err().contains("nesting"));
        let objects = "{\"a\": ".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).unwrap_err().contains("nesting"));
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn integers_are_read_exactly() {
        let above_2_53 = Json::parse("9007199254740993").unwrap();
        assert_eq!(above_2_53.as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::I64(i64::MIN)
        );
        assert_eq!(Json::parse("2.0").unwrap(), Json::F64(2.0));
        assert_eq!(Json::parse("2.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_f64(), Some(-3.0));
    }

    #[test]
    fn escaped_surrogate_pairs_decode_and_lone_surrogates_fail() {
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1f600}")
        );
        // Lone high, high then a non-surrogate, lone low, reversed pair.
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ud83dA""#).is_err());
        assert!(Json::parse(r#""\ude00""#).is_err());
        assert!(Json::parse(r#""\ude00\ud83d""#).is_err());
    }

    #[test]
    fn objects_keep_repeated_keys_and_get_returns_the_first() {
        let doc = Json::parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap();
        assert_eq!(doc.get("a"), Some(&Json::U64(1)));
        assert_eq!(doc.as_object().unwrap().len(), 3);
    }

    #[test]
    fn round_trips_the_trace_crates_profile_output() {
        // The exact shape `crate::report::profile_json` emits.
        let text = "{\n  \"wall_us\": 123,\n  \"root_span_us\": 100,\n  \"dropped_events\": 0,\n  \
                    \"spans\": [\n    {\"path\": [\"solve\"], \"total_us\": 100, \"self_us\": 40, \
                    \"count\": 1}\n  ],\n  \"counters\": {\n    \"sat.conflicts\": 12\n  },\n  \
                    \"gauges\": {\n    \"depth\": 3.5\n  }\n}\n";
        let doc = Json::parse(text).unwrap();
        assert_eq!(doc.get("wall_us").unwrap().as_u64(), Some(123));
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("sat.conflicts")
                .unwrap()
                .as_u64(),
            Some(12)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("depth").unwrap().as_f64(),
            Some(3.5)
        );
    }
}
