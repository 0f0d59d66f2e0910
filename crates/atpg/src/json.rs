//! A tiny dependency-free JSON value: a compact writer and a hardened,
//! bounded parser.
//!
//! The identification service and the `untestable --json` report share one
//! response schema; this module is the only JSON machinery behind both. It
//! lives in the engine crate so engine results such as the
//! [`EngineBreakdown`](crate::proof::EngineBreakdown) serialize themselves. The
//! parser is written for hostile input — it is fed raw HTTP bodies — so it
//! never recurses past [`MAX_DEPTH`], never panics, reports every rejection
//! with a byte offset, and refuses trailing garbage.

use std::fmt;

/// Maximum nesting depth the parser accepts before rejecting the document.
/// Deeply nested arrays/objects are the classic stack-overflow vector for
/// recursive-descent parsers; no legitimate request comes close.
pub const MAX_DEPTH: usize = 64;

/// A parsed or constructed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string (already unescaped).
    String(String),
    /// `[ ... ]`
    Array(Vec<JsonValue>),
    /// `{ ... }` — insertion-ordered; [`get`](JsonValue::get) returns the
    /// first binding of a key.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds a string value.
    pub fn string(text: impl Into<String>) -> JsonValue {
        JsonValue::String(text.into())
    }

    /// The first value bound to `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer: the number must be
    /// finite, integral, and fit `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n)
                if n.fract() == 0.0 && *n >= 0.0 && *n <= 9_007_199_254_740_992.0 =>
            {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error, as is nesting beyond [`MAX_DEPTH`].
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first rejected character.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            position: 0,
        };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.position != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> JsonValue {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> JsonValue {
        JsonValue::Number(n)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> JsonValue {
        JsonValue::Number(n as f64)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> JsonValue {
        JsonValue::Number(n as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> JsonValue {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> JsonValue {
        JsonValue::String(s)
    }
}

impl fmt::Display for JsonValue {
    /// Compact serialization: no insignificant whitespace, strings escaped
    /// per RFC 8259, integral numbers written without a fractional part,
    /// non-finite numbers written as `null` (JSON has no spelling for them).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                if !n.is_finite() {
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            JsonValue::String(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in text.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{08}' => f.write_str("\\b")?,
            '\u{0C}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse rejection: what was wrong and where (byte offset into the input).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the first rejected character.
    pub offset: usize,
    /// Human-readable description of the rejection.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    position: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.position,
            message: message.to_string(),
        }
    }

    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.position) {
            self.position += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.position).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.position += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.position..].starts_with(word.as_bytes()) {
            self.position += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a JSON value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.position += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.position += 1,
                Some(b']') => {
                    self.position += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.position += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            pairs.push((key, self.value(depth + 1)?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.position += 1,
                Some(b'}') => {
                    self.position += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')
            .map_err(|_| self.error("expected a string"))?;
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.position += 1;
                    return Ok(text);
                }
                Some(b'\\') => {
                    self.position += 1;
                    match self.peek() {
                        Some(b'"') => text.push('"'),
                        Some(b'\\') => text.push('\\'),
                        Some(b'/') => text.push('/'),
                        Some(b'b') => text.push('\u{08}'),
                        Some(b'f') => text.push('\u{0C}'),
                        Some(b'n') => text.push('\n'),
                        Some(b'r') => text.push('\r'),
                        Some(b't') => text.push('\t'),
                        Some(b'u') => {
                            self.position += 1;
                            let c = self.unicode_escape()?;
                            text.push(c);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.position += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control byte at once. Those bytes are ASCII, so both
                    // ends of the run are character boundaries of the input.
                    let start = self.position;
                    while let Some(&b) = self.bytes.get(self.position) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.position += 1;
                    }
                    let run = self
                        .text
                        .get(start..self.position)
                        .ok_or_else(|| self.error("invalid UTF-8"))?;
                    text.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let slice = self
            .bytes
            .get(self.position..self.position + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.position += 4;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: require the paired low surrogate.
            if self.bytes[self.position..].starts_with(b"\\u") {
                self.position += 2;
                let second = self.hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(code)
                        .ok_or_else(|| self.error("invalid surrogate pair"));
                }
            }
            return Err(self.error("unpaired surrogate in \\u escape"));
        }
        char::from_u32(first).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.position;
        if self.peek() == Some(b'-') {
            self.position += 1;
        }
        let digits_from = self.position;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.position += 1;
        }
        if self.position == digits_from {
            return Err(self.error("expected a digit"));
        }
        if self.peek() == Some(b'.') {
            self.position += 1;
            let fraction_from = self.position;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.position += 1;
            }
            if self.position == fraction_from {
                return Err(self.error("expected a digit after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.position += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.position += 1;
            }
            let exponent_from = self.position;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.position += 1;
            }
            if self.position == exponent_from {
                return Err(self.error("expected a digit in the exponent"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.position]).expect("number bytes are ASCII");
        let value: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            message: "number out of range".to_string(),
        })?;
        if !value.is_finite() {
            return Err(JsonError {
                offset: start,
                message: "number out of range".to_string(),
            });
        }
        Ok(JsonValue::Number(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> String {
        JsonValue::parse(text).unwrap().to_string()
    }

    #[test]
    fn scalars_round_trip() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("true"), "true");
        assert_eq!(roundtrip("false"), "false");
        assert_eq!(roundtrip("42"), "42");
        assert_eq!(roundtrip("-7"), "-7");
        assert_eq!(roundtrip("2.5"), "2.5");
        assert_eq!(roundtrip("1e3"), "1000");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn containers_round_trip() {
        assert_eq!(roundtrip("[]"), "[]");
        assert_eq!(roundtrip("{}"), "{}");
        assert_eq!(
            roundtrip("{ \"a\" : [1, 2, {\"b\": null}] , \"c\": true }"),
            "{\"a\":[1,2,{\"b\":null}],\"c\":true}"
        );
    }

    #[test]
    fn escapes_round_trip() {
        let parsed = JsonValue::parse(r#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str(), Some("a\"b\\c\ndAé😀"));
        let written = parsed.to_string();
        assert_eq!(
            JsonValue::parse(&written).unwrap().as_str(),
            parsed.as_str()
        );
    }

    #[test]
    fn accessors() {
        let doc = JsonValue::parse(r#"{"n": 3, "s": "x", "b": false, "a": [1]}"#).unwrap();
        assert_eq!(doc.get("n").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(doc.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(doc.get("b").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            doc.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(JsonValue::Number(1.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
    }

    #[test]
    fn rejections_carry_an_offset() {
        for (text, offset_at_least) in [
            ("", 0),
            ("tru", 0),
            ("[1,", 3),
            ("{\"a\"}", 4),
            ("\"abc", 4),
            ("1 2", 2),
            ("{\"a\":1,}", 7),
            ("01x", 1),
            ("\"\\q\"", 2),
            ("\"\\ud800\"", 2),
            ("1e999", 0),
        ] {
            let err = JsonValue::parse(text).unwrap_err();
            assert!(
                err.offset >= offset_at_least,
                "{text:?}: offset {} < {offset_at_least}",
                err.offset
            );
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        JsonValue::parse(&ok).unwrap();
    }

    #[test]
    fn control_characters_must_be_escaped() {
        assert!(JsonValue::parse("\"a\nb\"").is_err());
        assert_eq!(
            JsonValue::parse("\"a\\nb\"").unwrap().as_str(),
            Some("a\nb")
        );
    }

    #[test]
    fn non_finite_numbers_write_as_null() {
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Number(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // 1 MiB of one-, two-, three- and four-byte scalars with an escape
        // every few characters. Re-validating the rest of the input per
        // character took seconds at a quarter of this size.
        let piece = "plain ascii é € 😀 \"q\\\n";
        let body = piece.repeat((1 << 20) / piece.len());
        let text = JsonValue::string(body.as_str()).to_string();
        let started = std::time::Instant::now();
        let parsed = JsonValue::parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.as_str(), Some(body.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "parsing {} bytes took {elapsed:?}",
            text.len()
        );
    }

    /// A scalar drawn from one of the classes a string scan must tell
    /// apart: printable ASCII, the escaped `"` and `\`, control
    /// characters, and two-, three- and four-byte UTF-8.
    fn scalar(code: u32) -> char {
        let pick = code >> 3;
        let value = match code & 7 {
            0 | 1 => 0x20 + pick % 0x5F,
            2 => [u32::from(b'"'), u32::from(b'\\'), u32::from(b'/')][(pick % 3) as usize],
            3 => pick % 0x20,
            4 => 0x80 + pick % 0x780,
            5 => match 0x800 + pick % 0xF000 {
                surrogate @ 0xD800.. => surrogate + 0x800,
                c => c,
            },
            _ => 0x1_0000 + pick % 0x10_0000,
        };
        char::from_u32(value).expect("every class avoids the surrogates")
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        /// Writing a value and parsing it back gives the value, for strings
        /// in both value and key position.
        #[test]
        fn strings_round_trip_through_the_writer(
            codes in proptest::collection::vec(proptest::any::<u32>(), 0..48),
        ) {
            let text: String = codes.into_iter().map(scalar).collect();
            let value = JsonValue::Array(vec![
                JsonValue::string(text.as_str()),
                JsonValue::Object(vec![(text.clone(), JsonValue::string(text.as_str()))]),
            ]);
            proptest::prop_assert_eq!(JsonValue::parse(&value.to_string()), Ok(value));
        }
    }
}
