//! A small JSON document builder and parser.
//!
//! [`JsonValue`] builds a document as a tree and serializes it compactly
//! (no whitespace, one line) with correct string escaping everywhere, so
//! no report risks an escaping or comma bug the compiler cannot see. It
//! renders every observability file — the `pcq-analyze run --json` report
//! with its [`Registry`](crate::Registry) export, the trace file of
//! [`trace_export`](crate::trace_export), the summaries and diffs of
//! `pcq-analyze trace` — and parses the trace file back.

use std::fmt;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counts, sizes, microseconds).
    UInt(u128),
    /// A float rendered with a fixed number of decimals (ratios). NaN and
    /// infinities render as `null` (JSON has no spelling for them).
    Fixed {
        /// The value.
        value: f64,
        /// Number of decimal places.
        decimals: u8,
    },
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is preserved as inserted.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn array(items: impl IntoIterator<Item = JsonValue>) -> JsonValue {
        JsonValue::Array(items.into_iter().collect())
    }

    /// A float rendered with `decimals` decimal places.
    pub fn fixed(value: f64, decimals: u8) -> JsonValue {
        JsonValue::Fixed { value, decimals }
    }

    /// Appends a `(key, value)` pair to an object.
    ///
    /// # Panics
    /// Panics when `self` is not an object — that is a programming error,
    /// not a data error.
    pub fn push(&mut self, key: impl Into<String>, value: JsonValue) -> &mut JsonValue {
        match self {
            JsonValue::Object(pairs) => pairs.push((key.into(), value)),
            other => panic!("JsonValue::push on a non-object {other:?}"),
        }
        self
    }
}

impl JsonValue {
    /// Parses a JSON document — the inverse of the `Display` rendering,
    /// for tools that read documents this crate (or anything else) wrote:
    /// `pcq-analyze trace summarize` loads Chrome-trace files through
    /// this. Non-negative integers parse as [`JsonValue::UInt`]; any other
    /// number (negative, fractional, exponent) parses as
    /// [`JsonValue::Fixed`] keeping its printed decimal count.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.at != parser.bytes.len() {
            return Err(format!("trailing data at byte {}", parser.at));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for missing keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for non-arrays).
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload of a `UInt` that fits in a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }
}

/// Maximum container nesting the parser accepts. Recursive descent uses
/// the call stack, so unbounded input like `[[[[…` would otherwise
/// overflow it; 128 levels is far beyond any document we emit.
const MAX_DEPTH: usize = 128;

/// A recursive-descent JSON parser over raw bytes (JSON structure is
/// ASCII; string contents pass through as UTF-8).
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.at) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                char::from(byte),
                self.at
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected '{}' at byte {}",
                char::from(other),
                self.at
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Runs a container parser one nesting level deeper, enforcing
    /// [`MAX_DEPTH`] so hostile input cannot overflow the call stack.
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.at
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4(self.at + 1)?;
                            self.at += 4;
                            let scalar = if (0xd800..0xdc00).contains(&code) {
                                // A high surrogate: combine with a
                                // following `\uDC00`-`\uDFFF` escape into
                                // one supplementary-plane scalar. A lone
                                // (or mismatched) surrogate maps to
                                // U+FFFD rather than failing the parse.
                                match self.low_surrogate() {
                                    Some(low) => {
                                        self.at += 6;
                                        0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                                    }
                                    None => 0xfffd,
                                }
                            } else {
                                code
                            };
                            out.push(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar so multi-byte text
                    // survives the byte-wise walk.
                    let rest = std::str::from_utf8(&self.bytes[self.at..])
                        .map_err(|e| format!("invalid UTF-8 in string: {e}"))?;
                    let c = rest.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.at += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// Reads four hex digits starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())
    }

    /// When the bytes after the current `\uXXXX` escape (whose last hex
    /// digit `self.at` sits on) spell another `\uXXXX` escape carrying a
    /// low surrogate, returns its code without consuming anything.
    fn low_surrogate(&self) -> Option<u32> {
        if self.bytes.get(self.at + 1) != Some(&b'\\') || self.bytes.get(self.at + 2) != Some(&b'u')
        {
            return None;
        }
        let code = self.hex4(self.at + 3).ok()?;
        (0xdc00..0xe000).contains(&code).then_some(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while let Some(b'0'..=b'9') = self.peek() {
            self.at += 1;
        }
        let mut decimals = 0u8;
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.at += 1;
            while let Some(b'0'..=b'9') = self.peek() {
                self.at += 1;
                decimals = decimals.saturating_add(1);
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            fractional = true;
            self.at += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.at += 1;
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.at += 1;
            }
            // Exponent notation loses the printed-decimals round-trip;
            // render with enough digits to stay faithful.
            decimals = decimals.max(6);
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("digits are ASCII");
        if !fractional && !text.starts_with('-') {
            return text
                .parse::<u128>()
                .map(JsonValue::UInt)
                .map_err(|e| format!("bad number '{text}': {e}"));
        }
        text.parse::<f64>()
            .map(|value| JsonValue::Fixed { value, decimals })
            .map_err(|e| format!("bad number '{text}': {e}"))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }
}

impl From<bool> for JsonValue {
    fn from(value: bool) -> JsonValue {
        JsonValue::Bool(value)
    }
}

impl From<usize> for JsonValue {
    fn from(value: usize) -> JsonValue {
        JsonValue::UInt(value as u128)
    }
}

impl From<u64> for JsonValue {
    fn from(value: u64) -> JsonValue {
        JsonValue::UInt(u128::from(value))
    }
}

impl From<u128> for JsonValue {
    fn from(value: u128) -> JsonValue {
        JsonValue::UInt(value)
    }
}

impl From<&str> for JsonValue {
    fn from(value: &str) -> JsonValue {
        JsonValue::Str(value.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(value: String) -> JsonValue {
        JsonValue::Str(value)
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(value: Option<T>) -> JsonValue {
        value.map_or(JsonValue::Null, Into::into)
    }
}

/// Escapes a string for a JSON string literal (quotes, backslashes,
/// control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::UInt(n) => write!(f, "{n}"),
            JsonValue::Fixed { value, decimals } => {
                if value.is_finite() {
                    write!(f, "{value:.*}", usize::from(*decimals))
                } else {
                    write!(f, "null")
                }
            }
            JsonValue::Str(s) => write!(f, "\"{}\"", escape(s)),
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(pairs) => {
                write!(f, "{{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "\"{}\":{value}", escape(key))?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_inverts_display() {
        let doc = JsonValue::object([
            ("name", JsonValue::from("T(x) :- R(x, \"y\").\n")),
            ("count", JsonValue::from(42usize)),
            ("ratio", JsonValue::fixed(1.5, 4)),
            ("ok", JsonValue::from(true)),
            ("missing", JsonValue::Null),
            (
                "items",
                JsonValue::array([JsonValue::from(0u64), JsonValue::from("x")]),
            ),
        ]);
        let reparsed = JsonValue::parse(&doc.to_string()).unwrap();
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.get("count").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(
            reparsed.get("name").and_then(JsonValue::as_str),
            Some("T(x) :- R(x, \"y\").\n")
        );
        assert_eq!(
            reparsed
                .get("items")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn parse_handles_whitespace_escapes_and_unicode() {
        let parsed = JsonValue::parse(
            " { \"a\" : [ 1 , -2.5 , \"\\u0041\\\\\" , \"é\" ] ,\n \"b\" : { } } ",
        )
        .unwrap();
        let items = parsed.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items[0], JsonValue::UInt(1));
        assert_eq!(
            items[1],
            JsonValue::Fixed {
                value: -2.5,
                decimals: 1
            }
        );
        assert_eq!(items[2].as_str(), Some("A\\"));
        assert_eq!(items[3].as_str(), Some("é"));
        assert_eq!(parsed.get("b"), Some(&JsonValue::Object(Vec::new())));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let hostile = "[".repeat(4096);
        let err = JsonValue::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting deeper than"), "got: {err}");
        let hostile_objects = "{\"a\":".repeat(4096);
        let err = JsonValue::parse(&hostile_objects).unwrap_err();
        assert!(err.contains("nesting deeper than"), "got: {err}");
        // Reasonable nesting still parses fine.
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(JsonValue::parse(&deep).is_ok());
    }

    #[test]
    fn surrogate_pairs_combine_into_one_scalar() {
        let parsed = JsonValue::parse("\"\\uD83D\\uDE00\"").unwrap();
        assert_eq!(parsed.as_str(), Some("😀"));
        // A pair followed by ordinary text keeps its position.
        let parsed = JsonValue::parse("\"a\\uD834\\uDD1Eb\"").unwrap();
        assert_eq!(parsed.as_str(), Some("a\u{1d11e}b"));
    }

    #[test]
    fn lone_surrogates_map_to_replacement_character() {
        // A high surrogate with no low after it.
        assert_eq!(
            JsonValue::parse("\"\\uD800x\"").unwrap().as_str(),
            Some("\u{fffd}x")
        );
        // A high surrogate followed by a non-surrogate escape: the escape
        // survives on its own.
        assert_eq!(
            JsonValue::parse("\"\\uD800\\u0041\"").unwrap().as_str(),
            Some("\u{fffd}A")
        );
        // A low surrogate on its own.
        assert_eq!(
            JsonValue::parse("\"\\uDC00\"").unwrap().as_str(),
            Some("\u{fffd}")
        );
    }

    #[test]
    fn escape_sequences_cover_the_full_set() {
        let parsed = JsonValue::parse("\"\\b\\f\\n\\r\\t\\/\\\\\\\"\"").unwrap();
        assert_eq!(parsed.as_str(), Some("\u{8}\u{c}\n\r\t/\\\""));
        assert!(JsonValue::parse("\"\\x\"").is_err());
        assert!(JsonValue::parse("\"\\u12\"").is_err());
        assert!(JsonValue::parse("\"\\uZZZZ\"").is_err());
    }

    #[test]
    fn trailing_garbage_after_valid_document_is_rejected() {
        for bad in ["{\"a\":1}x", "[1] [2]", "truefalse", "42,", "null}"] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(
                err.contains("trailing data") || err.contains("bad literal"),
                "{bad:?} gave: {err}"
            );
        }
        // Trailing whitespace is fine.
        assert!(JsonValue::parse("{\"a\":1}  \n").is_ok());
    }

    #[test]
    fn renders_compact_json() {
        let mut doc = JsonValue::object([
            ("name", JsonValue::from("T(x) :- R(x, \"y\").")),
            ("count", JsonValue::from(42usize)),
            ("ratio", JsonValue::fixed(1.5, 4)),
            ("ok", JsonValue::from(true)),
            ("missing", JsonValue::Null),
        ]);
        doc.push(
            "items",
            JsonValue::array([JsonValue::from(1u64), JsonValue::from(2u64)]),
        );
        assert_eq!(
            doc.to_string(),
            r#"{"name":"T(x) :- R(x, \"y\").","count":42,"ratio":1.5000,"ok":true,"missing":null,"items":[1,2]}"#
        );
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(escape("a\nb\t\"c\"\\"), "a\\nb\\t\\\"c\\\"\\\\");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(JsonValue::fixed(f64::NAN, 2).to_string(), "null");
        assert_eq!(JsonValue::fixed(f64::INFINITY, 2).to_string(), "null");
    }

    #[test]
    fn options_lift_into_null() {
        assert_eq!(JsonValue::from(None::<&str>), JsonValue::Null);
        assert_eq!(JsonValue::from(Some("x")).to_string(), "\"x\"".to_string());
    }
}
