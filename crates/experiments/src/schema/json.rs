//! JSON for the canonical schema: the writer's token spellings and a
//! minimal, strict parser.
// bc-lint: allow-file(float) — JSON number tokens are validated and
// surfaced via f64 on demand; integers re-parse from the source token,
// never through a float. The writer spells floats, never computes them.
//!
//! The workspace has no JSON dependency, so every document the schema
//! writes is assembled from the functions here ([`quote`], [`float`],
//! [`array`], [`object`], [`document`]) — one spelling per token — and
//! read back by [`parse`]. Two properties of the parser matter more than
//! generality:
//!
//! * **integers stay exact** — [`Value::Number`] keeps the source token
//!   and re-parses it as `u64`/`i64`/`f64` on demand, so a 64-bit seed
//!   never rounds through floating point;
//! * **strictness** — duplicate object keys, trailing garbage, deep
//!   nesting and malformed escapes are all hard [`JsonError`]s, because a
//!   leniently-parsed config would alias distinct cache keys.

use std::fmt;
use std::fmt::Write as _;

/// `s` as a JSON string literal, quotes included. `"` and `\` are
/// backslash-escaped, `\n`/`\r`/`\t` use their short forms, and every
/// other control character is `\u00XX`; everything else, non-ASCII
/// included, is copied through.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

fn push_quoted(out: &mut String, s: &str) {
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

/// `v` in Rust's shortest round-trip decimal form (`{:?}`), which is
/// valid JSON for every finite value. Non-finite values have no JSON
/// spelling and become `null`, which every decoder of a number rejects.
#[must_use]
pub fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `[a, b, ...]` of already-encoded values (numbers are their own
/// encoding).
#[must_use]
pub fn array<T: fmt::Display>(items: &[T]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{item}");
    }
    out.push(']');
    out
}

/// `{"key": value, ...}` on one line, keys in the order given, values
/// already encoded.
#[must_use]
pub fn object(fields: &[(&str, String)]) -> String {
    fields_json(fields, "{", ", ", "}")
}

/// The canonical top-level layout: one `"key": value` field per line,
/// indented two spaces, in the order given, with a trailing newline.
#[must_use]
pub fn document(fields: &[(&str, String)]) -> String {
    fields_json(fields, "{\n  ", ",\n  ", "\n}\n")
}

fn fields_json(fields: &[(&str, String)], open: &str, sep: &str, close: &str) -> String {
    let mut out = String::from(open);
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        push_quoted(&mut out, key);
        out.push_str(": ");
        out.push_str(value);
    }
    out.push_str(close);
    out
}

/// `value`, or `null` when absent.
#[must_use]
pub fn nullable(value: Option<String>) -> String {
    value.unwrap_or_else(|| "null".to_string())
}

/// Maximum nesting depth; canonical documents are ~3 levels deep, so
/// anything past this is hostile or corrupt input, not a real config.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source token (see module docs).
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order. Duplicate keys are a parse error.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value as an exact `u64`, if it is an unsigned integer token.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number token.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Looks a key up in an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut entries: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    at: key_at,
                    message: format!("duplicate object key '{key}'"),
                });
            }
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
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
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogates never appear in canonical output
                            // (it escapes only ASCII control characters);
                            // reject rather than guess at pairing.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unpaired surrogate escape"))?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Multi-byte UTF-8 is copied through verbatim.
                    let start = self.pos;
                    let text = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = text.chars().next().ok_or_else(|| self.err("empty slice"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.err("expected four hex digits after \\u"))?;
            code = code * 16 + d;
            self.pos += 1;
        }
        // Leave `pos` on the last consumed digit's successor; the caller's
        // `continue` skips the usual single-byte advance.
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?
            .to_string();
        // Validate the token parses as *some* number now, so accessors
        // can't fail later on a structurally-valid document.
        if token.parse::<f64>().is_err() {
            return Err(self.err("number out of range"));
        }
        Ok(Value::Number(token))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5, 1e3], "b": {"c": null, "d": true}, "e": "x\ny"}"#)
            .expect("parses");
        assert_eq!(
            v.get("a").unwrap(),
            &Value::Array(vec![
                Value::Number("1".into()),
                Value::Number("-2.5".into()),
                Value::Number("1e3".into()),
            ])
        );
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn u64_max_survives() {
        let v = parse("18446744073709551615").expect("parses");
        assert_eq!(v.as_u64(), Some(u64::MAX));
        // And does NOT silently round through f64.
        assert_eq!(
            parse("18446744073709551616").expect("parses").as_u64(),
            None
        );
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse("\"a\\u0009b\\u00e9\"").expect("parses");
        assert_eq!(v.as_str(), Some("a\tb\u{e9}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": 1,}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\": 1, \"a\": 2}",
            "\"\u{1}\"",
            "- 1",
            "1.e3",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse("{\"k\": 1, \"k\": 2}").unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse("{} x").is_err());
        assert!(parse("{}  \n").is_ok());
    }
}
