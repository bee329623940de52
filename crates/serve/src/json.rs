//! A dependency-free JSON value, parser and writer — the wire codec for
//! the service, in the same vendored-shim spirit as `crates/{rand,
//! proptest,criterion}`: exactly the surface the workspace needs, zero
//! registry dependencies, offline build.
//!
//! Two properties matter for the service contract:
//!
//! * **Exact float round-trips.** Numbers are written with Rust's `{:?}`
//!   formatting (shortest representation that parses back to the same
//!   bits) and re-parsed with `str::parse::<f64>`, so every finite `f64`
//!   survives serialize → parse bit-identically. This is what lets the
//!   end-to-end tests compare served reports against in-process pipeline
//!   runs with `f64::to_bits` equality.
//! * **Typed errors, never panics.** Arbitrary request bytes must yield
//!   [`JsonError`], keeping the server's parse path panic-free.
//! * **Linear time.** Parsing is one pass over the input: string literals
//!   copy each run of ordinary bytes whole, so a 16 MiB request body costs
//!   milliseconds, not the quadratic time of re-validating the remaining
//!   input per character.
//!
//! Outcome indices (`u64`) are *not* encoded as JSON numbers — values
//! above 2^53 would be corrupted by readers that go through `f64`. The
//! wire layer encodes them as decimal strings instead (see
//! [`crate::wire`]).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
///
/// Objects use a `BTreeMap`, so serialization order is deterministic
/// (sorted keys) regardless of insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

/// A typed JSON parse error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.serialize())
    }
}

impl Json {
    /// Parses a JSON document, requiring the input to be fully consumed.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(*x, out),
            Json::Str(s) => write_string(s, out),
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
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serializes to compact JSON (no insignificant whitespace); also
    /// available as `to_string()` via [`fmt::Display`].
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    // ---- typed accessors (used by the wire layer's `from_json` paths) ----

    /// The value as an object, or a decode error naming `what`.
    pub fn as_obj(&self, what: &str) -> Result<&BTreeMap<String, Json>, String> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(format!("{what}: expected object, got {}", other.kind())),
        }
    }

    /// The value as an array, or a decode error naming `what`.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(format!("{what}: expected array, got {}", other.kind())),
        }
    }

    /// The value as a string, or a decode error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {}", other.kind())),
        }
    }

    /// The value as a float, or a decode error naming `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(x) => Ok(*x),
            other => Err(format!("{what}: expected number, got {}", other.kind())),
        }
    }

    /// The value as a non-negative integer, or a decode error naming
    /// `what`. Fails on fractional or out-of-range numbers rather than
    /// truncating.
    pub fn as_usize(&self, what: &str) -> Result<usize, String> {
        let x = self.as_f64(what)?;
        if x.fract() != 0.0 || !(0.0..=(1u64 << 53) as f64).contains(&x) {
            return Err(format!("{what}: expected non-negative integer, got {x}"));
        }
        Ok(x as usize)
    }

    /// The value as a bool, or a decode error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected bool, got {}", other.kind())),
        }
    }

    /// A decimal-string-encoded `u64` (the wire form of outcome indices
    /// and shot counts — see module docs).
    pub fn as_u64_str(&self, what: &str) -> Result<u64, String> {
        let s = self.as_str(what)?;
        s.parse::<u64>()
            .map_err(|_| format!("{what}: expected decimal u64 string, got {s:?}"))
    }

    /// Field `key` of an object, or a decode error naming `what`.
    pub fn field<'a>(&'a self, key: &str, what: &str) -> Result<&'a Json, String> {
        self.as_obj(what)?
            .get(key)
            .ok_or_else(|| format!("{what}: missing field {key:?}"))
    }

    /// Field `key` of an object if present and non-null.
    pub fn opt_field<'a>(&'a self, key: &str, what: &str) -> Result<Option<&'a Json>, String> {
        Ok(self.as_obj(what)?.get(key).filter(|v| **v != Json::Null))
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Builds a `Json::Obj` from key/value pairs.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A `u64` in its wire form: a decimal string (see module docs).
pub fn u64_str(x: u64) -> Json {
    Json::Str(x.to_string())
}

fn write_number(x: f64, out: &mut String) {
    if !x.is_finite() {
        // JSON has no NaN/inf; the wire types only carry finite values,
        // so this arm only exists to keep serialization total.
        out.push_str("null");
    } else if x.trunc() == x
        && x.abs() < 9.007_199_254_740_992e15
        && !(x == 0.0 && x.is_sign_negative())
    {
        // Safe integers (|x| < 2^53) print without the `.0` so foreign
        // clients that format the value back into a path (`/result/3`)
        // interoperate; parsing "3" restores the same f64 exactly.
        out.push_str(&format!("{}", x as i64));
    } else {
        // `{:?}` is shortest-roundtrip: parsing the text restores the
        // exact bits.
        out.push_str(&format!("{x:?}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal (expected {text})")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Decodes a string literal in one linear pass: each run of ordinary
    /// bytes up to the next `"`, `\\` or control byte is copied whole.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The input is a `&str` and the run stops at an ASCII byte or
            // the end, so it holds whole UTF-8 scalars.
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("invalid utf-8"))?;
            out.push_str(run);
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Reads exactly four hex digits starting at `pos`.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(cp)
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number spans ascii bytes");
        // Overflowing literals (`1e999`) are rejected rather than decoded
        // to an infinity the writer could not reproduce.
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e-3").unwrap(), Json::Num(-2.5e-3));
        assert_eq!(
            Json::parse(r#""a\nb\u0041""#).unwrap(),
            Json::Str("a\nbA".into())
        );
        let doc = Json::parse(r#"{"k":[1,2,{"x":false}],"e":[]}"#).unwrap();
        assert_eq!(doc.field("e", "doc").unwrap(), &Json::Arr(vec![]));
    }

    #[test]
    fn roundtrips_exact_floats() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -0.0,
            5e-324,
        ] {
            let text = Json::Num(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64("x").unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn rejects_malformed_input_with_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\" 1}",
            "[1 2]",
            "01x",
            "\"\\q\"",
            "{\"a\":}",
            "nul",
            "[]]",
            "\u{1}",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn object_serialization_is_deterministic() {
        let a = Json::parse(r#"{"b":1,"a":2}"#).unwrap();
        let b = Json::parse(r#"{"a":2,"b":1}"#).unwrap();
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.to_string(), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn safe_integers_print_without_fraction() {
        // Foreign clients format ids back into URL paths, so integral
        // values must serialize as JSON integers; -0.0 and non-integral
        // values keep the exact shortest-roundtrip form.
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(-17.0).to_string(), "-17");
        assert_eq!(
            Json::Num(9_007_199_254_740_991.0).to_string(),
            "9007199254740991"
        );
        assert_eq!(Json::Num(-0.0).to_string(), "-0.0");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
    }

    #[test]
    fn u64_survives_as_string() {
        let big = u64::MAX - 1;
        let j = u64_str(big);
        let back = Json::parse(&j.to_string())
            .unwrap()
            .as_u64_str("x")
            .unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(2000) + &"]".repeat(2000);
        assert!(Json::parse(&deep).is_err());
    }
}
