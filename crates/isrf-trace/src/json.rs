//! The workspace's one JSON codec: string escaping, and a value model
//! with its parser and serializer.
//!
//! The vendor tree has no serde. Everything that emits JSON builds a
//! [`Json`] and renders it compactly — the server's responses, a verifier
//! finding (`Diagnostic::to_json`), the `verify` bin's golden reports —
//! except the `chrome` exporter, which streams a node per event into a
//! `String` through [`escape_into`], and one splice of an already rendered
//! payload in the server's `job_result`. The server parses request bodies
//! into [`Json`] and inspects them field by field; tests and the `trace`
//! bin check that an emitted document is well-formed by parsing it.
//! Objects keep insertion order in a `Vec` — deterministic output, no
//! hash-order nondeterminism — and duplicate keys are rejected at parse
//! time.
//!
//! Round-trip contract (covered by proptest in `isrf-serve`'s
//! `tests/codec.rs`): for any value built from finite numbers,
//! `parse(render(v)) == v`. Numbers are `f64`; integral values within
//! `i64` range render without a decimal point, everything else uses Rust's
//! shortest round-trip `f64` display. Non-finite numbers cannot be
//! represented and parse rejects literals that overflow to infinity.

use std::fmt;

/// Append `s` to `out` with JSON string escaping applied (no surrounding
/// quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
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
}

/// Maximum nesting depth the parser accepts (arrays + objects combined).
const MAX_DEPTH: usize = 96;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered key/value pairs, keys unique.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for a `u64` counter value (exact up to 2^53; counters
    /// beyond that render with precision loss inherent to JSON numbers).
    pub fn u64(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Object field lookup (first match; parse guarantees uniqueness).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Parse one JSON document (must consume the whole input).
    ///
    /// # Errors
    ///
    /// Returns the byte offset and a message for the first problem found.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing data after JSON value"));
        }
        Ok(v)
    }

    /// Render compactly (no whitespace) into `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => render_num(*n, out),
            Json::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Render compactly as a fresh string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn render_num(n: f64, out: &mut String) {
    debug_assert!(n.is_finite(), "Json::Num holds only finite values");
    if n.fract() == 0.0 && n.abs() < 9.3e18 {
        // Integral and exactly representable as i64: render without the
        // fraction so integers round-trip as integers.
        out.push_str(&format!("{}", n as i64));
    } else {
        // Rust's f64 Display is the shortest decimal that round-trips.
        out.push_str(&format!("{n}"));
    }
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem in the input.
    pub offset: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError {
            offset: self.i,
            msg,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &[u8], v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err("malformed literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.i += 1; // '{'
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string object key"));
            }
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.i += 1;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.i += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let h = self.peek().ok_or(self.err("short \\u escape"))?;
            let d = match h {
                b'0'..=b'9' => h - b'0',
                b'a'..=b'f' => h - b'a' + 10,
                b'A'..=b'F' => h - b'A' + 10,
                _ => return Err(self.err("bad \\u escape digit")),
            };
            v = (v << 4) | u16::from(d);
            self.i += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.i += 1; // '"'
        let mut out = String::new();
        loop {
            let c = self.peek().ok_or(self.err("unterminated string"))?;
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    let esc = self.peek().ok_or(self.err("unterminated escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            if (0xd800..0xdc00).contains(&hi) {
                                // High surrogate: must pair.
                                if self.peek() == Some(b'\\') {
                                    self.i += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    self.i += 1;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    let cp = 0x10000
                                        + ((u32::from(hi) - 0xd800) << 10)
                                        + (u32::from(lo) - 0xdc00);
                                    out.push(char::from_u32(cp).expect("valid surrogate pair"));
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                out.push(char::from_u32(u32::from(hi)).expect("BMP scalar"));
                            }
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // continuation bytes are well-formed) and re-check only
                    // it: over the whole rest, a megabyte string is quadratic.
                    let len = (c.leading_ones() as usize).max(1);
                    let scalar = &self.b[self.i..self.i + len];
                    out.push_str(std::str::from_utf8(scalar).expect("input is UTF-8"));
                    self.i += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        // Integer part: 0 | [1-9][0-9]*
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.i += 1;
                }
            }
            _ => return Err(self.err("expected digits in number")),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.i += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.i += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ASCII number");
        let n: f64 = text.parse().map_err(|_| self.err("unparseable number"))?;
        if !n.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    #[test]
    fn escaping_covers_quotes_backslash_and_controls() {
        assert_eq!(escaped(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escaped(r"a\b"), r"a\\b");
        assert_eq!(escaped("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escaped("\u{01}"), "\\u0001");
        assert_eq!(escaped("plain μ✓"), "plain μ✓");
    }

    #[test]
    fn parses_and_reads_fields() {
        let v = Json::parse(r#"{"app":"sort","n":3,"flag":true,"arr":[1,2.5,-3e2]}"#).unwrap();
        assert_eq!(v.get("app").unwrap().as_str(), Some("sort"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("flag").unwrap().as_bool(), Some(true));
        let arr = v.get("arr").unwrap().as_arr().unwrap();
        assert_eq!(arr[2].as_f64(), Some(-300.0));
    }

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            r#"{"a": [1, 2, {"b": "cé"}], "d": false}"#,
            "  [ 1 , 2 ]  ",
        ] {
            Json::parse(ok).unwrap_or_else(|e| panic!("{ok:?} rejected: {e}"));
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::u64(42).render(), "42");
        assert_eq!(Json::Num(-7.0).render(), "-7");
        assert_eq!(Json::Num(2.5).render(), "2.5");
    }

    #[test]
    fn escapes_round_trip() {
        let s = "quote\" slash\\ nl\n tab\t ctl\u{01} μ✓ \u{10348}";
        let doc = Json::Obj(vec![("k".into(), Json::str(s))]).render();
        let back = Json::parse(&doc).unwrap();
        assert_eq!(back.get("k").unwrap().as_str(), Some(s));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""𐍈""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{10348}"));
        for bad in [r#""\ud800""#, r#""\ud800A""#, r#""\udc00""#] {
            assert!(Json::parse(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "01",
            "1.",
            "1e",
            "nul",
            "[1] x",
            "\"\u{01}\"",
            "1e999",
            "{\"a\" 1}",
            "\"unterminated",
            "{'single': 1}",
            "\"raw\ncontrol\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }
}
