//! A minimal JSON writer and object scanner.
//!
//! The `ocpt-trace` schema uses flat objects whose values are strings or
//! unsigned integers; the `ocpt-metrics` schema adds non-negative floats,
//! one level of nested objects and `null` (the writer's spelling of a
//! non-finite float). This module implements exactly that subset —
//! deliberately, not as a stopgap: a small parser we own is auditable
//! against the byte-determinism guarantee, and the build environment has
//! no crates.io access anyway. Negative numbers, booleans and arrays are
//! rejected because no exporter emits them.
//!
//! There is one of each piece. [`escape_into`] is the only escaper (the
//! [`Obj`] writer and the trace line writer both append through it), and
//! `Scanner` is the only grammar: it reads an object's fields in document
//! order, with keys and strings borrowed from the input unless they hold
//! an escape and integers parsed in the same pass. [`parse_object`] (the
//! metrics, report and health readers) collects its fields into owned
//! [`Value`]s; the trace reader (`export::parse_jsonl`) moves them
//! straight into a record.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A value in a schema object.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A JSON string (unescaped).
    Str(String),
    /// A non-negative JSON integer.
    UInt(u64),
    /// A finite JSON number with a fraction or exponent part.
    F64(f64),
    /// A nested object, fields in document order.
    Obj(Vec<(String, Value)>),
    /// JSON `null` (how [`Obj::f64`] writes a non-finite value).
    Null,
}

impl Value {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The numeric value, if this is any number (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(u) => Some(*u as f64),
            Value::F64(f) => Some(*f),
            _ => None,
        }
    }

    /// The nested fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Look up a field by key in a nested object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Append `s` to `out` as a JSON string literal body (no surrounding
/// quotes): `"` `\` `\n` `\r` `\t` get their short escapes, every other
/// byte below 0x20 becomes `\u00xx`, everything else is copied. The runs
/// between escapes are copied as whole slices, so a string with nothing
/// to escape costs one `push_str`.
pub fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
}

/// Append the decimal digits of `v` — what `{v}` formats — through a stack
/// buffer instead of `fmt`.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("decimal digits are ASCII"));
}

/// An in-order JSON object writer. Field order is the call order, which
/// is what makes the exported schema byte-stable.
#[derive(Debug)]
pub struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    /// Start an object (`{`).
    pub fn new() -> Self {
        Obj { buf: String::from("{"), first: true }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Append a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Append an unsigned-integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        push_u64(&mut self.buf, v);
        self
    }

    /// Append a float field. Rust's shortest-round-trip `Display` is
    /// deterministic, so this is safe for byte-stable reports; non-finite
    /// values (JSON has none) are written as `null`.
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Append a pre-rendered JSON value (e.g. a nested object).
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Close the object (`}`) and return the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Self {
        Obj::new()
    }
}

/// Parse one JSON object into its fields, in document order. Errors
/// carry a human-readable reason; positions are byte offsets into
/// `line`.
pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut sc = Scanner::new(line);
    let fields = sc.fields()?;
    sc.end()?;
    Ok(fields)
}

/// One scanned value. Strings borrow from the scanned text unless they
/// contain an escape; a nested object is collected owned (no exporter
/// writes one on a hot path).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Token<'a> {
    Str(Cow<'a, str>),
    UInt(u64),
    F64(f64),
    Obj(Vec<(String, Value)>),
    Null,
}

impl Token<'_> {
    fn into_value(self) -> Value {
        match self {
            Token::Str(s) => Value::Str(s.into_owned()),
            Token::UInt(u) => Value::UInt(u),
            Token::F64(f) => Value::F64(f),
            Token::Obj(fields) => Value::Obj(fields),
            Token::Null => Value::Null,
        }
    }
}

/// The grammar: a cursor over one JSON object's text. Read an object as
///
/// ```text
/// let mut key = sc.first_key()?;
/// while let Some(k) = key {
///     let v = sc.value()?;
///     key = sc.next_key()?;
/// }
/// sc.end()?;
/// ```
///
/// Whitespace (space, tab, CR, LF) is allowed between any two tokens.
pub(crate) struct Scanner<'a> {
    text: &'a str,
    i: usize,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Scanner { text, i: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    /// Open the object at the cursor: its first key, or `None` for `{}`.
    pub(crate) fn first_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return Err(format!("expected '{{' at byte {}", self.i));
        }
        self.i += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(None);
        }
        self.key().map(Some)
    }

    /// After a value: the next key, or `None` once the object closes.
    pub(crate) fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.i += 1;
                self.skip_ws();
                self.key().map(Some)
            }
            Some(b'}') => {
                self.i += 1;
                Ok(None)
            }
            _ => Err(format!("expected ',' or '}}' at byte {}", self.i)),
        }
    }

    /// A key and its `:`; leaves the cursor on the value.
    fn key(&mut self) -> Result<Cow<'a, str>, String> {
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(format!("expected ':' at byte {}", self.i));
        }
        self.i += 1;
        self.skip_ws();
        Ok(key)
    }

    /// The value at the cursor.
    pub(crate) fn value(&mut self) -> Result<Token<'a>, String> {
        let i = self.i;
        match self.peek() {
            Some(b'"') => self.string().map(Token::Str),
            Some(b'{') => self.fields().map(Token::Obj),
            Some(b'n') if self.text[i..].starts_with("null") => {
                self.i += 4;
                Ok(Token::Null)
            }
            Some(c) if c.is_ascii_digit() => self.number(),
            _ => Err(format!("expected string, number, object or null at byte {i}")),
        }
    }

    /// Every field of the object at the cursor, owned, in document order.
    fn fields(&mut self) -> Result<Vec<(String, Value)>, String> {
        let mut fields = Vec::new();
        let mut key = self.first_key()?;
        while let Some(k) = key {
            fields.push((k.into_owned(), self.value()?.into_value()));
            key = self.next_key()?;
        }
        Ok(fields)
    }

    /// Require that nothing but whitespace follows.
    pub(crate) fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.i != self.text.len() {
            return Err(format!("trailing content at byte {}", self.i));
        }
        Ok(())
    }

    /// A non-negative JSON number. A bare digit run is a `UInt`, its value
    /// accumulated while scanning; a fraction or exponent part makes it an
    /// `F64` (Rust's `parse::<f64>` accepts exactly the forms the
    /// shortest-round-trip `Display` emits, so writer output always
    /// round-trips).
    fn number(&mut self) -> Result<Token<'a>, String> {
        let b = self.text.as_bytes();
        let start = self.i;
        let digit = |j: usize| matches!(b.get(j), Some(c) if c.is_ascii_digit());
        let mut j = start;
        // `None` once the digits overflow u64 (an error only if no
        // fraction or exponent follows).
        let mut int = Some(0u64);
        while digit(j) {
            let d = u64::from(b[j] - b'0');
            int = int.and_then(|v| v.checked_mul(10)).and_then(|v| v.checked_add(d));
            j += 1;
        }
        let mut float = false;
        if b.get(j) == Some(&b'.') {
            float = true;
            j += 1;
            if !digit(j) {
                return Err(format!("digit must follow '.' at byte {j}"));
            }
            while digit(j) {
                j += 1;
            }
        }
        if matches!(b.get(j), Some(b'e' | b'E')) {
            float = true;
            j += 1;
            if matches!(b.get(j), Some(b'+' | b'-')) {
                j += 1;
            }
            if !digit(j) {
                return Err(format!("digit must follow exponent at byte {j}"));
            }
            while digit(j) {
                j += 1;
            }
        }
        self.i = j;
        if !float {
            return int
                .map(Token::UInt)
                .ok_or_else(|| format!("integer out of range at byte {start}"));
        }
        let num: f64 =
            self.text[start..j].parse().map_err(|_| format!("bad number at byte {start}"))?;
        if !num.is_finite() {
            return Err(format!("non-finite number at byte {start}"));
        }
        Ok(Token::F64(num))
    }

    /// A string literal at the cursor: borrowed from the text when it holds
    /// no escape, decoded into an owned copy when it does.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let (text, open) = (self.text, self.i);
        let b = text.as_bytes();
        if b.get(open) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {open}"));
        }
        let unterminated = || format!("unterminated string starting at byte {open}");
        // `"` and `\` are ASCII, so every position this stops at is a char
        // boundary, inside multi-byte UTF-8 or not.
        let stop =
            |from: usize| b[from..].iter().position(|&c| c == b'"' || c == b'\\').map(|k| from + k);
        let mut j = stop(open + 1).ok_or_else(unterminated)?;
        if b[j] == b'"' {
            self.i = j + 1;
            return Ok(Cow::Borrowed(&text[open + 1..j]));
        }
        let mut out = String::from(&text[open + 1..j]);
        loop {
            // `b[j]` is a backslash: decode one escape.
            j += 1;
            match b.get(j) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = text
                        .get(j + 1..j + 5)
                        .ok_or_else(|| format!("truncated \\u escape at byte {j}"))?;
                    let cp = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape at byte {j}"))?;
                    // Surrogates never appear in our own output; reject
                    // rather than guess.
                    let c = char::from_u32(cp)
                        .ok_or_else(|| format!("non-scalar \\u escape at byte {j}"))?;
                    out.push(c);
                    j += 4;
                }
                _ => return Err(format!("bad escape at byte {j}")),
            }
            let from = j + 1;
            j = stop(from).ok_or_else(unterminated)?;
            out.push_str(&text[from..j]);
            if b[j] == b'"' {
                self.i = j + 1;
                return Ok(Cow::Owned(out));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_orders_fields_and_escapes() {
        let s = Obj::new().str("a", "x\"y\n").u64("b", 7).finish();
        assert_eq!(s, "{\"a\":\"x\\\"y\\n\",\"b\":7}");
    }

    #[test]
    fn floats_use_shortest_roundtrip_display() {
        let s = Obj::new().f64("x", 0.1).f64("bad", f64::NAN).finish();
        assert_eq!(s, "{\"x\":0.1,\"bad\":null}");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let line = Obj::new().str("kind", "app_send").u64("at", 123).str("d", "a\\b\t").finish();
        let fields = parse_object(&line).unwrap();
        assert_eq!(fields[0], ("kind".into(), Value::Str("app_send".into())));
        assert_eq!(fields[1], ("at".into(), Value::UInt(123)));
        assert_eq!(fields[2], ("d".into(), Value::Str("a\\b\t".into())));
    }

    #[test]
    fn parse_accepts_whitespace_and_empty() {
        assert!(parse_object(" { } ").unwrap().is_empty());
        let f = parse_object("{ \"a\" : 1 , \"b\" : \"c\" }").unwrap();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in ["", "{", "{\"a\"}", "{\"a\":}", "{\"a\":1,}", "{\"a\":1}x", "[1]", "{\"a\":-1}"]
        {
            assert!(parse_object(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn floats_nested_objects_and_null_parse() {
        let line = Obj::new()
            .f64("mean_s", 0.007738017)
            .f64("tiny", 3.5e-9)
            .raw("inner", &Obj::new().u64("count", 2).f64("sd", 0.25).finish())
            .f64("nan", f64::NAN)
            .finish();
        let f = parse_object(&line).expect("writer output parses");
        assert_eq!(f[0].1, Value::F64(0.007738017));
        assert_eq!(f[1].1, Value::F64(3.5e-9));
        assert_eq!(f[2].1.get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(f[2].1.get("sd").and_then(Value::as_f64), Some(0.25));
        assert_eq!(f[3].1, Value::Null);
        // Integers widen through as_f64; strings do not.
        assert_eq!(Value::UInt(7).as_f64(), Some(7.0));
        assert_eq!(Value::Str("7".into()).as_f64(), None);
    }

    #[test]
    fn number_edge_cases_reject() {
        for bad in ["{\"a\":1.}", "{\"a\":1e}", "{\"a\":.5}", "{\"a\":1e+}", "{\"a\":nul}"] {
            assert!(parse_object(bad).is_err(), "{bad:?} should fail");
        }
        // Whitespace inside nested objects is fine; unclosed ones are not.
        assert!(parse_object("{\"a\": { \"b\" : 1 } }").is_ok());
        assert!(parse_object("{\"a\":{\"b\":1}").is_err());
    }

    #[test]
    fn unicode_escapes_parse() {
        let f = parse_object("{\"a\":\"\\u00e9\\u0041\"}").unwrap();
        assert_eq!(f[0].1, Value::Str("éA".into()));
        assert!(parse_object("{\"a\":\"\\ud800\"}").is_err(), "lone surrogate rejected");
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut sc =
            Scanner::new("{\"plain\":\"é x\",\"k\\u0065y\":\"a\\\"b\",\"n\":18446744073709551615}");
        let k = sc.first_key().expect("opens").expect("a field");
        assert!(matches!(k, Cow::Borrowed("plain")));
        assert!(matches!(sc.value(), Ok(Token::Str(Cow::Borrowed("é x")))));
        let k = sc.next_key().expect("second key").expect("a field");
        assert!(matches!(&k, Cow::Owned(s) if s == "key"));
        assert_eq!(sc.value(), Ok(Token::Str(Cow::Owned("a\"b".into()))));
        sc.next_key().expect("third key");
        assert_eq!(sc.value(), Ok(Token::UInt(u64::MAX)));
        assert_eq!(sc.next_key(), Ok(None));
        assert_eq!(sc.end(), Ok(()));
        // One past u64::MAX is out of range as an integer, fine as a float.
        assert!(parse_object("{\"n\":18446744073709551616}").is_err());
        assert_eq!(
            parse_object("{\"n\":18446744073709551616.0}").expect("a float")[0].1,
            Value::F64(18446744073709551616.0)
        );
    }

    #[test]
    fn integers_and_escapes_write_like_fmt() {
        for v in [0, 7, 10, 99, 1_000_000, u64::MAX - 1, u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
        let mut s = String::new();
        escape_into(&mut s, "é\u{1}\u{1f}\u{7f}\"\\\r\t\nz");
        assert_eq!(s, "é\\u0001\\u001f\u{7f}\\\"\\\\\\r\\t\\nz");
    }
}
