//! Minimal JSON encoding and decoding for the workspace's event lines,
//! incident snapshots and reports.
//!
//! The workspace is dependency-free by construction (no crates.io), so
//! this is a tiny hand-rolled encoder covering exactly what those
//! documents need: objects of string/number/bool/null fields, nested
//! objects and arrays. Output is a single line, RFC 8259-escaped, stable
//! field order.
//!
//! The matching [`parse`] decoder turns a rendered document back into a
//! [`JsonValue`] tree (objects preserve field order), so tests and the
//! golden-vector comparator can inspect event streams field by field
//! instead of matching on raw text; [`JsonValue::render`] writes a tree
//! back in the encoder's format. `parse` also reads files from disk
//! (incident snapshots, corpus manifests), so it runs in time linear in
//! its input and bounds nesting at [`MAX_DEPTH`].

use std::fmt::Write as _;

/// Builder for one JSON object rendered onto a single line.
///
/// The line renders in one pass into one buffer: it opens with `{`, each
/// field appends its key and value, a nested [`object`](Self::object)
/// renders in place, and [`finish`](Self::finish) closes the buffer and
/// hands it over without a copy.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
        }
    }

    /// Appends `key` and its colon, after a comma unless the innermost
    /// open object is still empty. No value ends in `{`, so the buffer's
    /// last byte tells.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.buf.ends_with('{') {
            self.buf.push(',');
        }
        push_string(&mut self.buf, key);
        self.buf.push(':');
        &mut self.buf
    }

    /// Adds a string field.
    pub fn string(mut self, key: &str, value: &str) -> Self {
        push_string(self.key(key), value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn uint(mut self, key: &str, value: u64) -> Self {
        push_u64(self.key(key), value);
        self
    }

    /// Adds a float field (finite values only; NaN/inf render as null,
    /// which JSON cannot represent as numbers).
    pub fn float(mut self, key: &str, value: f64) -> Self {
        push_f64(self.key(key), value);
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds an explicit null field.
    pub fn null(mut self, key: &str) -> Self {
        self.key(key).push_str("null");
        self
    }

    /// Adds an optional field: `Some` via `f`, `None` as null.
    pub fn opt<T>(
        self,
        key: &str,
        value: Option<T>,
        f: impl FnOnce(Self, &str, T) -> Self,
    ) -> Self {
        match value {
            Some(v) => f(self, key, v),
            None => self.null(key),
        }
    }

    /// Adds a string field only when present: `None` omits the key
    /// entirely (unlike [`opt`](Self::opt), which renders null). Used for
    /// the `stream` tag, which unlabelled events must not carry.
    pub fn string_if(self, key: &str, value: Option<&str>) -> Self {
        match value {
            Some(v) => self.string(key, v),
            None => self,
        }
    }

    /// Adds a nested object whose fields `fields` adds, rendered in place:
    /// `fields` gets this object with the nested one open and returns
    /// it with the fields added.
    pub fn object(mut self, key: &str, fields: impl FnOnce(Self) -> Self) -> Self {
        self.key(key).push('{');
        let mut nested = fields(self);
        nested.buf.push('}');
        nested
    }

    /// Adds a pre-rendered JSON value verbatim: an array, or a section a
    /// caller rendered. A nested object whose fields are at hand goes
    /// through [`object`](Self::object) instead.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key).push_str(json);
        self
    }

    /// Renders the object (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Renders pre-rendered JSON values as one array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// The lowercase hex digit of `nibble` (below 16).
fn hex_digit(nibble: u8) -> char {
    char::from(b"0123456789abcdef"[usize::from(nibble)])
}

/// Appends `s` as a JSON string literal (quotes + escapes). Runs that
/// need no escape are copied whole; every byte that does is ASCII, so
/// each run ends on a char boundary.
fn push_string(buf: &mut String, s: &str) {
    buf.push('"');
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        if !(byte < 0x20 || byte == b'"' || byte == b'\\') {
            continue;
        }
        buf.push_str(&s[run..at]);
        run = at + 1;
        match byte {
            b'"' => buf.push_str("\\\""),
            b'\\' => buf.push_str("\\\\"),
            b'\n' => buf.push_str("\\n"),
            b'\r' => buf.push_str("\\r"),
            b'\t' => buf.push_str("\\t"),
            _ => {
                buf.push_str("\\u00");
                buf.push(hex_digit(byte >> 4));
                buf.push(hex_digit(byte & 0xf));
            }
        }
    }
    buf.push_str(&s[run..]);
    buf.push('"');
}

/// Appends `value` in decimal.
fn push_u64(buf: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    buf.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `value` as a JSON number; non-finite values, which JSON
/// cannot represent as numbers, become `null`.
fn push_f64(buf: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(buf, "{value}");
    } else {
        buf.push_str("null");
    }
}

/// Lowercase hex encoding (for payload bytes).
pub fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(hex_digit(b >> 4));
        s.push(hex_digit(b & 0xf));
    }
    s
}

/// Decodes a lowercase/uppercase hex string back into bytes.
///
/// # Errors
///
/// Returns `None` for odd-length input or non-hex characters.
pub fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some((hi * 16 + lo) as u8)
        })
        .collect()
}

/// A parsed JSON value. Objects keep their field order so a re-render of
/// an untouched tree is byte-identical to the encoder's output.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source field order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for other variants or missing
    /// keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, when this is a `Number`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice, when this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The fields, when this is an `Object`.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements, when this is an `Array`.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value onto one line the way [`JsonObject`] does: fields
    /// in order, the same string escapes, and non-finite numbers as
    /// `null`. A parsed encoder line re-renders byte-identically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => push_f64(out, *n),
            JsonValue::String(s) => push_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_string(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// A JSON parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Deepest array/object nesting [`parse`] accepts. The documents the
/// workspace writes nest a few levels; the cap turns a hostile
/// `[[[[…` into an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns [`JsonParseError`] with the byte offset of the first problem,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    /// Byte offset of the next unread character (always a char
    /// boundary: the parser only steps over ASCII or whole runs).
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn rest(&self) -> &[u8] {
        &self.input.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.rest().starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(c @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let value = if c == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the whole run of unescaped text up to the next quote or
            // backslash at once. Both are ASCII, so the run ends on a char
            // boundary.
            let Some(run) = self.rest().iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.input.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.input[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.input.as_bytes()[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .input
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are outside the event schema; map
                    // lone surrogates to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.input[start..self.pos];
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonParseError {
                offset: start,
                message: format!("invalid number {text:?}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_stable_field_order() {
        let line = JsonObject::new()
            .string("type", "frame")
            .uint("seq", 7)
            .float("de2", 0.25)
            .bool("attack", true)
            .null("missing")
            .finish();
        assert_eq!(
            line,
            r#"{"type":"frame","seq":7,"de2":0.25,"attack":true,"missing":null}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let line = JsonObject::new().string("s", "a\"b\\c\nd\u{1}").finish();
        assert_eq!(line, "{\"s\":\"a\\\"b\\\\c\\nd\\u0001\"}");
    }

    #[test]
    fn optional_fields() {
        let some = JsonObject::new()
            .opt("x", Some(3u64), JsonObject::uint)
            .finish();
        assert_eq!(some, r#"{"x":3}"#);
        let none = JsonObject::new()
            .opt("x", None::<u64>, JsonObject::uint)
            .finish();
        assert_eq!(none, r#"{"x":null}"#);
    }

    #[test]
    fn non_finite_floats_render_null() {
        let line = JsonObject::new().float("x", f64::NAN).finish();
        assert_eq!(line, r#"{"x":null}"#);
    }

    #[test]
    fn nested_raw_objects() {
        let inner = JsonObject::new().uint("a", 1).finish();
        let line = JsonObject::new().raw("inner", &inner).finish();
        assert_eq!(line, r#"{"inner":{"a":1}}"#);
    }

    #[test]
    fn nested_objects_render_in_place() {
        let line = JsonObject::new()
            .uint("a", 1)
            .object("inner", |o| o.uint("b", 2).object("empty", |o| o))
            .object("first", |o| o.bool("c", true))
            .finish();
        assert_eq!(
            line,
            r#"{"a":1,"inner":{"b":2,"empty":{}},"first":{"c":true}}"#
        );
        let leading = JsonObject::new().object("x", |o| o.null("y")).finish();
        assert_eq!(leading, r#"{"x":{"y":null}}"#);
    }

    #[test]
    fn hex_encodes_lowercase() {
        assert_eq!(hex(&[0x00, 0xff, 0x30]), "00ff30");
        assert_eq!(hex(&[]), "");
    }

    #[test]
    fn hex_roundtrips() {
        let bytes = [0x00u8, 0x7f, 0x80, 0xff, 0x30];
        assert_eq!(unhex(&hex(&bytes)).unwrap(), bytes);
        assert_eq!(unhex(""), Some(Vec::new()));
        assert_eq!(unhex("abc"), None, "odd length");
        assert_eq!(unhex("zz"), None, "non-hex");
    }

    #[test]
    fn parses_encoder_output() {
        let line = JsonObject::new()
            .string("type", "frame")
            .uint("seq", 7)
            .float("de2", 0.25)
            .bool("attack", true)
            .null("missing")
            .finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("frame"));
        assert_eq!(v.get("seq").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("de2").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("attack").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), Some(&JsonValue::Null));
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn object_preserves_field_order() {
        let v = parse(r#"{"b":1,"a":2}"#).unwrap();
        let fields = v.as_object().unwrap();
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
    }

    #[test]
    fn parses_nested_structures() {
        let v =
            parse(r#"{"latency":{"queue_us":3},"bins":[1,-2.5,3e2],"empty":[],"eo":{}}"#).unwrap();
        assert_eq!(
            v.get("latency").unwrap().get("queue_us").unwrap().as_f64(),
            Some(3.0)
        );
        let bins = v.get("bins").unwrap().as_array().unwrap();
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[1].as_f64(), Some(-2.5));
        assert_eq!(bins[2].as_f64(), Some(300.0));
        assert!(v.get("empty").unwrap().as_array().unwrap().is_empty());
        assert!(v.get("eo").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn unescapes_strings() {
        let line = JsonObject::new().string("s", "a\"b\\c\nd\u{1}").finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\":1} extra",
            "\"unterminated",
            "nul",
            "1.2.3",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.offset <= bad.len(), "offset in bounds for {bad:?}");
        }
    }

    #[test]
    fn whitespace_tolerant() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn render_reproduces_encoder_output() {
        let line = frame_line();
        assert_eq!(parse(&line).unwrap().render(), line);
        let v = JsonValue::Array(vec![JsonValue::Number(f64::INFINITY), JsonValue::Null]);
        assert_eq!(
            v.render(),
            "[null,null]",
            "non-finite numbers render as null"
        );
        assert_eq!(array(["1".to_string(), "{}".to_string()]), "[1,{}]");
        assert_eq!(array(Vec::new()), "[]");
    }

    /// One long string value must parse in time linear in its length; a
    /// scan that re-validates the rest of the input per character takes
    /// minutes on 4 MiB.
    #[test]
    fn long_string_parses_in_linear_time() {
        let text = "abc\u{e9}\"d\\".repeat(1 << 19); // 8 bytes each
        assert_eq!(text.len(), 4 << 20);
        let line = JsonObject::new().string("s", &text).finish();
        let started = std::time::Instant::now();
        let v = parse(&line).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some(text.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "4 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    /// A gateway frame line, the most common document the parser reads.
    fn frame_line() -> String {
        JsonObject::new()
            .string("type", "frame")
            .string("stream", "s1")
            .uint("seq", 3)
            .uint("burst_start", 4096)
            .bool("truncated", false)
            .string("payload_hex", &hex(b"00000"))
            .float("de2", 0.3468)
            .string("verdict", "attack")
            .float("score", 0.91)
            .object("features", |o| {
                o.float("de2_ideal", 0.125).float("rssi_db", -41.5)
            })
            .bool("accepted_forgery", true)
            .object("latency", |o| o.uint("queue_us", 12).uint("total_us", 80))
            .finish()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        // Arbitrary bytes, read the way `ctc obs report` reads a file
        // (lossy UTF-8), parse to a value or a typed error, never a panic.
        #[test]
        fn arbitrary_input_never_panics(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)
        ) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }

        // The same for frame lines with a few bytes overwritten: inputs
        // that get deep into the parser before going wrong.
        #[test]
        fn mutated_frame_lines_never_panic(
            at in proptest::collection::vec(proptest::prelude::any::<usize>(), 1..6),
            with in proptest::collection::vec(proptest::prelude::any::<u8>(), 6usize),
        ) {
            let mut line = frame_line().into_bytes();
            let len = line.len();
            for (i, b) in at.iter().zip(&with) {
                line[i % len] = *b;
            }
            let _ = parse(&String::from_utf8_lossy(&line));
        }
    }
}
