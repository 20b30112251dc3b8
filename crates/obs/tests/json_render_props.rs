//! Byte identity of the one-pass [`JsonObject`] renderer.
//!
//! Every event line, snapshot and report is rendered by [`JsonObject`],
//! and consumers compare those lines byte for byte (the golden corpus,
//! `roc_report.json`, the benchmark oracle). The renderer writes each
//! object in one pass into one buffer; the form it replaced pushed string
//! literals char by char, formatted every number with `write!`, rendered
//! nested objects into strings of their own and wrapped the fields in
//! braces with `format!`. A copy of that form below renders the same
//! random field sequences, and the two must agree byte for byte: strings
//! with quotes, backslashes, control characters and non-ASCII text; `u64`
//! extremes; finite, subnormal and non-finite floats; booleans, nulls,
//! optional fields, hex payloads; nested objects in place and
//! pre-rendered, empty ones included.

use ctc_obs::json::{hex, JsonObject};
use proptest::prelude::*;
use proptest::TestRng;

/// The encoder as it rendered before it went one-pass.
mod format_renderer {
    use std::fmt::Write as _;

    pub struct Object {
        buf: String,
    }

    impl Object {
        pub fn new() -> Self {
            Object { buf: String::new() }
        }

        fn key(&mut self, key: &str) -> &mut String {
            if !self.buf.is_empty() {
                self.buf.push(',');
            }
            push_string(&mut self.buf, key);
            self.buf.push(':');
            &mut self.buf
        }

        pub fn string(mut self, key: &str, value: &str) -> Self {
            push_string(self.key(key), value);
            self
        }

        pub fn uint(mut self, key: &str, value: u64) -> Self {
            let _ = write!(self.key(key), "{value}");
            self
        }

        pub fn float(mut self, key: &str, value: f64) -> Self {
            let buf = self.key(key);
            if value.is_finite() {
                let _ = write!(buf, "{value}");
            } else {
                buf.push_str("null");
            }
            self
        }

        pub fn bool(mut self, key: &str, value: bool) -> Self {
            self.key(key).push_str(if value { "true" } else { "false" });
            self
        }

        pub fn null(mut self, key: &str) -> Self {
            self.key(key).push_str("null");
            self
        }

        pub fn raw(mut self, key: &str, json: &str) -> Self {
            self.key(key).push_str(json);
            self
        }

        pub fn finish(self) -> String {
            format!("{{{}}}", self.buf)
        }
    }

    fn push_string(buf: &mut String, s: &str) {
        buf.push('"');
        for c in s.chars() {
            match c {
                '"' => buf.push_str("\\\""),
                '\\' => buf.push_str("\\\\"),
                '\n' => buf.push_str("\\n"),
                '\r' => buf.push_str("\\r"),
                '\t' => buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(buf, "\\u{:04x}", c as u32);
                }
                c => buf.push(c),
            }
        }
        buf.push('"');
    }

    pub fn hex(bytes: &[u8]) -> String {
        let mut s = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            let _ = write!(s, "{b:02x}");
        }
        s
    }
}

/// One field of a random object.
#[derive(Debug)]
enum Field {
    Str(String, String),
    StrIf(String, Option<String>),
    Uint(String, u64),
    OptUint(String, Option<u64>),
    Float(String, f64),
    Bool(String, bool),
    Null(String),
    Hex(String, Vec<u8>),
    /// A nested object; `true` renders it in place, `false` pre-rendered.
    Object(String, Vec<Field>, bool),
}

/// Text mixing every class the escaper treats differently.
fn text(rng: &mut TestRng) -> String {
    const WIDE: [char; 6] = ['é', '€', '𝄞', '\u{7f}', '\u{2028}', '\u{fffd}'];
    (0..rng.below(10))
        .map(|_| match rng.below(8) {
            0 => '"',
            1 => '\\',
            2 => char::from(rng.below(0x20) as u8),
            3 => WIDE[rng.below(WIDE.len() as u64) as usize],
            4 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('x'),
            _ => char::from(b' ' + rng.below(95) as u8),
        })
        .collect()
}

fn uint(rng: &mut TestRng) -> u64 {
    match rng.below(6) {
        0 => [0, 1, 9, 10, u64::MAX - 1, u64::MAX][rng.below(6) as usize],
        1 => 10u64.pow(rng.below(20) as u32),
        2 => 10u64.pow(rng.below(20) as u32) - 1,
        3 => rng.below(1000),
        _ => rng.next_u64(),
    }
}

fn float(rng: &mut TestRng) -> f64 {
    const SPECIAL: [f64; 12] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 4096.0,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1,
        1e16,
    ];
    match rng.below(4) {
        0 => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
        1 => (rng.next_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20),
        // Any bit pattern: NaNs of every payload, subnormals, extremes.
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn fields(rng: &mut TestRng, depth: u32) -> Vec<Field> {
    (0..rng.below(7))
        .map(|_| {
            let key = text(rng);
            match rng.below(if depth < 3 { 10 } else { 8 }) {
                0 => Field::Str(key, text(rng)),
                1 => Field::StrIf(key, (rng.below(2) == 0).then(|| text(rng))),
                2 => Field::Uint(key, uint(rng)),
                3 => Field::OptUint(key, (rng.below(2) == 0).then(|| uint(rng))),
                4 => Field::Float(key, float(rng)),
                5 => Field::Bool(key, rng.below(2) == 0),
                6 => Field::Null(key),
                7 => Field::Hex(
                    key,
                    (0..rng.below(9)).map(|_| rng.below(256) as u8).collect(),
                ),
                _ => Field::Object(key, fields(rng, depth + 1), rng.below(2) == 0),
            }
        })
        .collect()
}

/// `fields` through the one-pass renderer.
fn add(mut object: JsonObject, fields: &[Field]) -> JsonObject {
    for field in fields {
        object = match field {
            Field::Str(k, v) => object.string(k, v),
            Field::StrIf(k, v) => object.string_if(k, v.as_deref()),
            Field::Uint(k, v) => object.uint(k, *v),
            Field::OptUint(k, v) => object.opt(k, *v, JsonObject::uint),
            Field::Float(k, v) => object.float(k, *v),
            Field::Bool(k, v) => object.bool(k, *v),
            Field::Null(k) => object.null(k),
            Field::Hex(k, v) => object.string(k, &hex(v)),
            Field::Object(k, nested, true) => object.object(k, |o| add(o, nested)),
            Field::Object(k, nested, false) => {
                object.raw(k, &add(JsonObject::new(), nested).finish())
            }
        };
    }
    object
}

/// `fields` through the renderer it replaced.
fn render_formatted(fields: &[Field]) -> String {
    use format_renderer::Object;
    let mut object = Object::new();
    for field in fields {
        object = match field {
            Field::Str(k, v) => object.string(k, v),
            Field::StrIf(k, Some(v)) => object.string(k, v),
            Field::StrIf(_, None) => object,
            Field::Uint(k, v) | Field::OptUint(k, Some(v)) => object.uint(k, *v),
            Field::OptUint(k, None) | Field::Null(k) => object.null(k),
            Field::Float(k, v) => object.float(k, *v),
            Field::Bool(k, v) => object.bool(k, *v),
            Field::Hex(k, v) => object.string(k, &format_renderer::hex(v)),
            Field::Object(k, nested, _) => object.raw(k, &render_formatted(nested)),
        };
    }
    object.finish()
}

#[test]
fn edge_values_render_byte_identically() {
    let nested = vec![Field::Object("e".into(), Vec::new(), true)];
    let cases = vec![
        Vec::new(),
        vec![Field::Str(
            "\"\\\n\r\t\u{1}\u{1f}".into(),
            "é€𝄞\u{0}".into(),
        )],
        vec![
            Field::Uint(String::new(), u64::MAX),
            Field::Uint("zero".into(), 0),
            Field::Float("nan".into(), f64::NAN),
            Field::Float("-0".into(), -0.0),
            Field::Float("sub".into(), f64::MIN_POSITIVE / 3.0),
            Field::Float("inf".into(), f64::NEG_INFINITY),
        ],
        vec![
            Field::Object("in place".into(), Vec::new(), true),
            Field::Object("raw".into(), Vec::new(), false),
            Field::Object("deep".into(), nested, true),
            Field::Hex("hex".into(), vec![0x00, 0x0f, 0xf0, 0xff]),
        ],
    ];
    for fields in cases {
        let got = add(JsonObject::new(), &fields).finish();
        assert_eq!(got, render_formatted(&fields), "{fields:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_objects_render_byte_identically(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let fields = fields(&mut rng, 0);
        let got = add(JsonObject::new(), &fields).finish();
        let want = render_formatted(&fields);
        prop_assert_eq!(got, want, "{:?}", fields);
    }
}
