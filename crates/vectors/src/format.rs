//! The `.ctcv` golden-vector container: one canonical artifact per file,
//! self-describing (kind + tolerance travel with the data) and integrity-
//! checked (FNV-1a 64 checksum over the payload), so a corpus directory
//! can be read back years later without out-of-band schema knowledge.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "CTCV"                      4 bytes
//! version u16                         2
//! kind    u8   (samples/bytes/scalars/text)
//! tol     u8   (exact/absolute/ulps) + f64 tolerance value
//! name    u32 length + UTF-8 bytes
//! payload u64 element count + elements
//!           samples: 2 × f64 (re, im) per element
//!           scalars: 1 × f64 per element
//!           bytes / text: 1 byte per element
//! check   u64 FNV-1a of the payload bytes
//! ```

use ctc_dsp::Complex;
use std::io::{self, Read};

/// File magic.
pub const MAGIC: [u8; 4] = *b"CTCV";
/// Container format version.
pub const FORMAT_VERSION: u16 = 1;

/// What one vector's elements are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Complex baseband samples (f64 I/Q pairs).
    Samples,
    /// Raw bytes (chip sequences, payloads) — always compared bit-exact.
    Bytes,
    /// A flat series of f64 scalars (feature triples, metadata).
    Scalars,
    /// UTF-8 text, compared line-by-line as JSON when lines parse
    /// (numeric fields get the vector's tolerance).
    Text,
}

impl Kind {
    fn code(self) -> u8 {
        match self {
            Kind::Samples => 0,
            Kind::Bytes => 1,
            Kind::Scalars => 2,
            Kind::Text => 3,
        }
    }

    fn from_code(code: u8) -> Option<Kind> {
        match code {
            0 => Some(Kind::Samples),
            1 => Some(Kind::Bytes),
            2 => Some(Kind::Scalars),
            3 => Some(Kind::Text),
            _ => None,
        }
    }

    /// Stable lowercase name (used in the manifest).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Samples => "samples",
            Kind::Bytes => "bytes",
            Kind::Scalars => "scalars",
            Kind::Text => "text",
        }
    }
}

/// How closely a replayed stage must match its golden vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Bit-for-bit: digital stages (chips, bytes) and normalized text.
    Exact,
    /// `|expected − got| ≤ ε` per component: float DSP stages whose
    /// absolute scale is known (unit-power waveforms, feature values).
    Absolute(f64),
    /// At most this many representable doubles apart per component
    /// (see [`ctc_dsp::metrics::ulp_distance`]): scale-free bands for
    /// stages mixing large and small magnitudes.
    Ulps(u64),
}

impl Tolerance {
    fn code(self) -> (u8, f64) {
        match self {
            Tolerance::Exact => (0, 0.0),
            Tolerance::Absolute(e) => (1, e),
            Tolerance::Ulps(u) => (2, u as f64),
        }
    }

    fn from_code(code: u8, value: f64) -> Option<Tolerance> {
        match code {
            0 => Some(Tolerance::Exact),
            1 => Some(Tolerance::Absolute(value)),
            2 => Some(Tolerance::Ulps(value as u64)),
            _ => None,
        }
    }

    /// Stable rendering (used in the manifest and reports): `exact`,
    /// `abs=1e-9`, `ulps=16`.
    pub fn describe(self) -> String {
        match self {
            Tolerance::Exact => "exact".to_string(),
            Tolerance::Absolute(e) => format!("abs={e}"),
            Tolerance::Ulps(u) => format!("ulps={u}"),
        }
    }
}

/// A vector's elements.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Complex samples.
    Samples(Vec<Complex>),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// f64 series.
    Scalars(Vec<f64>),
    /// UTF-8 text.
    Text(String),
}

impl Payload {
    /// The matching [`Kind`] tag.
    pub fn kind(&self) -> Kind {
        match self {
            Payload::Samples(_) => Kind::Samples,
            Payload::Bytes(_) => Kind::Bytes,
            Payload::Scalars(_) => Kind::Scalars,
            Payload::Text(_) => Kind::Text,
        }
    }

    /// Element count (samples, scalars, or bytes).
    pub fn len(&self) -> usize {
        match self {
            Payload::Samples(v) => v.len(),
            Payload::Bytes(v) => v.len(),
            Payload::Scalars(v) => v.len(),
            Payload::Text(s) => s.len(),
        }
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn to_bytes(&self) -> Vec<u8> {
        match self {
            Payload::Samples(v) => {
                let mut out = Vec::with_capacity(v.len() * 16);
                for s in v {
                    out.extend_from_slice(&s.re.to_le_bytes());
                    out.extend_from_slice(&s.im.to_le_bytes());
                }
                out
            }
            Payload::Bytes(v) => v.clone(),
            Payload::Scalars(v) => {
                let mut out = Vec::with_capacity(v.len() * 8);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
                out
            }
            Payload::Text(s) => s.as_bytes().to_vec(),
        }
    }

    fn from_bytes(kind: Kind, count: usize, bytes: &[u8]) -> io::Result<Payload> {
        let f64_at =
            |i: usize| f64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
        Ok(match kind {
            Kind::Samples => Payload::Samples(
                (0..count)
                    .map(|i| Complex::new(f64_at(2 * i), f64_at(2 * i + 1)))
                    .collect(),
            ),
            Kind::Bytes => Payload::Bytes(bytes.to_vec()),
            Kind::Scalars => Payload::Scalars((0..count).map(f64_at).collect()),
            Kind::Text => Payload::Text(
                String::from_utf8(bytes.to_vec())
                    .map_err(|_| bad_data("text payload is not UTF-8"))?,
            ),
        })
    }

    /// Payload bytes for `count` elements (`None` on overflow).
    fn payload_bytes_len(kind: Kind, count: usize) -> Option<usize> {
        match kind {
            Kind::Samples => count.checked_mul(16),
            Kind::Scalars => count.checked_mul(8),
            Kind::Bytes | Kind::Text => Some(count),
        }
    }
}

/// One golden vector: a named pipeline stage's canonical output plus the
/// tolerance its replay must meet.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    /// Stage name (`zigbee_chips`, `captured_4mhz`, …); also the file stem.
    pub name: String,
    /// Comparison band.
    pub tolerance: Tolerance,
    /// The canonical data.
    pub payload: Payload,
}

impl Vector {
    /// The corpus file name for this vector.
    pub fn file_name(&self) -> String {
        format!("{}.ctcv", self.name)
    }

    /// FNV-1a 64 checksum of the encoded payload bytes.
    pub fn checksum(&self) -> u64 {
        fnv1a64(&self.payload.to_bytes())
    }

    /// Serializes the vector into the container format.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload.to_bytes();
        let (tol_code, tol_value) = self.tolerance.code();
        let mut out = Vec::with_capacity(payload.len() + self.name.len() + 40);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(self.payload.kind().code());
        out.push(tol_code);
        out.extend_from_slice(&tol_value.to_le_bytes());
        out.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out
    }

    /// Deserializes a vector, verifying magic, version and checksum.
    ///
    /// # Errors
    ///
    /// `InvalidData` on any structural problem or checksum mismatch.
    pub fn decode(bytes: &[u8]) -> io::Result<Vector> {
        let mut r = Cursor { bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(bad_data("not a CTCV file (bad magic)"));
        }
        let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
        if version != FORMAT_VERSION {
            return Err(bad_data(&format!(
                "unsupported CTCV version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let kind = Kind::from_code(r.take(1)?[0]).ok_or_else(|| bad_data("unknown kind"))?;
        let tol_code = r.take(1)?[0];
        let tol_value = f64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"));
        let tolerance = Tolerance::from_code(tol_code, tol_value)
            .ok_or_else(|| bad_data("unknown tolerance mode"))?;
        let name_len = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes")) as usize;
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| bad_data("vector name is not UTF-8"))?;
        let count = u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"));
        let too_large = || bad_data(&format!("element count {count} is too large"));
        let count = usize::try_from(count).map_err(|_| too_large())?;
        let payload_len = Payload::payload_bytes_len(kind, count).ok_or_else(too_large)?;
        let payload_bytes = r.take(payload_len)?;
        let stored_sum = u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"));
        let actual_sum = fnv1a64(payload_bytes);
        if stored_sum != actual_sum {
            return Err(bad_data(&format!(
                "checksum mismatch in {name:?}: stored {stored_sum:016x}, computed {actual_sum:016x} (corrupt file?)"
            )));
        }
        if r.pos != bytes.len() {
            return Err(bad_data("trailing bytes after CTCV payload"));
        }
        let payload = Payload::from_bytes(kind, count, payload_bytes)?;
        Ok(Vector {
            name,
            tolerance,
            payload,
        })
    }

    /// Reads and decodes one vector from `reader`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and [`Vector::decode`] failures.
    pub fn read_from<R: Read>(mut reader: R) -> io::Result<Vector> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Vector::decode(&bytes)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| bad_data("truncated CTCV file"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// FNV-1a 64-bit hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Vector) {
        let decoded = Vector::decode(&v.encode()).unwrap();
        assert_eq!(&decoded, v);
    }

    #[test]
    fn every_kind_roundtrips() {
        roundtrip(&Vector {
            name: "samples".into(),
            tolerance: Tolerance::Ulps(16),
            payload: Payload::Samples(vec![Complex::new(0.5, -0.25), Complex::new(-1e-12, 3e7)]),
        });
        roundtrip(&Vector {
            name: "bytes".into(),
            tolerance: Tolerance::Exact,
            payload: Payload::Bytes(vec![0, 1, 255, 127]),
        });
        roundtrip(&Vector {
            name: "scalars".into(),
            tolerance: Tolerance::Absolute(1e-9),
            payload: Payload::Scalars(vec![1.0, -2.5, f64::MIN_POSITIVE]),
        });
        roundtrip(&Vector {
            name: "text".into(),
            tolerance: Tolerance::Absolute(1e-6),
            payload: Payload::Text("{\"a\":1}\n{\"b\":2}\n".into()),
        });
    }

    #[test]
    fn empty_payloads_roundtrip() {
        roundtrip(&Vector {
            name: "empty".into(),
            tolerance: Tolerance::Exact,
            payload: Payload::Samples(Vec::new()),
        });
    }

    #[test]
    fn corruption_is_detected() {
        let v = Vector {
            name: "stage".into(),
            tolerance: Tolerance::Exact,
            payload: Payload::Bytes(vec![1, 2, 3, 4]),
        };
        let mut bytes = v.encode();
        // Flip one payload byte; length and structure stay valid.
        let payload_at = bytes.len() - 8 - 2;
        bytes[payload_at] ^= 0xFF;
        let err = Vector::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncation_is_detected() {
        let v = Vector {
            name: "stage".into(),
            tolerance: Tolerance::Exact,
            payload: Payload::Scalars(vec![1.0, 2.0]),
        };
        let bytes = v.encode();
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(Vector::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(Vector::decode(&extra).is_err(), "trailing byte");
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let v = Vector {
            name: "x".into(),
            tolerance: Tolerance::Exact,
            payload: Payload::Bytes(vec![]),
        };
        let mut bytes = v.encode();
        bytes[0] = b'X';
        assert!(Vector::decode(&bytes).is_err());
        let mut bytes = v.encode();
        bytes[4] = 99; // version
        let err = Vector::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn tolerance_descriptions_are_stable() {
        assert_eq!(Tolerance::Exact.describe(), "exact");
        assert_eq!(Tolerance::Absolute(1e-9).describe(), "abs=0.000000001");
        assert_eq!(Tolerance::Ulps(16).describe(), "ulps=16");
    }

    #[test]
    fn checksum_matches_known_fnv_vectors() {
        // Standard FNV-1a 64 test values.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
