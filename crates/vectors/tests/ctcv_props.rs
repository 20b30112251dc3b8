//! Property tests for [`Vector::decode`], the `.ctcv` reader behind
//! `ctc vectors check`, which reads its files from disk. Whatever the
//! bytes, it returns `Ok` or an `InvalidData` error and never panics:
//!
//! - random bytes;
//! - valid encodings with a random value written over the element count,
//!   kind or name-length field of the header.

use ctc_dsp::Complex;
use ctc_vectors::{Payload, Tolerance, Vector, FORMAT_VERSION};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::ErrorKind;

/// Byte offset of the kind field (after magic and version).
const KIND_AT: usize = 6;
/// Byte offset of the name length (after kind, tolerance mode and value).
const NAME_LEN_AT: usize = 16;

/// A valid vector of kind `kind` (0..4) with `len` elements.
fn sample_vector(kind: u8, len: usize, name: &str) -> Vector {
    let payload = match kind {
        0 => Payload::Samples(
            (0..len)
                .map(|i| Complex::new(i as f64, -0.5 * i as f64))
                .collect(),
        ),
        1 => Payload::Bytes((0..len).map(|i| i as u8).collect()),
        2 => Payload::Scalars((0..len).map(|i| i as f64 * 0.25).collect()),
        _ => Payload::Text("x".repeat(len)),
    };
    Vector {
        name: name.to_string(),
        tolerance: Tolerance::Ulps(4),
        payload,
    }
}

/// Decodes `bytes`; any error must be typed `InvalidData`.
fn check_decode(bytes: &[u8]) {
    if let Err(e) = Vector::decode(bytes) {
        assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}");
    }
}

/// The crafted files that crashed the reader: valid magic and version, an
/// empty name, an element count whose payload size overflows, and the
/// checksum of the (empty) payload actually present. 36 bytes each.
#[test]
fn overflowing_element_counts_are_invalid_data() {
    for (kind, count) in [
        (0u8, 1u64 << 60),
        (2, 1 << 61),
        (0, u64::MAX),
        (2, u64::MAX),
    ] {
        let mut bytes = b"CTCV".to_vec();
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&[kind, 0]);
        bytes.extend_from_slice(&0f64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&ctc_vectors::format::fnv1a64(&[]).to_le_bytes());
        assert_eq!(bytes.len(), 36);
        let err = Vector::decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in vec(any::<u8>(), 0..128)) {
        check_decode(&bytes);
    }

    #[test]
    fn random_bytes_after_a_valid_magic_never_panic(
        tail in vec(any::<u8>(), 0..96),
        kind in 0u8..5,
    ) {
        let mut bytes = b"CTCV".to_vec();
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.push(kind);
        bytes.extend_from_slice(&tail);
        check_decode(&bytes);
    }

    #[test]
    fn forged_header_fields_never_panic(
        kind in 0u8..4,
        len in 0usize..6,
        name_len in 0usize..4,
        field in 0u8..3,
        raw in any::<u64>(),
        shift in 0u32..64,
    ) {
        // Shifting spreads the values over every magnitude, not just
        // the huge ones a uniform u64 almost always is.
        let value = raw >> shift;
        let name = "n".repeat(name_len);
        let mut bytes = sample_vector(kind, len, &name).encode();
        let (at, width) = match field {
            0 => (NAME_LEN_AT + 4 + name_len, 8), // element count
            1 => (KIND_AT, 1),
            _ => (NAME_LEN_AT, 4),
        };
        bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        check_decode(&bytes);
    }
}
