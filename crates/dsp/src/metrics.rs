//! Waveform comparison metrics and power utilities.
//!
//! Supports the evaluation harness: normalized waveform power (the paper
//! normalizes transmit power and defines `SNR = 1/sigma^2`), RMS emulation
//! error (Fig. 5), and the cyclic-prefix self-similarity statistic used to
//! show that naive CP detection fails (Fig. 8 discussion).

use crate::complex::Complex;
use crate::simd;

/// Mean power `E[|x|^2]` of a waveform; zero for an empty slice.
pub fn mean_power(x: &[Complex]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    simd::sum_norm_sqr(x) / x.len() as f64
}

/// Scales a waveform to unit mean power. Leaves all-zero input untouched.
///
/// # Examples
///
/// ```
/// use ctc_dsp::{metrics::{normalize_power, mean_power}, Complex};
/// let x = vec![Complex::new(3.0, 0.0); 10];
/// let y = normalize_power(&x);
/// assert!((mean_power(&y) - 1.0).abs() < 1e-12);
/// ```
pub fn normalize_power(x: &[Complex]) -> Vec<Complex> {
    let p = mean_power(x);
    if p <= 0.0 {
        return x.to_vec();
    }
    let g = 1.0 / p.sqrt();
    x.iter().map(|&v| v * g).collect()
}

/// Root-mean-square error between two equal-length waveforms.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn rms_error(a: &[Complex], b: &[Complex]) -> f64 {
    assert_eq!(a.len(), b.len(), "rms_error requires equal lengths");
    if a.is_empty() {
        return 0.0;
    }
    let e: f64 = a.iter().zip(b).map(|(x, y)| (*x - *y).norm_sqr()).sum();
    (e / a.len() as f64).sqrt()
}

/// Normalized mean-square error `sum|a-b|^2 / sum|a|^2` in dB
/// (`-inf` for identical signals; returns `f64::NEG_INFINITY`).
///
/// # Panics
///
/// Panics if lengths differ or the reference has zero energy.
pub fn nmse_db(reference: &[Complex], test: &[Complex]) -> f64 {
    assert_eq!(
        reference.len(),
        test.len(),
        "nmse_db requires equal lengths"
    );
    let sig: f64 = reference.iter().map(|v| v.norm_sqr()).sum();
    assert!(sig > 0.0, "nmse_db reference must have nonzero energy");
    let err: f64 = reference
        .iter()
        .zip(test)
        .map(|(x, y)| (*x - *y).norm_sqr())
        .sum();
    if err == 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * (err / sig).log10()
    }
}

/// Complex correlation coefficient between two waveforms
/// `|<a,b>| / sqrt(<a,a><b,b>)`, in `[0, 1]`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn correlation(a: &[Complex], b: &[Complex]) -> f64 {
    assert_eq!(a.len(), b.len(), "correlation requires equal lengths");
    simd::normalized_correlation(
        simd::cdot_conj(a, b),
        simd::sum_norm_sqr(a),
        simd::sum_norm_sqr(b),
    )
}

/// Cyclic-prefix self-similarity of an 80-sample OFDM symbol: the normalized
/// correlation between the first `cp_len` samples and the last `cp_len`.
///
/// A clean WiFi symbol scores ~1.0 (its CP is a copy of the tail); an
/// authentic ZigBee quarter-symbol scores much lower — but noise and fading
/// destroy the margin, which is why the paper rejects this defense.
///
/// # Panics
///
/// Panics if `symbol.len() < 2 * cp_len` or `cp_len == 0`.
pub fn cp_self_similarity(symbol: &[Complex], cp_len: usize) -> f64 {
    assert!(cp_len > 0, "cp_len must be positive");
    assert!(
        symbol.len() >= 2 * cp_len,
        "symbol too short for cp comparison"
    );
    let head = &symbol[..cp_len];
    let tail = &symbol[symbol.len() - cp_len..];
    correlation(head, tail)
}

/// Distance between two `f64` values in units in the last place: the
/// number of representable doubles strictly between them (0 for equal
/// values, including `-0.0` vs `0.0`).
///
/// Monotone total-order mapping: the bit pattern is flipped so negative
/// floats sort below positives, then distance is the integer gap. `NaN`
/// anywhere yields `u64::MAX` (never "close" to anything). This is the
/// float-band primitive behind the golden-vector comparator: a tolerance
/// in ULPs is scale-free, so it works identically for waveform samples
/// near 1.0 and near 1e-6.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    // Sign-magnitude bits -> monotone signed key. Both zeros map to 0, so
    // the negative ray is the exact mirror of the positive one.
    fn total_order_key(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    }
    total_order_key(a).abs_diff(total_order_key(b))
}

/// Linear SNR (`1/sigma^2` with unit signal power) to dB.
pub fn snr_to_db(snr_linear: f64) -> f64 {
    10.0 * snr_linear.log10()
}

/// dB to linear SNR.
pub fn db_to_snr(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_power_basics() {
        assert_eq!(mean_power(&[]), 0.0);
        let x = vec![Complex::new(1.0, 1.0); 4];
        assert!((mean_power(&x) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_power_unit() {
        let x = vec![Complex::new(0.3, -0.4); 8];
        let y = normalize_power(&x);
        assert!((mean_power(&y) - 1.0).abs() < 1e-12);
        // Zero stays zero.
        let z = normalize_power(&[Complex::ZERO; 3]);
        assert!(z.iter().all(|v| *v == Complex::ZERO));
    }

    #[test]
    fn rms_error_zero_for_identical() {
        let x = vec![Complex::new(1.0, 2.0); 5];
        assert_eq!(rms_error(&x, &x), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn rms_error_length_mismatch_panics() {
        let _ = rms_error(&[Complex::ONE], &[Complex::ONE; 2]);
    }

    #[test]
    fn ulp_distance_counts_representable_gaps() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(
            ulp_distance(-1.0, f64::from_bits((-1.0f64).to_bits() + 1)),
            1
        );
        // Straddling zero: distance through both subnormal ranges.
        let tiny = f64::from_bits(1); // smallest positive subnormal
        assert_eq!(ulp_distance(tiny, -tiny), 2);
        assert_eq!(ulp_distance(f64::NAN, 1.0), u64::MAX);
        assert_eq!(ulp_distance(1.0, f64::NAN), u64::MAX);
        // Symmetric and monotone in magnitude.
        assert_eq!(ulp_distance(3.5, 3.75), ulp_distance(3.75, 3.5));
        assert!(ulp_distance(1.0, 2.0) < ulp_distance(1.0, 4.0));
    }

    #[test]
    fn nmse_db_scales() {
        let a = vec![Complex::ONE; 10];
        let b: Vec<Complex> = a.iter().map(|v| *v * 0.9).collect();
        // err = 0.01 * 10, sig = 10 -> -20 dB
        assert!((nmse_db(&a, &b) + 20.0).abs() < 1e-9);
        assert_eq!(nmse_db(&a, &a), f64::NEG_INFINITY);
    }

    #[test]
    fn correlation_bounds() {
        let a = vec![Complex::ONE, Complex::I, Complex::new(0.5, 0.5)];
        assert!((correlation(&a, &a) - 1.0).abs() < 1e-12);
        let rotated: Vec<Complex> = a.iter().map(|v| *v * Complex::cis(1.2)).collect();
        assert!((correlation(&a, &rotated) - 1.0).abs() < 1e-12);
        let orth = vec![Complex::ONE, Complex::ZERO, Complex::ZERO];
        let orth2 = vec![Complex::ZERO, Complex::ONE, Complex::ZERO];
        assert!(correlation(&orth, &orth2) < 1e-12);
        assert_eq!(correlation(&a, &[Complex::ZERO; 3]), 0.0);
    }

    #[test]
    fn cp_similarity_detects_true_cp() {
        // Build an 80-sample symbol whose first 16 == last 16.
        let mut sym = vec![Complex::ZERO; 80];
        for i in 0..64 {
            sym[16 + i] = Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.77).cos());
        }
        for i in 0..16 {
            sym[i] = sym[64 + i];
        }
        assert!((cp_self_similarity(&sym, 16) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cp_similarity_low_without_cp() {
        let sym: Vec<Complex> = (0..80)
            .map(|i| Complex::new((i as f64 * 1.17).sin(), (i as f64 * 2.31).cos()))
            .collect();
        assert!(cp_self_similarity(&sym, 16) < 0.7);
    }

    #[test]
    fn snr_conversions_roundtrip() {
        for db in [-10.0, 0.0, 7.0, 17.0] {
            assert!((snr_to_db(db_to_snr(db)) - db).abs() < 1e-9);
        }
        assert!((db_to_snr(0.0) - 1.0).abs() < 1e-12);
        assert!((db_to_snr(10.0) - 10.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn correlation_symmetric(seed in 0u64..300) {
            let mut s = seed.wrapping_add(17);
            let mut rnd = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            };
            let a: Vec<Complex> = (0..24).map(|_| Complex::new(rnd(), rnd())).collect();
            let b: Vec<Complex> = (0..24).map(|_| Complex::new(rnd(), rnd())).collect();
            let c1 = correlation(&a, &b);
            let c2 = correlation(&b, &a);
            prop_assert!((c1 - c2).abs() < 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c1));
        }

        #[test]
        fn normalize_power_idempotent(scale in 0.01f64..50.0) {
            let x: Vec<Complex> = (0..32)
                .map(|i| Complex::new((i as f64).sin() * scale, (i as f64).cos() * scale))
                .collect();
            let once = normalize_power(&x);
            let twice = normalize_power(&once);
            for (a, b) in once.iter().zip(&twice) {
                prop_assert!((*a - *b).norm() < 1e-12);
            }
        }
    }
}
