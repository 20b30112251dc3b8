//! Deterministic front-end impairments: carrier frequency offset and static
//! phase offset.
//!
//! In the paper's "real scenario" the received constellation shows "an
//! obvious phase offset compared to that in AWGN environment" (Fig. 6), and
//! `C40` is scaled by `e^{j(Δf + θ)}` — which is why the defense switches to
//! `|C40|` there (Sec. VI-C).

use ctc_dsp::Complex;

/// Applies a carrier frequency offset of `cfo_hz` to a waveform sampled at
/// `sample_rate_hz`, plus an initial phase `phase_rad`:
/// `y[n] = x[n] * e^{j(2 pi cfo n / fs + phase)}`.
///
/// # Panics
///
/// Panics if `sample_rate_hz <= 0`.
///
/// # Examples
///
/// ```
/// use ctc_channel::impairments::apply_cfo;
/// use ctc_dsp::Complex;
/// let x = vec![Complex::ONE; 4];
/// // fs/4 offset turns DC into a +90°/sample spiral.
/// let y = apply_cfo(&x, 1.0e6, 4.0e6, 0.0);
/// assert!((y[1] - Complex::I).norm() < 1e-12);
/// ```
pub fn apply_cfo(x: &[Complex], cfo_hz: f64, sample_rate_hz: f64, phase_rad: f64) -> Vec<Complex> {
    assert!(sample_rate_hz > 0.0, "sample rate must be positive");
    let w = 2.0 * std::f64::consts::PI * cfo_hz / sample_rate_hz;
    x.iter()
        .enumerate()
        .map(|(n, &v)| v * Complex::cis(w * n as f64 + phase_rad))
        .collect()
}

/// Applies only a static phase rotation.
pub fn apply_phase(x: &[Complex], phase_rad: f64) -> Vec<Complex> {
    apply_flat_gain(x, Complex::cis(phase_rad))
}

/// Applies a flat complex gain (amplitude scale + phase), e.g. one fading
/// realization held constant over a packet (block fading).
pub fn apply_flat_gain(x: &[Complex], gain: Complex) -> Vec<Complex> {
    x.iter().map(|&v| v * gain).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cfo_zero_phase_is_identity() {
        let x = vec![Complex::new(1.0, -2.0), Complex::new(0.5, 0.5)];
        let y = apply_cfo(&x, 0.0, 4e6, 0.0);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).norm() < 1e-15);
        }
    }

    #[test]
    fn cfo_preserves_magnitude() {
        let x: Vec<Complex> = (0..100)
            .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let y = apply_cfo(&x, 37_500.0, 4e6, 0.3);
        for (a, b) in x.iter().zip(&y) {
            assert!((a.norm() - b.norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn cfo_accumulates_linearly() {
        let x = vec![Complex::ONE; 8];
        let f = 0.1e6;
        let fs = 4e6;
        let y = apply_cfo(&x, f, fs, 0.0);
        let w = 2.0 * std::f64::consts::PI * f / fs;
        for (n, v) in y.iter().enumerate() {
            assert!(
                (v.arg()
                    - (w * n as f64 + std::f64::consts::PI).rem_euclid(2.0 * std::f64::consts::PI)
                    + std::f64::consts::PI)
                    .abs()
                    < 1e-9
                    || (v.arg().rem_euclid(2.0 * std::f64::consts::PI)
                        - (w * n as f64).rem_euclid(2.0 * std::f64::consts::PI))
                    .abs()
                        < 1e-9
            );
        }
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn bad_sample_rate_panics() {
        let _ = apply_cfo(&[Complex::ONE], 100.0, 0.0, 0.0);
    }

    #[test]
    fn phase_only() {
        let y = apply_phase(&[Complex::ONE], std::f64::consts::PI);
        assert!((y[0] + Complex::ONE).norm() < 1e-12);
    }

    #[test]
    fn flat_gain() {
        let g = Complex::from_polar(0.5, 1.0);
        let y = apply_flat_gain(&[Complex::ONE, Complex::I], g);
        assert!((y[0] - g).norm() < 1e-15);
        assert!((y[1] - g * Complex::I).norm() < 1e-15);
    }
}
