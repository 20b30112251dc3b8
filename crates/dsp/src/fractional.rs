//! Fractional-delay interpolation (cubic Lagrange / Farrow structure).
//!
//! Real receivers never sample exactly at the transmitter's instants; the
//! ZigBee receiver's timing recovery needs to evaluate the waveform between
//! its own samples. A 4-tap cubic Lagrange interpolator (the classic Farrow
//! implementation) is accurate to well below the channel noise floor for
//! signals oversampled 2x, like the 2 samples/chip O-QPSK waveform.

use crate::complex::Complex;

/// Evaluates the cubic-Lagrange interpolant of `x` at position
/// `index + mu` where `0 <= mu < 1`, using the taps
/// `x[index-1], x[index], x[index+1], x[index+2]` (edges clamp).
///
/// # Panics
///
/// Panics when `x` is empty or `mu` is outside `[0, 1)`.
pub fn sample_at(x: &[Complex], index: usize, mu: f64) -> Complex {
    assert!(!x.is_empty(), "cannot interpolate an empty waveform");
    assert!((0.0..1.0).contains(&mu), "mu must be in [0, 1), got {mu}");
    let get = |i: isize| -> Complex {
        let clamped = i.clamp(0, x.len() as isize - 1) as usize;
        x[clamped]
    };
    let i = index as isize;
    let xm1 = get(i - 1);
    let x0 = get(i);
    let x1 = get(i + 1);
    let x2 = get(i + 2);
    // Farrow coefficients for cubic Lagrange.
    let c0 = x0;
    let c1 = (x1 - xm1) * 0.5;
    let c2 = xm1 - x0 * 2.5 + x1 * 2.0 - x2 * 0.5;
    let c3 = (x2 - xm1) * 0.5 + (x0 - x1) * 1.5;
    ((c3 * mu + c2) * mu + c1) * mu + c0
}

/// Delays a waveform by a fractional number of samples
/// (`delay = d_int + mu`): output sample `n` equals the input evaluated at
/// `n - delay` (zero before the signal starts). A delay at or past the
/// end, `+inf` included, gives `x.len()` zeros.
///
/// # Panics
///
/// Panics when `delay < 0` or `delay` is NaN.
pub fn fractional_delay(x: &[Complex], delay: f64) -> Vec<Complex> {
    assert!(delay >= 0.0, "delay must be nonnegative, got {delay}");
    let d_int = delay.floor() as usize;
    let mu = delay - delay.floor();
    (0..x.len())
        .map(|n| {
            if n < d_int {
                return Complex::ZERO;
            }
            let base = n - d_int;
            if mu == 0.0 {
                x[base]
            } else if base == 0 {
                // Evaluating before the first sample: the signal is zero
                // there, so ramp in linearly from the zero padding.
                x[0] * (1.0 - mu)
            } else {
                // x evaluated at (base - mu) = interpolate between base-1
                // and base with fraction (1 - mu).
                sample_at(x, base - 1, 1.0 - mu)
            }
        })
        .collect()
}

/// Advances (left-shifts) a waveform by a fractional number of samples:
/// output sample `n` equals the input at `n + advance` (clamped tail, zero
/// past the end). An advance at or past the end, `+inf` included, gives
/// `x.len()` zeros.
///
/// # Panics
///
/// Panics when `advance < 0` or `advance` is NaN.
pub fn fractional_advance(x: &[Complex], advance: f64) -> Vec<Complex> {
    assert!(advance >= 0.0, "advance must be nonnegative, got {advance}");
    let a_int = advance.floor() as usize;
    let mu = advance - advance.floor();
    (0..x.len())
        .map(|n| {
            // `a_int` saturates at `usize::MAX` for huge or infinite
            // advances, so the index does too: past the end is zero.
            let base = n.saturating_add(a_int);
            if base >= x.len() {
                Complex::ZERO
            } else if mu == 0.0 {
                x[base]
            } else {
                sample_at(x, base, mu)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, n: usize) -> Vec<Complex> {
        (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * f * t as f64))
            .collect()
    }

    #[test]
    fn zero_mu_is_identity() {
        let x = tone(0.05, 32);
        for i in 0..32 {
            assert_eq!(sample_at(&x, i, 0.0), x[i]);
        }
        assert_eq!(fractional_delay(&x, 0.0), x);
        assert_eq!(fractional_advance(&x, 0.0), x);
    }

    #[test]
    fn interpolates_smooth_tone_accurately() {
        // A tone at 0.1 cycles/sample (5x oversampled): cubic interpolation
        // error should be tiny.
        let x = tone(0.1, 64);
        for i in 4..60 {
            for &mu in &[0.25, 0.5, 0.75] {
                let est = sample_at(&x, i, mu);
                let truth = Complex::cis(2.0 * std::f64::consts::PI * 0.1 * (i as f64 + mu));
                // Cubic Lagrange at 10x... 2x-oversampled tones: error
                // O((2 pi f)^4 / 4!) ~ 5e-3 at f = 0.1.
                assert!(
                    (est - truth).norm() < 8e-3,
                    "i={i} mu={mu}: err {}",
                    (est - truth).norm()
                );
            }
        }
    }

    #[test]
    fn delay_then_advance_restores() {
        let x = tone(0.08, 128);
        let delayed = fractional_delay(&x, 2.3);
        let restored = fractional_advance(&delayed, 2.3);
        for i in 8..120 {
            assert!(
                (restored[i] - x[i]).norm() < 1e-2,
                "sample {i}: err {}",
                (restored[i] - x[i]).norm()
            );
        }
    }

    #[test]
    fn integer_delay_shifts_exactly() {
        let x = tone(0.07, 32);
        let d = fractional_delay(&x, 3.0);
        assert_eq!(d[0], Complex::ZERO);
        assert_eq!(d[2], Complex::ZERO);
        for i in 3..32 {
            assert_eq!(d[i], x[i - 3]);
        }
    }

    #[test]
    fn half_sample_delay_of_tone() {
        let x = tone(0.05, 64);
        let d = fractional_delay(&x, 0.5);
        for (i, &di) in d.iter().enumerate().take(60).skip(4) {
            let truth = Complex::cis(2.0 * std::f64::consts::PI * 0.05 * (i as f64 - 0.5));
            assert!((di - truth).norm() < 8e-3, "i={i}: {}", (di - truth).norm());
        }
    }

    #[test]
    #[should_panic(expected = "mu must be")]
    fn bad_mu_panics() {
        let _ = sample_at(&[Complex::ONE; 4], 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_delay_panics() {
        let _ = fractional_delay(&[Complex::ONE; 4], -0.5);
    }

    /// An advance at or past the end, however large, is all zeros, as a
    /// delay that large already is.
    #[test]
    fn huge_shifts_give_zeros() {
        let x = [Complex::ONE; 4];
        for shift in [4.0, 4.5, 1e300, 2f64.powi(64), f64::INFINITY] {
            assert_eq!(fractional_advance(&x, shift), [Complex::ZERO; 4], "{shift}");
            assert_eq!(fractional_delay(&x, shift), [Complex::ZERO; 4], "{shift}");
        }
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn nan_advance_panics() {
        let _ = fractional_advance(&[Complex::ONE; 4], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn nan_delay_panics() {
        let _ = fractional_delay(&[Complex::ONE; 4], f64::NAN);
    }

    #[test]
    fn empty_inputs() {
        assert!(fractional_delay(&[], 1.5).is_empty());
        assert!(fractional_advance(&[], 1.5).is_empty());
    }
}
