//! FIR filtering and windowed-sinc low-pass design.
//!
//! The ZigBee receiver front-end is a 2 MHz channel: when it digitizes a
//! 20 MHz-wide WiFi emulation waveform it only keeps the overlapping band.
//! We model that with a windowed-sinc low-pass followed by decimation (see
//! [`crate::resample`]). The filters here are deliberately plain — linear
//! phase, Hamming window — because the paper's effects come from *bandwidth*,
//! not filter family.

use crate::complex::Complex;
use crate::simd;

/// A finite-impulse-response filter with real taps.
///
/// # Examples
///
/// ```
/// use ctc_dsp::filter::Fir;
/// use ctc_dsp::Complex;
///
/// // A 2-tap moving average.
/// let fir = Fir::new(vec![0.5, 0.5]).unwrap();
/// let y = fir.filter(&[Complex::ONE, Complex::ONE, Complex::ONE]);
/// assert!((y[1] - Complex::ONE).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fir {
    taps: Vec<f64>,
    /// `taps` reversed, cached so the full-window interior of
    /// [`Fir::filter`] is a contiguous forward dot product the SIMD kernel
    /// can stream.
    taps_rev: Vec<f64>,
}

/// Error returned when constructing a filter from an empty tap list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyTapsError;

impl std::fmt::Display for EmptyTapsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FIR filter requires at least one tap")
    }
}

impl std::error::Error for EmptyTapsError {}

impl Fir {
    /// Builds a filter from explicit taps.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyTapsError`] if `taps` is empty.
    pub fn new(taps: Vec<f64>) -> Result<Self, EmptyTapsError> {
        if taps.is_empty() {
            Err(EmptyTapsError)
        } else {
            Ok(Fir::from_taps(taps))
        }
    }

    fn from_taps(taps: Vec<f64>) -> Self {
        let taps_rev: Vec<f64> = taps.iter().rev().copied().collect();
        Fir { taps, taps_rev }
    }

    /// Designs a linear-phase low-pass via the windowed-sinc method.
    ///
    /// `cutoff` is the -6 dB edge as a fraction of the sample rate
    /// (`0 < cutoff < 0.5`); `num_taps` is forced odd so the filter has an
    /// integer group delay of `(num_taps-1)/2` samples.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff` is outside `(0, 0.5)` or `num_taps == 0`.
    pub fn low_pass(cutoff: f64, num_taps: usize) -> Self {
        assert!(
            cutoff > 0.0 && cutoff < 0.5,
            "cutoff must be in (0, 0.5), got {cutoff}"
        );
        assert!(num_taps > 0, "num_taps must be positive");
        let n = if num_taps.is_multiple_of(2) {
            num_taps + 1
        } else {
            num_taps
        };
        let mid = (n - 1) as f64 / 2.0;
        let mut taps = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 - mid;
            let sinc = if t == 0.0 {
                2.0 * cutoff
            } else {
                (2.0 * std::f64::consts::PI * cutoff * t).sin() / (std::f64::consts::PI * t)
            };
            // Hamming window.
            let w = 0.54 - 0.46 * (2.0 * std::f64::consts::PI * i as f64 / (n - 1) as f64).cos();
            taps.push(sinc * w);
        }
        // Normalize to unity DC gain.
        let sum: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        Fir::from_taps(taps)
    }

    /// Filter taps.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Group delay in samples for the linear-phase designs produced by
    /// [`Fir::low_pass`].
    pub fn group_delay(&self) -> usize {
        (self.taps.len() - 1) / 2
    }

    /// Convolves the input with the taps, returning a same-length output with
    /// the group delay removed (zero-padded edges).
    ///
    /// This keeps waveform timing aligned so block boundaries (WiFi symbols,
    /// ZigBee chips) stay where the transmit chain put them. Only the
    /// `x.len()` delay-compensated outputs are computed, with no
    /// full-convolution temporary.
    pub fn filter(&self, x: &[Complex]) -> Vec<Complex> {
        if x.is_empty() {
            return Vec::new();
        }
        let delay = self.group_delay();
        let t = self.taps.len();
        let mut out = Vec::with_capacity(x.len());
        // Full-window interior: outputs `lo..hi` see every tap with the
        // window entirely inside `x`, so y[k] is a contiguous dot product
        // of the reversed taps against x[k-lo..k-lo+t] — one SIMD kernel
        // dispatch covers all of them. Edges keep the scalar zero-padded
        // form.
        let lo = (t - 1 - delay).min(x.len());
        let hi = x.len().saturating_sub(delay).max(lo);
        for k in 0..lo {
            out.push(self.edge_output(x, k + delay, t));
        }
        out.resize(hi, Complex::ZERO);
        simd::fir_interior(&self.taps_rev, x, &mut out[lo..hi]);
        for k in hi..x.len() {
            out.push(self.edge_output(x, k + delay, t));
        }
        out
    }

    /// One delay-compensated output at the zero-padded edges:
    /// `y[k] = sum_j taps[j] * x[i - j]` over the in-range taps,
    /// with `i = k + delay`.
    fn edge_output(&self, x: &[Complex], i: usize, t: usize) -> Complex {
        let j_lo = (i + 1).saturating_sub(x.len());
        let j_hi = i.min(t - 1);
        let mut acc = Complex::ZERO;
        for j in j_lo..=j_hi {
            acc += x[i - j] * self.taps[j];
        }
        acc
    }

    /// Full convolution (length `x.len() + taps.len() - 1`).
    pub fn convolve(&self, x: &[Complex]) -> Vec<Complex> {
        if x.is_empty() {
            return Vec::new();
        }
        let n = x.len() + self.taps.len() - 1;
        let mut out = vec![Complex::ZERO; n];
        for (i, &xi) in x.iter().enumerate() {
            for (j, &tj) in self.taps.iter().enumerate() {
                out[i + j] += xi * tj;
            }
        }
        out
    }

    /// Magnitude response at a normalized frequency `f` (cycles/sample).
    pub fn magnitude_at(&self, f: f64) -> f64 {
        let mut acc = Complex::ZERO;
        for (i, &t) in self.taps.iter().enumerate() {
            acc += Complex::cis(-2.0 * std::f64::consts::PI * f * i as f64) * t;
        }
        acc.norm()
    }
}

/// Multiplies a waveform by `e^{j 2 pi f_offset t}`, shifting its spectrum by
/// `f_offset` (expressed as a fraction of the sample rate).
///
/// Used for: placing the 2 MHz ZigBee band inside the 20 MHz WiFi baseband
/// (and back), and for modelling carrier frequency offset in real channels.
///
/// # Examples
///
/// ```
/// use ctc_dsp::{filter::frequency_shift, Complex};
/// let x = vec![Complex::ONE; 4];
/// let y = frequency_shift(&x, 0.25); // quarter of the sample rate
/// assert!((y[1] - Complex::I).norm() < 1e-12);
/// ```
pub fn frequency_shift(x: &[Complex], f_offset: f64) -> Vec<Complex> {
    let mut out = x.to_vec();
    frequency_shift_in_place(&mut out, f_offset);
    out
}

/// [`frequency_shift`] mutating the waveform in place.
///
/// Uses an incrementally rotated phasor (one complex multiply per sample)
/// with a periodic exact resync, instead of a `sin`/`cos` pair per sample.
pub fn frequency_shift_in_place(x: &mut [Complex], f_offset: f64) {
    simd::rotate_in_place(x, 2.0 * std::f64::consts::PI * f_offset);
}

/// Applies a constant phase rotation `e^{j theta}` to every sample.
pub fn phase_rotate(x: &[Complex], theta: f64) -> Vec<Complex> {
    let mut out = x.to_vec();
    phase_rotate_in_place(&mut out, theta);
    out
}

/// [`phase_rotate`] mutating the waveform in place.
pub fn phase_rotate_in_place(x: &mut [Complex], theta: f64) {
    simd::phase_rotate_in_place(x, Complex::cis(theta));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_taps_rejected() {
        assert!(Fir::new(vec![]).is_err());
        assert!(Fir::new(vec![1.0]).is_ok());
    }

    #[test]
    fn low_pass_unity_dc_gain() {
        let f = Fir::low_pass(0.1, 63);
        let s: f64 = f.taps().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!((f.magnitude_at(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn low_pass_attenuates_stopband() {
        let f = Fir::low_pass(0.1, 63);
        assert!(f.magnitude_at(0.05) > 0.9, "passband should be ~1");
        assert!(f.magnitude_at(0.25) < 0.01, "stopband should be attenuated");
        assert!(f.magnitude_at(0.4) < 0.01);
    }

    #[test]
    fn even_tap_request_becomes_odd() {
        let f = Fir::low_pass(0.2, 10);
        assert_eq!(f.taps().len() % 2, 1);
    }

    #[test]
    fn filter_preserves_length_and_alignment() {
        let f = Fir::low_pass(0.2, 31);
        // A DC signal should pass through with unit gain once edges settle.
        let x = vec![Complex::new(2.0, -1.0); 128];
        let y = f.filter(&x);
        assert_eq!(y.len(), x.len());
        // Center samples unaffected.
        assert!((y[64] - x[64]).norm() < 1e-6);
    }

    #[test]
    fn convolve_length() {
        let f = Fir::new(vec![1.0, 0.5]).unwrap();
        let y = f.convolve(&[Complex::ONE; 3]);
        assert_eq!(y.len(), 4);
        assert!((y[0] - Complex::ONE).norm() < 1e-12);
        assert!((y[3] - Complex::new(0.5, 0.0)).norm() < 1e-12);
        assert!(f.convolve(&[]).is_empty());
    }

    #[test]
    fn shift_then_unshift_is_identity() {
        let x: Vec<Complex> = (0..50)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let y = frequency_shift(&frequency_shift(&x, 0.13), -0.13);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).norm() < 1e-10);
        }
    }

    #[test]
    fn shift_moves_tone_bin() {
        use crate::fft::fft;
        let n = 64;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * 3.0 * t as f64 / n as f64))
            .collect();
        let y = frequency_shift(&x, 5.0 / n as f64);
        let spec = fft(&y).unwrap();
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
            .unwrap()
            .0;
        assert_eq!(peak, 8);
    }

    #[test]
    fn filter_matches_convolve_path() {
        let f = Fir::low_pass(0.2, 31);
        let x: Vec<Complex> = (0..100)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let direct = f.filter(&x);
        let expected: Vec<Complex> = f
            .convolve(&x)
            .into_iter()
            .skip(f.group_delay())
            .take(x.len())
            .collect();
        assert_eq!(direct.len(), expected.len());
        for (a, b) in direct.iter().zip(&expected) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn incremental_shift_matches_per_sample_cis() {
        let n = 5000; // spans several phasor resync periods
        let x = vec![Complex::ONE; n];
        let y = frequency_shift(&x, 0.01937);
        for (i, v) in y.iter().enumerate() {
            let exact = Complex::cis(2.0 * std::f64::consts::PI * 0.01937 * i as f64);
            assert!((*v - exact).norm() < 1e-11, "sample {i} drifted");
        }
    }

    #[test]
    fn phase_rotate_rotates() {
        let x = vec![Complex::ONE];
        let y = phase_rotate(&x, std::f64::consts::FRAC_PI_2);
        assert!((y[0] - Complex::I).norm() < 1e-12);
    }

    proptest! {
        #[test]
        fn filter_is_linear(scale in 0.1f64..10.0, seed in 0u64..1000) {
            let mut s = seed;
            let mut rnd = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            };
            let x: Vec<Complex> = (0..40).map(|_| Complex::new(rnd(), rnd())).collect();
            let f = Fir::low_pass(0.2, 15);
            let y1: Vec<Complex> = f.filter(&x).iter().map(|v| *v * scale).collect();
            let xs: Vec<Complex> = x.iter().map(|v| *v * scale).collect();
            let y2 = f.filter(&xs);
            for (a, b) in y1.iter().zip(&y2) {
                prop_assert!((*a - *b).norm() < 1e-9 * scale.max(1.0));
            }
        }

        #[test]
        fn group_delay_consistent(taps in 3usize..41) {
            let f = Fir::low_pass(0.1, taps);
            prop_assert_eq!(f.group_delay(), (f.taps().len() - 1) / 2);
        }
    }
}
