//! Power spectral density estimation (Welch's method).
//!
//! Used by the evaluation to visualize spectral placement: the 2 MHz ZigBee
//! band inside the attacker's 20 MHz OFDM waveform, the spectral regrowth
//! caused by QAM quantization, and the receiver's channel filter.

use crate::complex::Complex;
use crate::fft::fft_in_place;
use std::sync::OnceLock;

/// Window functions for spectral estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Window {
    /// Rectangular (no) window.
    Rectangular,
    /// Hann window — the default, good sidelobe/width trade-off.
    #[default]
    Hann,
    /// Hamming window.
    Hamming,
}

impl Window {
    /// Evaluates the window at position `i` of `n`.
    pub fn value(self, i: usize, n: usize) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        let x = 2.0 * std::f64::consts::PI * i as f64 / (n - 1) as f64;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 * (1.0 - x.cos()),
            Window::Hamming => 0.54 - 0.46 * x.cos(),
        }
    }
}

/// One window's coefficients at one length, with their power `Σ w²`.
struct WindowTable {
    coeffs: Box<[f64]>,
    power: f64,
}

impl WindowTable {
    fn build(window: Window, len: usize) -> Self {
        let coeffs: Box<[f64]> = (0..len).map(|i| window.value(i, len)).collect();
        let power = coeffs.iter().map(|w| w * w).sum();
        WindowTable { coeffs, power }
    }
}

/// Largest segment length, as a power of two, whose window tables are
/// built once and kept for the life of the process, as the FFT keeps its
/// twiddles (at most 1.5 MiB if every window and length occurs); longer
/// segments build theirs per call.
const CACHED_LOG2: usize = 15;

/// One window's tables by length (`log2`).
type WindowTables = [OnceLock<WindowTable>; CACHED_LOG2 + 1];

impl Window {
    /// This window's process-wide tables.
    fn tables(self) -> &'static WindowTables {
        static RECTANGULAR: WindowTables = [const { OnceLock::new() }; CACHED_LOG2 + 1];
        static HANN: WindowTables = [const { OnceLock::new() }; CACHED_LOG2 + 1];
        static HAMMING: WindowTables = [const { OnceLock::new() }; CACHED_LOG2 + 1];
        match self {
            Window::Rectangular => &RECTANGULAR,
            Window::Hann => &HANN,
            Window::Hamming => &HAMMING,
        }
    }
}

/// A PSD estimate over `segment_len` frequency bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Psd {
    /// Power per bin (linear), bin 0 = DC, high bins = negative freqs.
    pub power: Vec<f64>,
    /// Number of averaged segments.
    pub segments: usize,
}

impl Psd {
    /// Power per bin in dB relative to the peak bin.
    pub fn db_rel_peak(&self) -> Vec<f64> {
        let peak = self.power.iter().copied().fold(f64::MIN, f64::max);
        self.power
            .iter()
            .map(|&p| 10.0 * (p / peak).max(1e-300).log10())
            .collect()
    }

    /// Reorders bins to natural frequency order (negative→positive), paired
    /// with the normalized frequency of each bin (cycles/sample).
    pub fn ordered(&self) -> Vec<(f64, f64)> {
        let n = self.power.len();
        let half = n / 2;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let bin = (i + half) % n;
            let f = (i as f64 - half as f64) / n as f64;
            out.push((f, self.power[bin]));
        }
        out
    }

    /// Fraction of total power within `|f| <= band` (normalized frequency).
    pub fn band_power_fraction(&self, band: f64) -> f64 {
        let total: f64 = self.power.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        // The bins of `ordered`, in its order, without building it.
        let n = self.power.len();
        let half = n / 2;
        let in_band: f64 = (0..n)
            .filter(|&i| ((i as f64 - half as f64) / n as f64).abs() <= band)
            .map(|i| &self.power[(i + half) % n])
            .sum();
        in_band / total
    }
}

/// Errors for [`welch_psd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsdError {
    /// Segment length is not a power of two of at least 2 (a one-sample
    /// segment has no half-segment hop to advance by).
    BadSegmentLen {
        /// Requested length.
        len: usize,
    },
    /// Input shorter than one segment.
    TooShort,
}

impl std::fmt::Display for PsdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PsdError::BadSegmentLen { len } => {
                write!(
                    f,
                    "segment length must be a power of two of at least 2, got {len}"
                )
            }
            PsdError::TooShort => write!(f, "input shorter than one segment"),
        }
    }
}

impl std::error::Error for PsdError {}

/// Welch PSD: windowed, 50%-overlapped, averaged periodograms.
///
/// # Errors
///
/// [`PsdError::BadSegmentLen`] unless `segment_len` is a power of two of
/// at least 2; [`PsdError::TooShort`] when `x.len() < segment_len`.
///
/// # Examples
///
/// ```
/// use ctc_dsp::{psd::{welch_psd, Window}, Complex};
/// let tone: Vec<Complex> = (0..1024)
///     .map(|n| Complex::cis(2.0 * std::f64::consts::PI * 0.25 * n as f64))
///     .collect();
/// let psd = welch_psd(&tone, 64, Window::Hann)?;
/// // A quarter-rate tone concentrates its power near f = 0.25.
/// assert!(psd.band_power_fraction(0.20) < 0.1);
/// # Ok::<(), ctc_dsp::psd::PsdError>(())
/// ```
pub fn welch_psd(x: &[Complex], segment_len: usize, window: Window) -> Result<Psd, PsdError> {
    if segment_len < 2 || !segment_len.is_power_of_two() {
        return Err(PsdError::BadSegmentLen { len: segment_len });
    }
    if x.len() < segment_len {
        return Err(PsdError::TooShort);
    }
    let built;
    let win = match window.tables().get(segment_len.trailing_zeros() as usize) {
        Some(table) => table.get_or_init(|| WindowTable::build(window, segment_len)),
        None => {
            built = WindowTable::build(window, segment_len);
            &built
        }
    };
    let hop = segment_len / 2;
    let mut power = vec![0.0f64; segment_len];
    let mut seg = vec![Complex::ZERO; segment_len];
    let mut segments = 0usize;
    let mut start = 0usize;
    while start + segment_len <= x.len() {
        for ((s, v), w) in seg.iter_mut().zip(&x[start..]).zip(&win.coeffs) {
            *s = *v * *w;
        }
        fft_in_place(&mut seg).expect("segment_len validated as power of two");
        for (p, s) in power.iter_mut().zip(&seg) {
            *p += s.norm_sqr() / win.power;
        }
        segments += 1;
        start += hop;
    }
    for p in &mut power {
        *p /= segments as f64;
    }
    Ok(Psd { power, segments })
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
    fn rejects_bad_inputs() {
        assert!(welch_psd(&tone(0.1, 100), 48, Window::Hann).is_err());
        assert!(welch_psd(&tone(0.1, 10), 64, Window::Hann).is_err());
        // One sample has no half-segment hop: the average would never end.
        assert_eq!(
            welch_psd(&tone(0.1, 10), 1, Window::Hann),
            Err(PsdError::BadSegmentLen { len: 1 })
        );
        assert!(welch_psd(&tone(0.1, 10), 0, Window::Hann).is_err());
    }

    /// The estimate as it ran with the window built per call.
    fn welch_per_call(x: &[Complex], segment_len: usize, window: Window) -> Psd {
        let hop = segment_len / 2;
        let win: Vec<f64> = (0..segment_len)
            .map(|i| window.value(i, segment_len))
            .collect();
        let win_power: f64 = win.iter().map(|w| w * w).sum();
        let mut power = vec![0.0f64; segment_len];
        let mut seg = vec![Complex::ZERO; segment_len];
        let mut segments = 0usize;
        let mut start = 0usize;
        while start + segment_len <= x.len() {
            for ((s, v), w) in seg.iter_mut().zip(&x[start..]).zip(&win) {
                *s = *v * *w;
            }
            fft_in_place(&mut seg).unwrap();
            for (p, s) in power.iter_mut().zip(&seg) {
                *p += s.norm_sqr() / win_power;
            }
            segments += 1;
            start += hop;
        }
        for p in &mut power {
            *p /= segments as f64;
        }
        Psd { power, segments }
    }

    #[test]
    fn cached_windows_give_the_per_call_estimates_bits() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for window in [Window::Rectangular, Window::Hann, Window::Hamming] {
            for (segment_len, n) in [(2, 2), (2, 9), (64, 64), (64, 1000), (256, 700)] {
                let x: Vec<Complex> = (0..n)
                    .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                    .collect();
                // Twice: the first call builds the table, the second reads it.
                for _ in 0..2 {
                    let got = welch_psd(&x, segment_len, window).unwrap();
                    let want = welch_per_call(&x, segment_len, window);
                    assert_eq!(got.segments, want.segments);
                    let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got.power),
                        bits(&want.power),
                        "{window:?} {segment_len}"
                    );
                }
            }
        }
    }

    #[test]
    fn tone_peaks_at_right_bin() {
        let psd = welch_psd(&tone(0.125, 2048), 64, Window::Hann).unwrap();
        let peak_bin = psd
            .power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak_bin, 8); // 0.125 * 64
    }

    #[test]
    fn ordered_covers_full_band() {
        let psd = welch_psd(&tone(0.1, 512), 64, Window::Hann).unwrap();
        let ord = psd.ordered();
        assert_eq!(ord.len(), 64);
        assert!((ord[0].0 + 0.5).abs() < 1e-12);
        assert!((ord[63].0 - (31.0 / 64.0)).abs() < 1e-9);
    }

    #[test]
    fn band_power_of_narrowband_signal() {
        let psd = welch_psd(&tone(0.05, 4096), 128, Window::Hann).unwrap();
        assert!(psd.band_power_fraction(0.1) > 0.99);
        assert!(psd.band_power_fraction(0.02) < 0.2);
    }

    #[test]
    fn white_noise_is_flat() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let noise: Vec<Complex> = (0..16384)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let psd = welch_psd(&noise, 64, Window::Hann).unwrap();
        let mean: f64 = psd.power.iter().sum::<f64>() / 64.0;
        for &p in &psd.power {
            assert!((p / mean - 1.0).abs() < 0.5, "bin power {p} vs mean {mean}");
        }
    }

    #[test]
    fn db_rel_peak_zero_at_peak() {
        let psd = welch_psd(&tone(0.25, 1024), 64, Window::Hamming).unwrap();
        let db = psd.db_rel_peak();
        let max = db.iter().copied().fold(f64::MIN, f64::max);
        assert!((max - 0.0).abs() < 1e-12);
    }

    #[test]
    fn windows_evaluate() {
        assert_eq!(Window::Rectangular.value(3, 10), 1.0);
        assert!((Window::Hann.value(0, 64)).abs() < 1e-12);
        assert!((Window::Hamming.value(0, 64) - 0.08).abs() < 1e-12);
        assert_eq!(Window::Hann.value(0, 1), 1.0);
    }

    #[test]
    fn segment_count() {
        let psd = welch_psd(&tone(0.1, 256), 64, Window::Hann).unwrap();
        // 50% overlap: (256-64)/32 + 1 = 7 segments.
        assert_eq!(psd.segments, 7);
    }
}
