//! A stealthier attacker: least-squares emulation over the *whole* WiFi
//! symbol, cyclic prefix included (extension beyond the paper).
//!
//! The paper's attacker FFTs the last 64 samples of each 80-sample block,
//! accepting that the transmitted cyclic prefix (a copy of the block tail)
//! replaces the first 0.8 µs of the real waveform — the largest distortion
//! the defense feeds on (Fig. 5, and the 4–8 chip errors of Fig. 7).
//!
//! But the CP constraint is *linear*: the transmitted block is
//! `s(n) = sum_k X_k φ_k(n)` where `φ_k` is the CP-extended IFFT basis of
//! subcarrier `k`. Choosing the kept coefficients to minimize
//! `sum_{n=0}^{79} |s(n) - z(n)|²` (all 80 samples, not just the body) is a
//! tiny complex least-squares problem per block. The arms-race experiment
//! measures how much of the defense's margin this recovers — and shows the
//! detector still wins, because the quantization error and the 7-subcarrier
//! truncation remain.

use crate::attack::quantizer::{quantize_points, quantize_points_fixed, QuantizedPoints};
use crate::attack::spectrum::{block_spectra, select_subcarriers, COARSE_THRESHOLD};
use ctc_dsp::linalg::Matrix;
use ctc_dsp::Complex;
use ctc_wifi::ofdm::{synthesize_symbol, CP_LEN, FFT_SIZE, SYMBOL_LEN};

/// Builds the 80×K basis matrix mapping kept-subcarrier coefficients to the
/// CP-extended time-domain block.
fn cp_extended_basis(kept_bins: &[usize]) -> Matrix {
    Matrix::from_fn(SYMBOL_LEN, kept_bins.len(), |n, j| {
        let k = kept_bins[j] as f64;
        // Body sample index this output sample reproduces: CP copies the
        // last CP_LEN body samples.
        let body_n = if n < CP_LEN {
            (FFT_SIZE - CP_LEN + n) as f64
        } else {
            (n - CP_LEN) as f64
        };
        Complex::cis(2.0 * std::f64::consts::PI * k * body_n / FFT_SIZE as f64) / FFT_SIZE as f64
    })
}

/// Configuration of the least-squares attacker.
#[derive(Debug, Clone, PartialEq)]
pub struct LeastSquaresEmulator {
    kept_subcarriers: usize,
    fixed_alpha: Option<f64>,
}

impl Default for LeastSquaresEmulator {
    fn default() -> Self {
        Self::new()
    }
}

impl LeastSquaresEmulator {
    /// Defaults matching [`crate::attack::Emulator::new`]: threshold 3.0,
    /// 7 kept subcarriers, optimized alpha.
    pub fn new() -> Self {
        LeastSquaresEmulator {
            kept_subcarriers: 7,
            fixed_alpha: None,
        }
    }

    /// Overrides the number of kept subcarriers.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= count <= 64`.
    pub fn with_kept_subcarriers(mut self, count: usize) -> Self {
        assert!((1..=64).contains(&count), "kept subcarriers in 1..=64");
        self.kept_subcarriers = count;
        self
    }

    /// Uses a fixed QAM scaler instead of the global search.
    pub fn with_fixed_alpha(mut self, alpha: Option<f64>) -> Self {
        self.fixed_alpha = alpha;
        self
    }

    /// Runs the stealthier attack on a 20 MHz waveform (the ZigBee
    /// recording after ×5 interpolation, as produced inside
    /// [`crate::attack::Emulator::emulate`]).
    ///
    /// Returns the emulated 20 MHz waveform plus the quantizer diagnostics.
    pub fn emulate_wideband(&self, observed_20mhz: &[Complex]) -> LeastSquaresEmulation {
        let mut wide = observed_20mhz.to_vec();
        while !wide.len().is_multiple_of(SYMBOL_LEN) {
            wide.push(Complex::ZERO);
        }
        // Subcarrier selection identical to the baseline attack so the two
        // are comparable.
        let spectra = block_spectra(&wide);
        let kept_bins = select_subcarriers(&spectra, COARSE_THRESHOLD, self.kept_subcarriers);
        let basis = cp_extended_basis(&kept_bins);

        // Per-block least-squares fit of the kept coefficients.
        let mut coefficients: Vec<Complex> =
            Vec::with_capacity(wide.len() / SYMBOL_LEN * kept_bins.len());
        for block in wide.chunks(SYMBOL_LEN) {
            let x = basis
                .least_squares(block)
                .expect("CP-extended Fourier columns are independent");
            coefficients.extend(x);
        }

        // Quantize all coefficients with one global scaler, like the
        // baseline.
        let quantized: QuantizedPoints = if coefficients.iter().all(|c| c.norm() < 1e-12) {
            QuantizedPoints {
                alpha: 1.0,
                points: vec![Complex::ZERO; coefficients.len()],
                error: 0.0,
            }
        } else {
            match self.fixed_alpha {
                Some(a) => quantize_points_fixed(&coefficients, a),
                None => quantize_points(&coefficients, None),
            }
        };

        // Synthesize.
        let blocks = wide.len() / SYMBOL_LEN;
        let mut wave = Vec::with_capacity(wide.len());
        for b in 0..blocks {
            let mut spectrum = vec![Complex::ZERO; FFT_SIZE];
            for (j, &bin) in kept_bins.iter().enumerate() {
                spectrum[bin] = quantized.points[b * kept_bins.len() + j];
            }
            wave.extend(synthesize_symbol(&spectrum));
        }
        LeastSquaresEmulation {
            waveform_20mhz: wave,
            kept_bins,
            alpha: quantized.alpha,
            quantization_error: quantized.error,
        }
    }

    /// Convenience: full pipeline from the 4 MHz recording, mirroring
    /// [`crate::attack::Emulator::emulate`] in baseband-aligned mode.
    pub fn emulate(&self, observed_4mhz: &[Complex]) -> LeastSquaresEmulation {
        let wide = ctc_dsp::resample::interpolate(observed_4mhz, 5).expect("factor 5");
        self.emulate_wideband(&wide)
    }

    /// The ZigBee front-end's view of the emulated waveform
    /// (baseband-aligned mode).
    pub fn received_at_zigbee(&self, emulation: &LeastSquaresEmulation) -> Vec<Complex> {
        ctc_dsp::resample::decimate(&emulation.waveform_20mhz, 5).expect("factor 5")
    }
}

/// Output of the least-squares attack.
#[derive(Debug, Clone, PartialEq)]
pub struct LeastSquaresEmulation {
    /// Emulated waveform at 20 MHz.
    pub waveform_20mhz: Vec<Complex>,
    /// Kept FFT bins.
    pub kept_bins: Vec<usize>,
    /// QAM scaler used.
    pub alpha: f64,
    /// Total quantization error.
    pub quantization_error: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::Emulator;
    use crate::defense::features_from_reception;
    use ctc_dsp::metrics::{normalize_power, rms_error};
    use ctc_zigbee::{Receiver, Transmitter};

    fn observed() -> Vec<Complex> {
        Transmitter::new().transmit_payload(b"00000").unwrap()
    }

    #[test]
    fn basis_columns_respect_cp_structure() {
        let basis = cp_extended_basis(&[0, 1, 5, 63]);
        for j in 0..4 {
            for n in 0..CP_LEN {
                let cp = basis[(n, j)];
                let tail = basis[(FFT_SIZE - CP_LEN + n + CP_LEN, j)];
                assert!((cp - tail).norm() < 1e-12, "CP copy broken at ({n},{j})");
            }
        }
    }

    #[test]
    fn ls_attack_still_decodes() {
        let emu = LeastSquaresEmulator::new();
        let em = emu.emulate(&observed());
        let back = emu.received_at_zigbee(&em);
        let r = Receiver::usrp().receive(&back);
        assert_eq!(r.payload(), Some(&b"00000"[..]));
    }

    #[test]
    fn ls_attack_reduces_cp_region_error() {
        let orig = observed();
        let baseline = Emulator::new();
        let b_em = baseline.emulate(&orig);
        let b_back = baseline.received_at_zigbee(&b_em);

        let ls = LeastSquaresEmulator::new();
        let l_em = ls.emulate(&orig);
        let l_back = ls.received_at_zigbee(&l_em);

        let n = orig.len().min(b_back.len()).min(l_back.len());
        let a = normalize_power(&orig[..n]);
        let b = normalize_power(&b_back[..n]);
        let l = normalize_power(&l_back[..n]);
        // Compare CP-region samples only (block positions 0..4 of 16).
        let idx: Vec<usize> = (64..n - 64).filter(|i| i % 16 < 4).collect();
        let pick = |w: &[Complex]| idx.iter().map(|&i| w[i]).collect::<Vec<_>>();
        let base_err = rms_error(&pick(&a), &pick(&b));
        let ls_err = rms_error(&pick(&a), &pick(&l));
        assert!(
            ls_err < base_err * 0.8,
            "LS should cut CP-region error: baseline {base_err}, LS {ls_err}"
        );
    }

    #[test]
    fn ls_attack_lowers_detection_statistic_but_not_below_gap() {
        let orig = observed();
        let baseline = Emulator::new();
        let b_back = baseline.received_at_zigbee(&baseline.emulate(&orig));
        let ls = LeastSquaresEmulator::new();
        let l_back = ls.received_at_zigbee(&ls.emulate(&orig));

        let rx = Receiver::usrp();
        let base_de = features_from_reception(&rx.receive(&b_back))
            .unwrap()
            .de_squared_ideal();
        let ls_de = features_from_reception(&rx.receive(&l_back))
            .unwrap()
            .de_squared_ideal();
        let zig_de = features_from_reception(&rx.receive(&orig))
            .unwrap()
            .de_squared_ideal();
        assert!(
            ls_de < base_de,
            "LS attack should be stealthier: {ls_de} vs baseline {base_de}"
        );
        assert!(
            ls_de > zig_de * 5.0,
            "but still detectable: LS {ls_de} vs authentic {zig_de}"
        );
    }

    #[test]
    fn kept_bins_match_baseline_attack() {
        let orig = observed();
        let b = Emulator::new().emulate(&orig);
        let l = LeastSquaresEmulator::new().emulate(&orig);
        assert_eq!(b.kept_bins, l.kept_bins);
    }

    #[test]
    fn zero_input_is_silent() {
        let em = LeastSquaresEmulator::new().emulate(&vec![Complex::ZERO; 64]);
        assert!(em.waveform_20mhz.iter().all(|v| v.norm() < 1e-12));
    }
}
