//! The CTC waveform-emulation attack pipeline (paper Sec. V).
//!
//! ```text
//! observed ZigBee waveform (4 MHz)
//!   → ×5 interpolation (20 MHz)                      [Sec. V-B1]
//!   → per 80-sample block: drop first 16, 64-FFT     [cyclic prefixing + FFT]
//!   → keep the 7 strongest subcarriers               [two-step selection]
//!   → 64-QAM quantization with optimal alpha         [eq. (4)]
//!   → (optional) invert the WiFi bit chain           [Sec. V-A4 extension]
//!   → 64-IFFT + cyclic prefix per block
//!   = emulated ZigBee waveform (one WiFi symbol per quarter ZigBee symbol)
//! ```

use crate::attack::quantizer::{quantize_points, quantize_points_fixed, QuantizedPoints};
use crate::attack::spectrum::{block_spectra, select_subcarriers, COARSE_THRESHOLD};
use ctc_dsp::resample::interpolate;
use ctc_dsp::Complex;
use ctc_wifi::ofdm::{
    bin_to_subcarrier, data_subcarrier_indices, synthesize_symbol_into, FFT_SIZE, SYMBOL_LEN,
};
use ctc_wifi::qam::NORM_64QAM;
use ctc_wifi::WifiTransmitter;
use ctc_zigbee::frontend::{capture, embed};

/// Where in the WiFi spectrum the ZigBee band is emulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpectralMode {
    /// The paper's simulation setting: the ZigBee waveform stays at baseband
    /// (the RF front-ends handle centre frequencies), so the kept FFT bins
    /// straddle DC — bins 1–4 and 62–64 in the paper's 1-based Table I.
    BasebandAligned,
    /// The deployment setting of Sec. V-A4: the attacker transmits at
    /// 2440 MHz and the ZigBee channel 17 (2435 MHz) falls on data
    /// subcarriers `[-20, -8]`; pilots are inserted as in a real frame.
    CarrierAllocated,
}

/// How the emulated OFDM symbols are synthesized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthesisMode {
    /// IFFT the quantized spectrum directly ("the preprocessing is ignored",
    /// Sec. V-B1).
    RawSpectrum,
    /// Run the attacker's full reverse chain (demap → deinterleave →
    /// closest codeword → descramble) and transmit the recovered bits
    /// through a stock 802.11g chain. Only meaningful with
    /// [`SpectralMode::CarrierAllocated`].
    BitChain,
}

/// Configured waveform-emulation attacker.
///
/// # Examples
///
/// ```
/// use ctc_core::attack::Emulator;
/// use ctc_zigbee::Transmitter;
///
/// let observed = Transmitter::new().transmit_payload(b"00000")?;
/// let emulation = Emulator::new().emulate(&observed);
/// // One WiFi symbol (80 samples at 20 MHz) per 16 observed samples (4 MHz).
/// assert_eq!(emulation.waveform_20mhz.len() % 80, 0);
/// # Ok::<(), ctc_zigbee::frame::FrameError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Emulator {
    spectral_mode: SpectralMode,
    synthesis_mode: SynthesisMode,
    kept_subcarriers: usize,
    fixed_alpha: Option<f64>,
    zigbee_center_hz: f64,
    zigbee_rate_hz: f64,
    wifi: WifiTransmitter,
}

impl Default for Emulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Emulator {
    /// The paper's simulated attacker: baseband-aligned, raw-spectrum
    /// synthesis, threshold 3.0, 7 kept subcarriers, optimized alpha.
    pub fn new() -> Self {
        Emulator {
            spectral_mode: SpectralMode::BasebandAligned,
            synthesis_mode: SynthesisMode::RawSpectrum,
            kept_subcarriers: 7,
            fixed_alpha: None,
            zigbee_center_hz: 2.435e9,
            zigbee_rate_hz: 4.0e6,
            wifi: WifiTransmitter::new(),
        }
    }

    /// Selects the spectral placement.
    pub fn with_spectral_mode(mut self, mode: SpectralMode) -> Self {
        self.spectral_mode = mode;
        self
    }

    /// Selects the synthesis path.
    pub fn with_synthesis_mode(mut self, mode: SynthesisMode) -> Self {
        self.synthesis_mode = mode;
        self
    }

    /// Overrides the number of kept subcarriers (default 7 ≈ 2 MHz).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= count <= 64`.
    pub fn with_kept_subcarriers(mut self, count: usize) -> Self {
        assert!((1..=64).contains(&count), "kept subcarriers in 1..=64");
        self.kept_subcarriers = count;
        self
    }

    /// Uses a fixed QAM scaler instead of the global search (ablation).
    pub fn with_fixed_alpha(mut self, alpha: Option<f64>) -> Self {
        self.fixed_alpha = alpha;
        self
    }

    /// Retargets the victim's centre frequency (for channel-plan sweeps;
    /// the default is the paper's ZigBee channel 17 at 2435 MHz).
    ///
    /// # Panics
    ///
    /// Panics if `center_hz <= 0`.
    pub fn with_zigbee_center_hz(mut self, center_hz: f64) -> Self {
        assert!(center_hz > 0.0, "centre frequency must be positive");
        self.zigbee_center_hz = center_hz;
        self
    }

    /// The victim centre frequency this attacker assumes.
    pub fn zigbee_center_hz(&self) -> f64 {
        self.zigbee_center_hz
    }

    /// Runs the attack on an observed 4 MHz ZigBee waveform.
    ///
    /// The waveform is padded with zeros to a whole number of WiFi-symbol
    /// blocks (16 ZigBee-rate samples each).
    pub fn emulate(&self, observed_4mhz: &[Complex]) -> Emulation {
        let wide = match self.spectral_mode {
            SpectralMode::BasebandAligned => {
                interpolate(observed_4mhz, 5).expect("factor 5 is nonzero")
            }
            SpectralMode::CarrierAllocated => embed(
                observed_4mhz,
                self.zigbee_center_hz,
                self.zigbee_rate_hz,
                self.wifi.center_frequency_hz(),
                self.wifi.sample_rate_hz(),
            )
            .expect("factor 5 is nonzero"),
        };
        self.emulate_wideband(&wide)
    }

    /// Runs the attack on a waveform already expressed at the WiFi rate
    /// (20 MHz) with the ZigBee band at its configured spectral position.
    pub fn emulate_wideband(&self, observed_20mhz: &[Complex]) -> Emulation {
        // Pad to whole WiFi-symbol blocks; borrow directly when already
        // aligned instead of copying the full waveform.
        let padded;
        let wide: &[Complex] = if observed_20mhz.len().is_multiple_of(SYMBOL_LEN) {
            observed_20mhz
        } else {
            let target = (observed_20mhz.len() / SYMBOL_LEN + 1) * SYMBOL_LEN;
            let mut v = Vec::with_capacity(target);
            v.extend_from_slice(observed_20mhz);
            v.resize(target, Complex::ZERO);
            padded = v;
            &padded
        };
        let spectra = block_spectra(wide);
        let kept_bins = select_subcarriers(&spectra, COARSE_THRESHOLD, self.kept_subcarriers);

        // Gather the chosen components of every block and quantize them with
        // one global scaler ("the attacker has to choose a scalar for QAM
        // constellation first").
        let mut chosen: Vec<Complex> = Vec::with_capacity(spectra.len() * kept_bins.len());
        for spec in &spectra {
            for &bin in &kept_bins {
                chosen.push(spec.components[bin]);
            }
        }
        let quantized = if chosen.iter().all(|c| c.norm() < 1e-12) {
            // Degenerate (e.g. all-zero input): nothing to emulate.
            QuantizedPoints {
                alpha: 1.0,
                points: vec![Complex::ZERO; chosen.len()],
                error: 0.0,
            }
        } else {
            match self.fixed_alpha {
                Some(a) => quantize_points_fixed(&chosen, a),
                None => quantize_points(&chosen, None),
            }
        };

        match self.synthesis_mode {
            SynthesisMode::RawSpectrum => self.synthesize_raw(&spectra, &kept_bins, &quantized),
            SynthesisMode::BitChain => self.synthesize_bitchain(&spectra, &kept_bins, &quantized),
        }
    }

    fn synthesize_raw(
        &self,
        spectra: &[crate::attack::spectrum::BlockSpectrum],
        kept_bins: &[usize],
        quantized: &QuantizedPoints,
    ) -> Emulation {
        let mut wave = Vec::with_capacity(spectra.len() * SYMBOL_LEN);
        let mut spectrum = [Complex::ZERO; FFT_SIZE];
        for (b, _) in spectra.iter().enumerate() {
            spectrum.fill(Complex::ZERO);
            for (j, &bin) in kept_bins.iter().enumerate() {
                spectrum[bin] = quantized.points[b * kept_bins.len() + j];
            }
            synthesize_symbol_into(&spectrum, &mut wave);
        }
        Emulation {
            waveform_20mhz: wave,
            kept_bins: kept_bins.to_vec(),
            alpha: quantized.alpha,
            quantization_error: quantized.error,
            codeword_distance: None,
            wifi_data_bits: None,
            spectral_mode: self.spectral_mode,
        }
    }

    fn synthesize_bitchain(
        &self,
        spectra: &[crate::attack::spectrum::BlockSpectrum],
        kept_bins: &[usize],
        quantized: &QuantizedPoints,
    ) -> Emulation {
        // Express desired points on the normalized 64-QAM grid: the
        // quantized values are alpha * k, the mapper expects NORM_64QAM * k.
        let rescale = NORM_64QAM / quantized.alpha;
        let data_idx = data_subcarrier_indices();
        let mut desired = Vec::with_capacity(spectra.len() * data_idx.len());
        for b in 0..spectra.len() {
            let mut per_symbol = vec![Complex::ZERO; data_idx.len()];
            for (j, &bin) in kept_bins.iter().enumerate() {
                let sc = bin_to_subcarrier(bin);
                if let Some(pos) = data_idx.iter().position(|&k| k == sc) {
                    per_symbol[pos] = quantized.points[b * kept_bins.len() + j] * rescale;
                }
            }
            desired.extend(per_symbol);
        }
        let recovered = self.wifi.recover_bits_for_points(&desired);
        let wave = self.wifi.transmit_bits(&recovered.data_bits);
        Emulation {
            waveform_20mhz: wave,
            kept_bins: kept_bins.to_vec(),
            alpha: quantized.alpha,
            quantization_error: quantized.error,
            codeword_distance: Some(recovered.codeword_distance),
            wifi_data_bits: Some(recovered.data_bits),
            spectral_mode: self.spectral_mode,
        }
    }

    /// What the ZigBee receiver's 2 MHz front-end captures of the emulated
    /// transmission, back at 4 MHz.
    pub fn received_at_zigbee(&self, emulation: &Emulation) -> Vec<Complex> {
        let (in_center, out_center) = match emulation.spectral_mode {
            SpectralMode::BasebandAligned => (self.zigbee_center_hz, self.zigbee_center_hz),
            SpectralMode::CarrierAllocated => {
                (self.wifi.center_frequency_hz(), self.zigbee_center_hz)
            }
        };
        capture(
            &emulation.waveform_20mhz,
            in_center,
            self.wifi.sample_rate_hz(),
            out_center,
            self.zigbee_rate_hz,
        )
        .expect("factor 5 is nonzero")
    }
}

/// Output of one emulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Emulation {
    /// The emulated waveform at the WiFi sample rate (what the attacker's
    /// radio transmits).
    pub waveform_20mhz: Vec<Complex>,
    /// FFT bins the attack kept.
    pub kept_bins: Vec<usize>,
    /// Optimized (or fixed) QAM scaler.
    pub alpha: f64,
    /// Total frequency-domain quantization error (eq. (2) energy).
    pub quantization_error: f64,
    /// Hamming gap to the nearest codeword (bit-chain mode only).
    pub codeword_distance: Option<u32>,
    /// Recovered WiFi MAC bits (bit-chain mode only).
    pub wifi_data_bits: Option<Vec<u8>>,
    /// Spectral mode the emulation was produced under.
    pub spectral_mode: SpectralMode,
}

impl Emulation {
    /// Number of WiFi symbols in the emulated waveform.
    pub fn wifi_symbol_count(&self) -> usize {
        self.waveform_20mhz.len() / SYMBOL_LEN
    }
}

/// Convenience: which logical (signed) subcarrier indexes were kept.
pub fn kept_subcarrier_indices(emulation: &Emulation) -> Vec<i32> {
    emulation
        .kept_bins
        .iter()
        .map(|&b| bin_to_subcarrier(b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_dsp::metrics::{correlation, normalize_power};
    use ctc_zigbee::{Receiver, Transmitter};

    fn observed(payload: &[u8]) -> Vec<Complex> {
        Transmitter::new().transmit_payload(payload).unwrap()
    }

    #[test]
    fn emulation_produces_whole_wifi_symbols() {
        let em = Emulator::new().emulate(&observed(b"00000"));
        assert_eq!(em.waveform_20mhz.len() % SYMBOL_LEN, 0);
        assert!(em.wifi_symbol_count() > 0);
        assert_eq!(em.kept_bins.len(), 7);
    }

    #[test]
    fn every_emulated_block_has_cyclic_prefix() {
        let em = Emulator::new().emulate(&observed(b"77"));
        for sym in em.waveform_20mhz.chunks(SYMBOL_LEN) {
            for i in 0..16 {
                assert!((sym[i] - sym[64 + i]).norm() < 1e-9, "CP broken at {i}");
            }
        }
    }

    #[test]
    fn emulated_waveform_resembles_original() {
        // Fig. 5: the emulation is near-perfect except the first 0.8 µs of
        // every 4 µs block (the cyclic prefix). Check the body samples
        // (block positions >= 0.8 µs = 4 of 16 samples at 4 MHz) correlate
        // strongly, and that the CP region is the dominant error source.
        let orig = observed(b"00000");
        let emu = Emulator::new();
        let em = emu.emulate(&orig);
        let back = emu.received_at_zigbee(&em);
        let n = orig.len().min(back.len());
        let a = normalize_power(&orig[..n]);
        let b = normalize_power(&back[..n]);
        let body_idx: Vec<usize> = (64..n - 64).filter(|i| i % 16 >= 4).collect();
        let body_a: Vec<Complex> = body_idx.iter().map(|&i| a[i]).collect();
        let body_b: Vec<Complex> = body_idx.iter().map(|&i| b[i]).collect();
        let c_body = correlation(&body_a, &body_b);
        assert!(c_body > 0.9, "body correlation {c_body}");

        let mut cp_err = 0.0;
        let mut cp_n = 0usize;
        let mut body_err = 0.0;
        let mut body_n = 0usize;
        for i in 64..n - 64 {
            let e = (a[i] - b[i]).norm_sqr();
            if i % 16 < 4 {
                cp_err += e;
                cp_n += 1;
            } else {
                body_err += e;
                body_n += 1;
            }
        }
        let cp_rmse = (cp_err / cp_n as f64).sqrt();
        let body_rmse = (body_err / body_n as f64).sqrt();
        assert!(
            cp_rmse > 3.0 * body_rmse,
            "CP region should dominate the error: cp {cp_rmse} body {body_rmse}"
        );
    }

    #[test]
    fn emulated_waveform_decodes_at_zigbee_receiver() {
        // The headline claim: the emulated waveform passes ZigBee detection
        // and decoding (noiseless here; Table II adds AWGN).
        let emu = Emulator::new();
        let em = emu.emulate(&observed(b"00000"));
        let back = emu.received_at_zigbee(&em);
        let r = Receiver::usrp().receive(&back);
        assert_eq!(
            r.payload(),
            Some(&b"00000"[..]),
            "distances {:?}",
            r.hamming_distances
        );
    }

    #[test]
    fn chip_errors_stay_under_dsss_threshold() {
        // Fig. 7: emulated waveforms produce some chip errors per symbol but
        // all below the correlation threshold of 10.
        let emu = Emulator::new();
        let em = emu.emulate(&observed(b"00017"));
        let back = emu.received_at_zigbee(&em);
        let r = Receiver::usrp().receive(&back);
        let max_d = r.hamming_distances.iter().max().copied().unwrap_or(0);
        let nonzero = r.hamming_distances.iter().filter(|&&d| d > 0).count();
        assert!(max_d <= 10, "chip errors exceed threshold: {max_d}");
        assert!(nonzero > 0, "emulation should not be chip-perfect");
    }

    #[test]
    fn carrier_allocated_mode_also_decodes() {
        let emu = Emulator::new().with_spectral_mode(SpectralMode::CarrierAllocated);
        let em = emu.emulate(&observed(b"00000"));
        // Kept bins must sit in the data-subcarrier region around -16.
        for &b in &em.kept_bins {
            let sc = bin_to_subcarrier(b);
            assert!(
                (-22..=-10).contains(&sc),
                "bin {b} (subcarrier {sc}) off target"
            );
        }
        let back = emu.received_at_zigbee(&em);
        let r = Receiver::usrp().receive(&back);
        assert_eq!(r.payload(), Some(&b"00000"[..]));
    }

    #[test]
    fn quantization_error_positive_and_alpha_found() {
        let em = Emulator::new().emulate(&observed(b"55555"));
        assert!(em.alpha > 0.0);
        assert!(em.quantization_error > 0.0);
        assert!(em.codeword_distance.is_none());
    }

    #[test]
    fn fixed_alpha_never_beats_optimal() {
        let orig = observed(b"123");
        let opt = Emulator::new().emulate(&orig);
        let fixed = Emulator::new()
            .with_fixed_alpha(Some(opt.alpha * 3.0))
            .emulate(&orig);
        assert!(opt.quantization_error <= fixed.quantization_error + 1e-9);
    }

    #[test]
    fn fewer_subcarriers_more_error() {
        let orig = observed(b"999");
        let seven = Emulator::new().emulate(&orig);
        let three = Emulator::new().with_kept_subcarriers(3).emulate(&orig);
        // Less spectrum kept -> worse time-domain fidelity at the receiver.
        let emu7 = Emulator::new();
        let emu3 = Emulator::new().with_kept_subcarriers(3);
        let b7 = emu7.received_at_zigbee(&seven);
        let b3 = emu3.received_at_zigbee(&three);
        let n = orig.len().min(b7.len()).min(b3.len());
        let a = normalize_power(&orig[..n]);
        let c7 = correlation(&a[64..n - 64], &normalize_power(&b7[..n])[64..n - 64]);
        let c3 = correlation(&a[64..n - 64], &normalize_power(&b3[..n])[64..n - 64]);
        assert!(c7 > c3, "7 bins ({c7}) should beat 3 bins ({c3})");
    }

    #[test]
    fn all_zero_input_produces_silence() {
        let em = Emulator::new().emulate(&vec![Complex::ZERO; 64]);
        assert!(em.waveform_20mhz.iter().all(|v| v.norm() < 1e-12));
    }
}
