//! Narrowband receiver front-end.
//!
//! A ZigBee receiver digitizes only its own 2 MHz channel. When the incident
//! waveform is the attacker's 20 MHz WiFi emulation, the front-end
//! (down-conversion to the ZigBee centre frequency, channel-select low-pass,
//! decimation to 4 MHz) keeps at most 7 OFDM subcarriers' worth of it —
//! the information loss at the heart of the paper's Sec. V-A1 "FFT"
//! challenge.

use ctc_dsp::filter::frequency_shift_in_place;
use ctc_dsp::resample::{decimate, ZeroFactorError};
use ctc_dsp::Complex;

/// Converts a wideband waveform (sample rate `in_rate_hz`, centred at
/// `in_center_hz`) into what a ZigBee front-end centred at `out_center_hz`
/// sampling at `out_rate_hz` would capture.
///
/// `in_rate_hz` must be an integer multiple of `out_rate_hz`; the
/// anti-alias low-pass inside [`decimate`] models the 2 MHz channel filter.
///
/// # Errors
///
/// Returns [`ZeroFactorError`] if the rate ratio rounds to zero.
///
/// # Panics
///
/// Panics if `in_rate_hz` is not an integer multiple of `out_rate_hz`.
///
/// # Examples
///
/// ```
/// use ctc_zigbee::frontend::capture;
/// use ctc_dsp::Complex;
/// // WiFi at 2440 MHz / 20 MHz -> ZigBee channel 17 at 2435 MHz / 4 MHz.
/// let wifi = vec![Complex::ONE; 400];
/// let zig = capture(&wifi, 2.44e9, 20.0e6, 2.435e9, 4.0e6)?;
/// assert_eq!(zig.len(), 80);
/// # Ok::<(), ctc_dsp::resample::ZeroFactorError>(())
/// ```
pub fn capture(
    wave: &[Complex],
    in_center_hz: f64,
    in_rate_hz: f64,
    out_center_hz: f64,
    out_rate_hz: f64,
) -> Result<Vec<Complex>, ZeroFactorError> {
    let ratio = in_rate_hz / out_rate_hz;
    let factor = ratio.round() as usize;
    assert!(
        (ratio - factor as f64).abs() < 1e-9,
        "sample-rate ratio must be an integer, got {ratio}"
    );
    // Shift the target channel to DC: a signal at (out_center - in_center)
    // relative to the wideband centre must move down by that amount. When
    // the centres already coincide (baseband-aligned capture) decimate the
    // input directly — no full-waveform copy.
    let offset_hz = out_center_hz - in_center_hz;
    if offset_hz == 0.0 {
        return decimate(wave, factor);
    }
    let mut shifted = wave.to_vec();
    frequency_shift_in_place(&mut shifted, -offset_hz / in_rate_hz);
    decimate(&shifted, factor)
}

/// The reverse of [`capture`] for the attacker side: express a narrowband
/// ZigBee waveform in the wideband WiFi baseband (interpolate + shift so the
/// ZigBee band sits at its real spectral position relative to the WiFi
/// centre).
///
/// # Errors
///
/// Returns [`ZeroFactorError`] if the rate ratio rounds to zero.
///
/// # Panics
///
/// Panics if `out_rate_hz` is not an integer multiple of `in_rate_hz`.
pub fn embed(
    wave: &[Complex],
    in_center_hz: f64,
    in_rate_hz: f64,
    out_center_hz: f64,
    out_rate_hz: f64,
) -> Result<Vec<Complex>, ZeroFactorError> {
    let ratio = out_rate_hz / in_rate_hz;
    let factor = ratio.round() as usize;
    assert!(
        (ratio - factor as f64).abs() < 1e-9,
        "sample-rate ratio must be an integer, got {ratio}"
    );
    let mut up = ctc_dsp::resample::interpolate(wave, factor)?;
    let offset_hz = in_center_hz - out_center_hz;
    if offset_hz != 0.0 {
        frequency_shift_in_place(&mut up, offset_hz / out_rate_hz);
    }
    Ok(up)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transmitter;
    use ctc_dsp::metrics::{correlation, mean_power};

    #[test]
    fn same_center_is_pure_decimation() {
        let x = vec![Complex::ONE; 100];
        let y = capture(&x, 2.44e9, 20.0e6, 2.44e9, 4.0e6).unwrap();
        assert_eq!(y.len(), 20);
        assert!((y[10] - Complex::ONE).norm() < 0.01);
    }

    #[test]
    #[should_panic(expected = "integer")]
    fn non_integer_ratio_panics() {
        let _ = capture(&[Complex::ONE; 10], 0.0, 10.0e6, 0.0, 4.0e6);
    }

    #[test]
    fn zigbee_waveform_survives_embed_capture_roundtrip() {
        // ZigBee ch.17 (2435 MHz) embedded into WiFi baseband (2440 MHz,
        // 20 MHz) and captured back must still correlate strongly.
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(b"0042").unwrap();
        let wide = embed(&wave, 2.435e9, 4.0e6, 2.44e9, 20.0e6).unwrap();
        let back = capture(&wide, 2.44e9, 20.0e6, 2.435e9, 4.0e6).unwrap();
        assert_eq!(back.len(), wave.len());
        // Skip filter edge transients when comparing.
        let n = wave.len();
        let c = correlation(&wave[40..n - 40], &back[40..n - 40]);
        assert!(c > 0.98, "round-trip correlation {c}");
    }

    #[test]
    fn out_of_band_signal_rejected() {
        // A tone at +8 MHz from the WiFi centre is outside the ZigBee channel
        // at -5 MHz; the front-end must crush it.
        let n = 2000;
        let tone: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * 8.0e6 * t as f64 / 20.0e6))
            .collect();
        let captured = capture(&tone, 2.44e9, 20.0e6, 2.435e9, 4.0e6).unwrap();
        let p = mean_power(&captured[50..captured.len() - 50]);
        assert!(p < 1e-3, "out-of-band power leaked: {p}");
    }

    #[test]
    fn in_band_signal_passes() {
        // A tone at -5 MHz from the WiFi centre is exactly the ZigBee centre.
        let n = 2000;
        let tone: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(-2.0 * std::f64::consts::PI * 5.0e6 * t as f64 / 20.0e6))
            .collect();
        let captured = capture(&tone, 2.44e9, 20.0e6, 2.435e9, 4.0e6).unwrap();
        let p = mean_power(&captured[50..captured.len() - 50]);
        assert!((p - 1.0).abs() < 0.05, "in-band tone attenuated: {p}");
    }
}
