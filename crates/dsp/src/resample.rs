//! Integer-factor interpolation and decimation.
//!
//! The attacker records the ZigBee waveform at 4 MHz and must re-express it
//! at the WiFi sample rate of 20 MHz — "we interpolate the ZigBee waveform
//! with parameter 5, creating 80 points in each WiFi symbol duration"
//! (Sec. V-B1). The ZigBee receiver then consumes the 20 MHz emulated
//! waveform through a 2 MHz front-end, i.e. low-pass + decimate by 5.

use crate::complex::Complex;
use crate::filter::Fir;

/// Error for zero resampling factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroFactorError;

impl std::fmt::Display for ZeroFactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "resampling factor must be nonzero")
    }
}

impl std::error::Error for ZeroFactorError {}

/// Upsamples by an integer `factor` using zero-stuffing followed by an
/// anti-imaging low-pass (windowed sinc, gain `factor`).
///
/// The output has `x.len() * factor` samples and preserves the signal's
/// shape: `interpolate(x, 1) == x`.
///
/// # Errors
///
/// Returns [`ZeroFactorError`] when `factor == 0`.
///
/// # Examples
///
/// ```
/// use ctc_dsp::{resample::interpolate, Complex};
/// let x = vec![Complex::ONE; 16];
/// let y = interpolate(&x, 5)?;
/// assert_eq!(y.len(), 80);
/// # Ok::<(), ctc_dsp::resample::ZeroFactorError>(())
/// ```
pub fn interpolate(x: &[Complex], factor: usize) -> Result<Vec<Complex>, ZeroFactorError> {
    if factor == 0 {
        return Err(ZeroFactorError);
    }
    if factor == 1 || x.is_empty() {
        return Ok(x.to_vec());
    }
    let mut stuffed = vec![Complex::ZERO; x.len() * factor];
    for (i, &v) in x.iter().enumerate() {
        stuffed[i * factor] = v;
    }
    // Anti-imaging filter: cutoff at 1/(2*factor) of the new rate, gain
    // `factor` to compensate zero-stuffing.
    let taps = (16 * factor + 1).max(65);
    let mut out = Fir::low_pass(0.5 / factor as f64, taps).filter(&stuffed);
    let gain = factor as f64;
    for v in &mut out {
        *v *= gain;
    }
    Ok(out)
}

/// Downsamples by an integer `factor` with an anti-alias low-pass first.
///
/// Models a narrowband receiver front-end digesting a wideband signal: only
/// the band `|f| < fs/(2*factor)` survives. Output length is
/// `ceil(x.len() / factor)`.
///
/// # Errors
///
/// Returns [`ZeroFactorError`] when `factor == 0`.
pub fn decimate(x: &[Complex], factor: usize) -> Result<Vec<Complex>, ZeroFactorError> {
    if factor == 0 {
        return Err(ZeroFactorError);
    }
    if factor == 1 {
        return Ok(x.to_vec());
    }
    let taps = (8 * factor + 1).max(33);
    let filtered = Fir::low_pass(0.5 / factor as f64, taps).filter(x);
    Ok(filtered.into_iter().step_by(factor).collect())
}

/// Downsamples without filtering (pure sample dropping).
///
/// Useful when the input is already band-limited — e.g. picking chip-center
/// samples out of an oversampled chip waveform.
pub fn downsample(x: &[Complex], factor: usize) -> Result<Vec<Complex>, ZeroFactorError> {
    if factor == 0 {
        return Err(ZeroFactorError);
    }
    Ok(x.iter().step_by(factor).copied().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_factor_rejected() {
        assert!(interpolate(&[Complex::ONE], 0).is_err());
        assert!(decimate(&[Complex::ONE], 0).is_err());
        assert!(downsample(&[Complex::ONE], 0).is_err());
    }

    #[test]
    fn factor_one_is_identity() {
        let x = vec![Complex::new(1.0, 2.0), Complex::new(-0.5, 0.25)];
        assert_eq!(interpolate(&x, 1).unwrap(), x);
        assert_eq!(decimate(&x, 1).unwrap(), x);
    }

    #[test]
    fn interpolate_length() {
        let x = vec![Complex::ONE; 64];
        assert_eq!(interpolate(&x, 5).unwrap().len(), 320);
    }

    #[test]
    fn decimate_length() {
        let x = vec![Complex::ONE; 320];
        assert_eq!(decimate(&x, 5).unwrap().len(), 64);
    }

    #[test]
    fn dc_preserved_through_interpolation() {
        let x = vec![Complex::new(1.0, -0.5); 64];
        let y = interpolate(&x, 5).unwrap();
        // Away from edges the DC level must be preserved (gain compensated).
        // Hamming-window designs have ~0.2% passband ripple; that is far
        // below the distortions the attack itself introduces.
        for v in &y[80..240] {
            assert!((*v - x[0]).norm() < 5e-3, "got {v}");
        }
    }

    #[test]
    fn tone_preserved_through_round_trip() {
        // A tone at 1/16 cycles/sample survives x5 up + x5 down.
        let n = 256;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * t as f64 / 16.0))
            .collect();
        let up = interpolate(&x, 5).unwrap();
        let down = decimate(&up, 5).unwrap();
        // Compare mid-section (edges have filter transients).
        let mut err = 0.0;
        let mut count = 0;
        for i in 64..192 {
            err += (down[i] - x[i]).norm_sqr();
            count += 1;
        }
        let rmse = (err / count as f64).sqrt();
        assert!(rmse < 0.02, "round-trip rmse too high: {rmse}");
    }

    #[test]
    fn decimate_kills_out_of_band_tone() {
        // Tone at 0.3 cycles/sample is outside the 0.1 cutoff for factor 5.
        let n = 500;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * 0.3 * t as f64))
            .collect();
        let y = decimate(&x, 5).unwrap();
        let power: f64 = y[20..80].iter().map(|v| v.norm_sqr()).sum::<f64>() / 60.0;
        assert!(power < 1e-3, "out-of-band tone leaked: {power}");
    }

    #[test]
    fn downsample_picks_every_kth() {
        let x: Vec<Complex> = (0..10).map(|i| Complex::from_re(i as f64)).collect();
        let y = downsample(&x, 3).unwrap();
        assert_eq!(
            y,
            vec![
                Complex::from_re(0.0),
                Complex::from_re(3.0),
                Complex::from_re(6.0),
                Complex::from_re(9.0)
            ]
        );
    }

    proptest! {
        #[test]
        fn interpolation_length_always_scales(len in 1usize..100, factor in 1usize..8) {
            let x = vec![Complex::ONE; len];
            let y = interpolate(&x, factor).unwrap();
            prop_assert_eq!(y.len(), len * factor);
        }

        #[test]
        fn empty_inputs_stay_empty(factor in 1usize..8) {
            prop_assert!(interpolate(&[], factor).unwrap().is_empty());
            prop_assert!(decimate(&[], factor).unwrap().is_empty());
        }
    }
}
