//! Additive white Gaussian noise.
//!
//! The paper's simulations normalize transmit power and define
//! `SNR = 1 / sigma^2` (Sec. VII-B), i.e. `sigma^2` is the *total* complex
//! noise variance. [`awgn`] follows that convention exactly: for a
//! unit-power waveform and `snr_db`, the added complex noise has
//! `E[|n|^2] = 10^(-snr_db/10)`.

use ctc_dsp::Complex;
use rand::Rng;

/// Draws one standard Gaussian via Box–Muller.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = ctc_channel::noise::standard_gaussian(&mut rng);
/// assert!(x.is_finite());
/// ```
pub fn standard_gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a circularly-symmetric complex Gaussian with total variance
/// `variance` (`E[|n|^2] = variance`, split evenly between I and Q).
pub fn complex_gaussian<R: Rng>(rng: &mut R, variance: f64) -> Complex {
    let s = (variance / 2.0).sqrt();
    Complex::new(s * standard_gaussian(rng), s * standard_gaussian(rng))
}

/// Adds AWGN at the given SNR (dB) assuming the input waveform has unit mean
/// power; the paper's `SNR = 1/sigma^2` convention.
///
/// For non-unit-power inputs use [`awgn_measured`], which measures the
/// input's power first.
pub fn awgn<R: Rng>(x: &[Complex], snr_db: f64, rng: &mut R) -> Vec<Complex> {
    add_noise(x, 10f64.powf(-snr_db / 10.0), rng)
}

/// Adds AWGN at the given SNR relative to the *measured* mean power of `x`.
///
/// Returns `x` unchanged when it has zero power (nothing to scale noise to).
pub fn awgn_measured<R: Rng>(x: &[Complex], snr_db: f64, rng: &mut R) -> Vec<Complex> {
    let p = ctc_dsp::metrics::mean_power(x);
    if p <= 0.0 {
        return x.to_vec();
    }
    add_noise(x, p * 10f64.powf(-snr_db / 10.0), rng)
}

/// `x` plus one complex Gaussian draw of total variance `sigma2` per
/// sample, drawn in sample order.
fn add_noise<R: Rng>(x: &[Complex], sigma2: f64, rng: &mut R) -> Vec<Complex> {
    x.iter()
        .map(|&v| v + complex_gaussian(rng, sigma2))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_dsp::metrics::mean_power;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn complex_gaussian_variance() {
        let mut rng = StdRng::seed_from_u64(12);
        let n = 100_000;
        let var = 0.25;
        let p = (0..n)
            .map(|_| complex_gaussian(&mut rng, var).norm_sqr())
            .sum::<f64>()
            / n as f64;
        assert!((p - var).abs() < 0.01, "power {p}");
    }

    #[test]
    fn awgn_snr_convention_matches_paper() {
        // Unit-power signal + AWGN at 10 dB -> noise power 0.1.
        let mut rng = StdRng::seed_from_u64(13);
        let x = vec![Complex::ONE; 50_000];
        let y = awgn(&x, 10.0, &mut rng);
        let noise_power = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (*b - *a).norm_sqr())
            .sum::<f64>()
            / x.len() as f64;
        assert!(
            (noise_power - 0.1).abs() < 0.01,
            "noise power {noise_power}"
        );
    }

    #[test]
    fn awgn_measured_adapts_to_signal_power() {
        let mut rng = StdRng::seed_from_u64(14);
        let x = vec![Complex::new(3.0, 0.0); 50_000]; // power 9
        let y = awgn_measured(&x, 0.0, &mut rng); // SNR 0 dB -> noise power 9
        let noise_power = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (*b - *a).norm_sqr())
            .sum::<f64>()
            / x.len() as f64;
        assert!((noise_power - 9.0).abs() < 0.5, "noise power {noise_power}");
        // Zero-power input passes through.
        let z = awgn_measured(&[Complex::ZERO; 4], 0.0, &mut rng);
        assert!(z.iter().all(|v| *v == Complex::ZERO));
    }

    #[test]
    fn high_snr_barely_perturbs() {
        let mut rng = StdRng::seed_from_u64(15);
        let x = vec![Complex::ONE; 1000];
        let y = awgn(&x, 60.0, &mut rng);
        let p = mean_power(&x.iter().zip(&y).map(|(a, b)| *b - *a).collect::<Vec<_>>());
        assert!(p < 2e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let x = vec![Complex::ONE; 16];
        let a = awgn(&x, 5.0, &mut StdRng::seed_from_u64(7));
        let b = awgn(&x, 5.0, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
