//! Second-order moments and fourth-order cumulants of complex samples.
//!
//! These are the higher-order statistics the defense runs on the
//! reconstructed QPSK constellation (paper Sec. VI-B, eqs. (5)–(9)).
//! Sample estimators follow Swami & Sadler, "Hierarchical digital modulation
//! classification using cumulants" (the paper's ref. \[23\]):
//!
//! ```text
//! C20 = E[x^2]            C21 = E[|x|^2]
//! C40 = E[x^4]        - 3 C20^2
//! C41 = E[x^3 x*]     - 3 C20 C21
//! C42 = E[|x|^4]      - |C20|^2 - 2 C21^2
//! ```
//!
//! Normalized variants divide the fourth-order terms by `C21^2`, making the
//! features scale-invariant — essential because "the constellations are not
//! necessarily normalized after decoding at the ZigBee receiver in practice".

use crate::complex::Complex;
use crate::simd;

/// The full set of estimated moments and cumulants for one sample block.
///
/// # Examples
///
/// ```
/// use ctc_dsp::{cumulants::Cumulants, Complex};
/// // A clean axis-aligned QPSK constellation {1, i, -1, -i} has
/// // C40/C21^2 = 1 and C42/C21^2 = -1 (paper Table III).
/// let pts = [
///     Complex::new(1.0, 0.0), Complex::new(0.0, 1.0),
///     Complex::new(-1.0, 0.0), Complex::new(0.0, -1.0),
/// ];
/// let c = Cumulants::estimate(&pts).unwrap();
/// assert!((c.c40_normalized().re - 1.0).abs() < 1e-12);
/// assert!((c.c42_normalized() + 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cumulants {
    c20: Complex,
    c21: f64,
    c40: Complex,
    c41: Complex,
    c42: f64,
    len: usize,
}

/// Error returned when estimating statistics from an empty sample block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptySamplesError;

impl std::fmt::Display for EmptySamplesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cumulant estimation requires at least one sample")
    }
}

impl std::error::Error for EmptySamplesError {}

impl Cumulants {
    /// Estimates all moments/cumulants from a block of complex samples
    /// (paper eqs. (8)–(9)).
    ///
    /// # Errors
    ///
    /// Returns [`EmptySamplesError`] if `samples` is empty.
    pub fn estimate(samples: &[Complex]) -> Result<Self, EmptySamplesError> {
        if samples.is_empty() {
            return Err(EmptySamplesError);
        }
        let d = samples.len() as f64;
        let simd::CumulantSums {
            s2,
            sa2,
            s4,
            s31,
            sa4,
        } = simd::cumulant_sums(samples);
        let c20 = s2 / d;
        let c21 = sa2 / d;
        let c40 = s4 / d - 3.0 * (c20 * c20);
        let c41 = s31 / d - 3.0 * (c20 * c21);
        let c42 = sa4 / d - c20.norm_sqr() - 2.0 * c21 * c21;
        Ok(Cumulants {
            c20,
            c21,
            c40,
            c41,
            c42,
            len: samples.len(),
        })
    }

    /// Second-order moment `C20 = E[x^2]`.
    pub fn c20(&self) -> Complex {
        self.c20
    }

    /// Signal power `C21 = E[|x|^2]`.
    pub fn c21(&self) -> f64 {
        self.c21
    }

    /// Raw fourth-order cumulant `C40`.
    pub fn c40(&self) -> Complex {
        self.c40
    }

    /// Raw fourth-order cumulant `C41`.
    pub fn c41(&self) -> Complex {
        self.c41
    }

    /// Raw fourth-order cumulant `C42` (always real).
    pub fn c42(&self) -> f64 {
        self.c42
    }

    /// Number of samples the estimate was computed from.
    pub fn sample_count(&self) -> usize {
        self.len
    }

    /// Scale-invariant `C40 / C21^2`.
    pub fn c40_normalized(&self) -> Complex {
        self.c40 / (self.c21 * self.c21)
    }

    /// Scale-invariant `C41 / C21^2`.
    pub fn c41_normalized(&self) -> Complex {
        self.c41 / (self.c21 * self.c21)
    }

    /// Scale-invariant `C42 / C21^2`.
    pub fn c42_normalized(&self) -> f64 {
        self.c42 / (self.c21 * self.c21)
    }
}

/// Theoretical cumulant values for common constellations at unit power
/// (`C21 = 1`) — the paper's Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Modulation {
    /// Binary phase-shift keying.
    Bpsk,
    /// Quadrature phase-shift keying (the reconstructed ZigBee constellation).
    Qpsk,
    /// Phase-shift keying with more than four points.
    PskAbove4,
    /// 4-level pulse amplitude modulation.
    Pam4,
    /// 8-level pulse amplitude modulation.
    Pam8,
    /// 16-level pulse amplitude modulation.
    Pam16,
    /// 16-point quadrature amplitude modulation.
    Qam16,
    /// 64-point quadrature amplitude modulation (the WiFi constellation).
    Qam64,
    /// 256-point quadrature amplitude modulation.
    Qam256,
}

impl Modulation {
    /// Theoretical `C20` for `C21 = 1` (Table III, first column).
    pub fn theoretical_c20(self) -> f64 {
        match self {
            Modulation::Bpsk | Modulation::Pam4 | Modulation::Pam8 | Modulation::Pam16 => 1.0,
            _ => 0.0,
        }
    }

    /// Theoretical `C40` for `C21 = 1` (Table III, second column).
    pub fn theoretical_c40(self) -> f64 {
        match self {
            Modulation::Bpsk => -2.0,
            Modulation::Qpsk => 1.0,
            Modulation::PskAbove4 => 0.0,
            Modulation::Pam4 => -1.36,
            Modulation::Pam8 => -1.2381,
            Modulation::Pam16 => -1.2094,
            Modulation::Qam16 => -0.68,
            Modulation::Qam64 => -0.6190,
            Modulation::Qam256 => -0.6047,
        }
    }

    /// Theoretical `C42` for `C21 = 1` (Table III, third column).
    pub fn theoretical_c42(self) -> f64 {
        match self {
            Modulation::Bpsk => -2.0,
            Modulation::Qpsk | Modulation::PskAbove4 => -1.0,
            Modulation::Pam4 => -1.36,
            Modulation::Pam8 => -1.2381,
            Modulation::Pam16 => -1.2094,
            Modulation::Qam16 => -0.68,
            Modulation::Qam64 => -0.6190,
            Modulation::Qam256 => -0.6047,
        }
    }

    /// All table rows, in the paper's order.
    pub fn all() -> [Modulation; 9] {
        [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::PskAbove4,
            Modulation::Pam4,
            Modulation::Pam8,
            Modulation::Pam16,
            Modulation::Qam16,
            Modulation::Qam64,
            Modulation::Qam256,
        ]
    }

    /// Unit-power constellation points for sampling-based verification.
    ///
    /// `PskAbove4` is represented by 8-PSK. The QPSK points are the
    /// axis-aligned set `{1, i, -1, -i}` — the orientation Table III's
    /// `C40 = +1` corresponds to (the pi/4-rotated square `{±1±i}/sqrt(2)`
    /// has `C40 = e^{j pi} = -1`; `|C40|` and `C42` are identical for both).
    pub fn constellation(self) -> Vec<Complex> {
        fn pam(levels: i32) -> Vec<Complex> {
            let pts: Vec<f64> = (0..levels).map(|i| (2 * i - levels + 1) as f64).collect();
            let p = pts.iter().map(|v| v * v).sum::<f64>() / levels as f64;
            pts.iter()
                .map(|&v| Complex::from_re(v / p.sqrt()))
                .collect()
        }
        fn qam(side: i32) -> Vec<Complex> {
            let mut pts = Vec::new();
            for i in 0..side {
                for q in 0..side {
                    pts.push(Complex::new(
                        (2 * i - side + 1) as f64,
                        (2 * q - side + 1) as f64,
                    ));
                }
            }
            let p = pts.iter().map(|v| v.norm_sqr()).sum::<f64>() / pts.len() as f64;
            pts.iter().map(|&v| v / p.sqrt()).collect()
        }
        fn psk(m: usize) -> Vec<Complex> {
            (0..m)
                .map(|k| Complex::cis(2.0 * std::f64::consts::PI * k as f64 / m as f64))
                .collect()
        }
        match self {
            Modulation::Bpsk => vec![Complex::from_re(1.0), Complex::from_re(-1.0)],
            Modulation::Qpsk => psk(4),
            Modulation::PskAbove4 => psk(8),
            Modulation::Pam4 => pam(4),
            Modulation::Pam8 => pam(8),
            Modulation::Pam16 => pam(16),
            Modulation::Qam16 => qam(4),
            Modulation::Qam64 => qam(8),
            Modulation::Qam256 => qam(16),
        }
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::PskAbove4 => "PSK(>4)",
            Modulation::Pam4 => "4-PAM",
            Modulation::Pam8 => "8-PAM",
            Modulation::Pam16 => "16-PAM",
            Modulation::Qam16 => "16-QAM",
            Modulation::Qam64 => "64-QAM",
            Modulation::Qam256 => "256-QAM",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Estimate cumulants over the exact constellation points (each equally
    /// likely), which equals the expectation over the symbol distribution.
    fn exact(m: Modulation) -> Cumulants {
        Cumulants::estimate(&m.constellation()).unwrap()
    }

    #[test]
    fn empty_rejected() {
        assert!(Cumulants::estimate(&[]).is_err());
    }

    #[test]
    fn qpsk_matches_theory() {
        let c = exact(Modulation::Qpsk);
        assert!((c.c21() - 1.0).abs() < 1e-12);
        assert!(c.c20().norm() < 1e-12);
        assert!((c.c40_normalized().re - 1.0).abs() < 1e-9);
        assert!((c.c42_normalized() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_modulations_match_table_iii() {
        for m in Modulation::all() {
            let c = exact(m);
            assert!(
                (c.c21() - 1.0).abs() < 1e-9,
                "{m}: constellation not unit power"
            );
            assert!(
                (c.c20().norm() - m.theoretical_c20().abs()).abs() < 1e-6,
                "{m}: |C20| {} vs theory {}",
                c.c20().norm(),
                m.theoretical_c20()
            );
            // C40 of QPSK with pi/4 rotation is real; BPSK/PAM real; QAM real.
            assert!(
                (c.c40_normalized().re - m.theoretical_c40()).abs() < 5e-3,
                "{m}: C40 {} vs theory {}",
                c.c40_normalized().re,
                m.theoretical_c40()
            );
            assert!(
                (c.c42_normalized() - m.theoretical_c42()).abs() < 5e-3,
                "{m}: C42 {} vs theory {}",
                c.c42_normalized(),
                m.theoretical_c42()
            );
        }
    }

    #[test]
    fn qpsk_c40_rotation_behaviour() {
        // Rotating QPSK by theta scales C40 by e^{j4theta}; |C40| and C42 are
        // rotation invariant — the basis of the |C40| detector variant used
        // in the real-channel scenario (Sec. VI-C).
        let base = Modulation::Qpsk.constellation();
        for k in 0..8 {
            let theta = k as f64 * 0.2;
            let rotated: Vec<Complex> = base.iter().map(|&p| p * Complex::cis(theta)).collect();
            let c = Cumulants::estimate(&rotated).unwrap();
            assert!(
                (c.c40_normalized().norm() - 1.0).abs() < 1e-9,
                "|C40| should be rotation invariant"
            );
            assert!(
                (c.c42_normalized() + 1.0).abs() < 1e-9,
                "C42 should be rotation invariant"
            );
            // arg(C40) = 4*theta (mod 2pi) since the unrotated C40 is +1.
            let got = c.c40_normalized().arg();
            let diff = ((got - 4.0 * theta) % (2.0 * std::f64::consts::PI)
                + 3.0 * std::f64::consts::PI)
                % (2.0 * std::f64::consts::PI)
                - std::f64::consts::PI;
            assert!(
                diff.abs() < 1e-6,
                "C40 phase should track 4*theta, got {got} at theta {theta}"
            );
        }
    }

    #[test]
    fn gaussian_noise_has_zero_fourth_cumulant() {
        // Fourth-order cumulants of a Gaussian vanish; estimate over many
        // Box-Muller samples should be near zero.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
        let mut gauss = || {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen::<f64>();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let samples: Vec<Complex> = (0..200_000)
            .map(|_| Complex::new(gauss(), gauss()))
            .collect();
        let c = Cumulants::estimate(&samples).unwrap();
        assert!(c.c40_normalized().norm() < 0.05, "{:?}", c.c40_normalized());
        assert!(c.c42_normalized().abs() < 0.05, "{}", c.c42_normalized());
    }

    #[test]
    fn constellations_have_right_sizes() {
        assert_eq!(Modulation::Bpsk.constellation().len(), 2);
        assert_eq!(Modulation::Qpsk.constellation().len(), 4);
        assert_eq!(Modulation::Qam16.constellation().len(), 16);
        assert_eq!(Modulation::Qam64.constellation().len(), 64);
        assert_eq!(Modulation::Qam256.constellation().len(), 256);
        assert_eq!(Modulation::Pam16.constellation().len(), 16);
    }

    #[test]
    fn display_names() {
        assert_eq!(Modulation::Qam64.to_string(), "64-QAM");
        assert_eq!(Modulation::PskAbove4.to_string(), "PSK(>4)");
    }

    proptest! {
        #[test]
        fn scale_invariance_of_normalized_cumulants(scale in 0.01f64..100.0) {
            let pts: Vec<Complex> = Modulation::Qam16.constellation()
                .iter().map(|&p| p * scale).collect();
            let c = Cumulants::estimate(&pts).unwrap();
            prop_assert!((c.c40_normalized().re - (-0.68)).abs() < 1e-6);
            prop_assert!((c.c42_normalized() - (-0.68)).abs() < 1e-6);
        }

        #[test]
        fn c42_always_real_nonpositive_for_symmetric_sets(seed in 0u64..500) {
            // For any point set closed under negation, C42 <= 0 is not
            // guaranteed in general, but C21 > 0 and estimates finite are.
            let mut s = seed.wrapping_add(1);
            let mut rnd = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            };
            let mut pts = Vec::new();
            for _ in 0..64 {
                let p = Complex::new(rnd() + 0.01, rnd());
                pts.push(p);
                pts.push(-p);
            }
            let c = Cumulants::estimate(&pts).unwrap();
            prop_assert!(c.c21() > 0.0);
            prop_assert!(c.c40().is_finite());
            prop_assert!(c.c42().is_finite());
        }
    }
}
