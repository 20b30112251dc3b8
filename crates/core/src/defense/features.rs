//! Constellation reconstruction and cumulant feature extraction
//! (paper Sec. VI-A2, VI-B, VI-C).
//!
//! The receiver taps the chip-rate samples feeding DSSS demodulation and
//! treats each chip pair as one point of a QPSK constellation. Authentic
//! O-QPSK chips land on the four QPSK points; emulated waveforms carry
//! quantization error and spectral-truncation distortion that spread and
//! bias the cloud. Fourth-order cumulants summarize the shape:
//! `Ĉ40 → 1`, `Ĉ42 → -1` for clean QPSK (Table III).
//!
//! ## The real-channel `|C40|` estimator
//!
//! A channel phase offset `θ` scales `C40` by `e^{j4θ}`, and a residual
//! carrier-frequency offset `Δf` makes that rotation *time-varying*, so the
//! plain sample average of `d⁴` washes out. The paper's remedy is to use
//! `|C40|` (Sec. VI-C); we realize it with the standard fourth-power
//! spectral-line estimator: for QPSK-like samples, `d_i⁴ ≈ C40·e^{j(4θ +
//! 4ω i)}` plus zero-mean terms, so `|C40|` is the peak magnitude of the
//! frequency spectrum of `d_i⁴` — invariant to both `θ` and `Δf`. `C42`
//! depends only on `|d|` and needs no protection.

use ctc_dsp::cumulants::{Cumulants, EmptySamplesError};
use ctc_dsp::{simd, Complex};
use ctc_zigbee::Reception;
use std::sync::OnceLock;

/// Theoretical QPSK feature vector `v = [C40, C42]ᵀ` (Table III row 2).
pub const QPSK_C40: f64 = 1.0;
/// Theoretical QPSK `C42`.
pub const QPSK_C42: f64 = -1.0;

/// Widest per-point rotation rate (radians per chip pair) the spectral-line
/// search covers: ±0.3 rad/pair ≈ ±12 kHz of residual CFO at the 2 MHz chip
/// rate — an order of magnitude beyond realistic front-end residue.
const LINE_SEARCH_MAX: f64 = 0.3;
/// Grid resolution of the line search.
const LINE_SEARCH_STEPS: usize = 301;

/// The fixed line-search frequency grid, computed once: `LINE_SEARCH_STEPS`
/// points spanning `[-LINE_SEARCH_MAX, +LINE_SEARCH_MAX]`.
fn nu_grid() -> &'static [f64; LINE_SEARCH_STEPS] {
    static GRID: OnceLock<[f64; LINE_SEARCH_STEPS]> = OnceLock::new();
    GRID.get_or_init(|| {
        let mut grid = [0.0; LINE_SEARCH_STEPS];
        for (s, nu) in grid.iter_mut().enumerate() {
            *nu = -LINE_SEARCH_MAX
                + 2.0 * LINE_SEARCH_MAX * s as f64 / (LINE_SEARCH_STEPS - 1) as f64;
        }
        grid
    })
}

/// Builds the defense's constellation from a reception: the raw chip
/// midpoints exactly as digitized (no phase or CFO correction — the defense
/// must not depend on decode-path estimates), rotated by `-pi/4` so a clean
/// ZigBee waveform lands on the axis-aligned QPSK set `{1, i, -1, -i}`
/// whose theoretical `C40` is `+1`.
pub fn constellation_from_reception(reception: &Reception) -> Vec<Complex> {
    let rot = Complex::cis(-std::f64::consts::FRAC_PI_4);
    reception
        .raw_chip_samples
        .constellation()
        .into_iter()
        .map(|p| p * rot)
        .collect()
}

/// The cumulant half of the features: everything one `cumulant_sums`
/// pass over the constellation gives. The ideal-channel DE² (Sec. VI-B,
/// eq. (10)) reads nothing else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CumulantFeatures {
    /// Normalized `Ĉ40 = C̃40 / C̃21²` (complex; rotates with channel phase
    /// and washes out under CFO — valid in the ideal scenario only).
    pub c40: Complex,
    /// Normalized `Ĉ42 = C̃42 / C̃21²` (real, rotation and CFO invariant).
    pub c42: f64,
    /// Number of constellation points used.
    pub sample_count: usize,
    /// Mean power `C̃21`, which normalizes the line half's `|Ĉ40|`.
    c21: f64,
}

impl CumulantFeatures {
    /// Estimates the cumulant half from constellation points.
    ///
    /// # Errors
    ///
    /// Returns [`EmptySamplesError`] for an empty point set.
    pub fn estimate(points: &[Complex]) -> Result<Self, EmptySamplesError> {
        let c = Cumulants::estimate(points)?;
        Ok(CumulantFeatures {
            c40: c.c40_normalized(),
            c42: c.c42_normalized(),
            sample_count: c.sample_count(),
            c21: c.c21(),
        })
    }

    /// Squared Euclidean distance to the QPSK Voronoi point in the ideal
    /// (AWGN, no phase offset) scenario:
    /// `DE² = (Re Ĉ40 − 1)² + (Ĉ42 + 1)²`.
    pub fn de_squared_ideal(&self) -> f64 {
        (self.c40.re - QPSK_C40).powi(2) + (self.c42 - QPSK_C42).powi(2)
    }
}

/// Both halves of the features of one constellation: the cumulant half
/// plus the line half, `|Ĉ40|` and the line frequency from the
/// fourth-power spectral-line search (Sec. VI-C). Only the readers of
/// `|Ĉ40|` pay for the search: the real-channel DE², the feature
/// ensemble's cumulant extractor, the golden corpus and `ctc detect`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Features {
    /// The cumulant half: `Ĉ40`, `Ĉ42` and the point count.
    pub cumulants: CumulantFeatures,
    /// `|Ĉ40|` from the fourth-power spectral-line search — invariant to
    /// static phase offset and residual CFO (the Sec. VI-C estimator).
    pub c40_magnitude: f64,
    /// Rotation rate (radians per chip pair) at which the line peaked;
    /// `4 x` the per-pair CFO.
    pub line_frequency: f64,
}

impl Features {
    /// Estimates both halves from constellation points.
    ///
    /// # Errors
    ///
    /// Returns [`EmptySamplesError`] for an empty point set.
    pub fn estimate(points: &[Complex]) -> Result<Self, EmptySamplesError> {
        Ok(Features::with_line(
            CumulantFeatures::estimate(points)?,
            points,
        ))
    }

    /// Adds the line half to `cumulants`, the cumulant half already
    /// estimated from the same `points`.
    pub(crate) fn with_line(cumulants: CumulantFeatures, points: &[Complex]) -> Self {
        // Fourth-power sequence for the spectral-line search.
        let z: Vec<Complex> = points
            .iter()
            .map(|&p| {
                let p2 = p * p;
                p2 * p2
            })
            .collect();
        let d = z.len() as f64;
        // Evaluate the whole grid lane-parallel across frequencies; the
        // per-frequency arithmetic is bit-equal to `dtft_magnitude`, so the
        // argmax below selects exactly the same line as the scalar loop.
        let nus = nu_grid();
        let mut mags = [0.0f64; LINE_SEARCH_STEPS];
        simd::dtft_norms(&z, nus, &mut mags);
        let mut best_mag = 0.0f64;
        let mut best_nu = 0.0f64;
        for (s, &m) in mags.iter().enumerate() {
            let mag = m / d;
            if mag > best_mag {
                best_mag = mag;
                best_nu = nus[s];
            }
        }
        // Normalize like the other cumulants. The `-3 C20²` correction is
        // omitted in the line estimator: under rotation C20 washes to ~0,
        // and for axis-aligned QPSK it is exactly 0.
        let c21 = cumulants.c21;
        let c40_magnitude = if c21 > 0.0 {
            best_mag / (c21 * c21)
        } else {
            0.0
        };
        Features {
            cumulants,
            c40_magnitude,
            line_frequency: best_nu,
        }
    }

    /// The ideal-scenario DE² of the cumulant half
    /// ([`CumulantFeatures::de_squared_ideal`]).
    pub fn de_squared_ideal(&self) -> f64 {
        self.cumulants.de_squared_ideal()
    }

    /// Squared distance using the offset-immune `|Ĉ40|` (Sec. VI-C):
    /// `DE² = (|Ĉ40| − 1)² + (Ĉ42 + 1)²`.
    pub fn de_squared_real(&self) -> f64 {
        (self.c40_magnitude - QPSK_C40).powi(2) + (self.cumulants.c42 - QPSK_C42).powi(2)
    }
}

/// One-call feature extraction from a reception.
///
/// # Errors
///
/// Returns [`EmptySamplesError`] when the reception captured no chip pairs.
pub fn features_from_reception(reception: &Reception) -> Result<Features, EmptySamplesError> {
    Features::estimate(&constellation_from_reception(reception))
}

/// One-call cumulant-half extraction from a reception: everything the
/// ideal-channel DE² reads, without the line search.
///
/// # Errors
///
/// Returns [`EmptySamplesError`] when the reception captured no chip pairs.
pub fn cumulant_features_from_reception(
    reception: &Reception,
) -> Result<CumulantFeatures, EmptySamplesError> {
    CumulantFeatures::estimate(&constellation_from_reception(reception))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_channel::Link;
    use ctc_zigbee::{Receiver, Transmitter};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reception(snr_db: f64, seed: u64) -> Reception {
        let wave = Transmitter::new().transmit_payload(b"00000").unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rx_wave = Link::awgn(snr_db).transmit(&wave, &mut rng);
        Receiver::usrp().receive(&rx_wave)
    }

    #[test]
    fn clean_zigbee_features_match_qpsk_theory() {
        let r = reception(60.0, 71);
        let f = features_from_reception(&r).unwrap();
        let c = f.cumulants;
        assert!((c.c40.re - 1.0).abs() < 0.05, "C40 {:?}", c.c40);
        assert!((c.c42 + 1.0).abs() < 0.05, "C42 {}", c.c42);
        assert!(
            (f.c40_magnitude - 1.0).abs() < 0.05,
            "|C40| {}",
            f.c40_magnitude
        );
        assert!(f.line_frequency.abs() < 0.01);
        assert!(f.de_squared_ideal() < 0.01);
        assert!(f.de_squared_real() < 0.01);
    }

    #[test]
    fn noise_pushes_cumulants_toward_gaussian() {
        let high = features_from_reception(&reception(17.0, 72)).unwrap();
        let low = features_from_reception(&reception(3.0, 73)).unwrap();
        assert!(
            low.de_squared_ideal() > high.de_squared_ideal(),
            "low-SNR DE² {} should exceed high-SNR {}",
            low.de_squared_ideal(),
            high.de_squared_ideal()
        );
    }

    #[test]
    fn phase_offset_breaks_ideal_but_not_real_variant() {
        let wave = Transmitter::new().transmit_payload(b"00000").unwrap();
        let rotated = ctc_channel::impairments::apply_phase(&wave, 0.5);
        let r = Receiver::usrp().receive(&rotated);
        let f = features_from_reception(&r).unwrap();
        // Re(C40) rotated by 4*0.5 = 2 rad -> far from 1.
        assert!(
            f.de_squared_ideal() > 0.5,
            "ideal DE² {}",
            f.de_squared_ideal()
        );
        // |C40| unaffected.
        assert!(
            f.de_squared_real() < 0.05,
            "real DE² {}",
            f.de_squared_real()
        );
    }

    #[test]
    fn cfo_breaks_plain_c40_but_not_line_estimator() {
        let wave = Transmitter::new().transmit_payload(b"00000").unwrap();
        let shifted = ctc_channel::impairments::apply_cfo(&wave, 400.0, 4.0e6, 0.3);
        let r = Receiver::usrp().receive(&shifted);
        let f = features_from_reception(&r).unwrap();
        assert!(
            f.cumulants.c40.norm() < 0.6,
            "plain C40 should wash out under CFO, got {:?}",
            f.cumulants.c40
        );
        assert!(
            (f.c40_magnitude - 1.0).abs() < 0.1,
            "line |C40| should survive CFO, got {}",
            f.c40_magnitude
        );
        // Line frequency = 4 * per-pair rotation; a chip pair spans 4
        // samples at 4 MHz, so omega_pair = 2*pi*400/4e6*4.
        let expected = 4.0 * 2.0 * std::f64::consts::PI * 400.0 / 4.0e6 * 4.0;
        assert!(
            (f.line_frequency - expected).abs() < 0.01,
            "line at {} vs expected {expected}",
            f.line_frequency
        );
    }

    #[test]
    fn sample_count_matches_constellation() {
        let r = reception(20.0, 74);
        let pts = constellation_from_reception(&r);
        let f = Features::estimate(&pts).unwrap();
        assert_eq!(f.cumulants.sample_count, pts.len());
    }

    #[test]
    fn empty_points_error() {
        assert!(Features::estimate(&[]).is_err());
        assert!(CumulantFeatures::estimate(&[]).is_err());
    }

    #[test]
    fn horner_dtft_matches_naive_sum() {
        // Lengths exercising every partial-block case (len % 4 = 0..=3).
        for n in [1usize, 2, 3, 4, 5, 96, 97, 98, 99] {
            let z: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
                .collect();
            for &nu in &[-0.3, -0.1234, 0.0, 0.077, 0.3] {
                let naive: Complex = z
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| v * Complex::cis(-nu * i as f64))
                    .sum();
                let mut fast = [0.0];
                simd::dtft_norms(&z, &[nu], &mut fast);
                assert!(
                    (fast[0] - naive.norm()).abs() < 1e-9,
                    "n={n} nu={nu}: {} vs {}",
                    fast[0],
                    naive.norm()
                );
            }
        }
        let mut empty = [1.0];
        simd::dtft_norms(&[], &[0.1], &mut empty);
        assert_eq!(empty[0], 0.0);
    }
}
