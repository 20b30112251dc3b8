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
//!
//! The search reads the spectrum on a fixed 301-point grid. A chirp-z
//! screen (one Bluestein convolution) gives every grid magnitude to within
//! a derived bound, and only the grid points the bound cannot rule out are
//! evaluated exactly, so the search returns the bits of the dense
//! evaluation for a fraction of its cost (the bound is derived on the
//! private `screen_bound`).

use ctc_dsp::cumulants::{Cumulants, EmptySamplesError};
use ctc_dsp::fft::{fft_in_place, ifft_in_place};
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

/// Half the grid spacing Δ/2 = 0.001 rad: grid point `s` is meant to be
/// `ν₀ + s·Δ` with `ν₀ = -LINE_SEARCH_MAX`.
const HALF_STEP: f64 = LINE_SEARCH_MAX / (LINE_SEARCH_STEPS - 1) as f64;
/// Smallest and largest chirp-z transform lengths, as powers of two, with
/// a cached plan. 2^9 is the least length that holds the 301-point grid;
/// 2^15 serves up to 32,468 points.
const PLAN_LOG2: std::ops::RangeInclusive<u32> = 9..=15;
/// How far beyond [`screen_bound`] the screen's tolerance sits.
const SCREEN_MARGIN: f64 = 100.0;
/// Magnitude sums `Σ(|Re z|+|Im z|)` the bound is derived for. Inside it
/// the transforms' intermediate sums (at most `L²·Σ|z| < 1e130`) and
/// `Σ|z|²` stay finite, and `Σ|z|² ≥ (Σ|z|/N)² > 1e-250` stays normal.
const SCREEN_RANGE: std::ops::RangeInclusive<f64> = 1e-120..=1e120;

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

/// One chirp-z transform length's cached state. The search's grid
/// magnitudes are `|X_s| = |Σ_n z_n e^{-j(ν₀+sΔ)n}|`, and
/// `sn = (s² + n² − (s−n)²)/2` turns the sum into the linear convolution
/// `|X_s| = |Σ_n a_n b_{s−n}|` with `a_n = z_n e^{-jφ_n}`,
/// `φ_n = ν₀n + Δn²/2`, and `b_m = e^{jΔm²/2}`. An `L`-point circular
/// convolution gives it for `s < 301` whenever `N + 300 ≤ L`.
struct ChirpPlan {
    /// `FFT(b)` over the circular chirp: index `i` holds `b_i` for
    /// `i < 301` and `b_{i−L}` above, so every `N ≤ L − 300` reads the
    /// same spectrum.
    spectrum: Box<[Complex]>,
    /// `e^{-jφ_n}` for `n ≤ L − 301`.
    prechirp: Box<[Complex]>,
    /// `max_k |spectrum_k|`, the convolution's gain in [`screen_bound`].
    gain: f64,
}

/// The plan for `L = 2^log2_l`, built on first use and kept for the life
/// of the process (`32·L` bytes).
fn chirp_plan(log2_l: u32) -> &'static ChirpPlan {
    const PLANS: usize = (*PLAN_LOG2.end() - *PLAN_LOG2.start() + 1) as usize;
    static CACHE: [OnceLock<ChirpPlan>; PLANS] = [const { OnceLock::new() }; PLANS];
    CACHE[(log2_l - PLAN_LOG2.start()) as usize].get_or_init(|| {
        let l = 1usize << log2_l;
        let mut spectrum: Vec<Complex> = (0..l)
            .map(|i| {
                let m = if i < LINE_SEARCH_STEPS {
                    i as f64
                } else {
                    i as f64 - l as f64
                };
                Complex::cis(HALF_STEP * (m * m))
            })
            .collect();
        fft_in_place(&mut spectrum).expect("plan lengths are powers of two");
        let gain = spectrum.iter().map(|v| v.norm()).fold(0.0, f64::max);
        let prechirp = (0..=l - LINE_SEARCH_STEPS)
            .map(|n| {
                let n = n as f64;
                Complex::cis(-(-LINE_SEARCH_MAX * n + HALF_STEP * (n * n)))
            })
            .collect();
        ChirpPlan {
            spectrum: spectrum.into_boxed_slice(),
            prechirp,
            gain,
        }
    })
}

/// A bound on `|screen_s − m_s|` for every grid point `s`, where
/// `screen_s` is the chirp-z magnitude and `m_s` the bits
/// [`simd::dtft_norms`] gives at `nu_grid()[s]`. `n` points of `z` with
/// `s1 = Σ(|Re z|+|Im z|) ≥ Σ|z|` and `s2 ≥ ‖z‖₂`, an `L = 2^log2_l`-point
/// plan of gain `g`, and `u = 2⁻⁵³`. Three sources, to first order in `u`
/// (the neglected terms are below 1e-9 of the bound):
///
/// 1. **The radix-2 FFT's rounding.** `fft`'s twiddles come from the
///    recurrence `w ← w·wlen`, which drifts at most `(√2 + √5)·u` per step
///    from `e^{jθk}` (one `cis` rounding plus one complex product), so
///    they are within `μ = 2uL` of exact. Higham (*Accuracy and Stability
///    of Numerical Algorithms*, Thm. 24.2) then bounds each transform's
///    relative 2-norm error by `ε_F = log₂L·η/(1 − log₂L·η)`,
///    `η = μ + γ₄(√2 + μ)`. Per output of the convolution that is
///    `ε_F·g·‖z‖₂` from the forward transform, the same from the inverse,
///    `ε_F·√L·‖z‖₂` from the cached spectrum's own error, and `√5·u·g·‖z‖₂`
///    from the pointwise product.
/// 2. **The chirp phases' rounding.** `φ_n` reaches `0.3·n + 0.001·n²` rad
///    (1.06e6 rad at `n = 32,467`) and `Δm²/2` reaches `0.001·m²`. Each
///    is two or three roundings of terms that size, within `4u·|φ|`, and
///    `cis` adds `2u` and the product `√5·u`; against `|b| = 1` each
///    output moves by at most that phase error times `Σ|z|`.
/// 3. **The grid's floats.** `nu_grid()[s]` is within `4u` of `ν₀ + sΔ`,
///    and `|dX/dν| ≤ Σ n|z_n| ≤ (N−1)·Σ|z|`.
///
/// The dense evaluation `m_s` itself errs from the exact spectrum by at
/// most `8u(N+4)·Σ|z|` (block Horner: about `N/4` products by a `w⁴`
/// within `15u`, plus one addition per block), and the two `hypot`s by
/// `2u·Σ|z|` each. A last `2⁻¹⁰⁰⁰` covers gradual underflow: under `2²⁰`
/// roundings of at most `2⁻¹⁰⁷⁵`, amplified by `g ≤ L ≤ 2¹⁵`.
fn screen_bound(n: usize, log2_l: u32, gain: f64, s1: f64, s2: f64) -> f64 {
    let u = f64::EPSILON / 2.0;
    let l = (1usize << log2_l) as f64;
    let lg = f64::from(log2_l);
    let mu = 2.0 * u * l;
    let gamma4 = 4.0 * u / (1.0 - 4.0 * u);
    let eta = mu + gamma4 * (std::f64::consts::SQRT_2 + mu);
    let eps_f = lg * eta / (1.0 - lg * eta);
    let sqrt5 = 5.0f64.sqrt();
    let fft = (eps_f * (2.0 * gain + l.sqrt()) + sqrt5 * u * gain) * s2;
    let last = n.saturating_sub(1) as f64;
    let lag = last.max((LINE_SEARCH_STEPS - 1) as f64);
    let phases = LINE_SEARCH_MAX * last + HALF_STEP * (last * last) + HALF_STEP * (lag * lag);
    let chirp = (4.0 * u * phases + (4.0 + sqrt5) * u) * s1;
    let grid = 4.0 * u * last * s1;
    let dense = (8.0 * u * (n as f64 + 4.0) + 4.0 * u) * s1;
    fft + chirp + grid + dense + 2f64.powi(-1000)
}

/// The chirp-z screen: fills `screen` with every grid magnitude to within
/// [`screen_bound`] and returns the tolerance it is trusted to,
/// `SCREEN_MARGIN` times that bound. `None` when the bound does not cover
/// `z`: `N` beyond the largest plan, or a value the screen cannot vouch
/// for.
fn chirp_z_screen(
    z: &[Complex],
    s1: f64,
    s2: f64,
    screen: &mut [f64; LINE_SEARCH_STEPS],
) -> Option<f64> {
    let l = (z.len() + LINE_SEARCH_STEPS - 1).next_power_of_two();
    let log2_l = l.trailing_zeros().max(*PLAN_LOG2.start());
    if !PLAN_LOG2.contains(&log2_l) {
        return None;
    }
    let plan = chirp_plan(log2_l);
    let mut buf = vec![Complex::ZERO; 1 << log2_l];
    for ((b, &v), &c) in buf.iter_mut().zip(z).zip(plan.prechirp.iter()) {
        *b = v * c;
    }
    fft_in_place(&mut buf).expect("plan lengths are powers of two");
    for (b, &c) in buf.iter_mut().zip(plan.spectrum.iter()) {
        *b *= c;
    }
    ifft_in_place(&mut buf).expect("plan lengths are powers of two");
    for (o, v) in screen.iter_mut().zip(&buf) {
        *o = v.norm();
    }
    if !screen.iter().all(|m| m.is_finite()) {
        return None;
    }
    Some(SCREEN_MARGIN * screen_bound(z.len(), log2_l, plan.gain, s1, s2))
}

/// Fills `picked` with the grid points the line search evaluates exactly,
/// in grid order, and returns how many: those the chirp-z screen cannot
/// rule out, or all of them when the screen does not cover `z` (empty, all
/// zero, non-finite or subnormal values, a magnitude sum outside
/// `SCREEN_RANGE`, or more points than the largest plan takes).
///
/// A point whose screen magnitude is more than 2ε below the screen's top
/// has an exact magnitude below the top point's by more than 1.98ε: ε is
/// 100 bounds, and each exact magnitude is within one bound of its screen
/// value. That gap is far beyond the rounding of the search's `m / d`
/// (ε ≥ 100·8u·N·Σ|z|), so the search's first-strictly-greatest rule picks
/// the same point, with the same bits, as it would over the whole grid.
fn pick_points(z: &[Complex], picked: &mut [usize; LINE_SEARCH_STEPS]) -> usize {
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut normal = true;
    for v in z {
        normal &= (v.re == 0.0 || v.re.is_normal()) && (v.im == 0.0 || v.im.is_normal());
        s1 += v.re.abs() + v.im.abs();
        s2 += v.norm_sqr();
    }
    let mut screen = [0.0f64; LINE_SEARCH_STEPS];
    let tolerance = if normal && SCREEN_RANGE.contains(&s1) {
        chirp_z_screen(z, s1, s2.sqrt(), &mut screen)
    } else {
        None
    };
    let top = screen.iter().copied().fold(0.0f64, f64::max);
    let mut count = 0;
    for (s, &m) in screen.iter().enumerate() {
        if tolerance.is_none_or(|eps| m >= top - 2.0 * eps) {
            picked[count] = s;
            count += 1;
        }
    }
    count
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
        let nus = nu_grid();
        let mut picked = [0usize; LINE_SEARCH_STEPS];
        let count = pick_points(&z, &mut picked);
        let mut picked_nus = [0.0f64; LINE_SEARCH_STEPS];
        for (nu, &s) in picked_nus.iter_mut().zip(&picked[..count]) {
            *nu = nus[s];
        }
        // `dtft_norms` computes each frequency alone, whatever its place
        // in the grid, so these are the whole grid's bits at those points.
        let mut mags = [0.0f64; LINE_SEARCH_STEPS];
        simd::dtft_norms(&z, &picked_nus[..count], &mut mags);
        let mut best_mag = 0.0f64;
        let mut best_nu = 0.0f64;
        for (&s, &m) in picked[..count].iter().zip(&mags) {
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
    use rand::{Rng, SeedableRng};

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

    /// Every screen magnitude lies within one `screen_bound` of the dense
    /// evaluation's bits: the margin the search relies on is real.
    #[test]
    fn screen_stays_within_its_bound() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut worst = 0.0f64;
        for n in [1usize, 2, 7, 212, 213, 429, 724, 725, 3000, 20_000] {
            for scale in [1e-100, 1.0, 1e100] {
                let z: Vec<Complex> = (0..n)
                    .map(|i| {
                        let tone = Complex::cis(0.1234 * i as f64);
                        let noise =
                            Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                        (tone + noise) * scale
                    })
                    .collect();
                let s1: f64 = z.iter().map(|v| v.re.abs() + v.im.abs()).sum();
                let s2 = z.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
                let mut screen = [0.0; LINE_SEARCH_STEPS];
                let tolerance = chirp_z_screen(&z, s1, s2, &mut screen).unwrap();
                let bound = tolerance / SCREEN_MARGIN;
                let mut dense = [0.0; LINE_SEARCH_STEPS];
                simd::dtft_norms(&z, nu_grid(), &mut dense);
                for (s, (a, m)) in screen.iter().zip(&dense).enumerate() {
                    let err = (a - m).abs();
                    assert!(
                        err <= bound,
                        "n={n} scale={scale} s={s}: |{a} - {m}| > {bound}"
                    );
                    worst = worst.max(err / bound);
                }
            }
        }
        // The bound is a worst case; real errors sit orders of magnitude
        // inside it.
        assert!(worst < 0.01, "worst error {worst} of the bound");
    }

    /// On real frames the screen leaves one point, or the two of a near
    /// tie, for the exact evaluation; bounds it cannot cover leave all 301.
    #[test]
    fn screen_narrows_real_frames_to_their_peak() {
        let mut picked = [0; LINE_SEARCH_STEPS];
        for (snr, seed) in [(60.0, 81), (17.0, 82), (5.0, 83)] {
            let z: Vec<Complex> = constellation_from_reception(&reception(snr, seed))
                .iter()
                .map(|&p| (p * p) * (p * p))
                .collect();
            let count = pick_points(&z, &mut picked);
            assert!((1..=2).contains(&count), "{snr} dB: {count} points");
        }
        assert_eq!(
            pick_points(&[Complex::ZERO; 8], &mut picked),
            LINE_SEARCH_STEPS
        );
        let z = [Complex::ONE, Complex::new(f64::NAN, 0.0)];
        assert_eq!(pick_points(&z, &mut picked), LINE_SEARCH_STEPS);
        assert_eq!(pick_points(&[], &mut picked), LINE_SEARCH_STEPS);
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
