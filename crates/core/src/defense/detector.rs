//! The hypothesis-testing detector (paper Sec. VI-B3, eq. (10)–(11)).
//!
//! `H0`: the waveform came from the ZigBee transmitter;
//! `H1`: it came from the WiFi attacker. The statistic is the squared
//! distance `DE²` between the estimated feature vector
//! `φ = [Ĉ40, Ĉ42]ᵀ` and the QPSK Voronoi point `v = [1, -1]ᵀ`; decide `H1`
//! when `DE² > Q`. The paper derives `Q = 0.5` from its training data; the
//! [`Detector::calibrate`] constructor re-derives a threshold from training
//! receptions the same way (midpoint of the gap between the two classes).
//!
//! The ideal-channel statistic reads only the cumulant half of the features
//! ([`CumulantFeatures`]); the detector runs the `|Ĉ40|` line search only
//! under [`ChannelAssumption::Real`], the one variant that reads it.

use crate::defense::features::{constellation_from_reception, CumulantFeatures, Features};
use ctc_dsp::Complex;
use ctc_zigbee::Reception;

/// Channel assumption selecting the `C40` flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelAssumption {
    /// AWGN only: use `Re Ĉ40` (Sec. VI-B).
    #[default]
    Ideal,
    /// Frequency/phase offsets present: use `|Ĉ40|` (Sec. VI-C).
    Real,
}

impl ChannelAssumption {
    /// The DE² statistic this assumption reads from features with both
    /// halves estimated.
    pub fn de_squared(self, features: &Features) -> f64 {
        match self {
            ChannelAssumption::Ideal => features.de_squared_ideal(),
            ChannelAssumption::Real => features.de_squared_real(),
        }
    }
}

/// The decision rule the [`Detector`] and every pipeline
/// [`Classifier`](crate::defense::Classifier) share: attack when `score`
/// exceeds `threshold`, and whenever `score` is not finite. A statistic a
/// NaN sample or an overflow made meaningless must never pass a frame as
/// authentic.
pub(crate) fn decides_attack(score: f64, threshold: f64) -> bool {
    !score.is_finite() || score > threshold
}

/// Outcome of one detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The decision statistic `DE²`.
    pub de_squared: f64,
    /// `true` = `H1` (WiFi attacker).
    pub is_attack: bool,
    /// The cumulant half of the features behind the decision. Under
    /// [`ChannelAssumption::Real`] the statistic also read the line
    /// search's `|Ĉ40|`, which the verdict does not carry.
    pub features: CumulantFeatures,
}

/// Errors from detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectError {
    /// The reception carried no chip samples to analyze.
    NoSamples,
}

impl std::fmt::Display for DetectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectError::NoSamples => write!(f, "reception contains no chip samples"),
        }
    }
}

impl std::error::Error for DetectError {}

/// The constellation-statistics detector.
///
/// # Examples
///
/// ```
/// use ctc_core::defense::{ChannelAssumption, Detector};
/// use ctc_zigbee::{Receiver, Transmitter};
///
/// let wave = Transmitter::new().transmit_payload(b"00000")?;
/// let reception = Receiver::usrp().receive(&wave);
/// let verdict = Detector::new(ChannelAssumption::Ideal).detect(&reception).unwrap();
/// assert!(!verdict.is_attack);
/// # Ok::<(), ctc_zigbee::frame::FrameError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detector {
    assumption: ChannelAssumption,
    threshold: f64,
}

impl Default for Detector {
    fn default() -> Self {
        Detector::new(ChannelAssumption::Ideal)
    }
}

impl Detector {
    /// Detector with the paper's threshold `Q = 0.5`.
    pub fn new(assumption: ChannelAssumption) -> Self {
        Detector {
            assumption,
            threshold: 0.5,
        }
    }

    /// Overrides the decision threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `q` is finite and positive: a NaN or infinite `Q`
    /// would pass every frame as authentic.
    pub fn with_threshold(mut self, q: f64) -> Self {
        assert!(
            q.is_finite() && q > 0.0,
            "threshold must be finite and positive"
        );
        self.threshold = q;
        self
    }

    /// Calibrates a threshold from labelled training receptions, mirroring
    /// the paper's procedure (Sec. VII-B: first 50 waveforms of each class):
    /// the threshold is the midpoint between the largest ZigBee statistic
    /// and the smallest emulated statistic. Falls back to `Q = 0.5` when a
    /// class is empty or the classes overlap.
    pub fn calibrate(
        assumption: ChannelAssumption,
        zigbee_training: &[Reception],
        emulated_training: &[Reception],
    ) -> Self {
        let detector = Detector::new(assumption);
        let stat = |r: &Reception| detector.statistic_for_points(&constellation_from_reception(r));
        let zig: Vec<f64> = zigbee_training.iter().filter_map(stat).collect();
        let emu: Vec<f64> = emulated_training.iter().filter_map(stat).collect();
        Self::calibrate_from_stats(assumption, &zig, &emu)
    }

    /// Calibrates a threshold from already-computed training statistics
    /// (per-reception `DE²` values) using the same rule as
    /// [`Detector::calibrate`]: midpoint of the gap between the largest
    /// ZigBee statistic and the smallest emulated statistic, falling back
    /// to `Q = 0.5` when a class is empty or the classes overlap. Useful
    /// when the caller has reduced receptions to their statistics already
    /// (e.g. the experiment engine's map/reduce pipeline).
    pub fn calibrate_from_stats(
        assumption: ChannelAssumption,
        zigbee_stats: &[f64],
        emulated_stats: &[f64],
    ) -> Self {
        let zig_max = zigbee_stats.iter().copied().fold(f64::NAN, f64::max);
        let emu_min = emulated_stats.iter().copied().fold(f64::NAN, f64::min);
        let threshold = if zig_max.is_finite() && emu_min.is_finite() && emu_min > zig_max {
            (zig_max + emu_min) / 2.0
        } else {
            0.5
        };
        Detector {
            assumption,
            threshold,
        }
    }

    /// Configured threshold `Q`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Configured channel assumption.
    pub fn assumption(&self) -> ChannelAssumption {
        self.assumption
    }

    /// Computes the statistic for explicit constellation points.
    pub fn statistic_for_points(&self, points: &[Complex]) -> Option<f64> {
        self.verdict_for_points(points).ok().map(|v| v.de_squared)
    }

    /// The verdict for features with both halves already estimated (what
    /// `ctc detect` prints).
    pub fn verdict_for(&self, features: &Features) -> Verdict {
        self.decide(features.cumulants, self.assumption.de_squared(features))
    }

    /// The verdict for constellation points, with the DE² bit-equal to
    /// [`ChannelAssumption::de_squared`] of [`Features::estimate`]. Only
    /// [`ChannelAssumption::Real`] runs the line search.
    fn verdict_for_points(&self, points: &[Complex]) -> Result<Verdict, DetectError> {
        let cumulants = CumulantFeatures::estimate(points).map_err(|_| DetectError::NoSamples)?;
        let de_squared = match self.assumption {
            ChannelAssumption::Ideal => cumulants.de_squared_ideal(),
            ChannelAssumption::Real => Features::with_line(cumulants, points).de_squared_real(),
        };
        Ok(self.decide(cumulants, de_squared))
    }

    /// The one place the statistic meets the threshold.
    fn decide(&self, features: CumulantFeatures, de_squared: f64) -> Verdict {
        Verdict {
            de_squared,
            is_attack: decides_attack(de_squared, self.threshold),
            features,
        }
    }

    /// Runs the hypothesis test on a reception.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::NoSamples`] when no chip samples exist.
    pub fn detect(&self, reception: &Reception) -> Result<Verdict, DetectError> {
        self.verdict_for_points(&constellation_from_reception(reception))
    }

    /// Aggregated detection: pools the constellation points of several
    /// receptions *from the same transmitter* and runs one test over the
    /// combined cloud. Cumulant estimator variance shrinks with sample
    /// count, so aggregation buys detection at SNRs where single frames are
    /// too noisy to classify (extension; see the `lowsnr` experiment).
    ///
    /// In the Ideal variant the frames must share a phase reference (AWGN
    /// link); in the Real variant per-frame phase is irrelevant but each
    /// frame's constellation rotates as a block, which the spectral-line
    /// |C40| search handles per the concatenated index — adequate for the
    /// residual-CFO magnitudes modelled here.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::NoSamples`] when no reception carries chip
    /// samples.
    pub fn detect_aggregated(&self, receptions: &[Reception]) -> Result<Verdict, DetectError> {
        let mut points = Vec::new();
        for r in receptions {
            points.extend(constellation_from_reception(r));
        }
        self.verdict_for_points(&points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::Emulator;
    use ctc_channel::Link;
    use ctc_zigbee::{Receiver, Transmitter};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn zigbee_reception(snr_db: f64, seed: u64) -> Reception {
        let wave = Transmitter::new().transmit_payload(b"00000").unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Receiver::usrp().receive(&Link::awgn(snr_db).transmit(&wave, &mut rng))
    }

    fn emulated_reception(snr_db: f64, seed: u64) -> Reception {
        let wave = Transmitter::new().transmit_payload(b"00000").unwrap();
        let emu = Emulator::new();
        let em = emu.emulate(&wave);
        let back = emu.received_at_zigbee(&em);
        let mut rng = StdRng::seed_from_u64(seed);
        Receiver::usrp().receive(&Link::awgn(snr_db).transmit(&back, &mut rng))
    }

    #[test]
    fn authentic_zigbee_passes() {
        let det = Detector::new(ChannelAssumption::Ideal);
        for seed in 0..5 {
            let v = det.detect(&zigbee_reception(17.0, 100 + seed)).unwrap();
            assert!(!v.is_attack, "false positive: DE² {}", v.de_squared);
        }
    }

    #[test]
    fn emulated_waveform_caught() {
        // Our emulation is cleaner than the paper's Matlab pipeline (their
        // fixed alpha = sqrt(26) clips the strongest bins), so the emulated
        // DE² sits near 0.35 rather than their 1.6; the calibrated threshold
        // lands in the gap either way. 0.25 is our calibrated equivalent of
        // the paper's Q = 0.5.
        let det = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
        for seed in 0..5 {
            let v = det.detect(&emulated_reception(17.0, 200 + seed)).unwrap();
            assert!(v.is_attack, "missed attack: DE² {}", v.de_squared);
        }
    }

    #[test]
    fn detection_works_across_paper_snr_range() {
        // Table IV shape: a persistent DE² gap between authentic and
        // emulated waveforms for SNR in {7, 12, 17} dB, with a single
        // threshold separating the classes at every SNR.
        let det = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
        for (i, snr) in [7.0, 12.0, 17.0].into_iter().enumerate() {
            let z = det.detect(&zigbee_reception(snr, 300 + i as u64)).unwrap();
            let e = det
                .detect(&emulated_reception(snr, 400 + i as u64))
                .unwrap();
            assert!(!z.is_attack, "SNR {snr}: zigbee DE² {}", z.de_squared);
            assert!(e.is_attack, "SNR {snr}: emulated DE² {}", e.de_squared);
            assert!(e.de_squared > z.de_squared * 1.5);
        }
    }

    #[test]
    fn calibration_finds_gap_threshold() {
        let zig: Vec<Reception> = (0..10).map(|i| zigbee_reception(12.0, 500 + i)).collect();
        let emu: Vec<Reception> = (0..10).map(|i| emulated_reception(12.0, 600 + i)).collect();
        let det = Detector::calibrate(ChannelAssumption::Ideal, &zig, &emu);
        // Threshold sits strictly between the classes.
        for r in &zig {
            assert!(!det.detect(r).unwrap().is_attack);
        }
        for r in &emu {
            assert!(det.detect(r).unwrap().is_attack);
        }
    }

    #[test]
    fn calibration_fallback_when_no_training() {
        let det = Detector::calibrate(ChannelAssumption::Real, &[], &[]);
        assert_eq!(det.threshold(), 0.5);
    }

    #[test]
    fn real_variant_survives_phase_offset() {
        let wave = Transmitter::new().transmit_payload(b"00000").unwrap();
        let det = Detector::new(ChannelAssumption::Real);
        for (i, theta) in [0.3f64, 0.9, 1.7, 2.5].into_iter().enumerate() {
            let rotated = ctc_channel::impairments::apply_phase(&wave, theta);
            let mut rng = StdRng::seed_from_u64(700 + i as u64);
            let noisy = Link::awgn(17.0).transmit(&rotated, &mut rng);
            let v = det.detect(&Receiver::usrp().receive(&noisy)).unwrap();
            assert!(
                !v.is_attack,
                "phase {theta}: authentic flagged, DE² {}",
                v.de_squared
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = Detector::default().with_threshold(0.0);
    }

    #[test]
    fn non_finite_thresholds_rejected() {
        for q in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let caught = std::panic::catch_unwind(|| Detector::default().with_threshold(q));
            assert!(caught.is_err(), "Q = {q} accepted");
        }
    }

    #[test]
    fn non_finite_statistic_decides_attack() {
        for score in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(decides_attack(score, 0.25), "{score} passed as authentic");
        }
        assert!(!decides_attack(0.25, 0.25));
        assert!(decides_attack(0.2500001, 0.25));
    }

    #[test]
    fn non_finite_features_give_attack_verdicts() {
        let clean = zigbee_reception(17.0, 810);
        // One NaN sample, as a poisoned capture delivers it.
        let mut poisoned = clean.clone();
        poisoned.raw_chip_samples.midpoints[7].re = f64::NAN;
        let points = crate::defense::features::constellation_from_reception(&poisoned);
        for assumption in [ChannelAssumption::Ideal, ChannelAssumption::Real] {
            let det = Detector::new(assumption);
            assert!(det.statistic_for_points(&points).unwrap().is_nan());
            assert!(det.detect(&poisoned).unwrap().is_attack, "{assumption:?}");
            let pooled = [clean.clone(), poisoned.clone()];
            assert!(det.detect_aggregated(&pooled).unwrap().is_attack);
            // ±inf reaching either statistic through its features.
            let f = crate::defense::features::features_from_reception(&clean).unwrap();
            assert!(!det.verdict_for(&f).is_attack);
            for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let mut f = f;
                f.cumulants.c42 = bad;
                let v = det.verdict_for(&f);
                assert!(
                    v.is_attack,
                    "{assumption:?}: Ĉ42 = {bad} gave DE² {}",
                    v.de_squared
                );
            }
        }
    }

    #[test]
    fn aggregation_stabilizes_low_snr_detection() {
        // At 3 dB a single frame's DE² is noise-dominated; pooling ten
        // frames recovers the class separation.
        let det = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
        let zig: Vec<Reception> = (0..10).map(|i| zigbee_reception(3.0, 900 + i)).collect();
        let emu: Vec<Reception> = (0..10).map(|i| emulated_reception(3.0, 950 + i)).collect();
        let vz = det.detect_aggregated(&zig).unwrap();
        let ve = det.detect_aggregated(&emu).unwrap();
        assert!(
            ve.de_squared > vz.de_squared * 1.5,
            "aggregated gap lost: {} vs {}",
            ve.de_squared,
            vz.de_squared
        );
        assert!(vz.features.sample_count > 4000, "pooled all frames");
    }

    #[test]
    fn aggregated_empty_errors() {
        let det = Detector::default();
        assert!(det.detect_aggregated(&[]).is_err());
    }

    #[test]
    fn statistic_for_points_matches_detect() {
        let r = zigbee_reception(15.0, 800);
        let det = Detector::default();
        let via_points = det
            .statistic_for_points(&crate::defense::features::constellation_from_reception(&r))
            .unwrap();
        let via_detect = det.detect(&r).unwrap().de_squared;
        assert!((via_points - via_detect).abs() < 1e-12);
    }
}
