//! Alternative detectors for comparison against the paper's cumulant
//! approach (extension): a clustered error-vector-magnitude (EVM) detector.
//!
//! EVM is the obvious first idea — measure how tightly the reconstructed
//! constellation clusters. With k-means (k = 4) supplying the cluster
//! centres it is even rotation-robust. The comparison experiment shows
//! where it breaks: under residual CFO the constellation *spins during the
//! frame*, the clusters smear into a ring, and EVM loses its margin — while
//! the |C40| spectral-line cumulant estimator keeps working. That contrast
//! is the quantitative argument for the paper's choice of higher-order
//! statistics.

use crate::defense::detector::decides_attack;
use crate::defense::features::constellation_from_reception;
use ctc_dsp::kmeans::kmeans;
use ctc_dsp::Complex;
use ctc_zigbee::Reception;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The clustered-EVM statistic of a constellation: RMS distance to the
/// nearest of 4 k-means centroids, normalized by the RMS point radius.
///
/// Returns `None` for fewer than 4 points.
pub fn clustered_evm(points: &[Complex]) -> Option<f64> {
    if points.len() < 4 {
        return None;
    }
    // Deterministic seeding: the statistic must not be stochastic.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let clustering = kmeans(points, 4, 100, &mut rng).ok()?;
    let rms_radius =
        (points.iter().map(|p| p.norm_sqr()).sum::<f64>() / points.len() as f64).sqrt();
    if rms_radius <= 0.0 {
        return None;
    }
    let rms_err = (clustering.inertia / points.len() as f64).sqrt();
    Some(rms_err / rms_radius)
}

/// EVM-based hypothesis test, API-compatible with the cumulant
/// [`crate::defense::Detector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvmDetector {
    threshold: f64,
}

impl Default for EvmDetector {
    fn default() -> Self {
        EvmDetector::new()
    }
}

impl EvmDetector {
    /// A detector with a default threshold of 0.28 (between the authentic
    /// ~0.1–0.2 and emulated ~0.35–0.45 ranges at moderate SNR).
    pub fn new() -> Self {
        EvmDetector { threshold: 0.28 }
    }

    /// Overrides the threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is finite and positive: a NaN or infinite
    /// threshold would pass every frame as authentic.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "threshold must be finite and positive"
        );
        self.threshold = threshold;
        self
    }

    /// Configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Computes the statistic and verdict for a reception; `None` when too
    /// few chip samples exist. A non-finite statistic decides "attack", as
    /// it does for every detector.
    pub fn detect(&self, reception: &Reception) -> Option<EvmVerdict> {
        let evm = clustered_evm(&constellation_from_reception(reception))?;
        Some(EvmVerdict {
            evm,
            is_attack: decides_attack(evm, self.threshold),
        })
    }
}

/// Outcome of one EVM detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvmVerdict {
    /// Normalized clustered EVM.
    pub evm: f64,
    /// `true` = flagged as the WiFi attacker.
    pub is_attack: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::Emulator;
    use ctc_zigbee::{Receiver, Transmitter};

    fn pair() -> (Vec<Complex>, Vec<Complex>) {
        let orig = Transmitter::new().transmit_payload(b"00000").unwrap();
        let emu = Emulator::new();
        let forged = emu.received_at_zigbee(&emu.emulate(&orig));
        (orig, forged)
    }

    #[test]
    fn separates_classes_in_static_channel() {
        let (orig, forged) = pair();
        let rx = Receiver::usrp();
        let det = EvmDetector::new();
        let vz = det.detect(&rx.receive(&orig)).unwrap();
        let ve = det.detect(&rx.receive(&forged)).unwrap();
        assert!(!vz.is_attack, "authentic EVM {}", vz.evm);
        assert!(ve.is_attack, "emulated EVM {}", ve.evm);
        assert!(ve.evm > 2.0 * vz.evm);
    }

    #[test]
    fn rotation_robust_via_kmeans() {
        let (orig, _) = pair();
        let rotated = ctc_channel::impairments::apply_phase(&orig, 0.7);
        let r = Receiver::usrp().receive(&rotated);
        let v = EvmDetector::new().detect(&r).unwrap();
        assert!(
            !v.is_attack,
            "static rotation should not fool EVM: {}",
            v.evm
        );
    }

    #[test]
    fn cfo_breaks_evm_but_not_cumulant_line() {
        use crate::defense::features_from_reception;
        let (orig, _) = pair();
        let spun = ctc_channel::impairments::apply_cfo(&orig, 400.0, 4.0e6, 0.1);
        let r = Receiver::usrp().receive(&spun);
        let evm = EvmDetector::new().detect(&r).unwrap();
        assert!(
            evm.is_attack,
            "CFO should smear the clusters and false-flag EVM: {}",
            evm.evm
        );
        let f = features_from_reception(&r).unwrap();
        assert!(
            f.de_squared_real() < 0.1,
            "the |C40| line estimator should survive: {}",
            f.de_squared_real()
        );
    }

    #[test]
    fn non_finite_statistic_decides_attack() {
        let (orig, _) = pair();
        let mut poisoned = Receiver::usrp().receive(&orig);
        // One NaN chip sample, as a poisoned capture delivers it.
        poisoned.raw_chip_samples.midpoints[7].re = f64::NAN;
        let v = EvmDetector::new().detect(&poisoned).unwrap();
        assert!(v.evm.is_nan());
        assert!(v.is_attack, "a NaN statistic passed as authentic");
    }

    #[test]
    fn non_finite_thresholds_rejected() {
        for threshold in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let caught = std::panic::catch_unwind(|| EvmDetector::new().with_threshold(threshold));
            assert!(caught.is_err(), "threshold {threshold} accepted");
        }
    }

    #[test]
    fn too_few_points_is_none() {
        assert!(clustered_evm(&[Complex::ONE; 3]).is_none());
        assert!(clustered_evm(&[Complex::ZERO; 8]).is_none());
    }

    #[test]
    fn statistic_is_deterministic() {
        let (orig, _) = pair();
        let r = Receiver::usrp().receive(&orig);
        let pts = constellation_from_reception(&r);
        assert_eq!(clustered_evm(&pts), clustered_evm(&pts));
    }

    #[test]
    fn empty_constellation_is_none() {
        assert!(clustered_evm(&[]).is_none());
    }

    #[test]
    fn constant_constellation_pins_zero_evm() {
        // Identical nonzero points collapse onto one centroid: zero error,
        // unit radius. Pins that the degenerate clustering yields Some(0.0)
        // rather than NaN or None.
        assert_eq!(clustered_evm(&[Complex::ONE; 8]), Some(0.0));
    }

    #[test]
    fn detector_on_empty_burst_is_none() {
        // An empty capture decodes to no chip samples, so the detector
        // abstains instead of guessing.
        let r = Receiver::usrp().receive(&[]);
        assert!(EvmDetector::new().detect(&r).is_none());
    }

    #[test]
    fn detector_on_short_burst_is_none() {
        // A fragment far below one symbol yields fewer than 4 constellation
        // points — the k-means statistic has nothing to cluster.
        let (orig, _) = pair();
        let r = Receiver::usrp().receive(&orig[..8]);
        assert!(EvmDetector::new().detect(&r).is_none());
    }
}
