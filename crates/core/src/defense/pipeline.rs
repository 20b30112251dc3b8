//! The pluggable detection pipeline: named feature extraction fused by a
//! small pure-Rust classifier (extension beyond the paper's single DE²
//! threshold).
//!
//! The paper's defense (Sec. VI) thresholds one scalar. This module
//! generalizes it into `extractors -> FeatureVector -> classifier`:
//!
//! - [`FeatureExtractor`] implementations each contribute named entries to
//!   a [`FeatureVector`] — the cumulant/DE² statistics of
//!   [`features`](crate::defense::features), PSD shape and OFDM artifacts
//!   (`ctc_dsp::psd`), the cyclic-prefix and phase-trend statistics of
//!   [`naive`](crate::defense::naive), the clustered EVM of
//!   [`alternatives`](crate::defense::alternatives), and burst RSSI.
//! - [`Classifier`] fuses the vector into one score + decision. Three
//!   kinds: a single-feature [`Classifier::Threshold`] (the legacy
//!   detector as one pipeline configuration), calibrated logistic
//!   regression ([`train_logistic`]), and an AdaBoost-style decision-stump
//!   ensemble ([`train_stumps`]) — both trainable offline from labelled
//!   receptions and serializable to a versioned text model file (the
//!   workspace is dependency-free, so the format is hand-rolled).
//!
//! [`DetectionPipeline::legacy`] is the paper's detector as the
//! extractor-free configuration: it computes only the verdict's DE² and
//! decides it with the same rule as [`Detector`], so its verdicts are
//! *bit-for-bit* the detector's and it reports no scores. Pipelines with
//! extractors ([`DetectionPipeline::standard`], trained models) also
//! report every feature, which the gateway surfaces in JSONL events and
//! Prometheus metrics.

use crate::defense::alternatives::clustered_evm;
use crate::defense::detector::{decides_attack, ChannelAssumption, DetectError, Detector, Verdict};
use crate::defense::features::{CumulantFeatures, Features};
use crate::defense::naive::{cp_similarity_4mhz, phase_trend_similarity};
use ctc_dsp::psd::{welch_psd, Window};
use ctc_dsp::Complex;
use ctc_zigbee::Reception;
use std::cell::OnceCell;
use std::sync::Arc;

/// Lazily shared per-burst inputs handed to every extractor.
///
/// The constellation, its [`CumulantFeatures`] and its full [`Features`]
/// are each computed at most once per burst no matter how many extractors
/// read them, and only when one does: the line search behind the full
/// features runs on the first [`features`](Self::features) call and reuses
/// the cumulant half.
#[derive(Debug)]
pub struct FeatureInput<'a> {
    reception: &'a Reception,
    samples: &'a [Complex],
    constellation: OnceCell<Vec<Complex>>,
    cumulants: OnceCell<Option<CumulantFeatures>>,
    features: OnceCell<Option<Features>>,
}

impl<'a> FeatureInput<'a> {
    /// Input from a reception plus the raw burst waveform it was decoded
    /// from (the gateway's [`BurstCapture`](crate::defense::BurstCapture)
    /// samples), which the PSD, OFDM-artifact and RSSI extractors read.
    pub fn with_samples(reception: &'a Reception, samples: &'a [Complex]) -> Self {
        FeatureInput {
            reception,
            samples,
            constellation: OnceCell::new(),
            cumulants: OnceCell::new(),
            features: OnceCell::new(),
        }
    }

    /// The reception under test.
    pub fn reception(&self) -> &Reception {
        self.reception
    }

    /// The raw burst waveform.
    pub fn samples(&self) -> &[Complex] {
        self.samples
    }

    /// The defense constellation (computed once, shared by extractors).
    pub fn constellation(&self) -> &[Complex] {
        self.constellation
            .get_or_init(|| crate::defense::features::constellation_from_reception(self.reception))
    }

    /// The cumulant half of the constellation's features (computed once);
    /// `None` when the reception carried no chip samples.
    pub(crate) fn cumulants(&self) -> Option<&CumulantFeatures> {
        self.cumulants
            .get_or_init(|| CumulantFeatures::estimate(self.constellation()).ok())
            .as_ref()
    }

    /// Both halves of the constellation's features, the line search
    /// included (computed once); `None` when the reception carried no chip
    /// samples.
    pub fn features(&self) -> Option<&Features> {
        self.features
            .get_or_init(|| {
                let cumulants = *self.cumulants()?;
                Some(Features::with_line(cumulants, self.constellation()))
            })
            .as_ref()
    }

    /// The DE² `assumption` decides on; only `Real` runs the line search.
    fn de_squared(&self, assumption: ChannelAssumption) -> Option<f64> {
        match assumption {
            ChannelAssumption::Ideal => self.cumulants().map(CumulantFeatures::de_squared_ideal),
            ChannelAssumption::Real => self.features().map(Features::de_squared_real),
        }
    }
}

/// An ordered set of named feature values. Order is the extractor order,
/// so a pipeline's vectors are positionally stable run to run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureVector {
    entries: Vec<(&'static str, f64)>,
}

impl FeatureVector {
    /// An empty vector.
    pub fn new() -> Self {
        FeatureVector::default()
    }

    /// Appends one named value.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.entries.push((name, value));
    }

    /// The value of `name`, when present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// All entries in extraction order.
    pub fn entries(&self) -> &[(&'static str, f64)] {
        &self.entries
    }

    /// The names, in extraction order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(n, _)| *n).collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries were pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One pluggable feature source. Extractors must be deterministic and must
/// push a value for **every** name in [`feature_names`] on every call
/// (pushing a neutral `0.0` when a statistic is unavailable), so vectors
/// from different bursts always align positionally.
///
/// [`feature_names`]: FeatureExtractor::feature_names
pub trait FeatureExtractor: std::fmt::Debug + Send + Sync {
    /// Stable identifier of the extractor (used in docs and specs).
    fn name(&self) -> &'static str;

    /// The feature names this extractor pushes, in push order.
    fn feature_names(&self) -> &'static [&'static str];

    /// Pushes this extractor's features for one burst.
    fn extract(&self, input: &FeatureInput<'_>, out: &mut FeatureVector);
}

/// Cumulant and DE² features (the paper's statistics, Sec. VI-B/VI-C).
#[derive(Debug, Clone, Copy, Default)]
pub struct CumulantExtractor;

/// Feature names pushed by [`CumulantExtractor`].
pub const CUMULANT_FEATURES: [&str; 7] = [
    "de2_ideal",
    "de2_real",
    "c40_re",
    "c40_im",
    "c40_mag",
    "c42",
    "line_freq",
];

impl FeatureExtractor for CumulantExtractor {
    fn name(&self) -> &'static str {
        "cumulants"
    }

    fn feature_names(&self) -> &'static [&'static str] {
        &CUMULANT_FEATURES
    }

    fn extract(&self, input: &FeatureInput<'_>, out: &mut FeatureVector) {
        match input.features() {
            Some(f) => {
                out.push("de2_ideal", f.de_squared_ideal());
                out.push("de2_real", f.de_squared_real());
                out.push("c40_re", f.cumulants.c40.re);
                out.push("c40_im", f.cumulants.c40.im);
                out.push("c40_mag", f.c40_magnitude);
                out.push("c42", f.cumulants.c42);
                out.push("line_freq", f.line_frequency);
            }
            None => {
                for name in CUMULANT_FEATURES {
                    out.push(name, 0.0);
                }
            }
        }
    }
}

/// PSD shape features over the raw burst waveform (Welch, 64-bin
/// segments): in-band fraction, out-of-band leakage, spectral flatness and
/// bin peak-to-average — the spectral-truncation artifacts an OFDM
/// emulation cannot fully hide.
#[derive(Debug, Clone, Copy)]
pub struct SpectralExtractor {
    segment_len: usize,
}

impl Default for SpectralExtractor {
    fn default() -> Self {
        SpectralExtractor { segment_len: 64 }
    }
}

/// Feature names pushed by [`SpectralExtractor`].
pub const SPECTRAL_FEATURES: [&str; 4] = ["psd_inband", "psd_oob", "psd_flatness", "psd_papr_db"];

impl FeatureExtractor for SpectralExtractor {
    fn name(&self) -> &'static str {
        "spectral"
    }

    fn feature_names(&self) -> &'static [&'static str] {
        &SPECTRAL_FEATURES
    }

    fn extract(&self, input: &FeatureInput<'_>, out: &mut FeatureVector) {
        let samples = input.samples();
        match welch_psd(samples, self.segment_len, Window::Hann).ok() {
            Some(psd) => {
                // At the 4 MHz capture rate the 2 MHz ZigBee band is
                // |f| <= 0.25; leakage past |f| = 0.375 is pure attacker
                // spectrum (filter skirts aside).
                out.push("psd_inband", psd.band_power_fraction(0.25));
                out.push("psd_oob", 1.0 - psd.band_power_fraction(0.375));
                let n = psd.power.len() as f64;
                let mean = psd.power.iter().sum::<f64>() / n;
                // Every sample inside a Welch segment reaches `mean`, so a
                // finite mean and a finite tail past the last segment mean
                // finite samples; otherwise the full check tells a
                // non-finite sample from an overflow.
                let covered = (psd.segments - 1) * (self.segment_len / 2) + self.segment_len;
                if !((mean.is_finite() && all_finite(&samples[covered..])) || all_finite(samples)) {
                    // A non-finite sample is no evidence of a flat or a
                    // peaky spectrum: NaN, which decides attack.
                    out.push("psd_flatness", f64::NAN);
                    out.push("psd_papr_db", f64::NAN);
                    return;
                }
                let log_mean = psd.power.iter().map(|p| p.max(1e-300).ln()).sum::<f64>() / n;
                let flatness = if mean > 0.0 {
                    log_mean.exp() / mean
                } else {
                    0.0
                };
                out.push("psd_flatness", flatness);
                let peak = psd.power.iter().copied().fold(0.0f64, f64::max);
                let papr_db = if mean > 0.0 && peak > 0.0 {
                    10.0 * (peak / mean).log10()
                } else {
                    0.0
                };
                out.push("psd_papr_db", papr_db);
            }
            None => {
                for name in SPECTRAL_FEATURES {
                    out.push(name, 0.0);
                }
            }
        }
    }
}

/// OFDM-artifact features from the rejected naive defenses: cyclic-prefix
/// self-similarity per 16-sample block and the phase-trend correlation of
/// the burst's two halves. Individually weak (the paper's point), but the
/// fused classifier can still use their residual signal.
#[derive(Debug, Clone, Copy, Default)]
pub struct OfdmArtifactExtractor;

/// Feature names pushed by [`OfdmArtifactExtractor`].
pub const OFDM_FEATURES: [&str; 2] = ["cp_similarity", "phase_self_sim"];

impl FeatureExtractor for OfdmArtifactExtractor {
    fn name(&self) -> &'static str {
        "ofdm_artifacts"
    }

    fn feature_names(&self) -> &'static [&'static str] {
        &OFDM_FEATURES
    }

    fn extract(&self, input: &FeatureInput<'_>, out: &mut FeatureVector) {
        let samples = input.samples();
        out.push("cp_similarity", cp_similarity_4mhz(samples).unwrap_or(0.0));
        let (first, second) = samples.split_at(samples.len() / 2);
        out.push("phase_self_sim", phase_trend_similarity(first, second));
    }
}

/// Clustered-EVM feature (the alternative detector as one pipeline input).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvmExtractor;

/// Feature names pushed by [`EvmExtractor`].
pub const EVM_FEATURES: [&str; 1] = ["clustered_evm"];

impl FeatureExtractor for EvmExtractor {
    fn name(&self) -> &'static str {
        "evm"
    }

    fn feature_names(&self) -> &'static [&'static str] {
        &EVM_FEATURES
    }

    fn extract(&self, input: &FeatureInput<'_>, out: &mut FeatureVector) {
        out.push(
            "clustered_evm",
            clustered_evm(input.constellation()).unwrap_or(0.0),
        );
    }
}

/// Burst power features over the raw waveform: RSSI (mean power, dB) and
/// peak-to-average power ratio.
#[derive(Debug, Clone, Copy, Default)]
pub struct RssiExtractor;

/// Feature names pushed by [`RssiExtractor`].
pub const RSSI_FEATURES: [&str; 2] = ["rssi_db", "papr_db"];

impl FeatureExtractor for RssiExtractor {
    fn name(&self) -> &'static str {
        "rssi"
    }

    fn feature_names(&self) -> &'static [&'static str] {
        &RSSI_FEATURES
    }

    fn extract(&self, input: &FeatureInput<'_>, out: &mut FeatureVector) {
        let points = input.samples();
        if points.is_empty() {
            out.push("rssi_db", 0.0);
            out.push("papr_db", 0.0);
            return;
        }
        let mean = points.iter().map(|p| p.norm_sqr()).sum::<f64>() / points.len() as f64;
        // Every sample reaches `mean`: only a non-finite mean needs the
        // check that tells a non-finite sample from an overflow.
        if !mean.is_finite() && !all_finite(points) {
            out.push("rssi_db", f64::NAN);
            out.push("papr_db", f64::NAN);
            return;
        }
        let peak = points.iter().map(|p| p.norm_sqr()).fold(0.0f64, f64::max);
        out.push("rssi_db", 10.0 * mean.max(1e-300).log10());
        let papr_db = if mean > 0.0 {
            10.0 * (peak / mean).max(1e-300).log10()
        } else {
            0.0
        };
        out.push("papr_db", papr_db);
    }
}

/// Whether every sample is finite. The power features need it because
/// `f64::max` drops NaN and a NaN mean takes their neutral branch.
fn all_finite(samples: &[Complex]) -> bool {
    samples.iter().all(|v| v.re.is_finite() && v.im.is_finite())
}

/// The standard extractor set, in canonical order (cumulants, PSD shape,
/// OFDM artifacts, clustered EVM, RSSI).
pub fn standard_extractors() -> Vec<Box<dyn FeatureExtractor>> {
    vec![
        Box::new(CumulantExtractor),
        Box::new(SpectralExtractor::default()),
        Box::new(OfdmArtifactExtractor),
        Box::new(EvmExtractor),
        Box::new(RssiExtractor),
    ]
}

/// A fitted logistic-regression model over standardized features.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    /// Feature names, aligned with the weight vector.
    pub names: Vec<String>,
    /// Per-feature training means (standardization).
    pub means: Vec<f64>,
    /// Per-feature training standard deviations (standardization).
    pub stds: Vec<f64>,
    /// Weights over standardized features.
    pub weights: Vec<f64>,
    /// Bias term.
    pub bias: f64,
}

impl LogisticModel {
    /// Attack probability for one feature vector (missing features read as
    /// the training mean, i.e. a zero z-score). NaN when a non-finite
    /// feature value or an overflow leaves the linear score without a
    /// value: `sigmoid(±inf)` would pin it to 0 or 1 instead.
    pub fn probability(&self, fv: &FeatureVector) -> f64 {
        let mut z = self.bias;
        for (i, name) in self.names.iter().enumerate() {
            let v = fv.get(name).unwrap_or(self.means[i]);
            let s = if self.stds[i] > 0.0 {
                self.stds[i]
            } else {
                1.0
            };
            z += self.weights[i] * (v - self.means[i]) / s;
        }
        if z.is_finite() {
            sigmoid(z)
        } else {
            f64::NAN
        }
    }
}

/// One decision stump of an AdaBoost ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct Stump {
    /// The feature this stump splits on.
    pub feature: String,
    /// Split threshold.
    pub threshold: f64,
    /// `true`: vote attack when `value > threshold`; `false`: when `<=`.
    pub greater_is_attack: bool,
    /// The stump's vote weight.
    pub alpha: f64,
}

impl Stump {
    /// This stump's vote in `{-1, +1}` (+1 = attack). A non-finite
    /// feature value votes attack whichever side the stump splits on.
    fn vote(&self, fv: &FeatureVector) -> f64 {
        let v = fv.get(&self.feature).unwrap_or(0.0);
        let attack = !v.is_finite() || (v > self.threshold) == self.greater_is_attack;
        if attack {
            1.0
        } else {
            -1.0
        }
    }
}

/// A weighted decision-stump ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct StumpEnsemble {
    /// The stumps, in boosting order.
    pub stumps: Vec<Stump>,
}

impl StumpEnsemble {
    /// Ensemble score in `[0, 1]` (weighted attack-vote fraction).
    pub fn score(&self, fv: &FeatureVector) -> f64 {
        let total: f64 = self.stumps.iter().map(|s| s.alpha).sum();
        if total <= 0.0 {
            return 0.5;
        }
        let vote: f64 = self.stumps.iter().map(|s| s.alpha * s.vote(fv)).sum();
        (vote / total + 1.0) / 2.0
    }
}

/// The fusion layer: turns one [`FeatureVector`] into a score + decision.
///
/// Score conventions: `Threshold` scores are the raw feature value
/// (decided against the configured threshold, exactly the legacy
/// detector); `Logistic` and `Stumps` scores live in `[0, 1]` and decide
/// at `0.5`. Every kind decides like [`Detector`]: a score without a
/// value (NaN) or out of range (±inf) decides attack.
#[derive(Debug, Clone, PartialEq)]
pub enum Classifier {
    /// Single feature vs fixed threshold — the legacy detector as one
    /// pipeline configuration.
    Threshold {
        /// The feature to threshold (e.g. `de2_ideal`).
        feature: String,
        /// Decide attack when the feature exceeds this.
        threshold: f64,
    },
    /// Calibrated logistic regression (see [`train_logistic`]).
    Logistic(LogisticModel),
    /// AdaBoost decision-stump ensemble (see [`train_stumps`]).
    Stumps(StumpEnsemble),
}

impl Classifier {
    /// Fused score and decision for one feature vector.
    pub fn decide(&self, fv: &FeatureVector) -> (f64, bool) {
        match self {
            Classifier::Threshold { feature, threshold } => {
                let score = fv.get(feature).unwrap_or(0.0);
                (score, decides_attack(score, *threshold))
            }
            Classifier::Logistic(m) => {
                let p = m.probability(fv);
                (p, decides_attack(p, 0.5))
            }
            Classifier::Stumps(e) => {
                let s = e.score(fv);
                (s, decides_attack(s, 0.5))
            }
        }
    }

    /// Short kind tag (used by the model file and reports).
    pub fn kind(&self) -> &'static str {
        match self {
            Classifier::Threshold { .. } => "threshold",
            Classifier::Logistic(_) => "logistic",
            Classifier::Stumps(_) => "stumps",
        }
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// One labelled training example.
#[derive(Debug, Clone)]
pub struct LabelledSample {
    /// Extracted features.
    pub features: FeatureVector,
    /// `true` = WiFi attacker (H1).
    pub is_attack: bool,
}

/// Errors from classifier training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// No training samples supplied.
    Empty,
    /// All samples carry the same label.
    SingleClass,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Empty => write!(f, "no training samples"),
            TrainError::SingleClass => write!(f, "training set contains a single class"),
        }
    }
}

impl std::error::Error for TrainError {}

fn check_classes(samples: &[LabelledSample]) -> Result<(), TrainError> {
    if samples.is_empty() {
        return Err(TrainError::Empty);
    }
    let attacks = samples.iter().filter(|s| s.is_attack).count();
    if attacks == 0 || attacks == samples.len() {
        return Err(TrainError::SingleClass);
    }
    Ok(())
}

/// Trains a calibrated logistic regression by full-batch gradient descent
/// over standardized features. Deterministic: fixed iteration count, no
/// randomness.
///
/// # Errors
///
/// [`TrainError::Empty`] / [`TrainError::SingleClass`] on degenerate sets.
pub fn train_logistic(samples: &[LabelledSample]) -> Result<Classifier, TrainError> {
    check_classes(samples)?;
    let names: Vec<String> = samples[0]
        .features
        .names()
        .iter()
        .map(|n| n.to_string())
        .collect();
    let k = names.len();
    let n = samples.len() as f64;
    let mut means = vec![0.0f64; k];
    let mut stds = vec![0.0f64; k];
    let value = |s: &LabelledSample, i: usize| s.features.get(&names[i]).unwrap_or(0.0);
    for (i, mean) in means.iter_mut().enumerate() {
        *mean = samples.iter().map(|s| value(s, i)).sum::<f64>() / n;
    }
    for (i, std) in stds.iter_mut().enumerate() {
        let var = samples
            .iter()
            .map(|s| (value(s, i) - means[i]).powi(2))
            .sum::<f64>()
            / n;
        *std = var.sqrt();
    }
    // Standardized design matrix (constant features become all-zero
    // columns, so their weights stay at zero).
    let rows: Vec<(Vec<f64>, f64)> = samples
        .iter()
        .map(|s| {
            let z: Vec<f64> = (0..k)
                .map(|i| {
                    let sd = if stds[i] > 0.0 { stds[i] } else { 1.0 };
                    (value(s, i) - means[i]) / sd
                })
                .collect();
            (z, if s.is_attack { 1.0 } else { 0.0 })
        })
        .collect();
    let mut weights = vec![0.0f64; k];
    let mut bias = 0.0f64;
    const EPOCHS: usize = 400;
    const LR: f64 = 0.5;
    const L2: f64 = 1e-3;
    for _ in 0..EPOCHS {
        let mut grad_w = vec![0.0f64; k];
        let mut grad_b = 0.0f64;
        for (z, y) in &rows {
            let mut logit = bias;
            for i in 0..k {
                logit += weights[i] * z[i];
            }
            let err = sigmoid(logit) - y;
            for i in 0..k {
                grad_w[i] += err * z[i];
            }
            grad_b += err;
        }
        for i in 0..k {
            weights[i] -= LR * (grad_w[i] / n + L2 * weights[i]);
        }
        bias -= LR * grad_b / n;
    }
    Ok(Classifier::Logistic(LogisticModel {
        names,
        means,
        stds,
        weights,
        bias,
    }))
}

/// Trains an AdaBoost decision-stump ensemble (`rounds` stumps, candidate
/// thresholds at the midpoints of sorted feature values). Deterministic.
///
/// # Errors
///
/// [`TrainError::Empty`] / [`TrainError::SingleClass`] on degenerate sets.
pub fn train_stumps(samples: &[LabelledSample], rounds: usize) -> Result<Classifier, TrainError> {
    check_classes(samples)?;
    let names: Vec<String> = samples[0]
        .features
        .names()
        .iter()
        .map(|n| n.to_string())
        .collect();
    let n = samples.len();
    let value = |s: &LabelledSample, name: &str| s.features.get(name).unwrap_or(0.0);
    // y in {-1, +1}, +1 = attack.
    let y: Vec<f64> = samples
        .iter()
        .map(|s| if s.is_attack { 1.0 } else { -1.0 })
        .collect();
    let mut w = vec![1.0 / n as f64; n];
    let mut stumps = Vec::with_capacity(rounds);
    for _ in 0..rounds.max(1) {
        let mut best: Option<(Stump, f64)> = None;
        for name in &names {
            let mut vals: Vec<f64> = samples.iter().map(|s| value(s, name)).collect();
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            let mut candidates: Vec<f64> = vals.windows(2).map(|p| (p[0] + p[1]) / 2.0).collect();
            if candidates.is_empty() {
                candidates.push(vals.first().copied().unwrap_or(0.0));
            }
            for &thr in &candidates {
                for greater in [true, false] {
                    let err: f64 = samples
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            let attack = (value(s, name) > thr) == greater;
                            let h = if attack { 1.0 } else { -1.0 };
                            if h != y[i] {
                                w[i]
                            } else {
                                0.0
                            }
                        })
                        .sum();
                    if best.as_ref().map(|(_, e)| err < *e).unwrap_or(true) {
                        best = Some((
                            Stump {
                                feature: name.clone(),
                                threshold: thr,
                                greater_is_attack: greater,
                                alpha: 0.0,
                            },
                            err,
                        ));
                    }
                }
            }
        }
        let (mut stump, err) = best.expect("at least one candidate stump");
        let err = err.clamp(1e-9, 1.0 - 1e-9);
        stump.alpha = 0.5 * ((1.0 - err) / err).ln();
        // Re-weight: mistakes gain weight, hits lose it.
        let mut total = 0.0;
        for (i, s) in samples.iter().enumerate() {
            let attack = (value(s, &stump.feature) > stump.threshold) == stump.greater_is_attack;
            let h = if attack { 1.0 } else { -1.0 };
            w[i] *= (-stump.alpha * y[i] * h).exp();
            total += w[i];
        }
        for wi in &mut w {
            *wi /= total;
        }
        let done = err < 1e-8;
        stumps.push(stump);
        if done {
            break;
        }
    }
    Ok(Classifier::Stumps(StumpEnsemble { stumps }))
}

/// Per-feature scores attached to a pipeline verdict (what the gateway
/// surfaces in JSONL events and `ctc_detector_score{feature=...}`).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineScores {
    /// The fused classifier score (see [`Classifier`] conventions).
    pub fused: f64,
    /// The full named feature vector.
    pub features: FeatureVector,
}

/// Outcome of one pipeline detection: the [`Verdict`] (`de_squared` is
/// the configured assumption's DE², `is_attack` is the classifier
/// decision) plus the per-feature scores behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineVerdict {
    /// The verdict streaming events carry.
    pub verdict: Verdict,
    /// The fused score and named per-feature values; `None` exactly when
    /// the pipeline has no extractors.
    pub scores: Option<PipelineScores>,
}

/// A configured detection pipeline: extractors + classifier + the channel
/// assumption used for the verdict's DE² field.
#[derive(Debug)]
pub struct DetectionPipeline {
    extractors: Vec<Box<dyn FeatureExtractor>>,
    classifier: Classifier,
    assumption: ChannelAssumption,
}

impl DetectionPipeline {
    /// The paper's detector as a pipeline: no extractors, the verdict's
    /// DE² thresholded at the detector's `Q`. Only that DE² is computed
    /// (under [`ChannelAssumption::Ideal`], the cumulant half alone), no
    /// scores are reported, and verdicts are bit-for-bit identical to
    /// [`Detector::detect`].
    pub fn legacy(detector: Detector) -> Self {
        DetectionPipeline {
            extractors: Vec::new(),
            ..DetectionPipeline::standard(detector)
        }
    }

    /// The standard extractor set with the paper's threshold decision:
    /// identical verdicts to [`Detector::detect`], but every feature's
    /// score becomes visible downstream.
    pub fn standard(detector: Detector) -> Self {
        DetectionPipeline {
            extractors: standard_extractors(),
            classifier: Classifier::Threshold {
                feature: de2_feature(detector.assumption()).to_string(),
                threshold: detector.threshold(),
            },
            assumption: detector.assumption(),
        }
    }

    /// Replaces the classifier, keeping extractors and assumption.
    pub fn with_classifier(mut self, classifier: Classifier) -> Self {
        self.classifier = classifier;
        self
    }

    /// The fusion classifier.
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }

    /// The channel assumption backing the verdict's DE² field.
    pub fn assumption(&self) -> ChannelAssumption {
        self.assumption
    }

    /// All feature names the pipeline produces, in extraction order.
    pub fn feature_names(&self) -> Vec<&'static str> {
        self.extractors
            .iter()
            .flat_map(|e| e.feature_names().iter().copied())
            .collect()
    }

    /// Extracts the full feature vector for one burst.
    ///
    /// # Errors
    ///
    /// [`DetectError::NoSamples`] when the reception carries no chip
    /// samples (matching the legacy detector's contract).
    pub fn extract(&self, input: &FeatureInput<'_>) -> Result<FeatureVector, DetectError> {
        if input.cumulants().is_none() {
            return Err(DetectError::NoSamples);
        }
        let mut fv = FeatureVector::new();
        for e in &self.extractors {
            e.extract(input, &mut fv);
        }
        Ok(fv)
    }

    /// Runs extraction + fusion for one burst. Without extractors the
    /// classifier reads the verdict's DE² alone and no scores are
    /// reported.
    ///
    /// # Errors
    ///
    /// [`DetectError::NoSamples`] when the reception carries no chip
    /// samples.
    pub fn score(&self, input: &FeatureInput<'_>) -> Result<PipelineVerdict, DetectError> {
        let features = *input.cumulants().ok_or(DetectError::NoSamples)?;
        let de_squared = input
            .de_squared(self.assumption)
            .ok_or(DetectError::NoSamples)?;
        let (is_attack, scores) = if self.extractors.is_empty() {
            let mut fv = FeatureVector::new();
            fv.push(de2_feature(self.assumption), de_squared);
            (self.classifier.decide(&fv).1, None)
        } else {
            let fv = self.extract(input)?;
            let (fused, is_attack) = self.classifier.decide(&fv);
            let scores = PipelineScores {
                fused,
                features: fv,
            };
            (is_attack, Some(scores))
        };
        Ok(PipelineVerdict {
            verdict: Verdict {
                de_squared,
                is_attack,
                features,
            },
            scores,
        })
    }

    /// Shared handle for multi-threaded consumers (gateway workers).
    pub fn shared(self) -> Arc<Self> {
        Arc::new(self)
    }
}

/// The paper's detector as a shared pipeline
/// ([`DetectionPipeline::legacy`]), so a stage takes a [`Detector`] or a
/// pipeline through one `impl Into<Arc<DetectionPipeline>>` parameter.
impl From<Detector> for Arc<DetectionPipeline> {
    fn from(detector: Detector) -> Self {
        DetectionPipeline::legacy(detector).shared()
    }
}

/// The DE² feature name for a channel assumption.
pub fn de2_feature(assumption: ChannelAssumption) -> &'static str {
    match assumption {
        ChannelAssumption::Ideal => "de2_ideal",
        ChannelAssumption::Real => "de2_real",
    }
}

// ---------------------------------------------------------------------------
// Versioned model file (hand-rolled text format; no serde in the workspace).
// ---------------------------------------------------------------------------

/// Magic first line of a serialized model.
pub const MODEL_MAGIC: &str = "ctc-detector-model v1";

/// A model-file parse failure: 1-based line plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelParseError {
    /// 1-based line number of the first problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ModelParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ModelParseError {}

impl DetectionPipeline {
    /// Serializes the classifier + assumption to the versioned text model
    /// format. Floats use Rust's shortest round-trip rendering, so
    /// parse(render(m)) reproduces the model exactly.
    pub fn to_model_string(&self) -> String {
        let mut out = String::new();
        out.push_str(MODEL_MAGIC);
        out.push('\n');
        out.push_str(&format!("kind {}\n", self.classifier.kind()));
        let assumption = match self.assumption {
            ChannelAssumption::Ideal => "ideal",
            ChannelAssumption::Real => "real",
        };
        out.push_str(&format!("assumption {assumption}\n"));
        match &self.classifier {
            Classifier::Threshold { feature, threshold } => {
                out.push_str(&format!("feature {feature}\n"));
                out.push_str(&format!("threshold {threshold}\n"));
            }
            Classifier::Logistic(m) => {
                out.push_str(&format!("features {}\n", m.names.join(" ")));
                out.push_str(&format!("means {}\n", join_floats(&m.means)));
                out.push_str(&format!("stds {}\n", join_floats(&m.stds)));
                out.push_str(&format!("weights {}\n", join_floats(&m.weights)));
                out.push_str(&format!("bias {}\n", m.bias));
            }
            Classifier::Stumps(e) => {
                for s in &e.stumps {
                    let dir = if s.greater_is_attack { ">" } else { "<=" };
                    out.push_str(&format!(
                        "stump {} {} {} {}\n",
                        s.feature, s.threshold, dir, s.alpha
                    ));
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses a model file back into a pipeline over the standard
    /// extractor set.
    ///
    /// # Errors
    ///
    /// [`ModelParseError`] on version/field problems.
    pub fn from_model_str(text: &str) -> Result<Self, ModelParseError> {
        let err = |line: usize, message: &str| ModelParseError {
            line,
            message: message.to_string(),
        };
        let mut lines = text.lines().enumerate();
        let (_, magic) = lines.next().ok_or_else(|| err(1, "empty model file"))?;
        if magic.trim() != MODEL_MAGIC {
            return Err(err(1, &format!("expected {MODEL_MAGIC:?}")));
        }
        let mut kind: Option<String> = None;
        let mut assumption = ChannelAssumption::Ideal;
        let mut feature: Option<String> = None;
        let mut threshold: Option<f64> = None;
        let mut names: Vec<String> = Vec::new();
        let mut means: Vec<f64> = Vec::new();
        let mut stds: Vec<f64> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        let mut bias: Option<f64> = None;
        let mut stumps: Vec<Stump> = Vec::new();
        let mut ended = false;
        for (i, line) in lines {
            let lineno = i + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let key = parts.next().expect("non-empty line has a token");
            let rest: Vec<&str> = parts.collect();
            match key {
                "kind" => kind = Some(rest.join(" ")),
                "assumption" => {
                    assumption = match rest.first().copied() {
                        Some("ideal") => ChannelAssumption::Ideal,
                        Some("real") => ChannelAssumption::Real,
                        _ => return Err(err(lineno, "assumption must be ideal|real")),
                    }
                }
                "feature" => {
                    feature = rest
                        .first()
                        .map(|name| feature_name(name, lineno))
                        .transpose()?
                }
                "threshold" => {
                    threshold = Some(parse_float(rest.first().copied(), lineno)?);
                }
                "features" => {
                    names = rest
                        .iter()
                        .map(|name| feature_name(name, lineno))
                        .collect::<Result<_, _>>()?
                }
                "means" => means = parse_floats(&rest, lineno)?,
                "stds" => stds = parse_floats(&rest, lineno)?,
                "weights" => weights = parse_floats(&rest, lineno)?,
                "bias" => bias = Some(parse_float(rest.first().copied(), lineno)?),
                "stump" => {
                    if rest.len() != 4 {
                        return Err(err(lineno, "stump needs: feature threshold dir alpha"));
                    }
                    let greater_is_attack = match rest[2] {
                        ">" => true,
                        "<=" => false,
                        _ => return Err(err(lineno, "stump direction must be > or <=")),
                    };
                    stumps.push(Stump {
                        feature: feature_name(rest[0], lineno)?,
                        threshold: parse_float(Some(rest[1]), lineno)?,
                        greater_is_attack,
                        alpha: parse_float(Some(rest[3]), lineno)?,
                    });
                }
                "end" => {
                    ended = true;
                    break;
                }
                other => return Err(err(lineno, &format!("unknown key {other:?}"))),
            }
        }
        if !ended {
            return Err(err(text.lines().count(), "missing end marker"));
        }
        let classifier = match kind.as_deref() {
            Some("threshold") => Classifier::Threshold {
                feature: feature.ok_or_else(|| err(2, "threshold model needs a feature"))?,
                threshold: threshold.ok_or_else(|| err(2, "threshold model needs a threshold"))?,
            },
            Some("logistic") => {
                let k = names.len();
                if k == 0 || means.len() != k || stds.len() != k || weights.len() != k {
                    return Err(err(2, "logistic model vectors must align with features"));
                }
                Classifier::Logistic(LogisticModel {
                    names,
                    means,
                    stds,
                    weights,
                    bias: bias.ok_or_else(|| err(2, "logistic model needs a bias"))?,
                })
            }
            Some("stumps") => {
                if stumps.is_empty() {
                    return Err(err(2, "stumps model needs at least one stump"));
                }
                Classifier::Stumps(StumpEnsemble { stumps })
            }
            _ => return Err(err(2, "kind must be threshold|logistic|stumps")),
        };
        Ok(DetectionPipeline {
            extractors: standard_extractors(),
            classifier,
            assumption,
        })
    }
}

/// Checks that a standard extractor produces `name`. A model naming a
/// feature no extractor pushes would read it as missing on every frame
/// and decide every frame the same way.
fn feature_name(name: &str, line: usize) -> Result<String, ModelParseError> {
    let known = standard_extractors()
        .iter()
        .any(|e| e.feature_names().contains(&name));
    if known {
        Ok(name.to_string())
    } else {
        Err(ModelParseError {
            line,
            message: format!("unknown feature {name:?}: no extractor produces it"),
        })
    }
}

fn join_floats(v: &[f64]) -> String {
    v.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parses one finite float. `str::parse` also accepts `NaN`, `inf` and
/// overflowing exponents, any of which would switch the classifier off.
fn parse_float(s: Option<&str>, line: usize) -> Result<f64, ModelParseError> {
    s.and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .ok_or_else(|| ModelParseError {
            line,
            message: "expected a finite float".to_string(),
        })
}

fn parse_floats(parts: &[&str], line: usize) -> Result<Vec<f64>, ModelParseError> {
    parts.iter().map(|s| parse_float(Some(s), line)).collect()
}

// ---------------------------------------------------------------------------
// ROC mathematics (shared by ctc-bench, the CLI evaluator and roc_smoke).
// ---------------------------------------------------------------------------

/// One ROC operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// The decision threshold producing this point.
    pub threshold: f64,
    /// False-positive rate (authentic flagged as attack).
    pub fpr: f64,
    /// True-positive rate (attacks caught).
    pub tpr: f64,
}

/// A ROC curve with its trapezoid AUC.
#[derive(Debug, Clone, PartialEq)]
pub struct Roc {
    /// Operating points, one per distinct score threshold (ascending).
    pub points: Vec<RocPoint>,
    /// Area under the curve (1.0 = perfect separation, 0.5 = chance).
    pub auc: f64,
}

impl Roc {
    /// Builds the curve from per-class scores (higher = more attack-like),
    /// sweeping every distinct score as a `score > q` threshold.
    pub fn from_scores(authentic: &[f64], attack: &[f64]) -> Self {
        if authentic.is_empty() || attack.is_empty() {
            return Roc {
                points: Vec::new(),
                auc: 0.5,
            };
        }
        let mut thresholds: Vec<f64> = authentic.iter().chain(attack).copied().collect();
        thresholds.sort_by(f64::total_cmp);
        thresholds.dedup();
        let mut points = Vec::with_capacity(thresholds.len());
        let mut auc = 0.0;
        let mut prev = (1.0, 1.0); // (fpr, tpr) at threshold -inf
        for &q in &thresholds {
            let fpr = authentic.iter().filter(|&&v| v > q).count() as f64 / authentic.len() as f64;
            let tpr = attack.iter().filter(|&&v| v > q).count() as f64 / attack.len() as f64;
            auc += (prev.0 - fpr) * (tpr + prev.1) / 2.0;
            prev = (fpr, tpr);
            points.push(RocPoint {
                threshold: q,
                fpr,
                tpr,
            });
        }
        auc += prev.0 * prev.1 / 2.0;
        Roc { points, auc }
    }

    /// Equal-error rate: the error level where FPR meets the miss rate
    /// (1 − TPR), taken at the operating point minimizing their gap.
    pub fn eer(&self) -> f64 {
        self.points
            .iter()
            .map(|p| ((p.fpr - (1.0 - p.tpr)).abs(), (p.fpr + 1.0 - p.tpr) / 2.0))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, eer)| eer)
            .unwrap_or(0.5)
    }

    /// Best TPR achievable at or below an FPR budget (e.g. `0.01`).
    pub fn tpr_at_fpr(&self, max_fpr: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.fpr <= max_fpr)
            .map(|p| p.tpr)
            .fold(0.0, f64::max)
    }

    /// The AUC of the better-oriented score direction (a feature that runs
    /// opposite to "higher = attack" still separates; report that power).
    pub fn oriented_auc(&self) -> f64 {
        self.auc.max(1.0 - self.auc)
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

    fn zigbee_wave() -> Vec<Complex> {
        Transmitter::new().transmit_payload(b"00000").unwrap()
    }

    fn emulated_wave() -> Vec<Complex> {
        let emu = Emulator::new();
        emu.received_at_zigbee(&emu.emulate(&zigbee_wave()))
    }

    fn noisy(wave: &[Complex], snr_db: f64, seed: u64) -> Vec<Complex> {
        let mut rng = StdRng::seed_from_u64(seed);
        Link::awgn(snr_db).transmit(wave, &mut rng)
    }

    fn labelled(n_per_class: usize, snr_db: f64, seed: u64) -> Vec<LabelledSample> {
        let pipeline = DetectionPipeline::standard(Detector::default());
        let zig = zigbee_wave();
        let emu = emulated_wave();
        let rx = Receiver::usrp();
        let mut out = Vec::new();
        for i in 0..n_per_class {
            for (wave, is_attack) in [(&zig, false), (&emu, true)] {
                let w = noisy(wave, snr_db, seed + i as u64 * 2 + u64::from(is_attack));
                let r = rx.receive(&w);
                let input = FeatureInput::with_samples(&r, &w);
                out.push(LabelledSample {
                    features: pipeline.extract(&input).unwrap(),
                    is_attack,
                });
            }
        }
        out
    }

    #[test]
    fn legacy_pipeline_matches_detector_bitwise() {
        let zig = zigbee_wave();
        let emu = emulated_wave();
        let rx = Receiver::usrp();
        for assumption in [ChannelAssumption::Ideal, ChannelAssumption::Real] {
            let det = Detector::new(assumption).with_threshold(0.25);
            let pipeline = DetectionPipeline::legacy(det);
            assert!(pipeline.feature_names().is_empty());
            for (wave, seed) in [(&zig, 10u64), (&emu, 20)] {
                let w = noisy(wave, 15.0, seed);
                let r = rx.receive(&w);
                let legacy = det.detect(&r).unwrap();
                let input = FeatureInput::with_samples(&r, &w);
                let pv = pipeline.score(&input).unwrap();
                // Only the verdict's DE² is computed: the line search
                // runs for the real-channel statistic alone.
                assert_eq!(
                    input.features.get().is_some(),
                    assumption == ChannelAssumption::Real
                );
                assert_eq!(pv.verdict, legacy, "verdicts must be bit-identical");
                assert_eq!(pv.verdict.de_squared.to_bits(), legacy.de_squared.to_bits());
                assert_eq!(pv.scores, None, "no extractors, no scores");
            }
        }
    }

    #[test]
    fn standard_pipeline_keeps_legacy_decisions() {
        let det = Detector::default().with_threshold(0.25);
        let pipeline = DetectionPipeline::standard(det);
        let w = noisy(&emulated_wave(), 15.0, 3);
        let r = Receiver::usrp().receive(&w);
        let legacy = det.detect(&r).unwrap();
        let pv = pipeline.score(&FeatureInput::with_samples(&r, &w)).unwrap();
        assert_eq!(pv.verdict, legacy);
        let scores = pv.scores.unwrap();
        assert_eq!(scores.features.len(), pipeline.feature_names().len());
        assert_eq!(scores.fused.to_bits(), legacy.de_squared.to_bits());
    }

    #[test]
    fn feature_vector_is_complete_and_finite() {
        let pipeline = DetectionPipeline::standard(Detector::default());
        let w = noisy(&zigbee_wave(), 12.0, 7);
        let r = Receiver::usrp().receive(&w);
        let fv = pipeline
            .extract(&FeatureInput::with_samples(&r, &w))
            .unwrap();
        let names = pipeline.feature_names();
        assert_eq!(fv.names(), names);
        for (name, value) in fv.entries() {
            assert!(value.is_finite(), "{name} = {value}");
        }
        // Waveform-level features are really populated on this path.
        assert!(fv.get("psd_inband").unwrap() > 0.5);
        assert!(fv.get("rssi_db").unwrap().is_finite());
    }

    #[test]
    fn non_finite_samples_make_the_power_features_nan() {
        let wave = Transmitter::new().transmit_payload(b"hello").unwrap();
        let r = Receiver::usrp().receive(&wave);
        let extractors: [&dyn FeatureExtractor; 2] =
            [&SpectralExtractor::default(), &RssiExtractor];
        // Sample 500 sits inside the Welch segments; the last one past
        // them.
        for at in [500, wave.len() - 1] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for feature in ["psd_flatness", "psd_papr_db", "rssi_db", "papr_db"] {
                    let mut samples = wave.clone();
                    samples[at] = Complex::new(bad, 0.0);
                    let input = FeatureInput::with_samples(&r, &samples);
                    let mut fv = FeatureVector::new();
                    for extractor in extractors {
                        extractor.extract(&input, &mut fv);
                    }
                    let value = fv.get(feature).unwrap();
                    assert!(value.is_nan(), "sample {at} = {bad}: {feature} = {value}");
                }
            }
        }
        // Finite samples still give finite evidence.
        let input = FeatureInput::with_samples(&r, &wave);
        let mut fv = FeatureVector::new();
        for extractor in extractors {
            extractor.extract(&input, &mut fv);
        }
        for (name, value) in fv.entries() {
            assert!(value.is_finite(), "{name} = {value}");
        }
    }

    #[test]
    fn empty_reception_errors_like_legacy() {
        let r = Receiver::usrp().receive(&[]);
        for pipeline in [
            DetectionPipeline::legacy(Detector::default()),
            DetectionPipeline::standard(Detector::default()),
        ] {
            let input = FeatureInput::with_samples(&r, &[]);
            assert_eq!(pipeline.score(&input).unwrap_err(), DetectError::NoSamples);
        }
    }

    #[test]
    fn logistic_training_separates_classes() {
        let train = labelled(8, 12.0, 1000);
        let test = labelled(4, 12.0, 9000);
        let clf = train_logistic(&train).unwrap();
        let correct = test
            .iter()
            .filter(|s| clf.decide(&s.features).1 == s.is_attack)
            .count();
        assert!(
            correct >= test.len() - 1,
            "logistic got {correct}/{} right",
            test.len()
        );
    }

    #[test]
    fn stump_training_separates_classes() {
        let train = labelled(8, 12.0, 2000);
        let test = labelled(4, 12.0, 9500);
        let clf = train_stumps(&train, 8).unwrap();
        let correct = test
            .iter()
            .filter(|s| clf.decide(&s.features).1 == s.is_attack)
            .count();
        assert!(
            correct >= test.len() - 1,
            "stumps got {correct}/{} right",
            test.len()
        );
    }

    #[test]
    fn training_rejects_degenerate_sets() {
        assert_eq!(train_logistic(&[]), Err(TrainError::Empty));
        let one_class = vec![LabelledSample {
            features: FeatureVector::new(),
            is_attack: true,
        }];
        assert_eq!(train_logistic(&one_class), Err(TrainError::SingleClass));
        assert_eq!(train_stumps(&one_class, 4), Err(TrainError::SingleClass));
    }

    #[test]
    fn model_files_round_trip() {
        let det = Detector::default().with_threshold(0.25);
        let train = labelled(6, 12.0, 3000);
        for classifier in [
            Classifier::Threshold {
                feature: "de2_ideal".to_string(),
                threshold: 0.25,
            },
            train_logistic(&train).unwrap(),
            train_stumps(&train, 5).unwrap(),
        ] {
            let pipeline = DetectionPipeline::standard(det).with_classifier(classifier.clone());
            let text = pipeline.to_model_string();
            let parsed = DetectionPipeline::from_model_str(&text).unwrap();
            assert_eq!(
                parsed.classifier(),
                &classifier,
                "kind {}",
                classifier.kind()
            );
            assert_eq!(parsed.assumption(), det.assumption());
            // Scores agree exactly after the round trip.
            let sample = &train[0];
            assert_eq!(
                classifier.decide(&sample.features),
                parsed.classifier().decide(&sample.features)
            );
        }
    }

    #[test]
    fn model_parse_rejects_garbage() {
        assert!(DetectionPipeline::from_model_str("").is_err());
        assert!(DetectionPipeline::from_model_str("wrong magic\nend\n").is_err());
        let no_end = format!("{MODEL_MAGIC}\nkind threshold\nfeature de2_ideal\nthreshold 0.5\n");
        assert!(DetectionPipeline::from_model_str(&no_end).is_err());
        let bad_kind = format!("{MODEL_MAGIC}\nkind forest\nend\n");
        assert!(DetectionPipeline::from_model_str(&bad_kind).is_err());
        let misaligned = format!(
            "{MODEL_MAGIC}\nkind logistic\nfeatures de2_ideal c42\nmeans 1\nstds 1 1\nweights 1 1\nbias 0\nend\n"
        );
        let e = DetectionPipeline::from_model_str(&misaligned).unwrap_err();
        assert!(e.message.contains("align"), "{e}");
    }

    #[test]
    fn model_parse_rejects_unknown_feature_names() {
        // One case per key that names a feature; the misspelling sits on
        // line 3 (after the magic and `kind` lines).
        for body in [
            "kind threshold\nfeature de2_idael\nthreshold 0.25",
            "kind logistic\nfeatures c42 de2_idael\nmeans 0 0\nstds 1 1\nweights 1 1\nbias 0",
            "kind stumps\nstump de2_idael 0.25 > 1.0",
        ] {
            let text = format!("{MODEL_MAGIC}\n{body}\nend\n");
            let e = DetectionPipeline::from_model_str(&text).unwrap_err();
            assert_eq!(e.line, 3, "{e}");
            assert!(e.message.contains("\"de2_idael\""), "{e}");
            let fixed = text.replace("idael", "ideal");
            assert!(DetectionPipeline::from_model_str(&fixed).is_ok(), "{fixed}");
        }
    }

    #[test]
    fn non_finite_features_decide_attack_for_every_classifier_kind() {
        let stumps = |greater_is_attack| {
            Classifier::Stumps(StumpEnsemble {
                stumps: vec![Stump {
                    feature: "de2_ideal".into(),
                    threshold: 0.25,
                    greater_is_attack,
                    alpha: 1.0,
                }],
            })
        };
        let classifiers = [
            Classifier::Threshold {
                feature: "de2_ideal".into(),
                threshold: 0.25,
            },
            // A negative weight: +inf would pin the probability to 0.
            Classifier::Logistic(LogisticModel {
                names: vec!["de2_ideal".into()],
                means: vec![0.2],
                stds: vec![0.1],
                weights: vec![-3.0],
                bias: 0.0,
            }),
            stumps(true),
            stumps(false),
        ];
        for classifier in &classifiers {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut fv = FeatureVector::new();
                fv.push("de2_ideal", bad);
                let (score, is_attack) = classifier.decide(&fv);
                assert!(
                    is_attack,
                    "{:?}: de2_ideal = {bad} scored {score} and passed as authentic",
                    classifier
                );
            }
        }
        // Finite values still decide on the threshold.
        let mut fv = FeatureVector::new();
        fv.push("de2_ideal", 0.1);
        assert!(!classifiers[0].decide(&fv).1);
        assert!(!stumps(true).decide(&fv).1);
        assert!(stumps(false).decide(&fv).1);
    }

    #[test]
    fn roc_math_on_separable_scores() {
        let roc = Roc::from_scores(&[0.1, 0.2, 0.15], &[0.8, 0.9, 0.85]);
        assert!((roc.auc - 1.0).abs() < 1e-12);
        assert!(roc.eer() < 1e-12);
        assert!((roc.tpr_at_fpr(0.01) - 1.0).abs() < 1e-12);
        let inverted = Roc::from_scores(&[0.8, 0.9], &[0.1, 0.2]);
        assert!(inverted.auc < 0.1);
        assert!((inverted.oriented_auc() - inverted.auc.max(1.0 - inverted.auc)).abs() < 1e-12);
        let empty = Roc::from_scores(&[], &[1.0]);
        assert_eq!(empty.auc, 0.5);
    }

    #[test]
    fn roc_matches_hand_computed_overlap() {
        // authentic {1,3}, attack {2,4}: AUC = 3/4 by pair counting.
        let roc = Roc::from_scores(&[1.0, 3.0], &[2.0, 4.0]);
        assert!((roc.auc - 0.75).abs() < 1e-12, "auc {}", roc.auc);
    }

    #[test]
    fn feature_input_caches_constellation() {
        let w = noisy(&zigbee_wave(), 15.0, 42);
        let r = Receiver::usrp().receive(&w);
        let input = FeatureInput::with_samples(&r, &w);
        let a = input.constellation().as_ptr();
        let b = input.constellation().as_ptr();
        assert_eq!(a, b, "constellation computed once");
        let features = input.features().unwrap();
        assert_eq!(Some(&features.cumulants), input.cumulants());
        assert_eq!(
            *features,
            Features::estimate(input.constellation()).unwrap()
        );
    }
}
