//! Deterministic generation of the golden corpus: one canonical artifact per
//! pipeline stage, TX → emulation → channel → RX features → gateway events.
//!
//! Every stochastic stage derives its RNG stream with the same splitmix
//! per-index scheme the Monte-Carlo engine uses ([`ctc_bench::engine`]), so
//! the corpus is a pure function of [`CorpusSpec`]: regenerate with the same
//! spec and every sample is bit-identical. Digital stages (chip sequences)
//! are stored bit-exact; float DSP stages carry ULP or epsilon bands wide
//! enough for legitimate instruction-reordering drift (compiler upgrades,
//! FMA contraction) but far too tight for an algorithmic change to slip
//! through.

use crate::format::{Payload, Tolerance, Vector};
use ctc_bench::engine::splitmix;
use ctc_channel::impairments::apply_cfo;
use ctc_channel::noise::complex_gaussian;
use ctc_channel::Link;
use ctc_core::attack::Emulator;
use ctc_core::defense::{
    features_from_reception, ChannelAssumption, DetectionPipeline, Detector, FeatureInput,
};
use ctc_core::Error;
use ctc_dsp::io::write_cf32;
use ctc_dsp::Complex;
use ctc_gateway::{GatewayConfig, GatewayServer, NamedStream, ServerConfig};
use ctc_obs::json::{self, JsonValue};
use ctc_wifi::WifiTransmitter;
use ctc_zigbee::frame::build_frame_symbols;
use ctc_zigbee::{Receiver, Transmitter};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default corpus seed. Arbitrary but fixed; changing it regenerates a
/// different (equally valid) corpus, so treat it like a file format version.
pub const CORPUS_SEED: u64 = 0xC7C5_EED5;

/// ZigBee sample rate the capture path runs at.
const ZIGBEE_RATE_HZ: f64 = 4.0e6;

/// Everything the corpus is a function of.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Master seed; per-stage streams are `splitmix(seed, stage)`.
    pub seed: u64,
    /// ZigBee MAC payload carried through every stage.
    pub payload: Vec<u8>,
    /// AWGN level of the impaired-channel stage.
    pub snr_db: f64,
    /// Carrier-frequency offset of the impaired-channel stage.
    pub cfo_hz: f64,
    /// Static phase offset of the impaired-channel stage.
    pub phase_rad: f64,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            seed: CORPUS_SEED,
            payload: b"00000".to_vec(),
            snr_db: 15.0,
            cfo_hz: 400.0,
            phase_rad: 0.3,
        }
    }
}

impl CorpusSpec {
    /// Same corpus, different master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Stage names in generation order; `generate` produces exactly these.
pub const STAGE_NAMES: [&str; 10] = [
    "zigbee_chips",
    "zigbee_waveform",
    "wifi_ofdm_frame",
    "wifi_emulated",
    "emulation_meta",
    "captured_4mhz",
    "channel_impaired",
    "features",
    "gateway_events",
    "pipeline_features",
];

/// Runs the whole pipeline once and snapshots every stage.
///
/// # Errors
///
/// Propagates framing, emulation, and feature-extraction failures as
/// [`ctc_core::Error`]; none occur for a valid spec.
pub fn generate(spec: &CorpusSpec) -> Result<Vec<Vector>, Error> {
    let mut vectors = Vec::with_capacity(STAGE_NAMES.len());

    // Stage 0 — ZigBee chip sequence (digital, bit-exact).
    let symbols = build_frame_symbols(&spec.payload)?;
    let chips = Transmitter::new().symbols_to_chips(&symbols);
    vectors.push(Vector {
        name: STAGE_NAMES[0].into(),
        tolerance: Tolerance::Exact,
        payload: Payload::Bytes(chips),
    });

    // Stage 1 — authentic ZigBee O-QPSK baseband. Pure half-sine shaping;
    // a few ULPs of slack for transcendental-library drift.
    let zigbee_waveform = Transmitter::new().transmit_payload(&spec.payload)?;
    vectors.push(Vector {
        name: STAGE_NAMES[1].into(),
        tolerance: Tolerance::Ulps(16),
        payload: Payload::Samples(zigbee_waveform.clone()),
    });

    // Stage 2 — a standard-compliant WiFi frame carrying the same payload
    // (scramble → encode → interleave → QAM → IFFT chain).
    let wifi_frame = WifiTransmitter::new()
        .transmit_frame(&spec.payload)
        .map_err(|e| Error::Other(format!("wifi frame: {e}")))?;
    vectors.push(Vector {
        name: STAGE_NAMES[2].into(),
        tolerance: Tolerance::Ulps(64),
        payload: Payload::Samples(wifi_frame),
    });

    // Stages 3–5 — the attack: emulate the ZigBee waveform with WiFi OFDM,
    // then what a ZigBee front end captures of it. FFT round trips
    // accumulate more error than shaping, hence epsilon bands.
    let emulator = Emulator::new();
    let emulation = emulator.emulate(&zigbee_waveform);
    vectors.push(Vector {
        name: STAGE_NAMES[3].into(),
        tolerance: Tolerance::Absolute(1e-9),
        payload: Payload::Samples(emulation.waveform_20mhz.clone()),
    });

    let mut meta = vec![
        emulation.alpha,
        emulation.quantization_error,
        emulation.wifi_symbol_count() as f64,
    ];
    meta.extend(emulation.kept_bins.iter().map(|&b| b as f64));
    vectors.push(Vector {
        name: STAGE_NAMES[4].into(),
        tolerance: Tolerance::Absolute(1e-9),
        payload: Payload::Scalars(meta),
    });

    let captured = emulator.received_at_zigbee(&emulation);
    vectors.push(Vector {
        name: STAGE_NAMES[5].into(),
        tolerance: Tolerance::Absolute(1e-9),
        payload: Payload::Samples(captured.clone()),
    });

    // Stage 6 — the captured forgery through an impaired channel: CFO +
    // phase offset, then AWGN from this stage's splitmix stream.
    let mut rng = StdRng::seed_from_u64(splitmix(spec.seed, 6));
    let impaired = Link::awgn(spec.snr_db).transmit(
        &apply_cfo(&captured, spec.cfo_hz, ZIGBEE_RATE_HZ, spec.phase_rad),
        &mut rng,
    );
    vectors.push(Vector {
        name: STAGE_NAMES[6].into(),
        tolerance: Tolerance::Absolute(1e-9),
        payload: Payload::Samples(impaired.clone()),
    });

    // Stage 7 — detector feature triples (Ĉ40, Ĉ42, DE²…) for the
    // authentic waveform, the clean forgery, and the impaired forgery.
    let receiver = Receiver::usrp();
    let mut feats = Vec::with_capacity(3 * 8);
    for wave in [&zigbee_waveform, &captured, &impaired] {
        let f = features_from_reception(&receiver.receive(wave))
            .map_err(|e| Error::Other(format!("features: {e}")))?;
        feats.extend_from_slice(&[
            f.cumulants.c40.re,
            f.cumulants.c40.im,
            f.c40_magnitude,
            f.cumulants.c42,
            f.line_frequency,
            f.cumulants.sample_count as f64,
            f.de_squared_ideal(),
            f.de_squared_real(),
        ]);
    }
    vectors.push(Vector {
        name: STAGE_NAMES[7].into(),
        tolerance: Tolerance::Absolute(1e-6),
        payload: Payload::Scalars(feats),
    });

    // Stage 8 — the gateway's JSONL event stream over a synthetic capture
    // (noise | authentic | noise | forgery | noise), latency fields
    // stripped because wall-clock timing is the one nondeterministic part.
    let events = gateway_events(spec, &zigbee_waveform, &captured)?;
    vectors.push(Vector {
        name: STAGE_NAMES[8].into(),
        tolerance: Tolerance::Absolute(1e-6),
        payload: Payload::Text(events),
    });

    // Stage 9 — the ensemble pipeline's full named feature vector (16
    // entries per waveform, in `DetectionPipeline::feature_names` order)
    // for the same three waveforms stage 7 fingerprints. Pins the
    // extractor set of the pluggable detector: adding, removing, or
    // reordering a feature diverges here before any classifier metric
    // moves.
    let pipeline = DetectionPipeline::standard(Detector::new(ChannelAssumption::Ideal));
    let mut pipeline_feats = Vec::with_capacity(3 * pipeline.feature_names().len());
    for wave in [&zigbee_waveform, &captured, &impaired] {
        let reception = receiver.receive(wave);
        let input = FeatureInput::with_samples(&reception, wave);
        let fv = pipeline
            .extract(&input)
            .map_err(|e| Error::Other(format!("pipeline features: {e}")))?;
        pipeline_feats.extend(fv.entries().iter().map(|(_, v)| *v));
    }
    vectors.push(Vector {
        name: STAGE_NAMES[9].into(),
        tolerance: Tolerance::Absolute(1e-6),
        payload: Payload::Scalars(pipeline_feats),
    });

    Ok(vectors)
}

/// Streams a synthetic capture through the gateway and returns the
/// normalized JSONL event stream.
fn gateway_events(
    spec: &CorpusSpec,
    authentic: &[Complex],
    forged: &[Complex],
) -> Result<String, Error> {
    let mut rng = StdRng::seed_from_u64(splitmix(spec.seed, 8));
    let sigma2 = 1e-3;
    let mut stream: Vec<Complex> = Vec::new();
    let mut noise = |n: usize, stream: &mut Vec<Complex>| {
        stream.extend((0..n).map(|_| complex_gaussian(&mut rng, sigma2)));
    };
    noise(700, &mut stream);
    stream.extend_from_slice(authentic);
    noise(700, &mut stream);
    stream.extend_from_slice(forged);
    noise(700, &mut stream);

    let mut bytes = Vec::new();
    write_cf32(&mut bytes, &stream)?;

    let config = GatewayConfig {
        workers: 1,
        stats_interval: None,
        pipeline: Detector::new(ChannelAssumption::Ideal)
            .with_threshold(0.25)
            .into(),
        ..GatewayConfig::default()
    };
    let mut events = Vec::new();
    // The corpus pins the single-stream output shape: one unlabelled
    // stream, as `ctc monitor --input` runs a recording.
    GatewayServer::new(ServerConfig::from(config))
        .run_streams(
            vec![NamedStream::unlabelled(&bytes[..])],
            &mut events,
            &mut Vec::new(),
        )
        .map_err(|e| Error::Other(format!("gateway run: {e}")))?;
    let events = String::from_utf8(events)
        .map_err(|e| Error::Other(format!("gateway events not utf-8: {e}")))?;
    normalize_events(&events)
}

/// Drops the wall-clock `latency` object from every JSONL event and
/// re-renders; everything else the gateway emits is deterministic.
pub fn normalize_events(events: &str) -> Result<String, Error> {
    let mut out = String::new();
    for (i, line) in events.lines().enumerate() {
        let parsed =
            json::parse(line).map_err(|e| Error::Other(format!("gateway event line {i}: {e}")))?;
        let stripped = match parsed {
            JsonValue::Object(fields) => {
                JsonValue::Object(fields.into_iter().filter(|(k, _)| k != "latency").collect())
            }
            other => other,
        };
        out.push_str(&stripped.render());
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::compare;

    #[test]
    fn generation_is_deterministic() {
        let spec = CorpusSpec::default();
        let a = generate(&spec).unwrap();
        let b = generate(&spec).unwrap();
        assert_eq!(a.len(), STAGE_NAMES.len());
        for (x, y) in a.iter().zip(&b) {
            // Bit-identical regeneration: checksum equality covers every
            // payload byte, compare() confirms zero measured deviation.
            assert_eq!(x.checksum(), y.checksum(), "{}", x.name);
            let report = compare(x, y).unwrap();
            assert_eq!(report.max_abs, 0.0, "{}", x.name);
            assert_eq!(report.max_ulps, 0, "{}", x.name);
        }
    }

    #[test]
    fn stage_names_and_kinds_are_stable() {
        let vectors = generate(&CorpusSpec::default()).unwrap();
        let names: Vec<&str> = vectors.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, STAGE_NAMES);
        assert!(matches!(vectors[0].payload, Payload::Bytes(_)));
        assert!(matches!(vectors[4].payload, Payload::Scalars(_)));
        assert!(matches!(vectors[8].payload, Payload::Text(_)));
        assert!(matches!(vectors[9].payload, Payload::Scalars(_)));
        for v in &vectors {
            assert!(!v.payload.is_empty(), "{} is empty", v.name);
        }
    }

    #[test]
    fn different_seed_changes_stochastic_stages_only() {
        let a = generate(&CorpusSpec::default()).unwrap();
        let b = generate(&CorpusSpec::default().with_seed(1)).unwrap();
        // Deterministic TX/attack stages are seed-independent.
        for i in [0usize, 1, 2, 3, 4, 5] {
            assert_eq!(a[i].checksum(), b[i].checksum(), "{}", a[i].name);
        }
        // The AWGN stage must differ.
        assert_ne!(a[6].checksum(), b[6].checksum());
    }

    #[test]
    fn gateway_stage_sees_both_frames_without_latency() {
        let vectors = generate(&CorpusSpec::default()).unwrap();
        let Payload::Text(events) = &vectors[8].payload else {
            panic!("gateway stage should be text")
        };
        let frames: Vec<&str> = events
            .lines()
            .filter(|l| l.contains("\"type\":\"frame\""))
            .collect();
        assert_eq!(frames.len(), 2, "events:\n{events}");
        assert!(events.contains("\"verdict\":\"authentic\""));
        assert!(events.contains("\"verdict\":\"attack\""));
        assert!(!events.contains("latency"), "latency must be stripped");
    }

    #[test]
    fn pipeline_stage_carries_full_feature_vector_for_three_waveforms() {
        let vectors = generate(&CorpusSpec::default()).unwrap();
        let Payload::Scalars(feats) = &vectors[9].payload else {
            panic!("pipeline stage should be scalars")
        };
        let width = DetectionPipeline::standard(Detector::new(ChannelAssumption::Ideal))
            .feature_names()
            .len();
        assert_eq!(feats.len(), 3 * width, "3 waveforms × {width} features");
        assert!(feats.iter().all(|v| v.is_finite()), "features: {feats:?}");
    }

    #[test]
    fn normalize_is_idempotent() {
        let vectors = generate(&CorpusSpec::default()).unwrap();
        let Payload::Text(events) = &vectors[8].payload else {
            panic!("text stage")
        };
        assert_eq!(&normalize_events(events).unwrap(), events);
    }
}
