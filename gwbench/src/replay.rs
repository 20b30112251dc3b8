//! The traced replay: the measured streams' prefix fed, single-threaded,
//! through each layer's public call, with a span around every call.
//!
//! Spans are folded into per-layer totals in memory. A layer's self time
//! is its span minus its children's: the splitter runs its own energy
//! gate inside `push_into`, so the gate is timed standalone on the same
//! chunk and subtracted.

use crate::gen::{GenStream, Pacing, Traffic, SAMPLE_BYTES};
use crate::run::{detector, receiver};
use crate::workload::Workload;
use ctc_core::attack::EnergyDetector;
use ctc_core::defense::{
    standard_extractors, BurstCapture, DetectionPipeline, FeatureInput, FeatureVector, Features,
    MonitorFactory,
};
use ctc_dsp::cumulants::Cumulants;
use ctc_dsp::io::Cf32Reader;
use ctc_dsp::simd::{gated_power_scan, norm_sqr_into, GateScanState};
use ctc_gateway::GatewayConfig;
use std::cell::RefCell;
use std::hint::black_box;
use std::io::{self, Read};
use std::rc::Rc;
use std::time::Instant;

/// Samples per stream the replay covers: a prefix of the measured
/// streams.
pub const REPLAY_SAMPLES: u64 = 16 << 20;

/// Per-extractor metric names, in [`standard_extractors`] order.
pub const EXTRACTORS: [&str; 5] = [
    "pipeline.cumulant_us_per_frame",
    "pipeline.spectral_us_per_frame",
    "pipeline.ofdm_us_per_frame",
    "pipeline.evm_us_per_frame",
    "pipeline.rssi_us_per_frame",
];

/// Per-layer totals over the replay (times in nanoseconds).
#[derive(Debug, Default)]
pub struct Layers {
    pub samples: u64,
    pub chunks: u64,
    /// `Cf32Reader::read_chunk` with the bytes already buffered.
    pub parse_ns: u64,
    /// `EnergyStream::push_each`, standalone.
    pub gate_ns: u64,
    /// `BurstSplitter::push_into` / `finish_into`, gate included.
    pub split_ns: u64,
    /// `ctc_dsp::simd::norm_sqr_into` and `gated_power_scan` kernels.
    pub norm_sqr_ns: u64,
    pub gate_scan_ns: u64,
    pub bursts: u64,
    pub capture_samples: u64,
    /// `FrameProcessor::decode`; the same receiver without its timing
    /// search; payloads that decoded.
    pub decode_ns: u64,
    pub decode_nosearch_ns: u64,
    pub decoded: u64,
    /// `FrameProcessor::classify` without a pipeline (legacy detector).
    pub classify_ns: u64,
    /// Bursts whose reception carried chip samples (the ensemble ran).
    pub frames: u64,
    pub constellation_points: u64,
    pub cumulants_ns: u64,
    pub features_ns: u64,
    /// The shared `FeatureInput` (constellation and features).
    pub input_ns: u64,
    pub extractor_ns: [u64; 5],
    /// `Classifier::decide`.
    pub fuse_ns: u64,
}

impl Layers {
    /// Traced stage costs along the workload's verdict path, summed:
    /// parse → gate → split → decode → classify (legacy, or the ensemble
    /// input, extractors and fusion).
    pub fn stage_sum_ns(&self, features: bool) -> u64 {
        let classify = if features {
            self.input_ns + self.extractor_ns.iter().sum::<u64>() + self.fuse_ns
        } else {
            self.classify_ns
        };
        // The split span already contains the gate, so parse + split
        // covers parse, gate and split self time once each.
        self.parse_ns + self.split_ns + self.decode_ns + classify
    }
}

/// A byte source refilled outside the timed region, so the parse span
/// covers only what `read_chunk` does with bytes already in hand.
#[derive(Clone, Default)]
struct Staged(Rc<RefCell<(Vec<u8>, usize)>>);

impl Read for Staged {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut inner = self.0.borrow_mut();
        let (bytes, pos) = &mut *inner;
        let n = buf.len().min(bytes.len() - *pos);
        buf[..n].copy_from_slice(&bytes[*pos..*pos + n]);
        *pos += n;
        Ok(n)
    }
}

/// Reads from `gen` until `buf` is full or the stream ends.
fn fill(gen: &mut GenStream<'_>, buf: &mut [u8]) -> usize {
    let mut n = 0;
    while n < buf.len() {
        match gen.read(&mut buf[n..]) {
            Ok(0) | Err(_) => break,
            Ok(k) => n += k,
        }
    }
    n
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replays `events[s]` events of each stream `s` of `traffic`.
pub fn replay(w: &Workload, traffic: &Traffic, events: &[u64]) -> Layers {
    let config = GatewayConfig::default();
    let energy: EnergyDetector = config.energy;
    let factory =
        MonitorFactory::new(energy, receiver(), detector()).with_max_burst(config.max_burst);
    let processor = factory.processor();
    let nosearch = receiver().with_sync_search(0);
    let pipeline = DetectionPipeline::standard(detector());
    let extractors = standard_extractors();
    debug_assert_eq!(extractors.len(), EXTRACTORS.len());

    let mut layers = Layers::default();
    let mut chunk = Vec::new();
    let mut captures: Vec<BurstCapture> = Vec::new();
    let mut scratch = Vec::new();
    let mut active = vec![0u8; config.chunk_samples];

    for (index, &n_events) in events.iter().enumerate().take(w.streams) {
        let mut gen = GenStream::new(traffic, index, Pacing::Fixed { events: n_events });
        let staged = Staged::default();
        let mut reader = Cf32Reader::new(staged.clone()).with_chunk_samples(config.chunk_samples);
        let mut gate = energy.stream().with_max_burst(config.max_burst);
        let mut splitter = factory.splitter();
        let mut ring = vec![0.0; energy.window];
        let mut scan = GateScanState {
            slot: 0,
            acc: 0.0,
            floor: 1e-3,
            gate: 4e-3,
            threshold: energy.threshold,
            alpha: 1.0 / 64.0,
            floor_eps: 1e-12,
            inv_w: 1.0 / energy.window as f64,
        };
        loop {
            {
                let mut inner = staged.0.borrow_mut();
                let (bytes, pos) = &mut *inner;
                bytes.resize(config.chunk_samples * SAMPLE_BYTES, 0);
                let n = fill(&mut gen, bytes);
                bytes.truncate(n);
                *pos = 0;
            }
            let t = Instant::now();
            let n = reader
                .read_chunk(&mut chunk)
                .expect("in-memory cf32 of whole samples");
            layers.parse_ns += ns_since(t);
            if n == 0 {
                break;
            }
            layers.samples += n as u64;
            layers.chunks += 1;

            let t = Instant::now();
            let mut found = 0u64;
            gate.push_each(&chunk, |_| found += 1);
            layers.gate_ns += ns_since(t);
            black_box(found);

            let t = Instant::now();
            splitter.push_into(&chunk, &mut captures);
            layers.split_ns += ns_since(t);

            let t = Instant::now();
            norm_sqr_into(&chunk, &mut scratch);
            layers.norm_sqr_ns += ns_since(t);
            black_box(scratch.last());

            let t = Instant::now();
            gated_power_scan(&chunk, &mut ring, &mut scan, &mut active[..n]);
            layers.gate_scan_ns += ns_since(t);
            black_box(active.last());

            classify_all(
                &mut layers,
                &mut captures,
                processor,
                &nosearch,
                &pipeline,
                &extractors,
            );
        }
        let t = Instant::now();
        splitter.finish_into(&mut captures);
        layers.split_ns += ns_since(t);
        classify_all(
            &mut layers,
            &mut captures,
            processor,
            &nosearch,
            &pipeline,
            &extractors,
        );
    }
    layers
}

/// Decodes and classifies every capture both ways, timing each call.
fn classify_all(
    layers: &mut Layers,
    captures: &mut Vec<BurstCapture>,
    processor: &ctc_core::defense::FrameProcessor,
    nosearch: &ctc_zigbee::Receiver,
    pipeline: &DetectionPipeline,
    extractors: &[Box<dyn ctc_core::defense::FeatureExtractor>],
) {
    for capture in captures.drain(..) {
        layers.bursts += 1;
        layers.capture_samples += capture.samples.len() as u64;

        let t = Instant::now();
        let reception = processor.decode(&capture);
        layers.decode_ns += ns_since(t);
        if reception.payload().is_some() {
            layers.decoded += 1;
        }

        let t = Instant::now();
        black_box(nosearch.receive(&capture.samples));
        layers.decode_nosearch_ns += ns_since(t);

        let legacy_input = reception.clone();
        let t = Instant::now();
        black_box(processor.classify(&capture, legacy_input));
        layers.classify_ns += ns_since(t);

        // The ensemble path, one public call at a time. Forcing the shared
        // input first makes every extractor span a self time.
        let input = FeatureInput::with_samples(&reception, &capture.samples);
        let t = Instant::now();
        let has_features = input.features().is_some();
        layers.input_ns += ns_since(t);
        if !has_features {
            continue;
        }
        layers.frames += 1;
        let points = input.constellation();
        layers.constellation_points += points.len() as u64;

        let t = Instant::now();
        black_box(Cumulants::estimate(points).ok());
        layers.cumulants_ns += ns_since(t);
        let t = Instant::now();
        black_box(Features::estimate(points).ok());
        layers.features_ns += ns_since(t);

        let mut fv = FeatureVector::new();
        for (e, extractor) in extractors.iter().enumerate() {
            let t = Instant::now();
            extractor.extract(&input, &mut fv);
            layers.extractor_ns[e] += ns_since(t);
        }
        let t = Instant::now();
        black_box(pipeline.classifier().decide(&fv));
        layers.fuse_ns += ns_since(t);
    }
}
