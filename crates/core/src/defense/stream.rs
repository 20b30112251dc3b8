//! Online deployment of the defense: monitor a continuous sample stream,
//! find frames, decode them, and classify each as authentic or emulated.
//!
//! This is the form a defending ZigBee gateway would actually run: the
//! hypothesis test of Sec. VI-B3 applied per received frame, on top of
//! energy-based frame detection.
//!
//! The module is split into resumable stages so a real gateway can spread
//! them across threads:
//!
//! - [`BurstSplitter`] — ingest side: feeds chunks to an [`EnergyStream`]
//!   and carves out each
//!   completed burst's samples (plus a decode margin), carrying detector
//!   and buffer state across chunk boundaries. O(burst length) memory.
//! - [`FrameProcessor`] — worker side: decodes one captured burst with the
//!   stock 802.15.4 receiver and classifies it with a
//!   [`DetectionPipeline`] (the paper's cumulant detector by default).
//! - [`StreamMonitor`] — both stages inline: `push` chunks, get events.
//!   [`StreamMonitor::scan`] (one-shot, whole recording) is a thin wrapper
//!   over `push` + `finish`, so the two paths cannot drift: any chunking
//!   of a stream yields exactly the events `scan` yields on the whole
//!   buffer.

use crate::attack::listener::{Burst, BurstEnd, EnergyDetector, EnergyStream};
use crate::defense::detector::Verdict;
use crate::defense::pipeline::{DetectionPipeline, FeatureInput, PipelineScores};
use ctc_dsp::{BufferPool, Complex, SampleBuf};
use ctc_zigbee::{Receiver, Reception};
use std::collections::VecDeque;
use std::sync::Arc;

/// One frame-shaped event found in the stream.
#[derive(Debug, Clone)]
pub struct StreamEvent {
    /// Where in the stream the burst sat.
    pub burst: Burst,
    /// Decoded payload, when the frame parsed and passed its FCS.
    pub payload: Option<Vec<u8>>,
    /// The defense verdict (absent when too few chip samples were captured).
    pub verdict: Option<Verdict>,
    /// Full reception diagnostics.
    pub reception: Reception,
    /// True when the burst did not end on a clean idle gap (cut by end of
    /// stream or by the splitter's burst-length cap).
    pub truncated: bool,
    /// Fused score plus per-feature values, present only when the
    /// processor's [`DetectionPipeline`] has extractors (`None` for the
    /// paper's detector, whose events carry the verdict alone).
    pub scores: Option<PipelineScores>,
}

impl StreamEvent {
    /// True when the frame decoded *and* the detector attributed it to the
    /// WiFi attacker — the case a gateway must alarm on, because the
    /// payload was accepted by the stock stack.
    pub fn accepted_forgery(&self) -> bool {
        self.payload.is_some() && self.verdict.map(|v| v.is_attack).unwrap_or(false)
    }
}

/// A completed burst cut out of the stream with its decode margin: the
/// unit of work handed from the ingest stage to a decode worker.
#[derive(Debug, Clone)]
pub struct BurstCapture {
    /// The burst, in absolute stream sample indices.
    pub burst: Burst,
    /// Absolute stream index of `samples[0]` (burst start minus margin).
    pub capture_start: usize,
    /// The burst's samples plus margin on both sides. Drawn from the
    /// splitter's [`BufferPool`]; dropping the capture recycles the buffer.
    pub samples: SampleBuf,
    /// True when the burst was cut (end of stream / burst-length cap).
    pub truncated: bool,
}

/// Ingest stage: resumable burst extraction over an unbounded stream.
///
/// Wraps an [`EnergyStream`] and buffers just enough sample history to
/// hand each completed burst onward with `margin` guard samples on both
/// sides (so detector latency never clips a preamble). A capture is
/// emitted only once its trailing margin has arrived, or at [`finish`],
/// whichever comes first — exactly the margins the one-shot scan applies.
///
/// [`finish`]: BurstSplitter::finish
#[derive(Debug, Clone)]
pub struct BurstSplitter {
    stream: EnergyStream,
    margin: usize,
    /// Sample history; `history[0]` is absolute stream index `base`.
    history: VecDeque<Complex>,
    base: usize,
    /// Completed bursts whose trailing margin has not fully arrived yet.
    pending: VecDeque<(Burst, BurstEnd)>,
    /// Capture buffers come from here (and return on drop downstream).
    pool: BufferPool,
}

impl BurstSplitter {
    /// Splitter with the standard decode margin of two detection windows.
    ///
    /// # Panics
    ///
    /// Panics when `energy.window == 0`.
    pub fn new(energy: EnergyDetector) -> Self {
        BurstSplitter {
            stream: energy.stream(),
            margin: 2 * energy.window,
            history: VecDeque::new(),
            base: 0,
            pending: VecDeque::new(),
            pool: BufferPool::new(),
        }
    }

    /// Draws capture buffers from `pool` instead of a private one — share
    /// the pool with the consuming side so buffers dropped by workers are
    /// reused for the next captures.
    pub fn with_pool(mut self, pool: BufferPool) -> Self {
        self.pool = pool;
        self
    }

    /// The pool capture buffers are drawn from.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Caps burst length (see
    /// [`EnergyStream::with_max_burst`](crate::attack::EnergyStream::with_max_burst)),
    /// bounding this splitter's buffering on continuous transmissions.
    ///
    /// # Panics
    ///
    /// Panics when `max` is below the detector's `min_len`.
    pub fn with_max_burst(mut self, max: usize) -> Self {
        self.stream = self.stream.clone().with_max_burst(max);
        self
    }

    /// The energy-detector configuration in use.
    pub fn energy(&self) -> &EnergyDetector {
        self.stream.config()
    }

    /// Consumes a chunk, returning every capture completed by it.
    pub fn push(&mut self, chunk: &[Complex]) -> Vec<BurstCapture> {
        let mut out = Vec::new();
        self.push_into(chunk, &mut out);
        out
    }

    /// [`push`](Self::push) appending captures to a caller-owned vector —
    /// the streaming form: an ingest loop clears and reuses one vector, so
    /// a quiet chunk costs zero allocations.
    pub fn push_into(&mut self, chunk: &[Complex], out: &mut Vec<BurstCapture>) {
        // Detection first: the energy stream needs no sample history, and
        // knowing where the chunk's bursts sit lets a quiet chunk skip
        // buffering almost all of itself.
        let pending = &mut self.pending;
        self.stream
            .push_each(chunk, |sb| pending.push_back((sb.burst, sb.end_reason)));
        let old_total = self.base + self.history.len();
        let keep_from = self.keep_from(old_total + chunk.len());
        if keep_from >= old_total {
            // Nothing before this chunk can be captured any more: drop the
            // old history outright and buffer only the reachable suffix.
            self.history.clear();
            self.base = keep_from;
            self.history
                .extend(chunk[keep_from - old_total..].iter().copied());
        } else {
            self.history.extend(chunk.iter().copied());
            let drop_n = keep_from.saturating_sub(self.base);
            if drop_n > 0 {
                self.history.drain(..drop_n);
                self.base = keep_from;
            }
        }
        self.flush_ready(out);
    }

    /// Ends the stream: emits every remaining capture (any still-open
    /// burst is closed and marked truncated) and resets the splitter.
    pub fn finish(&mut self) -> Vec<BurstCapture> {
        let mut out = Vec::new();
        self.finish_into(&mut out);
        out
    }

    /// [`finish`](Self::finish) appending captures to a caller-owned vector.
    pub fn finish_into(&mut self, out: &mut Vec<BurstCapture>) {
        if let Some(sb) = self.stream.finish() {
            self.pending.push_back((sb.burst, sb.end_reason));
        }
        let total = self.base + self.history.len();
        while let Some((burst, reason)) = self.pending.pop_front() {
            out.push(self.capture(burst, reason, total));
        }
        self.history.clear();
        self.base = 0;
    }

    /// Emits pending captures whose trailing margin has fully arrived.
    fn flush_ready(&mut self, out: &mut Vec<BurstCapture>) {
        let total = self.base + self.history.len();
        while let Some(&(burst, reason)) = self.pending.front() {
            if burst.end + self.margin > total {
                break;
            }
            self.pending.pop_front();
            out.push(self.capture(burst, reason, total));
        }
    }

    /// Cuts one capture out of the history buffer, into a pooled buffer.
    fn capture(&self, burst: Burst, reason: BurstEnd, total: usize) -> BurstCapture {
        let capture_start = burst.start.saturating_sub(self.margin);
        let capture_end = (burst.end + self.margin).min(total);
        debug_assert!(capture_start >= self.base, "history trimmed too far");
        let lo = capture_start - self.base;
        let hi = lo + (capture_end - capture_start);
        let mut samples = self.pool.checkout(hi - lo);
        let (front, back) = self.history.as_slices();
        if lo < front.len() {
            samples.extend_from_slice(&front[lo..hi.min(front.len())]);
        }
        if hi > front.len() {
            samples.extend_from_slice(&back[lo.saturating_sub(front.len())..hi - front.len()]);
        }
        BurstCapture {
            burst,
            capture_start,
            samples,
            truncated: reason != BurstEnd::Gap,
        }
    }

    /// First stream index any future capture can still reach once `total`
    /// samples have been consumed: the oldest of (pending captures, the
    /// open burst, the margin horizon behind the read position). History
    /// before it is dead.
    fn keep_from(&self, total: usize) -> usize {
        let horizon = total.saturating_sub(self.margin + self.energy().window + self.energy().hang);
        let mut keep_from = horizon;
        if let Some(&(burst, _)) = self.pending.front() {
            keep_from = keep_from.min(burst.start.saturating_sub(self.margin));
        }
        if let Some(open) = self.stream.open_burst_start() {
            keep_from = keep_from.min(open.saturating_sub(self.margin));
        }
        keep_from
    }
}

/// Worker stage: decode + classify one captured burst.
#[derive(Debug, Clone)]
pub struct FrameProcessor {
    receiver: Receiver,
    pipeline: Arc<DetectionPipeline>,
}

impl FrameProcessor {
    /// Builds the stage from its receiver and its classifier: a
    /// [`Detector`](crate::defense::Detector) (the paper's test, as
    /// [`DetectionPipeline::legacy`]) or any shared pipeline.
    pub fn new(receiver: Receiver, pipeline: impl Into<Arc<DetectionPipeline>>) -> Self {
        FrameProcessor {
            receiver,
            pipeline: pipeline.into(),
        }
    }

    /// Runs the stock receiver and the detection pipeline on one capture.
    pub fn process(&self, capture: &BurstCapture) -> StreamEvent {
        let reception = self.decode(capture);
        self.classify(capture, reception)
    }

    /// Stage 1: the stock 802.15.4 receiver over the capture. Split from
    /// [`classify`](Self::classify) so a pipeline can time each stage.
    pub fn decode(&self, capture: &BurstCapture) -> Reception {
        self.receiver.receive(&capture.samples)
    }

    /// Stage 2: the hypothesis test, folded into the final event.
    pub fn classify(&self, capture: &BurstCapture, reception: Reception) -> StreamEvent {
        let payload = reception.payload().map(<[u8]>::to_vec);
        let input = FeatureInput::with_samples(&reception, &capture.samples);
        let (verdict, scores) = match self.pipeline.score(&input) {
            Ok(pv) => (Some(pv.verdict), pv.scores),
            Err(_) => (None, None),
        };
        StreamEvent {
            burst: capture.burst,
            payload,
            verdict,
            reception,
            truncated: capture.truncated,
            scores,
        }
    }
}

/// Mints per-session monitor state for a multi-stream gateway: each
/// session needs its own [`BurstSplitter`] (detector floor, open burst,
/// margin history are per-stream), while the [`FrameProcessor`] and the
/// capture [`BufferPool`] are safely shared across every session.
///
/// A server holds one factory and calls [`splitter`](Self::splitter) per
/// accepted connection; buffers dropped by any session's workers are
/// recycled into the next capture of *any* session.
#[derive(Debug, Clone)]
pub struct MonitorFactory {
    energy: EnergyDetector,
    processor: FrameProcessor,
    pool: BufferPool,
    max_burst: Option<usize>,
}

impl MonitorFactory {
    /// Builds the factory from the shared stage configuration (see
    /// [`FrameProcessor::new`] for the classifier).
    pub fn new(
        energy: EnergyDetector,
        receiver: Receiver,
        pipeline: impl Into<Arc<DetectionPipeline>>,
    ) -> Self {
        MonitorFactory {
            energy,
            processor: FrameProcessor::new(receiver, pipeline),
            pool: BufferPool::new(),
            max_burst: None,
        }
    }

    /// Draws every session's capture buffers from `pool` instead of a
    /// private one.
    pub fn with_pool(mut self, pool: BufferPool) -> Self {
        self.pool = pool;
        self
    }

    /// Caps burst length for every minted splitter (see
    /// [`BurstSplitter::with_max_burst`]).
    pub fn with_max_burst(mut self, max: usize) -> Self {
        self.max_burst = Some(max);
        self
    }

    /// The shared capture-buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The shared worker-side stage (clone is cheap; decode/classify hold
    /// no per-stream state).
    pub fn processor(&self) -> &FrameProcessor {
        &self.processor
    }

    /// A fresh ingest stage for one session, drawing from the shared pool.
    ///
    /// # Panics
    ///
    /// Panics when `energy.window == 0`, or when a configured max burst is
    /// below the detector's `min_len` (both are configuration errors the
    /// gateway's builder rejects earlier).
    pub fn splitter(&self) -> BurstSplitter {
        let splitter = BurstSplitter::new(self.energy).with_pool(self.pool.clone());
        match self.max_burst {
            Some(max) => splitter.with_max_burst(max),
            None => splitter,
        }
    }
}

/// A configured stream monitor: burst splitting plus decode/classify, in
/// one resumable object.
#[derive(Debug, Clone)]
pub struct StreamMonitor {
    splitter: BurstSplitter,
    processor: FrameProcessor,
}

impl StreamMonitor {
    /// Builds a monitor from its three stages (see [`FrameProcessor::new`]
    /// for the classifier).
    pub fn new(
        energy: EnergyDetector,
        receiver: Receiver,
        pipeline: impl Into<Arc<DetectionPipeline>>,
    ) -> Self {
        StreamMonitor {
            splitter: BurstSplitter::new(energy),
            processor: FrameProcessor::new(receiver, pipeline),
        }
    }

    /// Defaults: standard energy detector, hard-decision receiver with a
    /// 96-sample timing search, the given detector or pipeline.
    pub fn with_detector(detector: impl Into<Arc<DetectionPipeline>>) -> Self {
        StreamMonitor::new(
            EnergyDetector::default(),
            Receiver::usrp().with_sync_search(96),
            detector,
        )
    }

    /// Consumes the next chunk of the stream, returning one event per
    /// burst completed inside it. State (detector floor, open bursts,
    /// margin buffering) carries across calls: a frame split over any
    /// number of chunks decodes exactly as if the stream arrived at once.
    pub fn push(&mut self, chunk: &[Complex]) -> Vec<StreamEvent> {
        self.splitter
            .push(chunk)
            .iter()
            .map(|c| self.processor.process(c))
            .collect()
    }

    /// Ends the stream: flushes any open burst (marked truncated) and
    /// resets the monitor for a new stream.
    pub fn finish(&mut self) -> Vec<StreamEvent> {
        self.splitter
            .finish()
            .iter()
            .map(|c| self.processor.process(c))
            .collect()
    }

    /// Scans a whole recording, returning one event per detected burst.
    ///
    /// Thin wrapper over [`push`](Self::push) + [`finish`](Self::finish)
    /// on a fresh session — byte-for-byte the streaming code path.
    pub fn scan(&self, stream: &[Complex]) -> Vec<StreamEvent> {
        let mut session = StreamMonitor {
            splitter: BurstSplitter::new(*self.splitter.energy()),
            processor: self.processor.clone(),
        };
        let mut events = session.push(stream);
        events.extend(session.finish());
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::Emulator;
    use crate::defense::{ChannelAssumption, Detector};
    use ctc_channel::noise::complex_gaussian;
    use ctc_zigbee::Transmitter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn monitor() -> StreamMonitor {
        StreamMonitor::with_detector(Detector::new(ChannelAssumption::Ideal).with_threshold(0.25))
    }

    fn build_stream(seed: u64) -> (Vec<Complex>, usize) {
        // noise | authentic frame | noise | forged frame | noise
        let mut rng = StdRng::seed_from_u64(seed);
        let sigma2 = 1e-3;
        let authentic = Transmitter::new().transmit_payload(b"00000").unwrap();
        let emulator = Emulator::new();
        let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
        let mut stream = Vec::new();
        let mut noise = |n: usize, stream: &mut Vec<Complex>| {
            stream.extend((0..n).map(|_| complex_gaussian(&mut rng, sigma2)));
        };
        noise(600, &mut stream);
        stream.extend_from_slice(&authentic);
        noise(600, &mut stream);
        let forged_at = stream.len();
        stream.extend_from_slice(&forged);
        noise(600, &mut stream);
        (stream, forged_at)
    }

    fn assert_events_equal(a: &[StreamEvent], b: &[StreamEvent], context: &str) {
        assert_eq!(a.len(), b.len(), "{context}: event count");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.burst, y.burst, "{context}: burst");
            assert_eq!(x.payload, y.payload, "{context}: payload");
            assert_eq!(x.truncated, y.truncated, "{context}: truncated");
            match (x.verdict, y.verdict) {
                (Some(vx), Some(vy)) => {
                    assert_eq!(vx.is_attack, vy.is_attack, "{context}: verdict");
                    assert_eq!(vx.de_squared, vy.de_squared, "{context}: DE²");
                }
                (None, None) => {}
                other => panic!("{context}: verdict presence differs: {other:?}"),
            }
        }
    }

    /// Pushing a stream in chunks of any size yields exactly the events of
    /// a whole-buffer scan — the gateway's correctness property.
    #[test]
    fn push_is_chunking_invariant() {
        let (stream, _) = build_stream(1);
        let reference = monitor().scan(&stream);
        assert_eq!(reference.len(), 2);
        for chunk_size in [1usize, 63, 256, 1000, 4096, stream.len()] {
            let mut m = monitor();
            let mut events = Vec::new();
            for chunk in stream.chunks(chunk_size) {
                events.extend(m.push(chunk));
            }
            events.extend(m.finish());
            assert_events_equal(&events, &reference, &format!("chunk size {chunk_size}"));
        }
    }

    #[test]
    fn finds_and_classifies_both_frames() {
        let (stream, forged_at) = build_stream(1);
        let events = monitor().scan(&stream);
        assert_eq!(events.len(), 2, "events: {:?}", events.len());
        let (first, second) = (&events[0], &events[1]);
        assert_eq!(first.payload.as_deref(), Some(&b"00000"[..]));
        assert_eq!(second.payload.as_deref(), Some(&b"00000"[..]));
        assert!(!first.verdict.unwrap().is_attack, "authentic flagged");
        assert!(second.verdict.unwrap().is_attack, "forgery missed");
        assert!(second.burst.start >= forged_at - 64);
        assert!(!first.accepted_forgery());
        assert!(second.accepted_forgery());
    }

    #[test]
    fn empty_stream_no_events() {
        assert!(monitor().scan(&[]).is_empty());
    }

    #[test]
    fn noise_only_no_events() {
        let mut rng = StdRng::seed_from_u64(2);
        let noise: Vec<Complex> = (0..5000)
            .map(|_| complex_gaussian(&mut rng, 1e-3))
            .collect();
        assert!(monitor().scan(&noise).is_empty());
    }

    /// A frame split exactly at a chunk boundary still decodes.
    #[test]
    fn frame_split_at_chunk_boundary_decodes() {
        let (stream, forged_at) = build_stream(3);
        let reference = monitor().scan(&stream);
        assert_eq!(reference.len(), 2);
        // Boundaries inside the first frame, at the forged frame's first
        // sample, and inside the forged frame.
        for boundary in [900usize, forged_at, forged_at + 500] {
            let mut m = monitor();
            let mut events = m.push(&stream[..boundary]);
            events.extend(m.push(&stream[boundary..]));
            events.extend(m.finish());
            assert_events_equal(&events, &reference, &format!("boundary {boundary}"));
            assert_eq!(events[0].payload.as_deref(), Some(&b"00000"[..]));
            assert_eq!(events[1].payload.as_deref(), Some(&b"00000"[..]));
        }
    }

    /// Two frames closer together than the decode margin: both bursts are
    /// found, their (overlapping) captures both decode, and the streaming
    /// path agrees with the one-shot scan.
    #[test]
    fn back_to_back_frames_with_overlapping_margins() {
        let mut rng = StdRng::seed_from_u64(4);
        let sigma2 = 1e-3;
        let frame = Transmitter::new().transmit_payload(b"00000").unwrap();
        // Default window 16 => margin 32. A 30-sample gap is closer than
        // the margin, but wide enough (with hang 8) to split the bursts.
        let energy = EnergyDetector {
            hang: 8,
            ..EnergyDetector::default()
        };
        let gap = 30usize;
        let mut stream: Vec<Complex> = (0..600)
            .map(|_| complex_gaussian(&mut rng, sigma2))
            .collect();
        stream.extend_from_slice(&frame);
        stream.extend((0..gap).map(|_| complex_gaussian(&mut rng, sigma2)));
        stream.extend_from_slice(&frame);
        stream.extend((0..600).map(|_| complex_gaussian(&mut rng, sigma2)));

        let m = StreamMonitor::new(
            energy,
            Receiver::usrp().with_sync_search(96),
            Detector::new(ChannelAssumption::Ideal).with_threshold(0.25),
        );
        let reference = m.scan(&stream);
        assert_eq!(reference.len(), 2, "both bursts found: {reference:?}");
        for e in &reference {
            assert_eq!(e.payload.as_deref(), Some(&b"00000"[..]));
            assert!(!e.verdict.unwrap().is_attack);
        }
        let gap_between = reference[1].burst.start - reference[0].burst.end;
        assert!(
            gap_between < 2 * 2 * energy.window,
            "captures overlap (gap {gap_between})"
        );
        for chunk_size in [17usize, 256, 2048] {
            let mut session = m.clone();
            let mut events = Vec::new();
            for chunk in stream.chunks(chunk_size) {
                events.extend(session.push(chunk));
            }
            events.extend(session.finish());
            assert_events_equal(&events, &reference, &format!("chunk size {chunk_size}"));
        }
    }

    /// A burst cut off by end-of-stream is still reported, marked
    /// truncated, identically for scan and push.
    #[test]
    fn burst_truncated_by_end_of_stream() {
        let (stream, forged_at) = build_stream(5);
        let cut = forged_at + 400; // mid-frame
        let reference = monitor().scan(&stream[..cut]);
        assert_eq!(reference.len(), 2, "events: {reference:?}");
        assert!(!reference[0].truncated);
        assert!(reference[1].truncated, "cut burst marked truncated");
        assert!(reference[1].burst.end <= cut);
        assert_eq!(reference[1].payload, None, "a partial frame cannot parse");

        let mut m = monitor();
        let mut events = Vec::new();
        for chunk in stream[..cut].chunks(97) {
            events.extend(m.push(chunk));
        }
        events.extend(m.finish());
        assert_events_equal(&events, &reference, "truncated stream");
    }

    /// finish() resets the monitor: a second stream through the same
    /// monitor sees none of the first stream's state.
    #[test]
    fn finish_resets_for_reuse() {
        let (stream, _) = build_stream(6);
        let mut m = monitor();
        let mut first = m.push(&stream);
        first.extend(m.finish());
        let mut second = m.push(&stream);
        second.extend(m.finish());
        assert_events_equal(&first, &second, "reused monitor");
    }

    /// The splitter alone: captures carry the margin and absolute offsets.
    #[test]
    fn splitter_capture_geometry() {
        let (stream, _) = build_stream(7);
        let mut splitter = BurstSplitter::new(EnergyDetector::default());
        let mut captures = splitter.push(&stream);
        captures.extend(splitter.finish());
        assert_eq!(captures.len(), 2);
        let margin = 2 * EnergyDetector::default().window;
        for c in &captures {
            assert_eq!(c.capture_start, c.burst.start - margin);
            assert_eq!(c.samples.len(), c.burst.len() + 2 * margin);
            assert!(!c.truncated);
            // The capture really is that slice of the stream.
            let expected = &stream[c.capture_start..c.capture_start + c.samples.len()];
            assert_eq!(&c.samples[..], expected);
        }
    }

    /// A factory mints independent per-session splitters that share one
    /// pool: sessions do not see each other's stream state, but buffers
    /// dropped by one session recycle into the other's captures.
    #[test]
    fn factory_sessions_are_isolated_but_share_the_pool() {
        let (stream, _) = build_stream(9);
        let detector = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
        let receiver = Receiver::usrp().with_sync_search(96);
        let factory = MonitorFactory::new(EnergyDetector::default(), receiver.clone(), detector);
        let reference =
            StreamMonitor::new(EnergyDetector::default(), receiver, detector).scan(&stream);
        assert_eq!(reference.len(), 2);

        // Two interleaved sessions each reproduce the scan exactly.
        let mut a = factory.splitter();
        let mut b = factory.splitter();
        let mut captures_a = Vec::new();
        let mut captures_b = Vec::new();
        for chunk in stream.chunks(512) {
            a.push_into(chunk, &mut captures_a);
            b.push_into(chunk, &mut captures_b);
        }
        a.finish_into(&mut captures_a);
        b.finish_into(&mut captures_b);
        let events_a: Vec<StreamEvent> = captures_a
            .iter()
            .map(|c| factory.processor().process(c))
            .collect();
        let events_b: Vec<StreamEvent> = captures_b
            .iter()
            .map(|c| factory.processor().process(c))
            .collect();
        assert_events_equal(&events_a, &reference, "session a");
        assert_events_equal(&events_b, &reference, "session b");

        // Dropping one session's captures feeds the next session's pool.
        let misses = factory.pool().misses();
        drop(captures_a);
        drop(captures_b);
        let mut c = factory.splitter();
        let mut captures_c = c.push(&stream);
        c.finish_into(&mut captures_c);
        assert_eq!(captures_c.len(), 2);
        assert_eq!(factory.pool().misses(), misses, "third session is all hits");
    }

    /// Capture buffers recycle through a shared pool: once the first
    /// stream's captures are dropped, a second stream's captures are all
    /// pool hits (no fresh allocations).
    #[test]
    fn splitter_captures_recycle_through_shared_pool() {
        let (stream, _) = build_stream(8);
        let pool = ctc_dsp::BufferPool::new();
        let mut captures = Vec::new();
        let mut splitter = BurstSplitter::new(EnergyDetector::default()).with_pool(pool.clone());
        splitter.push_into(&stream, &mut captures);
        splitter.finish_into(&mut captures);
        assert_eq!(captures.len(), 2);
        let misses_first = pool.misses();
        assert!(misses_first > 0, "first pass allocates");
        captures.clear(); // drop -> buffers return to the pool
        splitter.push_into(&stream, &mut captures);
        splitter.finish_into(&mut captures);
        assert_eq!(captures.len(), 2);
        assert_eq!(pool.misses(), misses_first, "second pass is all hits");
        assert!(pool.hits() >= 2);
    }
}
