//! The traffic generator: seeded cf32 streams replayed from the loadgen
//! templates, with the ground truth of every burst they carry.
//!
//! A stream is `gap, burst, gap, burst, …, gap`, the burst kinds cycling
//! over a seeded 6:2:2 authentic:forged:noise schedule. Bytes are copied
//! straight out of the four pre-rendered templates, so a `read` is a
//! memcpy and the generator adds no threads: the gateway's own session
//! threads call it.
//!
//! Two pacing modes:
//! - paced, for the measured run: samples are released in fixed slices on
//!   an absolute schedule (slice `k` is due once its last sample has been
//!   "received"), and a read that finds nothing released sleeps until the
//!   next slice is due;
//! - fixed, for the traced replay: every `read` is served at once.

use ctc_loadgen::{EventKind, FleetSpec, TrafficModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Bytes per cf32 sample.
pub const SAMPLE_BYTES: usize = 8;

/// Release slice of the paced streams: 16,384 samples, 4.096 ms at
/// 4 Msamples/s. Coarse on purpose, so generator wake-ups stay rare.
pub const SLICE_SAMPLES: u64 = 16_384;

/// Blocks of ten kinds per stream before the schedule repeats.
const SCHEDULE_BLOCKS: usize = 50;

/// One block of the loadgen's 6:2:2 authentic:forged:noise mix.
const BLOCK: [EventKind; 10] = {
    use EventKind::{Authentic as A, Forged as F, Noise as N};
    [A, A, A, A, A, A, F, F, N, N]
};

/// One generated burst: the generator's ground truth for the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truth {
    /// First burst sample (absolute stream index).
    pub start: u64,
    /// One past the last burst sample.
    pub end: u64,
    /// What the burst is.
    pub kind: EventKind,
}

/// How a stream hands its bytes over.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Release `rate_sps` samples per second for `events` events.
    Paced { rate_sps: f64, events: u64 },
    /// Serve every read at once; stop after `events` events (replay).
    Fixed { events: u64 },
}

/// The four templates and the seeded per-stream schedules.
pub struct Traffic {
    model: TrafficModel,
    seed: u64,
    /// Samples handed over by all streams, for the run's sampler.
    handed_over: AtomicU64,
}

impl Traffic {
    /// Renders the templates for `gap_samples`-long quiet gaps.
    pub fn new(seed: u64, gap_samples: usize) -> Traffic {
        let spec = FleetSpec {
            gap_samples,
            seed,
            ..FleetSpec::default()
        };
        Traffic {
            model: TrafficModel::build(&spec),
            seed,
            handed_over: AtomicU64::new(0),
        }
    }

    /// Samples handed over so far by every stream of this traffic.
    pub fn handed_over(&self) -> u64 {
        self.handed_over.load(Relaxed)
    }

    /// The rendered templates.
    pub fn model(&self) -> &TrafficModel {
        &self.model
    }

    /// The kind schedule of stream `index`: blocks of exactly six
    /// authentic, two forged and two noise bursts, each block in a seeded
    /// order. Every seed offers the same work; only its order differs.
    pub fn schedule(&self, index: usize) -> Vec<EventKind> {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(index as u64 + 1),
        );
        let mut schedule = Vec::with_capacity(SCHEDULE_BLOCKS * BLOCK.len());
        for _ in 0..SCHEDULE_BLOCKS {
            let mut block = BLOCK;
            for i in (1..block.len()).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
            schedule.extend_from_slice(&block);
        }
        schedule
    }

    /// Events stream `index` needs to carry `target` samples.
    pub fn events_for(&self, index: usize, target: u64) -> u64 {
        let schedule = self.schedule(index);
        let mut samples = 0u64;
        let mut events = 0u64;
        while samples < target {
            let kind = schedule[events as usize % schedule.len()];
            samples += self.model.event_samples(kind) as u64;
            events += 1;
        }
        events
    }
}

/// Where the stream is inside its segment sequence.
#[derive(Debug, Clone, Copy)]
enum Segment {
    /// The quiet gap before event `n`.
    Gap,
    /// The burst of event `n`.
    Burst,
    /// The trailing gap after the last event.
    Tail,
    /// End of stream.
    Done,
}

/// One generated stream, readable by the gateway.
pub struct GenStream<'a> {
    traffic: &'a Traffic,
    schedule: Vec<EventKind>,
    pacing: Pacing,
    segment: Segment,
    /// Event index of the current segment.
    event: u64,
    /// Byte offset inside the current segment.
    offset: usize,
    /// Samples handed over so far.
    pos: u64,
    /// Samples released by the pacer (paced mode).
    released: u64,
    /// Total samples of the stream.
    total: u64,
    first_read: Option<Instant>,
    last_handover: Option<Instant>,
    truths: Vec<Truth>,
    /// How late each slice was handed over (paced mode).
    late: Vec<Duration>,
}

impl<'a> GenStream<'a> {
    /// Stream `index` of `traffic`, handed over per `pacing`.
    pub fn new(traffic: &'a Traffic, index: usize, pacing: Pacing) -> GenStream<'a> {
        let schedule = traffic.schedule(index);
        let (Pacing::Paced { events, .. } | Pacing::Fixed { events }) = pacing;
        let model = traffic.model();
        let bursts: u64 = (0..events)
            .map(|e| model.event_samples(schedule[e as usize % schedule.len()]) as u64)
            .sum();
        let total = bursts + (model.gap_bytes().len() / SAMPLE_BYTES) as u64;
        GenStream {
            traffic,
            schedule,
            pacing,
            segment: Segment::Gap,
            event: 0,
            offset: 0,
            pos: 0,
            released: 0,
            total,
            first_read: None,
            last_handover: None,
            truths: Vec::new(),
            late: Vec::new(),
        }
    }

    /// Every burst generated so far, in stream order.
    pub fn truths(&self) -> &[Truth] {
        &self.truths
    }

    /// Samples handed over so far.
    pub fn samples(&self) -> u64 {
        self.pos
    }

    /// When the gateway first read from this stream.
    pub fn first_read(&self) -> Option<Instant> {
        self.first_read
    }

    /// Per-slice hand-over lateness (paced mode).
    pub fn lateness(&self) -> &[Duration] {
        &self.late
    }

    /// Achieved hand-over rate in samples/s, from the first read to the
    /// last byte handed over.
    pub fn achieved_rate(&self) -> f64 {
        match (self.first_read, self.last_handover) {
            (Some(a), Some(b)) if b > a => self.pos as f64 / (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// When the sample at absolute index `sample` of a paced stream
    /// became available to the gateway: its slice's due time.
    pub fn arrival(&self, sample: u64) -> Option<Instant> {
        let t0 = self.first_read?;
        let Pacing::Paced { rate_sps, .. } = self.pacing else {
            return None;
        };
        let due = ((sample / SLICE_SAMPLES + 1) * SLICE_SAMPLES).min(self.total);
        Some(t0 + Duration::from_secs_f64(due as f64 / rate_sps))
    }

    /// True while another event should follow the current one.
    fn more_events(&self) -> bool {
        let (Pacing::Paced { events, .. } | Pacing::Fixed { events }) = self.pacing;
        self.event < events
    }

    fn kind(&self) -> EventKind {
        self.schedule[self.event as usize % self.schedule.len()]
    }

    fn segment_bytes(&self) -> &'a [u8] {
        let model = self.traffic.model();
        match self.segment {
            Segment::Gap | Segment::Tail => model.gap_bytes(),
            Segment::Burst => model.burst_bytes(self.kind()),
            Segment::Done => &[],
        }
    }

    /// Moves to the next segment, recording a burst's truth as it starts.
    fn advance(&mut self) {
        self.offset = 0;
        self.segment = match self.segment {
            Segment::Gap => {
                let model = self.traffic.model();
                let kind = self.kind();
                let start = self.pos;
                let len = (model.burst_bytes(kind).len() / SAMPLE_BYTES) as u64;
                self.truths.push(Truth {
                    start,
                    end: start + len,
                    kind,
                });
                Segment::Burst
            }
            Segment::Burst => {
                self.event += 1;
                if self.more_events() {
                    Segment::Gap
                } else {
                    Segment::Tail
                }
            }
            Segment::Tail | Segment::Done => Segment::Done,
        };
    }

    /// Copies up to `buf.len()` bytes (whole samples only) of the stream.
    fn fill(&mut self, buf: &mut [u8], max_samples: u64) -> usize {
        let want = (buf.len() / SAMPLE_BYTES).min(max_samples as usize) * SAMPLE_BYTES;
        let mut n = 0;
        while n < want {
            let seg = self.segment_bytes();
            if seg.is_empty() {
                break;
            }
            let take = (seg.len() - self.offset).min(want - n);
            buf[n..n + take].copy_from_slice(&seg[self.offset..self.offset + take]);
            n += take;
            self.offset += take;
            self.pos += (take / SAMPLE_BYTES) as u64;
            if self.offset == seg.len() {
                self.advance();
            }
        }
        n
    }

    /// Paced mode: samples available now, sleeping until the next slice
    /// is due when everything released has been handed over.
    fn release(&mut self, t0: Instant, rate_sps: f64) -> u64 {
        let total = self.total;
        if self.pos == self.released && self.released < total {
            let next = (self.released + SLICE_SAMPLES).min(total);
            let due = t0 + Duration::from_secs_f64(next as f64 / rate_sps);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
                self.late
                    .push(Instant::now().saturating_duration_since(due));
            }
            // Catch up on every slice already due (a reader that fell
            // behind finds them waiting, as in a socket buffer).
            let due_now = (t0.elapsed().as_secs_f64() * rate_sps) as u64;
            self.released = (due_now / SLICE_SAMPLES * SLICE_SAMPLES).clamp(next, total);
        }
        self.released - self.pos
    }
}

impl Read for GenStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let t0 = *self.first_read.get_or_insert_with(Instant::now);
        let n = match self.pacing {
            Pacing::Paced { rate_sps, .. } => {
                let available = self.release(t0, rate_sps);
                self.fill(buf, available)
            }
            Pacing::Fixed { .. } => self.fill(buf, u64::MAX),
        };
        if n > 0 {
            self.last_handover = Some(Instant::now());
            self.traffic
                .handed_over
                .fetch_add((n / SAMPLE_BYTES) as u64, Relaxed);
        }
        Ok(n)
    }
}
