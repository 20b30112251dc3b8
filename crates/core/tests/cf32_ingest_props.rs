//! The gateway's ingest reads cf32 bytes once: the energy gate scans the
//! raw pairs of each read and the burst splitter keeps its history in
//! that form, widening only the samples a capture holds. Parsing every
//! read first (`Cf32Reader::read_chunk`) and feeding the `Complex` entry
//! points must give the same results bit for bit: the gate kernel's
//! flags, state and zeroed counts, the energy stream's bursts and
//! non-finite counts, and the splitter's captures.
//!
//! The streams are random cf32 bytes, not just well-formed frames: noise
//! at random power with loud stretches, and NaN, ±Inf, 1e30, subnormal
//! and zero components sprinkled through. The source splits its bytes at
//! random, often inside a sample, and the reader's chunk size is random.

use ctc_core::defense::{BurstCapture, BurstSplitter, EnergyDetector, EnergyStream, StreamedBurst};
use ctc_dsp::io::{Cf32, Cf32Reader, IqSample};
use ctc_dsp::simd::{self, GateScanState};
use ctc_dsp::Complex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Read;

/// A random cf32 stream of `samples` samples as little-endian bytes.
fn stream_bytes(samples: usize, rng: &mut StdRng) -> Vec<u8> {
    const SPECIAL: [f32; 8] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e30,
        -1e30,
        f32::MIN_POSITIVE / 8.0,
        0.0,
        -0.0,
    ];
    let noise = 10f32.powf(rng.gen_range(-4.0..-1.0));
    let mut bytes = Vec::with_capacity(samples * 8);
    let mut loud = 0usize;
    for _ in 0..samples {
        if loud == 0 && rng.gen_range(0..600) == 0 {
            loud = rng.gen_range(50..900);
        }
        let amp = if loud > 0 {
            loud -= 1;
            1.0
        } else {
            noise
        };
        for _ in 0..2 {
            let v = if rng.gen_range(0..400) == 0 {
                SPECIAL[rng.gen_range(0..SPECIAL.len())]
            } else {
                amp * rng.gen_range(-1.0f32..1.0)
            };
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    bytes
}

/// A source that hands its bytes over in seeded random sizes, most of
/// them not whole samples.
struct RandomReads<'a> {
    bytes: &'a [u8],
    rng: StdRng,
}

impl Read for RandomReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.rng.gen_range(1..3000usize);
        let n = want.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn gate_state(window: usize) -> GateScanState {
    GateScanState {
        slot: 0,
        acc: 0.0,
        floor: 1e-3,
        gate: 4e-3,
        threshold: 4.0,
        alpha: 1.0 / 64.0,
        floor_eps: 1e-12,
        inv_w: 1.0 / window as f64,
    }
}

fn state_bits(s: &GateScanState) -> (usize, [u64; 3]) {
    (
        s.slot,
        [s.acc.to_bits(), s.floor.to_bits(), s.gate.to_bits()],
    )
}

/// A capture as comparable bits: burst bounds, capture start, truncation
/// and every sample's `(re, im)` bits.
type CaptureBits = (usize, usize, usize, bool, Vec<(u64, u64)>);

fn capture_bits(c: &BurstCapture) -> CaptureBits {
    let samples = c
        .samples
        .iter()
        .map(|v| (v.re.to_bits(), v.im.to_bits()))
        .collect();
    (
        c.burst.start,
        c.burst.end,
        c.capture_start,
        c.truncated,
        samples,
    )
}

/// Everything one ingest form produced, read by read.
#[derive(Debug, PartialEq)]
struct Trace {
    flags: Vec<Vec<u8>>,
    states: Vec<(usize, [u64; 3])>,
    zeroed: Vec<usize>,
    bursts: Vec<StreamedBurst>,
    nonfinite: Vec<u64>,
    captures: Vec<CaptureBits>,
}

/// The parts each ingest form runs on every read.
struct Stages<S: IqSample> {
    ring: Vec<f64>,
    scan: GateScanState,
    gate: EnergyStream,
    splitter: BurstSplitter<S>,
    captures: Vec<BurstCapture>,
    trace: Trace,
}

impl<S: IqSample> Stages<S> {
    fn new(energy: EnergyDetector, max_burst: usize, splitter: BurstSplitter<S>) -> Self {
        Stages {
            ring: vec![0.0; energy.window],
            scan: gate_state(energy.window),
            gate: energy.stream().with_max_burst(max_burst),
            splitter: splitter.with_max_burst(max_burst),
            captures: Vec::new(),
            trace: Trace {
                flags: Vec::new(),
                states: Vec::new(),
                zeroed: Vec::new(),
                bursts: Vec::new(),
                nonfinite: Vec::new(),
                captures: Vec::new(),
            },
        }
    }

    /// Runs one read through the scan kernel, the energy stream and the
    /// splitter; `scan` and `push_gate` pick the entry points.
    fn read(
        &mut self,
        chunk: &[S],
        scan: impl Fn(&[S], &mut [f64], &mut GateScanState, &mut [u8]) -> usize,
        push_gate: impl Fn(&mut EnergyStream, &[S], &mut Vec<StreamedBurst>),
    ) {
        let mut flags = vec![0u8; chunk.len()];
        let zeroed = scan(chunk, &mut self.ring, &mut self.scan, &mut flags);
        let t = &mut self.trace;
        t.flags.push(flags);
        t.zeroed.push(zeroed);
        t.states.push(state_bits(&self.scan));
        push_gate(&mut self.gate, chunk, &mut t.bursts);
        t.nonfinite.push(self.gate.nonfinite_samples());
        self.splitter.push_into(chunk, &mut self.captures);
        t.nonfinite.push(self.splitter.nonfinite_samples());
        t.captures
            .extend(self.captures.drain(..).map(|c| capture_bits(&c)));
    }

    fn finish(mut self) -> Trace {
        self.trace.bursts.extend(self.gate.finish());
        self.splitter.finish_into(&mut self.captures);
        let t = &mut self.trace;
        t.captures
            .extend(self.captures.drain(..).map(|c| capture_bits(&c)));
        self.trace
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cf32_ingest_matches_parsed_ingest_bit_for_bit(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = rng.gen_range(0..20_000usize);
        let bytes = stream_bytes(samples, &mut rng);
        let chunk_samples = rng.gen_range(1..5000usize);
        let energy = EnergyDetector::default();
        let max_burst = [usize::MAX, 300, 2000][rng.gen_range(0..3usize)];
        let read_seed = rng.gen();

        // Parsed: every read widened to `Complex` first.
        let mut parsed = Stages::new(energy, max_burst, BurstSplitter::new(energy));
        let mut reader = Cf32Reader::new(RandomReads {
            bytes: &bytes,
            rng: StdRng::seed_from_u64(read_seed),
        })
        .with_chunk_samples(chunk_samples);
        let mut chunk = Vec::new();
        while reader.read_chunk(&mut chunk).unwrap() > 0 {
            parsed.read(&chunk, simd::gated_power_scan, |g, c: &[Complex], out| {
                g.push_each(c, |b| out.push(b))
            });
        }
        let parsed = parsed.finish();

        // Raw: the same reads' cf32 pairs, unparsed.
        let mut raw = Stages::new(energy, max_burst, BurstSplitter::cf32(energy));
        let mut reader = Cf32Reader::new(RandomReads {
            bytes: &bytes,
            rng: StdRng::seed_from_u64(read_seed),
        })
        .with_chunk_samples(chunk_samples);
        loop {
            let read = reader.read_raw().unwrap();
            if read.is_empty() {
                break;
            }
            raw.read(read, simd::gated_scan, |g, c: &[Cf32], out| {
                g.push_each(c, |b| out.push(b))
            });
        }
        let raw = raw.finish();

        prop_assert_eq!(&raw, &parsed);
        prop_assert_eq!(parsed.zeroed.iter().sum::<usize>(), nonfinite_power(&bytes));
    }
}

/// Samples whose `|x|²` is not finite.
fn nonfinite_power(bytes: &[u8]) -> usize {
    let (pairs, _) = bytes.as_chunks::<8>();
    pairs
        .iter()
        .filter(|p: &&Cf32| !p.widen().norm_sqr().is_finite())
        .count()
}
