//! The energy gate's decisions against the gate it replaced.
//!
//! The gate now sums each window fresh and moves its noise floor block by
//! block (`ctc_dsp::simd::gated_scan`). The scan it replaced kept a
//! running sum over its ring (`acc += |x|² − oldest`) and stepped the
//! floor one window at a time; its window powers and floor differ from
//! the new ones by rounding only, so on every stream a gateway meets the
//! two must flag the same windows. `OldGate` below is that scan and the
//! burst rules of `EnergyStream`, copied from the code they replaced, as
//! `rx_bits_props.rs` keeps the old receiver.
//!
//! The streams are noise at several powers, 20-frame streams from 6 to
//! 30 dB (the gate's floor, where it cuts fragments, included), the
//! benchmark's 6:2:2 template mix, and those streams with non-finite and
//! huge finite samples. The new gate reads them as cf32 pairs, as a
//! gateway does, in chunks of 1, 7, 333, 2047, 2048, 2049 and 16384
//! samples; flags, bursts and captures must all be the old gate's, under
//! the gateway's configuration and under one with no hang and no
//! minimum length, whose bursts are the runs of loud windows.

use ctc_channel::noise::complex_gaussian;
use ctc_core::defense::{
    Burst, BurstCapture, BurstEnd, BurstSplitter, EnergyDetector, StreamedBurst,
};
use ctc_dsp::io::{write_cf32, Cf32, IqSample};
use ctc_dsp::Complex;
use ctc_gateway::GatewayConfig;
use ctc_loadgen::{FleetSpec, TrafficModel};
use ctc_zigbee::Transmitter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CHUNKS: [usize; 7] = [1, 7, 333, 2047, 2048, 2049, 16384];

/// The gate as it was: a running window sum and a per-window EWMA step.
struct OldGate {
    config: EnergyDetector,
    max_burst: usize,
    ring: Vec<f64>,
    slot: usize,
    acc: f64,
    floor: f64,
    gate: f64,
    total: usize,
    start: Option<usize>,
    last_active: usize,
    bursts: Vec<StreamedBurst>,
}

impl OldGate {
    fn new(config: EnergyDetector, max_burst: usize) -> Self {
        OldGate {
            config,
            max_burst,
            ring: Vec::new(),
            slot: 0,
            acc: 0.0,
            floor: 0.0,
            gate: 0.0,
            total: 0,
            start: None,
            last_active: 0,
            bursts: Vec::new(),
        }
    }

    fn mean(&self) -> f64 {
        let w = self.config.window;
        if w.is_power_of_two() {
            self.acc * (1.0 / w as f64)
        } else {
            self.acc / w as f64
        }
    }

    fn push(&mut self, v: Complex) {
        let w = self.config.window;
        let mut n = v.re * v.re + v.im * v.im;
        if !n.is_finite() {
            n = 0.0;
        }
        self.total += 1;
        if self.ring.len() < w {
            self.ring.push(n);
            self.acc += n;
            if self.ring.len() == w {
                self.floor = self.mean().max(1e-12);
                self.gate = self.floor * self.config.threshold;
            }
            return;
        }
        self.acc += n - self.ring[self.slot];
        self.ring[self.slot] = n;
        self.slot = (self.slot + 1) % w;
        let p = self.mean();
        let active = p > self.gate;
        if !active {
            self.floor = (p - self.floor).mul_add(1.0 / 64.0, self.floor);
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(self.floor >= 1e-12) {
                self.floor = 1e-12;
            }
            self.gate = self.floor * self.config.threshold;
        }
        self.decide(self.total - w, active);
    }

    fn decide(&mut self, i: usize, active: bool) {
        let w = self.config.window;
        if active {
            let s = *self.start.get_or_insert(i);
            self.last_active = i;
            if i + w - s >= self.max_burst {
                self.start = None;
                self.bursts.push(StreamedBurst {
                    burst: Burst {
                        start: s,
                        end: i + w,
                    },
                    end_reason: BurstEnd::Overlong,
                });
            }
        } else if let Some(s) = self.start {
            if i > self.last_active + self.config.hang {
                let end = self.last_active + w;
                self.start = None;
                if end - s >= self.config.min_len {
                    self.bursts.push(StreamedBurst {
                        burst: Burst { start: s, end },
                        end_reason: BurstEnd::Gap,
                    });
                }
            }
        }
    }

    fn finish(mut self) -> Vec<StreamedBurst> {
        if let Some(s) = self.start.take() {
            let end = (self.last_active + self.config.window).min(self.total);
            if end - s >= self.config.min_len {
                self.bursts.push(StreamedBurst {
                    burst: Burst { start: s, end },
                    end_reason: BurstEnd::EndOfStream,
                });
            }
        }
        self.bursts
    }
}

fn old_bursts(x: &[Complex], config: EnergyDetector, max_burst: usize) -> Vec<StreamedBurst> {
    let mut old = OldGate::new(config, max_burst);
    for &v in x {
        old.push(v);
    }
    old.finish()
}

/// A detector whose bursts are exactly the runs of loud windows (no hang,
/// no minimum length), so comparing bursts compares every flag.
fn every_flag() -> EnergyDetector {
    EnergyDetector {
        min_len: 1,
        hang: 0,
        ..EnergyDetector::default()
    }
}

fn to_cf32(x: &[Complex]) -> Vec<Cf32> {
    let mut bytes = Vec::with_capacity(x.len() * 8);
    write_cf32(&mut bytes, x).expect("Vec write is infallible");
    bytes.as_chunks::<8>().0.to_vec()
}

type CaptureBits = (usize, usize, usize, bool, Vec<(u64, u64)>);

fn capture_bits(c: &BurstCapture) -> CaptureBits {
    let samples = c.samples.iter().map(|v| (v.re.to_bits(), v.im.to_bits()));
    (
        c.burst.start,
        c.burst.end,
        c.capture_start,
        c.truncated,
        samples.collect(),
    )
}

/// The captures a splitter cuts around `bursts`: two windows of margin
/// each side, clipped to the stream.
fn expected_captures(x: &[Complex], bursts: &[StreamedBurst], margin: usize) -> Vec<CaptureBits> {
    bursts
        .iter()
        .map(|b| {
            let start = b.burst.start.saturating_sub(margin);
            let end = (b.burst.end + margin).min(x.len());
            let samples = x[start..end]
                .iter()
                .map(|v| (v.re.to_bits(), v.im.to_bits()));
            (
                b.burst.start,
                b.burst.end,
                start,
                b.truncated(),
                samples.collect(),
            )
        })
        .collect()
}

/// Runs the new gate and splitter over the cf32 form of `x` at every
/// chunking and asserts each matches the old gate.
fn assert_old_decisions(name: &str, x: &[Complex]) {
    let gw = GatewayConfig::default();
    let raw = to_cf32(x);
    let x: Vec<Complex> = raw.iter().map(|s| s.widen()).collect();
    let margin = 2 * gw.energy.window;
    let cases = [(every_flag(), usize::MAX), (gw.energy, gw.max_burst)].map(|(config, max)| {
        let bursts = old_bursts(&x, config, max);
        let captures = expected_captures(&x, &bursts, margin);
        (config, max, bursts, captures)
    });
    for chunk in CHUNKS {
        for (config, max_burst, bursts, captures) in &cases {
            let case = format!("{name}: chunk {chunk}, min_len {}", config.min_len);
            let mut gate = config.stream().with_max_burst(*max_burst);
            let mut got = Vec::new();
            for c in raw.chunks(chunk) {
                gate.push_each(c, |b| got.push(b));
            }
            got.extend(gate.finish());
            assert_eq!(&got, bursts, "{case}");

            let mut splitter = BurstSplitter::cf32(*config).with_max_burst(*max_burst);
            let mut got = Vec::new();
            for c in raw.chunks(chunk) {
                got.extend(splitter.push(c).iter().map(capture_bits));
            }
            got.extend(splitter.finish().iter().map(capture_bits));
            assert_eq!(&got, captures, "{case}: captures");
        }
    }
}

/// `frames` `b"00000"` frames in noise at `snr_db` (frame power over
/// noise power per sample), with seeded gaps of 300–1,499 samples.
fn frames_in_noise(frames: usize, snr_db: f64, seed: u64) -> Vec<Complex> {
    let mut rng = StdRng::seed_from_u64(seed);
    let frame = Transmitter::new().transmit_payload(b"00000").unwrap();
    let sigma2 = 10f64.powf(-snr_db / 10.0);
    let mut x = Vec::new();
    for _ in 0..frames {
        let gap = rng.gen_range(300..1500);
        x.extend((0..gap).map(|_| complex_gaussian(&mut rng, sigma2)));
        x.extend(
            frame
                .iter()
                .map(|&v| v + complex_gaussian(&mut rng, sigma2)),
        );
    }
    x.extend((0..1000).map(|_| complex_gaussian(&mut rng, sigma2)));
    x
}

/// Sets one seeded sample in about every `every` to one of `values`.
fn sprinkle(x: &mut [Complex], values: &[f64], every: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for v in x.iter_mut() {
        if rng.gen_range(0..every) == 0 {
            v.re = values[rng.gen_range(0..values.len())];
        }
    }
}

#[test]
fn noise_at_every_floor_flags_what_the_old_gate_flagged() {
    for (k, sigma2) in [1e-9, 1e-6, 1e-3, 1.0, 1e3].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(k as u64);
        let x: Vec<Complex> = (0..30_000)
            .map(|_| complex_gaussian(&mut rng, sigma2))
            .collect();
        assert_old_decisions(&format!("noise {sigma2}"), &x);
    }
}

#[test]
fn frames_from_the_gate_floor_up_cut_what_the_old_gate_cut() {
    for (k, snr) in [6.0, 8.0, 9.0, 10.0, 15.0, 30.0].into_iter().enumerate() {
        let x = frames_in_noise(20, snr, 40 + k as u64);
        assert_old_decisions(&format!("{snr} dB"), &x);
    }
}

#[test]
fn the_benchmark_template_mix_cuts_what_the_old_gate_cut() {
    let spec = FleetSpec {
        events_per_stream: 40,
        ..FleetSpec::default()
    };
    let model = TrafficModel::build(&spec);
    for index in 0..2 {
        let mut bytes = Vec::new();
        for kind in model.schedule(&spec, index) {
            bytes.extend_from_slice(model.gap_bytes());
            bytes.extend_from_slice(model.burst_bytes(kind));
        }
        bytes.extend_from_slice(model.gap_bytes());
        let x: Vec<Complex> = bytes.as_chunks::<8>().0.iter().map(|s| s.widen()).collect();
        assert_old_decisions(&format!("template mix, stream {index}"), &x);
    }
}

#[test]
fn non_finite_and_huge_samples_are_judged_as_the_old_gate_judged_them() {
    let nonfinite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    // Spikes up to 1e5 (a power of 1e10): the old running sum's rounding
    // after such a spike stays far below the noise. A spike of 1e8 (a
    // power of 1e16) is where the old gate flooded (the `detect_cli`
    // flood regression).
    let huge = [1e2, -1e3, 1e4, -1e5];
    for (k, snr) in [9.0, 15.0].into_iter().enumerate() {
        let mut x = frames_in_noise(20, snr, 60 + k as u64);
        sprinkle(&mut x, &nonfinite, 2000, 70 + k as u64);
        assert_old_decisions(&format!("{snr} dB with NaN and inf"), &x);
        let mut x = frames_in_noise(20, snr, 80 + k as u64);
        sprinkle(&mut x, &huge, 3000, 90 + k as u64);
        assert_old_decisions(&format!("{snr} dB with huge samples"), &x);
    }
}
