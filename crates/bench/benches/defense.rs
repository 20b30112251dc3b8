//! Criterion benches for the defense — Sec. VII-A2: cumulant estimation is
//! O(N) in the number of complex samples, so full detection is linear in
//! the frame length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ctc_core::attack::Emulator;
use ctc_core::defense::naive::phase_trend_similarity;
use ctc_core::defense::{
    constellation_from_reception, standard_extractors, ChannelAssumption, Detector, FeatureInput,
    FeatureVector, Features,
};
use ctc_dsp::cumulants::Cumulants;
use ctc_dsp::kmeans::kmeans;
use ctc_dsp::Complex;
use ctc_zigbee::{Receiver, Transmitter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn qpsk_cloud(n: usize) -> Vec<Complex> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..n)
        .map(|_| {
            let re: f64 = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            let im: f64 = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            Complex::new(re + rng.gen_range(-0.1..0.1), im + rng.gen_range(-0.1..0.1))
        })
        .collect()
}

/// Raw cumulant estimation vs sample count (claim: O(N)).
fn bench_cumulant_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("cumulant_scaling");
    group.sample_size(30);
    for n in [256usize, 1024, 4096, 16384] {
        let pts = qpsk_cloud(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &pts, |b, pts| {
            b.iter(|| Cumulants::estimate(std::hint::black_box(pts)).expect("nonempty"))
        });
    }
    group.finish();
}

/// Full feature extraction including the fourth-power line search.
fn bench_feature_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("feature_extraction");
    group.sample_size(30);
    for n in [256usize, 1024, 4096] {
        let pts = qpsk_cloud(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &pts, |b, pts| {
            b.iter(|| Features::estimate(std::hint::black_box(pts)).expect("nonempty"))
        });
    }
    group.finish();
}

/// End-to-end: receive one frame and run the detector. The Ideal case
/// reads only the cumulant half; the Real case also runs the line search.
fn bench_detect_frame(c: &mut Criterion) {
    let wave = Transmitter::new()
        .transmit_payload(b"00000")
        .expect("short payload");
    let rx = Receiver::usrp();
    let reception = rx.receive(&wave);
    let mut group = c.benchmark_group("detector");
    group.sample_size(30);
    group.bench_function("receive_frame", |b| {
        b.iter(|| rx.receive(std::hint::black_box(&wave)))
    });
    group.bench_function("constellation_reconstruction", |b| {
        b.iter(|| constellation_from_reception(std::hint::black_box(&reception)))
    });
    for (name, assumption) in [
        ("detect_ideal", ChannelAssumption::Ideal),
        ("detect_real", ChannelAssumption::Real),
    ] {
        let detector = Detector::new(assumption);
        group.bench_function(name, |b| {
            b.iter(|| {
                detector
                    .detect(std::hint::black_box(&reception))
                    .expect("samples")
            })
        });
    }
    group.finish();
}

/// Each standard extractor's `extract` on one captured authentic and one
/// forged burst. The shared `FeatureInput` (constellation, cumulants and
/// line search) is forced before timing, so each figure is the extractor's
/// own cost, as the gateway benchmark's traced replay reports it.
fn bench_pipeline_extractors(c: &mut Criterion) {
    let authentic = Transmitter::new()
        .transmit_payload(b"hello")
        .expect("short payload");
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
    let rx = Receiver::usrp();
    let mut group = c.benchmark_group("pipeline_extractors");
    group.sample_size(30);
    for (label, burst) in [("authentic", &authentic), ("forged", &forged)] {
        let reception = rx.receive(burst);
        let input = FeatureInput::with_samples(&reception, burst);
        input.features().expect("the burst carries chip samples");
        for extractor in standard_extractors() {
            group.bench_function(format!("{}/{label}", extractor.name()), |b| {
                b.iter(|| {
                    let mut out = FeatureVector::new();
                    extractor.extract(std::hint::black_box(&input), &mut out);
                    out
                })
            });
        }
    }
    group.finish();
}

/// The two costliest pieces of the ensemble on one burst's worth of
/// input: the clustered-EVM k-means (k = 4, 100 iterations at most, seed
/// `0x5EED`, as `clustered_evm` runs it) on a 429-point QPSK cloud, which
/// converges in a few Lloyd steps, and on a uniform cloud, which takes
/// tens; and the phase-trend correlation of a 1,762-sample burst's halves.
fn bench_ensemble_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensemble_kernels");
    group.sample_size(30);
    let mut rng = StdRng::seed_from_u64(11);
    let uniform: Vec<Complex> = (0..429)
        .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    for (label, points) in [("qpsk_429", qpsk_cloud(429)), ("uniform_429", uniform)] {
        group.bench_function(format!("kmeans/{label}"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(0x5EED);
                kmeans(std::hint::black_box(&points), 4, 100, &mut rng).expect("429 points")
            })
        });
    }
    // The 1,666-sample `hello` frame, continued cyclically to the 1,762
    // samples the gateway captures around it.
    let burst: Vec<Complex> = Transmitter::new()
        .transmit_payload(b"hello")
        .expect("short payload")
        .into_iter()
        .cycle()
        .take(1762)
        .collect();
    let (first, second) = burst.split_at(burst.len() / 2);
    group.bench_function("phase_trend_similarity/1762", |b| {
        b.iter(|| phase_trend_similarity(std::hint::black_box(first), std::hint::black_box(second)))
    });
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group!(
    name = benches;
    config = quick();
    targets =
    bench_cumulant_scaling,
    bench_feature_extraction,
    bench_detect_frame,
    bench_pipeline_extractors,
    bench_ensemble_kernels
);
criterion_main!(benches);
