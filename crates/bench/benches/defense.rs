//! Criterion benches for the defense — Sec. VII-A2: cumulant estimation is
//! O(N) in the number of complex samples, so full detection is linear in
//! the frame length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ctc_core::defense::{constellation_from_reception, ChannelAssumption, Detector, Features};
use ctc_dsp::cumulants::Cumulants;
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
    bench_detect_frame
);
criterion_main!(benches);
