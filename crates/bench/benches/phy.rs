//! Criterion benches for the PHY substrates: ZigBee and WiFi chains, the
//! 64-point FFT at the heart of both (and the 1,024-point one the defense's
//! line search runs), and the Viterbi decoder that gates the bit-chain
//! attack mode.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ctc_dsp::{fft, Complex};
use ctc_wifi::convolutional::{decode, encode, Rate};
use ctc_wifi::WifiTransmitter;
use ctc_zigbee::{Receiver, Transmitter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_fft64(c: &mut Criterion) {
    let x: Vec<Complex> = (0..64)
        .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
        .collect();
    let mut group = c.benchmark_group("fft");
    group.throughput(Throughput::Elements(64));
    group.bench_function("fft64", |b| b.iter(|| fft::fft64(std::hint::black_box(&x))));
    group.bench_function("dft64_naive_oracle", |b| {
        b.iter(|| fft::dft_naive(std::hint::black_box(&x)))
    });
    // The length the |Ĉ40| line search's chirp-z screen transforms a
    // 429-point constellation at.
    let x1024: Vec<Complex> = (0..1024)
        .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
        .collect();
    group.throughput(Throughput::Elements(1024));
    group.bench_function("fft1024", |b| {
        b.iter(|| fft::fft(std::hint::black_box(&x1024)).expect("power of two"))
    });
    group.finish();
}

fn bench_zigbee_chain(c: &mut Criterion) {
    let tx = Transmitter::new();
    let payload = b"0000000000";
    let wave = tx.transmit_payload(payload).expect("short payload");
    let rx = Receiver::usrp();
    let soft_rx = Receiver::commodity();
    let mut group = c.benchmark_group("zigbee_chain");
    group.sample_size(30);
    group.throughput(Throughput::Elements(wave.len() as u64));
    group.bench_function("tx_frame", |b| {
        b.iter(|| {
            tx.transmit_payload(std::hint::black_box(payload))
                .expect("short")
        })
    });
    group.bench_function("rx_frame_hard", |b| {
        b.iter(|| rx.receive(std::hint::black_box(&wave)))
    });
    group.bench_function("rx_frame_soft", |b| {
        b.iter(|| soft_rx.receive(std::hint::black_box(&wave)))
    });
    group.finish();
}

fn bench_wifi_chain(c: &mut Criterion) {
    let tx = WifiTransmitter::new();
    let mut rng = StdRng::seed_from_u64(11);
    let bits: Vec<u8> = (0..864).map(|_| rng.gen_range(0..2u8)).collect();
    let mut group = c.benchmark_group("wifi_chain");
    group.sample_size(30);
    group.throughput(Throughput::Elements(bits.len() as u64));
    group.bench_function("tx_4_ofdm_symbols", |b| {
        b.iter(|| tx.transmit_bits(std::hint::black_box(&bits)))
    });
    group.finish();
}

fn bench_viterbi(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(12);
    let data: Vec<u8> = (0..432).map(|_| rng.gen_range(0..2u8)).collect();
    let coded = encode(&data, Rate::ThreeQuarters);
    let mut group = c.benchmark_group("viterbi");
    group.sample_size(30);
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("decode_432_bits_rate_3_4", |b| {
        b.iter(|| decode(std::hint::black_box(&coded), Rate::ThreeQuarters).expect("aligned"))
    });
    group.finish();
}

fn bench_wifi_rx(c: &mut Criterion) {
    use ctc_wifi::WifiReceiver;
    let frame = WifiTransmitter::new()
        .transmit_frame(b"benchmark frame payload")
        .expect("fits");
    let mut group = c.benchmark_group("wifi_rx");
    group.sample_size(20);
    group.throughput(Throughput::Elements(frame.len() as u64));
    group.bench_function("receive_frame", |b| {
        let rx = WifiReceiver::new();
        b.iter(|| rx.receive(std::hint::black_box(&frame)).expect("clean"));
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
    bench_fft64,
    bench_zigbee_chain,
    bench_wifi_chain,
    bench_viterbi,
    bench_wifi_rx
);
criterion_main!(benches);
