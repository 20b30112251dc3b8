//! Criterion benches for the PHY substrates: ZigBee and WiFi chains, the
//! 64-point FFT at the heart of both (and the 1,024-point one the defense's
//! line search runs), the Viterbi decoder that gates the bit-chain
//! attack mode, and the gateway's ingest half (read, energy gate, burst
//! split) in its two forms.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ctc_channel::noise::complex_gaussian;
use ctc_core::attack::Emulator;
use ctc_core::defense::{BurstCapture, BurstSplitter, EnergyDetector};
use ctc_dsp::io::{write_cf32, Cf32Reader};
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

/// The receiver as the gateway runs it: a 96-sample timing search over
/// bursts cut by the energy splitter from a noisy stream, margins and all.
/// `rx_frame_hard` decodes a frame-aligned waveform with no search, which
/// skips about a third of the gateway's decode cost.
fn bench_gateway_receiver(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(31);
    let sigma2 = 1e-3;
    let authentic = Transmitter::new()
        .transmit_payload(b"0000000000")
        .expect("short payload");
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
    let mut stream: Vec<Complex> = Vec::new();
    for frame in [&authentic, &forged] {
        stream.extend((0..4096).map(|_| complex_gaussian(&mut rng, sigma2)));
        stream.extend(
            frame
                .iter()
                .map(|&v| v + complex_gaussian(&mut rng, sigma2)),
        );
    }
    stream.extend((0..4096).map(|_| complex_gaussian(&mut rng, sigma2)));
    let mut splitter = BurstSplitter::new(EnergyDetector::default());
    let mut captures = splitter.push(&stream);
    captures.extend(splitter.finish());
    assert_eq!(captures.len(), 2, "one authentic and one forged burst");
    let samples: usize = captures.iter().map(|c| c.samples.len()).sum();

    let rx = Receiver::usrp().with_sync_search(96);
    let mut group = c.benchmark_group("zigbee_chain");
    group.sample_size(30);
    group.throughput(Throughput::Elements(samples as u64));
    group.bench_function("rx_capture_gateway", |b| {
        b.iter(|| {
            for capture in &captures {
                std::hint::black_box(rx.receive(std::hint::black_box(&capture.samples)));
            }
        })
    });
    group.finish();
}

/// The ingest half of the gateway over one cf32 stream, a burst after
/// every 4,096 noise samples, read in 16,384-sample slices as a paced
/// source delivers them. `split_parsed` widens each read to `Complex`
/// (`Cf32Reader::read_chunk`) and splits that; `split_cf32` gates and
/// splits the read's cf32 pairs (`read_raw`), as the gateway does, and
/// widens only the captured samples. Both cut the same captures.
fn bench_ingest_split(c: &mut Criterion) {
    const SLICE: usize = 16_384;
    let mut rng = StdRng::seed_from_u64(37);
    let sigma2 = 1e-3;
    let authentic = Transmitter::new()
        .transmit_payload(b"00000")
        .expect("short payload");
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
    let total = 1 << 20;
    let mut stream: Vec<Complex> = Vec::with_capacity(total);
    let mut forge = false;
    while stream.len() < total {
        stream.extend((0..4096).map(|_| complex_gaussian(&mut rng, sigma2)));
        stream.extend_from_slice(if forge { &forged } else { &authentic });
        forge = !forge;
    }
    stream.truncate(total);
    let mut bytes = Vec::with_capacity(total * 8);
    write_cf32(&mut bytes, &stream).expect("vec write");

    let energy = EnergyDetector::default();
    let mut parsed = BurstSplitter::new(energy);
    let mut raw = BurstSplitter::cf32(energy);
    let mut chunk = Vec::new();
    let mut captures: Vec<BurstCapture> = Vec::new();
    let mut group = c.benchmark_group("ingest");
    group.sample_size(20);
    group.throughput(Throughput::Elements(total as u64));
    group.bench_function("split_parsed", |b| {
        b.iter(|| {
            let mut reader = Cf32Reader::new(&bytes[..]).with_chunk_samples(SLICE);
            let mut bursts = 0;
            while reader.read_chunk(&mut chunk).expect("in-memory") > 0 {
                parsed.push_into(&chunk, &mut captures);
                bursts += captures.len();
                captures.clear();
            }
            parsed.finish_into(&mut captures);
            bursts += captures.len();
            captures.clear();
            bursts
        })
    });
    group.bench_function("split_cf32", |b| {
        b.iter(|| {
            let mut reader = Cf32Reader::new(&bytes[..]).with_chunk_samples(SLICE);
            let mut bursts = 0;
            loop {
                let read = reader.read_raw().expect("in-memory");
                if read.is_empty() {
                    break;
                }
                raw.push_into(read, &mut captures);
                bursts += captures.len();
                captures.clear();
            }
            raw.finish_into(&mut captures);
            bursts += captures.len();
            captures.clear();
            bursts
        })
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
    bench_gateway_receiver,
    bench_ingest_split,
    bench_wifi_chain,
    bench_viterbi,
    bench_wifi_rx
);
criterion_main!(benches);
