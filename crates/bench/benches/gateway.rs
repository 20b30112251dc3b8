//! Criterion benches for the streaming gateway: ingest throughput in
//! samples/s as a function of decode/classify worker count, over a
//! realistically sparse channel (mostly noise, periodic frames).
//!
//! The acceptance floor for the pipeline is 4 Msamples/s at the default
//! worker count — one 4 MHz ZigBee channel in real time with headroom.
//!
//! Benches the server with one unlabelled stream — the shape `ctc monitor
//! --input` runs a recording in — so a queue/session overhead regression
//! shows up right here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ctc_channel::noise::complex_gaussian;
use ctc_core::attack::Emulator;
use ctc_core::defense::{ChannelAssumption, Detector};
use ctc_dsp::io::write_cf32;
use ctc_dsp::Complex;
use ctc_gateway::{GatewayConfig, GatewayServer, NamedStream, ServerConfig};
use ctc_zigbee::Transmitter;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A sparse channel capture as cf32 bytes: authentic and forged frames
/// separated by long noise gaps, `total` samples overall.
fn sparse_capture(total: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(29);
    let sigma2 = 1e-3;
    let authentic = Transmitter::new()
        .transmit_payload(b"00000")
        .expect("short payload");
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
    let mut stream: Vec<Complex> = Vec::with_capacity(total);
    let mut forge = false;
    while stream.len() < total {
        stream.extend((0..20_000).map(|_| complex_gaussian(&mut rng, sigma2)));
        stream.extend_from_slice(if forge { &forged } else { &authentic });
        forge = !forge;
    }
    stream.truncate(total);
    let mut bytes = Vec::with_capacity(total * 8);
    write_cf32(&mut bytes, &stream).expect("vec write");
    bytes
}

fn config(workers: usize) -> ServerConfig {
    ServerConfig::from(GatewayConfig {
        workers,
        pipeline: Detector::new(ChannelAssumption::Ideal)
            .with_threshold(0.25)
            .into(),
        stats_interval: None,
        ..GatewayConfig::default()
    })
}

/// One unlabelled stream through the server.
fn run_single(config: ServerConfig, bytes: &[u8]) -> ctc_gateway::ServerReport {
    GatewayServer::new(config)
        .run_streams(
            vec![NamedStream::unlabelled(bytes)],
            &mut std::io::sink(),
            &mut std::io::sink(),
        )
        .expect("in-memory run")
}

/// Full-pipeline ingest rate vs worker count (Msamples/s = Melem/s here).
fn bench_gateway_throughput(c: &mut Criterion) {
    let total = 1 << 20;
    let bytes = sparse_capture(total);
    let mut group = c.benchmark_group("gateway_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let report = run_single(config(workers), &bytes);
                    assert!(report.metrics.frames_decoded > 0);
                    report
                })
            },
        );
    }
    group.finish();
}

/// Ingest-side cost alone: a noise-only stream never wakes the workers,
/// so this bounds the per-sample price of energy tracking + chunking.
fn bench_gateway_idle_channel(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(31);
    let total = 1 << 20;
    let stream: Vec<Complex> = (0..total)
        .map(|_| complex_gaussian(&mut rng, 1e-3))
        .collect();
    let mut bytes = Vec::with_capacity(total * 8);
    write_cf32(&mut bytes, &stream).expect("vec write");
    let mut group = c.benchmark_group("gateway_idle_channel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total as u64));
    group.bench_function("noise_only", |b| b.iter(|| run_single(config(2), &bytes)));
    group.finish();
}

criterion_group!(
    benches,
    bench_gateway_throughput,
    bench_gateway_idle_channel
);
criterion_main!(benches);
