//! Integration: the streaming gateway end to end through the facade crate.
//!
//! Two guarantees pin the gateway to the inline defense it wraps:
//!
//! 1. **Chunking invariance** (property test): pushing a stream through
//!    `StreamMonitor` in arbitrarily-sized chunks yields exactly the
//!    events of a one-shot `scan` of the whole buffer.
//! 2. **Pipeline fidelity**: the multi-threaded gateway over the same
//!    capture, run as one unlabelled stream (the shape of `ctc monitor
//!    --input`), reports the same bursts and verdicts as the inline
//!    monitor, via its JSONL surface.

use hide_and_seek::channel::noise::complex_gaussian;
use hide_and_seek::core::attack::Emulator;
use hide_and_seek::core::defense::{ChannelAssumption, Detector, StreamMonitor};
use hide_and_seek::dsp::io::write_cf32;
use hide_and_seek::dsp::Complex;
use hide_and_seek::gateway::{GatewayConfig, GatewayServer, NamedStream, ServerConfig};
use hide_and_seek::zigbee::Transmitter;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// noise | authentic | noise | forged | noise — built once, reused by
/// every property-test case.
fn capture() -> &'static Vec<Complex> {
    static CAPTURE: OnceLock<Vec<Complex>> = OnceLock::new();
    CAPTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(41);
        let sigma2 = 1e-3;
        let authentic = Transmitter::new().transmit_payload(b"00000").unwrap();
        let emulator = Emulator::new();
        let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
        let mut stream = Vec::new();
        let mut noise = |n: usize, stream: &mut Vec<Complex>| {
            stream.extend((0..n).map(|_| complex_gaussian(&mut rng, sigma2)));
        };
        noise(800, &mut stream);
        stream.extend_from_slice(&authentic);
        noise(800, &mut stream);
        stream.extend_from_slice(&forged);
        noise(800, &mut stream);
        stream
    })
}

fn monitor() -> StreamMonitor {
    StreamMonitor::with_detector(Detector::new(ChannelAssumption::Ideal).with_threshold(0.25))
}

// Split the capture at random boundaries; every chunking must reproduce
// the whole-buffer scan exactly.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn any_chunking_matches_whole_buffer_scan(seed in 0u64..10_000) {
        let stream = capture();
        let reference = monitor().scan(stream);
        prop_assert_eq!(reference.len(), 2);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut session = monitor();
        let mut events = Vec::new();
        let mut at = 0usize;
        while at < stream.len() {
            let step = rng.gen_range(1usize..4000).min(stream.len() - at);
            events.extend(session.push(&stream[at..at + step]));
            at += step;
        }
        events.extend(session.finish());

        prop_assert_eq!(events.len(), reference.len());
        for (e, r) in events.iter().zip(&reference) {
            prop_assert_eq!(e.burst, r.burst);
            prop_assert_eq!(&e.payload, &r.payload);
            prop_assert_eq!(e.truncated, r.truncated);
            let (ev, rv) = (e.verdict.unwrap(), r.verdict.unwrap());
            prop_assert_eq!(ev.is_attack, rv.is_attack);
            prop_assert_eq!(ev.de_squared, rv.de_squared);
        }
    }
}

/// The threaded gateway agrees with the inline monitor on the same bytes:
/// same burst offsets, payloads and verdicts, in order, nothing dropped.
#[test]
fn gateway_pipeline_matches_inline_monitor() {
    let stream = capture();
    let reference = monitor().scan(stream);
    assert_eq!(reference.len(), 2);

    let mut bytes = Vec::new();
    write_cf32(&mut bytes, stream).unwrap();
    let config = GatewayConfig {
        chunk_samples: 1000,
        pipeline: Detector::new(ChannelAssumption::Ideal)
            .with_threshold(0.25)
            .into(),
        stats_interval: None,
        ..GatewayConfig::default()
    };
    let server = GatewayServer::new(ServerConfig::from(config));
    let mut events = Vec::new();
    let report = server
        .run_streams(
            vec![NamedStream::unlabelled(&bytes[..])],
            &mut events,
            &mut Vec::new(),
        )
        .unwrap();

    assert_eq!(report.metrics.samples_in as usize, stream.len());
    assert_eq!(report.metrics.bursts as usize, reference.len());
    assert_eq!(report.metrics.samples_dropped, 0);
    assert_eq!(report.metrics.forgeries, 1);
    assert!(report.forgery_detected());

    let events = String::from_utf8(events).unwrap();
    let frames: Vec<&str> = events
        .lines()
        .filter(|l| l.contains("\"type\":\"frame\""))
        .collect();
    assert_eq!(frames.len(), reference.len(), "events:\n{events}");
    for (line, r) in frames.iter().zip(&reference) {
        assert!(
            line.contains(&format!("\"burst_start\":{}", r.burst.start)),
            "offset mismatch: {line}"
        );
        let verdict = if r.verdict.unwrap().is_attack {
            "\"verdict\":\"attack\""
        } else {
            "\"verdict\":\"authentic\""
        };
        assert!(line.contains(verdict), "verdict mismatch: {line}");
        assert!(
            line.contains("\"payload_hex\":\"3030303030\""),
            "payload mismatch: {line}"
        );
    }
}
