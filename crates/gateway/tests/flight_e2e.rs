//! End-to-end flight-recorder trigger tests: a forged stream must
//! produce exactly one incident snapshot per run whose journal ends at
//! the triggering verdict, carrying its per-feature scores, the
//! preceding events, and registry deltas. A run that cannot write a
//! snapshot must not render the registry baseline one would embed.

use common::SlotHold;
use ctc_channel::noise::complex_gaussian;
use ctc_core::attack::Emulator;
use ctc_core::defense::{ChannelAssumption, DetectionPipeline, Detector};
use ctc_dsp::io::write_cf32;
use ctc_dsp::Complex;
use ctc_gateway::{FlightOptions, GatewayConfig, GatewayServer, NamedStream, ServerConfig};
use ctc_obs::json::{parse, JsonValue};
use ctc_obs::Registry;
use ctc_zigbee::Transmitter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

mod common;

/// noise | authentic | noise | forged | noise | forged | noise: two
/// forgeries, so "exactly one snapshot" is a real claim.
fn forged_capture(seed: u64) -> Vec<u8> {
    let authentic = Transmitter::new().transmit_payload(b"00000").unwrap();
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
    framed_in_noise(seed, &[&authentic, &forged, &forged])
}

/// `frames` in order, each between 700-sample noise gaps, as cf32 bytes.
fn framed_in_noise(seed: u64, frames: &[&[Complex]]) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma2 = 1e-3;
    let mut stream: Vec<Complex> = Vec::new();
    let mut noise = |n: usize, stream: &mut Vec<Complex>| {
        stream.extend((0..n).map(|_| complex_gaussian(&mut rng, sigma2)));
    };
    noise(700, &mut stream);
    for frame in frames {
        stream.extend_from_slice(frame);
        noise(700, &mut stream);
    }
    let mut bytes = Vec::new();
    write_cf32(&mut bytes, &stream).unwrap();
    bytes
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctc_flight_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn get<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key).unwrap_or_else(|| panic!("missing key {key:?}"))
}

#[test]
fn forged_stream_dumps_exactly_one_snapshot_ending_at_the_verdict() {
    let dir = fresh_dir("forgery");
    let out = dir.join("incident.json");

    let detector = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
    let mut gw = GatewayConfig::builder()
        .detector(detector)
        .workers(1) // deterministic processing order
        .stats_interval(None)
        .build()
        .unwrap();
    gw.pipeline = DetectionPipeline::standard(detector).shared();

    let registry = Arc::new(Registry::new());
    let server = GatewayServer::new(ServerConfig::from(gw))
        .with_registry(Arc::clone(&registry))
        .with_flight(FlightOptions {
            out: Some(out.clone()),
            ..FlightOptions::default()
        });

    let bytes = forged_capture(31);
    let report = server
        .run_streams(
            vec![NamedStream::new("uplink", &bytes[..])],
            &mut std::io::sink(),
            &mut std::io::sink(),
        )
        .unwrap();
    assert!(report.forgery_detected(), "the stream must trip exit 3");
    assert!(
        report.metrics.forgeries >= 2,
        "both forged frames must be accepted so exactly-one is meaningful"
    );

    // Exactly one snapshot file, written by the first forgery only.
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(files.len(), 1, "expected exactly one snapshot in {dir:?}");
    let text = std::fs::read_to_string(&out).unwrap();
    let doc = parse(&text).unwrap();

    assert_eq!(get(&doc, "type").as_str(), Some("ctc_incident"));
    assert_eq!(get(&doc, "trigger").as_str(), Some("forgery"));
    assert_eq!(get(&doc, "dump_seq").as_f64(), Some(1.0));

    // The journal ends at the triggering verdict, scores attached.
    let events = get(&doc, "events").as_array().unwrap();
    assert!(events.len() > 1, "preceding journal events must be present");
    let last = events.last().unwrap();
    assert_eq!(get(last, "kind").as_str(), Some("verdict"));
    assert_eq!(get(last, "accepted_forgery").as_bool(), Some(true));
    let scores = get(last, "scores").as_object().unwrap();
    assert!(
        scores.iter().any(|(name, _)| name == "de2_ideal"),
        "per-feature scores must be named: {scores:?}"
    );
    assert!(get(last, "de2").as_f64().is_some());
    assert!(get(last, "fused").as_f64().is_some());

    // Preceding events include the burst and its stage boundaries.
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| get(e, "kind").as_str())
        .collect();
    assert!(kinds.contains(&"session_open"), "{kinds:?}");
    assert!(kinds.contains(&"burst"), "{kinds:?}");
    assert!(kinds.contains(&"stage"), "{kinds:?}");
    // Exactly one verdict carries the accepted flag in this window: the
    // journal stopped at the first forgery.
    let accepted = events
        .iter()
        .filter(|e| {
            get(e, "kind").as_str() == Some("verdict")
                && e.get("accepted_forgery").and_then(JsonValue::as_bool) == Some(true)
        })
        .count();
    assert_eq!(accepted, 1, "journal must stop at the first forgery");

    // Stage latency breakdown covers the pipeline stages seen so far.
    let stages = get(&doc, "stages").as_object().unwrap();
    for want in ["ingest", "queue", "decode", "classify"] {
        assert!(
            stages.iter().any(|(name, _)| name == want),
            "stage {want} missing from {stages:?}"
        );
    }

    // Registry snapshot + delta-from-baseline made it in, and the delta
    // shows the forgery counter moving.
    let registry_section = get(&doc, "registry").as_array().unwrap();
    assert!(!registry_section.is_empty());
    let delta = get(&doc, "delta").as_array().unwrap();
    assert!(
        delta.iter().any(|d| {
            get(d, "name").as_str() == Some("ctc_gateway_frames_total")
                && d.get("labels")
                    .and_then(|l| l.get("verdict"))
                    .and_then(JsonValue::as_str)
                    == Some("attack")
        }),
        "forgery delta missing"
    );

    // Session table and effective config ride along.
    let sessions = get(&doc, "sessions").as_array().unwrap();
    assert_eq!(get(&sessions[0], "stream").as_str(), Some("uplink"));
    let cfg = get(&doc, "config");
    assert_eq!(get(cfg, "workers").as_f64(), Some(1.0));

    let recorded = get(get(&doc, "ring"), "recorded").as_f64();

    // The auto trigger fires once per run, not once per server: the same
    // server over the same stream dumps exactly one new snapshot, and
    // journals into a ring of its own, so the snapshot holds this run's
    // events only.
    std::fs::remove_file(&out).unwrap();
    server
        .run_streams(
            vec![NamedStream::new("uplink", &bytes[..])],
            &mut std::io::sink(),
            &mut std::io::sink(),
        )
        .unwrap();
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(files.len(), 1, "second run: one snapshot in {dir:?}");
    let doc = parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(get(&doc, "trigger").as_str(), Some("forgery"));
    assert_eq!(get(get(&doc, "ring"), "recorded").as_f64(), recorded);
    let events = get(&doc, "events").as_array().unwrap();
    let opens = events
        .iter()
        .filter(|e| get(e, "kind").as_str() == Some("session_open"))
        .count();
    assert_eq!(opens, 1, "second run's journal holds one session_open");
    let last = events.last().unwrap();
    assert_eq!(get(last, "kind").as_str(), Some("verdict"));
    assert_eq!(get(last, "accepted_forgery").as_bool(), Some(true));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Drop-budget exhaustion is the second auto trigger: sessions flooding
/// one worker and a one-deep queue at once, each read carrying many
/// bursts, find the decode slots taken and queue their bursts, which must
/// shed and dump a snapshot whose trigger is `drop_budget` (or the run's
/// first forgery, if that came first) and whose journal ends at the
/// triggering drop. A [`SlotHold`] keeps both slots taken until every
/// other flood has read to its end, so the shed does not depend on how
/// the threads are scheduled.
#[test]
fn drop_budget_exhaustion_triggers_a_snapshot() {
    let dir = fresh_dir("drops");
    let out = dir.join("incident.json");

    let storms = ["storm-a", "storm-b", "storm-c", "storm-d"];
    let hold = SlotHold::new(storms.len());
    let detector = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
    let mut gw = GatewayConfig::builder()
        .detector(detector)
        .workers(1)
        .queue_depth(1)
        .stats_interval(None)
        .build()
        .unwrap();
    gw.pipeline = DetectionPipeline::standard(detector)
        .with_extractor(Box::new(hold.clone()))
        .shared();

    let server = GatewayServer::new(ServerConfig::from(gw)).with_flight(FlightOptions {
        out: Some(out.clone()),
        drop_budget: Some(1),
        ..FlightOptions::default()
    });

    let bytes = forged_capture(32).repeat(6);
    let report = server
        .run_streams(
            storms
                .iter()
                .map(|label| NamedStream::new(*label, hold.flood(&bytes)))
                .collect(),
            &mut std::io::sink(),
            &mut std::io::sink(),
        )
        .unwrap();
    assert_eq!(report.metrics.bursts, 18 * storms.len() as u64);
    assert!(
        report.metrics.bursts_dropped > 0,
        "concurrent floods on a one-deep queue must shed"
    );

    let text = std::fs::read_to_string(&out).unwrap();
    let doc = parse(&text).unwrap();
    let trigger = get(&doc, "trigger").as_str().unwrap().to_string();
    assert!(
        trigger == "drop_budget" || trigger == "forgery",
        "unexpected trigger {trigger}"
    );
    if trigger == "drop_budget" {
        let events = get(&doc, "events").as_array().unwrap();
        assert_eq!(
            get(events.last().unwrap(), "kind").as_str(),
            Some("drop"),
            "journal must end at the triggering drop"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The registry baseline a snapshot diffs against is rendered only when a
/// snapshot can be written. A gauge that counts its samples shows it: an
/// authentic stream, which trips no trigger, samples the gauge never
/// without an output path, and exactly once (the baseline) with one, and
/// no snapshot is written either way.
#[test]
fn the_baseline_is_rendered_only_when_snapshots_can_be_written() {
    let dir = fresh_dir("baseline");
    let authentic = Transmitter::new().transmit_payload(b"00000").unwrap();
    let bytes = framed_in_noise(33, &[&authentic, &authentic]);
    for out in [None, Some(dir.join("incident.json"))] {
        let samples = Arc::new(AtomicUsize::new(0));
        let registry = Arc::new(Registry::new());
        let counter = Arc::clone(&samples);
        registry.gauge_fn(
            "test_samples",
            "Times this gauge was read.",
            &[],
            move || counter.fetch_add(1, Relaxed) as f64,
        );
        let gw = GatewayConfig::builder()
            .detector(Detector::new(ChannelAssumption::Ideal).with_threshold(0.25))
            .stats_interval(None)
            .build()
            .unwrap();
        let server = GatewayServer::new(ServerConfig::from(gw))
            .with_registry(registry)
            .with_flight(FlightOptions {
                out: out.clone(),
                ..FlightOptions::default()
            });
        let report = server
            .run_streams(
                vec![NamedStream::new("uplink", &bytes[..])],
                &mut std::io::sink(),
                &mut std::io::sink(),
            )
            .unwrap();
        assert_eq!(report.metrics.frames_decoded, 2, "out {out:?}");
        assert!(!report.forgery_detected(), "out {out:?}");
        let baselines = usize::from(out.is_some());
        assert_eq!(samples.load(Relaxed), baselines, "out {out:?}");
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 0, "out {out:?}: no trigger, so no snapshot");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
