//! End-to-end flight-recorder trigger tests: a forged stream must
//! produce exactly one incident snapshot per run whose journal ends at
//! the triggering verdict, carrying its per-feature scores, the
//! preceding events, and registry deltas.

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
use std::sync::Arc;

/// noise | authentic | noise | forged | noise | forged | noise: two
/// forgeries, so "exactly one snapshot" is a real claim.
fn forged_capture(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma2 = 1e-3;
    let authentic = Transmitter::new().transmit_payload(b"00000").unwrap();
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
    let mut stream: Vec<Complex> = Vec::new();
    let mut noise = |n: usize, stream: &mut Vec<Complex>| {
        stream.extend((0..n).map(|_| complex_gaussian(&mut rng, sigma2)));
    };
    noise(700, &mut stream);
    stream.extend_from_slice(&authentic);
    noise(700, &mut stream);
    stream.extend_from_slice(&forged);
    noise(700, &mut stream);
    stream.extend_from_slice(&forged);
    noise(700, &mut stream);
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
    let mut config = ServerConfig::from(gw);
    config.shards = 1;

    let registry = Arc::new(Registry::new());
    let server = GatewayServer::new(config)
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

    // The auto trigger fires once per run, not once per server: the same
    // server over the same stream dumps exactly one new snapshot.
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
    let events = get(&doc, "events").as_array().unwrap();
    let last = events.last().unwrap();
    assert_eq!(get(last, "kind").as_str(), Some("verdict"));
    assert_eq!(get(last, "accepted_forgery").as_bool(), Some(true));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Drop-budget exhaustion is the second auto trigger: a tiny queue fed
/// at line rate with a blocked worker pool must dump a snapshot whose
/// trigger is `drop_budget` and whose journal contains drop events.
#[test]
fn drop_budget_exhaustion_triggers_a_snapshot() {
    let dir = fresh_dir("drops");
    let out = dir.join("incident.json");

    let detector = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
    let gw = GatewayConfig::builder()
        .detector(detector)
        .workers(1)
        .queue_depth(1) // every second burst sheds
        .stats_interval(None)
        .build()
        .unwrap();
    let mut config = ServerConfig::from(gw);
    config.shards = 1;

    let server = GatewayServer::new(config).with_flight(FlightOptions {
        out: Some(out.clone()),
        drop_budget: Some(1),
        ..FlightOptions::default()
    });

    // Many bursts back-to-back; queue depth 1 guarantees shedding.
    let mut bytes = Vec::new();
    let one = forged_capture(32);
    for _ in 0..6 {
        bytes.extend_from_slice(&one);
    }
    let report = server
        .run_streams(
            vec![NamedStream::new("burst-storm", &bytes[..])],
            &mut std::io::sink(),
            &mut std::io::sink(),
        )
        .unwrap();

    if report.metrics.bursts_dropped == 0 {
        // Worker kept pace (fast machine): the trigger can't fire, and
        // that's fine — the forgery trigger owns this run instead.
        std::fs::remove_dir_all(&dir).unwrap();
        return;
    }
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
