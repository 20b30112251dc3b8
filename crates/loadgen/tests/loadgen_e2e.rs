//! End-to-end tests: the loadgen fleet against a real in-process
//! [`GatewayServer`] over TCP.
//!
//! The debug-friendly test drains a tiny fixed fleet and reconciles the
//! generator's ground truth against the server's own counters. The
//! release-only test is the acceptance scenario: 32 concurrent mixed
//! TCP streams soaked against a live server + metrics endpoint, with the
//! full SLO verdict asserted.

use ctc_core::defense::{ChannelAssumption, Detector};
use ctc_gateway::{GatewayConfig, GatewayServer, Input, Listener, ServerConfig};
use ctc_loadgen::{run_fleet, FleetSpec, Target};
use ctc_zigbee::Receiver;
use std::sync::Mutex;

/// Both tests drive a full gateway on the same machine; run them one at
/// a time so the line-rate fixed fleet can't starve the soak's workers
/// and spike its latency SLO.
static SERIAL: Mutex<()> = Mutex::new(());

/// The CLI's `ctc monitor --listen` configuration in miniature: timing
/// search on (burst captures start mid-noise), small chunks so events
/// complete while streams are still live.
fn server_config(workers: usize, queue: usize, max_streams: usize) -> ServerConfig {
    let gw = GatewayConfig::builder()
        .receiver(Receiver::usrp().with_sync_search(96))
        .detector(Detector::new(ChannelAssumption::Ideal).with_threshold(0.25))
        .workers(workers)
        .chunk_samples(4096)
        .queue_depth(queue)
        .stats_interval(None)
        .build()
        .unwrap();
    let mut config = ServerConfig::from(gw);
    config.max_streams = max_streams;
    config
}

fn bind_ephemeral() -> (Listener, Target) {
    let listener = Listener::bind(&Input::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
    let target = Target::parse(&listener.local_display()).unwrap();
    (listener, target)
}

/// A small fixed-count fleet drains through a live TCP server, and the
/// server's counters reconcile exactly with the generator's ground
/// truth: every burst ingested, every forgery flagged, nothing dropped.
#[test]
fn fixed_fleet_reconciles_with_server_counters() {
    let _serial = SERIAL.lock().unwrap();
    let (listener, target) = bind_ephemeral();
    let mut config = server_config(2, 64, 8);
    // The fleet hangs up after its events; the server drains the
    // sessions and returns on its own.
    config.stop_after = Some(2);
    let server = GatewayServer::new(config);
    let handle = std::thread::spawn(move || {
        server.serve(listener, &mut std::io::sink(), &mut std::io::sink())
    });

    let spec = FleetSpec {
        streams: 2,
        events_per_stream: 2,
        rate_msps: 0.0, // line rate: this test is about delivery, not pacing
        ..FleetSpec::default()
    };
    let fleet = run_fleet(&spec, &target, None).unwrap();
    let report = handle.join().unwrap().unwrap();

    assert_eq!(fleet.errors(), 0, "streams: {:?}", fleet.streams);
    let sent = fleet.sent();
    assert_eq!(sent.total(), 4);
    assert_eq!(report.server.sessions_opened, 2);
    assert_eq!(report.server.sessions_closed, 2);
    assert_eq!(report.server.sessions_errored, 0);
    assert_eq!(report.metrics.bursts, sent.total(), "every burst ingested");
    assert_eq!(
        report.metrics.frames_decoded,
        sent.authentic + sent.forged,
        "authentic and forged bursts decode; noise bursts do not"
    );
    assert_eq!(report.metrics.forgeries, sent.forged, "exact recall");
    assert_eq!(report.metrics.bursts_dropped, 0);
}

/// A soak whose SLOs cannot be met must write an incident snapshot and
/// embed its path in the JSON capacity report. Small and debug-friendly:
/// the breach comes from impossible bounds, not from load.
#[test]
fn slo_breach_writes_an_incident_snapshot_into_the_report() {
    use ctc_loadgen::{render_soak, run_soak, SoakConfig};
    use ctc_obs::Registry;
    use std::sync::Arc;
    use std::time::Duration;

    let _serial = SERIAL.lock().unwrap();
    let (listener, target) = bind_ephemeral();
    let registry = Arc::new(Registry::new());
    let http = ctc_obs::http::serve("127.0.0.1:0", Arc::clone(&registry)).unwrap();

    let server = GatewayServer::new(server_config(2, 64, 8)).with_registry(Arc::clone(&registry));
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || {
        server.serve(listener, &mut std::io::sink(), &mut std::io::sink())
    });

    let spec = FleetSpec {
        streams: 2,
        rate_msps: 0.0,
        ..FleetSpec::default()
    };
    let incident_path = std::env::temp_dir().join(format!(
        "ctc_loadgen_e2e_incident_{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&incident_path);
    let mut config = SoakConfig::new(spec, http.addr().to_string(), Duration::from_secs(2));
    config.warmup = Duration::from_secs(1);
    // Bounds no run can meet: any processed burst breaches at least one.
    config.slo.p99_latency_us = Some(0.0001);
    config.slo.min_recall = Some(1.5);
    config.incident_out = Some(incident_path.clone());
    let outcome = run_soak(&config, &target).unwrap();

    shutdown.shutdown();
    handle.join().unwrap().unwrap();

    assert!(!outcome.pass, "impossible SLOs must breach");
    let path = outcome.incident.as_deref().expect("incident path recorded");
    assert_eq!(path, incident_path.display().to_string());

    // The capacity report embeds the path.
    let report_line = render_soak(&config, &target, &outcome);
    let report = ctc_obs::json::parse(&report_line).unwrap();
    assert_eq!(report.get("incident").and_then(|v| v.as_str()), Some(path));

    // And the snapshot itself is a valid incident document with the SLO
    // verdict journaled.
    let text = std::fs::read_to_string(&incident_path).unwrap();
    std::fs::remove_file(&incident_path).unwrap();
    let doc = ctc_obs::json::parse(&text).unwrap();
    assert_eq!(
        doc.get("trigger").and_then(|v| v.as_str()),
        Some("slo_breach")
    );
    let events = doc.get("events").and_then(|v| v.as_array()).unwrap();
    assert_eq!(events.len(), outcome.checks.len());
    let slo = doc.get("slo").and_then(|v| v.as_array()).unwrap();
    assert!(slo
        .iter()
        .any(|c| c.get("pass").and_then(|p| p.as_bool()) == Some(false)));
    assert!(doc.get("registry").and_then(|v| v.as_array()).is_some());
}

/// The acceptance scenario, release-only (debug DSP is far too slow for
/// a 32-stream fleet): 32 concurrent mixed TCP streams soaked against a
/// live server and metrics endpoint; the SLO verdict must pass on every
/// check — latency, drop budgets, recall against ground truth, zero
/// steady-state pool misses, bounded RSS growth.
#[cfg(not(debug_assertions))]
#[test]
fn soak_sustains_32_concurrent_tcp_streams() {
    use ctc_loadgen::{run_soak, SoakConfig};
    use ctc_obs::Registry;
    use std::sync::Arc;
    use std::time::Duration;

    let _serial = SERIAL.lock().unwrap();
    let (listener, target) = bind_ephemeral();
    let registry = Arc::new(Registry::new());
    ctc_obs::register_process_metrics(&registry);
    let http = ctc_obs::http::serve("127.0.0.1:0", Arc::clone(&registry)).unwrap();

    let server = GatewayServer::new(server_config(4, 256, 64)).with_registry(Arc::clone(&registry));
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || {
        server.serve(listener, &mut std::io::sink(), &mut std::io::sink())
    });

    // 32 streams at 0.05 Msps each: 1.6 Msamples/s aggregate, a point a
    // single CI core sustains with margin (the bench floor is 4 Msps on
    // one worker) while still exercising real concurrency.
    let spec = FleetSpec {
        streams: 32,
        rate_msps: 0.05,
        ..FleetSpec::default()
    };
    let mut config = SoakConfig::new(spec, http.addr().to_string(), Duration::from_secs(8));
    // Default bounds except where shared CI runners add scheduling noise
    // a production budget doesn't tolerate: the latency bound gets 3×
    // headroom, and the pool-miss budget allows one late first-peak per
    // stream (uneven scheduling can push the buffer pool's high-water
    // mark past the warmup scrape). The strict defaults — 50 ms, zero
    // misses — are asserted by scripts/loadgen_smoke.sh at 8 streams.
    // This test's acceptance is sustained 32-stream concurrency.
    config.warmup = Duration::from_secs(4);
    config.slo.p99_latency_us = Some(150_000.0);
    config.slo.max_steady_pool_misses = Some(config.fleet.streams as f64);
    let outcome = run_soak(&config, &target).unwrap();

    shutdown.shutdown();
    let report = handle.join().unwrap().unwrap();

    let verdicts: Vec<String> = outcome
        .checks
        .iter()
        .map(|c| {
            format!(
                "{} {:?} {} {} (pass={} skipped={})",
                c.name, c.value, c.op, c.bound, c.pass, c.skipped
            )
        })
        .collect();
    assert!(outcome.pass, "SLO breach:\n{}", verdicts.join("\n"));
    for check in &outcome.checks {
        assert!(!check.skipped, "check {} was skipped", check.name);
    }
    assert_eq!(report.server.sessions_opened, 32);
    assert_eq!(report.server.sessions_errored, 0);
    assert_eq!(outcome.observed.dropped, 0.0, "no drops at this rate");
    assert!(
        outcome.observed.frames_attack >= 1.0,
        "the mix must have exercised forgeries"
    );
}
