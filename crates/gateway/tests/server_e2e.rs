//! End-to-end tests for the gateway server: a synthetic over-the-air
//! capture streamed through the full pipeline, checked at the JSONL
//! boundary — the same surface the CI smoke test and shell users consume.
//!
//! One unlabelled stream on one shard (how `ctc monitor --input` runs a
//! recording) pins the single-stream event and stats shape, chunking,
//! short-read and worker-count invariance, the trace span chains, an
//! `ingest` stage that starts when the data arrives, and the canonical
//! metric names. Labelled streams pin session labelling and per-session
//! sequence order over the interleaved JSONL stream, isolation of a
//! stalled stream, verdicts on a stream its client holds open, session
//! churn against the shared buffer pool, concurrent TCP fan-in, and
//! run-wide totals that equal the sum over sessions.

use ctc_channel::noise::complex_gaussian;
use ctc_core::attack::Emulator;
use ctc_core::defense::{ChannelAssumption, Detector};
use ctc_dsp::io::write_cf32;
use ctc_dsp::Complex;
use ctc_gateway::{
    FlightOptions, GatewayConfig, GatewayError, GatewayServer, Input, Listener, MetricsSnapshot,
    NamedStream, ServerConfig, ServerReport,
};
use ctc_obs::json::{self, JsonValue};
use ctc_zigbee::Transmitter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// noise | authentic frame | noise | forged frame | noise, as cf32 bytes.
fn synthetic_capture(seed: u64) -> (Vec<u8>, usize) {
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
    let total = stream.len();
    let mut bytes = Vec::new();
    write_cf32(&mut bytes, &stream).unwrap();
    (bytes, total)
}

fn config() -> GatewayConfig {
    GatewayConfig::builder()
        .detector(Detector::new(ChannelAssumption::Ideal).with_threshold(0.25))
        .stats_interval(None)
        .build()
        .unwrap()
}

/// One unlabelled stream on one shard: the shape of `ctc monitor
/// --input`.
fn single_stream(config: GatewayConfig) -> GatewayServer {
    GatewayServer::new(ServerConfig {
        shards: 1,
        ..ServerConfig::from(config)
    })
}

/// Runs `input` through `server` as its one unlabelled stream; returns
/// the report plus the events and stats text.
fn run_single(server: &GatewayServer, input: impl Read + Send) -> (ServerReport, String, String) {
    let (mut events, mut stats) = (Vec::new(), Vec::new());
    let report = server
        .run_streams(
            vec![NamedStream::unlabelled(input)],
            &mut events,
            &mut stats,
        )
        .unwrap();
    (
        report,
        String::from_utf8(events).unwrap(),
        String::from_utf8(stats).unwrap(),
    )
}

/// Extracts `"key":value` (raw JSON text) from a rendered line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}"));
    let rest = &line[at + pat.len()..];
    let end = if let Some(inner) = rest.strip_prefix('"') {
        inner.find('"').map(|i| i + 2).unwrap()
    } else {
        rest.find([',', '}']).unwrap()
    };
    &rest[..end]
}

/// Groups an interleaved event stream by `stream` label and checks each
/// session's discipline: `open` at seq 0, frames in contiguous ascending
/// order, `close` as the final seq. Returns events per label.
fn check_session_order(events: &str) -> BTreeMap<String, Vec<String>> {
    let mut by_stream: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in events.lines() {
        let label = field(line, "stream").trim_matches('"').to_string();
        by_stream.entry(label).or_default().push(line.to_string());
    }
    for (label, lines) in &by_stream {
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(
                field(line, "seq"),
                i.to_string(),
                "stream {label} out of order at {line}"
            );
        }
        let first = &lines[0];
        assert_eq!(field(first, "type"), "\"session\"", "{first}");
        assert_eq!(field(first, "event"), "\"open\"", "{first}");
        let last = lines.last().unwrap();
        assert_eq!(field(last, "type"), "\"session\"", "{last}");
        assert_eq!(field(last, "event"), "\"close\"", "{last}");
    }
    by_stream
}

/// A `Write` events sink the test can inspect while the server still
/// holds it — how we observe one session finishing while another stalls.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A source whose reads return seeded sizes that are never whole
/// samples, like a socket whose segments split samples.
struct ShortReads<'a> {
    bytes: &'a [u8],
    rng: StdRng,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = 8 * self.rng.gen_range(0..200usize) + self.rng.gen_range(1..8usize);
        let n = size.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Serves `server` on an ephemeral TCP port from a thread: returns the
/// `host:port` to connect to, the live event sink and the server thread.
fn serve_tcp(
    server: GatewayServer,
) -> (
    String,
    SharedBuf,
    std::thread::JoinHandle<Result<ServerReport, GatewayError>>,
) {
    let listener = Listener::bind(&Input::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
    let addr = listener
        .local_display()
        .strip_prefix("tcp://")
        .unwrap()
        .to_string();
    let events = SharedBuf::default();
    let mut sink = events.clone();
    let handle =
        std::thread::spawn(move || server.serve(listener, &mut sink, &mut std::io::sink()));
    (addr, events, handle)
}

#[test]
fn gateway_flags_the_forged_frame_over_jsonl() {
    let (bytes, total) = synthetic_capture(11);
    let (report, events, stats) = run_single(&single_stream(config()), &bytes[..]);

    assert_eq!(report.metrics.samples_in as usize, total);
    assert_eq!(report.metrics.bursts, 2);
    assert_eq!(report.metrics.frames_decoded, 2);
    assert_eq!(report.metrics.forgeries, 1);
    assert_eq!(report.metrics.bursts_dropped, 0);
    assert_eq!(report.metrics.samples_dropped, 0);
    assert!(report.forgery_detected());

    // Unlabelled: frame lines only, no session markers or stream tags.
    let frames: Vec<&str> = events.lines().collect();
    assert_eq!(frames.len(), 2, "events:\n{events}");
    assert!(!events.contains("\"stream\""), "{events}");
    // In-order by sequence number despite the racing worker pool.
    assert_eq!(field(frames[0], "type"), "\"frame\"");
    assert_eq!(field(frames[0], "seq"), "0");
    assert_eq!(field(frames[1], "seq"), "1");
    assert_eq!(field(frames[0], "verdict"), "\"authentic\"");
    assert_eq!(field(frames[1], "verdict"), "\"attack\"");
    assert_eq!(field(frames[0], "accepted_forgery"), "false");
    assert_eq!(field(frames[1], "accepted_forgery"), "true");
    // Payload "00000" as lowercase hex.
    assert_eq!(field(frames[0], "payload_hex"), "\"3030303030\"");
    assert_eq!(field(frames[1], "payload_hex"), "\"3030303030\"");
    for f in &frames {
        assert_eq!(field(f, "truncated"), "false");
        assert!(f.contains("\"latency\":{\"queue_us\":"), "latency in {f}");
    }

    // The final stats line always lands on the stats writer, with no
    // `streams` field for an in-process feed.
    let last = stats.lines().last().unwrap();
    assert_eq!(field(last, "type"), "\"stats\"");
    assert_eq!(field(last, "forgeries"), "1");
    assert_eq!(field(last, "samples_dropped"), "0");
    assert!(!last.contains("\"streams\""), "{last}");
}

/// The gateway's event content is invariant to chunk size, and to reads
/// that split samples and are handed over one at a time: only latency
/// numbers may differ between runs.
#[test]
fn gateway_events_are_chunking_invariant() {
    let (bytes, _) = synthetic_capture(12);
    let strip_latency = |events: &str| -> Vec<String> {
        events
            .lines()
            .map(|l| l.split(",\"latency\"").next().unwrap().to_string())
            .collect()
    };
    let mut reference = None;
    for chunk_samples in [64usize, 1000, 65_536] {
        let cfg = GatewayConfig {
            chunk_samples,
            ..config()
        };
        let (report, events, _) = run_single(&single_stream(cfg), &bytes[..]);
        assert_eq!(report.metrics.samples_dropped, 0);
        let lines = strip_latency(&events);
        assert_eq!(lines.len(), 2, "chunk {chunk_samples}");
        match &reference {
            None => reference = Some(lines),
            Some(r) => assert_eq!(&lines, r, "chunk {chunk_samples}"),
        }
    }
    let short_reads = ShortReads {
        bytes: &bytes,
        rng: StdRng::seed_from_u64(12),
    };
    let (report, events, _) = run_single(&single_stream(config()), short_reads);
    assert_eq!(report.metrics.samples_dropped, 0);
    // Each read went to the splitter on its own, not batched into a chunk.
    let chunks = report.metrics.chunks_in;
    assert!(chunks > 20, "{chunks} chunks");
    assert_eq!(Some(strip_latency(&events)), reference, "short reads");
}

/// The JSONL event stream must be invariant under worker-pool size: the
/// sink reorders by sequence number, so 1, 2, or 4 racing workers must
/// emit identical events (only the wall-clock `latency` object may vary).
#[test]
fn gateway_events_are_worker_pool_invariant() {
    let (bytes, _) = synthetic_capture(14);
    let normalize = |events: &str| -> Vec<JsonValue> {
        events
            .lines()
            .map(
                |l| match json::parse(l).unwrap_or_else(|e| panic!("{l}: {e}")) {
                    JsonValue::Object(fields) => JsonValue::Object(
                        fields.into_iter().filter(|(k, _)| k != "latency").collect(),
                    ),
                    other => other,
                },
            )
            .collect()
    };
    let mut reference = None;
    for workers in [1usize, 2, 4] {
        let cfg = GatewayConfig {
            workers,
            ..config()
        };
        let (report, events, _) = run_single(&single_stream(cfg), &bytes[..]);
        assert_eq!(report.metrics.samples_dropped, 0, "workers {workers}");
        let lines = normalize(&events);
        assert_eq!(lines.len(), 2, "workers {workers}");
        match &reference {
            None => reference = Some(lines),
            Some(r) => assert_eq!(&lines, r, "workers {workers}"),
        }
    }
}

/// One parsed span record from the JSONL trace log.
#[derive(Debug, Clone)]
struct SpanRecord {
    span: u64,
    seq: u64,
    stage: String,
    start_us: u64,
    end_us: u64,
}

fn parse_trace(text: &str) -> Vec<SpanRecord> {
    text.lines()
        .map(|l| SpanRecord {
            span: field(l, "span").parse().unwrap(),
            seq: field(l, "seq").parse().unwrap(),
            stage: field(l, "stage").trim_matches('"').to_string(),
            start_us: field(l, "start_us").parse().unwrap(),
            end_us: field(l, "end_us").parse().unwrap(),
        })
        .collect()
}

/// The span log must reconstruct, for every emitted frame, a contiguous
/// stage chain ingest → queue → decode → classify → emit: each stage's
/// `end_us` is the next stage's `start_us` (the pipeline hands the same
/// `Instant` across every boundary), timestamps are monotonic, and the
/// chain is invariant under worker-pool size — only the numbers may vary.
#[test]
fn trace_log_reconstructs_contiguous_stage_chains() {
    const CHAIN: [&str; 5] = ["ingest", "queue", "decode", "classify", "emit"];
    let (bytes, _) = synthetic_capture(11);
    for workers in [1usize, 2, 4] {
        let buf = SharedBuf::default();
        let sink = Arc::new(ctc_obs::TraceSink::new(Box::new(buf.clone())));
        let cfg = GatewayConfig {
            workers,
            ..config()
        };
        let (report, _, _) = run_single(&single_stream(cfg).with_trace_sink(sink), &bytes[..]);
        assert_eq!(report.metrics.frames_decoded, 2, "workers {workers}");
        assert_eq!(report.metrics.bursts_dropped, 0, "workers {workers}");

        let text = buf.contents();
        let records = parse_trace(&text);
        // Exactly one full chain per burst, nothing else in the log.
        assert_eq!(records.len(), 2 * CHAIN.len(), "workers {workers}:\n{text}");
        for seq in [0u64, 1] {
            let mut chain: Vec<&SpanRecord> = records.iter().filter(|r| r.seq == seq).collect();
            // Workers race, so records may be out of order in the file;
            // the timestamps, not file order, define the chain.
            chain.sort_by_key(|r| (r.start_us, r.end_us));
            let stages: Vec<&str> = chain.iter().map(|r| r.stage.as_str()).collect();
            assert_eq!(stages, CHAIN, "workers {workers}, seq {seq}");
            // One span per burst, never the disabled sentinel.
            assert_ne!(chain[0].span, 0);
            assert!(chain.iter().all(|r| r.span == chain[0].span));
            for r in &chain {
                assert!(r.start_us <= r.end_us, "workers {workers}: {r:?}");
            }
            // Contiguity: stage N ends exactly where stage N+1 starts.
            for pair in chain.windows(2) {
                assert_eq!(
                    pair[0].end_us, pair[1].start_us,
                    "workers {workers}, seq {seq}: gap between {} and {}",
                    pair[0].stage, pair[1].stage
                );
            }
        }
        // The two bursts carry distinct spans.
        let span_of = |seq| records.iter().find(|r| r.seq == seq).unwrap().span;
        assert_ne!(span_of(0), span_of(1), "workers {workers}");
    }
}

/// A client that is silent for `wait` before it sends its bytes.
struct LateReader<'a> {
    wait: Option<Duration>,
    bytes: &'a [u8],
}

impl Read for LateReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(wait) = self.wait.take() {
            std::thread::sleep(wait);
        }
        self.bytes.read(buf)
    }
}

/// The `ingest` stage starts when a read returns with the data, not when
/// the gateway starts waiting for it: a client's silence before it sends
/// is not gateway work, in the span log or in the incident digest the
/// flight recorder builds from the same stage events.
#[test]
fn ingest_span_starts_when_the_data_arrives() {
    const SILENCE: Duration = Duration::from_millis(300);
    let limit_us = SILENCE.as_micros() as u64;
    let (bytes, _) = synthetic_capture(16);
    let dir = std::env::temp_dir().join(format!("ctc_server_e2e_late_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let incident = dir.join("incident.json");
    let trace = SharedBuf::default();
    let server = single_stream(config())
        .with_trace_sink(Arc::new(ctc_obs::TraceSink::new(Box::new(trace.clone()))))
        .with_flight(FlightOptions {
            out: Some(incident.clone()),
            ..FlightOptions::default()
        });
    let late = LateReader {
        wait: Some(SILENCE),
        bytes: &bytes,
    };
    let (report, _, _) = run_single(&server, late);
    assert_eq!(report.metrics.frames_decoded, 2);
    assert!(report.forgery_detected());

    let text = trace.contents();
    let ingest: Vec<SpanRecord> = parse_trace(&text)
        .into_iter()
        .filter(|r| r.stage == "ingest")
        .collect();
    assert_eq!(ingest.len(), 2, "{text}");
    for r in &ingest {
        assert!(
            r.end_us - r.start_us < limit_us,
            "ingest span counts the client's silence: {r:?}"
        );
    }
    let doc = json::parse(&std::fs::read_to_string(&incident).unwrap()).unwrap();
    let max_us = doc
        .get("stages")
        .and_then(|s| s.get("ingest"))
        .and_then(|s| s.get("max_us"))
        .and_then(JsonValue::as_f64)
        .expect("an ingest stage digest in the incident");
    assert!(
        max_us < limit_us as f64,
        "incident digest counts the client's silence: {max_us} µs"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A run published into a registry must expose the canonical metric names
/// with values matching the report — the contract `ctc monitor
/// --metrics-addr` and the CI metrics smoke step scrape against.
#[test]
fn registry_exposes_canonical_names_after_a_run() {
    let (bytes, total) = synthetic_capture(11);
    let registry = Arc::new(ctc_obs::Registry::new());
    let server = single_stream(config()).with_registry(Arc::clone(&registry));
    let (report, _, _) = run_single(&server, &bytes[..]);
    assert_eq!(report.metrics.forgeries, 1);

    let text = registry.render();
    for line in [
        format!("ctc_gateway_samples_total {total}"),
        "ctc_gateway_bursts_total 2".to_string(),
        "ctc_gateway_frames_total{verdict=\"attack\"} 1".to_string(),
        "ctc_gateway_frames_total{verdict=\"authentic\"} 1".to_string(),
        "ctc_gateway_frames_total{verdict=\"undecoded\"} 0".to_string(),
        "ctc_queue_dropped_total 0".to_string(),
        "ctc_queue_dropped_samples_total 0".to_string(),
        "ctc_gateway_latency_us_count 2".to_string(),
        "ctc_pool_misses_total".to_string(),
    ] {
        assert!(text.contains(&line), "missing `{line}` in:\n{text}");
    }
    // Both decoded frames fell into some finite latency bucket.
    assert!(
        text.contains("ctc_gateway_latency_us_bucket{le=\"+Inf\"} 2"),
        "{text}"
    );
}

/// A worker pool must keep up with a realistic sample clock — with the
/// pooled, allocation-free sample path the bench sits near 40 Msamples/s,
/// so 10 is a conservative floor with headroom for slow CI machines. Debug
/// builds are an order of magnitude slower, so the floor only applies in
/// release.
#[cfg(not(debug_assertions))]
#[test]
fn gateway_sustains_10_msamples_per_sec() {
    let mut rng = StdRng::seed_from_u64(13);
    let frame = Transmitter::new().transmit_payload(b"00000").unwrap();
    // Mostly idle channel with periodic traffic: 2M samples total.
    let mut stream: Vec<Complex> = Vec::with_capacity(2_000_000);
    while stream.len() < 2_000_000 {
        stream.extend((0..40_000).map(|_| complex_gaussian(&mut rng, 1e-3)));
        stream.extend_from_slice(&frame);
    }
    let mut bytes = Vec::new();
    write_cf32(&mut bytes, &stream).unwrap();

    let (report, _, _) = run_single(&single_stream(config()), &bytes[..]);
    assert_eq!(report.metrics.samples_dropped, 0);
    assert!(report.metrics.frames_decoded >= 40);
    assert!(
        report.msamples_per_sec() >= 10.0,
        "throughput {:.2} Msamples/s",
        report.msamples_per_sec()
    );
}

#[test]
fn labelled_streams_interleave_with_per_session_order() {
    let (bytes, total) = synthetic_capture(21);
    let server = GatewayServer::new(ServerConfig::from(config()));
    let mut events = Vec::new();
    let report = server
        .run_streams(
            vec![
                NamedStream::new("alpha", &bytes[..]),
                NamedStream::new("beta", &bytes[..]),
                NamedStream::new("gamma", &bytes[..]),
            ],
            &mut events,
            &mut Vec::new(),
        )
        .unwrap();

    // Run-wide counters are the sum over sessions.
    assert_eq!(report.metrics.samples_in as usize, 3 * total);
    assert_eq!(report.metrics.bursts, 6);
    assert_eq!(report.metrics.frames_decoded, 6);
    assert_eq!(report.metrics.forgeries, 3);
    assert!(report.forgery_detected());
    assert_eq!(report.server.sessions_opened, 3);
    assert_eq!(report.server.sessions_closed, 3);
    assert_eq!(report.server.sessions_errored, 0);

    // Per-session summaries carry each stream's own tallies.
    assert_eq!(report.sessions.len(), 3);
    for label in ["alpha", "beta", "gamma"] {
        let s = report.session(label).unwrap();
        assert_eq!(s.metrics.samples_in as usize, total, "{label}");
        assert_eq!(s.metrics.bursts, 2, "{label}");
        assert_eq!(s.metrics.forgeries, 1, "{label}");
    }

    // Every event is stream-tagged and per-session seq-ordered.
    let events = String::from_utf8(events).unwrap();
    let by_stream = check_session_order(&events);
    assert_eq!(by_stream.len(), 3, "{events}");
    for label in ["alpha", "beta", "gamma"] {
        let lines = &by_stream[label];
        // open + 2 frames + close
        assert_eq!(lines.len(), 4, "{label}: {lines:?}");
        assert_eq!(field(&lines[1], "verdict"), "\"authentic\"");
        assert_eq!(field(&lines[2], "verdict"), "\"attack\"");
        let close = lines.last().unwrap();
        assert_eq!(field(close, "frames_decoded"), "2");
        assert_eq!(field(close, "forgeries"), "1");
    }
}

/// A stalled client must not delay another stream's events: session
/// isolation is the whole point of shards + per-session ordering.
#[test]
fn stalled_stream_does_not_block_another() {
    let (bytes, _) = synthetic_capture(22);
    let server = GatewayServer::new(ServerConfig::from(config()));
    let shutdown = server.shutdown_handle();
    let (addr, events, handle) = serve_tcp(server);

    // First connection stalls: connected, never writes, never closes.
    let stalled = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    // Second connection streams a full capture and hangs up.
    {
        let mut live = TcpStream::connect(&addr).unwrap();
        live.write_all(&bytes).unwrap();
    }

    // The live session's close event (with both frames decoded) must land
    // while the stalled client still holds its connection open.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = events.contents();
        let done = text
            .lines()
            .any(|l| l.contains("\"event\":\"close\"") && l.contains("\"frames_decoded\":2"));
        if done {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "live session did not finish behind a stalled peer:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let mid_run = events.contents();
    let closes = mid_run.matches("\"event\":\"close\"").count();
    assert_eq!(closes, 1, "stalled session must still be open:\n{mid_run}");

    // Shutdown unwedges the stalled session (EOF at its next poll).
    shutdown.shutdown();
    let report = handle.join().unwrap().unwrap();
    drop(stalled);
    assert_eq!(report.server.sessions_opened, 2);
    assert_eq!(report.server.sessions_closed, 2);
    assert_eq!(report.server.sessions_errored, 0);
    check_session_order(&events.contents());
}

/// A client that sends less than one default chunk and holds its
/// connection open still gets its verdicts: ingest hands each read to the
/// splitter instead of waiting for a full chunk or for the hang-up.
#[test]
fn held_open_stream_is_classified_before_hang_up() {
    let (bytes, total) = synthetic_capture(27);
    assert!(total < ctc_dsp::io::DEFAULT_CHUNK_SAMPLES);
    let mut server_config = ServerConfig::from(config());
    server_config.stop_after = Some(1);
    let (addr, events, handle) = serve_tcp(GatewayServer::new(server_config));

    let mut client = TcpStream::connect(&addr).unwrap();
    client.write_all(&bytes).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let frames = loop {
        let text = events.contents();
        let frames: Vec<String> = text
            .lines()
            .filter(|l| l.contains("\"type\":\"frame\""))
            .map(str::to_string)
            .collect();
        if frames.len() == 2 {
            break frames;
        }
        assert!(
            Instant::now() < deadline,
            "no verdicts while the client held its stream open:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(field(&frames[0], "verdict"), "\"authentic\"");
    assert_eq!(field(&frames[1], "verdict"), "\"attack\"");
    let mid_run = events.contents();
    assert!(
        !mid_run.contains("\"event\":\"close\""),
        "the session must still be open:\n{mid_run}"
    );

    drop(client);
    let report = handle.join().unwrap().unwrap();
    assert_eq!(report.server.sessions_closed, 1);
    assert_eq!(report.metrics.samples_in as usize, total);
    assert_eq!(report.metrics.frames_decoded, 2);
    check_session_order(&events.contents());
}

/// Session churn must not leak pooled capture buffers: every buffer a
/// session checked out is back in the shared pool by end of run.
#[test]
fn session_churn_returns_every_pooled_buffer() {
    let (bytes, _) = synthetic_capture(23);
    let streams: Vec<NamedStream<'_>> = (0..8)
        .map(|i| NamedStream::new(format!("s{i}"), &bytes[..]))
        .collect();
    let server = GatewayServer::new(ServerConfig::from(config()));
    let report = server
        .run_streams(streams, &mut Vec::new(), &mut Vec::new())
        .unwrap();

    assert_eq!(report.metrics.bursts, 16);
    // One pool checkout per burst, and every buffer came back: the pool's
    // idle count equals the number of buffers ever allocated.
    assert_eq!(report.pool.hits + report.pool.misses, 16);
    assert_eq!(report.pool.idle as u64, report.pool.misses);
}

/// One server process sustains 32 concurrent TCP cf32 streams with
/// per-session ordering intact (release builds only: 32 decode pipelines
/// of debug-mode DSP would dominate CI time).
#[cfg(not(debug_assertions))]
#[test]
fn serves_32_concurrent_tcp_streams() {
    let (bytes, total) = synthetic_capture(24);
    let mut server_config = ServerConfig::from(config());
    server_config.max_streams = 64;
    server_config.stop_after = Some(32);
    let (addr, events, handle) = serve_tcp(GatewayServer::new(server_config));

    let clients: Vec<_> = (0..32)
        .map(|_| {
            let addr = addr.clone();
            let bytes = bytes.clone();
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(&addr).unwrap();
                conn.write_all(&bytes).unwrap();
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let report = handle.join().unwrap().unwrap();
    assert_eq!(report.server.sessions_opened, 32);
    assert_eq!(report.server.sessions_closed, 32);
    assert_eq!(report.metrics.samples_in as usize, 32 * total);
    assert_eq!(report.metrics.forgeries, 32);
    let by_stream = check_session_order(&events.contents());
    assert_eq!(by_stream.len(), 32);
}

/// A pipeline-equipped run emits the fused score plus the named feature
/// vector on every frame line, keeps the legacy verdicts (the standard
/// pipeline thresholds the same DE² statistic), and publishes
/// `ctc_detector_score{feature=...}` gauges — while the legacy
/// configuration's lines stay byte-identical (no `score`/`features`).
#[test]
fn pipeline_run_carries_per_feature_scores() {
    use ctc_core::defense::DetectionPipeline;

    let (bytes, _) = synthetic_capture(26);
    let detector = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);

    // The paper's detector reports no scores: neither on its lines nor as
    // registry gauges.
    let legacy_registry = Arc::new(ctc_obs::Registry::new());
    let mut legacy_events = Vec::new();
    GatewayServer::new(ServerConfig::from(config()))
        .with_registry(Arc::clone(&legacy_registry))
        .run_streams(
            vec![NamedStream::new("cap", &bytes[..])],
            &mut legacy_events,
            &mut Vec::new(),
        )
        .unwrap();
    let legacy = String::from_utf8(legacy_events).unwrap();
    assert!(!legacy.contains("\"score\""), "{legacy}");
    assert!(!legacy.contains("\"features\""), "{legacy}");
    let text = legacy_registry.render();
    assert!(!text.contains("ctc_detector_score"), "{text}");

    let mut gw = config();
    gw.pipeline = DetectionPipeline::standard(detector).shared();
    let registry = Arc::new(ctc_obs::Registry::new());
    let server = GatewayServer::new(ServerConfig::from(gw)).with_registry(Arc::clone(&registry));
    let mut events = Vec::new();
    let report = server
        .run_streams(
            vec![NamedStream::new("cap", &bytes[..])],
            &mut events,
            &mut Vec::new(),
        )
        .unwrap();
    assert_eq!(report.metrics.frames_decoded, 2);
    assert_eq!(report.metrics.forgeries, 1);

    let events = String::from_utf8(events).unwrap();
    let frames: Vec<&str> = events
        .lines()
        .filter(|l| l.contains("\"type\":\"frame\""))
        .collect();
    assert_eq!(frames.len(), 2, "{events}");
    // Verdicts match the legacy run line-for-line; scores ride alongside.
    for (frame, legacy_frame) in frames
        .iter()
        .zip(legacy.lines().filter(|l| l.contains("\"type\":\"frame\"")))
    {
        assert_eq!(field(frame, "verdict"), field(legacy_frame, "verdict"));
        assert_eq!(field(frame, "de2"), field(legacy_frame, "de2"));
        let score: f64 = field(frame, "score").parse().unwrap();
        assert!(score.is_finite(), "{frame}");
        for feature in ["de2_ideal", "clustered_evm", "cp_similarity", "rssi_db"] {
            assert!(
                frame.contains(&format!("\"{feature}\":")),
                "{feature} missing from {frame}"
            );
        }
    }
    assert_eq!(field(frames[0], "verdict"), "\"authentic\"");
    assert_eq!(field(frames[1], "verdict"), "\"attack\"");

    let text = registry.render();
    assert!(text.contains("# TYPE ctc_detector_score gauge"), "{text}");
    assert!(text.contains("ctc_detector_score{feature=\"de2_ideal\"}"));
    assert!(text.contains("ctc_detector_score{feature=\"fused\"}"));
}

/// Per-stream metrics land in the registry labelled `{stream="..."}`,
/// next to the unlabelled run-wide totals and the session lifecycle
/// counters. Each total is folded from the sessions when read, so every
/// unlabelled gateway sample — each latency bucket included — and every
/// report counter equals the sum over the sessions.
#[test]
fn per_stream_metrics_are_scrapeable() {
    let (bytes, total) = synthetic_capture(25);
    let registry = Arc::new(ctc_obs::Registry::new());
    let server =
        GatewayServer::new(ServerConfig::from(config())).with_registry(Arc::clone(&registry));
    let report = server
        .run_streams(
            vec![
                NamedStream::new("up", &bytes[..]),
                NamedStream::new("down", &bytes[..]),
            ],
            &mut Vec::new(),
            &mut Vec::new(),
        )
        .unwrap();

    let text = registry.render();
    assert!(
        text.contains(&format!("ctc_gateway_samples_total {}", 2 * total)),
        "{text}"
    );
    assert!(text.contains(&format!(
        "ctc_gateway_samples_total{{stream=\"up\"}} {total}"
    )));
    assert!(text.contains(&format!(
        "ctc_gateway_samples_total{{stream=\"down\"}} {total}"
    )));
    assert!(text.contains("ctc_gateway_bursts_total{stream=\"up\"} 2"));
    assert!(text.contains("ctc_sessions_opened_total 2"));
    assert!(text.contains("ctc_sessions_active 0"));

    let scrape = ctc_obs::Scrape::parse(&text).unwrap();
    let other_labels = |s: &ctc_obs::ScrapeSample| {
        let mut labels: Vec<_> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "stream")
            .cloned()
            .collect();
        labels.sort();
        labels
    };
    let mut totals = 0;
    for t in scrape.samples().iter().filter(|s| {
        (s.name.starts_with("ctc_gateway_") || s.name.starts_with("ctc_queue_"))
            && s.label("stream").is_none()
    }) {
        let parts: Vec<f64> = scrape
            .family(&t.name)
            .filter(|s| s.label("stream").is_some() && other_labels(s) == other_labels(t))
            .map(|s| s.value)
            .collect();
        assert_eq!(parts.len(), 2, "{} {:?}", t.name, t.labels);
        assert_eq!(
            t.value,
            parts.iter().sum::<f64>(),
            "{} {:?}",
            t.name,
            t.labels
        );
        totals += 1;
    }
    // 8 counter samples, 32 latency buckets (`+Inf` included), sum, count.
    assert_eq!(totals, 8 + 32 + 2, "{text}");
    assert_eq!(scrape.value("ctc_gateway_latency_us_count", &[]), Some(4.0));

    let counters = |m: &MetricsSnapshot| {
        [
            m.samples_in,
            m.chunks_in,
            m.bursts,
            m.frames_decoded,
            m.forgeries,
            m.bursts_dropped,
            m.samples_dropped,
            m.latency.count(),
            m.latency.sum,
        ]
    };
    let mut summed = [0u64; 9];
    for s in &report.sessions {
        for (t, v) in summed.iter_mut().zip(counters(&s.metrics)) {
            *t += v;
        }
    }
    assert_eq!(counters(&report.metrics), summed);
    assert_eq!(report.metrics.bursts, 4);
}
