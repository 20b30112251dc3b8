//! End-to-end tests for the gateway server: a synthetic over-the-air
//! capture streamed through the full pipeline, checked at the JSONL
//! boundary — the same surface the CI smoke test and shell users consume.
//!
//! One unlabelled stream (how `ctc monitor --input` runs a recording)
//! pins the single-stream event and stats shape, chunking,
//! short-read and worker-count invariance, a recording that is never
//! shed and starts no worker, the trace log's journal and its stage
//! chains, an `ingest` stage that starts when the data arrives, one
//! flush for the frames of one read, and the canonical metric names.
//! Labelled streams pin session labelling and per-session sequence order
//! over the interleaved JSONL stream, the bursts a read error must not
//! drop, two streams at two workers starting no worker, isolation of a
//! stalled stream, verdicts on a stream its client holds open behind a
//! buffered writer (one that stops inside a block of the gate's noise
//! floor included), concurrent floods shedding their own bursts (through
//! the one worker they start, each shed burst journaled) while a later
//! session runs inline, a panicking session failing the run instead of
//! hanging it,
//! session churn against the shared buffer pool, concurrent TCP fan-in,
//! and run-wide totals that equal the sum over sessions.

use common::{Flood, SlotHold};
use ctc_channel::noise::complex_gaussian;
use ctc_core::attack::Emulator;
use ctc_core::defense::{ChannelAssumption, DetectionPipeline, Detector, MonitorFactory};
use ctc_dsp::io::{write_cf32, Cf32Reader};
use ctc_dsp::simd::GATE_BLOCK;
use ctc_dsp::Complex;
use ctc_gateway::{
    FlightOptions, GatewayConfig, GatewayError, GatewayServer, Input, Listener, MetricsSnapshot,
    NamedStream, ServerConfig, ServerReport, INGEST_BLOCK_SAMPLES,
};
use ctc_obs::flight::MAX_EVENT_SCORES;
use ctc_obs::json::{self, JsonValue};
use ctc_zigbee::Transmitter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod common;

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

/// One unlabelled stream: the shape of `ctc monitor --input`.
fn single_stream(config: GatewayConfig) -> GatewayServer {
    GatewayServer::new(ServerConfig::from(config))
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

/// Serves `server` on an ephemeral TCP port from a thread, its events
/// behind a `BufWriter` as `ctc monitor` writes them: returns the
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
    let mut sink = BufWriter::new(events.clone());
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

/// The gateway's event content is invariant to chunk size, reads that
/// end on, just short of or just past an ingest block's boundary
/// included, and to reads that split samples and are handed over one at
/// a time: only latency numbers may differ between runs.
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
    const B: usize = INGEST_BLOCK_SAMPLES;
    for chunk_samples in [64usize, 1000, B - 1, B, B + 1, 3 * B + 1, 65_536] {
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

/// A lone recording is never shed: nothing else holds a decode slot, so
/// its session decodes every burst itself, in full reads, and its next
/// read waits until it has. That holds at the defaults, at four workers
/// and at the tightest queue, one worker one deep, where every burst
/// would shed if it were queued behind another. Nothing is queued, so
/// the run starts no worker.
#[test]
fn a_lone_recording_decodes_every_burst_inline() {
    let (one, _) = synthetic_capture(15);
    let bytes = one.repeat(30);
    let wide = GatewayConfig {
        workers: 4,
        ..config()
    };
    let tight = GatewayConfig {
        workers: 1,
        queue_depth: 1,
        ..config()
    };
    for cfg in [config(), wide, tight] {
        assert!(bytes.len() > 2 * 8 * cfg.chunk_samples, "full reads");
        let (report, events, _) = run_single(&single_stream(cfg.clone()), &bytes[..]);
        let tag = format!("workers {} queue {}", cfg.workers, cfg.queue_depth);
        assert_eq!(report.metrics.bursts, 60, "{tag}");
        assert_eq!(report.metrics.bursts_dropped, 0, "{tag}");
        assert_eq!(report.workers_started, 0, "{tag}");
        let frames: Vec<&str> = events.lines().collect();
        assert_eq!(frames.len(), 60, "{tag}");
        for frame in frames {
            assert_eq!(field(frame, "type"), "\"frame\"", "{tag}: {frame}");
            assert!(
                frame.contains("\"latency\":{\"queue_us\":0,"),
                "{tag}: {frame}"
            );
        }
    }
}

/// Workers start only when a burst is queued, and two streams at two
/// workers (the benchmark's shape) never queue one: each session runs at
/// most one burst at a time, so two sessions never hold more than the two
/// decode slots, and the run starts no worker.
#[test]
fn two_streams_at_two_workers_start_no_worker() {
    let (one, total) = synthetic_capture(16);
    let bytes = one.repeat(4);
    let pair = GatewayConfig {
        workers: 2,
        ..config()
    };
    let report = GatewayServer::new(ServerConfig::from(pair))
        .run_streams(
            vec![
                NamedStream::new("a", &bytes[..]),
                NamedStream::new("b", &bytes[..]),
            ],
            &mut Vec::new(),
            &mut Vec::new(),
        )
        .unwrap();
    assert_eq!(report.metrics.samples_in as usize, 8 * total);
    assert_eq!(report.metrics.frames_decoded, 16);
    assert_eq!(report.metrics.bursts_dropped, 0);
    assert_eq!(report.workers_started, 0);
}

/// An events writer that records, at each flush, how many lines it
/// received since the previous flush.
#[derive(Default)]
struct FlushLog {
    lines: usize,
    flushes: Vec<usize>,
}

impl Write for FlushLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.lines += buf.iter().filter(|&&b| b == b'\n').count();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes.push(std::mem::take(&mut self.lines));
        Ok(())
    }
}

/// cf32 bytes of noise with a loud 200-sample burst starting at each of
/// `starts`.
fn short_bursts(total: usize, starts: &[usize], seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream: Vec<Complex> = (0..total)
        .map(|_| complex_gaussian(&mut rng, 1e-3))
        .collect();
    for &start in starts {
        for x in &mut stream[start..start + 200] {
            *x = complex_gaussian(&mut rng, 1.0);
        }
    }
    let mut bytes = Vec::new();
    write_cf32(&mut bytes, &stream).unwrap();
    bytes
}

/// The frame lines completed in one ingest block leave in one flush, not
/// one flush each, and a block that completes none flushes nothing:
/// behind `ctc monitor`'s buffered stdout that is one write per block
/// that delivered lines. The groups are what a splitter fed the same
/// blocks completes per block.
#[test]
fn the_frames_of_one_block_leave_in_one_flush() {
    const B: usize = INGEST_BLOCK_SAMPLES;
    // Three bursts end inside the second block, one inside the fourth;
    // the first and third blocks complete none.
    let starts = [B + 100, B + 600, B + 1100, 3 * B + 500];
    let bytes = short_bursts(5 * B, &starts, 29);
    let cfg = config();

    let factory = MonitorFactory::new(cfg.energy, cfg.receiver.clone(), cfg.pipeline.clone())
        .with_max_burst(cfg.max_burst);
    let mut splitter = factory.cf32_splitter();
    let mut reader = Cf32Reader::new(&bytes[..]).with_chunk_samples(5 * B);
    let mut captures = Vec::new();
    let mut per_block = Vec::new();
    for block in reader.read_raw().unwrap().chunks(B) {
        splitter.push_into(block, &mut captures);
        per_block.push(std::mem::take(&mut captures).len());
    }
    splitter.finish_into(&mut captures);
    per_block.push(captures.len());
    assert_eq!(per_block, [0, 3, 0, 1, 0, 0], "the blocks' bursts");

    let mut log = FlushLog::default();
    let report = single_stream(cfg)
        .run_streams(
            vec![NamedStream::unlabelled(&bytes[..])],
            &mut log,
            &mut Vec::new(),
        )
        .unwrap();
    assert_eq!(report.metrics.bursts, 4);
    assert_eq!(report.metrics.chunks_in, 1);
    assert_eq!(log.flushes, [3, 1], "one flush per block that delivered");
    assert_eq!(log.lines, 0, "everything written was flushed");
}

/// An events writer that reads the run's non-finite sample count from
/// the registry whenever a frame line reaches it.
struct NonfiniteAtFrames {
    registry: Arc<ctc_obs::Registry>,
    seen: Arc<Mutex<Vec<f64>>>,
}

impl Write for NonfiniteAtFrames {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if String::from_utf8_lossy(buf).contains("\"type\":\"frame\"") {
            let scrape = ctc_obs::Scrape::parse(&self.registry.render()).unwrap();
            let nonfinite = scrape.value("ctc_gateway_nonfinite_samples_total", &[]);
            self.seen.lock().unwrap().push(nonfinite.unwrap());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A burst completed in a read's first blocks is handed on, and its line
/// written, before the later blocks of the same read are scanned: a NaN
/// several blocks after the frame is not yet counted when the frame's
/// line reaches the writer, and is counted by the end of the run.
#[test]
fn a_burst_leaves_before_the_rest_of_its_read_is_scanned() {
    const B: usize = INGEST_BLOCK_SAMPLES;
    let mut rng = StdRng::seed_from_u64(30);
    let mut stream: Vec<Complex> = (0..700).map(|_| complex_gaussian(&mut rng, 1e-3)).collect();
    stream.extend(Transmitter::new().transmit_payload(b"00000").unwrap());
    let frame_end = stream.len();
    let nan_at = (frame_end / B + 4) * B + 100;
    stream.extend((frame_end..nan_at + 700).map(|_| complex_gaussian(&mut rng, 1e-3)));
    stream[nan_at] = Complex::new(f64::NAN, 0.0);
    assert!(
        stream.len() <= ctc_dsp::io::DEFAULT_CHUNK_SAMPLES,
        "one read"
    );
    let mut bytes = Vec::new();
    write_cf32(&mut bytes, &stream).unwrap();

    let registry = Arc::new(ctc_obs::Registry::new());
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut writer = NonfiniteAtFrames {
        registry: Arc::clone(&registry),
        seen: Arc::clone(&seen),
    };
    let report = single_stream(config())
        .with_registry(Arc::clone(&registry))
        .run_streams(
            vec![NamedStream::unlabelled(&bytes[..])],
            &mut writer,
            &mut Vec::new(),
        )
        .unwrap();
    assert_eq!(report.metrics.chunks_in, 1);
    assert_eq!(report.metrics.frames_decoded, 1);
    assert_eq!(*seen.lock().unwrap(), [0.0], "the NaN was scanned first");
    assert_eq!(report.metrics.nonfinite_samples, 1);
}

/// Each frame line reports the wait before its hand-off as
/// `latency.ingest_us`, and the latency histogram counts from the read's
/// arrival: the second frame of one read waited at least as long as the
/// first took to decode and classify, and the histogram's sum is the
/// lines' `ingest_us + total_us` (each truncated to whole µs).
#[test]
fn latency_counts_from_the_read_that_completed_the_burst() {
    let (bytes, total) = synthetic_capture(11);
    assert!(total < ctc_dsp::io::DEFAULT_CHUNK_SAMPLES, "one read");
    let registry = Arc::new(ctc_obs::Registry::new());
    let server = single_stream(config()).with_registry(Arc::clone(&registry));
    let (report, events, _) = run_single(&server, &bytes[..]);
    assert_eq!(report.metrics.chunks_in, 1);
    let latency: Vec<BTreeMap<String, f64>> = events
        .lines()
        .map(|l| {
            let line = json::parse(l).unwrap();
            let object = line.get("latency").and_then(JsonValue::as_object).unwrap();
            object
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap()))
                .collect()
        })
        .collect();
    assert_eq!(latency.len(), 2, "{events}");
    let (first, second) = (&latency[0], &latency[1]);
    assert!(
        second["ingest_us"] >= first["decode_us"] + first["classify_us"],
        "{events}"
    );
    let lines_sum: f64 = latency.iter().map(|l| l["ingest_us"] + l["total_us"]).sum();
    let scrape = ctc_obs::Scrape::parse(&registry.render()).unwrap();
    let sum = scrape.value("ctc_gateway_latency_us_sum", &[]).unwrap();
    assert!(
        (lines_sum..=lines_sum + 2.0).contains(&sum),
        "histogram sum {sum} vs lines {lines_sum}"
    );
}

/// A source that sends its bytes and then fails instead of ending, like
/// a client whose connection resets right after a frame.
struct FailsAfter<'a> {
    bytes: &'a [u8],
}

impl Read for FailsAfter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.bytes.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "connection reset",
            ));
        }
        self.bytes.read(buf)
    }
}

/// A read error ends the session, but the bursts its splitter already
/// holds are still decoded and classified: a frame whose closing gap
/// never arrived still gets its event before the close marker reports
/// the error and the run fails with `GatewayError::Read`.
#[test]
fn a_read_error_still_processes_the_bursts_already_read() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut stream: Vec<Complex> = (0..700).map(|_| complex_gaussian(&mut rng, 1e-3)).collect();
    stream.extend(Transmitter::new().transmit_payload(b"00000").unwrap());
    let mut bytes = Vec::new();
    write_cf32(&mut bytes, &stream).unwrap();

    let mut events = Vec::new();
    let err = GatewayServer::new(ServerConfig::from(config()))
        .run_streams(
            vec![NamedStream::new("reset", FailsAfter { bytes: &bytes })],
            &mut events,
            &mut Vec::new(),
        )
        .unwrap_err();
    match &err {
        GatewayError::Read { stream, source } => {
            assert_eq!(stream, "reset");
            assert_eq!(source.kind(), std::io::ErrorKind::ConnectionReset);
        }
        other => panic!("expected a read error, got {other:?}"),
    }
    let events = String::from_utf8(events).unwrap();
    let lines = &check_session_order(&events)["reset"];
    assert_eq!(lines.len(), 3, "open, frame, close:\n{events}");
    assert_eq!(field(&lines[1], "type"), "\"frame\"");
    assert_eq!(field(&lines[1], "payload_hex"), "\"3030303030\"");
    assert_eq!(field(&lines[1], "verdict"), "\"authentic\"");
    assert_eq!(field(&lines[1], "truncated"), "true");
    assert!(
        lines[2].contains("\"error\":\"connection reset\""),
        "{}",
        lines[2]
    );
}

/// The stages of a decoded burst, in the order they run.
const CHAIN: [&str; 5] = ["ingest", "queue", "decode", "classify", "emit"];

/// An integer field of a parsed line.
fn num(v: &JsonValue, key: &str) -> u64 {
    let n = v.get(key).and_then(JsonValue::as_f64);
    n.unwrap_or_else(|| panic!("{key} in {v:?}")) as u64
}

/// A string field of a parsed line (`""` when absent).
fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

/// Checks a run's trace log against its event lines, and returns it.
/// Every line is one journal event. Every decoded burst has one `burst`
/// event, one `verdict` whose scores are the frame's features (the first
/// [`MAX_EVENT_SCORES`]), and the stages of [`CHAIN`] in order, each
/// starting (`t_us − dur_us`) where the one before it ended. Every shed
/// burst has its `burst`, `ingest` and `drop` events and no more.
fn check_journal(report: &ServerReport, events: &str, trace: &str) -> Vec<JsonValue> {
    let kinds = "session_open session_close burst stage verdict drop queue_depth";
    let journal: Vec<JsonValue> = trace.lines().map(|l| json::parse(l).unwrap()).collect();
    for e in &journal {
        assert!(kinds.split(' ').any(|k| k == text(e, "kind")), "{e:?}");
        let _ = (num(e, "t_us"), num(e, "session"), num(e, "seq"));
    }
    let kinds = |kind: &str| journal.iter().filter(|e| text(e, "kind") == kind).count();
    assert_eq!(kinds("burst") as u64, report.metrics.bursts, "{trace}");
    assert_eq!(kinds("drop") as u64, report.metrics.bursts_dropped);
    assert_eq!(kinds("session_open"), report.sessions.len());
    for line in events.lines() {
        let frame = json::parse(line).unwrap();
        let decoded = match text(&frame, "type") {
            "frame" => true,
            "dropped" => false,
            _ => continue,
        };
        let label = frame.get("stream").and_then(JsonValue::as_str);
        let session = report.sessions.iter().find(|s| s.label.as_deref() == label);
        let (session, seq) = (session.unwrap().id, num(&frame, "seq"));
        let burst: Vec<&JsonValue> = journal
            .iter()
            .filter(|e| num(e, "session") == session && num(e, "seq") == seq)
            .filter(|e| !text(e, "kind").starts_with("session"))
            .collect();
        let count = |kind: &str| burst.iter().filter(|e| text(e, "kind") == kind).count();
        let stages: Vec<&JsonValue> = burst
            .iter()
            .copied()
            .filter(|e| text(e, "kind") == "stage")
            .collect();
        let names: Vec<&str> = stages.iter().map(|e| text(e, "stage")).collect();
        assert_eq!(count("burst"), 1, "{line}");
        if !decoded {
            assert_eq!((count("drop"), count("verdict")), (1, 0), "{line}");
            assert_eq!(names, ["ingest"], "{line}");
            continue;
        }
        assert_eq!((count("drop"), count("verdict")), (0, 1), "{line}");
        // Trace lines leave in the order they are recorded, and a burst's
        // stages are recorded one after another.
        assert_eq!(names, CHAIN, "{line}");
        for pair in stages.windows(2) {
            let start = num(pair[1], "t_us").checked_sub(num(pair[1], "dur_us"));
            let gap = format!("a gap or an overlap before {:?}", pair[1]);
            assert_eq!(start, Some(num(pair[0], "t_us")), "{gap}");
        }
        let keys = |v: Option<&JsonValue>| -> Vec<String> {
            let fields = v.and_then(JsonValue::as_object).unwrap_or_default();
            fields.iter().map(|(k, _)| k.clone()).collect()
        };
        let mut features = keys(frame.get("features"));
        features.truncate(MAX_EVENT_SCORES);
        let verdict = burst.iter().find(|e| text(e, "kind") == "verdict");
        assert_eq!(keys(verdict.unwrap().get("scores")), features, "{line}");
    }
    journal
}

/// The trace log is the run's journal: for every emitted frame it holds
/// a stage chain ingest → queue → decode → classify → emit that tiles the
/// run's clock, beside the burst's `burst` and `verdict` events, and it
/// is invariant under worker-pool size — only the numbers may vary.
#[test]
fn trace_log_reconstructs_contiguous_stage_chains() {
    let (bytes, _) = synthetic_capture(11);
    for workers in [1usize, 2, 4] {
        let buf = SharedBuf::default();
        let sink = Arc::new(ctc_obs::TraceSink::new(Box::new(buf.clone())));
        let cfg = GatewayConfig {
            workers,
            ..config()
        };
        let (report, events, _) = run_single(&single_stream(cfg).with_trace_sink(sink), &bytes[..]);
        assert_eq!(report.metrics.frames_decoded, 2, "workers {workers}");
        assert_eq!(report.metrics.bursts_dropped, 0, "workers {workers}");

        let log = buf.contents();
        let journal = check_journal(&report, &events, &log);
        // The session's open and close, and per burst its `burst`, five
        // stages and `verdict`: nothing else.
        assert_eq!(journal.len(), 2 + 2 * 7, "workers {workers}:\n{log}");
        assert_eq!(text(&journal[0], "kind"), "session_open");
        assert_eq!(text(journal.last().unwrap(), "kind"), "session_close");
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
/// is not gateway work, in the trace log or in the incident digest the
/// flight recorder builds from the same stage events. The two
/// destinations hold one journal on one clock: every event the snapshot
/// embeds is, byte for byte, a line of the trace log.
#[test]
fn ingest_stage_starts_when_the_data_arrives() {
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
    let (report, events, _) = run_single(&server, late);
    assert_eq!(report.metrics.frames_decoded, 2);
    assert!(report.forgery_detected());

    let log = trace.contents();
    let journal = check_journal(&report, &events, &log);
    let ingest: Vec<&JsonValue> = journal
        .iter()
        .filter(|e| text(e, "stage") == "ingest")
        .collect();
    assert_eq!(ingest.len(), 2, "{log}");
    for e in ingest {
        let silence = format!("ingest stage counts the client's silence: {e:?}");
        assert!(num(e, "dur_us") < limit_us, "{silence}");
    }
    let snapshot = std::fs::read_to_string(&incident).unwrap();
    let doc = json::parse(&snapshot).unwrap();
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
    let embedded = doc.get("events").and_then(JsonValue::as_array).unwrap();
    let shared = log.lines().filter(|l| snapshot.contains(l)).count();
    assert!(!embedded.is_empty());
    assert_eq!(shared, embedded.len(), "{snapshot}\n{log}");
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
        "ctc_gateway_nonfinite_samples_total 0".to_string(),
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

/// Samples whose power is not finite are scanned as silence and counted:
/// a NaN and an infinity in the first noise gap leave both frames and
/// their verdicts in place, and the registry reports the two samples.
#[test]
fn nonfinite_samples_are_counted_and_leave_the_gate_working() {
    let (mut bytes, _) = synthetic_capture(11);
    bytes[100 * 8..100 * 8 + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    bytes[200 * 8 + 4..200 * 8 + 8].copy_from_slice(&f32::INFINITY.to_le_bytes());
    let registry = Arc::new(ctc_obs::Registry::new());
    let server = single_stream(config()).with_registry(Arc::clone(&registry));
    let (report, events, _) = run_single(&server, &bytes[..]);
    assert_eq!(report.metrics.nonfinite_samples, 2);
    assert_eq!(report.metrics.bursts, 2, "{events}");
    assert_eq!(report.metrics.forgeries, 1, "{events}");
    let text = registry.render();
    assert!(
        text.contains("ctc_gateway_nonfinite_samples_total 2"),
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
/// isolation is the whole point of per-session ingest and ordering.
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
/// splitter instead of waiting for a full chunk or for the hang-up. (Its
/// stream ends 700 noise samples past the last frame; the next test ends
/// one inside the gate's block that closes the frame.)
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

/// A client holding its connection open may stop inside a block of
/// [`GATE_BLOCK`] samples, whose noise floor the gate commits only once
/// the block is complete. When the sample that closes the last frame (the
/// end of its hang, with the capture's margin in) is among those, the
/// frame is still classified before the client hangs up: the gate settles
/// the windows of a partial block as they arrive.
#[test]
fn held_open_stream_ending_inside_a_block_is_classified_before_hang_up() {
    let cfg = config();
    let factory = MonitorFactory::new(cfg.energy, cfg.receiver.clone(), cfg.pipeline.clone())
        .with_max_burst(cfg.max_burst);
    let (capture, _) = synthetic_capture(27);
    // Noise prepended (the capture's own first samples) moves the frames
    // against the block boundaries; take the first shift that ends the
    // stream inside a block.
    let (bytes, cut) = (0..GATE_BLOCK)
        .find_map(|pad| {
            let bytes = [&capture[..8 * pad], &capture[..]].concat();
            let mut splitter = factory.cf32_splitter();
            let mut captures = splitter.push(bytes.as_chunks::<8>().0);
            captures.extend(splitter.finish());
            let last = captures.last().unwrap();
            let margin = last.burst.start - last.capture_start;
            let cut = (last.burst.end + cfg.energy.hang + 1).max(last.burst.end + margin);
            (captures.len() == 2 && !cut.is_multiple_of(GATE_BLOCK)).then_some((bytes, cut))
        })
        .expect("a shift that ends the stream inside a block");

    let mut server_config = ServerConfig::from(cfg);
    server_config.stop_after = Some(1);
    let (addr, events, handle) = serve_tcp(GatewayServer::new(server_config));
    let mut client = TcpStream::connect(&addr).unwrap();
    client.write_all(&bytes[..8 * cut]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = events.contents();
        if text.matches("\"type\":\"frame\"").count() == 2 {
            assert!(
                !text.contains("\"event\":\"close\""),
                "the session must still be open:\n{text}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the last frame waited for the rest of its block:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    drop(client);
    let report = handle.join().unwrap().unwrap();
    assert_eq!(report.metrics.samples_in as usize, cut);
    assert_eq!(report.metrics.frames_decoded, 2);
    check_session_order(&events.contents());
}

/// A source that stays silent until `events` shows the close marker of
/// every stream in `streams`, then sends its bytes in short reads.
struct AfterClose<'a> {
    events: SharedBuf,
    streams: &'static [&'static str],
    bytes: ShortReads<'a>,
}

impl Read for AfterClose<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let deadline = Instant::now() + Duration::from_secs(60);
        for stream in self.streams {
            let close = format!("\"stream\":\"{stream}\",\"seq\"");
            while !self
                .events
                .contents()
                .lines()
                .any(|l| l.contains(&close) && l.contains("\"event\":\"close\""))
            {
                assert!(Instant::now() < deadline, "{stream} never closed");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.bytes.read(buf)
    }
}

/// Overload comes only from sessions running at once, and each pays for
/// its own. Sessions flood one worker and a one-deep queue together, each
/// read carrying many bursts. A [`SlotHold`] keeps the first two bursts
/// to reach classification (one run inline, one the worker popped) in
/// both decode slots until every other flood has read to its end, so
/// those floods queue all their bursts and the drop budget must shed:
/// every shed burst is a `dropped` line at its own `seq` in its own
/// session's order, and a `drop` event in the trace log, where every
/// decoded one has its whole stage chain. A session that starts once
/// they have all closed
/// finds nothing queued and no slot taken, and runs every burst on its
/// own thread: none is dropped, and each frame's queue stage is empty.
/// The first queued burst starts the run's one worker, and no later push
/// starts another.
#[test]
fn concurrent_floods_shed_their_own_bursts_and_a_later_session_runs_inline() {
    const FLOODS: &[&str] = &["flood-a", "flood-b", "flood-c", "flood-d"];
    let (one, _) = synthetic_capture(28);
    let flood: Vec<u8> = one.repeat(8);
    let hold = SlotHold::new(FLOODS.len());
    let detector = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
    let cfg = GatewayConfig {
        workers: 1,
        queue_depth: 1,
        pipeline: DetectionPipeline::standard(detector)
            .with_extractor(Box::new(hold.clone()))
            .shared(),
        ..config()
    };
    assert!(flood.len() <= 8 * cfg.chunk_samples, "one read each");
    let events = SharedBuf::default();
    let late = AfterClose {
        events: events.clone(),
        streams: FLOODS,
        bytes: ShortReads {
            bytes: &one,
            rng: StdRng::seed_from_u64(28),
        },
    };
    let mut streams: Vec<NamedStream> = FLOODS
        .iter()
        .map(|label| NamedStream::new(*label, hold.flood(&flood)))
        .collect();
    streams.push(NamedStream::new("late", late));
    let trace = SharedBuf::default();
    let report = GatewayServer::new(ServerConfig::from(cfg))
        .with_trace_sink(Arc::new(ctc_obs::TraceSink::new(Box::new(trace.clone()))))
        .run_streams(streams, &mut events.clone(), &mut Vec::new())
        .unwrap();

    let text = events.contents();
    check_journal(&report, &text, &trace.contents());
    let lines_of = |stream: &str| -> Vec<&str> {
        let tag = format!("\"stream\":\"{stream}\"");
        text.lines().filter(|l| l.contains(&tag)).collect()
    };
    let mut shed = 0;
    for label in FLOODS {
        let metrics = &report.session(label).unwrap().metrics;
        assert_eq!(metrics.bursts, 16, "{label}");
        let lines = lines_of(label);
        // Dropped lines carry their burst's seq, so the session's order
        // has no gaps.
        check_session_order(&lines.join("\n"));
        let count = |kind: &str| {
            let kind = format!("\"type\":\"{kind}\"");
            lines.iter().filter(|l| l.contains(&kind)).count() as u64
        };
        assert_eq!(count("dropped"), metrics.bursts_dropped, "{label}");
        assert_eq!(count("frame") + count("dropped"), 16, "{label}");
        shed += metrics.bursts_dropped;
    }
    assert!(shed > 0, "concurrent floods on a one-deep queue must shed");
    assert_eq!(report.workers_started, 1);

    let late = &report.session("late").unwrap().metrics;
    assert_eq!(late.bursts_dropped, 0);
    assert_eq!(late.frames_decoded, 2);
    let late_lines = lines_of("late");
    check_session_order(&late_lines.join("\n"));
    let frames: Vec<&&str> = late_lines
        .iter()
        .filter(|l| l.contains("\"type\":\"frame\""))
        .collect();
    assert_eq!(frames.len(), 2);
    for frame in frames {
        assert!(frame.contains("\"latency\":{\"queue_us\":0,"), "{frame}");
    }
}

/// A flood source that panics where its stream would end, once the
/// [`SlotHold`] has counted it as ended.
struct PanicsAtEnd<'a>(Flood<'a>);

impl Read for PanicsAtEnd<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.read(buf)?;
        assert!(n > 0 || buf.is_empty(), "the source fails at its end");
        Ok(n)
    }
}

/// A session that panics fails the run instead of hanging it, also once
/// a worker has started: the queue closes before the panic is passed on,
/// so the worker leaves `pop` and the scope can join it. Two floods share
/// one worker, and a [`SlotHold`] keeps the first two bursts in both
/// decode slots until one flood has read to its end, so the other flood's
/// first burst queues and starts the worker. Then one flood's source
/// panics. The run has its own thread, so a hang fails at a deadline
/// instead of stalling the suite.
#[test]
fn a_panicking_session_fails_the_run_after_a_worker_started() {
    let (one, _) = synthetic_capture(29);
    let flood: &'static [u8] = one.repeat(8).leak();
    let hold = SlotHold::new(2);
    let detector = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
    let cfg = GatewayConfig {
        workers: 1,
        pipeline: DetectionPipeline::standard(detector)
            .with_extractor(Box::new(hold.clone()))
            .shared(),
        ..config()
    };
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let streams = vec![
            NamedStream::new("steady", hold.flood(flood)),
            NamedStream::new("failing", PanicsAtEnd(hold.flood(flood))),
        ];
        let server = GatewayServer::new(ServerConfig::from(cfg));
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.run_streams(streams, &mut Vec::new(), &mut Vec::new())
        }));
        done.send(run.is_err()).unwrap();
    });
    let failed = outcome
        .recv_timeout(Duration::from_secs(120))
        .expect("the run hung after a session panicked");
    assert!(failed, "a panicking session must fail the run");
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
    // 9 counter samples, 32 latency buckets (`+Inf` included), sum, count.
    assert_eq!(totals, 9 + 32 + 2, "{text}");
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
            m.nonfinite_samples,
            m.latency.count(),
            m.latency.sum,
        ]
    };
    let mut summed = [0u64; 10];
    for s in &report.sessions {
        for (t, v) in summed.iter_mut().zip(counters(&s.metrics)) {
            *t += v;
        }
    }
    assert_eq!(counters(&report.metrics), summed);
    assert_eq!(report.metrics.bursts, 4);
}
