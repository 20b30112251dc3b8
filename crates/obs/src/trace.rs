//! Lightweight structured tracing for the sample path.
//!
//! A *span* is one burst's journey through the pipeline. The ingest thread
//! allocates a span ID ([`next_span_id`]) when a burst closes, and every
//! downstream stage records a `(span, stage, start, end)` interval into a
//! shared [`TraceSink`]. Each record becomes one JSONL line:
//!
//! ```json
//! {"span":7,"seq":3,"stage":"decode","start_us":1042,"end_us":1981}
//! ```
//!
//! `start_us`/`end_us` are microseconds since the sink's construction, so
//! offline tools can rebuild a per-frame stage chain and check contiguity
//! (stage N's `end_us` is stage N+1's `start_us` when the pipeline hands
//! the same `Instant` across the boundary — which the gateway does).
//!
//! Span ID `0` is reserved as the "tracing disabled" sentinel; sinks ignore
//! records carrying it, so instrumented code can record unconditionally.
//!
//! The stages are a closed set, [`SpanStage`]: trace lines print its
//! names, and flight-recorder `stage` events carry its ids.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One pipeline stage of a span. The discriminant is the stage's id in
/// flight-recorder [`EventKind::Stage`](crate::flight::EventKind::Stage)
/// events; [`name`](SpanStage::name) is what trace lines and incident
/// snapshots print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanStage {
    /// Data arrival to enqueue.
    Ingest = 0,
    /// Enqueue to dequeue by a worker.
    Queue = 1,
    /// 802.15.4 decode.
    Decode = 2,
    /// Detector verdict.
    Classify = 3,
    /// Verdict to the event line's write.
    Emit = 4,
    /// Enqueue to being shed by the drop budget.
    Drop = 5,
}

impl SpanStage {
    /// Every stage, in id order.
    pub const ALL: [SpanStage; 6] = [
        SpanStage::Ingest,
        SpanStage::Queue,
        SpanStage::Decode,
        SpanStage::Classify,
        SpanStage::Emit,
        SpanStage::Drop,
    ];

    /// The stage's lowercase name.
    pub fn name(self) -> &'static str {
        ["ingest", "queue", "decode", "classify", "emit", "drop"][self as usize]
    }

    /// The stage whose id is `id`, if any.
    pub fn from_id(id: u64) -> Option<SpanStage> {
        SpanStage::ALL.get(usize::try_from(id).ok()?).copied()
    }
}

/// Allocates a fresh process-unique span ID (never `0`).
pub fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

struct SinkInner {
    out: Box<dyn Write + Send>,
    /// Reused line buffer: formatting a record makes no steady-state
    /// allocations once the buffer has grown to a typical line length.
    line: String,
}

/// A shared, append-only span log writing JSONL records.
///
/// Thread-safe: pipeline workers call [`record`](TraceSink::record)
/// concurrently; a mutex serialises line formatting and the write. Tracing
/// is off the hot path by construction — the gateway only creates a sink
/// when `--trace-out` is given.
pub struct TraceSink {
    epoch: Instant,
    inner: Mutex<SinkInner>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl TraceSink {
    /// A sink writing JSONL records to `out`. Timestamps are relative to
    /// this call.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        TraceSink {
            epoch: Instant::now(),
            inner: Mutex::new(SinkInner {
                out,
                line: String::with_capacity(128),
            }),
        }
    }

    /// The sink's epoch: the `Instant` that `start_us`/`end_us` are
    /// measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records one stage interval for `span` (sequence number `seq` ties
    /// the span to the emitted frame line). Records with `span == 0` are
    /// dropped — that is the "tracing disabled" sentinel.
    pub fn record(&self, span: u64, seq: u64, stage: SpanStage, start: Instant, end: Instant) {
        if span == 0 {
            return;
        }
        let stage = stage.name();
        let start_us = end_us_since(self.epoch, start);
        let end_us = end_us_since(self.epoch, end);
        let mut inner = self.inner.lock().expect("trace sink poisoned");
        let inner = &mut *inner;
        inner.line.clear();
        use std::fmt::Write as _;
        let _ = writeln!(
            inner.line,
            "{{\"span\":{span},\"seq\":{seq},\"stage\":\"{stage}\",\"start_us\":{start_us},\"end_us\":{end_us}}}",
        );
        let _ = inner.out.write_all(inner.line.as_bytes());
    }

    /// Flushes the underlying writer. Call before process exit so no span
    /// records are lost (also done on drop).
    pub fn flush(&self) {
        let _ = self.inner.lock().expect("trace sink poisoned").out.flush();
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        if let Ok(inner) = self.inner.get_mut() {
            let _ = inner.out.flush();
        }
    }
}

fn end_us_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_micros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// A write target the test can inspect after the sink flushes.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Trace lines, flight `stage` events and snapshot digests all key
    /// on these ids and names; they are a wire format.
    #[test]
    fn stage_ids_and_names_are_stable() {
        let names: Vec<&str> = SpanStage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["ingest", "queue", "decode", "classify", "emit", "drop"]
        );
        for (id, stage) in SpanStage::ALL.iter().enumerate() {
            assert_eq!(*stage as u64, id as u64);
            assert_eq!(SpanStage::from_id(id as u64), Some(*stage));
        }
        assert_eq!(SpanStage::from_id(99), None);
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let id = next_span_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn records_become_jsonl_lines_relative_to_epoch() {
        let buf = SharedBuf::default();
        let sink = TraceSink::new(Box::new(buf.clone()));
        let t0 = sink.epoch() + Duration::from_micros(10);
        let t1 = sink.epoch() + Duration::from_micros(25);
        sink.record(7, 3, SpanStage::Decode, t0, t1);
        sink.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text,
            "{\"span\":7,\"seq\":3,\"stage\":\"decode\",\"start_us\":10,\"end_us\":25}\n"
        );
    }

    #[test]
    fn span_zero_is_dropped() {
        let buf = SharedBuf::default();
        let sink = TraceSink::new(Box::new(buf.clone()));
        let now = Instant::now();
        sink.record(0, 0, SpanStage::Ingest, now, now);
        sink.flush();
        assert!(buf.0.lock().unwrap().is_empty());
    }

    #[test]
    fn concurrent_records_never_interleave_within_a_line() {
        let buf = SharedBuf::default();
        let sink = Arc::new(TraceSink::new(Box::new(buf.clone())));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    let now = Instant::now();
                    for i in 0..200 {
                        sink.record(t + 1, i, SpanStage::Queue, now, now);
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        sink.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 800);
        for line in lines {
            assert!(line.starts_with("{\"span\":"), "mangled line: {line}");
            assert!(line.ends_with('}'), "mangled line: {line}");
        }
    }
}
