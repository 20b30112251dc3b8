//! The gateway's stage names, and the journal's second destination.
//!
//! A burst's path through the pipeline is a closed set of stages,
//! [`SpanStage`]: flight-recorder `stage` events carry its ids, and
//! journal lines and incident snapshots print its names.
//!
//! The journal ([`flight`](crate::flight)) is the one per-burst record.
//! Its ring is what incident snapshots read; a [`TraceSink`] is the
//! other destination, a JSON-lines log that gets every event as it is
//! recorded, one [`event_json`] object per line, the same object a
//! snapshot's `events` array holds:
//!
//! ```json
//! {"t_us":1981,"kind":"stage","session":1,"seq":3,"stage":"decode","dur_us":939}
//! ```
//!
//! A burst is named by `(session, seq)` in both. A `stage` event is
//! stamped at the stage's end, so `t_us − dur_us` is its start, and each
//! stage of a burst starts where the previous one ended.

use crate::flight::FlightEvent;
use crate::snapshot::event_json;
use std::io::Write;
use std::sync::Mutex;

/// One pipeline stage of a burst. The discriminant is the stage's id in
/// flight-recorder [`EventKind::Stage`](crate::flight::EventKind::Stage)
/// events; [`name`](SpanStage::name) is what journal lines and incident
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
}

impl SpanStage {
    /// Every stage, in id order.
    pub const ALL: [SpanStage; 5] = [
        SpanStage::Ingest,
        SpanStage::Queue,
        SpanStage::Decode,
        SpanStage::Classify,
        SpanStage::Emit,
    ];

    /// The stage's lowercase name.
    pub fn name(self) -> &'static str {
        ["ingest", "queue", "decode", "classify", "emit"][self as usize]
    }

    /// The stage whose id is `id`, if any.
    pub fn from_id(id: u64) -> Option<SpanStage> {
        SpanStage::ALL.get(usize::try_from(id).ok()?).copied()
    }
}

/// A JSON-lines log of journal events: each [`record`](TraceSink::record)
/// writes one [`event_json`] line.
///
/// Thread-safe: pipeline threads record concurrently. A line is rendered
/// before the lock is taken, and written whole under it, so lines never
/// interleave. A write error is ignored: tracing never stops the run.
pub struct TraceSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink").finish_non_exhaustive()
    }
}

impl TraceSink {
    /// A sink writing journal lines to `out`.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        TraceSink {
            out: Mutex::new(out),
        }
    }

    /// Writes `event` as one line, its verdict scores keyed by
    /// `feature_names` (see [`event_json`]).
    pub fn record(&self, event: &FlightEvent, feature_names: &[&str]) {
        let mut line = event_json(event, feature_names);
        line.push('\n');
        let _ = self.lock().write_all(line.as_bytes());
    }

    /// Flushes the underlying writer. Call before process exit so no
    /// lines are lost (also done on drop).
    pub fn flush(&self) {
        let _ = self.lock().flush();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Box<dyn Write + Send>> {
        self.out.lock().expect("trace sink poisoned")
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        if let Ok(out) = self.out.get_mut() {
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::EventKind;
    use std::sync::Arc;

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

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    /// Journal lines, flight `stage` events and snapshot digests all key
    /// on these ids and names; they are a wire format.
    #[test]
    fn stage_ids_and_names_are_stable() {
        let names: Vec<&str> = SpanStage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["ingest", "queue", "decode", "classify", "emit"]);
        for (id, stage) in SpanStage::ALL.iter().enumerate() {
            assert_eq!(*stage as u64, id as u64);
            assert_eq!(SpanStage::from_id(id as u64), Some(*stage));
        }
        assert_eq!(SpanStage::from_id(99), None);
    }

    /// A line is the event's snapshot rendering: the ring and the log
    /// hold one schema.
    #[test]
    fn records_become_event_json_lines() {
        let buf = SharedBuf::default();
        let sink = TraceSink::new(Box::new(buf.clone()));
        let stage =
            FlightEvent::new(EventKind::Stage, 1, 3, 25).with_args(SpanStage::Decode as u64, 15);
        let verdict = FlightEvent::new(EventKind::Verdict, 1, 3, 26).with_scores(0.5, [0.25]);
        sink.record(&stage, &[]);
        sink.record(&verdict, &["de2_ideal"]);
        sink.flush();
        assert_eq!(
            buf.text(),
            format!(
                "{}\n{}\n",
                event_json(&stage, &[]),
                event_json(&verdict, &["de2_ideal"])
            )
        );
    }

    #[test]
    fn concurrent_records_never_interleave_within_a_line() {
        let buf = SharedBuf::default();
        let sink = Arc::new(TraceSink::new(Box::new(buf.clone())));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        sink.record(&FlightEvent::new(EventKind::Burst, t + 1, i, i), &[]);
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        sink.flush();
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 800);
        for line in lines {
            assert!(line.starts_with("{\"t_us\":"), "mangled line: {line}");
            assert!(line.ends_with('}'), "mangled line: {line}");
        }
    }
}
