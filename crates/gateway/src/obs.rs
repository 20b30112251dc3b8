//! Wiring between one gateway run and the [`ctc_obs`] telemetry layer.
//!
//! Three pieces live here:
//!
//! * [`register_run`] — publishes a run's totals under the canonical
//!   workspace metric names (see the README's Observability section) as
//!   *pull-based collectors*: at scrape time the registry sums the
//!   sessions' existing atomics, so the hot path pays nothing and each
//!   value has one owner. Starting a new run re-registers and takes the
//!   names over.
//! * [`register_session`] / [`register_server`] — the multi-stream
//!   layer: the same gateway metric schema stamped with a
//!   `{stream="..."}` label per session, plus `ctc_sessions_*`
//!   lifecycle counters for the server itself.
//! * `RunObs` — the per-run observation handle threaded through ingest,
//!   workers and sink. It records each stage interval once, fanned out
//!   to the trace sink and the flight journal when they are attached;
//!   with neither attached it records nothing. Attaching them to the
//!   server at run time is the only switch.

use crate::flight::FlightRun;
use crate::metrics::{Metrics, MetricsSnapshot, ServerMetrics};
use crate::session::{Session, SessionId, SessionTable};
use ctc_dsp::BufferPool;
use ctc_obs::flight::{EventKind, FlightEvent, FlightRecorder};
use ctc_obs::{Registry, ScopedRegistry, SpanStage, TraceSink};
use std::time::Instant;

/// Per-run observation handle: allocates span IDs, records stage
/// intervals when a trace sink is attached, and journals flight-recorder
/// events when a recorder is attached; does nothing otherwise.
#[derive(Clone, Copy)]
pub(crate) struct RunObs<'a> {
    trace: Option<&'a TraceSink>,
    flight: Option<&'a FlightRun<'a>>,
}

impl<'a> RunObs<'a> {
    /// A handle recording into `trace` and/or `flight` (when given).
    pub(crate) fn new(trace: Option<&'a TraceSink>, flight: Option<&'a FlightRun<'a>>) -> Self {
        RunObs { trace, flight }
    }

    /// A fresh span ID for one burst, or `0` (the disabled sentinel) when
    /// no sink is attached — recording a `0` span is a no-op everywhere.
    pub(crate) fn next_span(&self) -> u64 {
        match self.trace {
            Some(_) => ctc_obs::next_span_id(),
            None => 0,
        }
    }

    /// Records one stage interval for `span` — into the trace sink as a
    /// span record, and into the flight journal as a compact stage event
    /// (the drop stage is journaled by the shed path instead, as a
    /// [`EventKind::Drop`] event with richer fields) — and returns its
    /// length in µs.
    pub(crate) fn record(
        &self,
        session: SessionId,
        span: u64,
        seq: u64,
        stage: SpanStage,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let us = end.saturating_duration_since(start).as_micros() as u64;
        if let Some(trace) = self.trace {
            trace.record(span, seq, stage, start, end);
        }
        if stage != SpanStage::Drop {
            self.flight_record(|rec| {
                FlightEvent::new(EventKind::Stage, session, seq, rec.now_us())
                    .with_args(stage as u64, us)
            });
        }
        us
    }

    /// Journals one flight event built by `make` (only invoked when a
    /// recorder is attached, so the cost of constructing the event is
    /// paid only then). Returns the event's ring ticket.
    pub(crate) fn flight_record(
        &self,
        make: impl FnOnce(&FlightRecorder) -> FlightEvent,
    ) -> Option<u64> {
        let rec = self.flight?.recorder();
        Some(rec.record(make(rec)))
    }

    /// Auto trigger for an accepted forgery: dump one incident snapshot
    /// ending at `ticket` (the verdict event), first trigger of the run
    /// wins.
    pub(crate) fn flight_forgery(&self, ticket: Option<u64>) {
        if let Some(flight) = self.flight {
            flight.auto_trigger("forgery", ticket);
        }
    }

    /// Auto trigger for drop-budget exhaustion on `session`.
    pub(crate) fn flight_drop_check(&self, session: &Session, ticket: Option<u64>) {
        if let Some(flight) = self.flight {
            flight.check_drop_budget(session, ticket);
        }
    }

    /// Polls the SIGUSR1 latch (supervisor loops call this every few
    /// milliseconds); each signal dumps a snapshot.
    pub(crate) fn flight_poll(&self) {
        if let Some(flight) = self.flight {
            flight.poll_sigusr1();
        }
    }
}

/// Registers one run's counters in `registry` under the canonical
/// workspace metric names.
///
/// All metrics are collectors: the unlabelled gateway names read the sum
/// over `sessions` (see [`SessionTable::totals`]), the pool names read
/// the [`BufferPool`] atomics. Values stay live for the whole run and
/// remain scrapeable after the pipeline joins (the collectors keep the
/// backing `Arc`s alive).
pub fn register_run(registry: &Registry, sessions: &SessionTable, pool: &BufferPool) {
    let sessions = sessions.clone();
    register_gateway_metrics(&registry.scoped(&[]), move || sessions.totals());
    let p = pool.clone();
    registry.counter_fn(
        "ctc_pool_hits_total",
        "Buffer checkouts served from the free-list.",
        &[],
        move || p.hits(),
    );
    let p = pool.clone();
    registry.counter_fn(
        "ctc_pool_misses_total",
        "Buffer checkouts that had to allocate.",
        &[],
        move || p.misses(),
    );
    let p = pool.clone();
    registry.gauge_fn(
        "ctc_pool_idle_buffers",
        "Idle buffers currently retained by the pool.",
        &[],
        move || p.idle() as u64,
    );
}

/// Registers one session's counters under the gateway metric names with a
/// `{stream="<label>"}` label, alongside the unlabelled totals from
/// [`register_run`]. Collectors keep the session's [`Metrics`] `Arc`
/// alive, so a closed session stays scrapeable for the rest of the run.
pub fn register_session(registry: &Registry, stream: &str, metrics: &Metrics) {
    let metrics = metrics.clone();
    register_gateway_metrics(&registry.scoped(&[("stream", stream)]), move || {
        metrics.snapshot()
    });
}

/// Registers one pipeline run's detector scores as
/// `ctc_detector_score{feature=...}` gauges — one child per extracted
/// feature plus `{feature="fused"}` for the classifier output. Collectors
/// sample the run's [`ScoreBoard`](crate::metrics::ScoreBoard), so a
/// scrape always sees the most recently classified burst.
pub fn register_scores(registry: &Registry, board: &crate::metrics::ScoreBoard) {
    let help = "Latest detector score, by feature (fused = classifier output).";
    for (i, name) in board.names().iter().enumerate() {
        let b = board.clone();
        registry.gauge_f64_fn(
            "ctc_detector_score",
            help,
            &[("feature", name)],
            move || b.value(i),
        );
    }
    let b = board.clone();
    registry.gauge_f64_fn(
        "ctc_detector_score",
        help,
        &[("feature", "fused")],
        move || b.fused(),
    );
}

/// Registers the session-lifecycle counters of a multi-stream server run.
pub fn register_server(registry: &Registry, server: &ServerMetrics) {
    use std::sync::atomic::Ordering::Relaxed;

    let s = server.clone();
    registry.counter_fn(
        "ctc_sessions_opened_total",
        "Sessions accepted (or supplied in-process).",
        &[],
        move || s.sessions_opened.load(Relaxed),
    );
    let s = server.clone();
    registry.counter_fn(
        "ctc_sessions_closed_total",
        "Sessions that reached end of stream and closed.",
        &[],
        move || s.sessions_closed.load(Relaxed),
    );
    let s = server.clone();
    registry.counter_fn(
        "ctc_sessions_refused_total",
        "Connections refused at the max-streams ceiling.",
        &[],
        move || s.sessions_refused.load(Relaxed),
    );
    let s = server.clone();
    registry.counter_fn(
        "ctc_sessions_errored_total",
        "Sessions whose input died with a read error.",
        &[],
        move || s.sessions_errored.load(Relaxed),
    );
    let s = server.clone();
    registry.gauge_fn(
        "ctc_sessions_active",
        "Sessions currently live.",
        &[],
        move || s.snapshot().active(),
    );
}

/// The shared gateway metric schema, registered through `scoped` so the
/// same code serves both the unlabelled totals and each
/// `{stream="..."}` session; every collector reads one `read()`
/// snapshot.
fn register_gateway_metrics(
    scoped: &ScopedRegistry<'_>,
    read: impl Fn() -> MetricsSnapshot + Clone + Send + Sync + 'static,
) {
    let r = read.clone();
    scoped.counter_fn(
        "ctc_gateway_samples_total",
        "IQ samples ingested.",
        &[],
        move || r().samples_in,
    );
    let r = read.clone();
    scoped.counter_fn(
        "ctc_gateway_chunks_total",
        "Ingest chunks read from the sample stream.",
        &[],
        move || r().chunks_in,
    );
    let r = read.clone();
    scoped.counter_fn(
        "ctc_gateway_bursts_total",
        "Bursts carved out of the stream by energy detection.",
        &[],
        move || r().bursts,
    );
    let frames_help = "Bursts processed, by verdict: decoded frames split \
                       authentic/attack, the rest undecoded.";
    let r = read.clone();
    scoped.counter_fn(
        "ctc_gateway_frames_total",
        frames_help,
        &[("verdict", "authentic")],
        move || {
            let m = r();
            m.frames_decoded.saturating_sub(m.forgeries)
        },
    );
    let r = read.clone();
    scoped.counter_fn(
        "ctc_gateway_frames_total",
        frames_help,
        &[("verdict", "attack")],
        move || r().forgeries,
    );
    let r = read.clone();
    scoped.counter_fn(
        "ctc_gateway_frames_total",
        frames_help,
        &[("verdict", "undecoded")],
        move || {
            let m = r();
            m.bursts
                .saturating_sub(m.bursts_dropped)
                .saturating_sub(m.frames_decoded)
        },
    );
    let r = read.clone();
    scoped.counter_fn(
        "ctc_queue_dropped_total",
        "Bursts evicted from the bounded queue under overload.",
        &[],
        move || r().bursts_dropped,
    );
    let r = read.clone();
    scoped.counter_fn(
        "ctc_queue_dropped_samples_total",
        "IQ samples inside evicted bursts.",
        &[],
        move || r().samples_dropped,
    );
    scoped.histogram_fn(
        "ctc_gateway_latency_us",
        "End-to-end (enqueue to classified) per-burst latency in microseconds.",
        &[],
        move || read().latency,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_run_exposes_canonical_names() {
        let registry = Registry::new();
        let sessions = SessionTable::new();
        let pool = BufferPool::new();
        register_run(&registry, &sessions, &pool);
        let session = sessions.open(None, 1);
        let metrics = session.metrics();

        use std::sync::atomic::Ordering::Relaxed;
        metrics.samples_in.fetch_add(4096, Relaxed);
        metrics.bursts.fetch_add(3, Relaxed);
        metrics.frames_decoded.fetch_add(2, Relaxed);
        metrics.forgeries.fetch_add(1, Relaxed);
        metrics.latency.record(120);
        drop(pool.checkout(16)); // one miss, one idle buffer

        let text = registry.render();
        assert!(text.contains("ctc_gateway_samples_total 4096"), "{text}");
        assert!(text.contains("ctc_gateway_frames_total{verdict=\"attack\"} 1"));
        assert!(text.contains("ctc_gateway_frames_total{verdict=\"authentic\"} 1"));
        assert!(text.contains("ctc_gateway_frames_total{verdict=\"undecoded\"} 1"));
        assert!(text.contains("ctc_gateway_latency_us_count 1"));
        assert!(text.contains("ctc_pool_misses_total 1"));
        assert!(text.contains("ctc_pool_idle_buffers 1"));
        assert!(text.contains("ctc_queue_dropped_total 0"));

        // Collectors sample live values: later increments, and sessions
        // opened after registration, show up in the next render.
        metrics.samples_in.fetch_add(1, Relaxed);
        sessions
            .open(None, 1)
            .metrics()
            .samples_in
            .fetch_add(3, Relaxed);
        assert!(registry.render().contains("ctc_gateway_samples_total 4100"));
    }

    #[test]
    fn session_metrics_are_labelled_alongside_their_sum() {
        use std::sync::atomic::Ordering::Relaxed;

        let registry = Registry::new();
        let sessions = SessionTable::new();
        let pool = BufferPool::new();
        register_run(&registry, &sessions, &pool);

        let s1 = sessions.open(Some("s1".into()), 2);
        let s2 = sessions.open(Some("s2".into()), 2);
        let (s1, s2) = (s1.metrics(), s2.metrics());
        register_session(&registry, "s1", s1);
        register_session(&registry, "s2", s2);

        s1.samples_in.fetch_add(10, Relaxed);
        s2.samples_in.fetch_add(20, Relaxed);
        s1.forgeries.fetch_add(1, Relaxed);
        s1.frames_decoded.fetch_add(1, Relaxed);

        let text = registry.render();
        assert!(text.contains("ctc_gateway_samples_total 30"), "{text}");
        assert!(text.contains("ctc_gateway_samples_total{stream=\"s1\"} 10"));
        assert!(text.contains("ctc_gateway_samples_total{stream=\"s2\"} 20"));
        // Per-registration labels merge with the stream label.
        assert!(
            text.contains("ctc_gateway_frames_total{stream=\"s1\",verdict=\"attack\"} 1")
                || text.contains("ctc_gateway_frames_total{verdict=\"attack\",stream=\"s1\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn detector_scores_render_per_feature() {
        use crate::metrics::ScoreBoard;
        use ctc_core::defense::{FeatureVector, PipelineScores};

        let registry = Registry::new();
        let board = ScoreBoard::new(vec!["de2_ideal", "clustered_evm"]);
        register_scores(&registry, &board);

        let mut features = FeatureVector::default();
        features.push("de2_ideal", 0.25);
        features.push("clustered_evm", 0.75);
        board.record(&PipelineScores {
            fused: 0.25,
            features,
        });

        let text = registry.render();
        assert!(text.contains("# TYPE ctc_detector_score gauge"), "{text}");
        assert!(text.contains("ctc_detector_score{feature=\"de2_ideal\"} 0.25"));
        assert!(text.contains("ctc_detector_score{feature=\"clustered_evm\"} 0.75"));
        assert!(text.contains("ctc_detector_score{feature=\"fused\"} 0.25"));
    }

    #[test]
    fn server_lifecycle_counters_render() {
        use std::sync::atomic::Ordering::Relaxed;

        let registry = Registry::new();
        let server = ServerMetrics::new();
        register_server(&registry, &server);
        server.sessions_opened.fetch_add(3, Relaxed);
        server.sessions_closed.fetch_add(1, Relaxed);
        server.sessions_refused.fetch_add(2, Relaxed);

        let text = registry.render();
        assert!(text.contains("ctc_sessions_opened_total 3"), "{text}");
        assert!(text.contains("ctc_sessions_refused_total 2"));
        assert!(text.contains("ctc_sessions_active 2"));
    }
}
