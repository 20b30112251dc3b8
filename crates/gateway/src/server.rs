//! The multi-stream gateway server: sessions, shards, and the shared
//! decode/classify engine.
//!
//! ```text
//!            ┌─ accept loop (serve) / caller (run_streams) ─┐
//!  tcp/unix  │  session 1 ingest ─▶ shard 0 ─┐              │
//!  clients ─▶│  session 2 ingest ─▶ shard 1 ─┼─▶ worker pool│
//!            │  session 3 ingest ─▶ shard 0 ─┘   (stealing) │
//!            └───────────────────────────────────────┬──────┘
//!                                  ┌── sink thread ──▼──────────┐
//!                                  │ per-session reorder ▶ JSONL │
//!                                  └─────────────────────────────┘
//! ```
//!
//! Each accepted stream becomes a [`Session`] pinned to a worker shard;
//! workers drain their home shard first and steal from the others when it
//! is empty, so a stalled or noisy stream cannot head-of-line-block the
//! rest. Overload is arbitrated per session by the shard queue's drop
//! budget (see [`crate::session`]). One sink thread restores per-session
//! sequence order, so the JSONL stream interleaves sessions but is always
//! in order *within* a `stream` label.

use crate::error::GatewayError;
use crate::flight::{FlightOptions, FlightRun};
use crate::metrics::{MetricsSnapshot, ScoreBoard, ServerMetrics, ServerMetricsSnapshot};
use crate::obs::RunObs;
use crate::pipeline::GatewayConfig;
use crate::session::{Evicted, Session, SessionId, SessionTable, ShardQueue};
use crate::source::Listener;
use ctc_core::defense::{BurstCapture, FrameProcessor, MonitorFactory, StreamEvent};
use ctc_dsp::io::Cf32Reader;
use ctc_obs::flight::{EventKind, FlightEvent};
use ctc_obs::json::{hex, JsonObject};
use ctc_obs::{FlightRecorder, Registry, SpanStage, TraceSink};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long an idle worker blocks on its home shard before rescanning.
const WORKER_IDLE_WAIT: Duration = Duration::from_millis(5);
/// Accept-loop poll cadence when no client is waiting.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Supervisor poll cadence while draining sessions with stats enabled.
const DRAIN_POLL: Duration = Duration::from_millis(1);

/// Multi-stream server configuration: the per-stream pipeline knobs plus
/// the session/shard layer on top.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The per-stream pipeline configuration (chunking, workers, queue
    /// depth per shard, detection stages).
    pub gateway: GatewayConfig,
    /// Concurrent-session ceiling; connections beyond it are refused
    /// (counted, reported as a `refused` event) rather than queued.
    pub max_streams: usize,
    /// Worker shards sessions are pinned to (`0`: one shard per worker).
    pub shards: usize,
    /// Stop accepting after this many sessions, then drain and return
    /// (`None`: serve until [`GatewayServer::shutdown_handle`] fires).
    pub stop_after: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            gateway: GatewayConfig::default(),
            max_streams: 64,
            shards: 0,
            stop_after: None,
        }
    }
}

impl From<GatewayConfig> for ServerConfig {
    fn from(gateway: GatewayConfig) -> Self {
        ServerConfig {
            gateway,
            ..ServerConfig::default()
        }
    }
}

/// One input stream handed to [`GatewayServer::run_streams`]: a reader
/// plus the tenant label stamped on its events and metrics.
pub struct NamedStream<'a> {
    label: Option<String>,
    reader: Box<dyn Read + Send + 'a>,
}

impl<'a> NamedStream<'a> {
    /// A labelled stream (`label` becomes the JSONL `stream` field and
    /// the `{stream="..."}` metric label).
    pub fn new(label: impl Into<String>, reader: impl Read + Send + 'a) -> Self {
        NamedStream {
            label: Some(label.into()),
            reader: Box::new(reader),
        }
    }

    /// An unlabelled stream: events carry no `stream` field and no
    /// session open/close markers, and the stats lines no `streams`
    /// field. One unlabelled stream at `shards: 1` is how `ctc monitor
    /// --input` and the golden corpus monitor a single recording.
    pub fn unlabelled(reader: impl Read + Send + 'a) -> Self {
        NamedStream {
            label: None,
            reader: Box::new(reader),
        }
    }
}

/// Summary of one session at the end of a server run.
#[derive(Debug, Clone)]
pub struct SessionSummary {
    /// The session id.
    pub id: SessionId,
    /// The tenant label (`None` for unlabelled streams).
    pub label: Option<String>,
    /// The session's own counters.
    pub metrics: MetricsSnapshot,
}

/// Capture-buffer pool counters at the end of a run (the churn test's
/// leak oracle: every checked-out buffer must be back, so
/// `idle <= misses` always, and a session churn must not grow `misses`
/// unboundedly).
#[derive(Debug, Clone, Copy)]
pub struct PoolStats {
    /// Checkouts served from the free-list.
    pub hits: u64,
    /// Checkouts that had to allocate.
    pub misses: u64,
    /// Buffers idle in the pool right now.
    pub idle: usize,
}

/// Final tally of one server run.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Run-wide counters: the sum over every session.
    pub metrics: MetricsSnapshot,
    /// Session-lifecycle counters.
    pub server: ServerMetricsSnapshot,
    /// Per-session summaries, in open order.
    pub sessions: Vec<SessionSummary>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Shared capture-pool counters at the end of the run.
    pub pool: PoolStats,
}

impl ServerReport {
    /// Aggregate ingest rate in megasamples per second.
    pub fn msamples_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.metrics.samples_in as f64 / secs / 1e6
    }

    /// True when any session saw an accepted forgery.
    pub fn forgery_detected(&self) -> bool {
        self.metrics.forgeries > 0
    }

    /// The summary for one labelled session, if present.
    pub fn session(&self, label: &str) -> Option<&SessionSummary> {
        self.sessions
            .iter()
            .find(|s| s.label.as_deref() == Some(label))
    }
}

/// Raises a server's shutdown flag from another thread: the accept loop
/// stops, socket sessions read EOF at their next poll, and the run winds
/// down through the normal drain path.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests shutdown (idempotent).
    pub fn shutdown(&self) {
        self.0.store(true, Relaxed);
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.0.load(Relaxed)
    }
}

/// One unit of work crossing a shard queue.
struct WorkItem {
    session: Arc<Session>,
    /// Per-session event sequence number.
    seq: u64,
    capture: BurstCapture,
    enqueued: Instant,
    /// Trace span for this burst (`0` = tracing disabled).
    span: u64,
}

/// What reaches the sink. A `Slot` takes its place in its session's
/// sequence order; `Note` lines (refusals) are written immediately.
enum SinkMsg {
    Slot {
        session: SessionId,
        seq: u64,
        slot: Slot,
    },
    Note {
        line: String,
    },
}

/// One entry of a session's sequence order: a rendered event line (its
/// span's `emit` stage ends when it is written; span `0`: untraced), or
/// the session's close marker, rendered with its final counters.
enum Slot {
    Line {
        line: String,
        span: u64,
        classified: Instant,
    },
    Close {
        session: Arc<Session>,
        error: Option<String>,
    },
}

impl SinkMsg {
    fn line(session: SessionId, seq: u64, line: String, span: u64, classified: Instant) -> Self {
        let slot = Slot::Line {
            line,
            span,
            classified,
        };
        SinkMsg::Slot { session, seq, slot }
    }
}

/// Where a run's sessions come from.
enum Feed<'a> {
    /// A fixed set of in-process streams, all started upfront.
    Streams(Vec<NamedStream<'a>>),
    /// A bound listener accepted from until shutdown/`stop_after`.
    Accept(Listener),
}

/// The sharded multi-stream gateway server.
///
/// # Examples
///
/// Serve a TCP listener until three sessions have been monitored:
///
/// ```no_run
/// use ctc_gateway::{GatewayServer, Input, Listener, ServerConfig};
///
/// let listener = Listener::bind(&Input::parse("tcp://127.0.0.1:4000")?)?;
/// let server = GatewayServer::new(ServerConfig {
///     stop_after: Some(3),
///     ..ServerConfig::default()
/// });
/// let report = server.serve(listener, &mut std::io::stdout(), &mut std::io::stderr())?;
/// eprintln!("sessions: {}", report.server.sessions_opened);
/// # Ok::<(), ctc_gateway::GatewayError>(())
/// ```
#[derive(Debug, Default)]
pub struct GatewayServer {
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    registry: Option<Arc<Registry>>,
    trace: Option<Arc<TraceSink>>,
    /// The flight options and the ring, allocated once when attached.
    flight: Option<(FlightOptions, FlightRecorder)>,
}

impl GatewayServer {
    /// Server with the given configuration.
    pub fn new(config: ServerConfig) -> Self {
        GatewayServer {
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            registry: None,
            trace: None,
            flight: None,
        }
    }

    /// Publishes runs into `registry`: run-wide totals (summed over the
    /// sessions at scrape time) under the canonical unlabelled `ctc_*`
    /// names, per-session counters under `ctc_gateway_*{stream="..."}`,
    /// session lifecycle under `ctc_sessions_*`.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Records per-stage span intervals into `trace`.
    pub fn with_trace_sink(mut self, trace: Arc<TraceSink>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches a flight recorder: a bounded ring journal of bursts,
    /// stage boundaries, verdicts (with per-feature scores), drops and
    /// session lifecycle, recorded wait-free from the hot path. With
    /// [`FlightOptions::out`] set, a trigger — the run's first accepted
    /// forgery, per-session drop-budget exhaustion, or `SIGUSR1` (install
    /// the handler with [`ctc_obs::flight::install_sigusr1_handler`]) —
    /// dumps a self-contained JSON incident snapshot there.
    pub fn with_flight(mut self, options: FlightOptions) -> Self {
        let recorder = FlightRecorder::with_capacity(options.capacity);
        self.flight = Some((options, recorder));
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// A handle that stops this server's accept loop and unwedges its
    /// socket sessions (they read EOF at the next poll).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(self.shutdown.clone())
    }

    /// Accepts sessions from `listener` until shutdown (or `stop_after`
    /// sessions), multiplexing them through the shared engine. Each
    /// accepted connection becomes a labelled session (`s1`, `s2`, …);
    /// its events carry the label in the `stream` field, in per-session
    /// sequence order. A client read error closes that session (counted,
    /// reported in its `close` event) without disturbing the others.
    ///
    /// # Errors
    ///
    /// Fatal server errors only: accept failure
    /// ([`GatewayError::Accept`]) or a broken event/stats sink
    /// ([`GatewayError::SinkWrite`]). A graceful shutdown returns the
    /// report, not an error.
    pub fn serve<W, E>(
        &self,
        listener: Listener,
        events: &mut W,
        stats: &mut E,
    ) -> Result<ServerReport, GatewayError>
    where
        W: Write + Send,
        E: Write,
    {
        listener
            .set_nonblocking(true)
            .map_err(GatewayError::Accept)?;
        self.run_feed(Feed::Accept(listener), events, stats)
    }

    /// Runs a fixed set of in-process streams through the engine — the
    /// transport-free form of [`serve`](Self::serve). To monitor one
    /// recording, pass a single [`NamedStream::unlabelled`] with
    /// [`ServerConfig::shards`] at 1.
    ///
    /// # Errors
    ///
    /// Unlike `serve`, a stream read error here is fatal
    /// ([`GatewayError::Read`]) — the caller handed the readers over, so
    /// a broken one is a caller bug, not client weather.
    pub fn run_streams<W, E>(
        &self,
        streams: Vec<NamedStream<'_>>,
        events: &mut W,
        stats: &mut E,
    ) -> Result<ServerReport, GatewayError>
    where
        W: Write + Send,
        E: Write,
    {
        self.run_feed(Feed::Streams(streams), events, stats)
    }

    /// The engine shared by both feeds: shards, workers, sink, and the
    /// feed-specific supervisor on the calling thread.
    fn run_feed<'a, W, E>(
        &self,
        feed: Feed<'a>,
        events: &mut W,
        stats: &mut E,
    ) -> Result<ServerReport, GatewayError>
    where
        W: Write + Send,
        E: Write,
    {
        let cfg = &self.config;
        let gw = &cfg.gateway;
        let workers = gw.workers.max(1);
        let shard_count = if cfg.shards == 0 { workers } else { cfg.shards };
        let shards: Vec<ShardQueue<WorkItem>> = (0..shard_count)
            .map(|_| ShardQueue::new(gw.queue_depth.max(1)))
            .collect();
        let sessions = SessionTable::new();
        let server_metrics = ServerMetrics::new();
        let factory = MonitorFactory::new(gw.energy, gw.receiver.clone(), gw.pipeline.clone())
            .with_max_burst(gw.max_burst);
        let feature_names = gw.pipeline.feature_names();
        let scores = (!feature_names.is_empty()).then(|| ScoreBoard::new(feature_names));
        let processor = factory.processor().clone();
        let (tx, rx) = mpsc::channel::<SinkMsg>();
        let started = Instant::now();
        let fatal_in_streams = matches!(feed, Feed::Streams(_));

        if let Some(registry) = &self.registry {
            crate::obs::register_run(registry, &sessions, factory.pool());
            crate::obs::register_server(registry, &server_metrics);
            if let Some(board) = &scores {
                crate::obs::register_scores(registry, board);
            }
        }
        let flight = self.flight.as_ref().map(|(options, recorder)| {
            if let Some(board) = &scores {
                recorder.set_feature_names(board.names().iter().map(|s| s.to_string()).collect());
            }
            FlightRun::new(recorder, options, self.registry.as_deref(), cfg, &sessions)
        });
        let obs = RunObs::new(self.trace.as_deref(), flight.as_ref());

        type SessionOutcome = (Arc<Session>, io::Result<()>);
        let (outcomes, sink_result, fatal): (
            Vec<SessionOutcome>,
            io::Result<()>,
            Option<GatewayError>,
        ) = std::thread::scope(|scope| {
            let worker_handles: Vec<_> = (0..workers)
                .map(|w| {
                    let tx = tx.clone();
                    let shards = &shards;
                    let processor = processor.clone();
                    let scores = scores.clone();
                    scope.spawn(move || {
                        worker_loop(
                            w % shard_count,
                            shards,
                            &processor,
                            scores.as_ref(),
                            &tx,
                            obs,
                        )
                    })
                })
                .collect();
            let sink_handle = scope.spawn(|| sink_loop(rx, events, obs));

            // Everything a session thread needs, captured by reference so
            // the closure can be called for late-arriving connections.
            let spawn_session = |reader: Box<dyn Read + Send + 'a>,
                                 session: Arc<Session>,
                                 peer: Option<String>| {
                let tx = tx.clone();
                let shards = &shards;
                let server_metrics = &server_metrics;
                let factory = &factory;
                let chunk_samples = gw.chunk_samples;
                scope.spawn(move || {
                    obs.flight_record(|rec| {
                        FlightEvent::new(EventKind::SessionOpen, session.id(), 0, rec.now_us())
                            .with_args(session.shard() as u64, 0)
                    });
                    if session.label().is_some() {
                        let seq = session.next_seq();
                        let line = session_open_line(&session, seq, peer.as_deref());
                        let _ = tx.send(SinkMsg::line(session.id(), seq, line, 0, Instant::now()));
                    }
                    let shard = &shards[session.shard()];
                    let result =
                        session_ingest(reader, &session, factory, shard, &tx, chunk_samples, obs);
                    match &result {
                        Ok(()) => server_metrics.sessions_closed.fetch_add(1, Relaxed),
                        Err(_) => server_metrics.sessions_errored.fetch_add(1, Relaxed),
                    };
                    obs.flight_record(|rec| {
                        FlightEvent::new(EventKind::SessionClose, session.id(), 0, rec.now_us())
                            .with_args(result.is_err() as u64, 0)
                    });
                    if session.label().is_some() {
                        let seq = session.next_seq();
                        let slot = Slot::Close {
                            session: session.clone(),
                            error: result.as_ref().err().map(|e| e.to_string()),
                        };
                        let _ = tx.send(SinkMsg::Slot {
                            session: session.id(),
                            seq,
                            slot,
                        });
                    }
                    result
                })
            };

            let mut handles = Vec::new();
            let mut fatal: Option<GatewayError> = None;
            let mut last_stats = started;
            let mut emit_stats = |stats: &mut E, streams: Option<u64>| -> io::Result<()> {
                if let Some(interval) = gw.stats_interval {
                    if last_stats.elapsed() >= interval {
                        last_stats = Instant::now();
                        let queue_len: usize = shards.iter().map(ShardQueue::len).sum();
                        let line = stats_line(&sessions.totals(), started, queue_len, streams);
                        writeln!(stats, "{line}")?;
                        stats.flush()?;
                    }
                }
                Ok(())
            };
            let open_session = |label: Option<String>| -> Arc<Session> {
                let session = sessions.open(label, shard_count);
                if let (Some(registry), Some(label)) = (&self.registry, session.label()) {
                    crate::obs::register_session(registry, label, session.metrics());
                }
                server_metrics.sessions_opened.fetch_add(1, Relaxed);
                session
            };

            match feed {
                Feed::Streams(streams) => {
                    for stream in streams {
                        let session = open_session(stream.label);
                        handles.push(spawn_session(stream.reader, session, None));
                    }
                    // No `streams` field here: a `run_streams` feed keeps
                    // the single-stream stats shape byte-for-byte.
                    if gw.stats_interval.is_some() {
                        while handles.iter().any(|h| !h.is_finished()) {
                            obs.flight_poll();
                            if let Err(e) = emit_stats(&mut *stats, None) {
                                fatal = Some(GatewayError::sink(e));
                                break;
                            }
                            std::thread::sleep(DRAIN_POLL);
                        }
                    }
                }
                Feed::Accept(listener) => {
                    let max_streams = cfg.max_streams.max(1);
                    loop {
                        if self.shutdown.load(Relaxed) {
                            break;
                        }
                        if cfg
                            .stop_after
                            .is_some_and(|limit| sessions.len() as u64 >= limit)
                        {
                            break;
                        }
                        match listener.accept() {
                            Ok((conn, peer)) => {
                                let active = handles.iter().filter(|h| !h.is_finished()).count();
                                if active >= max_streams {
                                    server_metrics.sessions_refused.fetch_add(1, Relaxed);
                                    let _ = tx.send(SinkMsg::Note {
                                        line: session_refused_line(&peer, max_streams),
                                    });
                                    continue;
                                }
                                let label = format!("s{}", sessions.len() + 1);
                                let session = open_session(Some(label));
                                let reader = Box::new(conn.with_shutdown(self.shutdown.clone()));
                                handles.push(spawn_session(reader, session, Some(peer)));
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                obs.flight_poll();
                                let active = handles.iter().filter(|h| !h.is_finished()).count();
                                if let Err(we) = emit_stats(&mut *stats, Some(active as u64)) {
                                    fatal = Some(GatewayError::sink(we));
                                    break;
                                }
                                std::thread::sleep(ACCEPT_POLL);
                            }
                            Err(e) => {
                                fatal = Some(GatewayError::Accept(e));
                                break;
                            }
                        }
                    }
                    if fatal.is_some() {
                        // Unwedge the sessions so the drain below ends.
                        self.shutdown.store(true, Relaxed);
                    }
                    while handles.iter().any(|h| !h.is_finished()) {
                        obs.flight_poll();
                        let active = handles.iter().filter(|h| !h.is_finished()).count();
                        // Keep draining even if a stats write fails; the
                        // first error still wins below.
                        if let Err(we) = emit_stats(&mut *stats, Some(active as u64)) {
                            fatal.get_or_insert(GatewayError::sink(we));
                        }
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
            }

            let outcomes: Vec<SessionOutcome> = sessions
                .sessions()
                .into_iter()
                .zip(handles)
                .map(|(session, handle)| {
                    let result = handle.join().expect("session ingest panicked");
                    (session, result)
                })
                .collect();
            for shard in &shards {
                shard.close();
            }
            for handle in worker_handles {
                handle.join().expect("worker panicked");
            }
            drop(tx);
            let sink_result = sink_handle.join().expect("sink panicked");
            (outcomes, sink_result, fatal)
        });

        // One last poll so a SIGUSR1 that landed while sessions drained
        // (feeds without a polling supervisor loop) still dumps.
        obs.flight_poll();

        if let Some(err) = fatal {
            return Err(err);
        }
        if fatal_in_streams {
            for (session, result) in &outcomes {
                if let Some(source) = result.as_ref().err() {
                    return Err(GatewayError::Read {
                        stream: session
                            .label()
                            .map(str::to_string)
                            .unwrap_or_else(|| format!("#{}", session.id())),
                        source: io::Error::new(source.kind(), source.to_string()),
                    });
                }
            }
        }
        sink_result.map_err(GatewayError::sink)?;

        // Span records buffer in the sink; push them out while the run's
        // counters are still being finalised so nothing is lost if the
        // caller exits right after reading the report.
        if let Some(trace) = &self.trace {
            trace.flush();
        }

        let report = ServerReport {
            metrics: sessions.totals(),
            server: server_metrics.snapshot(),
            sessions: outcomes
                .iter()
                .map(|(session, _)| SessionSummary {
                    id: session.id(),
                    label: session.label().map(str::to_string),
                    metrics: session.snapshot(),
                })
                .collect(),
            elapsed: started.elapsed(),
            pool: PoolStats {
                hits: factory.pool().hits(),
                misses: factory.pool().misses(),
                idle: factory.pool().idle(),
            },
        };
        let streams_field = if fatal_in_streams { None } else { Some(0) };
        writeln!(
            stats,
            "{}",
            stats_line(&report.metrics, started, 0, streams_field)
        )
        .map_err(GatewayError::sink)?;
        stats.flush().map_err(GatewayError::sink)?;
        Ok(report)
    }
}

/// One session's ingest loop: hand each read to its splitter as it
/// arrives, enqueue captures on its shard (the shard's drop budget
/// arbitrates overload).
fn session_ingest<R: Read>(
    input: R,
    session: &Arc<Session>,
    factory: &MonitorFactory,
    shard: &ShardQueue<WorkItem>,
    tx: &mpsc::Sender<SinkMsg>,
    chunk_samples: usize,
    obs: RunObs<'_>,
) -> io::Result<()> {
    let mut reader = Cf32Reader::new(input).with_chunk_samples(chunk_samples.max(1));
    let mut splitter = factory.splitter();
    let mut chunk = Vec::new();
    let mut captures: Vec<BurstCapture> = Vec::new();
    let (id, own) = (session.id(), session.metrics());

    // `ingest_start` is when the chunk that completed the burst arrived
    // (its `read_chunk` returned, so a silent client's wait is not
    // counted); the span's `ingest` stage covers arrival→enqueue and
    // hands its end instant to the `queue` stage untouched, keeping the
    // per-frame stage chain contiguous.
    let enqueue = |captures: &mut Vec<BurstCapture>, ingest_start: Instant| {
        for capture in captures.drain(..) {
            own.bursts.fetch_add(1, Relaxed);
            let seq = session.next_seq();
            let span = obs.next_span();
            let enqueued = Instant::now();
            obs.record(id, span, seq, SpanStage::Ingest, ingest_start, enqueued);
            obs.flight_record(|rec| {
                FlightEvent::new(EventKind::Burst, id, seq, rec.now_us())
                    .with_args(capture.burst.start as u64, capture.samples.len() as u64)
            });
            let item = WorkItem {
                session: session.clone(),
                seq,
                capture,
                enqueued,
                span,
            };
            if let Evicted::Item { item: evicted, .. } = shard.push(id, item) {
                shed(evicted, tx, obs);
            }
            obs.flight_record(|rec| {
                FlightEvent::new(EventKind::QueueDepth, id, seq, rec.now_us())
                    .with_args(shard.len() as u64, session.shard() as u64)
            });
        }
    };

    loop {
        let n = reader.read_chunk(&mut chunk)?;
        if n == 0 {
            break;
        }
        let arrived = Instant::now();
        own.chunks_in.fetch_add(1, Relaxed);
        own.samples_in.fetch_add(n as u64, Relaxed);
        splitter.push_into(&chunk, &mut captures);
        enqueue(&mut captures, arrived);
    }
    let finish_started = Instant::now();
    splitter.finish_into(&mut captures);
    enqueue(&mut captures, finish_started);
    Ok(())
}

/// Accounts one burst shed by a shard's drop budget and fills its
/// sequence hole so the sink never waits on work that will not arrive.
fn shed(evicted: WorkItem, tx: &mpsc::Sender<SinkMsg>, obs: RunObs<'_>) {
    let now = Instant::now();
    let samples = evicted.capture.samples.len() as u64;
    let own = evicted.session.metrics();
    own.bursts_dropped.fetch_add(1, Relaxed);
    own.samples_dropped.fetch_add(samples, Relaxed);
    let (id, seq, span) = (evicted.session.id(), evicted.seq, evicted.span);
    let queued_us = obs.record(id, span, seq, SpanStage::Drop, evicted.enqueued, now);
    let ticket = obs.flight_record(|rec| {
        FlightEvent::new(EventKind::Drop, id, seq, rec.now_us()).with_args(samples, queued_us)
    });
    obs.flight_drop_check(&evicted.session, ticket);
    let line = dropped_line(evicted.session.label(), &evicted.capture);
    let _ = tx.send(SinkMsg::line(id, seq, line, 0, now));
}

/// Worker: drain the home shard, steal from the others when it is empty,
/// block briefly only when every shard is dry.
fn worker_loop(
    home: usize,
    shards: &[ShardQueue<WorkItem>],
    processor: &FrameProcessor,
    scores: Option<&ScoreBoard>,
    tx: &mpsc::Sender<SinkMsg>,
    obs: RunObs<'_>,
) {
    let n = shards.len();
    loop {
        let mut found = None;
        for i in 0..n {
            if let Some((_key, item)) = shards[(home + i) % n].try_pop() {
                found = Some(item);
                break;
            }
        }
        let item = match found {
            Some(item) => item,
            None if shards.iter().all(ShardQueue::is_closed) => {
                // Closed shards cannot gain items; one more scan beats the
                // close/empty race, then the worker is done.
                match shards.iter().find_map(ShardQueue::try_pop) {
                    Some((_key, item)) => item,
                    None => break,
                }
            }
            None => match shards[home].pop_timeout(WORKER_IDLE_WAIT) {
                Some((_key, item)) => item,
                None => continue,
            },
        };
        process_item(item, processor, scores, tx, obs);
    }
}

/// Decode, classify, render, send — with per-stage timing, counted into
/// the session's metrics.
fn process_item(
    item: WorkItem,
    processor: &FrameProcessor,
    scores: Option<&ScoreBoard>,
    tx: &mpsc::Sender<SinkMsg>,
    obs: RunObs<'_>,
) {
    let WorkItem {
        session,
        seq,
        capture,
        enqueued,
        span,
    } = item;
    let dequeued = Instant::now();
    let reception = processor.decode(&capture);
    let decoded = Instant::now();
    let event = processor.classify(&capture, reception);
    let done = Instant::now();
    if let (Some(board), Some(s)) = (scores, event.scores.as_ref()) {
        board.record(s);
    }
    let id = session.id();
    let queue_us = obs.record(id, span, seq, SpanStage::Queue, enqueued, dequeued);
    let decode_us = obs.record(id, span, seq, SpanStage::Decode, dequeued, decoded);
    let classify_us = obs.record(id, span, seq, SpanStage::Classify, decoded, done);
    let total_us = done.saturating_duration_since(enqueued).as_micros() as u64;
    let own = session.metrics();
    own.latency.record(total_us);
    if event.payload.is_some() {
        own.frames_decoded.fetch_add(1, Relaxed);
    }
    if event.accepted_forgery() {
        own.forgeries.fetch_add(1, Relaxed);
    }
    // The verdict journal entry carries everything the incident report
    // needs to explain the call: flags, the DE² statistic, the fused
    // score and the per-feature scores already computed for this burst.
    let verdict_ticket = obs.flight_record(|rec| {
        let mut flags = 0u64;
        if event.payload.is_some() {
            flags |= FlightEvent::VERDICT_DECODED;
        }
        if event.verdict.is_some_and(|v| v.is_attack) {
            flags |= FlightEvent::VERDICT_ATTACK;
        }
        if event.accepted_forgery() {
            flags |= FlightEvent::VERDICT_ACCEPTED;
        }
        let de2 = event.verdict.map(|v| v.de_squared).unwrap_or(f64::NAN);
        let ev = FlightEvent::new(EventKind::Verdict, id, seq, rec.now_us())
            .with_args(flags, de2.to_bits());
        match &event.scores {
            Some(s) => ev.with_scores(s.fused, s.features.entries().iter().map(|(_, v)| *v)),
            None => ev,
        }
    });
    if event.accepted_forgery() {
        // The exit-3 condition: dump one incident snapshot whose journal
        // ends at exactly this verdict.
        obs.flight_forgery(verdict_ticket);
    }
    let line = frame_line(
        session.label(),
        seq,
        &event,
        queue_us,
        decode_us,
        classify_us,
        total_us,
    );
    // A send error means the sink hit an output error and hung up; keep
    // draining the queue so ingest accounting stays truthful.
    let _ = tx.send(SinkMsg::line(id, seq, line, span, done));
}

/// One session's reorder state inside the sink.
#[derive(Default)]
struct SessionSink {
    pending: BTreeMap<u64, Slot>,
    next: u64,
}

/// Sink: restore per-session sequence order (workers race) and write
/// JSON lines. Sessions interleave; within a session, order is exact.
fn sink_loop<W: Write>(
    rx: mpsc::Receiver<SinkMsg>,
    events: &mut W,
    obs: RunObs<'_>,
) -> io::Result<()> {
    let mut sessions: HashMap<SessionId, SessionSink> = HashMap::new();
    let mut pending_total = 0usize;
    for msg in rx.iter() {
        match msg {
            SinkMsg::Note { line } => {
                writeln!(events, "{line}")?;
            }
            SinkMsg::Slot { session, seq, slot } => {
                let sink = sessions.entry(session).or_default();
                sink.pending.insert(seq, slot);
                pending_total += 1;
                let (emitted, closed) = drain_session(session, sink, events, obs)?;
                pending_total -= emitted;
                if closed {
                    sessions.remove(&session);
                }
            }
        }
        if pending_total == 0 {
            events.flush()?;
        }
    }
    // Channel closed: flush whatever is contiguous (holes can only mean a
    // worker died, which join() will have surfaced as a panic).
    for (id, sink) in sessions.iter_mut() {
        drain_session(*id, sink, events, obs)?;
    }
    events.flush()
}

/// Writes `sink`'s contiguous prefix; returns (lines written, session
/// closed).
fn drain_session<W: Write>(
    session: SessionId,
    sink: &mut SessionSink,
    events: &mut W,
    obs: RunObs<'_>,
) -> io::Result<(usize, bool)> {
    let mut emitted = 0usize;
    let mut closed = false;
    while let Some(slot) = sink.pending.remove(&sink.next) {
        match slot {
            Slot::Line {
                line,
                span,
                classified,
            } => {
                writeln!(events, "{line}")?;
                let (seq, written) = (sink.next, Instant::now());
                obs.record(session, span, seq, SpanStage::Emit, classified, written);
            }
            Slot::Close { session, error } => {
                let line = session_close_line(&session, sink.next, error.as_deref());
                writeln!(events, "{line}")?;
                closed = true;
            }
        }
        sink.next += 1;
        emitted += 1;
    }
    Ok((emitted, closed))
}

/// Renders one frame event as a JSON line. Unlabelled sessions omit the
/// `stream` field entirely.
fn frame_line(
    stream: Option<&str>,
    seq: u64,
    event: &StreamEvent,
    queue_us: u64,
    decode_us: u64,
    classify_us: u64,
    total_us: u64,
) -> String {
    let latency = JsonObject::new()
        .uint("queue_us", queue_us)
        .uint("decode_us", decode_us)
        .uint("classify_us", classify_us)
        .uint("total_us", total_us)
        .finish();
    let line = JsonObject::new()
        .string("type", "frame")
        .string_if("stream", stream)
        .uint("seq", seq)
        .uint("burst_start", event.burst.start as u64)
        .uint("burst_end", event.burst.end as u64)
        .bool("truncated", event.truncated)
        .opt("payload_hex", event.payload.as_deref(), |o, k, p| {
            o.string(k, &hex(p))
        })
        .opt(
            "de2",
            event.verdict.map(|v| v.de_squared),
            JsonObject::float,
        )
        .opt("verdict", event.verdict, |o, k, v| {
            o.string(k, if v.is_attack { "attack" } else { "authentic" })
        });
    // Pipelines with extractors add the fused score and the named feature
    // vector; the paper's detector reports no scores, so its lines carry
    // the verdict alone.
    let line = match &event.scores {
        Some(scores) => {
            let mut features = JsonObject::new();
            for (name, value) in scores.features.entries() {
                features = features.float(name, *value);
            }
            line.float("score", scores.fused)
                .raw("features", &features.finish())
        }
        None => line,
    };
    line.bool("accepted_forgery", event.accepted_forgery())
        .raw("latency", &latency)
        .finish()
}

/// Renders the event for a burst shed by the drop budget.
fn dropped_line(stream: Option<&str>, capture: &BurstCapture) -> String {
    JsonObject::new()
        .string("type", "dropped")
        .string_if("stream", stream)
        .uint("burst_start", capture.burst.start as u64)
        .uint("burst_end", capture.burst.end as u64)
        .uint("samples", capture.samples.len() as u64)
        .finish()
}

/// Renders a session-open marker (labelled sessions only).
fn session_open_line(session: &Session, seq: u64, peer: Option<&str>) -> String {
    JsonObject::new()
        .string("type", "session")
        .string_if("stream", session.label())
        .uint("seq", seq)
        .string("event", "open")
        .string_if("peer", peer)
        .finish()
}

/// Renders a session-close marker with the session's final counters.
fn session_close_line(session: &Session, seq: u64, error: Option<&str>) -> String {
    let s = session.snapshot();
    JsonObject::new()
        .string("type", "session")
        .string_if("stream", session.label())
        .uint("seq", seq)
        .string("event", "close")
        .uint("samples_in", s.samples_in)
        .uint("bursts", s.bursts)
        .uint("frames_decoded", s.frames_decoded)
        .uint("forgeries", s.forgeries)
        .uint("bursts_dropped", s.bursts_dropped)
        .string_if("error", error)
        .finish()
}

/// Renders the marker for a connection refused at the session ceiling.
fn session_refused_line(peer: &str, max_streams: usize) -> String {
    JsonObject::new()
        .string("type", "session")
        .string("event", "refused")
        .string("peer", peer)
        .uint("max_streams", max_streams as u64)
        .finish()
}

/// Renders one stats line. `streams` (active sessions) appears only
/// under [`GatewayServer::serve`].
fn stats_line(
    s: &MetricsSnapshot,
    started: Instant,
    queue_len: usize,
    streams: Option<u64>,
) -> String {
    let secs = started.elapsed().as_secs_f64();
    let msps = if secs > 0.0 {
        s.samples_in as f64 / secs / 1e6
    } else {
        0.0
    };
    let line = JsonObject::new()
        .string("type", "stats")
        .uint("elapsed_ms", (secs * 1e3) as u64)
        .uint("samples_in", s.samples_in)
        .uint("chunks_in", s.chunks_in)
        .uint("bursts", s.bursts)
        .uint("frames_decoded", s.frames_decoded)
        .uint("forgeries", s.forgeries)
        .uint("bursts_dropped", s.bursts_dropped)
        .uint("samples_dropped", s.samples_dropped)
        .uint("queue_len", queue_len as u64);
    let line = match streams {
        Some(n) => line.uint("streams", n),
        None => line,
    };
    line.opt("p50_us", s.p50_us(), JsonObject::uint)
        .opt("p99_us", s.p99_us(), JsonObject::uint)
        .float("msamples_per_sec", (msps * 1e3).round() / 1e3)
        .finish()
}
