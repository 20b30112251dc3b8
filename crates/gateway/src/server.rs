//! The multi-stream gateway server: sessions, one work queue, and the
//! shared decode/classify engine.
//!
//! ```text
//!            ┌─ accept loop (serve) / caller (run_streams) ──────────────┐
//!  tcp/unix  │  session 1 ingest ─┐  a slot free: decode inline ────┐   │
//!  clients ─▶│  session 2 ingest ─┤                                 │   │
//!            │  session 3 ingest ─┴▶ all busy: work queue ▶ workers ┤   │
//!            │               each started when a burst first queues │   │
//!            └──────────────────────────────────────────────────────┼───┘
//!                    ┌── one lock ──────────────────────────────────▼──┐
//!                    │ per-session reorder ▶ event writer (JSONL)      │
//!                    └─────────────────────────────────────────────────┘
//! ```
//!
//! Each accepted stream becomes a [`Session`] with its own ingest thread,
//! which gates and splits each read's cf32 bytes as they arrive, in
//! blocks of [`INGEST_BLOCK_SAMPLES`]: every burst is handed on as soon as
//! the block that completes its capture has been scanned, not after the
//! rest of the read. A read may end inside one of the gate's 8-sample
//! floor blocks; its bursts still leave with it, except where a window
//! ties with the gate within rounding, which waits for at most 7 more
//! samples or the hang-up
//! ([`EnergyStream`](ctc_core::defense::EnergyStream)). While nothing is queued and fewer than `workers`
//! bursts are being processed, the thread decodes, classifies and writes
//! each burst it cuts itself, with no hand-off, wake-up or cross-core
//! copy; it scans its next block only once it has, so a lone recording
//! is paced by its own decoding and never shed. Otherwise (other sessions
//! hold every slot, or bursts already wait) the burst goes onto the one
//! [`WorkQueue`], whose workers are started when a burst first queues:
//! each push while fewer than `workers` have started starts one, so a run
//! whose bursts all run inline starts none. Overload is arbitrated per
//! session by the queue's drop budget (see [`crate::session`]). A stalled
//! stream pushes nothing, so it holds up no one.
//!
//! One lock owns the event writer and every session's reorder state, and
//! whichever thread delivers a session's next sequence number writes out
//! the events that are then contiguous, with no thread of its own:
//! the JSONL stream interleaves sessions but is always in order *within*
//! a `stream` label. A slow writer blocks the thread that writes, and
//! through the lock the others, so undelivered lines never pile up in
//! memory. The writer is flushed once per batch, never per line: by an
//! ingest thread after a block whose bursts it handed on, by a worker
//! that finds the queue empty, and by the run at its end. Behind a
//! buffered writer that is one write per block that delivered lines.

use crate::error::GatewayError;
use crate::flight::{FlightOptions, FlightRun};
use crate::metrics::{MetricsSnapshot, ScoreBoard, ServerMetricsSnapshot};
use crate::obs::RunObs;
use crate::pipeline::GatewayConfig;
use crate::session::{Evicted, Session, SessionId, SessionTable, WorkQueue};
use crate::source::Listener;
use ctc_core::defense::{BurstCapture, MonitorFactory, StreamEvent};
use ctc_dsp::io::Cf32Reader;
use ctc_obs::flight::{EventKind, FlightEvent};
use ctc_obs::json::{hex, JsonObject};
use ctc_obs::{Registry, SpanStage, TraceSink};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Supervisor poll cadence: the accept loop when no client is waiting,
/// and the drain while sessions finish.
const POLL: Duration = Duration::from_millis(5);

/// Samples a session gates and splits before it hands on the bursts they
/// complete. A read of up to `chunk_samples` is scanned in blocks of this
/// many, so a burst completed early in a read is decoded without waiting
/// for the rest of the read to be scanned. 2,048 cf32 samples are 16 KiB
/// and the gate's activity flags for them 2 KiB, so a block stays in a
/// 32-KiB L1 data cache from the gate's pass to the splitter's copy of
/// it; blocks of 1,024 and 4,096 measured alike.
pub const INGEST_BLOCK_SAMPLES: usize = 2048;

/// Multi-stream server configuration: the per-stream pipeline knobs plus
/// the session layer on top.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The per-stream pipeline configuration (chunking, workers, queue
    /// depth per worker, detection stages).
    pub gateway: GatewayConfig,
    /// Concurrent-session ceiling; connections beyond it are refused
    /// (counted, reported as a `refused` event) rather than queued.
    pub max_streams: usize,
    /// Stop accepting after this many sessions, then drain and return
    /// (`None`: serve until [`GatewayServer::shutdown_handle`] fires).
    pub stop_after: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            gateway: GatewayConfig::default(),
            max_streams: 64,
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
    /// field. One unlabelled stream is how `ctc monitor --input` and the
    /// golden corpus monitor a single recording.
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
    /// Decode/classify workers the run started: at most the configured
    /// `workers`, each when a burst was queued while fewer had started,
    /// so 0 for a run whose bursts all ran inline.
    pub workers_started: usize,
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
}

/// One burst on its way to decode and classify: run inline by its
/// session's ingest thread, or queued for a worker.
struct WorkItem {
    session: Arc<Session>,
    /// Per-session event sequence number.
    seq: u64,
    capture: BurstCapture,
    /// When the read that completed the burst returned: its `ingest`
    /// stage, and its arrival-to-verdict latency, start here.
    arrived: Instant,
    /// When ingest handed the burst on: its `queue` stage starts here.
    enqueued: Instant,
}

/// One entry of a session's sequence order: a rendered event line, or
/// the session's close marker, rendered with its final counters. A frame
/// line carries when its burst was classified: its `emit` stage ends
/// when the line is written. A session marker or a `dropped` filler
/// carries `None`: it is no burst's stage.
enum Slot {
    Line {
        line: String,
        classified: Option<Instant>,
    },
    Close {
        session: Arc<Session>,
        error: Option<String>,
    },
}

/// The run's event writer and every session's reorder state, behind one
/// lock. Whichever thread delivers a session's next sequence number
/// writes out the run of slots that is then contiguous, so events leave
/// in per-session order without a thread of their own. A slow writer
/// blocks the thread that writes, and through the lock the others, so
/// undelivered lines cannot pile up in memory.
struct Output<'a, W> {
    state: Mutex<OutputState<'a, W>>,
}

struct OutputState<'a, W> {
    events: &'a mut W,
    /// Slots that arrived ahead of their session's turn.
    sessions: HashMap<SessionId, SessionSink>,
    /// Something was written since the last flush.
    unflushed: bool,
    /// The first write error: output ends there, and the run reports it.
    error: Option<io::Error>,
}

/// One session's reorder state.
#[derive(Default)]
struct SessionSink {
    pending: BTreeMap<u64, Slot>,
    next: u64,
}

impl<'a, W: Write> Output<'a, W> {
    fn new(events: &'a mut W) -> Self {
        Output {
            state: Mutex::new(OutputState {
                events,
                sessions: HashMap::new(),
                unflushed: false,
                error: None,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, OutputState<'a, W>> {
        self.state.lock().expect("event output poisoned")
    }

    /// Puts `slot` at `seq` in its session's order and writes every slot
    /// that is now contiguous. A no-op once a write has failed.
    fn deliver(&self, session: SessionId, seq: u64, slot: Slot, obs: RunObs<'_>) {
        let mut guard = self.lock();
        let st = &mut *guard;
        if st.error.is_some() {
            return;
        }
        let sink = st.sessions.entry(session).or_default();
        sink.pending.insert(seq, slot);
        match drain_session(session, sink, st.events, obs) {
            Ok((written, closed)) => {
                st.unflushed |= written;
                if closed {
                    st.sessions.remove(&session);
                }
            }
            Err(e) => st.error = Some(e),
        }
    }

    /// Writes and flushes a line outside any session's order (a refusal).
    fn note(&self, line: &str) {
        let mut st = self.lock();
        if st.error.is_none() {
            if let Err(e) = write_line(st.events, line) {
                st.error = Some(e);
            }
        }
        st.unflushed = true;
        st.flush();
    }

    /// Flushes what was written since the last flush. A thread calls this
    /// once per batch: an ingest thread after a block whose bursts it
    /// handed on, a worker that finds the queue empty.
    fn flush(&self) {
        self.lock().flush();
    }

    /// Ends the run's output: flushes and returns the first write error.
    fn finish(self) -> io::Result<()> {
        let mut st = self.state.into_inner().expect("event output poisoned");
        st.flush();
        st.error.map_or(Ok(()), Err)
    }
}

impl<W: Write> OutputState<'_, W> {
    fn flush(&mut self) {
        if self.unflushed && self.error.is_none() {
            self.unflushed = false;
            if let Err(e) = self.events.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Where a run's sessions come from.
enum Feed<'a> {
    /// A fixed set of in-process streams, all started upfront.
    Streams(Vec<NamedStream<'a>>),
    /// A bound listener accepted from until shutdown/`stop_after`.
    Accept(Listener),
}

/// The multi-stream gateway server.
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
    /// The snapshot path and the flight options, when a recorder is
    /// attached; each run allocates its own ring.
    flight: Option<(PathBuf, FlightOptions)>,
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

    /// Writes each run's journal to `trace` as it is recorded, one JSON
    /// line per event: bursts, their stages, verdicts (with per-feature
    /// scores), drops, queue depths and session lifecycle, in the schema
    /// of an incident snapshot's `events`. A run that succeeds flushes
    /// `trace` before it returns its report.
    pub fn with_trace_sink(mut self, trace: Arc<TraceSink>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches a flight recorder when [`FlightOptions::out`] names a
    /// snapshot path, and nothing otherwise: the ring has no other
    /// reader. Each run then journals bursts, stage boundaries, verdicts
    /// (with per-feature scores), drops and session lifecycle wait-free
    /// into a ring of its own, and a trigger — the run's first accepted
    /// forgery, per-session drop-budget exhaustion, or `SIGUSR1` (install
    /// the handler with [`ctc_obs::flight::install_sigusr1_handler`]) —
    /// dumps a self-contained JSON incident snapshot to the path.
    pub fn with_flight(mut self, mut options: FlightOptions) -> Self {
        self.flight = options.out.take().map(|out| (out, options));
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
    /// recording, pass a single [`NamedStream::unlabelled`].
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

    /// The engine shared by both feeds: the work queue, the workers it
    /// starts on demand, the locked event output, and the supervisor on
    /// the calling thread.
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
        let queue = WorkQueue::new(gw.queue_depth.max(1).saturating_mul(workers));
        let sessions = SessionTable::new();
        let factory = MonitorFactory::new(gw.energy, gw.receiver.clone(), gw.pipeline.clone())
            .with_max_burst(gw.max_burst);
        let feature_names = gw.pipeline.feature_names();
        let scores = (!feature_names.is_empty()).then(|| ScoreBoard::new(feature_names));
        let feature_names = scores.as_ref().map_or(&[][..], ScoreBoard::names);
        let output = Output::new(events);
        let started = Instant::now();
        let fatal_in_streams = matches!(feed, Feed::Streams(_));
        // The supervisor polls only when there is something to poll: a
        // stats cadence, or a recorder a SIGUSR1 can dump. Otherwise the
        // calling thread sleeps in `join`.
        let supervise = gw.stats_interval.is_some() || self.flight.is_some();

        if let Some(registry) = &self.registry {
            crate::obs::register_run(registry, &sessions, factory.pool());
            crate::obs::register_server(registry, &sessions);
            if let Some(board) = &scores {
                crate::obs::register_scores(registry, board);
            }
        }
        let flight = self.flight.as_ref().map(|(out, options)| {
            FlightRun::new(
                out,
                options,
                self.registry.as_deref(),
                cfg,
                &sessions,
                started,
            )
        });
        let obs = RunObs::new(
            started,
            self.trace.as_deref(),
            flight.as_ref(),
            feature_names,
        );
        let engine = Engine {
            factory: &factory,
            scores: scores.as_ref(),
            queue: &queue,
            output: &output,
            workers,
            workers_started: AtomicUsize::new(0),
            chunk_samples: gw.chunk_samples.max(1),
            obs,
        };

        type SessionOutcome = (Arc<Session>, io::Result<()>);
        let (outcomes, fatal): (Vec<SessionOutcome>, Option<GatewayError>) =
            std::thread::scope(|scope| {
                // Everything a session thread needs, captured by reference
                // so the closure can be called for late-arriving
                // connections. A session starts the workers its overflow
                // needs from the same scope.
                let spawn_session = |reader: Box<dyn Read + Send + 'a>,
                                     session: Arc<Session>,
                                     peer: Option<String>| {
                    let engine = &engine;
                    scope.spawn(move || engine.session(scope, reader, &session, peer.as_deref()))
                };

                let mut handles = Vec::new();
                let mut fatal: Option<GatewayError> = None;
                let mut last_stats = started;
                let mut emit_stats = |stats: &mut E, streams: Option<u64>| -> io::Result<()> {
                    if let Some(interval) = gw.stats_interval {
                        if last_stats.elapsed() >= interval {
                            last_stats = Instant::now();
                            let line =
                                stats_line(&sessions.totals(), started, queue.len(), streams);
                            write_line(stats, &line)?;
                            stats.flush()?;
                        }
                    }
                    Ok(())
                };
                let open_session = |label: Option<String>| -> Arc<Session> {
                    let session = sessions.open(label);
                    if let Some(registry) = &self.registry {
                        crate::obs::register_session(registry, &session);
                    }
                    session
                };

                match feed {
                    Feed::Streams(streams) => {
                        for stream in streams {
                            let session = open_session(stream.label);
                            handles.push(spawn_session(stream.reader, session, None));
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
                                    let active =
                                        handles.iter().filter(|h| !h.is_finished()).count();
                                    if active >= max_streams {
                                        sessions.refuse();
                                        output.note(&session_refused_line(&peer, max_streams));
                                        continue;
                                    }
                                    let label = format!("s{}", sessions.len() + 1);
                                    let session = open_session(Some(label));
                                    let reader =
                                        Box::new(conn.with_shutdown(self.shutdown.clone()));
                                    handles.push(spawn_session(reader, session, Some(peer)));
                                }
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                    obs.flight_poll();
                                    let active =
                                        handles.iter().filter(|h| !h.is_finished()).count();
                                    if let Err(we) = emit_stats(&mut *stats, Some(active as u64)) {
                                        fatal = Some(GatewayError::sink(we));
                                        break;
                                    }
                                    std::thread::sleep(POLL);
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
                    }
                }
                // Drain. A `run_streams` feed's stats lines carry no
                // `streams` field, keeping the single-stream stats shape
                // byte-for-byte.
                while supervise && handles.iter().any(|h| !h.is_finished()) {
                    obs.flight_poll();
                    let active = handles.iter().filter(|h| !h.is_finished()).count();
                    let streams = (!fatal_in_streams).then_some(active as u64);
                    // Keep draining even if a stats write fails; the first
                    // error still wins below.
                    if let Err(e) = emit_stats(&mut *stats, streams) {
                        fatal.get_or_insert(GatewayError::sink(e));
                    }
                    std::thread::sleep(POLL);
                }

                let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
                // Every session has ended, so no worker starts after this:
                // the workers drain the queue and exit, and the scope joins
                // whichever started. A session's panic (a failed worker
                // spawn among them) is passed on only after the close, so
                // it fails the run instead of leaving the scope waiting on
                // workers blocked in `pop`.
                queue.close();
                let outcomes: Vec<SessionOutcome> = sessions
                    .sessions()
                    .into_iter()
                    .zip(joined)
                    .map(|(session, joined)| (session, joined.expect("session ingest panicked")))
                    .collect();
                (outcomes, fatal)
            });
        let workers_started = engine.workers_started.into_inner();
        let output_result = output.finish();

        // One last poll so a SIGUSR1 that landed after the drain's last
        // poll still dumps.
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
        output_result.map_err(GatewayError::sink)?;

        // Journal lines buffer in the sink; push them out while the run's
        // counters are still being finalised so nothing is lost if the
        // caller exits right after reading the report.
        if let Some(trace) = &self.trace {
            trace.flush();
        }

        let report = ServerReport {
            metrics: sessions.totals(),
            server: sessions.lifecycle(),
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
            workers_started,
        };
        let streams_field = if fatal_in_streams { None } else { Some(0) };
        write_line(
            stats,
            &stats_line(&report.metrics, started, 0, streams_field),
        )
        .map_err(GatewayError::sink)?;
        stats.flush().map_err(GatewayError::sink)?;
        Ok(report)
    }
}

/// What every thread of one run shares: the stages, the work queue and
/// the event output.
struct Engine<'a, 'w, W> {
    factory: &'a MonitorFactory,
    scores: Option<&'a ScoreBoard>,
    queue: &'a WorkQueue<WorkItem>,
    output: &'a Output<'w, W>,
    /// The most workers the run starts, and the inline limit: a session
    /// runs a burst itself only while fewer than this many are being
    /// processed, inline or by a worker. Workers pop regardless, so up to
    /// twice this many can run at once.
    workers: usize,
    /// Workers started so far. Each push onto the queue starts one while
    /// fewer than `workers` have started, so a run that never queues
    /// starts none.
    workers_started: AtomicUsize,
    /// The largest read of a session's stream, in samples.
    chunk_samples: usize,
    obs: RunObs<'a>,
}

impl<W: Write + Send> Engine<'_, '_, W> {
    /// One session's thread: its open marker, its ingest, its close
    /// marker. `scope` is the run's, where the workers start.
    fn session<'s>(
        &'s self,
        scope: &'s Scope<'s, '_>,
        reader: impl Read,
        session: &Arc<Session>,
        peer: Option<&str>,
    ) -> io::Result<()> {
        let (id, obs) = (session.id(), self.obs);
        obs.journal(EventKind::SessionOpen, id, 0, |ev| ev);
        if session.label().is_some() {
            let seq = session.next_seq();
            let line = session_open_line(session, seq, peer);
            let slot = Slot::Line {
                line,
                classified: None,
            };
            self.output.deliver(id, seq, slot, obs);
            // The first read may wait on a silent client.
            self.output.flush();
        }
        let result = self.ingest(scope, reader, session);
        session.end(result.is_err());
        obs.journal(EventKind::SessionClose, id, 0, |ev| {
            ev.with_args(result.is_err() as u64, 0)
        });
        if session.label().is_some() {
            let seq = session.next_seq();
            let slot = Slot::Close {
                session: session.clone(),
                error: result.as_ref().err().map(|e| e.to_string()),
            };
            self.output.deliver(id, seq, slot, obs);
            self.output.flush();
        }
        result
    }

    /// One session's ingest loop: scan each read's cf32 bytes as it
    /// arrives, in blocks of [`INGEST_BLOCK_SAMPLES`], and hand the bursts
    /// each block completes on before the next block is scanned (see
    /// [`dispatch`](Self::dispatch)). A read error still finishes the
    /// splitter, so the bursts already found are processed before the
    /// error ends the session.
    fn ingest<'s>(
        &'s self,
        scope: &'s Scope<'s, '_>,
        input: impl Read,
        session: &Arc<Session>,
    ) -> io::Result<()> {
        let mut reader = Cf32Reader::new(input).with_chunk_samples(self.chunk_samples);
        let mut splitter = self.factory.cf32_splitter();
        let mut captures: Vec<BurstCapture> = Vec::new();
        let own = session.metrics();
        let mut nonfinite = 0;
        let result = loop {
            let raw = match reader.read_raw() {
                Ok([]) => break Ok(()),
                Ok(raw) => raw,
                Err(e) => break Err(e),
            };
            // `arrived` is when the read returned (a silent client's wait is
            // not counted): the start of every burst this read completes.
            let arrived = Instant::now();
            own.chunks_in.fetch_add(1, Relaxed);
            own.samples_in.fetch_add(raw.len() as u64, Relaxed);
            for block in raw.chunks(INGEST_BLOCK_SAMPLES) {
                splitter.push_into(block, &mut captures);
                let zeroed = splitter.nonfinite_samples();
                if zeroed != nonfinite {
                    own.nonfinite_samples.fetch_add(zeroed - nonfinite, Relaxed);
                    nonfinite = zeroed;
                }
                self.dispatch(scope, session, &mut captures, arrived);
            }
        };
        // The stream has ended, or failed: nothing more will be read, and
        // the bursts the splitter holds are still processed.
        let finish_started = Instant::now();
        splitter.finish_into(&mut captures);
        self.dispatch(scope, session, &mut captures, finish_started);
        result
    }

    /// Hands each capture one block completed on, in order: the session
    /// runs the burst itself while nothing is queued and fewer than
    /// `workers` bursts are being processed; otherwise the burst goes onto
    /// the work queue, whose drop budget arbitrates overload, and the push
    /// starts a worker in `scope` while fewer than `workers` have started.
    /// Each burst's `ingest` stage runs from `arrived` (when its read
    /// returned) to the hand-off, where its `queue` stage starts; an
    /// inline burst's queue stage ends where it starts. The output is
    /// flushed once at the end, so the lines of one block leave together,
    /// and a block that completed no burst flushes nothing.
    fn dispatch<'s>(
        &'s self,
        scope: &'s Scope<'s, '_>,
        session: &Arc<Session>,
        captures: &mut Vec<BurstCapture>,
        arrived: Instant,
    ) {
        if captures.is_empty() {
            return;
        }
        let (id, obs) = (session.id(), self.obs);
        for capture in captures.drain(..) {
            session.metrics().bursts.fetch_add(1, Relaxed);
            let seq = session.next_seq();
            let enqueued = Instant::now();
            obs.record(id, seq, SpanStage::Ingest, arrived, enqueued);
            obs.journal(EventKind::Burst, id, seq, |ev| {
                ev.with_args(capture.burst.start as u64, capture.samples.len() as u64)
            });
            let item = WorkItem {
                session: session.clone(),
                seq,
                capture,
                arrived,
                enqueued,
            };
            if self.queue.run_inline(self.workers) {
                let slot = self.process(item, enqueued);
                self.queue.finish();
                self.output.deliver(id, seq, slot, obs);
            } else {
                let evicted = self.queue.push(id, item);
                let below = |n: usize| (n < self.workers).then_some(n + 1);
                if self
                    .workers_started
                    .fetch_update(Relaxed, Relaxed, below)
                    .is_ok()
                {
                    scope.spawn(move || self.work());
                }
                if let Evicted::Item { item: evicted, .. } = evicted {
                    self.shed(evicted);
                }
                obs.journal(EventKind::QueueDepth, id, seq, |ev| {
                    ev.with_args(self.queue.len() as u64, 0)
                });
            }
        }
        self.output.flush();
    }

    /// One worker: process queued bursts until the queue closes, flushing
    /// the output whenever the queue runs dry.
    fn work(&self) {
        while let Some((id, item)) = self.queue.pop() {
            let seq = item.seq;
            let slot = self.process(item, Instant::now());
            let idle = self.queue.finish();
            self.output.deliver(id, seq, slot, self.obs);
            if idle {
                self.output.flush();
            }
        }
    }

    /// Accounts one burst shed by the queue's drop budget and fills its
    /// sequence slot with a `dropped` line, so the session's order never
    /// waits on work that will not arrive.
    fn shed(&self, evicted: WorkItem) {
        let obs = self.obs;
        let samples = evicted.capture.samples.len() as u64;
        let own = evicted.session.metrics();
        own.bursts_dropped.fetch_add(1, Relaxed);
        own.samples_dropped.fetch_add(samples, Relaxed);
        let (id, seq) = (evicted.session.id(), evicted.seq);
        let ticket = obs.journal(EventKind::Drop, id, seq, |ev| {
            let queued = evicted.enqueued.elapsed().as_micros() as u64;
            ev.with_args(samples, queued)
        });
        obs.flight_drop_check(&evicted.session, ticket);
        let line = dropped_line(evicted.session.label(), seq, &evicted.capture);
        let slot = Slot::Line {
            line,
            classified: None,
        };
        self.output.deliver(id, seq, slot, obs);
    }

    /// Decode, classify and render one burst whose queue stage ended at
    /// `dequeued`, with per-stage timing counted into its session's
    /// metrics and its arrival-to-verdict time into the session's latency
    /// histogram. Returns the rendered line's slot.
    fn process(&self, item: WorkItem, dequeued: Instant) -> Slot {
        let WorkItem {
            session,
            seq,
            capture,
            arrived,
            enqueued,
        } = item;
        let (processor, obs) = (self.factory.processor(), self.obs);
        let reception = processor.decode(&capture);
        let decoded = Instant::now();
        let event = processor.classify(&capture, reception);
        let done = Instant::now();
        if let (Some(board), Some(s)) = (self.scores, event.scores.as_ref()) {
            board.record(s);
        }
        let id = session.id();
        let queue_us = obs.record(id, seq, SpanStage::Queue, enqueued, dequeued);
        let decode_us = obs.record(id, seq, SpanStage::Decode, dequeued, decoded);
        let classify_us = obs.record(id, seq, SpanStage::Classify, decoded, done);
        let ingest_us = enqueued.saturating_duration_since(arrived).as_micros() as u64;
        let total_us = done.saturating_duration_since(enqueued).as_micros() as u64;
        let own = session.metrics();
        own.latency
            .record(done.saturating_duration_since(arrived).as_micros() as u64);
        if event.payload.is_some() {
            own.frames_decoded.fetch_add(1, Relaxed);
        }
        if event.accepted_forgery() {
            own.forgeries.fetch_add(1, Relaxed);
        }
        // The verdict journal entry carries everything the incident report
        // needs to explain the call: flags, the DE² statistic, the fused
        // score and the per-feature scores already computed for this burst.
        let verdict_ticket = obs.journal(EventKind::Verdict, id, seq, |ev| {
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
            let ev = ev.with_args(flags, de2.to_bits());
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
        // `total_us` runs from the hand-off, so consumers that subtract it
        // from an arrival-to-verdict time get the ingest wait; the line
        // also reports that wait directly as `ingest_us`.
        let line = frame_line(session.label(), seq, &event, |latency| {
            latency
                .uint("queue_us", queue_us)
                .uint("decode_us", decode_us)
                .uint("classify_us", classify_us)
                .uint("total_us", total_us)
                .uint("ingest_us", ingest_us)
        });
        Slot::Line {
            line,
            classified: Some(done),
        }
    }
}

/// Writes `sink`'s contiguous prefix; returns (anything written, session
/// closed).
fn drain_session<W: Write>(
    session: SessionId,
    sink: &mut SessionSink,
    events: &mut W,
    obs: RunObs<'_>,
) -> io::Result<(bool, bool)> {
    let mut written = false;
    let mut closed = false;
    while let Some(slot) = sink.pending.remove(&sink.next) {
        match slot {
            Slot::Line { line, classified } => {
                write_line(events, &line)?;
                if let Some(classified) = classified {
                    let (seq, now) = (sink.next, Instant::now());
                    obs.record(session, seq, SpanStage::Emit, classified, now);
                }
            }
            Slot::Close { session, error } => {
                let line = session_close_line(&session, sink.next, error.as_deref());
                write_line(events, &line)?;
                closed = true;
            }
        }
        sink.next += 1;
        written = true;
    }
    Ok((written, closed))
}

/// Writes one rendered event line and its newline.
fn write_line(out: &mut impl Write, line: &str) -> io::Result<()> {
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")
}

/// Renders one frame event as a JSON line, with the fields `latency` adds
/// as its `latency` object. Unlabelled sessions omit the `stream` field
/// entirely.
fn frame_line(
    stream: Option<&str>,
    seq: u64,
    event: &StreamEvent,
    latency: impl FnOnce(JsonObject) -> JsonObject,
) -> String {
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
        Some(scores) => line
            .float("score", scores.fused)
            .object("features", |mut features| {
                for (name, value) in scores.features.entries() {
                    features = features.float(name, *value);
                }
                features
            }),
        None => line,
    };
    line.bool("accepted_forgery", event.accepted_forgery())
        .object("latency", latency)
        .finish()
}

/// Renders the event for a burst shed by the drop budget, at the burst's
/// own `seq`.
fn dropped_line(stream: Option<&str>, seq: u64, capture: &BurstCapture) -> String {
    JsonObject::new()
        .string("type", "dropped")
        .string_if("stream", stream)
        .uint("seq", seq)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The journal's only reader is a snapshot, so without a path to
    /// write one to, `with_flight` attaches no recorder.
    #[test]
    fn with_flight_attaches_a_recorder_only_with_an_out_path() {
        let server = GatewayServer::default().with_flight(FlightOptions::default());
        assert!(server.flight.is_none());
        let server = GatewayServer::default().with_flight(FlightOptions {
            out: Some("incident.json".into()),
            ..FlightOptions::default()
        });
        assert!(server.flight.is_some());
    }
}
