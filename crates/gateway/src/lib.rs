//! # ctc-gateway
//!
//! The defense of *Hide and Seek* deployed as a long-running service: a
//! multi-stream streaming detection gateway that watches continuous IQ
//! streams and emits one JSON-lines event per decoded frame, flagging
//! waveform-emulation forgeries as they arrive.
//!
//! Where [`ctc_core::defense::StreamMonitor`] runs one stream's stages
//! back to back, this crate multiplexes many independent streams through
//! shared decode capacity. A stream decodes each burst on its own thread
//! as it is cut while decode capacity is free; when other streams hold
//! it, the stream queues its bursts for a pool of workers, each started
//! when a burst first queues (a run that never queues starts none), and
//! the bounded queue sheds overload rather than stall ingest:
//!
//! - [`server::GatewayServer`] — the service, and the only way in: each
//!   stream becomes a [`session::Session`] that runs its bursts inline or
//!   feeds one shared [`session::WorkQueue`] (a stalled stream pushes
//!   nothing, so it never head-of-line-blocks another), with per-session
//!   drop budgets under overload, per-session sequence-ordered JSONL
//!   tagged with a `stream` field, and both run-wide and
//!   `{stream="..."}`-labelled metrics.
//! - [`pipeline::GatewayConfig`] — the per-stream pipeline knobs and
//!   detection stages, with a validating builder.
//! - [`source::Input`] — where the bytes come from: cf32 file, stdin
//!   (`-`), a TCP listener (`tcp://host:port`), or a Unix-domain
//!   listener (`unix:///path.sock`); [`source::Listener`] accepts many
//!   connections for [`GatewayServer::serve`].
//! - [`metrics::MetricsCore`] — one session's lock-free counters and
//!   log-scale latency histogram; run-wide totals and session-lifecycle
//!   counts are folded from the run's [`session::SessionTable`] when
//!   read.
//! - [`error::GatewayError`] — typed failures with distinct process
//!   exit codes for the CLI.
//! - [`obs`] — publishes a run's counters into a [`ctc_obs::Registry`]
//!   under canonical `ctc_*` names (run-wide and per-stream) and records
//!   per-stage trace spans into a [`ctc_obs::TraceSink`]; see
//!   [`GatewayServer::with_registry`] and
//!   [`GatewayServer::with_trace_sink`]. Attaching them is the only
//!   switch: a server with neither records nothing.
//! - [`json`] — the workspace's JSON encoder and parser, re-exported
//!   from [`ctc_obs::json`].
//! - [`flight`] — a bounded-memory flight recorder
//!   ([`ctc_obs::flight`]), attached only with a snapshot path,
//!   journaling each run's bursts, stage boundaries, verdicts with
//!   per-feature scores, drops and session lifecycle into a ring of its
//!   own; on a trigger (a run's first accepted forgery, per-session
//!   drop-budget exhaustion, `SIGUSR1`) it dumps a self-contained JSON
//!   incident snapshot; see [`GatewayServer::with_flight`].
//!
//! Monitor two labelled streams through one engine:
//!
//! ```no_run
//! use ctc_gateway::{GatewayServer, NamedStream, ServerConfig};
//!
//! let server = GatewayServer::new(ServerConfig::default());
//! let report = server.run_streams(
//!     vec![
//!         NamedStream::new("uplink", std::io::stdin()),
//!         NamedStream::new("downlink", std::fs::File::open("capture.cf32").unwrap()),
//!     ],
//!     &mut std::io::stdout(),
//!     &mut std::io::stderr(),
//! )?;
//! for s in &report.sessions {
//!     eprintln!("{}: {} forgeries", s.label.as_deref().unwrap_or("?"), s.metrics.forgeries);
//! }
//! # Ok::<(), ctc_gateway::GatewayError>(())
//! ```
//!
//! Or serve a listener, each connection its own session:
//!
//! ```no_run
//! use ctc_gateway::{GatewayServer, Input, Listener, ServerConfig};
//!
//! let listener = Listener::bind(&Input::parse("tcp://127.0.0.1:4000")?)?;
//! let server = GatewayServer::new(ServerConfig::default());
//! let handle = server.shutdown_handle(); // stop from another thread
//! # drop(handle);
//! server.serve(listener, &mut std::io::stdout(), &mut std::io::stderr())?;
//! # Ok::<(), ctc_gateway::GatewayError>(())
//! ```

#![warn(missing_docs)]

pub use ctc_obs::json;
pub mod error;
pub mod flight;
pub mod metrics;
pub mod obs;
pub mod pipeline;
pub mod server;
pub mod session;
pub mod source;

pub use error::GatewayError;
pub use flight::FlightOptions;
pub use metrics::{
    LatencyHistogram, MetricsCore, MetricsSnapshot, ScoreBoard, ServerMetricsSnapshot,
};
pub use pipeline::{default_workers, GatewayConfig, GatewayConfigBuilder};
pub use server::{
    GatewayServer, NamedStream, PoolStats, ServerConfig, ServerReport, SessionSummary,
    ShutdownHandle, INGEST_BLOCK_SAMPLES,
};
pub use session::{Evicted, Session, SessionId, SessionTable, WorkQueue};
pub use source::{Input, Listener, SessionStream};
