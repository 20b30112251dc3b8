//! # ctc-obs
//!
//! Unified telemetry layer for the *Hide and Seek* (ICDCS 2019)
//! reproduction. The defense lives or dies on timing and decision
//! statistics, so every long-running component — the streaming gateway,
//! the buffer pool, the Monte-Carlo bench engine — reports into one
//! scrapeable surface instead of keeping private counters:
//!
//! - [`metrics`] — the wait-free primitives: [`Counter`], [`Gauge`] and a
//!   fixed-bucket log-scale [`Histogram`]. Recording is a relaxed atomic
//!   add; no locks ever sit on a hot path.
//! - [`registry`] — a process-wide (or per-run) [`Registry`] of named,
//!   labelled metric families. Registration takes a lock once (cold
//!   path); handles are plain `Arc`s. Pull-based collectors
//!   ([`Registry::counter_fn`] and friends) expose counters that already
//!   exist elsewhere — the gateway's pipeline atomics, a
//!   [`BufferPool`](ctc_dsp::BufferPool)'s hit/miss counts — without
//!   double-counting on the hot path.
//! - [`expo`] — Prometheus text exposition (stable name and label
//!   ordering, histogram `_bucket`/`_sum`/`_count` triples).
//! - [`http`] — a tiny blocking responder serving `GET /metrics`, plus a
//!   one-shot [`http::fetch_text`] client for `ctc obs dump`.
//! - [`scrape`] — the client-side inverse of [`expo`]: parse a scraped
//!   exposition body back into typed samples and reassembled histograms
//!   ([`Scrape`], [`ScrapedHistogram`]) so harnesses can assert SLOs
//!   against a live endpoint numerically.
//! - [`process`] — process-level collectors (resident memory), so memory
//!   stability is checkable from the same scrape.
//! - [`flight`] — an always-on, bounded-memory flight recorder: a
//!   lock-free ring journal ([`FlightRecorder`]) of compact structured
//!   events (bursts, stage boundaries, verdicts with per-feature
//!   scores, drops), recorded wait-free and allocation-free.
//! - [`snapshot`] — the incident-snapshot format: journal tail +
//!   per-stage latency breakdown + registry snapshot/delta rendered as
//!   one self-contained JSON document ([`SnapshotBuilder`]), shared by
//!   the gateway's trigger dumps, loadgen breach reports, and `ctc obs
//!   dump --json`.
//! - [`json`] — the workspace's one JSON module: the single-line
//!   [`JsonObject`](json::JsonObject) encoder behind gateway events,
//!   snapshots and reports, and the [`parse`](json::parse) decoder that
//!   reads them back as [`JsonValue`](json::JsonValue) trees.
//! - [`trace`] — lightweight structured tracing: span IDs allocated per
//!   burst at ingest, per-stage durations recorded as JSONL records, so a
//!   single frame's end-to-end path is reconstructable offline.
//!
//! ```
//! use ctc_obs::Registry;
//!
//! let registry = Registry::new();
//! let frames = registry.counter_with(
//!     "ctc_gateway_frames_total",
//!     "Frames decoded, by verdict.",
//!     &[("verdict", "authentic")],
//! );
//! frames.inc();
//! let text = registry.render();
//! assert!(text.contains("ctc_gateway_frames_total{verdict=\"authentic\"} 1"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod expo;
pub mod flight;
pub mod http;
pub mod json;
pub mod metrics;
pub mod process;
pub mod registry;
pub mod scrape;
pub mod snapshot;
pub mod trace;

pub use flight::{EventKind, FlightEvent, FlightRecorder};
pub use http::MetricsServer;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use process::register_process_metrics;
pub use registry::{Registry, ScopedRegistry};
pub use scrape::{Scrape, ScrapeError, ScrapeSample, ScrapedHistogram};
pub use snapshot::SnapshotBuilder;
pub use trace::{next_span_id, SpanStage, TraceSink};
