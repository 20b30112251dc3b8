//! Gateway-side flight-recorder wiring: options, trigger plumbing, and
//! incident-snapshot dumps.
//!
//! The ring itself lives in [`ctc_obs::flight`]; this module owns what
//! the *server* knows and the obs layer cannot: the registry handle for
//! baseline/current exposition, the session table, the effective
//! config, and the trigger policy — dump once per run on the first
//! accepted forgery or on per-session drop-budget exhaustion, dump on
//! every `SIGUSR1`. A recorder exists only where a snapshot can be
//! written ([`FlightOptions::out`]): the journal has no other reader.
//! Each run journals into a ring of its own, so a snapshot holds only
//! its own run's events.

use crate::server::ServerConfig;
use crate::session::{Session, SessionTable};
use ctc_obs::flight::take_sigusr1;
use ctc_obs::json::{array, JsonObject};
use ctc_obs::{FlightRecorder, Registry, SnapshotBuilder};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Flight-recorder configuration for a [`GatewayServer`](
/// crate::server::GatewayServer).
#[derive(Debug, Clone)]
pub struct FlightOptions {
    /// Ring capacity in events ([`FlightRecorder::DEFAULT_CAPACITY`] by
    /// default; memory is `capacity × ~200 B`, allocated at each run's
    /// start).
    pub capacity: usize,
    /// Where to write incident snapshots. The recorder's switch: with
    /// `None` (the default), [`with_flight`](
    /// crate::server::GatewayServer::with_flight) attaches nothing.
    pub out: Option<PathBuf>,
    /// Cap on journal events embedded per snapshot.
    pub max_events: usize,
    /// Auto-dump when one session's dropped-burst count reaches this
    /// budget (`None`: drops never trigger).
    pub drop_budget: Option<u64>,
}

impl Default for FlightOptions {
    fn default() -> Self {
        FlightOptions {
            capacity: FlightRecorder::DEFAULT_CAPACITY,
            out: None,
            max_events: ctc_obs::SnapshotBuilder::DEFAULT_MAX_EVENTS,
            drop_budget: None,
        }
    }
}

/// One run's flight-recorder state: the run's own ring plus everything a
/// snapshot of this run embeds. `run_feed` builds it at run start and
/// drops it with the run, so every run starts with an empty journal and
/// its auto triggers armed.
pub(crate) struct FlightRun<'a> {
    recorder: FlightRecorder,
    out: &'a Path,
    options: &'a FlightOptions,
    registry: Option<&'a Registry>,
    config: &'a ServerConfig,
    sessions: &'a SessionTable,
    /// Exposition text captured at run start — the delta baseline.
    baseline: Option<String>,
    /// Auto triggers (forgery, drop budget) dump at most once per run;
    /// SIGUSR1 dumps are not gated.
    auto_dumped: AtomicBool,
    dumps: AtomicU64,
}

impl<'a> FlightRun<'a> {
    /// Allocates the run's ring and captures its baseline (registry
    /// exposition at start).
    pub(crate) fn new(
        out: &'a Path,
        options: &'a FlightOptions,
        registry: Option<&'a Registry>,
        config: &'a ServerConfig,
        sessions: &'a SessionTable,
    ) -> FlightRun<'a> {
        FlightRun {
            recorder: FlightRecorder::with_capacity(options.capacity),
            out,
            options,
            registry,
            config,
            sessions,
            baseline: registry.map(Registry::render),
            auto_dumped: AtomicBool::new(false),
            dumps: AtomicU64::new(0),
        }
    }

    pub(crate) fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The effective config, as the snapshot's `config` section.
    fn config_json(&self) -> String {
        let gw = &self.config.gateway;
        JsonObject::new()
            .uint("chunk_samples", gw.chunk_samples as u64)
            .uint("workers", gw.workers as u64)
            .uint("queue_depth", gw.queue_depth as u64)
            .uint("max_burst", gw.max_burst as u64)
            .uint("max_streams", self.config.max_streams as u64)
            .opt(
                "stats_interval_ms",
                gw.stats_interval.map(|d| d.as_millis() as u64),
                JsonObject::uint,
            )
            .object("flight", |o| {
                o.uint("capacity", self.recorder.capacity() as u64)
                    .uint("max_events", self.options.max_events as u64)
                    .opt("drop_budget", self.options.drop_budget, JsonObject::uint)
                    .string("out", &self.out.display().to_string())
            })
            .finish()
    }

    fn sessions_json(&self) -> String {
        array(self.sessions.sessions().iter().map(|session| {
            let s = session.snapshot();
            JsonObject::new()
                .uint("id", session.id())
                .string_if("stream", session.label())
                .uint("samples_in", s.samples_in)
                .uint("bursts", s.bursts)
                .uint("frames_decoded", s.frames_decoded)
                .uint("forgeries", s.forgeries)
                .uint("bursts_dropped", s.bursts_dropped)
                .finish()
        }))
    }

    /// One-shot auto trigger (forgery, drop budget): the first wins,
    /// later ones are no-ops so a noisy incident produces exactly one
    /// snapshot.
    pub(crate) fn auto_trigger(&self, reason: &str, until: Option<u64>) {
        if !self.auto_dumped.swap(true, Relaxed) {
            self.dump(reason, until);
        }
    }

    /// Drop-budget trigger: fires when `session`'s dropped-burst count
    /// reaches the configured budget.
    pub(crate) fn check_drop_budget(&self, session: &Session, until: Option<u64>) {
        if let Some(budget) = self.options.drop_budget {
            if session.metrics().bursts_dropped.load(Relaxed) >= budget {
                self.auto_trigger("drop_budget", until);
            }
        }
    }

    /// Polls the process-wide SIGUSR1 latch; each signal dumps a fresh
    /// snapshot (overwriting the configured path).
    pub(crate) fn poll_sigusr1(&self) {
        if take_sigusr1() {
            self.dump("sigusr1", None);
        }
    }

    /// Writes one incident snapshot to the configured path and notes it
    /// on stderr (scripts watch for the `flight:` marker line).
    fn dump(&self, reason: &str, until: Option<u64>) {
        let seq = self.dumps.fetch_add(1, Relaxed) + 1;
        let now_text = self.registry.map(Registry::render);
        let names = self.config.gateway.pipeline.feature_names();
        let mut builder = SnapshotBuilder::new(&self.recorder, reason)
            .feature_names(&names)
            .max_events(self.options.max_events);
        if let Some(t) = until {
            builder = builder.until_ticket(t);
        }
        if let Some(text) = &now_text {
            builder = builder.exposition(text);
        }
        if let Some(text) = &self.baseline {
            builder = builder.baseline(text);
        }
        let json = builder
            .section("sessions", &self.sessions_json())
            .section("config", &self.config_json())
            .section("dump_seq", &seq.to_string())
            .render();
        let path = self.out.display();
        match std::fs::write(self.out, json + "\n") {
            Ok(()) => eprintln!("flight: incident snapshot ({reason}) written to {path}"),
            Err(e) => eprintln!("flight: failed to write incident snapshot to {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ctc_flight_{tag}_{}.json", std::process::id()))
    }

    #[test]
    fn auto_trigger_dumps_exactly_once() {
        let path = tmp_path("auto_once");
        let _ = std::fs::remove_file(&path);
        let (options, config) = (FlightOptions::default(), ServerConfig::default());
        let sessions = SessionTable::new();
        let run = FlightRun::new(&path, &options, None, &config, &sessions);
        run.auto_trigger("forgery", None);
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(first.contains("\"trigger\":\"forgery\""));
        assert!(first.contains("\"dump_seq\":1"));

        // A later auto trigger must not overwrite the first incident.
        std::fs::remove_file(&path).unwrap();
        run.auto_trigger("drop_budget", None);
        assert!(!path.exists(), "second auto trigger wrote a snapshot");
    }

    #[test]
    fn dump_embeds_config_and_sessions() {
        let path = tmp_path("sections");
        let _ = std::fs::remove_file(&path);
        let options = FlightOptions {
            drop_budget: Some(4),
            ..FlightOptions::default()
        };
        let (config, sessions) = (ServerConfig::default(), SessionTable::new());
        sessions.open(Some("s1".into()));
        let run = FlightRun::new(&path, &options, None, &config, &sessions);
        run.auto_trigger("forgery", None);
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"config\":{"), "{json}");
        assert!(json.contains("\"drop_budget\":4"));
        assert!(json.contains(&format!("\"out\":\"{}\"", path.display())));
        assert!(json.contains("\"sessions\":[{\"id\":1,\"stream\":\"s1\""));
        std::fs::remove_file(&path).unwrap();
    }
}
