//! Gateway-side flight-recorder wiring: options, trigger plumbing, and
//! incident-snapshot dumps.
//!
//! The ring itself lives in [`ctc_obs::flight`]; this module owns what
//! the *server* knows and the obs layer cannot: the registry handle for
//! baseline/current exposition, the session table, the effective
//! config, and the trigger policy — dump once on the first accepted
//! forgery or on per-session drop-budget exhaustion, dump on every
//! `SIGUSR1`. Snapshots are only written when an output path is
//! configured ([`FlightOptions::out`]); the journal itself is always on
//! while a recorder is attached, so a `SIGUSR1` can interrogate a run
//! that was started without any incident expected.

use crate::server::ServerConfig;
use crate::session::{Session, SessionTable};
use ctc_obs::flight::take_sigusr1;
use ctc_obs::json::{array, JsonObject};
use ctc_obs::{FlightRecorder, Registry, SnapshotBuilder};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Flight-recorder configuration for one [`GatewayServer`](
/// crate::server::GatewayServer) run.
#[derive(Debug, Clone)]
pub struct FlightOptions {
    /// Ring capacity in events ([`FlightRecorder::DEFAULT_CAPACITY`] by
    /// default; memory is `capacity × ~200 B`, allocated once).
    pub capacity: usize,
    /// Where to write incident snapshots. `None`: journal only, no
    /// dumps (triggers are ignored).
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

/// Per-run flight-recorder control: the shared ring plus everything a
/// snapshot needs for self-containment.
pub(crate) struct FlightCtl {
    recorder: FlightRecorder,
    out: Option<PathBuf>,
    max_events: usize,
    drop_budget: Option<u64>,
    registry: Mutex<Option<Arc<Registry>>>,
    /// Exposition text captured at run start — the delta baseline.
    baseline: Mutex<Option<String>>,
    /// Effective config, pre-rendered once at run start.
    config_json: Mutex<String>,
    /// The run's session table (snapshots embed it).
    sessions: Mutex<SessionTable>,
    /// Auto triggers (forgery, drop budget) dump at most once per run;
    /// SIGUSR1 dumps are not gated.
    auto_dumped: AtomicBool,
    dumps: AtomicU64,
}

impl FlightCtl {
    pub(crate) fn new(options: FlightOptions) -> FlightCtl {
        FlightCtl {
            recorder: FlightRecorder::with_capacity(options.capacity),
            out: options.out,
            max_events: options.max_events,
            drop_budget: options.drop_budget,
            registry: Mutex::new(None),
            baseline: Mutex::new(None),
            config_json: Mutex::new(String::from("{}")),
            sessions: Mutex::new(SessionTable::new()),
            auto_dumped: AtomicBool::new(false),
            dumps: AtomicU64::new(0),
        }
    }

    pub(crate) fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Captures the run's baseline (registry exposition at start),
    /// renders the effective config and takes the run's session table.
    /// Called once per `run_feed`.
    pub(crate) fn begin_run(
        &self,
        registry: Option<Arc<Registry>>,
        config: &ServerConfig,
        sessions: SessionTable,
    ) {
        *self.baseline.lock().unwrap() = registry.as_ref().map(|r| r.render());
        *self.registry.lock().unwrap() = registry;
        *self.config_json.lock().unwrap() = self.config_json_for(config);
        *self.sessions.lock().unwrap() = sessions;
    }

    fn config_json_for(&self, config: &ServerConfig) -> String {
        let gw = &config.gateway;
        let flight = JsonObject::new()
            .uint("capacity", self.recorder.capacity() as u64)
            .uint("max_events", self.max_events as u64)
            .opt("drop_budget", self.drop_budget, JsonObject::uint)
            .opt(
                "out",
                self.out.as_ref().map(|p| p.display().to_string()),
                |o, k, v| o.string(k, &v),
            )
            .finish();
        JsonObject::new()
            .uint("chunk_samples", gw.chunk_samples as u64)
            .uint("workers", gw.workers as u64)
            .uint("queue_depth", gw.queue_depth as u64)
            .uint("max_burst", gw.max_burst as u64)
            .uint("shards", config.shards as u64)
            .uint("max_streams", config.max_streams as u64)
            .opt(
                "stats_interval_ms",
                gw.stats_interval.map(|d| d.as_millis() as u64),
                JsonObject::uint,
            )
            .raw("flight", &flight)
            .finish()
    }

    fn sessions_json(&self) -> String {
        let sessions = self.sessions.lock().unwrap().sessions();
        array(sessions.iter().map(|session| {
            let s = session.snapshot();
            JsonObject::new()
                .uint("id", session.id())
                .string_if("stream", session.label())
                .uint("shard", session.shard() as u64)
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
        if self.out.is_none() || self.auto_dumped.swap(true, Relaxed) {
            return;
        }
        self.dump(reason, until);
    }

    /// Drop-budget trigger: fires when `session`'s dropped-burst count
    /// reaches the configured budget.
    pub(crate) fn check_drop_budget(&self, session: &Session, until: Option<u64>) {
        if let Some(budget) = self.drop_budget {
            if session.metrics().bursts_dropped.load(Relaxed) >= budget {
                self.auto_trigger("drop_budget", until);
            }
        }
    }

    /// Polls the process-wide SIGUSR1 latch; each signal dumps a fresh
    /// snapshot (overwriting the configured path).
    pub(crate) fn poll_sigusr1(&self) {
        if take_sigusr1() && self.out.is_some() {
            self.dump("sigusr1", None);
        }
    }

    /// Writes one incident snapshot to the configured path and notes it
    /// on stderr (scripts watch for the `flight:` marker line).
    fn dump(&self, reason: &str, until: Option<u64>) {
        let Some(path) = &self.out else { return };
        let seq = self.dumps.fetch_add(1, Relaxed) + 1;
        let now_text = {
            let registry = self.registry.lock().unwrap();
            registry.as_ref().map(|r| r.render())
        };
        let baseline = self.baseline.lock().unwrap().clone();
        let config = self.config_json.lock().unwrap().clone();
        let mut builder = SnapshotBuilder::new(&self.recorder, reason).max_events(self.max_events);
        if let Some(t) = until {
            builder = builder.until_ticket(t);
        }
        if let Some(text) = &now_text {
            builder = builder.exposition(text);
        }
        if let Some(text) = &baseline {
            builder = builder.baseline(text);
        }
        let json = builder
            .section("sessions", &self.sessions_json())
            .section("config", &config)
            .section("dump_seq", &seq.to_string())
            .render();
        match std::fs::write(path, json + "\n") {
            Ok(()) => eprintln!(
                "flight: incident snapshot ({reason}) written to {}",
                path.display()
            ),
            Err(e) => eprintln!(
                "flight: failed to write incident snapshot to {}: {e}",
                path.display()
            ),
        }
    }
}

impl std::fmt::Debug for FlightCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightCtl")
            .field("recorder", &self.recorder)
            .field("out", &self.out)
            .field("drop_budget", &self.drop_budget)
            .finish()
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
        let ctl = FlightCtl::new(FlightOptions {
            out: Some(path.clone()),
            ..FlightOptions::default()
        });
        ctl.begin_run(None, &ServerConfig::default(), SessionTable::new());
        ctl.auto_trigger("forgery", None);
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(first.contains("\"trigger\":\"forgery\""));
        assert!(first.contains("\"dump_seq\":1"));

        // A later auto trigger must not overwrite the first incident.
        std::fs::remove_file(&path).unwrap();
        ctl.auto_trigger("drop_budget", None);
        assert!(!path.exists(), "second auto trigger wrote a snapshot");
    }

    #[test]
    fn dump_embeds_config_and_sessions() {
        let path = tmp_path("sections");
        let _ = std::fs::remove_file(&path);
        let ctl = FlightCtl::new(FlightOptions {
            out: Some(path.clone()),
            drop_budget: Some(4),
            ..FlightOptions::default()
        });
        let sessions = SessionTable::new();
        sessions.open(Some("s1".into()), 1);
        ctl.begin_run(None, &ServerConfig::default(), sessions);
        ctl.auto_trigger("forgery", None);
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"config\":{"), "{json}");
        assert!(json.contains("\"drop_budget\":4"));
        assert!(json.contains("\"sessions\":[{\"id\":1,\"stream\":\"s1\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn no_out_path_means_no_dump() {
        let ctl = FlightCtl::new(FlightOptions::default());
        ctl.begin_run(None, &ServerConfig::default(), SessionTable::new());
        // Must be a no-op rather than a panic or a stray file.
        ctl.auto_trigger("forgery", None);
        ctl.poll_sigusr1();
    }
}
