//! Soak mode: sustained load with SLOs asserted from scraped telemetry.
//!
//! The fleet streams for a fixed duration while this module scrapes the
//! gateway's `/metrics` endpoint at intervals. Everything is evaluated as
//! *deltas* against a baseline scrape taken before the first connect, so
//! a soak run isolates its own traffic even against a long-running
//! monitor that has served other clients. A second basis is captured once
//! the warmup window passes: steady-state checks (pool misses, resident
//! memory) measure from there, because cold-start allocation is expected
//! and only *ongoing* growth is a leak.
//!
//! The verdict is machine-checkable: a list of [`SloCheck`]s, each with
//! the measured value, the bound, and pass/fail — `pass` on the
//! [`SoakOutcome`] is the AND over non-skipped checks, which is what the
//! CI smoke job and the `ctc loadgen` exit code key off.

use crate::error::LoadgenError;
use crate::fleet::{run_fleet, FleetReport, Target};
use crate::spec::FleetSpec;
use ctc_obs::flight::{EventKind, FlightEvent, FlightRecorder};
use ctc_obs::{Scrape, ScrapedHistogram, SnapshotBuilder};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// SLO bounds; `None` disables that check.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// p99 arrival-to-verdict detection latency bound, microseconds.
    pub p99_latency_us: Option<f64>,
    /// Aggregate and per-session drop budget: dropped bursts over
    /// ingested bursts.
    pub max_drop_rate: Option<f64>,
    /// Forgery detection recall floor: frames classified `attack` over
    /// forgeries the generator actually sent.
    pub min_recall: Option<f64>,
    /// Pool misses tolerated after warmup (steady state should be
    /// allocation-free: zero).
    pub max_steady_pool_misses: Option<f64>,
    /// Resident-memory growth factor tolerated after warmup.
    pub max_rss_growth: Option<f64>,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            p99_latency_us: Some(50_000.0),
            max_drop_rate: Some(0.01),
            min_recall: Some(0.99),
            max_steady_pool_misses: Some(0.0),
            max_rss_growth: Some(1.25),
        }
    }
}

/// A soak run: fleet spec plus scrape/assert configuration.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// The fleet to sustain.
    pub fleet: FleetSpec,
    /// How long the fleet streams.
    pub duration: Duration,
    /// Cold-start window excluded from steady-state checks.
    pub warmup: Duration,
    /// Scrape cadence during the run.
    pub interval: Duration,
    /// The gateway's metrics endpoint (`host:port`).
    pub metrics_addr: String,
    /// The bounds to assert.
    pub slo: SloSpec,
    /// Where to write an incident snapshot when an SLO breaches
    /// (`None`: no snapshot). The snapshot embeds every SLO check as a
    /// journal event plus the baseline/final registry delta, in the same
    /// format the gateway's flight recorder dumps, so `ctc obs report`
    /// reads both.
    pub incident_out: Option<PathBuf>,
}

impl SoakConfig {
    /// A soak with default warmup (a fifth of the duration, clamped to
    /// [1 s, 10 s]), 2 s scrape interval, and default SLOs.
    pub fn new(fleet: FleetSpec, metrics_addr: impl Into<String>, duration: Duration) -> Self {
        let warmup = (duration / 5).clamp(Duration::from_secs(1), Duration::from_secs(10));
        SoakConfig {
            fleet,
            duration,
            warmup,
            interval: Duration::from_secs(2),
            metrics_addr: metrics_addr.into(),
            slo: SloSpec::default(),
            incident_out: None,
        }
    }
}

/// One asserted bound with its measured value.
#[derive(Debug, Clone)]
pub struct SloCheck {
    /// Stable machine-readable name (e.g. `p99_latency_us`).
    pub name: &'static str,
    /// The measured value; `None` when unmeasurable.
    pub value: Option<f64>,
    /// The bound asserted against.
    pub bound: f64,
    /// `"<="` or `">="`.
    pub op: &'static str,
    /// Whether the check passed (always true when skipped).
    pub pass: bool,
    /// True when the check could not be evaluated (missing metric, no
    /// steady-state scrape) — skipped checks don't fail the run but are
    /// reported so silence is visible.
    pub skipped: bool,
}

impl SloCheck {
    fn le(name: &'static str, value: Option<f64>, bound: f64) -> SloCheck {
        Self::build(name, value, bound, "<=")
    }

    fn ge(name: &'static str, value: Option<f64>, bound: f64) -> SloCheck {
        Self::build(name, value, bound, ">=")
    }

    fn build(name: &'static str, value: Option<f64>, bound: f64, op: &'static str) -> SloCheck {
        let (pass, skipped) = match value {
            None => (true, true),
            Some(v) => (if op == "<=" { v <= bound } else { v >= bound }, false),
        };
        SloCheck {
            name,
            value,
            bound,
            op,
            pass,
            skipped,
        }
    }
}

/// What the scrapes observed over the run (deltas from baseline unless
/// noted).
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Bursts the gateway ingested.
    pub bursts: f64,
    /// Frames classified authentic.
    pub frames_authentic: f64,
    /// Frames classified attack.
    pub frames_attack: f64,
    /// Bursts that failed to decode.
    pub frames_undecoded: f64,
    /// Bursts shed by the work queue's drop budget.
    pub dropped: f64,
    /// p99 of the arrival-to-verdict latency histogram over the run.
    pub p99_latency_us: Option<f64>,
    /// Pool misses after warmup (steady state).
    pub steady_pool_misses: Option<f64>,
    /// Resident memory at steady-state basis, bytes (absolute).
    pub rss_steady_bytes: Option<f64>,
    /// Resident memory at the end, bytes (absolute).
    pub rss_final_bytes: Option<f64>,
    /// Sessions the gateway closed during the run.
    pub sessions_closed: f64,
    /// Scrapes taken during the run.
    pub scrapes: usize,
}

/// Outcome of a soak run: the fleet's ground truth, the observed deltas,
/// and the SLO verdict.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// The fleet run underneath.
    pub fleet: FleetReport,
    /// Scraped observations.
    pub observed: Observed,
    /// Every asserted bound.
    pub checks: Vec<SloCheck>,
    /// AND over non-skipped checks.
    pub pass: bool,
    /// Path of the incident snapshot written on breach (`None` when the
    /// run passed, no `incident_out` was configured, or the write
    /// failed).
    pub incident: Option<String>,
}

/// Counter/gauge delta between two scrapes (absent samples read as 0).
fn delta(base: &Scrape, end: &Scrape, name: &str, labels: &[(&str, &str)]) -> f64 {
    end.value(name, labels).unwrap_or(0.0) - base.value(name, labels).unwrap_or(0.0)
}

/// Fetches one scrape, keeping the raw exposition text alongside the
/// parse — the incident snapshot embeds the text verbatim so its
/// registry/delta sections use the same serializer as the gateway's.
fn fetch_raw(addr: &str) -> Result<(String, Scrape), LoadgenError> {
    let text = ctc_obs::http::fetch_text(addr).map_err(|source| LoadgenError::Scrape {
        addr: addr.to_string(),
        source,
    })?;
    let scrape = Scrape::parse(&text).map_err(|e| LoadgenError::Scrape {
        addr: addr.to_string(),
        source: std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()),
    })?;
    Ok((text, scrape))
}

/// Runs the fleet for `config.duration` against `target`, scraping
/// `config.metrics_addr` throughout, and asserts the SLOs.
///
/// # Errors
///
/// [`LoadgenError::Spec`] for an invalid fleet spec and
/// [`LoadgenError::Scrape`] when the baseline or final scrape fails;
/// transient scrape failures *during* the run are tolerated (that
/// interval's sample is simply missing).
pub fn run_soak(config: &SoakConfig, target: &Target) -> Result<SoakOutcome, LoadgenError> {
    config.fleet.validate().map_err(LoadgenError::Spec)?;
    let addr = config.metrics_addr.as_str();
    let (baseline_text, baseline) = fetch_raw(addr)?;

    let started = Instant::now();
    let fleet_spec = config.fleet.clone();
    let fleet_target = target.clone();
    let duration = config.duration;
    let fleet_thread =
        std::thread::spawn(move || run_fleet(&fleet_spec, &fleet_target, Some(duration)));

    // Scrape at the configured cadence while the fleet streams; the first
    // scrape past the warmup boundary becomes the steady-state basis.
    let mut steady: Option<Scrape> = None;
    let mut scrapes = 0usize;
    let mut next_scrape = started + config.interval.min(config.warmup);
    while !fleet_thread.is_finished() {
        std::thread::sleep(Duration::from_millis(50));
        if Instant::now() < next_scrape {
            continue;
        }
        next_scrape += config.interval;
        if let Ok(scrape) = Scrape::fetch(addr) {
            scrapes += 1;
            if steady.is_none() && started.elapsed() >= config.warmup {
                steady = Some(scrape);
            }
        }
    }
    let fleet = fleet_thread.join().expect("fleet thread panicked")?;

    // Drain: the gateway keeps classifying after the last writer hangs
    // up. Wait until every session that connected has closed (or
    // errored), so the final scrape sees settled counters.
    let connected = fleet
        .streams
        .iter()
        .filter(|s| !matches!(&s.error, Some(e) if e.starts_with("connect:")))
        .count() as f64;
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    let finished = |s: &Scrape| {
        delta(&baseline, s, "ctc_sessions_closed_total", &[])
            + delta(&baseline, s, "ctc_sessions_errored_total", &[])
            >= connected
    };
    let (mut final_text, mut final_scrape) = fetch_raw(addr)?;
    while !finished(&final_scrape) && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(200));
        (final_text, final_scrape) = fetch_raw(addr)?;
    }

    let mut outcome = evaluate(
        config,
        fleet,
        &baseline,
        steady.as_ref(),
        &final_scrape,
        scrapes,
    );
    if !outcome.pass {
        if let Some(path) = &config.incident_out {
            match write_incident(path, &outcome, &baseline_text, &final_text) {
                Ok(()) => outcome.incident = Some(path.display().to_string()),
                Err(e) => eprintln!("loadgen: writing incident snapshot {}: {e}", path.display()),
            }
        }
    }
    Ok(outcome)
}

/// Writes the SLO-breach incident snapshot: one `slo_check` journal
/// event per asserted bound, the baseline→final registry delta, and the
/// full check list — the same self-contained format the gateway's
/// flight recorder dumps, so `ctc obs report` reads both.
pub(crate) fn write_incident(
    path: &std::path::Path,
    outcome: &SoakOutcome,
    baseline_text: &str,
    final_text: &str,
) -> std::io::Result<()> {
    let recorder = FlightRecorder::with_capacity(outcome.checks.len().max(1));
    for (index, check) in outcome.checks.iter().enumerate() {
        recorder.record(
            FlightEvent::new(EventKind::SloCheck, 0, index as u64, recorder.now_us())
                .with_args(check.pass as u64, check.value.unwrap_or(f64::NAN).to_bits()),
        );
    }
    let snapshot = SnapshotBuilder::new(&recorder, "slo_breach")
        .exposition(final_text)
        .baseline(baseline_text)
        .section("slo", &crate::report::checks_json(&outcome.checks))
        .render();
    std::fs::write(path, snapshot + "\n")
}

/// Pure SLO evaluation over the scrapes — separated from the run loop so
/// tests can exercise the arithmetic without sockets or sleeps.
pub(crate) fn evaluate(
    config: &SoakConfig,
    fleet: FleetReport,
    baseline: &Scrape,
    steady: Option<&Scrape>,
    fin: &Scrape,
    scrapes: usize,
) -> SoakOutcome {
    let frames = |verdict: &str| {
        delta(
            baseline,
            fin,
            "ctc_gateway_frames_total",
            &[("verdict", verdict)],
        )
    };
    let bursts = delta(baseline, fin, "ctc_gateway_bursts_total", &[]);
    let dropped = delta(baseline, fin, "ctc_queue_dropped_total", &[]);
    let p99 = latency_delta(baseline, fin).and_then(|h| h.quantile(0.99));
    let steady_misses = steady.map(|s| delta(s, fin, "ctc_pool_misses_total", &[]));
    let rss = |s: &Scrape| s.value(ctc_obs::process::RSS_GAUGE, &[]);
    let rss_steady = steady.and_then(rss);
    let rss_final = rss(fin);

    let observed = Observed {
        bursts,
        frames_authentic: frames("authentic"),
        frames_attack: frames("attack"),
        frames_undecoded: frames("undecoded"),
        dropped,
        p99_latency_us: p99,
        steady_pool_misses: steady_misses,
        rss_steady_bytes: rss_steady,
        rss_final_bytes: rss_final,
        sessions_closed: delta(baseline, fin, "ctc_sessions_closed_total", &[]),
        scrapes,
    };

    let slo = &config.slo;
    let mut checks = vec![SloCheck::le(
        "stream_errors",
        Some(fleet.errors() as f64),
        0.0,
    )];
    if let Some(bound) = slo.p99_latency_us {
        checks.push(SloCheck::le("p99_latency_us", p99, bound));
    }
    if let Some(bound) = slo.max_drop_rate {
        let aggregate = (bursts > 0.0).then(|| dropped / bursts);
        checks.push(SloCheck::le("drop_rate", aggregate, bound));
        checks.push(SloCheck::le(
            "worst_session_drop_rate",
            worst_session_drop_rate(baseline, fin),
            bound,
        ));
    }
    if let Some(bound) = slo.min_recall {
        let forged_sent = fleet.sent().forged as f64;
        let recall = (forged_sent > 0.0).then(|| observed.frames_attack / forged_sent);
        checks.push(SloCheck::ge("recall", recall, bound));
    }
    if let Some(bound) = slo.max_steady_pool_misses {
        checks.push(SloCheck::le("steady_pool_misses", steady_misses, bound));
    }
    if let Some(bound) = slo.max_rss_growth {
        let growth = match (rss_steady, rss_final) {
            (Some(s), Some(f)) if s > 0.0 => Some(f / s),
            _ => None,
        };
        checks.push(SloCheck::le("rss_growth", growth, bound));
    }
    let pass = checks.iter().all(|c| c.pass);
    SoakOutcome {
        fleet,
        observed,
        checks,
        pass,
        incident: None,
    }
}

/// The run's latency distribution: final histogram minus baseline.
fn latency_delta(baseline: &Scrape, fin: &Scrape) -> Option<ScrapedHistogram> {
    let end = fin.histogram("ctc_gateway_latency_us", &[])?;
    match baseline.histogram("ctc_gateway_latency_us", &[]) {
        Some(base) => end.delta_from(&base),
        None => Some(end),
    }
}

/// The worst per-session drop rate over sessions that ingested bursts
/// during the run. `None` when no labelled session data exists.
fn worst_session_drop_rate(baseline: &Scrape, fin: &Scrape) -> Option<f64> {
    let mut worst: Option<f64> = None;
    for label in fin.label_values("ctc_gateway_bursts_total", "stream") {
        let labels = [("stream", label.as_str())];
        let bursts = delta(baseline, fin, "ctc_gateway_bursts_total", &labels);
        if bursts <= 0.0 {
            continue;
        }
        let dropped = delta(baseline, fin, "ctc_queue_dropped_total", &labels);
        let rate = dropped / bursts;
        worst = Some(worst.map_or(rate, |w: f64| w.max(rate)));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{EventCounts, StreamStats};

    fn fleet(streams: usize, forged_each: u64) -> FleetReport {
        FleetReport {
            streams: (0..streams)
                .map(|index| StreamStats {
                    index,
                    sent: EventCounts {
                        authentic: 3,
                        forged: forged_each,
                        noise: 1,
                    },
                    samples: 100_000,
                    elapsed: Duration::from_secs(1),
                    error: None,
                })
                .collect(),
            elapsed: Duration::from_secs(1),
        }
    }

    fn scrape(text: &str) -> Scrape {
        Scrape::parse(text).unwrap()
    }

    fn config() -> SoakConfig {
        SoakConfig::new(FleetSpec::default(), "127.0.0.1:1", Duration::from_secs(10))
    }

    const BASELINE: &str = "\
ctc_gateway_bursts_total 10
ctc_gateway_frames_total{verdict=\"attack\"} 2
ctc_queue_dropped_total 1
ctc_pool_misses_total 5
ctc_sessions_closed_total 1
";

    #[test]
    fn healthy_run_passes_every_check() {
        // 4 streams x 4 forged = 16 forgeries, all detected; no new drops
        // or misses after steady state; flat RSS.
        let fin = scrape(
            "\
ctc_gateway_bursts_total 170
ctc_gateway_frames_total{verdict=\"attack\"} 18
ctc_gateway_frames_total{verdict=\"authentic\"} 12
ctc_queue_dropped_total 1
ctc_gateway_bursts_total{stream=\"s2\"} 40
ctc_queue_dropped_total{stream=\"s2\"} 0
ctc_pool_misses_total 9
ctc_sessions_closed_total 5
ctc_gateway_latency_us_bucket{le=\"1024\"} 100
ctc_gateway_latency_us_bucket{le=\"+Inf\"} 100
ctc_gateway_latency_us_sum 50000
ctc_gateway_latency_us_count 100
process_resident_memory_bytes 1000000
",
        );
        let steady = scrape("ctc_pool_misses_total 9\nprocess_resident_memory_bytes 990000\n");
        let outcome = evaluate(
            &config(),
            fleet(4, 4),
            &scrape(BASELINE),
            Some(&steady),
            &fin,
            3,
        );
        assert!(outcome.pass, "{:#?}", outcome.checks);
        assert!(
            outcome.checks.iter().all(|c| !c.skipped),
            "{:#?}",
            outcome.checks
        );
        assert_eq!(outcome.observed.frames_attack, 16.0);
        assert_eq!(outcome.observed.bursts, 160.0);
        assert_eq!(outcome.observed.scrapes, 3);
        let p99 = outcome.observed.p99_latency_us.unwrap();
        assert!(p99 <= 1024.0, "{p99}");
    }

    #[test]
    fn missed_forgeries_fail_recall() {
        // 16 forged sent, only 10 new attack verdicts.
        let fin = scrape(
            "\
ctc_gateway_bursts_total 170
ctc_gateway_frames_total{verdict=\"attack\"} 12
ctc_queue_dropped_total 1
ctc_sessions_closed_total 5
",
        );
        let outcome = evaluate(&config(), fleet(4, 4), &scrape(BASELINE), None, &fin, 1);
        let recall = outcome.checks.iter().find(|c| c.name == "recall").unwrap();
        assert!(!recall.pass);
        assert_eq!(recall.value, Some(10.0 / 16.0));
        assert!(!outcome.pass);
    }

    #[test]
    fn drop_budget_is_per_session_too() {
        // Aggregate rate fine (2/200), but one session shed half its
        // bursts.
        let fin = scrape(
            "\
ctc_gateway_bursts_total 210
ctc_queue_dropped_total 3
ctc_gateway_bursts_total{stream=\"s1\"} 100
ctc_queue_dropped_total{stream=\"s1\"} 0
ctc_gateway_bursts_total{stream=\"s2\"} 4
ctc_queue_dropped_total{stream=\"s2\"} 2
ctc_sessions_closed_total 5
",
        );
        let outcome = evaluate(&config(), fleet(4, 0), &scrape(BASELINE), None, &fin, 1);
        let worst = outcome
            .checks
            .iter()
            .find(|c| c.name == "worst_session_drop_rate")
            .unwrap();
        assert_eq!(worst.value, Some(0.5));
        assert!(!worst.pass);
        let aggregate = outcome
            .checks
            .iter()
            .find(|c| c.name == "drop_rate")
            .unwrap();
        assert!(aggregate.pass, "{aggregate:?}");
    }

    #[test]
    fn steady_state_pool_misses_fail_the_allocation_slo() {
        let fin = scrape("ctc_pool_misses_total 12\nctc_sessions_closed_total 5\n");
        let steady = scrape("ctc_pool_misses_total 9\n");
        let outcome = evaluate(
            &config(),
            fleet(1, 0),
            &scrape(BASELINE),
            Some(&steady),
            &fin,
            2,
        );
        let misses = outcome
            .checks
            .iter()
            .find(|c| c.name == "steady_pool_misses")
            .unwrap();
        assert_eq!(misses.value, Some(3.0));
        assert!(!misses.pass);
    }

    #[test]
    fn rss_growth_past_budget_fails() {
        let fin = scrape("process_resident_memory_bytes 2000000\nctc_sessions_closed_total 5\n");
        let steady = scrape("process_resident_memory_bytes 1000000\n");
        let outcome = evaluate(
            &config(),
            fleet(1, 0),
            &scrape(BASELINE),
            Some(&steady),
            &fin,
            2,
        );
        let rss = outcome
            .checks
            .iter()
            .find(|c| c.name == "rss_growth")
            .unwrap();
        assert_eq!(rss.value, Some(2.0));
        assert!(!rss.pass);
    }

    #[test]
    fn unmeasurable_checks_skip_but_are_reported() {
        // No steady scrape, no RSS gauge, no latency histogram, no forged
        // traffic: those checks skip; the run still passes on what is
        // measurable.
        let fin = scrape("ctc_gateway_bursts_total 20\nctc_sessions_closed_total 2\n");
        let outcome = evaluate(&config(), fleet(1, 0), &scrape(BASELINE), None, &fin, 0);
        for name in [
            "p99_latency_us",
            "recall",
            "steady_pool_misses",
            "rss_growth",
        ] {
            let c = outcome.checks.iter().find(|c| c.name == name).unwrap();
            assert!(c.skipped && c.pass, "{name}: {c:?}");
        }
        assert!(outcome.pass);
    }

    #[test]
    fn stream_errors_always_fail_the_run() {
        let mut f = fleet(2, 0);
        f.streams[1].error = Some("connect: refused".to_string());
        let fin = scrape("ctc_sessions_closed_total 2\n");
        let outcome = evaluate(&config(), f, &scrape(BASELINE), None, &fin, 0);
        let errs = outcome
            .checks
            .iter()
            .find(|c| c.name == "stream_errors")
            .unwrap();
        assert_eq!(errs.value, Some(1.0));
        assert!(!errs.pass);
        assert!(!outcome.pass);
    }

    #[test]
    fn breach_incident_snapshot_is_self_contained_and_parseable() {
        // A failing recall run (10 detected of 16 sent).
        let fin = scrape(
            "\
ctc_gateway_bursts_total 170
ctc_gateway_frames_total{verdict=\"attack\"} 12
ctc_queue_dropped_total 1
ctc_sessions_closed_total 5
",
        );
        let outcome = evaluate(&config(), fleet(4, 4), &scrape(BASELINE), None, &fin, 1);
        assert!(!outcome.pass);

        let path =
            std::env::temp_dir().join(format!("ctc_loadgen_incident_{}.json", std::process::id()));
        write_incident(
            &path,
            &outcome,
            BASELINE,
            "ctc_gateway_bursts_total 170\nctc_gateway_frames_total{verdict=\"attack\"} 12\n",
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        let doc = ctc_obs::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("type").and_then(|v| v.as_str()),
            Some("ctc_incident")
        );
        assert_eq!(
            doc.get("trigger").and_then(|v| v.as_str()),
            Some("slo_breach")
        );
        // One slo_check journal event per asserted bound.
        let events = doc.get("events").and_then(|v| v.as_array()).unwrap();
        assert_eq!(events.len(), outcome.checks.len());
        assert!(events
            .iter()
            .all(|e| e.get("kind").and_then(|k| k.as_str()) == Some("slo_check")));
        // The failing check is visible in both the journal and the slo
        // section.
        let slo = doc.get("slo").and_then(|v| v.as_array()).unwrap();
        let recall = slo
            .iter()
            .find(|c| c.get("name").and_then(|n| n.as_str()) == Some("recall"))
            .unwrap();
        assert_eq!(recall.get("pass").and_then(|p| p.as_bool()), Some(false));
        // Registry delta from the embedded baseline/final expositions.
        let delta = doc.get("delta").and_then(|v| v.as_array()).unwrap();
        assert!(delta.iter().any(|d| {
            d.get("name").and_then(|n| n.as_str()) == Some("ctc_gateway_bursts_total")
                && d.get("delta").and_then(|x| x.as_f64()) == Some(160.0)
        }));
    }

    #[test]
    fn disabled_slos_produce_no_checks() {
        let mut cfg = config();
        cfg.slo = SloSpec {
            p99_latency_us: None,
            max_drop_rate: None,
            min_recall: None,
            max_steady_pool_misses: None,
            max_rss_growth: None,
        };
        let fin = scrape("ctc_sessions_closed_total 2\n");
        let outcome = evaluate(&cfg, fleet(1, 0), &scrape(BASELINE), None, &fin, 0);
        assert_eq!(outcome.checks.len(), 1, "{:#?}", outcome.checks);
        assert_eq!(outcome.checks[0].name, "stream_errors");
    }
}
