//! The JSON capacity report: what was generated, what the gateway
//! observed, and the SLO verdict — one machine-readable object that CI
//! archives as an artifact and scripts assert on.

use crate::fleet::{FleetReport, Target};
use crate::soak::{SloCheck, SoakConfig, SoakOutcome};
use crate::spec::FleetSpec;
use ctc_obs::json::JsonObject;

/// Adds the spec, echoed into the report so a stored artifact is
/// self-describing.
fn spec_fields(o: JsonObject, spec: &FleetSpec) -> JsonObject {
    o.uint("streams", spec.streams as u64)
        .uint("events_per_stream", spec.events_per_stream as u64)
        .string("mix", &spec.mix.to_string())
        .uint("gap_samples", spec.gap_samples as u64)
        .float("rate_msps", spec.rate_msps)
        .uint("seed", spec.seed)
}

/// Adds the ground-truth send totals.
fn sent_fields(o: JsonObject, report: &FleetReport) -> JsonObject {
    let sent = report.sent();
    o.uint("authentic", sent.authentic)
        .uint("forged", sent.forged)
        .uint("noise", sent.noise)
        .uint("bursts", sent.total())
        .uint("samples", report.samples())
        .float("aggregate_msps", report.msps())
        .float("elapsed_s", report.elapsed.as_secs_f64())
        .uint("stream_errors", report.errors() as u64)
}

/// Renders the fixed-count (non-soak) run report.
pub fn render_fleet(spec: &FleetSpec, target: &Target, report: &FleetReport) -> String {
    JsonObject::new()
        .string("mode", "fixed")
        .string("target", &target.to_string())
        .object("loadgen", |o| spec_fields(o, spec))
        .object("sent", |o| sent_fields(o, report))
        .bool("pass", report.errors() == 0)
        .finish()
}

/// The SLO check list as a JSON array — shared between the capacity
/// report's `slo` field and the breach incident snapshot's `slo`
/// section, so both render identically.
pub(crate) fn checks_json(checks: &[SloCheck]) -> String {
    let rendered: Vec<String> = checks
        .iter()
        .map(|c| {
            JsonObject::new()
                .string("name", c.name)
                .opt("value", c.value, JsonObject::float)
                .string("op", c.op)
                .float("bound", c.bound)
                .bool("pass", c.pass)
                .bool("skipped", c.skipped)
                .finish()
        })
        .collect();
    format!("[{}]", rendered.join(","))
}

/// Renders the soak run's capacity report: config echo, ground-truth
/// send totals, scraped observations, per-SLO checks, and the capacity
/// point this run certifies (or refutes).
pub fn render_soak(config: &SoakConfig, target: &Target, outcome: &SoakOutcome) -> String {
    let obs = &outcome.observed;
    JsonObject::new()
        .string("mode", "soak")
        .string("target", &target.to_string())
        .float("duration_s", config.duration.as_secs_f64())
        .float("warmup_s", config.warmup.as_secs_f64())
        .string("metrics_addr", &config.metrics_addr)
        .object("loadgen", |o| spec_fields(o, &config.fleet))
        .object("sent", |o| sent_fields(o, &outcome.fleet))
        .object("observed", |o| {
            o.float("bursts", obs.bursts)
                .float("frames_authentic", obs.frames_authentic)
                .float("frames_attack", obs.frames_attack)
                .float("frames_undecoded", obs.frames_undecoded)
                .float("dropped", obs.dropped)
                .opt("p99_latency_us", obs.p99_latency_us, JsonObject::float)
                .opt(
                    "steady_pool_misses",
                    obs.steady_pool_misses,
                    JsonObject::float,
                )
                .opt("rss_steady_bytes", obs.rss_steady_bytes, JsonObject::float)
                .opt("rss_final_bytes", obs.rss_final_bytes, JsonObject::float)
                .float("sessions_closed", obs.sessions_closed)
                .uint("scrapes", obs.scrapes as u64)
        })
        .raw("slo", &checks_json(&outcome.checks))
        // The capacity point this run certifies: N streams at the
        // achieved aggregate rate, sustained iff every SLO held.
        .object("capacity", |o| {
            o.uint("streams", config.fleet.streams as u64)
                .float("per_stream_msps", config.fleet.rate_msps)
                .float("aggregate_msps", outcome.fleet.msps())
                .bool("sustained", outcome.pass)
        })
        .string_if("incident", outcome.incident.as_deref())
        .bool("pass", outcome.pass)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{EventCounts, StreamStats};
    use ctc_obs::json;
    use std::time::Duration;

    fn report() -> FleetReport {
        FleetReport {
            streams: vec![StreamStats {
                index: 0,
                sent: EventCounts {
                    authentic: 5,
                    forged: 2,
                    noise: 1,
                },
                samples: 80_000,
                elapsed: Duration::from_secs(2),
                error: None,
            }],
            elapsed: Duration::from_secs(2),
        }
    }

    #[test]
    fn fleet_report_parses_and_carries_ground_truth() {
        let spec = FleetSpec::default();
        let target = Target::Tcp("127.0.0.1:9000".to_string());
        let line = render_fleet(&spec, &target, &report());
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("mode").unwrap().as_str(), Some("fixed"));
        assert_eq!(
            v.get("target").unwrap().as_str(),
            Some("tcp://127.0.0.1:9000")
        );
        let sent = v.get("sent").unwrap();
        assert_eq!(sent.get("forged").unwrap().as_f64(), Some(2.0));
        assert_eq!(sent.get("bursts").unwrap().as_f64(), Some(8.0));
        assert_eq!(v.get("pass").unwrap().as_bool(), Some(true));
        let echo = v.get("loadgen").unwrap();
        assert_eq!(echo.get("mix").unwrap().as_str(), Some("6:2:2"));
    }

    #[test]
    fn soak_report_renders_checks_and_capacity() {
        use crate::soak::{evaluate, SoakConfig};
        use ctc_obs::Scrape;
        let config = SoakConfig::new(
            FleetSpec::default(),
            "127.0.0.1:9100",
            Duration::from_secs(60),
        );
        let baseline = Scrape::parse("").unwrap();
        let fin = Scrape::parse(
            "ctc_gateway_bursts_total 8\nctc_gateway_frames_total{verdict=\"attack\"} 2\nctc_sessions_closed_total 1\n",
        )
        .unwrap();
        let outcome = evaluate(&config, report(), &baseline, None, &fin, 4);
        let target = Target::Tcp("127.0.0.1:9000".to_string());
        let line = render_soak(&config, &target, &outcome);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("mode").unwrap().as_str(), Some("soak"));
        assert_eq!(v.get("duration_s").unwrap().as_f64(), Some(60.0));
        let slo = v.get("slo").unwrap().as_array().unwrap();
        assert!(!slo.is_empty());
        let recall = slo
            .iter()
            .find(|c| c.get("name").unwrap().as_str() == Some("recall"))
            .unwrap();
        assert_eq!(recall.get("value").unwrap().as_f64(), Some(1.0));
        assert_eq!(recall.get("pass").unwrap().as_bool(), Some(true));
        let capacity = v.get("capacity").unwrap();
        assert_eq!(capacity.get("streams").unwrap().as_f64(), Some(8.0));
        assert_eq!(
            capacity.get("sustained").unwrap().as_bool(),
            v.get("pass").unwrap().as_bool()
        );
        // Skipped checks render as null values, still parseable.
        let rss = slo
            .iter()
            .find(|c| c.get("name").unwrap().as_str() == Some("rss_growth"))
            .unwrap();
        assert_eq!(rss.get("skipped").unwrap().as_bool(), Some(true));
        assert!(rss.get("value").unwrap().as_f64().is_none());
        // No breach, no incident field.
        assert!(v.get("incident").is_none());
    }

    #[test]
    fn soak_report_embeds_the_incident_path_on_breach() {
        use crate::soak::{evaluate, SoakConfig};
        use ctc_obs::Scrape;
        let config = SoakConfig::new(
            FleetSpec::default(),
            "127.0.0.1:9100",
            Duration::from_secs(60),
        );
        // No attack verdicts at all: recall 0 < 0.99 breaches.
        let fin =
            Scrape::parse("ctc_gateway_bursts_total 8\nctc_sessions_closed_total 1\n").unwrap();
        let mut outcome = evaluate(
            &config,
            report(),
            &Scrape::parse("").unwrap(),
            None,
            &fin,
            4,
        );
        assert!(!outcome.pass);
        outcome.incident = Some("/tmp/incident.json".to_string());
        let target = Target::Tcp("127.0.0.1:9000".to_string());
        let v = json::parse(&render_soak(&config, &target, &outcome)).unwrap();
        assert_eq!(v.get("pass").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("incident").unwrap().as_str(),
            Some("/tmp/incident.json")
        );
    }
}
