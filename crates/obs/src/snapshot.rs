//! The incident-snapshot format: one self-contained JSON document
//! describing what the system was doing when a trigger fired.
//!
//! A snapshot bundles everything an operator needs to answer "why did
//! the detector fire (or miss)?" after the fact, without shell access
//! to the box that produced it:
//!
//! - the last N [`flight`](crate::flight) journal events, ending at the
//!   triggering event (verdicts carry their per-feature scores inline),
//! - a per-stage latency breakdown computed from the journaled stage
//!   events,
//! - a full registry snapshot (every sample of the Prometheus
//!   exposition, as typed JSON) plus a delta against the run's
//!   baseline scrape, isolating what moved,
//! - caller-provided raw sections (session table, effective config).
//!
//! [`registry_json`] is the single serializer for exposition samples:
//! incident snapshots, loadgen breach reports, and `ctc obs dump
//! --json` all emit the same shape.

use crate::flight::{EventKind, FlightEvent, FlightRecorder};
use crate::json::{array, JsonObject};
use crate::scrape::{Scrape, ScrapeSample};
use crate::trace::SpanStage;
use std::collections::BTreeMap;

/// Adds one sample's labels as string fields.
fn label_fields(o: JsonObject, labels: &[(String, String)]) -> JsonObject {
    labels.iter().fold(o, |o, (k, v)| o.string(k, v))
}

/// Serializes every sample of a scrape as a JSON array — the registry
/// section of incident snapshots, and the body of `ctc obs dump --json`.
pub fn registry_json(scrape: &Scrape) -> String {
    array(scrape.samples().iter().map(|s| {
        JsonObject::new()
            .string("name", &s.name)
            .object("labels", |o| label_fields(o, &s.labels))
            .float("value", s.value)
            .finish()
    }))
}

/// A stable identity for one sample: name plus sorted label pairs.
fn sample_key(s: &ScrapeSample) -> String {
    let mut labels: Vec<(&str, &str)> = s
        .labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    labels.sort_unstable();
    let mut key = s.name.clone();
    for (k, v) in labels {
        key.push('\u{1}');
        key.push_str(k);
        key.push('\u{2}');
        key.push_str(v);
    }
    key
}

/// Serializes the samples that *changed* between two scrapes of the
/// same registry, as `{"name","labels","before","after","delta"}`
/// objects. Samples absent from the baseline report `"before": 0`.
pub fn registry_delta_json(baseline: &Scrape, now: &Scrape) -> String {
    let base: BTreeMap<String, f64> = baseline
        .samples()
        .iter()
        .map(|s| (sample_key(s), s.value))
        .collect();
    array(now.samples().iter().filter_map(|s| {
        let before = base.get(&sample_key(s)).copied().unwrap_or(0.0);
        let same = s.value == before || (s.value.is_nan() && before.is_nan());
        (!same).then(|| {
            JsonObject::new()
                .string("name", &s.name)
                .object("labels", |o| label_fields(o, &s.labels))
                .float("before", before)
                .float("after", s.value)
                .float("delta", s.value - before)
                .finish()
        })
    }))
}

/// Serializes one journal event with kind-specific field names (stage
/// ids become names, verdict flag bits become booleans, per-feature
/// scores are keyed by `feature_names` where available).
pub fn event_json(ev: &FlightEvent, feature_names: &[&str]) -> String {
    let o = JsonObject::new()
        .uint("t_us", ev.t_us)
        .string("kind", ev.kind.name())
        .uint("session", ev.session)
        .uint("seq", ev.seq);
    match ev.kind {
        EventKind::SessionOpen => o,
        EventKind::SessionClose => o.bool("error", ev.a == 1),
        EventKind::Burst => o.uint("start", ev.a).uint("samples", ev.b),
        EventKind::Stage => {
            let stage = SpanStage::from_id(ev.a).map_or("stage?", SpanStage::name);
            o.string("stage", stage).uint("dur_us", ev.b)
        }
        EventKind::Verdict => o
            .bool("decoded", ev.a & FlightEvent::VERDICT_DECODED != 0)
            .bool("attack", ev.a & FlightEvent::VERDICT_ATTACK != 0)
            .bool(
                "accepted_forgery",
                ev.a & FlightEvent::VERDICT_ACCEPTED != 0,
            )
            .float("de2", f64::from_bits(ev.b))
            .float("fused", ev.fused)
            .object("scores", |scores| {
                ev.feature_scores()
                    .iter()
                    .enumerate()
                    .fold(scores, |scores, (i, v)| match feature_names.get(i) {
                        Some(name) => scores.float(name, *v),
                        None => scores.float(&format!("f{i}"), *v),
                    })
            }),
        EventKind::Drop => o.uint("samples", ev.a).uint("queued_us", ev.b),
        EventKind::QueueDepth => o.uint("depth", ev.a),
        EventKind::SloCheck => o
            .bool("pass", ev.a == 1)
            .float("value", f64::from_bits(ev.b)),
    }
    .finish()
}

/// Adds the per-stage latency summaries computed from the journaled
/// [`EventKind::Stage`] durations in the snapshot window.
fn stage_fields(mut out: JsonObject, events: &[FlightEvent]) -> JsonObject {
    let mut per_stage: Vec<Vec<u64>> = vec![Vec::new(); SpanStage::ALL.len()];
    for ev in events {
        if ev.kind == EventKind::Stage {
            if let Some(durs) = per_stage.get_mut(ev.a as usize) {
                durs.push(ev.b);
            }
        }
    }
    for (stage, durs) in SpanStage::ALL.iter().zip(&mut per_stage) {
        if durs.is_empty() {
            continue;
        }
        durs.sort_unstable();
        // Nearest-rank percentile: the smallest duration with at least
        // q·n observations at or below it.
        let pct = |q: f64| {
            let rank = ((q * durs.len() as f64).ceil() as usize).max(1);
            durs[rank.min(durs.len()) - 1]
        };
        out = out.object(stage.name(), |o| {
            o.uint("count", durs.len() as u64)
                .uint("p50_us", pct(0.50))
                .uint("p99_us", pct(0.99))
                .uint("max_us", durs[durs.len() - 1])
        });
    }
    out
}

/// Builds one incident snapshot from a recorder plus whatever context
/// the caller has: verdict-score names, current exposition, baseline
/// exposition, raw JSON sections (session table, effective config).
/// [`render`](SnapshotBuilder::render) produces the final document.
pub struct SnapshotBuilder<'a> {
    recorder: &'a FlightRecorder,
    feature_names: &'a [&'a str],
    trigger: String,
    until: Option<u64>,
    max_events: usize,
    now_text: Option<String>,
    baseline_text: Option<String>,
    sections: Vec<(String, String)>,
}

impl<'a> SnapshotBuilder<'a> {
    /// Default cap on events embedded per snapshot.
    pub const DEFAULT_MAX_EVENTS: usize = 256;

    /// A snapshot of `recorder`, attributed to `trigger` (`"forgery"`,
    /// `"drop_budget"`, `"slo_breach"`, `"sigusr1"`).
    pub fn new(recorder: &'a FlightRecorder, trigger: &str) -> SnapshotBuilder<'a> {
        SnapshotBuilder {
            recorder,
            feature_names: &[],
            trigger: trigger.to_string(),
            until: None,
            max_events: SnapshotBuilder::DEFAULT_MAX_EVENTS,
            now_text: None,
            baseline_text: None,
            sections: Vec::new(),
        }
    }

    /// Ends the journal window at `ticket` (the triggering event), so
    /// the last embedded event is the trigger even while other threads
    /// keep journaling.
    pub fn until_ticket(mut self, ticket: u64) -> SnapshotBuilder<'a> {
        self.until = Some(ticket);
        self
    }

    /// Names the verdict events' per-feature scores, in score order
    /// (unnamed scores render as `f0`, `f1`, …).
    pub fn feature_names(mut self, names: &'a [&'a str]) -> SnapshotBuilder<'a> {
        self.feature_names = names;
        self
    }

    /// Caps how many journal events the snapshot embeds (the newest
    /// survive).
    pub fn max_events(mut self, n: usize) -> SnapshotBuilder<'a> {
        self.max_events = n.max(1);
        self
    }

    /// Attaches the current registry exposition text; parsed into the
    /// snapshot's `registry` section.
    pub fn exposition(mut self, text: &str) -> SnapshotBuilder<'a> {
        self.now_text = Some(text.to_string());
        self
    }

    /// Attaches the run's baseline exposition text; combined with
    /// [`exposition`](SnapshotBuilder::exposition) into the `delta`
    /// section.
    pub fn baseline(mut self, text: &str) -> SnapshotBuilder<'a> {
        self.baseline_text = Some(text.to_string());
        self
    }

    /// Adds a raw pre-rendered JSON value under `key` (session table,
    /// effective config, dump sequence…). The value is embedded
    /// verbatim — it must already be valid JSON.
    pub fn section(mut self, key: &str, raw_json: &str) -> SnapshotBuilder<'a> {
        self.sections.push((key.to_string(), raw_json.to_string()));
        self
    }

    /// Renders the snapshot document.
    pub fn render(&self) -> String {
        let mut events = self.recorder.events_until(self.until);
        if events.len() > self.max_events {
            events.drain(..events.len() - self.max_events);
        }

        let mut doc = JsonObject::new()
            .string("type", "ctc_incident")
            .uint("version", 1)
            .string("trigger", &self.trigger)
            .uint("t_us", self.recorder.now_us())
            .object("ring", |o| {
                o.uint("capacity", self.recorder.capacity() as u64)
                    .uint("recorded", self.recorder.recorded())
            })
            .raw(
                "events",
                &array(events.iter().map(|ev| event_json(ev, self.feature_names))),
            )
            .object("stages", |o| stage_fields(o, &events));
        let parsed_now = self.now_text.as_deref().map(Scrape::parse);
        let parsed_base = self.baseline_text.as_deref().map(Scrape::parse);
        if let Some(Ok(now)) = &parsed_now {
            doc = doc.raw("registry", &registry_json(now));
            if let Some(Ok(base)) = &parsed_base {
                doc = doc.raw("delta", &registry_delta_json(base, now));
            }
        }
        for (key, raw) in &self.sections {
            doc = doc.raw(key, raw);
        }
        doc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::EventKind;
    use crate::Registry;

    #[test]
    fn registry_json_carries_every_sample() {
        let r = Registry::new();
        r.counter_fn("ctc_frames_total", "", &[("verdict", "attack")], || 2);
        r.gauge_fn("ctc_depth", "", &[], || 9.0);
        let scrape = Scrape::parse(&r.render()).unwrap();
        let json = registry_json(&scrape);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(
            "{\"name\":\"ctc_frames_total\",\"labels\":{\"verdict\":\"attack\"},\"value\":2}"
        ));
        assert!(json.contains("{\"name\":\"ctc_depth\",\"labels\":{},\"value\":9}"));
    }

    #[test]
    fn non_finite_sample_values_become_null() {
        let scrape = Scrape::parse("x_score NaN\ny_score +Inf\n").unwrap();
        let json = registry_json(&scrape);
        assert!(json.contains("{\"name\":\"x_score\",\"labels\":{},\"value\":null}"));
        assert!(json.contains("{\"name\":\"y_score\",\"labels\":{},\"value\":null}"));
    }

    #[test]
    fn delta_reports_only_what_moved() {
        let base = Scrape::parse("a_total 1\nb_total 5\n").unwrap();
        let now = Scrape::parse("a_total 1\nb_total 9\nc_total 2\n").unwrap();
        let json = registry_delta_json(&base, &now);
        assert!(!json.contains("a_total"), "unchanged sample leaked: {json}");
        assert!(json
            .contains("{\"name\":\"b_total\",\"labels\":{},\"before\":5,\"after\":9,\"delta\":4}"));
        assert!(json
            .contains("{\"name\":\"c_total\",\"labels\":{},\"before\":0,\"after\":2,\"delta\":2}"));
    }

    #[test]
    fn verdict_events_render_named_scores() {
        let ev = FlightEvent::new(EventKind::Verdict, 3, 7, 42)
            .with_args(
                FlightEvent::VERDICT_DECODED
                    | FlightEvent::VERDICT_ATTACK
                    | FlightEvent::VERDICT_ACCEPTED,
                0.5f64.to_bits(),
            )
            .with_scores(0.51, [0.5, 0.6, 0.7]);
        let json = event_json(&ev, &["de2_ideal", "psd_flatness"]);
        assert!(json.contains("\"kind\":\"verdict\""));
        assert!(json.contains("\"accepted_forgery\":true"));
        assert!(json.contains("\"de2\":0.5"));
        assert!(json.contains("\"scores\":{\"de2_ideal\":0.5,\"psd_flatness\":0.6,\"f2\":0.7}"));
    }

    #[test]
    fn snapshot_bounds_at_trigger_and_summarizes_stages() {
        let rec = FlightRecorder::with_capacity(32);
        let decode = SpanStage::Decode as u64;
        rec.record(FlightEvent::new(EventKind::Stage, 1, 0, 5).with_args(decode, 40));
        rec.record(FlightEvent::new(EventKind::Stage, 1, 0, 6).with_args(decode, 60));
        let trigger = rec.record(
            FlightEvent::new(EventKind::Verdict, 1, 0, 7)
                .with_args(FlightEvent::VERDICT_ACCEPTED, 0),
        );
        rec.record(FlightEvent::new(EventKind::Burst, 1, 1, 8));

        let json = SnapshotBuilder::new(&rec, "forgery")
            .until_ticket(trigger)
            .section("dump_seq", "1")
            .render();
        assert!(json.contains("\"trigger\":\"forgery\""));
        assert!(
            !json.contains("\"kind\":\"burst\""),
            "post-trigger event leaked"
        );
        assert!(
            json.trim_end_matches('}').contains("\"kind\":\"verdict\""),
            "trigger verdict missing"
        );
        // The verdict is the LAST event in the array.
        let events_part = json.split("\"events\":[").nth(1).unwrap();
        let events_part = events_part.split("],\"stages\"").next().unwrap();
        assert!(events_part.ends_with('}'));
        assert!(events_part.rsplit('{').next().is_some());
        let last_obj = &events_part[events_part.rfind("{\"t_us\"").unwrap()..];
        assert!(last_obj.contains("\"kind\":\"verdict\""));
        assert!(json.contains("\"decode\":{\"count\":2,\"p50_us\":40,\"p99_us\":60,\"max_us\":60}"));
        assert!(json.contains("\"dump_seq\":1"));
    }

    #[test]
    fn snapshot_embeds_registry_and_delta() {
        let rec = FlightRecorder::with_capacity(8);
        let json = SnapshotBuilder::new(&rec, "sigusr1")
            .baseline("x_total 1\n")
            .exposition("x_total 4\n")
            .render();
        assert!(json.contains("\"registry\":[{\"name\":\"x_total\",\"labels\":{},\"value\":4}]"));
        assert!(json.contains(
            "\"delta\":[{\"name\":\"x_total\",\"labels\":{},\"before\":1,\"after\":4,\"delta\":3}]"
        ));
    }
}
