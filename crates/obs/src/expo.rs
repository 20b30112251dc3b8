//! Prometheus text exposition format.
//!
//! Output ordering is fully deterministic: families sort by metric name and
//! children by (sorted) label set — both `BTreeMap`s in the registry — so
//! golden tests can compare rendered text byte-for-byte.

use crate::metrics::{HistogramSnapshot, HISTOGRAM_BUCKETS};
use crate::registry::{Child, Registry};
use std::fmt::Write;

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(value: &str, out: &mut String) {
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
}

/// Writes `{k="v",...}` (or nothing for an empty set); `extra` is appended
/// last, used for the histogram `le` label.
fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label(v, out);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_label(v, out);
        out.push('"');
    }
    out.push('}');
}

fn write_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    snap: &HistogramSnapshot,
) {
    let mut cumulative = 0u64;
    // Buckets 0..30 have finite upper bounds; the open-ended bucket 31
    // folds into `+Inf`.
    for (i, &c) in snap.counts.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
        cumulative += c;
        let le = HistogramSnapshot::upper_bound(i).to_string();
        let _ = write!(out, "{name}_bucket");
        write_labels(out, labels, Some(("le", &le)));
        let _ = writeln!(out, " {cumulative}");
    }
    cumulative += snap.counts[HISTOGRAM_BUCKETS - 1];
    let _ = write!(out, "{name}_bucket");
    write_labels(out, labels, Some(("le", "+Inf")));
    let _ = writeln!(out, " {cumulative}");
    let _ = write!(out, "{name}_sum");
    write_labels(out, labels, None);
    let _ = writeln!(out, " {}", snap.sum);
    let _ = write!(out, "{name}_count");
    write_labels(out, labels, None);
    let _ = writeln!(out, " {cumulative}");
}

/// Renders every family in `registry` as Prometheus text format.
pub fn render(registry: &Registry) -> String {
    let families = registry.families.lock().expect("registry poisoned");
    let mut out = String::new();
    for (name, family) in families.iter() {
        if !family.help.is_empty() {
            let _ = writeln!(out, "# HELP {name} {}", family.help.replace('\n', " "));
        }
        let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
        for (labels, child) in &family.children {
            match child {
                Child::Counter(f) => {
                    out.push_str(name);
                    write_labels(&mut out, labels, None);
                    let _ = writeln!(out, " {}", f());
                }
                Child::Gauge(f) => {
                    out.push_str(name);
                    write_labels(&mut out, labels, None);
                    let _ = writeln!(out, " {}", f());
                }
                Child::Histogram(f) => write_histogram(&mut out, name, labels, &f()),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_fn("esc_total", "e", &[("v", "a\"b\\c\nd")], || 1);
        let text = r.render();
        assert!(text.contains(r#"esc_total{v="a\"b\\c\nd"} 1"#), "{text}");
    }

    /// The satellite golden test: rendered output is byte-stable — families
    /// sorted by name, children by label set, histograms as cumulative
    /// `_bucket`/`_sum`/`_count` triples.
    #[test]
    fn exposition_golden() {
        let r = Registry::new();
        // Registered deliberately out of final order.
        r.gauge_fn(
            "ctc_queue_depth",
            "Chunks waiting in the gateway queue.",
            &[],
            || 3.0,
        );
        let frames_help = "Frames decoded, by verdict.";
        r.counter_fn(
            "ctc_gateway_frames_total",
            frames_help,
            &[("verdict", "attack")],
            || 1,
        );
        r.counter_fn(
            "ctc_gateway_frames_total",
            frames_help,
            &[("verdict", "authentic")],
            || 2,
        );
        let h = Histogram::new();
        h.record(3); // bucket 1 = [2, 4)
        h.record(100); // bucket 6 = [64, 128)
        h.record(u64::MAX); // open-ended bucket
        let snapshot = h.snapshot();
        r.histogram_fn(
            "ctc_gateway_latency_us",
            "Per-frame latency.",
            &[],
            move || snapshot,
        );

        let text = r.render();
        let expected_head = "\
# HELP ctc_gateway_frames_total Frames decoded, by verdict.
# TYPE ctc_gateway_frames_total counter
ctc_gateway_frames_total{verdict=\"attack\"} 1
ctc_gateway_frames_total{verdict=\"authentic\"} 2
# HELP ctc_gateway_latency_us Per-frame latency.
# TYPE ctc_gateway_latency_us histogram
ctc_gateway_latency_us_bucket{le=\"2\"} 0
ctc_gateway_latency_us_bucket{le=\"4\"} 1
";
        assert!(
            text.starts_with(expected_head),
            "rendered text diverged from golden:\n{text}"
        );
        // Cumulative counts carry through every finite bucket into +Inf.
        assert!(text.contains("ctc_gateway_latency_us_bucket{le=\"128\"} 2\n"));
        assert!(text.contains("ctc_gateway_latency_us_bucket{le=\"2147483648\"} 2\n"));
        assert!(text.contains("ctc_gateway_latency_us_bucket{le=\"+Inf\"} 3\n"));
        // The sum counter wraps (relaxed fetch_add semantics).
        assert!(text.contains(&format!(
            "ctc_gateway_latency_us_sum {}\n",
            3u64.wrapping_add(100).wrapping_add(u64::MAX)
        )));
        assert!(text.contains("ctc_gateway_latency_us_count 3\n"));
        // The gauge family renders after the histogram (name order).
        let gauge_at = text.find("# TYPE ctc_queue_depth gauge").unwrap();
        let hist_at = text
            .find("# TYPE ctc_gateway_latency_us histogram")
            .unwrap();
        assert!(hist_at < gauge_at);
        assert!(text.ends_with("ctc_queue_depth 3\n"));
    }

    #[test]
    fn f64_gauge_renders_shortest_round_trip() {
        let r = Registry::new();
        r.gauge_fn(
            "ctc_detector_score",
            "Latest per-feature detector score.",
            &[("feature", "de2_ideal")],
            || 0.062_5,
        );
        r.gauge_fn(
            "ctc_detector_score",
            "Latest per-feature detector score.",
            &[("feature", "fused")],
            || 1.0,
        );
        let text = r.render();
        assert!(text.contains("# TYPE ctc_detector_score gauge"), "{text}");
        assert!(
            text.contains("ctc_detector_score{feature=\"de2_ideal\"} 0.0625\n"),
            "{text}"
        );
        assert!(
            text.contains("ctc_detector_score{feature=\"fused\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn rendering_twice_is_identical() {
        let r = Registry::new();
        r.counter_fn("a_total", "a", &[("x", "1"), ("y", "2")], || 1);
        r.counter_fn("b_total", "b", &[], || 7);
        assert_eq!(r.render(), r.render());
    }
}
