//! Client-side parsing of Prometheus text exposition — the other half of
//! [`expo`](crate::expo).
//!
//! The soak harness (`ctc loadgen --soak`) asserts SLOs against a live
//! gateway by scraping its `/metrics` endpoint at intervals; that only
//! works if scrape output can be read back as *numbers*, not grepped as
//! text. [`Scrape::parse`] turns an exposition body into typed samples,
//! and [`ScrapedHistogram`] reconstructs a histogram family
//! (`_bucket`/`_sum`/`_count`) well enough to answer quantile queries with
//! the same in-bucket interpolation the server-side
//! [`Histogram`](crate::Histogram) uses — so p99 computed from a scrape
//! agrees with p99 computed in-process.
//!
//! Counters scraped twice can be differenced ([`ScrapedHistogram::
//! delta_from`] does it for whole histograms), which is how a soak run
//! isolates its own traffic from whatever the gateway served before it.

use std::collections::BTreeSet;
use std::fmt;

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapeSample {
    /// The metric name (for histograms: the `_bucket`/`_sum`/`_count`
    /// series name as exposed).
    pub name: String,
    /// Label pairs in exposition order.
    pub labels: Vec<(String, String)>,
    /// The sample value. `+Inf`-bound bucket labels stay in `labels`;
    /// the value itself is always finite in well-formed exposition.
    pub value: f64,
}

impl ScrapeSample {
    /// The value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// True when this sample's labels, ignoring `ignore`, equal `want`
    /// exactly (order-insensitive, no extra labels either way).
    fn labels_match(&self, want: &[(&str, &str)], ignore: &str) -> bool {
        let mine: BTreeSet<(&str, &str)> = self
            .labels
            .iter()
            .filter(|(k, _)| k != ignore)
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let theirs: BTreeSet<(&str, &str)> = want.iter().copied().collect();
        mine == theirs
    }
}

/// A parse failure, pointing at the offending line.
#[derive(Debug, Clone)]
pub struct ScrapeError {
    /// 1-based line number in the exposition body.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ScrapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scrape line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ScrapeError {}

/// A parsed exposition body: every sample line, queryable by name and
/// label set.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    samples: Vec<ScrapeSample>,
}

impl Scrape {
    /// Parses a Prometheus text-format body (`# HELP`/`# TYPE` lines and
    /// blanks are skipped; every other line must be a sample). Bodies
    /// with *no* `# TYPE` metadata at all parse fine — samples carry
    /// their own shape. Non-finite values (`NaN`, `±Inf`) are legal
    /// exposition and parse to the matching [`f64`] specials.
    ///
    /// # Errors
    ///
    /// [`ScrapeError`] with the line number on the first malformed
    /// line, or on a duplicate sample (same name and label set twice —
    /// a scrape like that is ambiguous, and silently keeping either
    /// copy would corrupt SLO math downstream).
    pub fn parse(text: &str) -> Result<Scrape, ScrapeError> {
        let mut samples = Vec::new();
        let mut seen = BTreeSet::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let sample = parse_sample(line).map_err(|reason| ScrapeError {
                line: i + 1,
                reason,
            })?;
            if !seen.insert(sample_identity(&sample)) {
                return Err(ScrapeError {
                    line: i + 1,
                    reason: format!("duplicate sample {:?}", sample.name),
                });
            }
            samples.push(sample);
        }
        Ok(Scrape { samples })
    }

    /// Scrapes `addr`'s `/metrics` endpoint and parses the body.
    ///
    /// # Errors
    ///
    /// Connection/read errors from [`fetch_text`](crate::http::fetch_text)
    /// verbatim; a malformed body as [`std::io::ErrorKind::InvalidData`].
    pub fn fetch(addr: &str) -> std::io::Result<Scrape> {
        let body = crate::http::fetch_text(addr)?;
        Scrape::parse(&body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Every parsed sample, in exposition order.
    pub fn samples(&self) -> &[ScrapeSample] {
        &self.samples
    }

    /// The sample whose name and *exact* label set match (no extra labels
    /// on either side).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels_match(labels, ""))
            .map(|s| s.value)
    }

    /// All samples of one family (prefix-exact on the name).
    pub fn family<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a ScrapeSample> {
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// Distinct values of one label across a family, sorted — e.g. every
    /// `stream` label the gateway exposes.
    pub fn label_values(&self, name: &str, key: &str) -> Vec<String> {
        let set: BTreeSet<String> = self
            .family(name)
            .filter_map(|s| s.label(key).map(str::to_string))
            .collect();
        set.into_iter().collect()
    }

    /// Reassembles the histogram family `name` with the given non-`le`
    /// label set; `None` when no buckets match.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<ScrapedHistogram> {
        let bucket_name = format!("{name}_bucket");
        let mut buckets: Vec<(f64, u64)> = self
            .samples
            .iter()
            .filter(|s| s.name == bucket_name && s.labels_match(labels, "le"))
            .filter_map(|s| {
                let le = s.label("le")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, s.value as u64))
            })
            .collect();
        if buckets.is_empty() {
            return None;
        }
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le bounds are ordered"));
        let sum = self
            .value(&format!("{name}_sum"), labels)
            .unwrap_or_default();
        Some(ScrapedHistogram {
            bounds: buckets.iter().map(|&(b, _)| b).collect(),
            cumulative: buckets.iter().map(|&(_, c)| c).collect(),
            sum,
        })
    }
}

/// A histogram reconstructed from `_bucket` scrape lines: cumulative
/// counts per upper bound (the final bound is `+Inf`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedHistogram {
    /// Ascending bucket upper bounds; the last is `+Inf`.
    pub bounds: Vec<f64>,
    /// Cumulative observation counts, one per bound.
    pub cumulative: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
}

impl ScrapedHistogram {
    /// Total observations (the `+Inf` cumulative count).
    pub fn count(&self) -> u64 {
        self.cumulative.last().copied().unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`, linearly interpolated inside
    /// the selected bucket — the same estimate the server-side
    /// [`Histogram::quantile`](crate::Histogram::quantile) makes, so
    /// scraped and in-process quantiles agree. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut lower = 0.0f64;
        let mut below = 0u64;
        for (&bound, &cum) in self.bounds.iter().zip(&self.cumulative) {
            if cum >= rank {
                let in_bucket = cum - below;
                if bound.is_infinite() {
                    // No upper edge to interpolate toward: report the last
                    // finite bound, like the server side does.
                    return Some(lower);
                }
                let frac = (rank - below) as f64 / in_bucket.max(1) as f64;
                return Some(lower + frac * (bound - lower));
            }
            below = cum;
            if bound.is_finite() {
                lower = bound;
            }
        }
        Some(lower)
    }

    /// This histogram minus `baseline` (two scrapes of the same family):
    /// the observations recorded *between* the scrapes. `None` when the
    /// bucket layouts differ (not the same family).
    pub fn delta_from(&self, baseline: &ScrapedHistogram) -> Option<ScrapedHistogram> {
        if self.bounds != baseline.bounds {
            return None;
        }
        Some(ScrapedHistogram {
            bounds: self.bounds.clone(),
            cumulative: self
                .cumulative
                .iter()
                .zip(&baseline.cumulative)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            sum: self.sum - baseline.sum,
        })
    }
}

/// A sample's identity — name plus *sorted* label pairs — used to
/// reject duplicates regardless of label order.
fn sample_identity(s: &ScrapeSample) -> (String, Vec<(String, String)>) {
    let mut labels = s.labels.clone();
    labels.sort_unstable();
    (s.name.clone(), labels)
}

/// Parses one sample line: `name`, optional `{k="v",...}`, a value.
fn parse_sample(line: &str) -> Result<ScrapeSample, String> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .ok_or_else(|| format!("no value in {line:?}"))?;
    let name = &line[..name_end];
    if name.is_empty() {
        return Err(format!("empty metric name in {line:?}"));
    }
    let rest = &line[name_end..];
    let (labels, value_text) = if let Some(inner) = rest.strip_prefix('{') {
        let (labels, after) = parse_labels(inner)?;
        (labels, after)
    } else {
        (Vec::new(), rest)
    };
    let value_text = value_text.trim();
    let value = match value_text {
        "+Inf" | "Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse()
            .map_err(|_| format!("bad value {value_text:?} in {line:?}"))?,
    };
    Ok(ScrapeSample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parses `k="v",...}` (the opening brace already consumed); returns the
/// labels and the text after the closing brace.
#[allow(clippy::type_complexity)]
fn parse_labels(mut s: &str) -> Result<(Vec<(String, String)>, &str), String> {
    let mut labels = Vec::new();
    loop {
        s = s.trim_start_matches([',', ' ']);
        if let Some(rest) = s.strip_prefix('}') {
            return Ok((labels, rest));
        }
        let eq = s.find('=').ok_or("label without '='")?;
        let key = s[..eq].trim().to_string();
        s = s[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value must be quoted")?;
        let mut value = String::new();
        let mut chars = s.char_indices();
        let after = loop {
            let (i, c) = chars.next().ok_or("unterminated label value")?;
            match c {
                '"' => break &s[i + 1..],
                '\\' => {
                    let (_, esc) = chars.next().ok_or("dangling escape")?;
                    value.push(match esc {
                        'n' => '\n',
                        '\\' => '\\',
                        '"' => '"',
                        other => other,
                    });
                }
                other => value.push(other),
            }
        };
        labels.push((key, value));
        s = after;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Histogram, Registry};
    use std::sync::Arc;

    /// A registry publishing one histogram under `name`.
    fn histogram_registry(name: &str) -> (Registry, Arc<Histogram>) {
        let (r, h) = (Registry::new(), Arc::new(Histogram::new()));
        let owned = Arc::clone(&h);
        r.histogram_fn(name, "", &[], move || owned.snapshot());
        (r, h)
    }

    /// Round-trip: whatever the registry renders, the scraper reads back.
    #[test]
    fn parses_rendered_exposition() {
        let r = Registry::new();
        r.counter_fn("ctc_scrape_test_total", "help text", &[], || 41);
        r.counter_fn(
            "ctc_frames_total",
            "by verdict",
            &[("verdict", "attack")],
            || 3,
        );
        r.gauge_fn("ctc_depth", "", &[], || 9.0);
        r.counter_fn("esc_total", "", &[("v", "a\"b\\c\nd")], || 1);

        let scrape = Scrape::parse(&r.render()).unwrap();
        assert_eq!(scrape.value("ctc_scrape_test_total", &[]), Some(41.0));
        assert_eq!(
            scrape.value("ctc_frames_total", &[("verdict", "attack")]),
            Some(3.0)
        );
        // Exact-match semantics: the labelled sample is not the unlabelled one.
        assert_eq!(scrape.value("ctc_frames_total", &[]), None);
        assert_eq!(scrape.value("ctc_depth", &[]), Some(9.0));
        assert_eq!(scrape.value("esc_total", &[("v", "a\"b\\c\nd")]), Some(1.0));
        assert_eq!(scrape.value("missing", &[]), None);
    }

    #[test]
    fn label_values_enumerate_a_family() {
        let r = Registry::new();
        for s in ["s2", "s1", "s1"] {
            r.counter_fn("ctc_gateway_samples_total", "", &[("stream", s)], || 1);
        }
        r.counter_fn("ctc_gateway_samples_total", "", &[], || 5);
        let scrape = Scrape::parse(&r.render()).unwrap();
        assert_eq!(
            scrape.label_values("ctc_gateway_samples_total", "stream"),
            vec!["s1".to_string(), "s2".to_string()]
        );
    }

    /// Scraped quantiles agree with the server-side histogram's own.
    #[test]
    fn scraped_quantiles_match_in_process() {
        let (r, h) = histogram_registry("ctc_lat_us");
        for v in [9u64, 10, 12, 14, 100, 100, 3000] {
            h.record(v);
        }
        let scrape = Scrape::parse(&r.render()).unwrap();
        let sh = scrape.histogram("ctc_lat_us", &[]).unwrap();
        assert_eq!(sh.count(), 7);
        for q in [0.25, 0.5, 0.9, 0.99] {
            let in_process = h.quantile(q).unwrap() as f64;
            let scraped = sh.quantile(q).unwrap();
            assert!(
                (in_process - scraped).abs() <= 1.0,
                "q={q}: in-process {in_process} vs scraped {scraped}"
            );
        }
    }

    #[test]
    fn histogram_delta_isolates_new_observations() {
        let (r, h) = histogram_registry("ctc_lat_us");
        h.record(10);
        let before = Scrape::parse(&r.render())
            .unwrap()
            .histogram("ctc_lat_us", &[])
            .unwrap();
        h.record(100);
        h.record(100);
        let after = Scrape::parse(&r.render())
            .unwrap()
            .histogram("ctc_lat_us", &[])
            .unwrap();
        let delta = after.delta_from(&before).unwrap();
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum, 200.0);
        // Both new observations landed in [64, 128).
        assert!(delta.quantile(0.5).unwrap() <= 128.0);
        assert!(delta.quantile(0.5).unwrap() > 64.0);
    }

    #[test]
    fn empty_and_open_ended_edge_cases() {
        let empty = ScrapedHistogram {
            bounds: vec![f64::INFINITY],
            cumulative: vec![0],
            sum: 0.0,
        };
        assert_eq!(empty.quantile(0.5), None);

        let (r, h) = histogram_registry("ctc_big_us");
        h.record(u64::MAX);
        let sh = Scrape::parse(&r.render())
            .unwrap()
            .histogram("ctc_big_us", &[])
            .unwrap();
        // Everything in the open-ended bucket: quantile reports the last
        // finite bound rather than infinity.
        assert!(sh.quantile(0.99).unwrap().is_finite());
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let err = Scrape::parse("ok_total 1\nbroken{\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(Scrape::parse("name_only\n").is_err());
        assert!(Scrape::parse("x 12notanumber\n").is_err());
    }

    /// Non-finite values are legal exposition (an empty histogram's
    /// average, a score gauge before first traffic) and must parse to
    /// the matching f64 specials, not error or silently skip.
    #[test]
    fn non_finite_values_parse_to_f64_specials() {
        let scrape = Scrape::parse("a NaN\nb +Inf\nc Inf\nd -Inf\n").unwrap();
        assert!(scrape.value("a", &[]).unwrap().is_nan());
        assert_eq!(scrape.value("b", &[]), Some(f64::INFINITY));
        assert_eq!(scrape.value("c", &[]), Some(f64::INFINITY));
        assert_eq!(scrape.value("d", &[]), Some(f64::NEG_INFINITY));
        assert_eq!(scrape.samples().len(), 4, "nothing silently dropped");
    }

    /// A body with no `# TYPE` metadata at all is still a valid scrape:
    /// samples carry their own shape, comments are advisory.
    #[test]
    fn missing_type_metadata_is_tolerated() {
        let bare =
            "ctc_gateway_bursts_total 7\nctc_lat_us_bucket{le=\"+Inf\"} 7\nctc_lat_us_sum 70\n";
        let scrape = Scrape::parse(bare).unwrap();
        assert_eq!(scrape.value("ctc_gateway_bursts_total", &[]), Some(7.0));
        let h = scrape.histogram("ctc_lat_us", &[]).unwrap();
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum, 70.0);
    }

    /// The same sample twice is ambiguous — `value()` would silently
    /// pick the first — so the parser rejects it, pointing at the line.
    #[test]
    fn duplicate_samples_are_rejected_with_line_number() {
        let err = Scrape::parse("x_total 1\nx_total 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("duplicate"), "{}", err.reason);

        // Label *order* does not make two samples distinct.
        let err =
            Scrape::parse("f_total{a=\"1\",b=\"2\"} 1\nf_total{b=\"2\",a=\"1\"} 3\n").unwrap_err();
        assert_eq!(err.line, 2);

        // Different label values ARE distinct samples; so are different
        // names with equal labels.
        let ok = "f_total{s=\"a\"} 1\nf_total{s=\"b\"} 2\ng_total{s=\"a\"} 3\nf_total 4\n";
        assert_eq!(Scrape::parse(ok).unwrap().samples().len(), 4);
    }

    /// Fields the gateway actually exposes parse with labels intact.
    #[test]
    fn gateway_shaped_lines_parse() {
        let text = "\
ctc_gateway_frames_total{stream=\"s1\",verdict=\"attack\"} 2
ctc_gateway_latency_us_bucket{le=\"+Inf\"} 7
ctc_sessions_active 3
";
        let scrape = Scrape::parse(text).unwrap();
        assert_eq!(
            scrape.value(
                "ctc_gateway_frames_total",
                &[("verdict", "attack"), ("stream", "s1")]
            ),
            Some(2.0)
        );
        let s = &scrape.samples()[1];
        assert_eq!(s.label("le"), Some("+Inf"));
        assert_eq!(scrape.value("ctc_sessions_active", &[]), Some(3.0));
    }
}
