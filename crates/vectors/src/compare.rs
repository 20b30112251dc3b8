//! Tolerance-aware comparison of golden vectors against live replays,
//! reporting the *first divergence* precisely: which stage, which sample
//! (or line/field), how far off — so a failing CI run points at the
//! offending pipeline layer instead of a wall of diff.

use crate::format::{Payload, Tolerance, Vector};
use ctc_dsp::metrics::ulp_distance;
use ctc_obs::json::{parse, JsonValue};

/// Where and how a replay departed from its golden vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Stage (vector) name.
    pub stage: String,
    /// Element index: sample / scalar / byte index, or line number (0-based)
    /// for text vectors.
    pub index: usize,
    /// Human-readable location detail (`sample 1234`, `line 2 field "de2"`).
    pub location: String,
    /// The golden value at that location.
    pub expected: String,
    /// The live value at that location.
    pub got: String,
    /// Absolute difference (`f64::INFINITY` for structural mismatches).
    pub magnitude: f64,
    /// The tolerance the comparison ran under.
    pub tolerance: Tolerance,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "first divergence at stage {:?}, {}: expected {}, got {} (|Δ| = {:.3e}, tolerance {})",
            self.stage,
            self.location,
            self.expected,
            self.got,
            self.magnitude,
            self.tolerance.describe()
        )
    }
}

/// One stage's comparison summary when it stayed within tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage (vector) name.
    pub stage: String,
    /// Elements compared.
    pub elements: usize,
    /// Largest absolute per-component deviation observed.
    pub max_abs: f64,
    /// Largest per-component ULP distance observed (0 for bit-identical).
    pub max_ulps: u64,
    /// Index of the worst element (0 when everything matched exactly).
    pub worst_index: usize,
    /// The tolerance the stage is held to.
    pub tolerance: Tolerance,
}

impl std::fmt::Display for StageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<18} {:>8} elements  max |Δ| {:.3e} ({} ulps) at {}  [{}]",
            self.stage,
            self.elements,
            self.max_abs,
            self.max_ulps,
            self.worst_index,
            self.tolerance.describe()
        )
    }
}

/// Running deviation tracker shared by all payload walks.
struct Tracker {
    max_abs: f64,
    max_ulps: u64,
    worst_index: usize,
}

impl Tracker {
    fn new() -> Self {
        Tracker {
            max_abs: 0.0,
            max_ulps: 0,
            worst_index: 0,
        }
    }

    fn observe(&mut self, index: usize, expected: f64, got: f64) {
        let abs = (expected - got).abs();
        let ulps = ulp_distance(expected, got);
        if abs > self.max_abs || ulps > self.max_ulps {
            self.worst_index = index;
        }
        self.max_abs = self.max_abs.max(abs);
        self.max_ulps = self.max_ulps.max(ulps);
    }
}

fn within(tolerance: Tolerance, expected: f64, got: f64) -> bool {
    match tolerance {
        Tolerance::Exact => expected.to_bits() == got.to_bits(),
        Tolerance::Absolute(eps) => (expected - got).abs() <= eps,
        Tolerance::Ulps(max) => ulp_distance(expected, got) <= max,
    }
}

/// Compares a live replay against its golden vector.
///
/// # Errors
///
/// Returns the first [`Divergence`] outside the golden vector's tolerance;
/// structural mismatches (name, kind, element count) diverge immediately.
pub fn compare(expected: &Vector, actual: &Vector) -> Result<StageReport, Box<Divergence>> {
    let diverge = |index: usize, location: String, exp: String, got: String, magnitude: f64| {
        Box::new(Divergence {
            stage: expected.name.clone(),
            index,
            location,
            expected: exp,
            got,
            magnitude,
            tolerance: expected.tolerance,
        })
    };

    if expected.name != actual.name {
        return Err(diverge(
            0,
            "header (stage name)".into(),
            format!("{:?}", expected.name),
            format!("{:?}", actual.name),
            f64::INFINITY,
        ));
    }
    if expected.payload.kind() != actual.payload.kind() {
        return Err(diverge(
            0,
            "header (payload kind)".into(),
            expected.payload.kind().name().into(),
            actual.payload.kind().name().into(),
            f64::INFINITY,
        ));
    }

    let tol = expected.tolerance;
    let mut tracker = Tracker::new();
    match (&expected.payload, &actual.payload) {
        (Payload::Samples(exp), Payload::Samples(got)) => {
            check_len(expected, exp.len(), got.len(), "samples")?;
            for (i, (e, g)) in exp.iter().zip(got).enumerate() {
                tracker.observe(i, e.re, g.re);
                tracker.observe(i, e.im, g.im);
                if !within(tol, e.re, g.re) || !within(tol, e.im, g.im) {
                    let mag = (e.re - g.re).abs().max((e.im - g.im).abs());
                    return Err(diverge(
                        i,
                        format!("sample {i}"),
                        format!("{e:?}"),
                        format!("{g:?}"),
                        mag,
                    ));
                }
            }
        }
        (Payload::Scalars(exp), Payload::Scalars(got)) => {
            check_len(expected, exp.len(), got.len(), "scalars")?;
            for (i, (&e, &g)) in exp.iter().zip(got).enumerate() {
                tracker.observe(i, e, g);
                if !within(tol, e, g) {
                    return Err(diverge(
                        i,
                        format!("scalar {i}"),
                        format!("{e}"),
                        format!("{g}"),
                        (e - g).abs(),
                    ));
                }
            }
        }
        (Payload::Bytes(exp), Payload::Bytes(got)) => {
            // Digital data never gets a float band: bytes are bit-exact by
            // construction, whatever the declared tolerance says.
            check_len(expected, exp.len(), got.len(), "bytes")?;
            for (i, (&e, &g)) in exp.iter().zip(got).enumerate() {
                if e != g {
                    return Err(diverge(
                        i,
                        format!("byte {i}"),
                        format!("0x{e:02x}"),
                        format!("0x{g:02x}"),
                        f64::from(e.abs_diff(g)),
                    ));
                }
            }
        }
        (Payload::Text(exp), Payload::Text(got)) => {
            compare_text(expected, exp, got, &mut tracker)?;
        }
        _ => unreachable!("kind equality checked above"),
    }

    Ok(StageReport {
        stage: expected.name.clone(),
        elements: expected.payload.len(),
        max_abs: tracker.max_abs,
        max_ulps: tracker.max_ulps,
        worst_index: tracker.worst_index,
        tolerance: tol,
    })
}

/// Full-scan variant of [`compare`] for the `diff` report: deviation
/// statistics over *every* element, not just up to the first divergence.
#[derive(Debug, Clone)]
pub struct Deviation {
    /// Deviation summary; `None` when shapes disagree (name, kind, length)
    /// so no element-wise statistics exist.
    pub report: Option<StageReport>,
    /// The first out-of-tolerance location, if any.
    pub first_divergence: Option<Box<Divergence>>,
}

/// A stage that failed its tolerance check: the first out-of-tolerance
/// location plus (when shapes agree) whole-stage deviation statistics, so
/// a failing CI log answers "how far off is the worst element" without a
/// second `diff` run.
#[derive(Debug, Clone)]
pub struct StageFailure {
    /// The first out-of-tolerance location.
    pub divergence: Divergence,
    /// Whole-stage deviation statistics; `None` when shapes disagree or
    /// the payload kind has no element-wise walk past the first mismatch.
    pub stats: Option<StageReport>,
}

impl std::fmt::Display for StageFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.divergence.fmt(f)?;
        if let Some(s) = &self.stats {
            write!(
                f,
                "; whole stage: max |Δ| {:.3e} ({} ulps) at element {} of {}",
                s.max_abs, s.max_ulps, s.worst_index, s.elements
            )?;
        }
        Ok(())
    }
}

/// Scans the whole stage and reports deviation statistics alongside the
/// first divergence (if any) — `compare` for humans reviewing a legitimate
/// regeneration, where "how close is everything else" matters as much as
/// "what failed first".
pub fn deviation(expected: &Vector, actual: &Vector) -> Deviation {
    match compare(expected, actual) {
        // compare's tracker visited every element (including the JSON
        // number fields of text payloads), so its in-tolerance report
        // already carries the full-scan statistics.
        Ok(report) => Deviation {
            report: Some(report),
            first_divergence: None,
        },
        Err(first_divergence) => Deviation {
            report: full_scan_report(expected, actual),
            first_divergence: Some(first_divergence),
        },
    }
}

/// Whole-stage deviation statistics ignoring the tolerance, for stages that
/// already failed [`compare`]. `None` when shapes disagree or the payload
/// kind (bytes, text) has no element-wise walk past the first mismatch.
pub(crate) fn full_scan_report(expected: &Vector, actual: &Vector) -> Option<StageReport> {
    let tracker = match (&expected.payload, &actual.payload) {
        (Payload::Samples(exp), Payload::Samples(got)) if exp.len() == got.len() => {
            let mut tracker = Tracker::new();
            for (i, (e, g)) in exp.iter().zip(got).enumerate() {
                tracker.observe(i, e.re, g.re);
                tracker.observe(i, e.im, g.im);
            }
            tracker
        }
        (Payload::Scalars(exp), Payload::Scalars(got)) if exp.len() == got.len() => {
            let mut tracker = Tracker::new();
            for (i, (&e, &g)) in exp.iter().zip(got).enumerate() {
                tracker.observe(i, e, g);
            }
            tracker
        }
        _ => return None,
    };
    Some(StageReport {
        stage: expected.name.clone(),
        elements: expected.payload.len(),
        max_abs: tracker.max_abs,
        max_ulps: tracker.max_ulps,
        worst_index: tracker.worst_index,
        tolerance: expected.tolerance,
    })
}

fn check_len(expected: &Vector, exp: usize, got: usize, unit: &str) -> Result<(), Box<Divergence>> {
    if exp == got {
        return Ok(());
    }
    Err(Box::new(Divergence {
        stage: expected.name.clone(),
        index: exp.min(got),
        location: format!("element count ({unit})"),
        expected: exp.to_string(),
        got: got.to_string(),
        magnitude: f64::INFINITY,
        tolerance: expected.tolerance,
    }))
}

/// Line-by-line comparison. Lines that parse as JSON on both sides are
/// compared field-wise (numbers under the vector's tolerance, everything
/// else exact, field order significant); other lines must match verbatim.
fn compare_text(
    vector: &Vector,
    exp: &str,
    got: &str,
    tracker: &mut Tracker,
) -> Result<(), Box<Divergence>> {
    let exp_lines: Vec<&str> = exp.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    if exp_lines.len() != got_lines.len() {
        return Err(Box::new(Divergence {
            stage: vector.name.clone(),
            index: exp_lines.len().min(got_lines.len()),
            location: "line count".into(),
            expected: exp_lines.len().to_string(),
            got: got_lines.len().to_string(),
            magnitude: f64::INFINITY,
            tolerance: vector.tolerance,
        }));
    }
    for (i, (e, g)) in exp_lines.iter().zip(&got_lines).enumerate() {
        match (parse(e), parse(g)) {
            (Ok(ev), Ok(gv)) => {
                if let Some((path, exp_repr, got_repr, mag)) =
                    json_divergence(&ev, &gv, vector.tolerance, tracker, i, String::new())
                {
                    return Err(Box::new(Divergence {
                        stage: vector.name.clone(),
                        index: i,
                        location: format!("line {i}{path}"),
                        expected: exp_repr,
                        got: got_repr,
                        magnitude: mag,
                        tolerance: vector.tolerance,
                    }));
                }
            }
            _ => {
                if e != g {
                    return Err(Box::new(Divergence {
                        stage: vector.name.clone(),
                        index: i,
                        location: format!("line {i} (verbatim)"),
                        expected: format!("{e:?}"),
                        got: format!("{g:?}"),
                        magnitude: f64::INFINITY,
                        tolerance: vector.tolerance,
                    }));
                }
            }
        }
    }
    Ok(())
}

/// Walks two JSON trees; `Some((path, expected, got, magnitude))` at the
/// first mismatch, recording numeric deviations into `tracker` on the way.
fn json_divergence(
    expected: &JsonValue,
    got: &JsonValue,
    tolerance: Tolerance,
    tracker: &mut Tracker,
    line: usize,
    path: String,
) -> Option<(String, String, String, f64)> {
    match (expected, got) {
        (JsonValue::Number(e), JsonValue::Number(g)) => {
            tracker.observe(line, *e, *g);
            // Numeric text fields use Absolute/Ulps as given; Exact means
            // the parsed values must be identical.
            let ok = match tolerance {
                Tolerance::Exact => e.to_bits() == g.to_bits(),
                other => within(other, *e, *g),
            };
            if ok {
                None
            } else {
                Some((path, e.to_string(), g.to_string(), (e - g).abs()))
            }
        }
        (JsonValue::Object(ef), JsonValue::Object(gf)) => {
            if ef.len() != gf.len() || ef.iter().zip(gf).any(|((ek, _), (gk, _))| ek != gk) {
                let keys = |f: &[(String, JsonValue)]| {
                    f.iter()
                        .map(|(k, _)| k.clone())
                        .collect::<Vec<_>>()
                        .join(",")
                };
                return Some((
                    format!("{path} (object keys)"),
                    keys(ef),
                    keys(gf),
                    f64::INFINITY,
                ));
            }
            for ((key, ev), (_, gv)) in ef.iter().zip(gf) {
                let sub = format!("{path} field {key:?}");
                if let Some(d) = json_divergence(ev, gv, tolerance, tracker, line, sub) {
                    return Some(d);
                }
            }
            None
        }
        (JsonValue::Array(ea), JsonValue::Array(ga)) => {
            if ea.len() != ga.len() {
                return Some((
                    format!("{path} (array length)"),
                    ea.len().to_string(),
                    ga.len().to_string(),
                    f64::INFINITY,
                ));
            }
            for (i, (ev, gv)) in ea.iter().zip(ga).enumerate() {
                let sub = format!("{path}[{i}]");
                if let Some(d) = json_divergence(ev, gv, tolerance, tracker, line, sub) {
                    return Some(d);
                }
            }
            None
        }
        (e, g) if e == g => None,
        (e, g) => Some((path, format!("{e:?}"), format!("{g:?}"), f64::INFINITY)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_dsp::Complex;

    fn samples_vector(tol: Tolerance, data: Vec<Complex>) -> Vector {
        Vector {
            name: "stage_a".into(),
            tolerance: tol,
            payload: Payload::Samples(data),
        }
    }

    #[test]
    fn identical_vectors_report_zero_deviation() {
        let v = samples_vector(
            Tolerance::Exact,
            vec![Complex::new(1.0, -2.0), Complex::new(0.5, 0.25)],
        );
        let r = compare(&v, &v.clone()).unwrap();
        assert_eq!(r.max_abs, 0.0);
        assert_eq!(r.max_ulps, 0);
        assert_eq!(r.elements, 2);
    }

    #[test]
    fn absolute_band_allows_small_drift_and_flags_large() {
        let base = samples_vector(Tolerance::Absolute(1e-9), vec![Complex::new(1.0, 1.0); 10]);
        let mut near = base.clone();
        if let Payload::Samples(s) = &mut near.payload {
            s[3].re += 5e-10;
        }
        let r = compare(&base, &near).unwrap();
        assert!(r.max_abs > 0.0 && r.max_abs <= 1e-9);
        assert_eq!(r.worst_index, 3);

        let mut far = base.clone();
        if let Payload::Samples(s) = &mut far.payload {
            s[7].im -= 1e-3;
        }
        let d = compare(&base, &far).unwrap_err();
        assert_eq!(d.stage, "stage_a");
        assert_eq!(d.index, 7);
        assert!(d.location.contains("sample 7"));
        assert!((d.magnitude - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn ulp_band_is_scale_free() {
        let tiny = 1e-12;
        let base = samples_vector(Tolerance::Ulps(4), vec![Complex::new(tiny, 1e9)]);
        let mut nudged = base.clone();
        if let Payload::Samples(s) = &mut nudged.payload {
            s[0].re = f64::from_bits(s[0].re.to_bits() + 3);
            s[0].im = f64::from_bits(s[0].im.to_bits() - 2);
        }
        let r = compare(&base, &nudged).unwrap();
        assert_eq!(r.max_ulps, 3);

        if let Payload::Samples(s) = &mut nudged.payload {
            s[0].im = f64::from_bits(s[0].im.to_bits() + 50);
        }
        assert!(compare(&base, &nudged).is_err());
    }

    #[test]
    fn byte_flip_is_always_a_divergence() {
        let base = Vector {
            name: "chips".into(),
            tolerance: Tolerance::Exact,
            payload: Payload::Bytes(vec![0, 1, 1, 0, 1]),
        };
        let mut flipped = base.clone();
        if let Payload::Bytes(b) = &mut flipped.payload {
            b[2] ^= 1;
        }
        let d = compare(&base, &flipped).unwrap_err();
        assert_eq!(d.index, 2);
        assert!(d.location.contains("byte 2"));
    }

    #[test]
    fn length_mismatch_diverges_at_shorter_length() {
        let a = samples_vector(Tolerance::Exact, vec![Complex::ONE; 5]);
        let b = samples_vector(Tolerance::Exact, vec![Complex::ONE; 3]);
        let d = compare(&a, &b).unwrap_err();
        assert_eq!(d.index, 3);
        assert!(d.location.contains("element count"));
    }

    #[test]
    fn kind_and_name_mismatches_diverge() {
        let a = samples_vector(Tolerance::Exact, vec![]);
        let mut b = a.clone();
        b.name = "other".into();
        assert!(compare(&a, &b).unwrap_err().location.contains("name"));
        let c = Vector {
            name: "stage_a".into(),
            tolerance: Tolerance::Exact,
            payload: Payload::Bytes(vec![]),
        };
        assert!(compare(&a, &c).unwrap_err().location.contains("kind"));
    }

    #[test]
    fn jsonl_numeric_fields_use_tolerance_and_name_the_field() {
        let text = |de2: f64| {
            format!("{{\"type\":\"frame\",\"seq\":0,\"de2\":{de2},\"verdict\":\"authentic\"}}\n")
        };
        let base = Vector {
            name: "gateway_events".into(),
            tolerance: Tolerance::Absolute(1e-6),
            payload: Payload::Text(text(0.123456)),
        };
        let near = Vector {
            payload: Payload::Text(text(0.12345649)),
            ..base.clone()
        };
        assert!(compare(&base, &near).is_ok());
        let far = Vector {
            payload: Payload::Text(text(0.2)),
            ..base.clone()
        };
        let d = compare(&base, &far).unwrap_err();
        assert_eq!(d.index, 0);
        assert!(d.location.contains("de2"), "{}", d.location);
        assert!((d.magnitude - 0.076543444).abs() < 1e-6);
    }

    #[test]
    fn jsonl_string_fields_are_exact() {
        let line = |verdict: &str| format!("{{\"seq\":1,\"verdict\":{verdict:?}}}\n");
        let base = Vector {
            name: "gateway_events".into(),
            tolerance: Tolerance::Absolute(1e-6),
            payload: Payload::Text(line("authentic")),
        };
        let other = Vector {
            payload: Payload::Text(line("attack")),
            ..base.clone()
        };
        let d = compare(&base, &other).unwrap_err();
        assert!(d.location.contains("verdict"));
        assert!(d.magnitude.is_infinite());
    }

    #[test]
    fn jsonl_line_count_mismatch() {
        let base = Vector {
            name: "events".into(),
            tolerance: Tolerance::Exact,
            payload: Payload::Text("{\"a\":1}\n{\"a\":2}\n".into()),
        };
        let short = Vector {
            payload: Payload::Text("{\"a\":1}\n".into()),
            ..base.clone()
        };
        let d = compare(&base, &short).unwrap_err();
        assert!(d.location.contains("line count"));
        assert_eq!(d.index, 1);
    }

    #[test]
    fn non_json_text_compares_verbatim() {
        let base = Vector {
            name: "notes".into(),
            tolerance: Tolerance::Exact,
            payload: Payload::Text("plain line\n".into()),
        };
        assert!(compare(&base, &base.clone()).is_ok());
        let other = Vector {
            payload: Payload::Text("plain lime\n".into()),
            ..base.clone()
        };
        let d = compare(&base, &other).unwrap_err();
        assert!(d.location.contains("verbatim"));
    }

    #[test]
    fn deviation_scans_past_the_first_divergence() {
        let base = samples_vector(Tolerance::Absolute(1e-9), vec![Complex::new(1.0, 1.0); 8]);
        let mut off = base.clone();
        if let Payload::Samples(s) = &mut off.payload {
            s[1].re += 1e-3; // first divergence
            s[6].im += 5e-2; // the actual worst element
        }
        let d = deviation(&base, &off);
        let first = d.first_divergence.expect("out of tolerance");
        assert_eq!(first.index, 1);
        let report = d.report.expect("same shape");
        assert_eq!(report.worst_index, 6);
        assert!((report.max_abs - 5e-2).abs() < 1e-12);

        // Shape mismatch: divergence but no statistics.
        let short = samples_vector(Tolerance::Absolute(1e-9), vec![Complex::ONE; 3]);
        let d = deviation(&base, &short);
        assert!(d.report.is_none());
        assert!(d.first_divergence.is_some());
    }

    #[test]
    fn divergence_display_names_everything() {
        let base = samples_vector(Tolerance::Absolute(1e-9), vec![Complex::ONE]);
        let mut off = base.clone();
        if let Payload::Samples(s) = &mut off.payload {
            s[0].re = 2.0;
        }
        let d = compare(&base, &off).unwrap_err();
        let text = d.to_string();
        assert!(text.contains("stage_a"), "{text}");
        assert!(text.contains("sample 0"), "{text}");
        assert!(text.contains("tolerance"), "{text}");
    }
}
