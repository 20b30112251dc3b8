//! The ground-truth oracle: matches every gateway event line to the
//! generated burst it reports on and checks the verdict.
//!
//! A generated burst is handled correctly when exactly one `frame` event
//! overlaps it and that event carries the right outcome:
//! - authentic: the payload, `"verdict":"authentic"`, no accepted forgery;
//! - forged: the payload, `"verdict":"attack"`, `accepted_forgery: true`;
//! - noise: no payload and no accepted forgery.
//!
//! Everything else is an error: a missing event, a dropped burst, a
//! duplicate, a wrong verdict, and an event that overlaps no generated
//! burst at all.

use crate::gen::Truth;
use ctc_gateway::json::{self, JsonValue};
use ctc_loadgen::EventKind;

/// One `frame` or `dropped` event line, parsed.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Index of the line in the event log.
    pub line: usize,
    /// Index of the stream the event belongs to.
    pub stream: usize,
    /// The gateway's burst bounds (absolute stream samples).
    pub burst_start: u64,
    pub burst_end: u64,
    /// True for a burst shed by the drop budget.
    pub dropped: bool,
    pub payload_hex: Option<String>,
    pub verdict: Option<String>,
    pub accepted_forgery: bool,
    /// JSONL `latency.queue_us` and `latency.total_us`.
    pub queue_us: u64,
    pub total_us: u64,
}

/// A frame event matched to the burst it correctly reports.
#[derive(Debug, Clone, Copy)]
pub struct Hit {
    /// Index into the parsed frames.
    pub frame: usize,
    pub stream: usize,
    /// Index into that stream's truths.
    pub truth: usize,
}

/// The oracle's verdict over one run.
#[derive(Debug, Clone, Default)]
pub struct Score {
    /// Generated bursts.
    pub attempted: u64,
    /// Bursts without exactly one correct event, plus stray events.
    pub errors: u64,
    /// Events that overlap no generated burst (counted in `errors`).
    pub stray: u64,
    /// Errors by generated kind: authentic, forged, noise.
    pub missed: [u64; 3],
    /// A matched event with the wrong outcome, for the report.
    pub first_wrong: Option<usize>,
    /// Correctly handled bursts.
    pub hits: Vec<Hit>,
}

impl Score {
    /// Errors per generated burst.
    pub fn error_ratio(&self) -> f64 {
        self.errors as f64 / self.attempted.max(1) as f64
    }
}

/// Parses the event log. `labels[i]` is stream `i`'s label.
pub fn parse_frames(lines: &[&str], labels: &[String]) -> Result<Vec<Frame>, String> {
    let mut frames = Vec::new();
    for (i, text) in lines.iter().enumerate() {
        let v = json::parse(text).map_err(|e| format!("event line {i}: {e}"))?;
        let kind = v.get("type").and_then(JsonValue::as_str).unwrap_or("");
        let dropped = match kind {
            "frame" => false,
            "dropped" => true,
            "session" => continue,
            other => return Err(format!("event line {i}: unexpected type {other:?}")),
        };
        let label = v
            .get("stream")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event line {i}: no stream label"))?;
        let stream = labels
            .iter()
            .position(|l| l == label)
            .ok_or_else(|| format!("event line {i}: unknown stream {label:?}"))?;
        let uint = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .map(|x| x as u64)
                .ok_or_else(|| format!("event line {i}: missing {key}"))
        };
        let latency = |key: &str| {
            v.get("latency")
                .and_then(|l| l.get(key))
                .and_then(JsonValue::as_f64)
                .map_or(0, |x| x as u64)
        };
        let text_field = |key: &str| v.get(key).and_then(JsonValue::as_str).map(str::to_string);
        frames.push(Frame {
            line: i,
            stream,
            burst_start: uint("burst_start")?,
            burst_end: uint("burst_end")?,
            dropped,
            payload_hex: text_field("payload_hex"),
            verdict: text_field("verdict"),
            accepted_forgery: v
                .get("accepted_forgery")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            queue_us: latency("queue_us"),
            total_us: latency("total_us"),
        });
    }
    Ok(frames)
}

/// True when `frame` reports a `kind` burst correctly.
fn verdict_ok(frame: &Frame, kind: EventKind, payload_hex: &str) -> bool {
    if frame.dropped {
        return false;
    }
    let payload = frame.payload_hex.as_deref() == Some(payload_hex);
    let verdict = frame.verdict.as_deref();
    match kind {
        EventKind::Authentic => payload && verdict == Some("authentic") && !frame.accepted_forgery,
        EventKind::Forged => payload && verdict == Some("attack") && frame.accepted_forgery,
        EventKind::Noise => frame.payload_hex.is_none() && !frame.accepted_forgery,
    }
}

/// Scores `frames` against each stream's truths (`truths[i]` sorted by
/// start, as the generator records them).
pub fn score(frames: &[Frame], truths: &[&[Truth]], payload_hex: &str) -> Score {
    let mut seen: Vec<Vec<(u32, Option<usize>)>> =
        truths.iter().map(|t| vec![(0, None); t.len()]).collect();
    let mut stray = 0u64;
    let mut first_wrong = None;
    for (f, frame) in frames.iter().enumerate() {
        let Some(stream_truths) = truths.get(frame.stream) else {
            stray += 1;
            continue;
        };
        // First burst ending after the event starts; it must also start
        // before the event ends (gaps are far wider than the gate's lag).
        let t = stream_truths.partition_point(|t| t.end <= frame.burst_start);
        match stream_truths.get(t) {
            Some(truth) if truth.start < frame.burst_end => {
                let slot = &mut seen[frame.stream][t];
                slot.0 += 1;
                if verdict_ok(frame, truth.kind, payload_hex) {
                    slot.1 = Some(f);
                } else {
                    first_wrong.get_or_insert(f);
                }
            }
            _ => stray += 1,
        }
    }
    let mut score = Score {
        attempted: truths.iter().map(|t| t.len() as u64).sum(),
        stray,
        errors: stray,
        missed: [0; 3],
        first_wrong,
        hits: Vec::new(),
    };
    for (stream, slots) in seen.iter().enumerate() {
        for (truth, &(count, ok)) in slots.iter().enumerate() {
            match (count, ok) {
                (1, Some(frame)) => score.hits.push(Hit {
                    frame,
                    stream,
                    truth,
                }),
                _ => {
                    score.errors += 1;
                    score.missed[kind_index(truths[stream][truth].kind)] += 1;
                }
            }
        }
    }
    score
}

fn kind_index(kind: EventKind) -> usize {
    match kind {
        EventKind::Authentic => 0,
        EventKind::Forged => 1,
        EventKind::Noise => 2,
    }
}

/// Parses and scores a whole event log.
pub fn evaluate(
    lines: &[&str],
    labels: &[String],
    truths: &[&[Truth]],
    payload_hex: &str,
) -> Result<(Vec<Frame>, Score), String> {
    let frames = parse_frames(lines, labels)?;
    let score = score(&frames, truths, payload_hex);
    Ok((frames, score))
}

/// The oracle must notice a removed and a flipped verdict line: both
/// mutations of a clean log have to score at least one error.
pub fn self_test(
    lines: &[&str],
    labels: &[String],
    truths: &[&[Truth]],
    payload_hex: &str,
) -> Result<(), String> {
    let errors =
        |lines: &[&str]| evaluate(lines, labels, truths, payload_hex).map(|(_, s)| s.errors);
    let victim = lines
        .iter()
        .position(|l| l.contains("\"payload_hex\":\"") && l.contains("\"verdict\":\"a"))
        .ok_or("self-test: no decoded frame line to mutate")?;

    let mut removed: Vec<&str> = lines.to_vec();
    removed.remove(victim);
    if errors(&removed)? == 0 {
        return Err(format!(
            "self-test: removing event line {victim} went unnoticed"
        ));
    }

    let original = lines[victim];
    let flipped = if original.contains("\"verdict\":\"authentic\"") {
        original.replacen("\"verdict\":\"authentic\"", "\"verdict\":\"attack\"", 1)
    } else {
        original.replacen("\"verdict\":\"attack\"", "\"verdict\":\"authentic\"", 1)
    };
    let mut mutated: Vec<&str> = lines.to_vec();
    mutated[victim] = &flipped;
    if errors(&mutated)? == 0 {
        return Err(format!(
            "self-test: flipping event line {victim} went unnoticed"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAYLOAD: &str = "666c656574";

    fn line(start: u64, end: u64, verdict: &str, accepted: bool) -> String {
        format!(
            "{{\"type\":\"frame\",\"stream\":\"s1\",\"seq\":0,\"burst_start\":{start},\"burst_end\":{end},\
             \"truncated\":false,\"payload_hex\":\"{PAYLOAD}\",\"de2\":0.1,\
             \"verdict\":\"{verdict}\",\"accepted_forgery\":{accepted},\
             \"latency\":{{\"queue_us\":1,\"decode_us\":2,\"classify_us\":3,\"total_us\":6}}}}"
        )
    }

    fn labels() -> Vec<String> {
        vec!["s1".to_string()]
    }

    fn truths() -> Vec<Truth> {
        vec![
            Truth {
                start: 100,
                end: 200,
                kind: EventKind::Authentic,
            },
            Truth {
                start: 5000,
                end: 5100,
                kind: EventKind::Forged,
            },
            Truth {
                start: 9000,
                end: 9100,
                kind: EventKind::Noise,
            },
        ]
    }

    fn clean() -> Vec<String> {
        vec![
            line(98, 210, "authentic", false),
            line(4998, 5110, "attack", true),
            "{\"type\":\"frame\",\"stream\":\"s1\",\"seq\":2,\"burst_start\":8999,\"burst_end\":9110,\
             \"truncated\":false,\"payload_hex\":null,\"de2\":null,\"verdict\":null,\
             \"accepted_forgery\":false,\"latency\":{\"queue_us\":1,\"total_us\":2}}"
                .to_string(),
        ]
    }

    fn errors(lines: &[String]) -> u64 {
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        let t = truths();
        evaluate(&lines, &labels(), &[&t], PAYLOAD)
            .unwrap()
            .1
            .errors
    }

    #[test]
    fn a_clean_log_scores_zero() {
        assert_eq!(errors(&clean()), 0);
    }

    #[test]
    fn removed_flipped_duplicated_and_stray_lines_are_errors() {
        let mut removed = clean();
        removed.remove(1);
        assert_eq!(errors(&removed), 1);

        let mut flipped = clean();
        flipped[0] = line(98, 210, "attack", false);
        assert_eq!(errors(&flipped), 1);

        let mut duplicated = clean();
        duplicated.push(line(99, 205, "authentic", false));
        assert_eq!(errors(&duplicated), 1);

        let mut stray = clean();
        stray.push(line(20_000, 20_100, "authentic", false));
        assert_eq!(errors(&stray), 1);
    }

    #[test]
    fn self_test_passes_on_a_clean_log() {
        let lines = clean();
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        let t = truths();
        self_test(&lines, &labels(), &[&t], PAYLOAD).unwrap();
    }
}
