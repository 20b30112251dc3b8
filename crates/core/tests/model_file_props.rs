//! The `ctc-detector-model v1` loader reads untrusted files
//! (`ctc monitor --detector model:<path>`). A model that parses must
//! hold only finite numbers: a `NaN` or infinite threshold, weight or
//! vote would switch the defense off without any error. Whatever the
//! text, the loader returns a model or a [`ModelParseError`] naming the
//! line, and never panics.

use ctc_core::defense::pipeline::{ModelParseError, MODEL_MAGIC};
use ctc_core::defense::{Classifier, DetectionPipeline};
use proptest::collection::vec;
use proptest::prelude::*;

const THRESHOLD: &str = "kind threshold\nassumption ideal\nfeature de2_ideal\nthreshold 0.25";
const LOGISTIC: &str = "kind logistic\nassumption real\nfeatures de2_ideal papr_db\n\
                        means 0.5 1\nstds 1 2\nweights 3 -1\nbias 0.1";
const STUMPS: &str = "kind stumps\nassumption ideal\nstump de2_ideal 0.25 > 1.5";

/// Non-finite spellings `str::parse::<f64>` accepts.
const NON_FINITE: [&str; 7] = ["NaN", "nan", "inf", "-inf", "+infinity", "1e999", "-1e400"];

fn model(body: &str) -> String {
    format!("{MODEL_MAGIC}\n{body}\nend\n")
}

/// Every number a classifier holds.
fn numbers(classifier: &Classifier) -> Vec<f64> {
    match classifier {
        Classifier::Threshold { threshold, .. } => vec![*threshold],
        Classifier::Logistic(m) => [&m.means, &m.stds, &m.weights]
            .into_iter()
            .flatten()
            .copied()
            .chain([m.bias])
            .collect(),
        Classifier::Stumps(e) => e
            .stumps
            .iter()
            .flat_map(|s| [s.threshold, s.alpha])
            .collect(),
    }
}

/// Replaces token `token` (the key is token 0) of the `key` line in
/// `body` with `with`; returns the model text and that line's number.
fn poison(body: &str, key: &str, token: usize, with: &str) -> (String, usize) {
    let mut at = None;
    let lines: Vec<String> = body
        .lines()
        .enumerate()
        .map(|(i, line)| {
            let mut parts: Vec<&str> = line.split_whitespace().collect();
            if parts[0] == key {
                parts[token] = with;
                at = Some(i + 2); // 1-based, after the magic line
            }
            parts.join(" ")
        })
        .collect();
    (model(&lines.join("\n")), at.expect("key present"))
}

#[test]
fn templates_load() {
    for body in [THRESHOLD, LOGISTIC, STUMPS] {
        let pipeline = DetectionPipeline::from_model_str(&model(body)).unwrap();
        assert!(numbers(pipeline.classifier()).iter().all(|v| v.is_finite()));
    }
}

/// One case per numeric key: (template, key, token index).
#[test]
fn every_numeric_key_rejects_non_finite_values() {
    let cases = [
        (THRESHOLD, "threshold", 1),
        (LOGISTIC, "means", 2),
        (LOGISTIC, "stds", 1),
        (LOGISTIC, "weights", 2),
        (LOGISTIC, "bias", 1),
        (STUMPS, "stump", 2), // stump threshold
        (STUMPS, "stump", 4), // stump alpha
    ];
    for (body, key, token) in cases {
        for bad in NON_FINITE {
            let (text, line) = poison(body, key, token, bad);
            let err: ModelParseError = DetectionPipeline::from_model_str(&text)
                .map(|p| p.classifier().clone())
                .expect_err(&format!("{key} {bad} loaded:\n{text}"));
            assert_eq!(err.line, line, "{key} {bad}: {err}");
            assert!(err.message.contains("finite"), "{key} {bad}: {err}");
        }
    }
}

/// Keys of the format, a few that are not, and the blank/comment forms.
const KEYS: [&str; 14] = [
    "kind",
    "assumption",
    "feature",
    "threshold",
    "features",
    "means",
    "stds",
    "weights",
    "bias",
    "stump",
    "end",
    "#",
    "",
    "bogus",
];

/// Values: numbers at the edges of `f64`, non-finite spellings, and the
/// words and symbols the keys expect.
const TOKENS: [&str; 24] = [
    "nan",
    "NaN",
    "inf",
    "-inf",
    "infinity",
    "-0",
    "0",
    "1",
    "0.25",
    "-3.5",
    "1e308",
    "1e309",
    "-1e400",
    "4.9e-324",
    "1e-400",
    "threshold",
    "logistic",
    "stumps",
    "ideal",
    "real",
    ">",
    "<=",
    "de2_ideal",
    "papr",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn random_models_never_panic_or_load_non_finite_numbers(
        with_magic in 0u8..8,
        with_end in 0u8..2,
        // Each line: a key index, then up to five token indices.
        lines in vec(vec(any::<u8>(), 1..7), 0..12),
    ) {
        let mut text = String::new();
        if with_magic != 0 {
            text.push_str(MODEL_MAGIC);
            text.push('\n');
        }
        for line in &lines {
            text.push_str(KEYS[line[0] as usize % KEYS.len()]);
            for t in &line[1..] {
                text.push(' ');
                text.push_str(TOKENS[*t as usize % TOKENS.len()]);
            }
            text.push('\n');
        }
        if with_end != 0 {
            text.push_str("end\n");
        }
        if let Ok(pipeline) = DetectionPipeline::from_model_str(&text) {
            let values = numbers(pipeline.classifier());
            prop_assert!(values.iter().all(|v| v.is_finite()), "{text}\n{values:?}");
            // A model that loads renders and reloads to itself.
            let again = DetectionPipeline::from_model_str(&pipeline.to_model_string()).unwrap();
            prop_assert_eq!(again.classifier(), pipeline.classifier());
        }
    }
}
