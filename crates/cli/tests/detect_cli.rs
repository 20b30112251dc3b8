//! `ctc detect` and `ctc monitor` end to end on frames the binary
//! generates itself: the verdict's exit status with and without `--real`,
//! the `|Ĉ40|` column (which only the line search computes), the frame
//! lines of every `--detector` mode, and the one-line errors for
//! thresholds, stats intervals and flag combinations that would otherwise
//! panic, switch the detector off or be silently ignored.

use ctc_core::defense::pipeline::MODEL_MAGIC;
use ctc_core::defense::{features_from_reception, standard_extractors};
use ctc_dsp::io::read_cf32_file;
use ctc_gateway::json::{self, JsonValue};
use ctc_zigbee::Receiver;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXIT_FORGERY: i32 = 3;

fn ctc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ctc"))
        .args(args)
        .output()
        .expect("ctc runs")
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

/// An authentic frame and its captured WiFi emulation, written by
/// `ctc generate`, `ctc emulate` and `ctc capture` into a fresh directory.
struct Frames {
    dir: PathBuf,
    authentic: PathBuf,
    forged: PathBuf,
}

impl Frames {
    fn generate(tag: &str) -> Frames {
        let dir = std::env::temp_dir().join(format!("ctc-detect-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let authentic = dir.join("authentic.cf32");
        let emulated = dir.join("emulated.cf32");
        let forged = dir.join("forged.cf32");
        let (a, e, f) = (path_str(&authentic), path_str(&emulated), path_str(&forged));
        let steps = [
            ["generate", "--payload", "hello", "--out", a],
            ["emulate", "--input", a, "--out", e],
            ["capture", "--input", e, "--out", f],
        ];
        for step in steps {
            let out = ctc(&step);
            assert!(out.status.success(), "{step:?}: {out:?}");
        }
        Frames {
            dir,
            authentic,
            forged,
        }
    }
}

impl Drop for Frames {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The value printed after `label` on `line`.
fn column<'a>(line: &'a str, label: &str) -> &'a str {
    let rest = &line[line
        .find(label)
        .unwrap_or_else(|| panic!("{label} in {line}"))
        + label.len()..];
    rest.split_whitespace().next().unwrap()
}

#[test]
fn detect_exits_on_the_verdict_and_prints_the_line_search_magnitude() {
    let frames = Frames::generate("verdict");
    for (file, expected) in [(&frames.authentic, 0), (&frames.forged, EXIT_FORGERY)] {
        let wave = read_cf32_file(file).unwrap();
        let features = features_from_reception(&Receiver::usrp().receive(&wave)).unwrap();
        for real in [false, true] {
            let mut args = vec!["detect", "--input", path_str(file), "--threshold", "0.25"];
            if real {
                args.push("--real");
            }
            let out = ctc(&args);
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert_eq!(out.status.code(), Some(expected), "{args:?}:\n{stdout}");
            let first = stdout.lines().next().unwrap();
            assert_eq!(
                column(first, "|Ĉ40| ="),
                format!("{:.4}", features.c40_magnitude),
                "{args:?}"
            );
        }
    }
}

/// `ctc monitor --input` over authentic | forged | authentic (zero-power
/// gaps between them) once per `--detector` mode: the same verdicts and
/// exit code, no scores on the paper's detector's lines, and every
/// standard feature on the ensembles' lines.
#[test]
fn monitor_classifies_with_every_detector_mode() {
    let frames = Frames::generate("monitor");
    let gap = vec![0u8; 4096 * 8];
    let authentic = std::fs::read(&frames.authentic).unwrap();
    let forged = std::fs::read(&frames.forged).unwrap();
    let parts: [&[u8]; 7] = [&gap, &authentic, &gap, &forged, &gap, &authentic, &gap];
    let stream = frames.dir.join("stream.cf32");
    std::fs::write(&stream, parts.concat()).unwrap();
    let model = frames.dir.join("detector.model");
    let train = [
        "detector",
        "train",
        "--out",
        path_str(&model),
        "--per-class",
        "8",
        "--seed",
        "7",
    ];
    let out = ctc(&train);
    assert!(out.status.success(), "{train:?}: {out:?}");
    let model_spec = format!("model:{}", path_str(&model));
    let standard: Vec<&str> = standard_extractors()
        .iter()
        .flat_map(|e| e.feature_names().iter().copied())
        .collect();
    assert_eq!(standard.len(), 16);

    for (detector, threshold, scored) in [
        ("cumulant", Some("0.25"), false),
        ("features", Some("0.25"), true),
        (model_spec.as_str(), None, true),
    ] {
        let mut args = vec!["monitor", "--input", path_str(&stream), "--stats", "0"];
        args.extend(["--detector", detector]);
        if let Some(q) = threshold {
            args.extend(["--threshold", q]);
        }
        let out = ctc(&args);
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(out.status.code(), Some(EXIT_FORGERY), "{args:?}:\n{stdout}");
        let frame_lines: Vec<JsonValue> = stdout
            .lines()
            .map(|line| json::parse(line).unwrap())
            .filter(|v| v.get("type").and_then(JsonValue::as_str) == Some("frame"))
            .collect();
        let verdicts: Vec<&str> = frame_lines
            .iter()
            .map(|f| f.get("verdict").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(verdicts, ["authentic", "attack", "authentic"], "{args:?}");
        for frame in &frame_lines {
            assert_eq!(frame.get("score").is_some(), scored, "{args:?}: {stdout}");
            let names: Vec<&str> = frame
                .get("features")
                .and_then(JsonValue::as_object)
                .unwrap_or_default()
                .iter()
                .map(|(name, _)| name.as_str())
                .collect();
            let expected: &[&str] = if scored { &standard } else { &[] };
            assert_eq!(names, expected, "{args:?}");
        }
    }
}

#[test]
fn bad_thresholds_and_stats_intervals_fail_with_one_line() {
    let frames = Frames::generate("options");
    let forged = path_str(&frames.forged);
    let model = frames.dir.join("threshold.model");
    std::fs::write(
        &model,
        format!("{MODEL_MAGIC}\nkind threshold\nfeature de2_ideal\nthreshold 0.25\nend\n"),
    )
    .unwrap();
    let model_spec = format!("model:{}", path_str(&model));
    let mut cases: Vec<Vec<&str>> = Vec::new();
    for q in ["0", "-1", "NaN", "inf", "1e999", "abc"] {
        cases.push(vec!["detect", "--input", forged, "--threshold", q]);
        cases.push(vec!["monitor", "--input", forged, "--threshold", q]);
    }
    for secs in ["inf", "NaN", "-1", "1e999"] {
        cases.push(vec!["monitor", "--input", forged, "--stats", secs]);
    }
    // A model file fixes the threshold and channel assumption: a flag
    // that would change either is refused, not dropped.
    for extra in [&["--real"][..], &["--threshold", "100"]] {
        let mut args = vec!["monitor", "--input", forged];
        args.extend(extra);
        args.extend(["--detector", model_spec.as_str()]);
        cases.push(args);
    }
    for args in cases {
        let out = ctc(&args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        let flag = args[args.len() - 2];
        assert!(
            stderr.starts_with(&format!("{flag} expects")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
