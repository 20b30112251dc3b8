//! `ctc detect` end to end on frames the binary generates itself: the
//! verdict's exit status with and without `--real`, the `|Ĉ40|` column
//! (which only the line search computes), and the one-line errors for
//! thresholds and stats intervals that would otherwise panic or switch the
//! detector off.

use ctc_core::defense::features_from_reception;
use ctc_dsp::io::read_cf32_file;
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

#[test]
fn bad_thresholds_and_stats_intervals_fail_with_one_line() {
    let frames = Frames::generate("options");
    let forged = path_str(&frames.forged);
    let mut cases: Vec<Vec<&str>> = Vec::new();
    for q in ["0", "-1", "NaN", "inf", "1e999", "abc"] {
        cases.push(vec!["detect", "--input", forged, "--threshold", q]);
        cases.push(vec!["monitor", "--input", forged, "--threshold", q]);
    }
    for secs in ["inf", "NaN", "-1", "1e999"] {
        cases.push(vec!["monitor", "--input", forged, "--stats", secs]);
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
