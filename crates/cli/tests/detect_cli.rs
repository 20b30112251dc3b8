//! `ctc detect` and `ctc monitor` end to end on frames the binary
//! generates itself: the verdict's exit status with and without `--real`,
//! the `|Ĉ40|` column (which only the line search computes), the frame
//! lines of every `--detector` mode, a `--queue` depth too large to
//! preallocate, a `SIGUSR1` snapshot taken while the input is still open,
//! the sink exit code (not a panic) when stdout closes early, and the
//! one-line errors for thresholds, stats intervals, sizing flags,
//! unknown flags and flag combinations that would otherwise panic, abort,
//! switch the detector off or be silently ignored.

use ctc_core::defense::pipeline::MODEL_MAGIC;
use ctc_core::defense::{features_from_reception, standard_extractors};
use ctc_dsp::io::read_cf32_file;
use ctc_gateway::json::{self, JsonValue};
use ctc_zigbee::Receiver;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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

    /// `parts` of the stream (`None`: a 4096-sample zero-power gap)
    /// concatenated as cf32 bytes.
    fn stream(&self, parts: &[Option<&Path>]) -> Vec<u8> {
        let gap = vec![0u8; 4096 * 8];
        let mut bytes = Vec::new();
        for part in parts {
            match part {
                Some(file) => bytes.extend(std::fs::read(file).unwrap()),
                None => bytes.extend_from_slice(&gap),
            }
        }
        bytes
    }

    /// authentic | forged | authentic, with gaps around each frame,
    /// written to `stream.cf32` in the frames' directory.
    fn three_frame_stream(&self) -> PathBuf {
        let (a, f) = (Some(self.authentic.as_path()), Some(self.forged.as_path()));
        let path = self.dir.join("stream.cf32");
        std::fs::write(&path, self.stream(&[None, a, None, f, None, a, None])).unwrap();
        path
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

/// Exit code of a command whose stdout fails: `ctc monitor`'s sink code.
const EXIT_SINK: i32 = 7;

/// `ctc decode`, `detect` and `listen` with a stdout whose reader is
/// already gone: each ends with one line on stderr and the sink's exit
/// code, not a panic.
#[test]
fn a_closed_stdout_exits_with_the_sink_code_not_a_panic() {
    let frames = Frames::generate("closed-stdout");
    let input = path_str(&frames.forged);
    for command in ["decode", "detect", "listen"] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_ctc"))
            .args([command, "--input", input])
            .stdout(writer)
            .output()
            .expect("ctc runs");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(EXIT_SINK), "{command}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{command}: {stderr}");
        assert!(
            stderr.starts_with("writing stdout: "),
            "{command}: {stderr}"
        );
    }
}

/// `ctc monitor --input` over authentic | forged | authentic (zero-power
/// gaps between them) once per `--detector` mode: the same verdicts and
/// exit code, no scores on the paper's detector's lines, and every
/// standard feature on the ensembles' lines.
#[test]
fn monitor_classifies_with_every_detector_mode() {
    let frames = Frames::generate("monitor");
    let stream = frames.three_frame_stream();
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

/// One NaN or infinite sample must not blind the energy gate: it used to
/// stay in the gate's window sum for good, so a stream of 20 frames in
/// Gaussian noise gave no frame events at all. The sample now counts as
/// silence, and the stream gives the clean stream's 20 events. Nor may
/// one huge finite sample flood it: a 1e8 sample (a valid f32) once left
/// a running window sum whose rounding wiped out the noise power after
/// the spike, and the gate cut 176 bursts where there are 20. Each window
/// is now summed fresh, so the spike sways only the windows that hold it.
#[test]
fn one_nonfinite_sample_does_not_blind_the_gate() {
    use ctc_channel::noise::complex_gaussian;
    use ctc_dsp::io::write_cf32;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let frames = Frames::generate("nonfinite");
    let frame = read_cf32_file(&frames.authentic).unwrap();
    let mut rng = StdRng::seed_from_u64(20);
    let mut clean = Vec::new();
    for _ in 0..20 {
        clean.extend((0..4096).map(|_| complex_gaussian(&mut rng, 1e-3)));
        clean.extend(frame.iter().map(|&v| v + complex_gaussian(&mut rng, 1e-3)));
    }
    clean.extend((0..4096).map(|_| complex_gaussian(&mut rng, 1e-3)));

    let frame_lines = |wave: &[ctc_dsp::Complex], name: &str| -> Vec<String> {
        let path = frames.dir.join(name);
        let mut bytes = Vec::new();
        write_cf32(&mut bytes, wave).unwrap();
        std::fs::write(&path, bytes).unwrap();
        let args = ["monitor", "--input", path_str(&path), "--threshold", "0.25"];
        let out = ctc(&[&args[..], &["--stats", "0"]].concat());
        assert!(out.status.success(), "{name}: {out:?}");
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .map(|line| json::parse(line).unwrap())
            .filter(|v| v.get("type").and_then(JsonValue::as_str) == Some("frame"))
            .map(|v| {
                let number = |k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap();
                let text = |k: &str| v.get(k).and_then(JsonValue::as_str).unwrap_or("-");
                format!(
                    "{}..{} {} {}",
                    number("burst_start"),
                    number("burst_end"),
                    text("payload_hex"),
                    text("verdict")
                )
            })
            .collect()
    };
    let want = frame_lines(&clean, "clean.cf32");
    assert_eq!(want.len(), 20, "clean stream: {want:?}");
    assert!(
        want.iter().all(|l| l.ends_with(" 68656c6c6f authentic")),
        "{want:?}"
    );
    for (name, value) in [
        ("nan", f64::NAN),
        ("inf", f64::INFINITY),
        ("ninf", f64::NEG_INFINITY),
        ("huge", 1e8),
    ] {
        let mut wave = clean.clone();
        wave[1000].re = value;
        let got = frame_lines(&wave, &format!("{name}.cf32"));
        assert_eq!(got, want, "one {name} sample at 1000");
    }
}

/// `--queue N` is bursts per worker and the one work queue allocates as
/// it fills, so a depth no machine could preallocate runs like the
/// default: the same frame lines (minus the wall-clock `latency`) and
/// exit code.
#[test]
fn monitor_queue_depth_allocates_as_it_fills() {
    let frames = Frames::generate("queue");
    let stream = frames.three_frame_stream();
    let run = |extra: &[&str]| {
        let mut args = vec!["monitor", "--input", path_str(&stream)];
        args.extend(["--stats", "0", "--threshold", "0.25", "--workers", "2"]);
        args.extend(extra);
        let out = ctc(&args);
        let stdout = String::from_utf8(out.stdout).unwrap();
        let lines: Vec<String> = stdout
            .lines()
            .map(|line| line.split(",\"latency\":").next().unwrap().to_string())
            .collect();
        (out.status.code(), lines)
    };
    let default = run(&[]);
    assert_eq!(default.0, Some(EXIT_FORGERY), "{default:?}");
    assert_eq!(default.1.len(), 3, "{default:?}");
    for depth in ["100000000000000", "18446744073709551615"] {
        assert_eq!(run(&["--queue", depth]), default, "--queue {depth}");
    }
}

/// `SIGUSR1` dumps a snapshot while the input is still open, with stats
/// lines off: the supervisor polls the signal whenever a snapshot path is
/// set, not only on a stats cadence. The signal goes to a child `ctc`,
/// since the latch it sets is process-wide.
#[cfg(unix)]
#[test]
fn sigusr1_dumps_while_the_input_is_open_with_stats_off() {
    let frames = Frames::generate("sigusr1");
    let snapshot = frames.dir.join("incident.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ctc"))
        .args([
            "monitor",
            "--input",
            "-",
            "--threshold",
            "0.25",
            "--stats",
            "0",
        ])
        .args(["--flight-out", path_str(&snapshot)])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("ctc runs");
    let mut stdin = child.stdin.take().unwrap();
    let authentic = Some(frames.authentic.as_path());
    stdin
        .write_all(&frames.stream(&[None, authentic, None]))
        .unwrap();
    stdin.flush().unwrap();

    // The frame line shows the run is live and its handler installed.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(line.contains("\"verdict\":\"authentic\""), "{line}");
    let kill = Command::new("kill")
        .args(["-USR1", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let deadline = Instant::now() + Duration::from_secs(10);
    while !snapshot.exists() {
        assert!(
            Instant::now() < deadline,
            "no SIGUSR1 snapshot while the input was open"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    drop(stdin);
    assert!(child.wait().unwrap().success());
    let text = std::fs::read_to_string(&snapshot).unwrap();
    assert!(text.contains("\"trigger\":\"sigusr1\""), "{text}");
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

/// A flag the command does not read fails before any work with one line
/// naming it: a typo in `--threshold` must not leave the default Q in
/// force, `--shards` (gone with the sharded queue) must not be silently
/// ignored, and neither must a flight-recorder size with no
/// `--flight-out` to run a recorder.
#[test]
fn flags_a_command_does_not_read_fail_with_one_line() {
    let frames = Frames::generate("unknown-flags");
    let forged = path_str(&frames.forged);
    let stream = frames.three_frame_stream();
    let monitor = ["monitor", "--input", path_str(&stream), "--shards", "2"];
    let flight = [
        "monitor",
        "--input",
        path_str(&stream),
        "--flight-events",
        "8",
    ];
    let detect = ["detect", "--input", forged, "--threshhold", "0.25"];
    for args in [&detect[..], &monitor[..], &flight[..]] {
        let out = ctc(args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(args[3]), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// Sizing flags past their limits fail with one line naming the value
/// instead of aborting on a preallocation no machine can make or, for a
/// chunk whose byte count wraps to zero, reading nothing and exiting 0.
#[test]
fn sizing_flags_beyond_their_limits_fail_with_one_line() {
    const EXIT_CONFIG: i32 = 10;
    let frames = Frames::generate("sizing");
    let stream = frames.three_frame_stream();
    for (flag, value, code) in [
        ("--chunk", "100000000000000", EXIT_CONFIG),
        ("--chunk", "2305843009213693952", EXIT_CONFIG),
        ("--workers", "100000", EXIT_CONFIG),
        ("--flight-capacity", "100000000000000", 1),
        ("--flight-capacity", "0", 1),
        ("--flight-events", "0", 1),
    ] {
        let args = ["monitor", "--input", path_str(&stream), flag, value];
        let out = ctc(&args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(value), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
