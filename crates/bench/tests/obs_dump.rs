//! `experiments --obs-dump`: the engine's stage timings reach stderr as
//! Prometheus text, one series per experiment and phase, with a repeated
//! id adding to its experiment's series.

use ctc_obs::Scrape;
use std::process::Command;

#[test]
fn obs_dump_publishes_trials_and_stage_durations() {
    let results = std::env::temp_dir().join(format!("ctc-obs-dump-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--jobs", "1", "--obs-dump", "--results"])
        .arg(&results)
        .args(["fig12", "fig12", "table1"])
        .output()
        .expect("experiments runs");
    let _ = std::fs::remove_dir_all(&results);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("ctc_bench"), "the dump belongs on stderr");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let exposition: String = stderr
        .lines()
        .filter(|line| !line.starts_with("[experiments]"))
        .map(|line| format!("{line}\n"))
        .collect();
    for family in [
        "# HELP ctc_bench_trials_total Monte-Carlo trials executed, by experiment.",
        "# TYPE ctc_bench_trials_total counter",
        "# HELP ctc_bench_stage_duration_us Wall-clock time of one engine phase, in microseconds.",
        "# TYPE ctc_bench_stage_duration_us histogram",
    ] {
        assert!(exposition.contains(family), "{family} in\n{exposition}");
    }

    let scrape = Scrape::parse(&exposition).expect("the dump is valid exposition");
    let trials = |id| scrape.value("ctc_bench_trials_total", &[("experiment", id)]);
    assert_eq!(trials("fig12"), Some(144.0), "two quick runs of 72 trials");
    assert_eq!(trials("table1"), Some(0.0));
    for (id, runs) in [("fig12", 2), ("table1", 1)] {
        for stage in ["trials", "reduce"] {
            let labels = [("experiment", id), ("stage", stage)];
            let h = scrape
                .histogram("ctc_bench_stage_duration_us", &labels)
                .unwrap_or_else(|| panic!("{labels:?} in\n{exposition}"));
            assert_eq!(h.count(), runs, "{labels:?}");
        }
    }
}
