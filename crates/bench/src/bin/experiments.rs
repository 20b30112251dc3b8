//! Experiment harness regenerating every table and figure of the paper.
//!
//! ```text
//! experiments [--results <dir>] [--quick] [--jobs N] [--seed S]
//!             [--obs-dump] <id>...
//! ids: table1 table2 table3 table4 table5 phy fig5 fig6 fig7 fig8 fig9
//!      fig10 fig11 fig12 fig14 roc ablation-subcarriers ablation-alpha
//!      bitchain cfo gap arms-race spectral coexistence fullframe
//!      channels detectors replay lowsnr hardware alignment scenario
//!      timefreq all
//! ```
//!
//! `--quick` shrinks trial counts ~20x for smoke runs; defaults match the
//! paper's counts where feasible. `--jobs N` sets the worker-thread count
//! (default: available parallelism); results are byte-identical for any
//! value. Reports go to stdout; timing goes to stderr so redirected output
//! is reproducible. `--obs-dump` prints the engine's stage-timing metrics
//! (Prometheus text, published by collectors over each experiment's
//! [`Report`]) to stderr after the run.

use ctc_bench::engine::{available_jobs, Artifacts, Report, TrialRunner, DEFAULT_BASE_SEED};
use ctc_bench::experiments::{build, ALL};
use ctc_obs::{Histogram, Registry};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

struct Config {
    results: PathBuf,
    quick: bool,
    jobs: usize,
    seed: u64,
    obs_dump: bool,
}

fn parse_args() -> Result<(Config, Vec<String>), String> {
    let mut cfg = Config {
        results: PathBuf::from("results"),
        quick: false,
        jobs: available_jobs(),
        seed: DEFAULT_BASE_SEED,
        obs_dump: false,
    };
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--results" => {
                cfg.results = args
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--results needs a directory argument")?;
            }
            "--jobs" => {
                cfg.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or("--jobs needs a positive integer")?;
            }
            "--seed" => {
                cfg.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an unsigned integer")?;
            }
            "--quick" => cfg.quick = true,
            "--obs-dump" => cfg.obs_dump = true,
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--results <dir>] [--quick] [--jobs N] [--seed S] [--obs-dump] <id>...\nids: {} all",
                    ALL.join(" ")
                );
                std::process::exit(0);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag: {other}"));
            }
            other => ids.push(other.to_string()),
        }
    }
    Ok((cfg, ids))
}

/// The engine's stage timings as collectors over the finished reports:
/// `ctc_bench_trials_total{experiment}` counts trials and
/// `ctc_bench_stage_duration_us{experiment, stage="trials"|"reduce"}`
/// holds one observation per run of each phase, so a repeated id adds to
/// its experiment's series.
fn stage_registry(reports: &[Report]) -> Registry {
    let mut by_name: BTreeMap<&str, (u64, Histogram, Histogram)> = BTreeMap::new();
    for r in reports {
        let (trials, phase, reduce) = by_name.entry(&r.name).or_default();
        *trials += r.trials;
        phase.record(r.trials_elapsed.as_micros() as u64);
        reduce.record((r.elapsed - r.trials_elapsed).as_micros() as u64);
    }
    let registry = Registry::new();
    let stage_help = "Wall-clock time of one engine phase, in microseconds.";
    for (name, (trials, phase, reduce)) in by_name {
        registry.counter_fn(
            "ctc_bench_trials_total",
            "Monte-Carlo trials executed, by experiment.",
            &[("experiment", name)],
            move || trials,
        );
        for (stage, h) in [("trials", phase), ("reduce", reduce)] {
            registry.histogram_fn(
                "ctc_bench_stage_duration_us",
                stage_help,
                &[("experiment", name), ("stage", stage)],
                move || h.snapshot(),
            );
        }
    }
    registry
}

fn main() -> ExitCode {
    let (cfg, mut ids) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if ids.is_empty() {
        eprintln!("no experiment ids given; try `experiments all` or --help");
        return ExitCode::FAILURE;
    }
    if ids.iter().any(|i| i == "all") {
        ids = ALL.iter().map(|s| s.to_string()).collect();
    }

    // One shared artifact cache: the waveform pair, emulator outputs and
    // expected-symbol tables are built once and reused by every experiment.
    let artifacts = Artifacts::new();
    let runner = TrialRunner::new(cfg.jobs).with_base_seed(cfg.seed);
    eprintln!(
        "[experiments] {} experiment(s), {} worker thread(s), base seed {:#x}",
        ids.len(),
        runner.jobs(),
        cfg.seed,
    );
    let total = std::time::Instant::now();
    let mut reports = Vec::new();
    for id in &ids {
        let Some(exp) = build(id, &cfg.results, cfg.quick) else {
            eprintln!("error: unknown experiment id: {id}");
            return ExitCode::FAILURE;
        };
        eprintln!("[experiments] running {id} ...");
        match runner.run(&*exp, &artifacts) {
            Ok(report) => {
                println!("{}", report.text);
                eprintln!(
                    "[experiments] {id}: {} trials in {:.2}s ({:.0} trials/sec, {} jobs)",
                    report.trials,
                    report.elapsed.as_secs_f64(),
                    report.trials_per_sec(),
                    report.jobs,
                );
                reports.push(report);
            }
            Err(e) => {
                eprintln!("error: {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "[experiments] total wall clock: {:.2}s",
        total.elapsed().as_secs_f64()
    );
    if cfg.obs_dump {
        // Stderr, like all timing, so stdout stays reproducible.
        eprint!("{}", stage_registry(&reports).render());
    }
    ExitCode::SUCCESS
}
