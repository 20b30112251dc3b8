//! The parallel Monte-Carlo trial engine.
//!
//! Every experiment in this crate is a set of independent trials (one
//! reception, one scenario run, one estimator evaluation, …) followed by a
//! single-threaded reduction that renders tables and CSVs. The engine
//! separates the two phases behind the [`Experiment`] trait and fans the
//! trial phase across a [`std::thread::scope`] pool:
//!
//! - **Determinism is independent of parallelism.** Trial `i` always runs
//!   with `StdRng::seed_from_u64(mix(base_seed, i))` (where `base_seed` mixes
//!   the runner seed with a hash of the experiment name), and outcomes are
//!   reassembled in trial order before [`Experiment::reduce`] sees them —
//!   so `--jobs 1` and `--jobs N` produce byte-identical reports.
//! - **Work is distributed in chunks.** Threads claim contiguous chunks of
//!   trial indices from a shared atomic cursor, which keeps cache locality
//!   without pre-partitioning (trials have wildly different costs across
//!   cells of a sweep).
//! - **Expensive precomputation is shared.** [`Artifacts`] memoizes
//!   waveform pairs, emulator products and other setup by key, so a sweep's
//!   threads build each one once and an `all` run reuses them across
//!   experiments.

use ctc_core::{Emulator, Error, WaveformPair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared read-only cache of expensive per-experiment precomputation.
///
/// Values are built once under the cache lock and shared as `Arc`s; a
/// builder must not recursively call back into the same [`Artifacts`]
/// (it would deadlock on the cache lock).
#[derive(Default)]
pub struct Artifacts {
    memo: Mutex<HashMap<String, Arc<dyn Any + Send + Sync>>>,
}

impl Artifacts {
    /// An empty cache.
    pub fn new() -> Self {
        Artifacts::default()
    }

    /// Returns the cached value for `key`, building it with `build` on the
    /// first call. The type `T` must match across all users of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` was previously memoized at a different type.
    pub fn memo<T, F>(&self, key: &str, build: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let mut memo = self.memo.lock().expect("artifacts lock poisoned");
        let entry = memo
            .entry(key.to_string())
            .or_insert_with(|| Arc::new(build()) as Arc<dyn Any + Send + Sync>);
        entry
            .clone()
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("artifact key {key:?} reused at a different type"))
    }

    /// Like [`Artifacts::memo`] for fallible builders. Only successes are
    /// cached; a failing builder reruns on the next call.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error.
    pub fn try_memo<T, F>(&self, key: &str, build: F) -> Result<Arc<T>, Error>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> Result<T, Error>,
    {
        let mut memo = self.memo.lock().expect("artifacts lock poisoned");
        if let Some(entry) = memo.get(key) {
            return Ok(entry
                .clone()
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("artifact key {key:?} reused at a different type")));
        }
        let value = Arc::new(build()?);
        memo.insert(key.to_string(), value.clone() as Arc<dyn Any + Send + Sync>);
        Ok(value)
    }

    /// The waveform pair for `payload` under the default attacker, built
    /// once and shared across trials and experiments.
    ///
    /// # Errors
    ///
    /// Propagates framing errors for invalid payloads.
    pub fn pair(&self, payload: &[u8]) -> Result<Arc<WaveformPair>, Error> {
        let key = format!("pair:{payload:?}");
        self.try_memo(&key, || WaveformPair::new(payload))
    }

    /// The waveform pair for `payload` under a custom attacker. `tag` must
    /// uniquely identify the emulator configuration.
    ///
    /// # Errors
    ///
    /// Propagates framing errors for invalid payloads.
    pub fn pair_with(
        &self,
        payload: &[u8],
        tag: &str,
        emulator: &Emulator,
    ) -> Result<Arc<WaveformPair>, Error> {
        let key = format!("pair:{tag}:{payload:?}");
        self.try_memo(&key, || WaveformPair::with_emulator(payload, emulator))
    }
}

/// Per-trial context handed to [`Experiment::trial`].
pub struct Ctx<'a> {
    /// The shared precomputation cache.
    pub artifacts: &'a Artifacts,
    /// Global trial index in `0..Experiment::trials()`.
    pub trial_index: u64,
}

/// The result of one trial: which sweep cell it belongs to and the measured
/// values (success flags, statistics, feature components, …).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Sweep-cell index the trial contributes to.
    pub cell: usize,
    /// Measured values; the experiment's `reduce` defines their meaning.
    pub values: Vec<f64>,
}

/// One experiment: a name, a trial count, a per-trial measurement and a
/// reduction that renders the report.
pub trait Experiment: Send + Sync {
    /// Stable identifier (used for seed derivation and progress output).
    fn name(&self) -> &str;

    /// Number of independent trials. Zero means all work happens in
    /// [`Experiment::reduce`] (deterministic one-shot experiments).
    fn trials(&self) -> u64;

    /// Runs trial `ctx.trial_index` with its derived generator.
    ///
    /// # Errors
    ///
    /// Any error aborts the run; the runner reports the error of the
    /// lowest-numbered failing trial.
    fn trial(&self, ctx: &Ctx<'_>, rng: &mut StdRng) -> Result<TrialOutcome, Error>;

    /// Reduces the ordered outcomes (trial order, independent of job
    /// count) to the final report text. Side effects (CSV files) happen
    /// here, single-threaded.
    ///
    /// # Errors
    ///
    /// Propagates rendering/IO errors.
    fn reduce(&self, artifacts: &Artifacts, outcomes: Vec<TrialOutcome>) -> Result<String, Error>;
}

/// A finished run: the rendered report plus engine measurements.
#[derive(Debug, Clone)]
pub struct Report {
    /// The experiment's name.
    pub name: String,
    /// Rendered report text (tables, summaries).
    pub text: String,
    /// Number of trials executed.
    pub trials: u64,
    /// Wall-clock duration of the trial + reduce phases.
    pub elapsed: Duration,
    /// Wall-clock duration of the trial phase alone (the rest of
    /// `elapsed` is the reduce).
    pub trials_elapsed: Duration,
    /// Worker threads used for the trial phase.
    pub jobs: usize,
}

impl Report {
    /// Trials per wall-clock second (0 when no trials ran).
    pub fn trials_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.trials as f64 / secs
        } else {
            0.0
        }
    }
}

/// Fans an experiment's trials across a scoped thread pool.
#[derive(Debug, Clone, Copy)]
pub struct TrialRunner {
    jobs: usize,
    base_seed: u64,
}

/// Default base seed for trial RNG derivation.
pub const DEFAULT_BASE_SEED: u64 = 0x1DC5_1EE6;

/// Splitmix64-style finalizer deriving the per-trial seed. A plain
/// `seed ^ i` is too weak: for nearby base seeds the xor merely permutes a
/// contiguous trial-index range onto itself, so order-independent reduces
/// would see the identical seed set.
///
/// Public so deterministic harnesses outside the engine (the golden-vector
/// corpus generator) derive per-stage seeds exactly the way trials do.
pub fn splitmix(seed: u64, i: u64) -> u64 {
    mix(seed, i)
}

fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a name, used to give each experiment its own seed stream.
fn fnv1a(name: &str) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

impl Default for TrialRunner {
    fn default() -> Self {
        TrialRunner::new(available_jobs())
    }
}

/// The machine's available parallelism (1 when unknown).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl TrialRunner {
    /// A runner using `jobs` worker threads (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        TrialRunner {
            jobs: jobs.max(1),
            base_seed: DEFAULT_BASE_SEED,
        }
    }

    /// Overrides the base seed all per-trial generators derive from.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Configured worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs the experiment: parallel trial phase, then single-threaded
    /// reduce, returning the rendered report with the time of each phase
    /// (which `experiments --obs-dump` publishes).
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-numbered failing trial, or the
    /// reduce phase's error.
    pub fn run(&self, experiment: &dyn Experiment, artifacts: &Artifacts) -> Result<Report, Error> {
        let n = experiment.trials();
        let start = Instant::now();
        let outcomes = self.fan_out(experiment, artifacts, n)?;
        let trials_elapsed = start.elapsed();
        let text = experiment.reduce(artifacts, outcomes)?;
        Ok(Report {
            name: experiment.name().to_string(),
            text,
            trials: n,
            elapsed: start.elapsed(),
            trials_elapsed,
            jobs: self.jobs,
        })
    }

    /// Executes trials `0..n` across the pool, returning outcomes in trial
    /// order.
    fn fan_out(
        &self,
        experiment: &dyn Experiment,
        artifacts: &Artifacts,
        n: u64,
    ) -> Result<Vec<TrialOutcome>, Error> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let seed = self.base_seed ^ fnv1a(experiment.name());
        let workers = self.jobs.min(n as usize);
        // Small chunks balance load across cells of unequal cost while
        // amortizing the cursor and the results lock.
        let chunk = (n / (workers as u64 * 8)).clamp(1, 256);
        let cursor = AtomicU64::new(0);
        let failed = AtomicBool::new(false);
        let slots: Mutex<Vec<Option<TrialOutcome>>> = Mutex::new(vec![None; n as usize]);
        let first_error: Mutex<Option<(u64, Error)>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(u64, TrialOutcome)> = Vec::with_capacity(chunk as usize);
                    loop {
                        let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if lo >= n || failed.load(Ordering::Relaxed) {
                            break;
                        }
                        let hi = (lo + chunk).min(n);
                        local.clear();
                        for i in lo..hi {
                            let ctx = Ctx {
                                artifacts,
                                trial_index: i,
                            };
                            let mut rng = StdRng::seed_from_u64(mix(seed, i));
                            match experiment.trial(&ctx, &mut rng) {
                                Ok(outcome) => local.push((i, outcome)),
                                Err(e) => {
                                    let mut slot = first_error.lock().expect("error lock poisoned");
                                    if slot.as_ref().map(|(j, _)| i < *j).unwrap_or(true) {
                                        *slot = Some((i, e));
                                    }
                                    failed.store(true, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                        let mut slots = slots.lock().expect("results lock poisoned");
                        for (i, outcome) in local.drain(..) {
                            slots[i as usize] = Some(outcome);
                        }
                    }
                });
            }
        });

        if let Some((_, e)) = first_error.into_inner().expect("error lock poisoned") {
            return Err(e);
        }
        let outcomes = slots
            .into_inner()
            .expect("results lock poisoned")
            .into_iter()
            .map(|slot| slot.expect("every trial ran"))
            .collect();
        Ok(outcomes)
    }
}

/// Groups ordered outcomes by cell: `result[cell]` holds each contributing
/// trial's values, in trial order.
pub fn group_by_cell(outcomes: Vec<TrialOutcome>, cells: usize) -> Vec<Vec<Vec<f64>>> {
    let mut grouped = vec![Vec::new(); cells];
    for outcome in outcomes {
        grouped[outcome.cell].push(outcome.values);
    }
    grouped
}

/// `1.0` / `0.0` for success flags in [`TrialOutcome::values`].
pub fn flag(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Fraction of trials whose `values[idx]` flag is set.
pub fn rate_of(cell: &[Vec<f64>], idx: usize) -> f64 {
    if cell.is_empty() {
        return 0.0;
    }
    cell.iter()
        .filter(|v| v.get(idx).copied().unwrap_or(0.0) > 0.5)
        .count() as f64
        / cell.len() as f64
}

/// Collects column `idx` across a cell's trials, skipping trials whose
/// values are empty (e.g. feature extraction failed).
pub fn column(cell: &[Vec<f64>], idx: usize) -> Vec<f64> {
    cell.iter()
        .filter(|v| !v.is_empty())
        .map(|v| v[idx])
        .collect()
}

/// A sweep-style Monte-Carlo experiment: `cells × per_cell` independent
/// trials, reduced cell-by-cell.
///
/// `trial_fn(ctx, cell, rng)` measures one trial of `cell`;
/// `reduce_fn(artifacts, grouped)` renders the report from
/// `grouped[cell][trial] -> values`.
pub struct MonteCarlo<T, R> {
    /// Stable experiment id.
    pub name: &'static str,
    /// Number of sweep cells.
    pub cells: usize,
    /// Trials per cell.
    pub per_cell: usize,
    /// Per-trial measurement.
    pub trial_fn: T,
    /// Cell-grouped reduction.
    pub reduce_fn: R,
}

impl<T, R> Experiment for MonteCarlo<T, R>
where
    T: Fn(&Ctx<'_>, usize, &mut StdRng) -> Result<Vec<f64>, Error> + Send + Sync,
    R: Fn(&Artifacts, Vec<Vec<Vec<f64>>>) -> Result<String, Error> + Send + Sync,
{
    fn name(&self) -> &str {
        self.name
    }

    fn trials(&self) -> u64 {
        (self.cells * self.per_cell) as u64
    }

    fn trial(&self, ctx: &Ctx<'_>, rng: &mut StdRng) -> Result<TrialOutcome, Error> {
        let cell = (ctx.trial_index as usize) / self.per_cell.max(1);
        let values = (self.trial_fn)(ctx, cell, rng)?;
        Ok(TrialOutcome { cell, values })
    }

    fn reduce(&self, artifacts: &Artifacts, outcomes: Vec<TrialOutcome>) -> Result<String, Error> {
        (self.reduce_fn)(artifacts, group_by_cell(outcomes, self.cells))
    }
}

/// A deterministic one-shot experiment: no trial phase, all work in the
/// render closure.
pub struct OneShot<R> {
    /// Stable experiment id.
    pub name: &'static str,
    /// Renders the report.
    pub render: R,
}

impl<R> Experiment for OneShot<R>
where
    R: Fn(&Artifacts) -> Result<String, Error> + Send + Sync,
{
    fn name(&self) -> &str {
        self.name
    }

    fn trials(&self) -> u64 {
        0
    }

    fn trial(&self, _ctx: &Ctx<'_>, _rng: &mut StdRng) -> Result<TrialOutcome, Error> {
        Err(Error::Other(format!(
            "one-shot experiment {} has no trials",
            self.name
        )))
    }

    fn reduce(&self, artifacts: &Artifacts, _outcomes: Vec<TrialOutcome>) -> Result<String, Error> {
        (self.render)(artifacts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Collatz;

    impl Experiment for Collatz {
        fn name(&self) -> &str {
            "collatz"
        }
        fn trials(&self) -> u64 {
            100
        }
        fn trial(&self, ctx: &Ctx<'_>, rng: &mut StdRng) -> Result<TrialOutcome, Error> {
            // Mix the derived rng into the value so the test detects any
            // change to per-trial seed derivation.
            let noise: f64 = rand::Rng::gen(rng);
            Ok(TrialOutcome {
                cell: (ctx.trial_index % 4) as usize,
                values: vec![ctx.trial_index as f64, noise],
            })
        }
        fn reduce(
            &self,
            _artifacts: &Artifacts,
            outcomes: Vec<TrialOutcome>,
        ) -> Result<String, Error> {
            let sum: f64 = outcomes.iter().map(|o| o.values[0] + o.values[1]).sum();
            Ok(format!("{sum:.12}"))
        }
    }

    #[test]
    fn outcomes_arrive_in_trial_order() {
        let artifacts = Artifacts::new();
        let runner = TrialRunner::new(4);
        let report = runner.run(&Collatz, &artifacts).unwrap();
        assert_eq!(report.trials, 100);
        assert_eq!(report.jobs, 4);
    }

    #[test]
    fn job_count_does_not_change_results() {
        let texts: Vec<String> = [1usize, 2, 7]
            .iter()
            .map(|&jobs| {
                TrialRunner::new(jobs)
                    .run(&Collatz, &Artifacts::new())
                    .unwrap()
                    .text
            })
            .collect();
        assert_eq!(texts[0], texts[1]);
        assert_eq!(texts[0], texts[2]);
    }

    #[test]
    fn base_seed_changes_results() {
        let a = TrialRunner::new(2)
            .with_base_seed(1)
            .run(&Collatz, &Artifacts::new())
            .unwrap();
        let b = TrialRunner::new(2)
            .with_base_seed(2)
            .run(&Collatz, &Artifacts::new())
            .unwrap();
        assert_ne!(a.text, b.text);
    }

    struct Failing;

    impl Experiment for Failing {
        fn name(&self) -> &str {
            "failing"
        }
        fn trials(&self) -> u64 {
            50
        }
        fn trial(&self, ctx: &Ctx<'_>, _rng: &mut StdRng) -> Result<TrialOutcome, Error> {
            if ctx.trial_index >= 20 {
                Err(Error::Other(format!("trial {} failed", ctx.trial_index)))
            } else {
                Ok(TrialOutcome {
                    cell: 0,
                    values: vec![],
                })
            }
        }
        fn reduce(&self, _: &Artifacts, _: Vec<TrialOutcome>) -> Result<String, Error> {
            Ok(String::new())
        }
    }

    #[test]
    fn lowest_failing_trial_wins() {
        let err = TrialRunner::new(4)
            .run(&Failing, &Artifacts::new())
            .unwrap_err();
        assert_eq!(err.to_string(), "trial 20 failed");
    }

    #[test]
    fn artifacts_memoize_once() {
        let artifacts = Artifacts::new();
        let mut built = 0;
        let a = artifacts.memo("k", || {
            built += 1;
            42usize
        });
        let b = artifacts.memo("k", || {
            built += 1;
            43usize
        });
        assert_eq!((*a, *b, built), (42, 42, 1));
    }

    #[test]
    fn artifacts_share_waveform_pairs() {
        let artifacts = Artifacts::new();
        let a = artifacts.pair(b"00000").unwrap();
        let b = artifacts.pair(b"00000").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(artifacts.pair(&vec![0u8; 4096]).is_err());
    }

    #[test]
    fn monte_carlo_adapter_groups_cells() {
        let exp = MonteCarlo {
            name: "mc",
            cells: 3,
            per_cell: 5,
            trial_fn: |_ctx: &Ctx<'_>, cell: usize, _rng: &mut StdRng| Ok(vec![cell as f64]),
            reduce_fn: |_a: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
                assert_eq!(grouped.len(), 3);
                for (cell, trials) in grouped.iter().enumerate() {
                    assert_eq!(trials.len(), 5);
                    assert!(trials.iter().all(|v| v[0] as usize == cell));
                }
                Ok("ok".into())
            },
        };
        let report = TrialRunner::new(3).run(&exp, &Artifacts::new()).unwrap();
        assert_eq!(report.text, "ok");
        assert_eq!(report.trials, 15);
    }

    #[test]
    fn one_shot_runs_in_reduce() {
        let exp = OneShot {
            name: "shot",
            render: |_a: &Artifacts| Ok("rendered".into()),
        };
        let report = TrialRunner::new(8).run(&exp, &Artifacts::new()).unwrap();
        assert_eq!(report.trials, 0);
        assert_eq!(report.text, "rendered");
    }

    #[test]
    fn helper_stats() {
        let cell = vec![vec![1.0, 0.5], vec![0.0, 1.5], vec![1.0, 2.5], vec![]];
        assert!((rate_of(&cell, 0) - 0.5).abs() < 1e-12);
        assert_eq!(column(&cell, 1), vec![0.5, 1.5, 2.5]);
        assert_eq!(flag(true), 1.0);
        assert_eq!(flag(false), 0.0);
    }
}
