//! Gateway benchmark: one named workload through
//! `ctc_gateway::GatewayServer::run_streams`, every verdict checked
//! against the generator's ground truth.
//!
//! ```text
//! cargo run --release --offline --manifest-path gwbench/Cargo.toml -- \
//!     --workload busy-rt-features --seed 7 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` makes the same
//! untraced run, then replays a prefix of the same streams through each
//! layer's public calls and prints the per-layer metrics. Human-readable
//! lines come first; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("gwbench reads /proc and the process CPU clock of 64-bit Linux");

mod gen;
mod oracle;
mod replay;
mod run;
mod workload;

use ctc_gateway::json::{hex, JsonObject};
use ctc_loadgen::synth::PAYLOAD;
use ctc_loadgen::EventKind;
use gen::{GenStream, Pacing, Traffic, SAMPLE_BYTES, SLICE_SAMPLES};
use std::process::ExitCode;
use workload::Workload;

/// A run is invalid when the gateway or generator delivered less than
/// this share of the offered rate.
const MIN_RATE_SHARE: f64 = 0.98;

/// `setup_s` is this quantile of the run's set-up CPU times: the low
/// side, since interference from outside the process only adds time.
/// CPU time rather than wall time, because a set-up of about a
/// millisecond is mostly thread start-up and wake-ups, whose wall time
/// grows with hypervisor steal while the work done does not.
const SETUP_QUANTILE: f64 = 0.1;

/// Samples of quiet channel around the set-up warm-up frame.
const WARMUP_GAP_SAMPLES: usize = 4096;

/// Fewest verdicts a sampler window needs for its percentiles to count.
const MIN_WINDOW_EVENTS: usize = 1000;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// Linear-interpolated quantile `q` of `values` (sorted in place).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Mean of the middle half of `values` (sorted in place): the values
/// from the lower to the upper quartile.
fn interquartile_mean(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let middle = &values[n / 4..n - n / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The run context, so numbers from different machines are never
/// compared blindly.
fn context(args: &Args) -> String {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    #[cfg(target_arch = "x86_64")]
    let avx2_fma =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2_fma = false;
    let command = |program: &str, arg: &[&str]| {
        std::process::Command::new(program)
            .args(arg)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let git_sha = if std::path::Path::new(".git").exists() {
        command("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    let features = if cfg!(feature = "simd") {
        "telemetry,simd"
    } else {
        "telemetry"
    };
    let inner = JsonObject::new()
        .string("workload", w.name)
        .uint("seed", args.seed)
        .uint("seconds", args.seconds)
        .uint("workers", run::WORKERS as u64)
        .uint("streams", w.streams as u64)
        .float("offered_msps", w.offered_sps() / 1e6)
        .uint("slice_samples", SLICE_SAMPLES)
        .uint("chunk_samples", ctc_dsp::io::DEFAULT_CHUNK_SAMPLES as u64)
        .string("detector", if w.features { "features" } else { "cumulant" })
        .float("threshold", run::detector().threshold())
        .uint("nproc", nproc as u64)
        .string("cpu_model", &cpu_model)
        .bool("simd_compiled", cfg!(feature = "simd"))
        .bool("avx2_fma_detected", avx2_fma)
        .bool("avx2_fma_dispatch", cfg!(feature = "simd") && avx2_fma)
        .string("cargo_features", features)
        .string("rustc", &command("rustc", &["--version"]))
        .string("git_sha", &git_sha)
        .finish();
    JsonObject::new().raw("context", &inner).finish()
}

fn main() -> ExitCode {
    match bench() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gwbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn bench() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    println!("{}", context(&args));

    // Waveform synthesis happens before any timing.
    let traffic = Traffic::new(args.seed, w.gap_samples);
    let model = traffic.model();
    let quiet = &model.gap_bytes()[..WARMUP_GAP_SAMPLES.min(w.gap_samples) * SAMPLE_BYTES];
    let warmup = [quiet, model.burst_bytes(EventKind::Authentic), quiet].concat();

    let (server, mut setups) = run::setup(w, &warmup)?;

    let labels: Vec<String> = (1..=w.streams).map(|i| format!("s{i}")).collect();
    let mut gens: Vec<GenStream<'_>> = (0..w.streams)
        .map(|s| {
            let pacing = Pacing::Paced {
                rate_sps: w.rate_sps,
                events: traffic.events_for(s, (w.rate_sps * args.seconds as f64) as u64),
            };
            GenStream::new(&traffic, s, pacing)
        })
        .collect();
    let expected_lines = 2_000 * args.seconds as usize * w.streams;
    let measured = run::measure(&server, &traffic, &mut gens, &labels, expected_lines)?;
    // The event log is the benchmark's own memory: take it out.
    let peak_rss_mb = run::peak_rss_mb()? - measured.log_resident_bytes as f64 / (1 << 20) as f64;
    // A second batch of set-ups, a run's length after the first, so that
    // `setup_s` samples the machine at two moments.
    let after = run::setup(w, &warmup)?.1;
    setups.wall.extend(after.wall);
    setups.cpu.extend(after.cpu);

    // --- The oracle -----------------------------------------------------
    let lines = measured.log.lines()?;
    if lines.len() != measured.log.stamps.len() {
        return Err("event log: lines and newline stamps disagree".into());
    }
    let truths: Vec<&[gen::Truth]> = gens.iter().map(GenStream::truths).collect();
    let payload_hex = hex(PAYLOAD);
    let (frames, score) = oracle::evaluate(&lines, &labels, &truths, &payload_hex)?;
    let self_test = oracle::self_test(&lines, &labels, &truths, &payload_hex);

    // --- End-to-end metrics ---------------------------------------------
    let report = &measured.report;
    let samples = report.metrics.samples_in;
    let generated: u64 = gens.iter().map(GenStream::samples).sum();
    let first_read = gens
        .iter()
        .filter_map(GenStream::first_read)
        .min()
        .ok_or("no stream was read")?;
    let last_line = *measured.log.stamps.last().ok_or("no event line written")?;
    let wall = last_line
        .saturating_duration_since(first_read)
        .as_secs_f64();
    let run_msps = samples as f64 / wall / 1e6;
    let ticks = &measured.ticks;
    let run_cpu_ns = (ticks[ticks.len() - 1].cpu_s - ticks[0].cpu_s) * 1e9 / samples as f64;

    // CPU per sampler window; a partial window (under half of one, as the
    // drain after the last tick) is too short to count.
    let mut window_cpu_ns = Vec::new();
    let mut window_steal = Vec::new();
    for pair in ticks.windows(2) {
        let secs = (pair[1].at - pair[0].at).as_secs_f64();
        let n = pair[1].samples - pair[0].samples;
        if secs >= run::WINDOW.as_secs_f64() / 2.0 && n > 0 {
            window_cpu_ns.push((pair[1].cpu_s - pair[0].cpu_s) * 1e9 / n as f64);
            window_steal.push(
                pair[0]
                    .steal_share(&pair[1])
                    .map_or(f64::NAN, |s| s * 100.0),
            );
        }
    }

    let mut latency_ms = Vec::with_capacity(score.hits.len());
    let mut window_latency: Vec<Vec<f64>> = Vec::new();
    let mut ingest_wait_ms = Vec::with_capacity(score.hits.len());
    let mut queue_us = Vec::with_capacity(score.hits.len());
    for hit in &score.hits {
        let frame = &frames[hit.frame];
        let truth = truths[hit.stream][hit.truth];
        let arrival = gens[hit.stream]
            .arrival(truth.end - 1)
            .ok_or("a burst without an arrival time")?;
        let verdict = measured.log.stamps[frame.line];
        let ms = verdict.saturating_duration_since(arrival).as_secs_f64() * 1e3;
        let window = (arrival.saturating_duration_since(ticks[0].at).as_secs_f64()
            / run::WINDOW.as_secs_f64()) as usize;
        if window_latency.len() <= window {
            window_latency.resize(window + 1, Vec::new());
        }
        window_latency[window].push(ms);
        latency_ms.push(ms);
        ingest_wait_ms.push(ms - frame.total_us as f64 / 1e3);
        queue_us.push(frame.queue_us as f64);
    }
    let mut window_iqm = Vec::new();
    let mut window_p50 = Vec::new();
    let mut window_p99 = Vec::new();
    for values in &mut window_latency {
        // p99 needs at least ten samples beyond it.
        if values.len() >= MIN_WINDOW_EVENTS {
            window_iqm.push(interquartile_mean(values));
            window_p50.push(quantile(values, 0.5));
            window_p99.push(quantile(values, 0.99));
        }
    }
    let list = |values: &[f64]| {
        values
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("windows steal%: {}", list(&window_steal));
    println!("windows cpu_ns: {}", list(&window_cpu_ns));
    println!("windows iqm_ms: {}", list(&window_iqm));
    println!("windows p50_ms: {}", list(&window_p50));
    println!("windows p99_ms: {}", list(&window_p99));
    let run_iqm_ms = interquartile_mean(&mut latency_ms);
    let run_p50_ms = quantile(&mut latency_ms, 0.5);
    let run_p99_ms = quantile(&mut latency_ms, 0.99);
    // Interference from outside the process (hypervisor steal, a busy
    // sibling core) only ever adds time, so the quieter windows measure
    // the gateway: CPU is the lower quartile over windows, latencies come
    // from the quietest window.
    let quantile_or = |values: &mut Vec<f64>, q: f64, whole: f64| {
        if values.is_empty() {
            whole
        } else {
            quantile(values, q)
        }
    };
    let cpu_ns_per_sample = quantile_or(&mut window_cpu_ns, 0.25, run_cpu_ns);
    let iqm_ms = quantile_or(&mut window_iqm, 0.0, run_iqm_ms);
    let p50_ms = quantile_or(&mut window_p50, 0.0, run_p50_ms);
    let p99_ms = quantile_or(&mut window_p99, 0.0, run_p99_ms);
    let setup_s = quantile(&mut setups.cpu, SETUP_QUANTILE);
    println!(
        "set-ups: {} of them; CPU min {:.6} q10 {setup_s:.6} median {:.6} s; wall min {:.6} \
         q10 {:.6} median {:.6} s",
        setups.cpu.len(),
        quantile(&mut setups.cpu, 0.0),
        quantile(&mut setups.cpu, 0.5),
        quantile(&mut setups.wall, 0.0),
        quantile(&mut setups.wall, SETUP_QUANTILE),
        quantile(&mut setups.wall, 0.5),
    );

    // --- Generator health: invalid, not slow ----------------------------
    let mut late_ms: Vec<f64> = gens
        .iter()
        .flat_map(|g| g.lateness().iter().map(|d| d.as_secs_f64() * 1e3))
        .collect();
    let late_p50_ms = quantile(&mut late_ms, 0.5);
    let late_p99_ms = quantile(&mut late_ms, 0.99);
    let achieved_msps: f64 = gens.iter().map(GenStream::achieved_rate).sum::<f64>() / 1e6;
    let mut invalid = Vec::new();
    if generated != samples {
        invalid.push(format!(
            "gateway ingested {samples} of {generated} generated samples"
        ));
    }
    if measured.log.resident_bytes() != measured.log_resident_bytes {
        invalid.push("the event log outgrew its pre-touched room: peak_rss_mb is off".into());
    }
    let slice_ms = SLICE_SAMPLES as f64 / w.rate_sps * 1e3;
    if late_p50_ms > slice_ms {
        invalid.push(format!(
            "generator fell behind: median lateness {late_p50_ms:.3} ms > one slice ({slice_ms:.3} ms)"
        ));
    }
    for (g, label) in gens.iter().zip(&labels) {
        if g.achieved_rate() < MIN_RATE_SHARE * w.rate_sps {
            invalid.push(format!(
                "{label}: achieved {:.3} of {:.3} Msample/s offered",
                g.achieved_rate() / 1e6,
                w.rate_sps / 1e6
            ));
        }
    }
    if run_msps * 1e6 < MIN_RATE_SHARE * w.offered_sps() {
        invalid.push(format!(
            "throughput {run_msps:.3} below the offered {:.3} Msample/s",
            w.offered_sps() / 1e6
        ));
    }

    println!(
        "workload {}: {} streams paced at {:.1} Msample/s each in {SLICE_SAMPLES}-sample slices, \
         {} detector, {} workers, seed {}, {} s",
        w.name,
        w.streams,
        w.rate_sps / 1e6,
        if w.features { "features" } else { "cumulant" },
        run::WORKERS,
        args.seed,
        args.seconds
    );
    println!(
        "oracle: {} bursts generated, {} errors (authentic {}, forged {}, noise {}, stray events {}); \
         self-test {}",
        score.attempted,
        score.errors,
        score.missed[0],
        score.missed[1],
        score.missed[2],
        score.stray,
        match &self_test {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("FAILED: {e}"),
        }
    );
    println!(
        "run: {samples} samples, {} events, {} dropped; verdict latency over {} events, \
         {} windows of {} s; host steal {}",
        frames.len(),
        report.metrics.bursts_dropped,
        latency_ms.len(),
        window_iqm.len(),
        run::WINDOW.as_secs(),
        measured
            .steal_share
            .map_or("unknown".into(), |s| format!("{:.1}%", s * 100.0))
    );
    println!(
        "whole run: {run_cpu_ns:.3} ns/sample, latency iqm {run_iqm_ms:.3} ms p50 {run_p50_ms:.3} ms \
         p99 {run_p99_ms:.3} ms"
    );
    println!(
        "ungated: throughput_msps = {run_msps:.4} Msample/s, verdict_latency_p50_ms = \
         {p50_ms:.4} ms, verdict_latency_p99_ms = {p99_ms:.4} ms (quietest window), \
         error_ratio = {} ratio",
        score.error_ratio()
    );
    println!(
        "generator: offered {:.3}, achieved {achieved_msps:.3} Msample/s; p99 lateness \
         {late_p99_ms:.4} ms over {} slice wake-ups",
        w.offered_sps() / 1e6,
        late_ms.len()
    );
    if let Some(f) = score.first_wrong {
        println!("first wrong event: {}", lines[frames[f].line]);
    }
    for reason in &invalid {
        println!("INVALID: {reason}");
    }

    let metrics = if !args.trace {
        vec![
            m("setup_s", setup_s, "s"),
            m("cpu_ns_per_sample", cpu_ns_per_sample, "ns/sample"),
            m("verdict_latency_iqm_ms", iqm_ms, "ms"),
            m("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    } else {
        let events: Vec<u64> = gens
            .iter()
            .enumerate()
            .map(|(s, g)| {
                (g.truths().len() as u64).min(traffic.events_for(s, replay::REPLAY_SAMPLES))
            })
            .collect();
        let l = replay::replay(w, &traffic, &events);
        let per_sample = |ns: u64| ns as f64 / l.samples as f64;
        let per = |ns: u64, n: u64| ns as f64 / 1e3 / n.max(1) as f64;
        let stage_sum = per_sample(l.stage_sum_ns(w.features));
        let overhead = cpu_ns_per_sample - stage_sum;
        let share = overhead / cpu_ns_per_sample;
        println!(
            "replay: {} samples in {} chunks, {} bursts ({} with chip samples), {} decoded",
            l.samples, l.chunks, l.bursts, l.frames, l.decoded
        );
        println!(
            "reconcile: end-to-end CPU {cpu_ns_per_sample:.3} ns/sample = traced stages \
             {stage_sum:.3} + residual {overhead:.3} ({:.1}%){}",
            share * 100.0,
            if share.abs() > 0.1 {
                "  FLAG: residual above a tenth of end-to-end CPU"
            } else {
                ""
            }
        );
        let mut metrics = vec![
            m("gateway.verdict_latency_p50_ms", p50_ms, "ms"),
            m("gateway.verdict_latency_p99_ms", p99_ms, "ms"),
            m(
                "io.parse_ns_per_sample",
                per_sample(l.parse_ns),
                "ns/sample",
            ),
            m(
                "listener.gate_ns_per_sample",
                per_sample(l.gate_ns),
                "ns/sample",
            ),
            m(
                "stream.split_ns_per_sample",
                per_sample(l.split_ns.saturating_sub(l.gate_ns)),
                "ns/sample",
            ),
            m("stream.bursts", l.bursts as f64, "count"),
            m(
                "stream.capture_samples_per_burst",
                l.capture_samples as f64 / l.bursts.max(1) as f64,
                "sample/burst",
            ),
            m(
                "dsp.norm_sqr_ns_per_sample",
                per_sample(l.norm_sqr_ns),
                "ns/sample",
            ),
            m(
                "dsp.gate_scan_ns_per_sample",
                per_sample(l.gate_scan_ns),
                "ns/sample",
            ),
            m(
                "ingest.wait_ms_p50",
                quantile(&mut ingest_wait_ms, 0.5),
                "ms",
            ),
            m(
                "session.queue_wait_us_p50",
                quantile(&mut queue_us, 0.5),
                "us",
            ),
            m(
                "session.queue_wait_us_p99",
                quantile(&mut queue_us, 0.99),
                "us",
            ),
            m(
                "session.drop_ratio",
                report.metrics.bursts_dropped as f64 / report.metrics.bursts.max(1) as f64,
                "ratio",
            ),
            m(
                "zigbee.decode_us_per_burst",
                per(l.decode_ns, l.bursts),
                "us/burst",
            ),
            m(
                "zigbee.sync_search_us_per_burst",
                per(l.decode_ns.saturating_sub(l.decode_nosearch_ns), l.bursts),
                "us/burst",
            ),
            m(
                "zigbee.decode_ok_ratio",
                l.decoded as f64 / l.bursts.max(1) as f64,
                "ratio",
            ),
            m(
                "detector.classify_us_per_frame",
                per(l.classify_ns, l.bursts),
                "us/frame",
            ),
            m(
                "detector.constellation_points_per_frame",
                l.constellation_points as f64 / l.frames.max(1) as f64,
                "point/frame",
            ),
            m(
                "detector.cumulants_us_per_frame",
                per(l.cumulants_ns, l.frames),
                "us/frame",
            ),
            m(
                "detector.features_us_per_frame",
                per(l.features_ns, l.frames),
                "us/frame",
            ),
            m(
                "pipeline.input_us_per_frame",
                per(l.input_ns, l.bursts),
                "us/frame",
            ),
        ];
        for (name, ns) in replay::EXTRACTORS.into_iter().zip(l.extractor_ns) {
            metrics.push(m(name, per(ns, l.frames), "us/frame"));
        }
        metrics.extend([
            m(
                "pipeline.fuse_us_per_frame",
                per(l.fuse_ns, l.frames),
                "us/frame",
            ),
            m("trace.stage_sum_ns_per_sample", stage_sum, "ns/sample"),
            m("gateway.overhead_ns_per_sample", overhead, "ns/sample"),
            m("gateway.overhead_share", share, "ratio"),
            m(
                "sink.bytes_per_event",
                measured.log.bytes.len() as f64 / lines.len().max(1) as f64,
                "B/event",
            ),
            m("pool.misses", report.pool.misses as f64, "count"),
            m("gen.late_ms_p99", late_p99_ms, "ms"),
            m("gen.achieved_msps", achieved_msps, "Msample/s"),
        ]);
        metrics
    };

    let mut object = JsonObject::new();
    for metric in &metrics {
        println!("  {} = {} {}", metric.name, metric.value, metric.unit);
        let entry = JsonObject::new()
            .float("value", metric.value)
            .string("unit", metric.unit)
            .finish();
        object = object.raw(metric.name, &entry);
    }
    let correct = score.errors == 0 && self_test.is_ok() && invalid.is_empty();
    println!(
        "{}",
        JsonObject::new()
            .bool("correct", correct)
            .uint("attempted", score.attempted)
            .uint("failed", score.errors)
            .raw("metrics", &object.finish())
            .finish()
    );
    Ok(())
}
