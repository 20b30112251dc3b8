//! `ctc` — command-line front end for the Hide-and-Seek reproduction.
//!
//! Works on cf32 IQ files (GNURadio's interleaved little-endian f32
//! format), so recordings from real SDR hardware drop straight in:
//!
//! ```text
//! ctc generate --payload 00000 --out zigbee.cf32
//! ctc emulate  --input zigbee.cf32 --out attack.cf32
//! ctc capture  --input attack.cf32 --out at_receiver.cf32
//! ctc decode   --input at_receiver.cf32
//! ctc detect   --input at_receiver.cf32
//! ctc listen   --input long_recording.cf32
//! ctc monitor  --input - --threshold 0.25
//! ctc spectrum --input attack.cf32 --segment 64
//! ```
//!
//! `decode`, `detect`, `listen` and `monitor` also accept `--input -`
//! (stdin) and `--input tcp://host:port`, so captures pipe straight in:
//!
//! ```text
//! ctc generate --payload 00000 --out - | ctc decode --input -
//! ```

use ctc_core::attack::{Emulator, EnergyDetector, SpectralMode, SynthesisMode};
use ctc_core::defense::pipeline::de2_feature;
use ctc_core::defense::{
    features_from_reception, train_logistic, train_stumps, ChannelAssumption, DetectError,
    DetectionPipeline, Detector, FeatureInput, FeatureVector, LabelledSample, Roc,
};
use ctc_dsp::io::{write_cf32_file, Cf32Reader};
use ctc_dsp::psd::{welch_psd, Window};
use ctc_dsp::Complex;
use ctc_gateway::{
    GatewayConfig, GatewayError, GatewayServer, Input, Listener, NamedStream, ServerConfig,
};
use ctc_loadgen::{
    render_fleet, render_soak, run_fleet, run_soak, FleetSpec, Mix, SoakConfig, Target,
};
use ctc_obs::{Registry, TraceSink};
use ctc_zigbee::{Receiver, Transmitter};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Exit code when a decoded frame was attributed to the attacker, so shell
/// pipelines can branch on detection (`ctc detect ... || alarm`).
const EXIT_FORGERY: u8 = 3;

/// Exit code when `ctc loadgen` finishes but an SLO check (or a stream)
/// failed — distinct from the gateway's own codes (3–10) so CI can tell
/// "capacity regression" from "gateway broke".
const EXIT_SLO_BREACH: u8 = 12;

/// Exit code when `ctc detector eval --gate` finds the fused ensemble's
/// AUC below the single-feature DE² baseline — the detector-quality
/// regression gate, distinct from the load/SLO code above.
const EXIT_DETECTOR_GATE: u8 = 13;

const USAGE: &str = "\
ctc — CTC waveform emulation attack & defense toolkit (cf32 IQ files)

USAGE: ctc <command> [--key value]...

COMMANDS
  generate  --payload <text> --out <file> [--zeros N]
            Synthesize a ZigBee frame waveform (4 MHz baseband).
  emulate   --input <file> --out <file> [--mode baseband|carrier]
            [--bitchain] [--subcarriers N] [--alpha X]
            Run the waveform-emulation attack on a recorded frame (4 MHz in,
            20 MHz out).
  capture   --input <file> --out <file> [--mode baseband|carrier]
            The ZigBee receiver front-end's 4 MHz view of a 20 MHz waveform.
  decode    --input <src> [--soft] [--search N] [--fractional]
            Decode a 4 MHz waveform with the 802.15.4 receiver.
  detect    --input <src> [--real] [--threshold Q] [--search N]
            Run the cumulant detector on a 4 MHz waveform. Exits 3 when the
            frame is attributed to the WiFi attacker.
  listen    --input <src>
            Energy-detect frame bursts in a stream of any length (bounded
            memory; bursts print as they complete).
  monitor   --input <src> | --listen <addr> [--real] [--threshold Q]
            [--detector cumulant|features|model:<path>]
            [--workers N] [--chunk N] [--queue N] [--stats SECS]
            [--max-burst N] [--max-streams N] [--shards N] [--stop-after N]
            [--metrics-addr HOST:PORT] [--trace-out FILE]
            Streaming detection gateway: JSONL frame events on stdout,
            periodic stats on stderr. Exits 3 when a forgery was accepted;
            other failures get distinct codes (bad address 4, bind/accept
            5, session limit 6, sink 7, input 9, config 10).
            --chunk N is the largest ingest chunk in samples (default
            65536): each read of a stream goes to the burst splitter as
            it arrives, so frames are classified without waiting for a
            chunk to fill.
            --listen (tcp://host:port or unix:///path.sock) serves many
            concurrent streams, each a session with a `stream`-tagged
            event sequence and per-stream metrics; --max-streams caps
            concurrency, --stop-after N exits after N sessions, --shards
            sets worker shards (0 = one per worker). The bound address
            prints on stderr as a single `listening <addr>` line, so
            port 0 works in scripts (`sed -n 's/^listening //p'`).
            --metrics-addr serves Prometheus text at /metrics for the run
            (port 0 picks a free port; the bound address prints on stderr);
            --trace-out writes one JSONL span record per pipeline stage.
            The flight recorder journals every burst, stage, verdict and
            drop into a bounded in-memory ring (--flight-capacity N
            events, default 1024; 0 disables). --flight-out FILE arms
            incident snapshots: the first accepted forgery, a session
            exhausting --flight-drop-budget N dropped bursts, or SIGUSR1
            each dump a self-contained JSON snapshot (last
            --flight-events journal events, registry + delta, per-stage
            latency, session table, config) for `ctc obs report`.
            --detector selects the classification stage: `cumulant` (the
            default: the paper's single DE² threshold; frame lines carry
            the verdict and DE² only), `features` (the full extractor
            ensemble thresholding the same DE² statistic, with
            per-feature scores on every frame line and as
            ctc_detector_score{feature=...} gauges), or `model:<path>` (a
            model file from `ctc detector train`, which fixes the channel
            assumption and threshold, so --real and --threshold are
            rejected with it).
  detector  train --out <file> [--kind logistic|stumps] [--rounds N]
            [--per-class N] [--seed N] [--real] [--threshold Q]
            Train a feature-ensemble classifier on synthetic labelled
            receptions (authentic ZigBee vs WiFi-emulated forgeries over
            a seeded AWGN SNR sweep) and write a versioned model file
            for `ctc monitor --detector model:<file>`.
  detector  eval [--per-class N] [--seed N] [--rounds N] [--real]
            [--threshold Q] [--model <file>] [--report FILE] [--gate]
            ROC evaluation on a seeded SNR sweep: AUC, EER and
            TPR@FPR=1% for the single-feature DE² baseline and the
            trained ensembles (or --model), plus per-feature AUCs, as one
            JSON report on stdout (--report also writes it to FILE).
            --gate exits 13 when the best ensemble AUC falls below the
            DE² baseline — the CI detector-quality regression gate.
  loadgen   --connect <tcp://host:port|unix:///path.sock> [--streams N]
            [--events N] [--mix A:F:N] [--rate MSPS] [--gap N] [--seed N]
            [--soak DUR --metrics-addr HOST:PORT [--interval DUR]
            [--warmup DUR] [--slo-p99-ms F] [--slo-drop-rate F]
            [--slo-recall F] [--slo-pool-misses N] [--slo-rss-growth F]
            [--incident-out FILE]]
            [--report FILE]
            Fleet-scale traffic generator against `ctc monitor --listen`:
            N concurrent seeded streams of mixed authentic / WiFi-forged /
            noise bursts (--mix, default 6:2:2) paced at --rate Msamples/s
            per stream (0 = line rate). Default: a fixed number of events
            per stream, then a JSON report on stdout. --soak streams for
            DUR (e.g. 60s) while scraping the monitor's --metrics-addr
            and asserts SLOs (p99 latency, drop budgets, forgery recall
            vs ground truth, steady-state pool misses, RSS growth); the
            JSON capacity report carries the per-SLO verdict. On breach,
            --incident-out FILE writes an incident snapshot (for
            `ctc obs report`) and embeds its path in the report.
            --report also writes the JSON to FILE. Exits 12 when a
            stream failed or an SLO was breached.
  spectrum  --input <file> [--segment N]
            Welch PSD of a waveform, printed as text.
  obs       dump [--addr HOST:PORT] [--json]
            One-shot metrics snapshot. With --addr, scrapes a running
            monitor's endpoint; without, prints the canonical gateway
            metric schema at zero. --json renders the samples as the
            same JSON array incident snapshots embed.
  obs       report <incident.json>
            Render a flight-recorder incident snapshot (from
            `ctc monitor --flight-out` or `ctc loadgen --incident-out`)
            human-readable: trigger, journal tail, per-stage latency,
            session table, registry delta.
  obs       top --addr HOST:PORT [--interval DUR] [--count N]
            Live terminal view over a monitor's metrics endpoint:
            throughput, interval p50/p99 latency, per-stream frame and
            drop counts, detector-score movement. Repaints in place on a
            terminal; --count N prints N frames then exits.
  vectors   <generate|check|diff> [--dir DIR] [--seed N]
            Golden-vector regression corpus (default DIR: vectors).
            generate: run the pipeline, write corpus + manifest.
            check: replay through the live code; exits 1 at the first
            out-of-tolerance divergence (stage, index, magnitude).
            diff: per-stage max deviation report, even when passing.

  <src> is a cf32 file path, `-` for stdin, `tcp://host:port` to accept
  one connection and stream from it, or `unix:///path.sock` likewise.
";

struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?}"))?;
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                values.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(Args { values, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key} expects a number, got {v:?}")),
        }
    }

    /// [`parse_num`](Self::parse_num) for a value that must also pass
    /// `valid`; `what` names the accepted range in the error. `f64::from_str`
    /// accepts `NaN`, `inf` and overflowing exponents, which would
    /// otherwise reach the program as values.
    fn parse_f64_where(
        &self,
        key: &str,
        what: &str,
        valid: impl Fn(f64) -> bool,
    ) -> Result<Option<f64>, String> {
        match self.parse_num::<f64>(key)? {
            Some(v) if !valid(v) => Err(format!(
                "--{key} expects {what}, got {:?}",
                self.get(key).unwrap_or_default()
            )),
            v => Ok(v),
        }
    }
}

/// Reads a whole waveform from an input spec (file, `-`, `tcp://addr`),
/// streaming through [`Cf32Reader`] so even stdin never double-buffers.
fn load(spec: &str) -> Result<Vec<Complex>, String> {
    let input = Input::parse(spec).map_err(|e| e.to_string())?;
    let reader = input.open().map_err(|e| e.to_string())?;
    let mut reader = Cf32Reader::new(reader);
    let mut samples = Vec::new();
    let mut chunk = Vec::new();
    loop {
        let n = reader
            .read_chunk(&mut chunk)
            .map_err(|e| format!("reading {input}: {e}"))?;
        if n == 0 {
            return Ok(samples);
        }
        samples.extend_from_slice(&chunk);
    }
}

/// Writes a waveform to a file, or to stdout when the spec is `-`.
fn save(spec: &str, samples: &[Complex]) -> Result<(), String> {
    if spec == "-" {
        ctc_dsp::io::write_cf32(std::io::stdout().lock(), samples)
            .map_err(|e| format!("writing stdout: {e}"))
    } else {
        write_cf32_file(Path::new(spec), samples).map_err(|e| format!("writing {spec}: {e}"))
    }
}

/// Status text goes to stdout normally, but to stderr when the waveform
/// itself is being piped to stdout.
fn note(out_spec: &str, msg: String) {
    if out_spec == "-" {
        eprintln!("{msg}");
    } else {
        println!("{msg}");
    }
}

fn emulator_from(args: &Args) -> Result<Emulator, String> {
    let mut emulator = Emulator::new();
    match args.get("mode").unwrap_or("baseband") {
        "baseband" => {}
        "carrier" => {
            emulator = emulator.with_spectral_mode(SpectralMode::CarrierAllocated);
        }
        other => return Err(format!("--mode must be baseband or carrier, got {other:?}")),
    }
    if args.flag("bitchain") {
        emulator = emulator
            .with_spectral_mode(SpectralMode::CarrierAllocated)
            .with_synthesis_mode(SynthesisMode::BitChain);
    }
    if let Some(n) = args.parse_num::<usize>("subcarriers")? {
        emulator = emulator.with_kept_subcarriers(n);
    }
    if let Some(a) = args.parse_num::<f64>("alpha")? {
        emulator = emulator.with_fixed_alpha(Some(a));
    }
    Ok(emulator)
}

fn receiver_from(args: &Args) -> Result<Receiver, String> {
    let mut rx = if args.flag("soft") {
        Receiver::commodity()
    } else {
        Receiver::usrp()
    };
    if let Some(n) = args.parse_num::<usize>("search")? {
        rx = rx.with_sync_search(n);
    }
    if args.flag("fractional") {
        rx = rx.with_fractional_timing(true);
    }
    Ok(rx)
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let payload = args.require("payload")?.as_bytes().to_vec();
    let zeros = args.parse_num::<usize>("zeros")?.unwrap_or(0);
    let tx = Transmitter::new().with_leading_zero_samples(zeros);
    let wave = tx
        .transmit_payload(&payload)
        .map_err(|e| format!("building frame: {e}"))?;
    let out = args.require("out")?;
    save(out, &wave)?;
    note(
        out,
        format!(
            "wrote {} samples (4 MHz, {:.1} µs) for payload {:?}",
            wave.len(),
            wave.len() as f64 / 4.0,
            String::from_utf8_lossy(&payload)
        ),
    );
    Ok(())
}

fn cmd_emulate(args: &Args) -> Result<(), String> {
    let observed = load(args.require("input")?)?;
    let emulator = emulator_from(args)?;
    let em = emulator.emulate(&observed);
    let out = args.require("out")?;
    save(out, &em.waveform_20mhz)?;
    note(
        out,
        format!(
            "emulated {} WiFi symbols (20 MHz, {} samples)",
            em.wifi_symbol_count(),
            em.waveform_20mhz.len()
        ),
    );
    note(out, format!("kept FFT bins: {:?}", em.kept_bins));
    note(
        out,
        format!(
            "alpha = {:.4}, quantization error = {:.1}",
            em.alpha, em.quantization_error
        ),
    );
    if let Some(d) = em.codeword_distance {
        note(out, format!("bit-chain codeword distance = {d}"));
    }
    Ok(())
}

fn cmd_capture(args: &Args) -> Result<(), String> {
    let wide = load(args.require("input")?)?;
    let (in_center, out_center) = match args.get("mode").unwrap_or("baseband") {
        "baseband" => (2.435e9, 2.435e9),
        "carrier" => (2.44e9, 2.435e9),
        other => return Err(format!("--mode must be baseband or carrier, got {other:?}")),
    };
    let captured = ctc_zigbee::frontend::capture(&wide, in_center, 20.0e6, out_center, 4.0e6)
        .map_err(|e| format!("capture failed: {e}"))?;
    let out = args.require("out")?;
    save(out, &captured)?;
    note(out, format!("captured {} samples at 4 MHz", captured.len()));
    Ok(())
}

fn cmd_decode(args: &Args) -> Result<(), String> {
    let wave = load(args.require("input")?)?;
    let rx = receiver_from(args)?;
    let r = rx.receive(&wave);
    println!(
        "sync: offset {}, peak correlation {:.3}, CFO {:.2e} rad/sample",
        r.sync.offset, r.sync.peak_correlation, r.sync.cfo_per_sample
    );
    println!("symbols decoded: {}", r.symbols.len());
    if let Some(max) = r.hamming_distances.iter().max() {
        let mean: f64 = r.hamming_distances.iter().map(|&d| d as f64).sum::<f64>()
            / r.hamming_distances.len().max(1) as f64;
        println!("chip errors per symbol: mean {mean:.2}, max {max}");
    }
    match r.payload() {
        Some(p) => println!(
            "payload ({} bytes): {:?}  [packet_ok = {}]",
            p.len(),
            String::from_utf8_lossy(p),
            r.packet_ok()
        ),
        None => println!("frame did not decode: {:?}", r.frame.err()),
    }
    Ok(())
}

/// The `--real`/`--threshold` options shared by `detect` and `monitor`.
fn detector_from(args: &Args) -> Result<Detector, String> {
    let assumption = if args.flag("real") {
        ChannelAssumption::Real
    } else {
        ChannelAssumption::Ideal
    };
    let mut detector = Detector::new(assumption);
    let finite_positive = |q: f64| q.is_finite() && q > 0.0;
    if let Some(q) =
        args.parse_f64_where("threshold", "a finite positive number", finite_positive)?
    {
        detector = detector.with_threshold(q);
    }
    Ok(detector)
}

/// A `--stats` interval a [`Duration`] can hold; 0 turns stats lines off.
fn is_stats_interval(secs: f64) -> bool {
    Duration::try_from_secs_f64(secs).is_ok()
}

/// Parses the `--flight-*` flags into the gateway's flight-recorder
/// options. The recorder is always on at its default ring capacity;
/// `--flight-capacity 0` turns it off entirely (returns `None`).
fn flight_options_from(args: &Args) -> Result<Option<ctc_gateway::FlightOptions>, String> {
    let mut options = ctc_gateway::FlightOptions::default();
    if let Some(n) = args.parse_num::<usize>("flight-capacity")? {
        if n == 0 {
            return Ok(None);
        }
        options.capacity = n;
    }
    if let Some(n) = args.parse_num::<usize>("flight-events")? {
        options.max_events = n;
    }
    if let Some(n) = args.parse_num::<u64>("flight-drop-budget")? {
        options.drop_budget = Some(n);
    }
    if let Some(path) = args.get("flight-out") {
        options.out = Some(path.into());
    }
    Ok(Some(options))
}

/// Parses `--detector cumulant|features|model:<path>` into the detection
/// pipeline. `cumulant` (the default) and `features` classify with the
/// `--real`/`--threshold` detector; a model file fixes both, so passing
/// either with it is an error rather than silently ignored.
fn pipeline_from(args: &Args) -> Result<DetectionPipeline, String> {
    let detector = detector_from(args)?;
    match args.get("detector") {
        None | Some("cumulant") => Ok(DetectionPipeline::legacy(detector)),
        Some("features") => Ok(DetectionPipeline::standard(detector)),
        Some(spec) => match spec.strip_prefix("model:") {
            Some(_) if args.flag("real") || args.get("threshold").is_some() => Err(
                "--detector expects no --real or --threshold with model:<path>: \
                 the model file fixes both"
                    .into(),
            ),
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("reading model {path}: {e}"))?;
                DetectionPipeline::from_model_str(&text)
                    .map_err(|e| format!("parsing model {path}: {e}"))
            }
            None => Err(format!(
                "--detector expects cumulant, features, or model:<path>, got {spec:?}"
            )),
        },
    }
}

fn cmd_detect(args: &Args) -> Result<ExitCode, String> {
    let wave = load(args.require("input")?)?;
    let rx = receiver_from(args)?;
    let detector = detector_from(args)?;
    let r = rx.receive(&wave);
    // Both halves of the features: the report prints |Ĉ40| whatever the
    // channel assumption.
    let f = features_from_reception(&r)
        .map_err(|_| format!("detection failed: {}", DetectError::NoSamples))?;
    let v = detector.verdict_for(&f);
    println!(
        "Ĉ40 = {:.4}{:+.4}i  |Ĉ40| = {:.4}  Ĉ42 = {:.4}  ({} chip pairs)",
        v.features.c40.re,
        v.features.c40.im,
        f.c40_magnitude,
        v.features.c42,
        v.features.sample_count
    );
    println!(
        "DE² = {:.4} vs Q = {:.3}  ->  {}",
        v.de_squared,
        detector.threshold(),
        if v.is_attack {
            "WiFi ATTACKER (H1)"
        } else {
            "authentic ZigBee (H0)"
        }
    );
    Ok(if v.is_attack {
        ExitCode::from(EXIT_FORGERY)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_listen(args: &Args) -> Result<(), String> {
    fn print_burst(i: usize, sb: &ctc_core::attack::StreamedBurst) {
        let b = &sb.burst;
        println!(
            "  #{i}: samples {}..{} ({} samples, {:.1} µs){}",
            b.start,
            b.end,
            b.len(),
            b.len() as f64 / 4.0,
            if sb.truncated() { "  [truncated]" } else { "" }
        );
    }

    let input = Input::parse(args.require("input")?).map_err(|e| e.to_string())?;
    let reader = input.open().map_err(|e| e.to_string())?;
    let mut reader = Cf32Reader::new(reader);
    let mut stream = EnergyDetector::default().stream();
    let mut chunk = Vec::new();
    let mut count = 0usize;
    let mut total = 0usize;
    let mut energy = 0.0f64;
    loop {
        let n = reader
            .read_chunk(&mut chunk)
            .map_err(|e| format!("reading {input}: {e}"))?;
        if n == 0 {
            break;
        }
        total += n;
        energy += chunk.iter().map(|c| c.norm_sqr()).sum::<f64>();
        for sb in stream.push(&chunk) {
            print_burst(count, &sb);
            count += 1;
        }
    }
    if let Some(sb) = stream.finish() {
        print_burst(count, &sb);
        count += 1;
    }
    println!("{count} burst(s) in {total} samples");
    if count == 0 && energy > 0.0 {
        println!(
            "  (energy detection baselines on quiet gaps; a stream that is all\n\
             signal has no noise floor to rise above — record with margins)"
        );
    }
    Ok(())
}

/// Prints a gateway error and converts it to its process exit code, so
/// shell pipelines can distinguish a bad address (4) from a bind/accept
/// failure (5), the session limit (6), a broken sink (7), and so on —
/// forgery detection keeps its reserved code 3.
fn gateway_exit(context: &str, e: &GatewayError) -> ExitCode {
    eprintln!("{context}: {e}");
    ExitCode::from(e.exit_code())
}

fn cmd_monitor(args: &Args) -> Result<ExitCode, String> {
    let mut receiver = receiver_from(args)?;
    if args.get("search").is_none() {
        // Burst captures start up to a margin before the preamble, so the
        // gateway always needs a timing search window.
        receiver = receiver.with_sync_search(96);
    }
    let mut builder = GatewayConfig::builder()
        .receiver(receiver)
        .detection_pipeline(pipeline_from(args)?.shared());
    if let Some(n) = args.parse_num::<usize>("workers")? {
        builder = builder.workers(n);
    }
    if let Some(n) = args.parse_num::<usize>("chunk")? {
        builder = builder.chunk_samples(n);
    }
    if let Some(n) = args.parse_num::<usize>("queue")? {
        builder = builder.queue_depth(n);
    }
    if let Some(n) = args.parse_num::<usize>("max-burst")? {
        builder = builder.max_burst(n);
    }
    if let Some(secs) = args.parse_f64_where("stats", "seconds, 0 for none", is_stats_interval)? {
        builder = builder.stats_interval(if secs > 0.0 {
            Some(Duration::from_secs_f64(secs))
        } else {
            None
        });
    }
    let config = match builder.build() {
        Ok(config) => config,
        Err(e) => return Ok(gateway_exit("monitor configuration", &e)),
    };

    let registry = Arc::new(Registry::new());
    // Resident-memory gauge for soak testing (`ctc loadgen --soak`
    // asserts bounded RSS growth from scrapes). Returns false off-Linux;
    // the soak check is simply skipped then.
    let _ = ctc_obs::register_process_metrics(&registry);
    // Serve the run's registry for the lifetime of the process. The
    // handle must stay bound (not `_`-dropped) so the listener is
    // reachable for as long as the monitor runs.
    let _metrics_server = match args.get("metrics-addr") {
        Some(addr) => {
            let server = ctc_obs::http::serve(addr, Arc::clone(&registry))
                .map_err(|e| format!("binding metrics endpoint {addr}: {e}"))?;
            eprintln!("metrics: serving http://{}/metrics", server.addr());
            Some(server)
        }
        None => None,
    };
    let trace = match args.get("trace-out") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("creating trace log {path}: {e}"))?;
            Some(Arc::new(TraceSink::new(Box::new(std::io::BufWriter::new(
                file,
            )))))
        }
        None => None,
    };
    // The flight recorder journals the run regardless; snapshots are only
    // written when --flight-out names a path. SIGUSR1 then dumps one on
    // demand for live forensics (`kill -USR1 <pid>`).
    let flight = flight_options_from(args)?;
    if flight.as_ref().is_some_and(|f| f.out.is_some()) {
        ctc_obs::flight::install_sigusr1_handler();
    }

    // Server mode: accept many concurrent streams on a listener, each one
    // a labelled session multiplexed through the shared worker pool.
    if let Some(spec) = args.get("listen") {
        let mut server_config = ServerConfig::from(config);
        if let Some(n) = args.parse_num::<usize>("max-streams")? {
            server_config.max_streams = n.max(1);
        }
        if let Some(n) = args.parse_num::<usize>("shards")? {
            server_config.shards = n;
        }
        if let Some(n) = args.parse_num::<u64>("stop-after")? {
            server_config.stop_after = Some(n);
        }
        let input = match Input::parse(spec) {
            Ok(input) => input,
            Err(e) => return Ok(gateway_exit("parsing --listen", &e)),
        };
        let listener = match Listener::bind(&input) {
            Ok(listener) => listener,
            Err(e) => return Ok(gateway_exit(&format!("binding {input}"), &e)),
        };
        // The bound address prints on stderr as a single parseable
        // `listening <addr>` line (documented in USAGE), so scripts and
        // load generators binding port 0 can discover where to connect
        // with a plain `sed -n 's/^listening //p'`.
        eprintln!("listening {}", listener.local_display());

        let mut server = GatewayServer::new(server_config).with_registry(Arc::clone(&registry));
        if let Some(sink) = &trace {
            server = server.with_trace_sink(Arc::clone(sink));
        }
        if let Some(options) = flight.clone() {
            server = server.with_flight(options);
        }
        let report = match server.serve(listener, &mut std::io::stdout(), &mut std::io::stderr()) {
            Ok(report) => report,
            Err(e) => return Ok(gateway_exit("gateway server", &e)),
        };
        if let Some(trace) = &trace {
            trace.flush();
        }
        eprintln!(
            "gateway: {} session(s) served, {} refused, {} errored",
            report.server.sessions_opened,
            report.server.sessions_refused,
            report.server.sessions_errored
        );
        return Ok(if report.forgery_detected() {
            ExitCode::from(EXIT_FORGERY)
        } else {
            ExitCode::SUCCESS
        });
    }

    // Single-stream mode: one input, unlabelled event stream. Runs on
    // the multi-stream server pinned to a single shard, which keeps the
    // single-stream event and stats shape while sharing one code path
    // with `--listen`.
    let input = match Input::parse(args.require("input")?) {
        Ok(input) => input,
        Err(e) => return Ok(gateway_exit("parsing --input", &e)),
    };
    let server_config = ServerConfig {
        shards: 1,
        ..ServerConfig::from(config)
    };
    let mut server = GatewayServer::new(server_config).with_registry(Arc::clone(&registry));
    if let Some(sink) = &trace {
        server = server.with_trace_sink(Arc::clone(sink));
    }
    if let Some(options) = flight {
        server = server.with_flight(options);
    }
    let reader = match input.open() {
        Ok(reader) => reader,
        Err(e) => return Ok(gateway_exit("opening input", &e)),
    };
    let result = server.run_streams(
        vec![NamedStream::unlabelled(reader)],
        &mut std::io::stdout(),
        &mut std::io::stderr(),
    );
    let report = match result {
        Ok(report) => report,
        Err(e) => return Ok(gateway_exit(&format!("gateway on {input}"), &e)),
    };

    // Exit-code path audit: the forgery exit (code 3) must never race the
    // telemetry buffers. `run_streams()` has joined every pipeline thread
    // by now, and the span log is flushed *here*, before the ExitCode is
    // even constructed — not left to drop order on the way out of `main`
    // (and never skipped the way a `process::exit` would skip it). The
    // sink also flushes on drop, so the non-forgery path is covered twice.
    if let Some(trace) = &trace {
        trace.flush();
    }
    Ok(if report.forgery_detected() {
        ExitCode::from(EXIT_FORGERY)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_spectrum(args: &Args) -> Result<(), String> {
    let wave = load(args.require("input")?)?;
    let segment = args.parse_num::<usize>("segment")?.unwrap_or(64);
    let psd = welch_psd(&wave, segment, Window::Hann).map_err(|e| format!("psd failed: {e}"))?;
    let db = psd.db_rel_peak();
    let ordered = psd.ordered();
    println!("Welch PSD ({} segments of {segment}):", psd.segments);
    for (i, (f, _)) in ordered.iter().enumerate() {
        let bin = (i + segment / 2) % segment;
        let level = db[bin];
        let bar = "#".repeat(((level + 60.0).max(0.0) / 2.0) as usize);
        println!("{f:>8.3} | {level:>7.1} dB | {bar}");
    }
    Ok(())
}

/// Parses a human duration: `60s`, `1500ms`, `2m`, or a bare number of
/// seconds (`10`, `0.5`).
fn parse_duration(text: &str) -> Result<Duration, String> {
    let (digits, scale) = if let Some(d) = text.strip_suffix("ms") {
        (d, 1e-3)
    } else if let Some(d) = text.strip_suffix('s') {
        (d, 1.0)
    } else if let Some(d) = text.strip_suffix('m') {
        (d, 60.0)
    } else {
        (text, 1.0)
    };
    let secs: f64 = digits
        .parse()
        .map_err(|_| format!("expected a duration like 60s, 500ms or 2m, got {text:?}"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!("duration must be positive, got {text:?}"));
    }
    Ok(Duration::from_secs_f64(secs * scale))
}

/// Applies the `--streams/--events/--mix/--rate/--gap/--seed` flags over
/// the default [`FleetSpec`].
fn fleet_spec_from(args: &Args) -> Result<FleetSpec, String> {
    let mut spec = FleetSpec::default();
    if let Some(n) = args.parse_num::<usize>("streams")? {
        spec.streams = n;
    }
    if let Some(n) = args.parse_num::<usize>("events")? {
        spec.events_per_stream = n;
    }
    if let Some(mix) = args.get("mix") {
        spec.mix = Mix::parse(mix).map_err(|e| format!("--mix: {e}"))?;
    }
    if let Some(r) = args.parse_num::<f64>("rate")? {
        spec.rate_msps = r;
    }
    if let Some(n) = args.parse_num::<usize>("gap")? {
        spec.gap_samples = n;
    }
    if let Some(seed) = args.parse_num::<u64>("seed")? {
        spec.seed = seed;
    }
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

fn cmd_loadgen(args: &Args) -> Result<ExitCode, String> {
    let target = Target::parse(args.require("connect")?).map_err(|e| e.to_string())?;
    let spec = fleet_spec_from(args)?;

    let (line, pass) = match args.get("soak") {
        // Soak: sustain the fleet for a duration, scrape the monitor's
        // metrics endpoint, assert the SLOs.
        Some(soak) => {
            let duration = parse_duration(soak)?;
            let metrics_addr = args
                .get("metrics-addr")
                .ok_or("--soak needs --metrics-addr (the monitor's metrics endpoint)")?;
            let mut config = SoakConfig::new(spec, metrics_addr, duration);
            if let Some(v) = args.get("interval") {
                config.interval = parse_duration(v)?;
            }
            if let Some(v) = args.get("warmup") {
                config.warmup = parse_duration(v)?;
            }
            if let Some(ms) = args.parse_num::<f64>("slo-p99-ms")? {
                config.slo.p99_latency_us = Some(ms * 1000.0);
            }
            if let Some(v) = args.parse_num::<f64>("slo-drop-rate")? {
                config.slo.max_drop_rate = Some(v);
            }
            if let Some(v) = args.parse_num::<f64>("slo-recall")? {
                config.slo.min_recall = Some(v);
            }
            if let Some(v) = args.parse_num::<f64>("slo-pool-misses")? {
                config.slo.max_steady_pool_misses = Some(v);
            }
            if let Some(v) = args.parse_num::<f64>("slo-rss-growth")? {
                config.slo.max_rss_growth = Some(v);
            }
            if let Some(path) = args.get("incident-out") {
                config.incident_out = Some(path.into());
            }
            eprintln!(
                "loadgen: soaking {} stream(s) against {target} for {:.0?} (scraping {})",
                config.fleet.streams, config.duration, config.metrics_addr
            );
            let outcome = run_soak(&config, &target).map_err(|e| e.to_string())?;
            for check in &outcome.checks {
                let verdict = if check.skipped {
                    "skip"
                } else if check.pass {
                    "ok  "
                } else {
                    "FAIL"
                };
                let value = match check.value {
                    Some(v) => format!("{v:.4}"),
                    None => "n/a".to_string(),
                };
                eprintln!(
                    "loadgen: slo {verdict} {:<24} {value} {} {}",
                    check.name, check.op, check.bound
                );
            }
            let pass = outcome.pass;
            (render_soak(&config, &target, &outcome), pass)
        }
        // Fixed: send the spec'd number of events per stream, report the
        // ground truth. Pass iff every stream connected and drained.
        None => {
            let report = run_fleet(&spec, &target, None).map_err(|e| e.to_string())?;
            for stream in &report.streams {
                if let Some(err) = &stream.error {
                    eprintln!("loadgen: stream {} failed: {err}", stream.index);
                }
            }
            let pass = report.errors() == 0;
            (render_fleet(&spec, &target, &report), pass)
        }
    };

    println!("{line}");
    if let Some(path) = args.get("report") {
        std::fs::write(path, format!("{line}\n"))
            .map_err(|e| format!("writing report {path}: {e}"))?;
    }
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_SLO_BREACH)
    })
}

/// SNR sweep (dB) for `ctc detector train|eval` sample synthesis: dips
/// below the paper's evaluated range so the ROC has borderline operating
/// points, not just saturated ones.
const DETECTOR_SNRS: [f64; 4] = [0.0, 3.0, 6.0, 9.0];

/// Synthesizes one labelled feature vector per (SNR, trial, class):
/// authentic ZigBee frames and WiFi-emulated forgeries through the same
/// seeded AWGN link, extracted with `pipeline`'s feature set.
fn synthesize_samples(
    pipeline: &DetectionPipeline,
    snrs: &[f64],
    per_class: usize,
    seed: u64,
) -> Result<Vec<LabelledSample>, String> {
    use ctc_channel::Link;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let authentic = Transmitter::new()
        .transmit_payload(b"train")
        .map_err(|e| format!("building training frame: {e}"))?;
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
    let rx = Receiver::usrp();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Vec::new();
    for &snr in snrs {
        let link = Link::awgn(snr);
        for _ in 0..per_class {
            for (wave, is_attack) in [(&authentic, false), (&forged, true)] {
                let received = link.transmit(wave, &mut rng);
                let reception = rx.receive(&received);
                let input = FeatureInput::with_samples(&reception, &received);
                let features = pipeline
                    .extract(&input)
                    .map_err(|e| format!("feature extraction: {e}"))?;
                samples.push(LabelledSample {
                    features,
                    is_attack,
                });
            }
        }
    }
    Ok(samples)
}

/// Splits per-class score lists out of a labelled set under `score`.
fn class_scores(
    samples: &[LabelledSample],
    score: impl Fn(&FeatureVector) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let mut authentic = Vec::new();
    let mut attack = Vec::new();
    for s in samples {
        let v = score(&s.features);
        if s.is_attack {
            attack.push(v);
        } else {
            authentic.push(v);
        }
    }
    (authentic, attack)
}

/// Renders one ROC summary as a JSON object body.
fn roc_json(roc: &Roc) -> String {
    ctc_obs::json::JsonObject::new()
        .float("auc", roc.auc)
        .float("eer", roc.eer())
        .float("tpr_at_fpr_1pct", roc.tpr_at_fpr(0.01))
        .finish()
}

fn cmd_detector(argv: &[String]) -> Result<ExitCode, String> {
    use ctc_obs::json::JsonObject;

    let Some((action, rest)) = argv.split_first() else {
        return Err("detector needs an action: train or eval".into());
    };
    let args = Args::parse(rest)?;
    let detector = detector_from(&args)?;
    let assumption = if args.flag("real") {
        ChannelAssumption::Real
    } else {
        ChannelAssumption::Ideal
    };
    let per_class = args.parse_num::<usize>("per-class")?.unwrap_or(24);
    let seed = args.parse_num::<u64>("seed")?.unwrap_or(0xC7C5);
    let rounds = args.parse_num::<usize>("rounds")?.unwrap_or(24);
    let extractor = DetectionPipeline::standard(detector);

    match action.as_str() {
        "train" => {
            let out = args.require("out")?;
            let samples = synthesize_samples(&extractor, &DETECTOR_SNRS, per_class, seed)?;
            let classifier = match args.get("kind").unwrap_or("logistic") {
                "logistic" => train_logistic(&samples).map_err(|e| format!("training: {e}"))?,
                "stumps" => train_stumps(&samples, rounds).map_err(|e| format!("training: {e}"))?,
                other => return Err(format!("--kind must be logistic or stumps, got {other:?}")),
            };
            let trained = extractor.with_classifier(classifier);
            std::fs::write(out, trained.to_model_string())
                .map_err(|e| format!("writing model {out}: {e}"))?;
            println!(
                "wrote {} model over {} features ({} labelled samples, seed {seed}) to {out}",
                trained.classifier().kind(),
                trained.feature_names().len(),
                2 * per_class * DETECTOR_SNRS.len(),
            );
            Ok(ExitCode::SUCCESS)
        }
        "eval" => {
            let samples = synthesize_samples(&extractor, &DETECTOR_SNRS, per_class, seed)?;
            // Alternate (authentic, attack) pairs between the halves:
            // train on one half, measure every curve on the held-out
            // half so the ensemble/baseline comparison is fair.
            let mut train: Vec<LabelledSample> = Vec::new();
            let mut test: Vec<LabelledSample> = Vec::new();
            for (i, pair) in samples.chunks(2).enumerate() {
                if i % 2 == 0 {
                    train.extend_from_slice(pair);
                } else {
                    test.extend_from_slice(pair);
                }
            }

            let de2 = de2_feature(assumption);
            let (auth, att) = class_scores(&test, |fv| fv.get(de2).unwrap_or(0.0));
            let baseline = Roc::from_scores(&auth, &att);

            let mut report = JsonObject::new()
                .string("type", "detector_eval")
                .uint("seed", seed)
                .uint("per_class", per_class as u64)
                .uint("snr_cells", DETECTOR_SNRS.len() as u64)
                .string("baseline_feature", de2)
                .raw("baseline", &roc_json(&baseline));

            let (ensemble_auc, ensemble_name) = match args.get("model") {
                // Evaluate a trained model file on the full sample set.
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("reading model {path}: {e}"))?;
                    let model = DetectionPipeline::from_model_str(&text)
                        .map_err(|e| format!("parsing model {path}: {e}"))?;
                    let (auth, att) = class_scores(&test, |fv| model.classifier().decide(fv).0);
                    let roc = Roc::from_scores(&auth, &att);
                    report = report.raw("model", &roc_json(&roc));
                    (roc.auc, model.classifier().kind())
                }
                // Train both ensembles on the spot; the better one gates.
                None => {
                    let logistic = train_logistic(&train).map_err(|e| format!("training: {e}"))?;
                    let stumps =
                        train_stumps(&train, rounds).map_err(|e| format!("training: {e}"))?;
                    let (auth, att) = class_scores(&test, |fv| logistic.decide(fv).0);
                    let roc_logistic = Roc::from_scores(&auth, &att);
                    let (auth, att) = class_scores(&test, |fv| stumps.decide(fv).0);
                    let roc_stumps = Roc::from_scores(&auth, &att);
                    report = report
                        .raw("logistic", &roc_json(&roc_logistic))
                        .raw("stumps", &roc_json(&roc_stumps));
                    if roc_logistic.auc >= roc_stumps.auc {
                        (roc_logistic.auc, "logistic")
                    } else {
                        (roc_stumps.auc, "stumps")
                    }
                }
            };

            // Per-feature discriminative power on the held-out half,
            // orientation-folded so "lower = attack" features still rank.
            let mut features = JsonObject::new();
            for name in extractor.feature_names() {
                let (auth, att) = class_scores(&test, |fv| fv.get(name).unwrap_or(0.0));
                features = features.float(name, Roc::from_scores(&auth, &att).oriented_auc());
            }
            let gate_pass = ensemble_auc >= baseline.auc;
            let line = report
                .raw("feature_auc", &features.finish())
                .string("ensemble", ensemble_name)
                .float("ensemble_auc", ensemble_auc)
                .bool("gate_pass", gate_pass)
                .finish();
            println!("{line}");
            if let Some(path) = args.get("report") {
                std::fs::write(path, format!("{line}\n"))
                    .map_err(|e| format!("writing report {path}: {e}"))?;
            }
            if args.flag("gate") && !gate_pass {
                eprintln!(
                    "detector eval: ensemble AUC {ensemble_auc:.4} fell below the \
                     DE² baseline {:.4}",
                    baseline.auc
                );
                return Ok(ExitCode::from(EXIT_DETECTOR_GATE));
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown detector action {other:?} (expected train or eval)"
        )),
    }
}

fn cmd_obs(argv: &[String]) -> Result<ExitCode, String> {
    let Some((action, rest)) = argv.split_first() else {
        return Err("obs needs an action: dump, report, or top".into());
    };
    match action.as_str() {
        "dump" => cmd_obs_dump(&Args::parse(rest)?),
        "report" => cmd_obs_report(rest),
        "top" => cmd_obs_top(&Args::parse(rest)?),
        other => Err(format!(
            "unknown obs action {other:?} (expected dump, report, or top)"
        )),
    }
}

fn cmd_obs_dump(args: &Args) -> Result<ExitCode, String> {
    // Exposition text: scraped from a live monitor, or the canonical
    // gateway schema (every metric name, help string and type) at zero —
    // what a scrape of an idle run would return.
    let text = match args.get("addr") {
        Some(addr) => {
            ctc_obs::http::fetch_text(addr).map_err(|e| format!("scraping {addr}: {e}"))?
        }
        None => {
            let registry = Registry::new();
            ctc_gateway::obs::register_run(
                &registry,
                &ctc_gateway::SessionTable::new(),
                &ctc_dsp::BufferPool::new(),
            );
            registry.render()
        }
    };
    if args.flag("json") {
        // The same serializer incident snapshots use for their registry
        // section, so one jq recipe works on both.
        let scrape = ctc_obs::Scrape::parse(&text).map_err(|e| format!("parsing scrape: {e}"))?;
        println!("{}", ctc_obs::snapshot::registry_json(&scrape));
    } else {
        print!("{text}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `obs report <incident.json>`: renders a flight-recorder incident
/// snapshot human-readable. The path may be positional or `--input`.
fn cmd_obs_report(argv: &[String]) -> Result<ExitCode, String> {
    let (path, rest) = match argv.split_first() {
        Some((first, rest)) if !first.starts_with("--") => (first.clone(), rest),
        _ => {
            let args = Args::parse(argv)?;
            (args.require("input")?.to_string(), &[] as &[String])
        }
    };
    Args::parse(rest)?; // reject trailing junk with the usual message
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading snapshot {path}: {e}"))?;
    let doc = ctc_obs::json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    print!("{}", render_incident(&doc)?);
    Ok(ExitCode::SUCCESS)
}

/// One human-readable line per journal event (the JSON field set varies
/// by kind; everything beyond the common header prints as `key=value`).
fn render_event(ev: &ctc_obs::json::JsonValue) -> String {
    let num = |key: &str| ev.get(key).and_then(ctc_obs::json::JsonValue::as_f64);
    let mut line = format!(
        "  [{:>10} µs] {:<13} session={} seq={}",
        num("t_us").unwrap_or(0.0) as u64,
        ev.get("kind").and_then(|k| k.as_str()).unwrap_or("?"),
        num("session").unwrap_or(0.0) as u64,
        num("seq").unwrap_or(0.0) as u64,
    );
    if let Some(fields) = ev.as_object() {
        for (key, value) in fields {
            if matches!(key.as_str(), "t_us" | "kind" | "session" | "seq") {
                continue;
            }
            match (value.as_str(), value.as_bool(), value.as_f64()) {
                (Some(s), _, _) => line.push_str(&format!(" {key}={s}")),
                (_, Some(b), _) => line.push_str(&format!(" {key}={b}")),
                (_, _, Some(v)) => line.push_str(&format!(" {key}={v:.4}")),
                _ => {
                    if let Some(scores) = value.as_object() {
                        line.push_str(&format!(" {key}="));
                        let rendered: Vec<String> = scores
                            .iter()
                            .map(|(name, v)| {
                                format!("{name}:{:.4}", v.as_f64().unwrap_or(f64::NAN))
                            })
                            .collect();
                        line.push_str(&rendered.join(","));
                    }
                }
            }
        }
    }
    line.push('\n');
    line
}

/// The human-readable rendering behind `ctc obs report`.
fn render_incident(doc: &ctc_obs::json::JsonValue) -> Result<String, String> {
    if doc.get("type").and_then(|t| t.as_str()) != Some("ctc_incident") {
        return Err("not an incident snapshot (missing type: ctc_incident)".into());
    }
    let num = |v: &ctc_obs::json::JsonValue, key: &str| {
        v.get(key).and_then(ctc_obs::json::JsonValue::as_f64)
    };
    let mut out = String::new();
    out.push_str(&format!(
        "incident: trigger={} at t={} µs (dump #{})\n",
        doc.get("trigger").and_then(|t| t.as_str()).unwrap_or("?"),
        num(doc, "t_us").unwrap_or(0.0) as u64,
        num(doc, "dump_seq").unwrap_or(0.0) as u64,
    ));
    if let Some(ring) = doc.get("ring") {
        out.push_str(&format!(
            "ring: {} events recorded, capacity {}\n",
            num(ring, "recorded").unwrap_or(0.0) as u64,
            num(ring, "capacity").unwrap_or(0.0) as u64,
        ));
    }
    if let Some(config) = doc.get("config").and_then(|c| c.as_object()) {
        out.push_str("config:");
        for (key, value) in config {
            match (value.as_f64(), value.as_str()) {
                (Some(v), _) => out.push_str(&format!(" {key}={v}")),
                (_, Some(s)) => out.push_str(&format!(" {key}={s}")),
                _ => {}
            }
        }
        out.push('\n');
    }
    if let Some(sessions) = doc.get("sessions").and_then(|s| s.as_array()) {
        out.push_str(&format!("sessions ({}):\n", sessions.len()));
        for s in sessions {
            out.push_str(&format!(
                "  #{} stream={} shard={} samples_in={} bursts={} frames={} \
                 forgeries={} dropped={}\n",
                num(s, "id").unwrap_or(0.0) as u64,
                s.get("stream").and_then(|v| v.as_str()).unwrap_or("-"),
                num(s, "shard").unwrap_or(0.0) as u64,
                num(s, "samples_in").unwrap_or(0.0) as u64,
                num(s, "bursts").unwrap_or(0.0) as u64,
                num(s, "frames_decoded").unwrap_or(0.0) as u64,
                num(s, "forgeries").unwrap_or(0.0) as u64,
                num(s, "bursts_dropped").unwrap_or(0.0) as u64,
            ));
        }
    }
    if let Some(stages) = doc.get("stages").and_then(|s| s.as_object()) {
        out.push_str("stage latency (µs):\n");
        for (name, stats) in stages {
            out.push_str(&format!(
                "  {name:<9} count={:<6} p50={:<8} p99={:<8} max={}\n",
                num(stats, "count").unwrap_or(0.0) as u64,
                num(stats, "p50_us").unwrap_or(0.0) as u64,
                num(stats, "p99_us").unwrap_or(0.0) as u64,
                num(stats, "max_us").unwrap_or(0.0) as u64,
            ));
        }
    }
    if let Some(events) = doc.get("events").and_then(|e| e.as_array()) {
        out.push_str(&format!(
            "journal ({} events, newest last):\n",
            events.len()
        ));
        for ev in events {
            out.push_str(&render_event(ev));
        }
    }
    if let Some(delta) = doc.get("delta").and_then(|d| d.as_array()) {
        out.push_str(&format!(
            "registry delta since run start ({}):\n",
            delta.len()
        ));
        for d in delta {
            let labels = d
                .get("labels")
                .and_then(|l| l.as_object())
                .map(|pairs| {
                    pairs
                        .iter()
                        .map(|(k, v)| format!("{k}={:?}", v.as_str().unwrap_or("")))
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .filter(|s| !s.is_empty())
                .map(|s| format!("{{{s}}}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "  {}{labels} {} -> {} ({:+})\n",
                d.get("name").and_then(|n| n.as_str()).unwrap_or("?"),
                num(d, "before").unwrap_or(0.0),
                num(d, "after").unwrap_or(0.0),
                num(d, "delta").unwrap_or(0.0),
            ));
        }
    }
    Ok(out)
}

/// One `obs top` frame from the current scrape plus (optionally) the
/// previous scrape and the wall time between them for rate and movement
/// columns.
fn render_top(scrape: &ctc_obs::Scrape, prev: Option<(&ctc_obs::Scrape, Duration)>) -> String {
    let value = |s: &ctc_obs::Scrape, name: &str| s.value(name, &[]).unwrap_or(0.0);
    let rate = |name: &str| -> Option<f64> {
        let (before, dt) = prev?;
        let secs = dt.as_secs_f64();
        (secs > 0.0).then(|| (value(scrape, name) - value(before, name)) / secs)
    };
    let fmt_rate = |r: Option<f64>| match r {
        Some(r) => format!("{r:>12.0}/s"),
        None => format!("{:>14}", "—"),
    };

    let mut out = String::new();
    out.push_str("ctc obs top — gateway live view\n\n");
    out.push_str(&format!(
        "  samples   {:>14} total {}\n",
        value(scrape, "ctc_gateway_samples_total") as u64,
        fmt_rate(rate("ctc_gateway_samples_total")),
    ));
    out.push_str(&format!(
        "  bursts    {:>14} total {}\n",
        value(scrape, "ctc_gateway_bursts_total") as u64,
        fmt_rate(rate("ctc_gateway_bursts_total")),
    ));
    let forgeries = scrape
        .value("ctc_gateway_frames_total", &[("verdict", "attack")])
        .unwrap_or(0.0);
    // The frames family is split by verdict; the aggregate (no stream
    // label) is their sum.
    let frames_total: f64 = scrape
        .family("ctc_gateway_frames_total")
        .filter(|s| s.label("stream").is_none())
        .map(|s| s.value)
        .sum();
    out.push_str(&format!(
        "  frames    {:>14} total   ({} forgeries)\n",
        frames_total as u64, forgeries as u64,
    ));
    out.push_str(&format!(
        "  sessions  {:>14} active\n",
        value(scrape, "ctc_sessions_active") as u64,
    ));

    // Latency: interval percentiles when a previous scrape exists (the
    // histogram delta isolates just the last interval's observations),
    // all-time otherwise.
    if let Some(hist) = scrape.histogram("ctc_gateway_latency_us", &[]) {
        let (window, tag) = match prev.and_then(|(s, _)| s.histogram("ctc_gateway_latency_us", &[]))
        {
            Some(base) => (hist.delta_from(&base), "interval"),
            None => (Some(hist), "all-time"),
        };
        match window.filter(|h| h.count() > 0) {
            Some(h) => out.push_str(&format!(
                "  latency   p50 {:.0} µs   p99 {:.0} µs   ({} bursts, {tag})\n",
                h.quantile(0.5).unwrap_or(0.0),
                h.quantile(0.99).unwrap_or(0.0),
                h.count(),
            )),
            None => out.push_str(&format!("  latency   (no bursts this {tag})\n")),
        }
    }

    // Per-stream table: everything carrying a {stream="..."} label.
    let streams = scrape.label_values("ctc_gateway_samples_total", "stream");
    if !streams.is_empty() {
        out.push_str("\n  stream                 samples     frames  forgeries      drops\n");
        for stream in &streams {
            let labels: &[(&str, &str)] = &[("stream", stream)];
            let frames: f64 = scrape
                .family("ctc_gateway_frames_total")
                .filter(|s| s.label("stream") == Some(stream))
                .map(|s| s.value)
                .sum();
            out.push_str(&format!(
                "  {stream:<20} {:>9} {:>10} {:>10} {:>10}\n",
                scrape
                    .value("ctc_gateway_samples_total", labels)
                    .unwrap_or(0.0) as u64,
                frames as u64,
                scrape
                    .value(
                        "ctc_gateway_frames_total",
                        &[("stream", stream), ("verdict", "attack")]
                    )
                    .unwrap_or(0.0) as u64,
                scrape
                    .value("ctc_queue_dropped_total", labels)
                    .unwrap_or(0.0) as u64,
            ));
        }
    }

    // Detector-score movement: latest gauge per feature, with the change
    // since the previous frame when one exists.
    let features = scrape.label_values("ctc_detector_score", "feature");
    if !features.is_empty() {
        out.push_str("\n  feature                  score   movement\n");
        for feature in &features {
            let labels: &[(&str, &str)] = &[("feature", feature)];
            let now = scrape.value("ctc_detector_score", labels).unwrap_or(0.0);
            let movement = match prev {
                Some((before, _)) => {
                    let delta = now - before.value("ctc_detector_score", labels).unwrap_or(0.0);
                    format!("{delta:+10.4}")
                }
                None => format!("{:>10}", "—"),
            };
            out.push_str(&format!("  {feature:<20} {now:>9.4} {movement}\n"));
        }
    }
    out
}

/// `obs top --addr HOST:PORT`: live terminal view over a monitor's
/// Prometheus endpoint.
fn cmd_obs_top(args: &Args) -> Result<ExitCode, String> {
    use std::io::{IsTerminal, Write};

    let addr = args.require("addr")?;
    let interval = match args.get("interval") {
        Some(v) => parse_duration(v)?,
        None => Duration::from_secs(2),
    };
    // --count N renders N frames then exits (scripts/tests); the default
    // is to run until interrupted.
    let count = args.parse_num::<u64>("count")?;
    let clear = std::io::stdout().is_terminal();

    let mut prev: Option<(ctc_obs::Scrape, std::time::Instant)> = None;
    let mut frames = 0u64;
    loop {
        let scrape = ctc_obs::Scrape::fetch(addr).map_err(|e| format!("scraping {addr}: {e}"))?;
        let now = std::time::Instant::now();
        let frame = render_top(&scrape, prev.as_ref().map(|(s, t)| (s, now - *t)));
        let mut stdout = std::io::stdout().lock();
        if clear {
            // Clear + home: repaint in place like top(1). Piped output
            // gets plain frames back to back instead.
            let _ = write!(stdout, "\x1b[2J\x1b[H");
        }
        let _ = stdout.write_all(frame.as_bytes());
        let _ = stdout.flush();
        drop(stdout);
        prev = Some((scrape, now));
        frames += 1;
        if count.is_some_and(|c| frames >= c) {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(interval);
    }
}

fn cmd_vectors(argv: &[String]) -> Result<ExitCode, String> {
    let Some((action, rest)) = argv.split_first() else {
        return Err("vectors needs an action: generate, check, or diff".into());
    };
    let args = Args::parse(rest)?;
    let dir = Path::new(args.get("dir").unwrap_or("vectors")).to_path_buf();
    match action.as_str() {
        "generate" => {
            let mut spec = ctc_vectors::CorpusSpec::default();
            if let Some(seed) = args.parse_num::<u64>("seed")? {
                spec.seed = seed;
            }
            let vectors =
                ctc_vectors::generate(&spec).map_err(|e| format!("generation failed: {e}"))?;
            ctc_vectors::write_corpus(&dir, &spec, &vectors)
                .map_err(|e| format!("writing {}: {e}", dir.display()))?;
            println!(
                "wrote {} vectors + manifest to {} (seed {})",
                vectors.len(),
                dir.display(),
                spec.seed
            );
            for v in &vectors {
                println!(
                    "  {:<18} {:>8} {:<8} [{}]",
                    v.name,
                    v.payload.len(),
                    v.payload.kind().name(),
                    v.tolerance.describe()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "check" => match ctc_vectors::check_corpus(&dir) {
            Ok(reports) => {
                for r in &reports {
                    println!("ok  {r}");
                }
                println!("{} stages within tolerance", reports.len());
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => Err(format!("golden-vector check FAILED: {e}")),
        },
        "diff" => {
            let diffs = ctc_vectors::diff_corpus(&dir).map_err(|e| format!("diff failed: {e}"))?;
            let mut diverged = 0usize;
            for d in &diffs {
                match (&d.report, &d.first_divergence) {
                    (Some(r), None) => println!("ok    {r}"),
                    (Some(r), Some(first)) => {
                        diverged += 1;
                        println!("DIFF  {r}");
                        println!("      {first}");
                    }
                    (None, Some(first)) => {
                        diverged += 1;
                        println!("DIFF  {first}");
                    }
                    (None, None) => unreachable!("deviation yields a report or a divergence"),
                }
            }
            if diverged == 0 {
                println!("{} stages bit-compatible or within tolerance", diffs.len());
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::FAILURE)
            }
        }
        other => Err(format!(
            "unknown vectors action {other:?} (expected generate, check, or diff)"
        )),
    }
}

fn run() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(USAGE.into());
    };
    // `vectors` and `obs` take a positional action, so they parse their
    // own tails.
    if cmd == "vectors" {
        return cmd_vectors(rest);
    }
    if cmd == "obs" {
        return cmd_obs(rest);
    }
    if cmd == "detector" {
        return cmd_detector(rest);
    }
    let args = Args::parse(rest)?;
    let ok = |()| ExitCode::SUCCESS;
    match cmd.as_str() {
        "generate" => cmd_generate(&args).map(ok),
        "emulate" => cmd_emulate(&args).map(ok),
        "capture" => cmd_capture(&args).map(ok),
        "decode" => cmd_decode(&args).map(ok),
        "detect" => cmd_detect(&args),
        "listen" => cmd_listen(&args).map(ok),
        "monitor" => cmd_monitor(&args),
        "loadgen" => cmd_loadgen(&args),
        "spectrum" => cmd_spectrum(&args).map(ok),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_values_and_flags() {
        let a = args(&["--input", "x.cf32", "--soft", "--search", "96"]);
        assert_eq!(a.get("input"), Some("x.cf32"));
        assert!(a.flag("soft"));
        assert_eq!(a.parse_num::<usize>("search").unwrap(), Some(96));
        assert_eq!(a.get("missing"), None);
        assert!(a.require("missing").is_err());
    }

    #[test]
    fn rejects_positional_arguments() {
        let r = Args::parse(&["oops".to_string()]);
        assert!(r.is_err());
    }

    #[test]
    fn bad_number_reports_key() {
        let a = args(&["--threshold", "abc"]);
        let e = a.parse_num::<f64>("threshold").unwrap_err();
        assert!(e.contains("threshold"));
    }

    #[test]
    fn threshold_must_be_finite_and_positive() {
        for bad in ["0", "-0", "-1", "NaN", "nan", "inf", "-inf", "1e999", "abc"] {
            let e = detector_from(&args(&["--threshold", bad])).unwrap_err();
            assert!(
                e.starts_with("--threshold expects") && !e.contains('\n'),
                "{bad}: {e}"
            );
        }
        for (good, q) in [("0.25", 0.25), ("1e-9", 1e-9), ("3", 3.0)] {
            let detector = detector_from(&args(&["--threshold", good])).unwrap();
            assert_eq!(detector.threshold(), q);
        }
        assert_eq!(detector_from(&args(&[])).unwrap().threshold(), 0.5);
    }

    #[test]
    fn stats_interval_must_be_a_duration() {
        let stats = |v: &str| args(&["--stats", v]).parse_f64_where("stats", "", is_stats_interval);
        for bad in ["inf", "NaN", "-1", "1e999", "1e300"] {
            let e = stats(bad).unwrap_err();
            assert!(e.starts_with("--stats expects"), "{bad}: {e}");
        }
        assert_eq!(stats("0").unwrap(), Some(0.0));
        assert_eq!(stats("2.5").unwrap(), Some(2.5));
    }

    #[test]
    fn emulator_mode_validation() {
        let a = args(&["--mode", "nonsense"]);
        assert!(emulator_from(&a).is_err());
        let a = args(&["--mode", "carrier", "--subcarriers", "5"]);
        assert!(emulator_from(&a).is_ok());
    }

    #[test]
    fn receiver_options() {
        let a = args(&["--soft", "--fractional", "--search", "64"]);
        assert!(receiver_from(&a).is_ok());
    }

    #[test]
    fn duration_suffixes() {
        assert_eq!(parse_duration("60s").unwrap(), Duration::from_secs(60));
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("2m").unwrap(), Duration::from_secs(120));
        assert_eq!(parse_duration("0.5").unwrap(), Duration::from_secs_f64(0.5));
        assert!(parse_duration("0s").is_err());
        assert!(parse_duration("-3s").is_err());
        assert!(parse_duration("soon").is_err());
    }

    #[test]
    fn detector_spec_parsing() {
        let features = |list: &[&str]| pipeline_from(&args(list)).unwrap().feature_names().len();
        assert_eq!(features(&[]), 0);
        assert_eq!(features(&["--detector", "cumulant"]), 0);
        assert_eq!(features(&["--detector", "features"]), 16);
        let a = args(&["--detector", "nonsense"]);
        assert!(pipeline_from(&a).is_err());
        let a = args(&["--detector", "model:/no/such/file"]);
        assert!(pipeline_from(&a).unwrap_err().contains("reading model"));
        for extra in [&["--real"][..], &["--threshold", "0.25"]] {
            let mut list = vec!["--detector", "model:/no/such/file"];
            list.extend(extra);
            let e = pipeline_from(&args(&list)).unwrap_err();
            assert!(e.starts_with("--detector expects no --real"), "{e}");
        }
    }

    #[test]
    fn flight_flags() {
        let options = flight_options_from(&args(&[])).unwrap().unwrap();
        assert!(options.out.is_none());
        assert_eq!(options.capacity, ctc_obs::FlightRecorder::DEFAULT_CAPACITY);

        let a = args(&[
            "--flight-out",
            "x.json",
            "--flight-capacity",
            "64",
            "--flight-events",
            "16",
            "--flight-drop-budget",
            "8",
        ]);
        let options = flight_options_from(&a).unwrap().unwrap();
        assert_eq!(options.out.as_deref(), Some(Path::new("x.json")));
        assert_eq!(options.capacity, 64);
        assert_eq!(options.max_events, 16);
        assert_eq!(options.drop_budget, Some(8));

        // Capacity 0 compiles the recorder out of the run entirely.
        let a = args(&["--flight-capacity", "0"]);
        assert!(flight_options_from(&a).unwrap().is_none());
    }

    #[test]
    fn incident_report_renders_every_section() {
        let doc = ctc_obs::json::parse(
            r#"{"type":"ctc_incident","version":1,"trigger":"forgery","t_us":5120,
                "ring":{"capacity":1024,"recorded":7},
                "events":[
                  {"t_us":100,"kind":"session_open","session":1,"seq":0,"shard":0},
                  {"t_us":200,"kind":"burst","session":1,"seq":0,"start":700,"samples":520},
                  {"t_us":300,"kind":"stage","session":1,"seq":0,"stage":"decode","dur_us":40},
                  {"t_us":400,"kind":"verdict","session":1,"seq":0,"decoded":true,
                   "attack":true,"accepted_forgery":true,"de2":0.41,"fused":0.87,
                   "scores":{"de2_ideal":0.41}}],
                "stages":{"decode":{"count":1,"p50_us":40,"p99_us":40,"max_us":40}},
                "registry":[{"name":"ctc_gateway_bursts_total","labels":{},"value":1}],
                "delta":[{"name":"ctc_gateway_frames_total",
                          "labels":{"verdict":"attack"},"before":0,"after":1,"delta":1}],
                "sessions":[{"id":1,"stream":"uplink","shard":0,"samples_in":4096,
                             "bursts":1,"frames_decoded":1,"forgeries":1,"bursts_dropped":0}],
                "config":{"workers":2,"queue_depth":16},
                "dump_seq":1}"#,
        )
        .unwrap();
        let text = render_incident(&doc).unwrap();
        assert!(text.contains("trigger=forgery"), "{text}");
        assert!(text.contains("dump #1"), "{text}");
        assert!(text.contains("stream=uplink"), "{text}");
        assert!(text.contains("decode"), "{text}");
        assert!(text.contains("p50=40"), "{text}");
        assert!(text.contains("accepted_forgery=true"), "{text}");
        assert!(text.contains("de2_ideal:0.4100"), "{text}");
        assert!(
            text.contains("ctc_gateway_frames_total{verdict=\"attack\"} 0 -> 1 (+1)"),
            "{text}"
        );
        assert!(render_incident(&ctc_obs::json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn top_renders_rates_and_streams_from_scrape_pairs() {
        let before = ctc_obs::Scrape::parse(
            "ctc_gateway_samples_total 1000\n\
             ctc_gateway_bursts_total 1\n\
             ctc_gateway_frames_total{verdict=\"authentic\"} 1\n\
             ctc_gateway_frames_total{verdict=\"attack\"} 0\n\
             ctc_sessions_active 1\n\
             ctc_detector_score{feature=\"de2_ideal\"} 0.10\n\
             ctc_gateway_latency_us_bucket{le=\"100\"} 1\n\
             ctc_gateway_latency_us_bucket{le=\"+Inf\"} 1\n\
             ctc_gateway_latency_us_sum 80\n\
             ctc_gateway_latency_us_count 1\n",
        )
        .unwrap();
        let after = ctc_obs::Scrape::parse(
            "ctc_gateway_samples_total 3000\n\
             ctc_gateway_bursts_total 3\n\
             ctc_gateway_frames_total{verdict=\"authentic\"} 2\n\
             ctc_gateway_frames_total{verdict=\"attack\"} 1\n\
             ctc_gateway_samples_total{stream=\"uplink\"} 3000\n\
             ctc_gateway_frames_total{stream=\"uplink\",verdict=\"attack\"} 1\n\
             ctc_queue_dropped_total{stream=\"uplink\"} 2\n\
             ctc_sessions_active 1\n\
             ctc_detector_score{feature=\"de2_ideal\"} 0.45\n\
             ctc_gateway_latency_us_bucket{le=\"100\"} 3\n\
             ctc_gateway_latency_us_bucket{le=\"+Inf\"} 3\n\
             ctc_gateway_latency_us_sum 240\n\
             ctc_gateway_latency_us_count 3\n",
        )
        .unwrap();

        // First frame: totals only, no rate column yet.
        let first = render_top(&after, None);
        assert!(first.contains("3000"), "{first}");
        assert!(first.contains("(1 forgeries)"), "{first}");
        assert!(first.contains("uplink"), "{first}");
        assert!(first.contains("all-time"), "{first}");

        // Second frame: 2000 samples over 2 s = 1000/s, score moved.
        let frame = render_top(&after, Some((&before, Duration::from_secs(2))));
        assert!(frame.contains("1000/s"), "{frame}");
        assert!(frame.contains("interval"), "{frame}");
        assert!(frame.contains("+0.3500"), "{frame}");
    }

    #[test]
    fn loadgen_spec_flags() {
        let a = args(&[
            "--connect",
            "tcp://127.0.0.1:9000",
            "--streams",
            "32",
            "--mix",
            "1:1:0",
            "--rate",
            "0",
            "--seed",
            "42",
        ]);
        let spec = fleet_spec_from(&a).unwrap();
        assert_eq!(spec.streams, 32);
        assert_eq!(spec.mix.to_string(), "1:1:0");
        assert_eq!(spec.rate_msps, 0.0);
        assert_eq!(spec.seed, 42);

        let bad = args(&["--mix", "1:2"]);
        assert!(fleet_spec_from(&bad).unwrap_err().contains("--mix"));
        let bad = args(&["--streams", "0"]);
        assert!(fleet_spec_from(&bad).is_err());
    }
}
