//! The untraced gateway run: set-up, the measured `run_streams` call,
//! the timestamping event sink and the process counters read around it.

use crate::gen::{GenStream, Traffic};
use crate::workload::Workload;
use ctc_core::defense::{ChannelAssumption, DetectionPipeline, Detector};
use ctc_gateway::{
    FlightOptions, GatewayConfig, GatewayServer, NamedStream, ServerConfig, ServerReport,
};
use ctc_obs::Registry;
use ctc_zigbee::Receiver;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Decode/classify workers, pinned so runs compare across machines
/// (`ctc monitor` defaults to nproc − 1).
pub const WORKERS: usize = 2;

/// Bursts per shard queue (`ctc monitor --queue 512`). The default 64
/// holds ~93 ms of the busy workloads' traffic per stream, less than the
/// hypervisor stalls of a 2-vCPU virtual machine, which then shed bursts
/// and fail the run.
pub const QUEUE_DEPTH: usize = 512;

/// Set-ups per batch; a run makes one batch before the measured run and
/// one after it, and `setup_s` is the lower decile of both batches' CPU
/// times.
pub const SETUP_REPS: usize = 101;

/// DE² threshold: `ctc monitor --threshold 0.25`, the CLI's documented
/// example and the loadgen's calibration. The default Q = 0.5 accepts
/// the loadgen forgery (DE² ≈ 0.35) as authentic.
pub const THRESHOLD: f64 = 0.25;

/// The detector `ctc monitor --threshold 0.25` runs (ideal channel).
pub fn detector() -> Detector {
    Detector::new(ChannelAssumption::Ideal).with_threshold(THRESHOLD)
}

/// The receiver `ctc monitor` runs without `--search`.
pub fn receiver() -> Receiver {
    Receiver::usrp().with_sync_search(96)
}

/// The event sink handed to the gateway: appends bytes and stamps the
/// time each newline arrives. Parsing happens after the run.
#[derive(Debug, Default)]
pub struct EventLog {
    pub bytes: Vec<u8>,
    pub stamps: Vec<Instant>,
}

impl EventLog {
    /// A log with room for `lines` event lines of up to 1 KiB, every page
    /// written once so that it is resident before the run: the log's
    /// share of the peak RSS is then exactly [`EventLog::resident_bytes`]
    /// as long as it never outgrows that room.
    pub fn pre_touched(lines: usize) -> EventLog {
        let mut bytes = vec![1u8; lines * 1024];
        let mut stamps = vec![Instant::now(); lines];
        bytes.clear();
        stamps.clear();
        EventLog { bytes, stamps }
    }

    /// Bytes the log holds resident.
    pub fn resident_bytes(&self) -> usize {
        self.bytes.capacity() + self.stamps.capacity() * std::mem::size_of::<Instant>()
    }

    /// The logged lines, without their newlines.
    pub fn lines(&self) -> Result<Vec<&str>, String> {
        let text = std::str::from_utf8(&self.bytes).map_err(|e| format!("event log: {e}"))?;
        Ok(text.lines().collect())
    }
}

impl Write for EventLog {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let newlines = buf.iter().filter(|&&b| b == b'\n').count();
        if newlines > 0 {
            let now = Instant::now();
            self.stamps.extend(std::iter::repeat_n(now, newlines));
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Builds the server as `ctc monitor --threshold 0.25 --queue 512
/// --stats 0` would: default receiver, cumulant detector (or `--detector
/// features`), a registry with the process gauges, the flight recorder at
/// default capacity and no trace sink.
pub fn build_server(w: &Workload) -> Result<GatewayServer, String> {
    let detector = detector();
    let mut builder = GatewayConfig::builder()
        .receiver(receiver())
        .detector(detector)
        .workers(WORKERS)
        .queue_depth(QUEUE_DEPTH)
        .stats_interval(None);
    if w.features {
        builder = builder.detection_pipeline(DetectionPipeline::standard(detector).shared());
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let registry = Arc::new(Registry::new());
    ctc_obs::register_process_metrics(&registry);
    Ok(GatewayServer::new(ServerConfig::from(config))
        .with_registry(registry)
        .with_flight(FlightOptions::default()))
}

/// Seconds each set-up took.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Wall time.
    pub wall: Vec<f64>,
    /// Process CPU time, every thread's (the workers' included).
    pub cpu: Vec<f64>,
}

/// Sets the server up [`SETUP_REPS`] times, each time pushing the
/// pre-rendered `warmup` frame to its verdict. Returns the last server
/// (warm) and every set-up's times.
pub fn setup(w: &Workload, warmup: &[u8]) -> Result<(GatewayServer, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let cpu_started = process_cpu_seconds();
        let server = build_server(w)?;
        let mut log = EventLog::default();
        server
            .run_streams(
                vec![NamedStream::new("warmup", warmup)],
                &mut log,
                &mut io::sink(),
            )
            .map_err(|e| format!("warm-up run: {e}"))?;
        times.cpu.push(process_cpu_seconds() - cpu_started);
        times.wall.push(started.elapsed().as_secs_f64());
        let text = String::from_utf8_lossy(&log.bytes);
        if !text.contains("\"verdict\":\"authentic\"") {
            return Err(format!("warm-up frame got no authentic verdict: {text}"));
        }
        last = Some(server);
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

/// Sampling window of the measured run: rates and latency percentiles
/// are taken per window and reported as a quartile over windows, so a
/// burst of interference from outside the process moves one window, not
/// the result.
pub const WINDOW: Duration = Duration::from_secs(2);

/// One reading of the process CPU clock and the generator's progress.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    pub at: Instant,
    /// Process CPU seconds ([`process_cpu_seconds`]).
    pub cpu_s: f64,
    /// Samples handed over to the gateway so far.
    pub samples: u64,
    /// Host (steal, total) jiffies, where `/proc/stat` reports them.
    pub steal: Option<(u64, u64)>,
}

impl Tick {
    /// Share of the host's CPU time stolen between `self` and `later`.
    pub fn steal_share(&self, later: &Tick) -> Option<f64> {
        match (self.steal, later.steal) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                Some((s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => None,
        }
    }
}

fn tick(traffic: &Traffic) -> Tick {
    Tick {
        at: Instant::now(),
        cpu_s: process_cpu_seconds(),
        samples: traffic.handed_over(),
        steal: host_steal(),
    }
}

/// The measured run and what was read around it.
pub struct Measured {
    pub report: ServerReport,
    pub log: EventLog,
    /// [`EventLog::resident_bytes`] when the run started.
    pub log_resident_bytes: usize,
    /// Readings before the run, every [`WINDOW`] during it, and after it.
    pub ticks: Vec<Tick>,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// run, where `/proc/stat` reports it.
    pub steal_share: Option<f64>,
}

/// (steal, total) jiffies over all CPUs from `/proc/stat`.
fn host_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Runs the generated streams through `server.run_streams` while a
/// sampler thread reads the CPU clock once per [`WINDOW`].
pub fn measure(
    server: &GatewayServer,
    traffic: &Traffic,
    gens: &mut [GenStream<'_>],
    labels: &[String],
    expected_lines: usize,
) -> Result<Measured, String> {
    let mut log = EventLog::pre_touched(expected_lines);
    let log_resident_bytes = log.resident_bytes();
    let streams = gens
        .iter_mut()
        .zip(labels)
        .map(|(g, label)| NamedStream::new(label, g))
        .collect();
    let done = AtomicBool::new(false);
    let start = tick(traffic);
    let (report, mut ticks) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut ticks = Vec::new();
            let mut next = start.at + WINDOW;
            while !done.load(SeqCst) {
                let now = Instant::now();
                if now < next {
                    std::thread::park_timeout(next - now);
                    continue;
                }
                ticks.push(tick(traffic));
                next += WINDOW;
            }
            ticks
        });
        let report = server.run_streams(streams, &mut log, &mut io::sink());
        done.store(true, SeqCst);
        sampler.thread().unpark();
        (report, sampler.join().expect("sampler thread panicked"))
    });
    let report = report.map_err(|e| format!("measured run: {e}"))?;
    ticks.insert(0, start);
    ticks.push(tick(traffic));
    let steal_share = start.steal_share(&ticks[ticks.len() - 1]);
    Ok(Measured {
        report,
        log,
        log_resident_bytes,
        ticks,
        steal_share,
    })
}

/// CPU seconds of this process so far, every thread's, dead ones
/// included, to the nanosecond (`CLOCK_PROCESS_CPUTIME_ID`).
/// (`/proc/self/stat` holds the same user+sys time, in 10-ms ticks: too
/// coarse for a set-up or a sampler window.)
pub fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // words on 64-bit Linux, which the crate root requires) and the clock
    // id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("/proc/self/status: no VmHWM")?;
    Ok(kb / 1024.0)
}
