//! Lock-free pipeline observability: monotonic counters plus a log-scale
//! latency histogram, all plain atomics so the hot paths never contend.
//!
//! The histogram itself now lives in [`ctc_obs`] (the workspace telemetry
//! layer); this module keeps the gateway-flavoured names and the snapshot
//! types the report and stats lines are built from. Each [`Session`](
//! crate::session::Session) owns one [`MetricsCore`]; run-wide totals are
//! snapshots merged at read time (see [`MetricsSnapshot::merge`]), so no
//! counter is bumped twice.

use ctc_core::defense::PipelineScores;
use ctc_obs::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Histogram of pipeline latencies in microseconds, power-of-two buckets.
///
/// Recording is wait-free; quantiles are linearly interpolated inside the
/// selected bucket (see [`ctc_obs::Histogram::quantile`]), so a
/// well-populated bucket resolves finer than a factor of two.
pub type LatencyHistogram = ctc_obs::Histogram;

/// One session's counters, bumped by its ingest thread and by the
/// workers that process its bursts.
#[derive(Debug, Default)]
pub struct MetricsCore {
    /// IQ samples ingested.
    pub samples_in: AtomicU64,
    /// Chunks ingested.
    pub chunks_in: AtomicU64,
    /// Bursts carved out of the stream.
    pub bursts: AtomicU64,
    /// Bursts whose frame decoded (payload passed the FCS).
    pub frames_decoded: AtomicU64,
    /// Decoded frames the detector attributed to the attacker.
    pub forgeries: AtomicU64,
    /// Bursts evicted under overload (drop-oldest policy).
    pub bursts_dropped: AtomicU64,
    /// Samples inside evicted bursts.
    pub samples_dropped: AtomicU64,
    /// Samples the energy gate scanned as zero power (power not finite).
    pub nonfinite_samples: AtomicU64,
    /// Arrival-to-verdict per-burst latency: from the return of the read
    /// that completed the burst to its classification.
    pub latency: LatencyHistogram,
}

/// A point-in-time copy of the counters, ready for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// IQ samples ingested.
    pub samples_in: u64,
    /// Chunks ingested.
    pub chunks_in: u64,
    /// Bursts carved out of the stream.
    pub bursts: u64,
    /// Bursts whose frame decoded.
    pub frames_decoded: u64,
    /// Decoded frames flagged as forgeries.
    pub forgeries: u64,
    /// Bursts evicted under overload.
    pub bursts_dropped: u64,
    /// Samples inside evicted bursts.
    pub samples_dropped: u64,
    /// Samples the energy gate scanned as zero power.
    pub nonfinite_samples: u64,
    /// Arrival-to-verdict per-burst latency.
    pub latency: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Median arrival-to-verdict latency (µs), when any was recorded.
    pub fn p50_us(&self) -> Option<u64> {
        self.latency.quantile(0.50)
    }

    /// 99th-percentile arrival-to-verdict latency (µs).
    pub fn p99_us(&self) -> Option<u64> {
        self.latency.quantile(0.99)
    }

    /// Adds `other`'s counters and latency observations into `self` —
    /// how run-wide totals are folded from per-session snapshots.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.samples_in += other.samples_in;
        self.chunks_in += other.chunks_in;
        self.bursts += other.bursts;
        self.frames_decoded += other.frames_decoded;
        self.forgeries += other.forgeries;
        self.bursts_dropped += other.bursts_dropped;
        self.samples_dropped += other.samples_dropped;
        self.nonfinite_samples += other.nonfinite_samples;
        self.latency.merge(&other.latency);
    }
}

/// Latest per-feature detector scores for a pipeline-equipped run —
/// f64 bits stored in relaxed atomics, the backing store for the
/// `ctc_detector_score{feature=...}` gauges (see [`crate::obs`]).
///
/// Cloning is cheap (an `Arc` bump), and registry collectors keep the
/// board alive after the run joins. Workers overwrite
/// slots with the most recent burst's values (a gauge, not an
/// accumulator), so a scrape sees the last classified burst.
#[derive(Debug, Clone)]
pub struct ScoreBoard {
    inner: Arc<ScoreBoardCore>,
}

#[derive(Debug)]
struct ScoreBoardCore {
    /// Feature names, aligned with `values`.
    names: Vec<&'static str>,
    /// Per-feature values as `f64::to_bits`.
    values: Vec<AtomicU64>,
    /// The fused classifier score as `f64::to_bits`.
    fused: AtomicU64,
}

impl ScoreBoard {
    /// A board with one slot per feature name, all starting at `0.0`.
    pub fn new(names: Vec<&'static str>) -> Self {
        let values = names.iter().map(|_| AtomicU64::new(0)).collect();
        ScoreBoard {
            inner: Arc::new(ScoreBoardCore {
                names,
                values,
                fused: AtomicU64::new(0),
            }),
        }
    }

    /// The feature names, in registration order.
    pub fn names(&self) -> &[&'static str] {
        &self.inner.names
    }

    /// Overwrites every slot with one burst's scores. Entries whose name
    /// is not on the board are ignored (a model may use a feature subset).
    pub fn record(&self, scores: &PipelineScores) {
        self.inner
            .fused
            .store(scores.fused.to_bits(), Ordering::Relaxed);
        for (name, value) in scores.features.entries() {
            if let Some(i) = self.inner.names.iter().position(|n| n == name) {
                self.inner.values[i].store(value.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// The latest value for feature slot `index`.
    pub fn value(&self, index: usize) -> f64 {
        f64::from_bits(self.inner.values[index].load(Ordering::Relaxed))
    }

    /// The latest fused classifier score.
    pub fn fused(&self) -> f64 {
        f64::from_bits(self.inner.fused.load(Ordering::Relaxed))
    }
}

/// A server run's session-lifecycle counts, folded from its
/// [`SessionTable`](crate::session::SessionTable) when read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerMetricsSnapshot {
    /// Sessions accepted so far.
    pub sessions_opened: u64,
    /// Sessions closed cleanly.
    pub sessions_closed: u64,
    /// Connections refused at the session limit.
    pub sessions_refused: u64,
    /// Sessions that died with a read error.
    pub sessions_errored: u64,
}

impl ServerMetricsSnapshot {
    /// Sessions currently live.
    pub fn active(&self) -> u64 {
        self.sessions_opened
            .saturating_sub(self.sessions_closed)
            .saturating_sub(self.sessions_errored)
    }
}

impl MetricsCore {
    /// Copies every counter at once (individually relaxed-consistent).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            samples_in: load(&self.samples_in),
            chunks_in: load(&self.chunks_in),
            bursts: load(&self.bursts),
            frames_decoded: load(&self.frames_decoded),
            forgeries: load(&self.forgeries),
            bursts_dropped: load(&self.bursts_dropped),
            samples_dropped: load(&self.samples_dropped),
            nonfinite_samples: load(&self.nonfinite_samples),
            latency: self.latency.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let m = MetricsCore::default();
        m.samples_in.fetch_add(100, Ordering::Relaxed);
        m.forgeries.fetch_add(2, Ordering::Relaxed);
        m.latency.record(50);
        let s = m.snapshot();
        assert_eq!(s.samples_in, 100);
        assert_eq!(s.forgeries, 2);
        assert!(s.p50_us().is_some());
        assert_eq!(s.p99_us(), s.p50_us());
    }

    #[test]
    fn score_board_records_latest_burst() {
        use ctc_core::defense::FeatureVector;

        let board = ScoreBoard::new(vec!["de2_ideal", "clustered_evm"]);
        let clone = board.clone();
        let mut features = FeatureVector::default();
        features.push("de2_ideal", 0.125);
        features.push("clustered_evm", 0.5);
        features.push("unknown_extra", 9.0); // ignored: not on the board
        board.record(&PipelineScores {
            fused: 0.125,
            features,
        });
        assert_eq!(clone.fused(), 0.125);
        assert_eq!(clone.value(0), 0.125);
        assert_eq!(clone.value(1), 0.5);
        assert_eq!(clone.names(), ["de2_ideal", "clustered_evm"]);
    }
}
