//! The wait-free metric primitive: a log-scale fixed-bucket histogram of
//! plain atomics, so hot paths never contend. Counters and gauges need
//! no type of their own: their owners keep `AtomicU64`s and publish them
//! through registry collectors.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two histogram buckets (bucket `i` covers
/// `[2^i, 2^(i+1))`; the last bucket is open-ended).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Histogram over `u64` observations (canonically microseconds), with
/// power-of-two buckets: bucket `i` counts values in `[2^i, 2^(i+1))`,
/// the last bucket is open-ended, and zero lands in the first bucket.
///
/// Recording is wait-free (one relaxed `fetch_add` for the bucket, one for
/// the running sum) — what a per-frame hot path wants. Quantiles are
/// linearly interpolated inside the selected bucket (see
/// [`quantile`](Histogram::quantile)).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

/// A point-in-time copy of a [`Histogram`], ready for exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (not cumulative).
    pub counts: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The bucket's inclusive upper bound as exposed to Prometheus
    /// (`le` label): `2^(i+1)`.
    pub fn upper_bound(i: usize) -> u64 {
        1u64 << (i + 1).min(63)
    }

    /// Adds `other`'s observations into `self`, bucket by bucket: the
    /// result is the snapshot of one histogram that recorded both sets
    /// (wrapping like the histogram's own atomic adds).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c = c.wrapping_add(*o);
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The value at quantile `q` in `[0, 1]`, or `None` when nothing was
    /// recorded.
    ///
    /// The rank-`r` observation of the `c` in bucket `[lo, hi)` is
    /// estimated as `lo + (hi - lo) · r/c` — a linear interpolation over
    /// the bucket's range, so quantiles inside a well-populated bucket
    /// resolve finer than a factor of two. The open-ended last bucket has
    /// no upper edge to interpolate toward and reports its nominal bound.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let upper = HistogramSnapshot::upper_bound(i);
                if i == HISTOGRAM_BUCKETS - 1 {
                    return Some(upper);
                }
                let lower = 1u64 << i;
                let frac = (rank - seen) as f64 / c as f64;
                return Some((lower as f64 + frac * (upper - lower) as f64).round() as u64);
            }
            seen += c;
        }
        Some(u64::MAX)
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let bucket = (u64::BITS - value.max(1).leading_zeros() - 1) as usize;
        let bucket = bucket.min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copies the bucket counts and sum at once (relaxed-consistent).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for (c, b) in counts.iter_mut().zip(&self.buckets) {
            *c = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// The value at quantile `q` in `[0, 1]`, or `None` when nothing was
    /// recorded (see [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Concurrent records never lose an observation: N threads record
    /// into one histogram, and its count and sum are exact.
    #[test]
    fn concurrent_records_are_exact() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 20_000;
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..PER_THREAD {
                        h.record(i % 1000);
                    }
                });
            }
        });
        assert_eq!(h.count(), THREADS * PER_THREAD);
        let expected_sum: u64 = (0..PER_THREAD).map(|i| i % 1000).sum::<u64>() * THREADS;
        assert_eq!(h.sum(), expected_sum);
    }

    #[test]
    fn histogram_tracks_sum_and_count() {
        let h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 60);
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum, 60);
    }

    /// The PR 5 interpolation fix: quantiles inside a populated bucket are
    /// a linear estimate over the bucket range, not its upper edge.
    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        let h = Histogram::new();
        // Four observations, all in bucket 3 = [8, 16).
        for v in [9u64, 10, 12, 14] {
            h.record(v);
        }
        // rank 1 of 4 -> 8 + 8·(1/4) = 10; rank 2 -> 12; rank 4 -> 16.
        assert_eq!(h.quantile(0.25), Some(10));
        assert_eq!(h.quantile(0.5), Some(12));
        assert_eq!(h.quantile(1.0), Some(16));
    }

    #[test]
    fn interpolation_spans_multiple_buckets() {
        let h = Histogram::new();
        h.record(10); // bucket 3
        h.record(10); // bucket 3
        h.record(100); // bucket 6 = [64, 128)
        h.record(100); // bucket 6
                       // rank 1 -> bucket 3, frac 1/2 -> 8 + 4 = 12.
        assert_eq!(h.quantile(0.25), Some(12));
        // rank 3 -> bucket 6, frac 1/2 -> 64 + 32 = 96.
        assert_eq!(h.quantile(0.75), Some(96));
        assert_eq!(h.quantile(1.0), Some(128));
    }

    #[test]
    fn open_ended_bucket_reports_nominal_bound() {
        let h = Histogram::new();
        h.record(1u64 << (HISTOGRAM_BUCKETS - 1));
        h.record(u64::MAX);
        // No upper edge to interpolate toward: every quantile is the
        // nominal bound.
        assert_eq!(h.quantile(0.0), Some(1u64 << HISTOGRAM_BUCKETS));
        assert_eq!(h.quantile(1.0), Some(1u64 << HISTOGRAM_BUCKETS));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn zero_lands_in_first_bucket() {
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(0.5), Some(2));
    }

    #[test]
    fn single_observation_is_every_quantile() {
        let h = Histogram::new();
        h.record(100); // bucket 6: [64, 128) -> bound 128
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(128), "q = {q}");
        }
    }

    #[test]
    fn extreme_quantiles_hit_first_and_last_observation() {
        let h = Histogram::new();
        // Bucket 0 is [1, 2), bucket 9 is [512, 1024).
        h.record(1);
        h.record(1000);
        // q = 0 clamps to rank 1: the smallest observation's bucket bound.
        assert_eq!(h.quantile(0.0), Some(2));
        // q = 1 is the largest observation's bucket bound.
        assert_eq!(h.quantile(1.0), Some(1024));
        // Out-of-range q clamps rather than panics or skips buckets.
        assert_eq!(h.quantile(-3.0), Some(2));
        assert_eq!(h.quantile(7.5), Some(1024));
    }

    /// Run-wide latency is the merge of per-session histograms: it must
    /// read exactly as one histogram that recorded every observation.
    #[test]
    fn merged_snapshots_equal_one_histogram_of_both_sets() {
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [0u64, 3, 9, 10, 120, 4000] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 10, 14, 700, 700, 90_000, u64::MAX / 4] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
        assert_eq!(merged.count(), 13);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), both.quantile(q), "q = {q}");
        }
        let mut empty = HistogramSnapshot::default();
        empty.merge(&HistogramSnapshot::default());
        assert_eq!(empty.quantile(0.5), None);
    }
}
