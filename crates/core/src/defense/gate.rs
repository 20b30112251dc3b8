//! The energy gate: where frames start and end in a continuous sample
//! stream.
//!
//! A defending gateway cuts each burst out of a live stream before it runs
//! the per-frame hypothesis test (Sec. VI-B3), and the attacker's listening
//! phase ([`crate::attack::listener`], Sec. IV) has to find the victim's
//! frame in its recording. Both run this one gate: [`EnergyStream`]
//! compares a sliding window's mean power against a causal noise floor, so
//! every decision depends on the samples seen so far and any chunking of a
//! stream finds the same bursts. [`EnergyDetector`] is its configuration,
//! and [`BurstSplitter`](crate::defense::BurstSplitter) cuts each burst it
//! finds out of the stream with a guard margin.

use ctc_dsp::io::IqSample;
use ctc_dsp::{simd, Complex};

/// One frame-shaped burst found in a recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// First sample index of the burst.
    pub start: usize,
    /// One past the last sample index.
    pub end: usize,
}

impl Burst {
    /// Burst length in samples.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the burst is empty (never produced by the detector).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Energy-based burst detector.
///
/// A sliding window of `window` samples is compared against
/// `threshold x noise_floor`; bursts shorter than `min_len` are discarded
/// and gaps shorter than `hang` samples do not terminate a burst (ZigBee's
/// O-QPSK envelope never actually drops mid-frame, but channel fades might).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyDetector {
    /// Sliding-window length in samples.
    pub window: usize,
    /// Power ratio over the noise floor that declares activity.
    pub threshold: f64,
    /// Minimum burst length in samples.
    pub min_len: usize,
    /// Hang time: gap tolerated inside one burst.
    pub hang: usize,
}

impl Default for EnergyDetector {
    fn default() -> Self {
        EnergyDetector {
            window: 16,
            threshold: 4.0,
            min_len: 128,
            hang: 32,
        }
    }
}

impl EnergyDetector {
    /// Starts a resumable streaming detection session with this
    /// configuration (see [`EnergyStream`]).
    ///
    /// # Panics
    ///
    /// Panics when `window == 0`.
    pub fn stream(&self) -> EnergyStream {
        EnergyStream::new(*self)
    }
}

/// Resumable, chunk-invariant burst detection over an unbounded stream.
///
/// Each window's mean power is a fresh sum of its samples' powers
/// ([`simd::window_sum`]), so no rounding carries from one window to the
/// next and one huge sample sways only the windows that hold it. The noise
/// floor is causal: an exponential moving average (weight 1/64) of the
/// windowed power, seeded by the first full window and updated only while
/// the channel is judged idle, so frames do not drag the floor up. It is
/// evaluated per block of [`simd::GATE_BLOCK`] windows, the blocks aligned
/// to the absolute sample index (see [`simd::gated_scan`]): a block loud
/// throughout keeps its base floor, a block idle throughout commits the
/// end of its closed-form idle trajectory, and any other block steps one
/// window at a time. The session holds the samples of a partial block
/// until a later chunk completes it (or [`finish`](Self::finish) steps
/// them), so every decision is a function of the sample prefix alone,
/// which makes the event sequence identical for **any** chunking of the
/// same stream — the property the streaming defense is tested against.
/// The held windows still reach the burst bookkeeping on arrival wherever
/// the rest of their block cannot change their flags
/// ([`simd::gated_prefix`]), so a burst is handed out by the chunk that
/// brings the window closing it. Only at a tie with the gate within
/// rounding does a decision wait, for at most 7 more samples or the end
/// of the stream.
///
/// State is O(`window`): suitable for arbitrarily long streams.
///
/// # Examples
///
/// ```
/// use ctc_core::defense::EnergyDetector;
/// use ctc_dsp::Complex;
///
/// let mut stream = EnergyDetector::default().stream();
/// let quiet = vec![Complex::new(1e-3, 0.0); 400];
/// let loud = vec![Complex::ONE; 400];
/// assert!(stream.push(&quiet).is_empty());
/// let mut bursts = stream.push(&loud);
/// bursts.extend(stream.push(&quiet));
/// bursts.extend(stream.finish());
/// assert_eq!(bursts.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyStream {
    config: EnergyDetector,
    /// Bursts longer than this are force-closed (and flagged), bounding
    /// the memory of anything buffering the burst's samples downstream.
    max_burst: usize,
    /// Powers of the last `window` judged samples, oldest first.
    ring: Vec<f64>,
    /// The floating-point scan state (the last window's sum, EWMA noise
    /// floor, cached gate), advanced in bulk by [`simd::gated_scan`].
    scan: simd::GateScanState,
    /// Total samples consumed, held ones included.
    total: usize,
    /// Scratch for per-sample activity flags from the scan kernel.
    active: Vec<u8>,
    /// Samples whose `|x|²` was not finite, scanned as zero power.
    nonfinite: u64,
    /// The consumed samples of the block not yet complete (the first
    /// `held_len`), widened, a non-finite one held as zero.
    held: [Complex; simd::GATE_BLOCK],
    /// How many samples `held` holds (always below a block).
    held_len: usize,
    /// How many of the held samples' windows the burst bookkeeping has
    /// seen: their flags stand whatever completes the block.
    settled: usize,
    /// True once the first windowed power has seeded the floor.
    floor_seeded: bool,
    /// Start (power index) of the currently open burst.
    start: Option<usize>,
    /// Most recent active power index.
    last_active: usize,
}

/// How a [`StreamedBurst`] was terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstEnd {
    /// The envelope dropped below the gate for longer than the hang time.
    Gap,
    /// The burst exceeded the stream's `max_burst` cap and was split.
    Overlong,
    /// [`EnergyStream::finish`] closed it at end of stream.
    EndOfStream,
}

/// A burst found by [`EnergyStream`], with how it ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamedBurst {
    /// The burst, in absolute stream sample indices.
    pub burst: Burst,
    /// Why the burst closed.
    pub end_reason: BurstEnd,
}

impl StreamedBurst {
    /// True when the burst did not end cleanly on an idle gap — its tail
    /// (or the next burst's head) may be missing.
    pub fn truncated(&self) -> bool {
        self.end_reason != BurstEnd::Gap
    }
}

/// EWMA weight for the noise-floor tracker: long enough to ride out
/// fades, short enough to re-converge within a typical inter-frame gap.
const FLOOR_ALPHA: f64 = 1.0 / 64.0;

/// First index `>= pos` where `flags` stops equalling `cur` (or
/// `flags.len()`). The idle-channel hot loop spends its non-kernel time
/// here, and a naive `iter().position(..)` byte loop stays scalar (LLVM
/// does not vectorize early-exit searches against a runtime byte), so scan
/// a word at a time: any byte differing from the repeated-`cur` pattern
/// shows up in the XOR, and the first set bit names it.
#[inline]
fn run_end(flags: &[u8], pos: usize, cur: u8) -> usize {
    let rest = &flags[pos..];
    let pat = u64::from_ne_bytes([cur; 8]);
    let mut off = 0;
    for word in rest.chunks_exact(8) {
        let v = u64::from_ne_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
        if v != pat {
            let first = word
                .iter()
                .position(|&b| b != cur)
                .expect("some byte differs: v != pat");
            return pos + off + first;
        }
        off += 8;
    }
    match rest[off..].iter().position(|&b| b != cur) {
        Some(d) => pos + off + d,
        None => flags.len(),
    }
}

impl EnergyStream {
    /// Fresh session for the given detector configuration.
    ///
    /// # Panics
    ///
    /// Panics when `config.window == 0`.
    pub fn new(config: EnergyDetector) -> Self {
        assert!(config.window > 0, "window must be positive");
        EnergyStream {
            config,
            max_burst: usize::MAX,
            ring: Vec::with_capacity(config.window),
            scan: simd::GateScanState {
                slot: 0,
                acc: 0.0,
                floor: 0.0,
                gate: 0.0,
                threshold: config.threshold,
                alpha: FLOOR_ALPHA,
                floor_eps: 1e-12,
                inv_w: if config.window.is_power_of_two() {
                    1.0 / config.window as f64
                } else {
                    0.0
                },
            },
            total: 0,
            active: Vec::new(),
            nonfinite: 0,
            held: [Complex::ZERO; simd::GATE_BLOCK],
            held_len: 0,
            settled: 0,
            floor_seeded: false,
            start: None,
            last_active: 0,
        }
    }

    /// Mean power of the last full window; `acc / window`, via the exact
    /// reciprocal when the window is a power of two.
    #[inline]
    fn window_mean(&self) -> f64 {
        if self.scan.inv_w != 0.0 {
            self.scan.acc * self.scan.inv_w
        } else {
            self.scan.acc / self.config.window as f64
        }
    }

    /// Caps burst length; longer transmissions are split into consecutive
    /// bursts flagged [`BurstEnd::Overlong`].
    ///
    /// # Panics
    ///
    /// Panics when `max < config.min_len`.
    pub fn with_max_burst(mut self, max: usize) -> Self {
        assert!(
            max >= self.config.min_len,
            "max_burst must not be below min_len"
        );
        self.max_burst = max;
        self
    }

    /// The configuration this session was built from.
    pub fn config(&self) -> &EnergyDetector {
        &self.config
    }

    /// Total samples consumed so far.
    pub fn samples_seen(&self) -> usize {
        self.total
    }

    /// Samples scanned as zero power because their `|x|²` was not finite
    /// (a NaN or infinite component, or a square that overflows). One such
    /// sample would otherwise stay in the window sum for good and blind
    /// the gate.
    pub fn nonfinite_samples(&self) -> u64 {
        self.nonfinite
    }

    /// Noise-floor estimate after the last complete block of windows
    /// (`None` before the first full window): samples held for a partial
    /// block have not moved it yet.
    pub fn noise_floor(&self) -> Option<f64> {
        self.floor_seeded.then_some(self.scan.floor)
    }

    /// Consumes a batch of samples, parsed or in their cf32 byte form,
    /// handing each completed burst to `sink`. The single source of truth
    /// behind every entry point, so every chunking of a stream, and either
    /// sample form, takes the identical arithmetic path.
    ///
    /// Warm-path samples run through [`simd::gated_scan`] — the whole
    /// floating-point scan (`|x|²`, window sums, gate compare, EWMA
    /// floor) in one kernel call per run of whole blocks — leaving only
    /// integer burst bookkeeping here, which `process_flags` does
    /// run-by-run rather than sample-by-sample. The kernel sees only whole
    /// blocks, aligned to the absolute sample index; the samples of a
    /// partial block wait in `held` for the chunk that completes it, and
    /// the bookkeeping sees their windows as soon as their flags stand.
    pub(crate) fn feed<S: IqSample>(&mut self, chunk: &[S], sink: &mut impl FnMut(StreamedBurst)) {
        let w = self.config.window;
        let mut rest = chunk;
        // Cold path: fill the first window one sample at a time; the first
        // full window seeds the noise floor and is judged idle.
        while self.ring.len() < w {
            let Some((s, tail)) = rest.split_first() else {
                return;
            };
            rest = tail;
            let mut n = s.widen().norm_sqr();
            if !n.is_finite() {
                n = 0.0;
                self.nonfinite += 1;
            }
            self.ring.push(n);
            self.total += 1;
            if self.ring.len() == w {
                self.scan.acc = simd::window_sum(&self.ring);
                let p = self.window_mean();
                self.seed_floor(p.max(1e-12));
            }
        }
        const B: usize = simd::GATE_BLOCK;
        if !self.total.is_multiple_of(B) {
            // Complete the held block (or, after a window that is not a
            // whole number of blocks, the short block before the first
            // block boundary).
            let take = (B - self.total % B).min(rest.len());
            for &s in &rest[..take] {
                self.hold(s);
            }
            self.total += take;
            rest = &rest[take..];
            if !self.total.is_multiple_of(B) {
                self.settle(sink);
                return;
            }
            let (held, n) = (self.held, std::mem::take(&mut self.held_len));
            let settled = std::mem::take(&mut self.settled);
            self.judge(&held[..n], self.total - n, settled, sink);
        }
        let whole = rest.len() - rest.len() % B;
        if whole > 0 {
            self.judge(&rest[..whole], self.total, 0, sink);
            self.total += whole;
        }
        for &s in &rest[whole..] {
            self.hold(s);
        }
        self.total += rest.len() - whole;
        self.settle(sink);
    }

    /// Hands the bookkeeping the held windows it has not seen, where the
    /// rest of their block cannot change their flags.
    fn settle(&mut self, sink: &mut impl FnMut(StreamedBurst)) {
        let n = self.held_len;
        let mut flags = [0u8; simd::GATE_BLOCK];
        if n > self.settled
            && simd::gated_prefix(&self.held[..n], &self.ring, &self.scan, &mut flags)
        {
            let first = self.total - n + self.settled;
            self.process_flags(
                &flags[self.settled..n],
                first + 1 - self.config.window,
                sink,
            );
            self.settled = n;
        }
    }

    /// Keeps one sample of a partial block for a later chunk, widened (a
    /// [`Cf32`](ctc_dsp::io::Cf32) pair exactly as the kernel would widen
    /// it). A sample whose power is not finite is counted now and held as
    /// zero, which the kernel scans as the same zero power.
    fn hold<S: IqSample>(&mut self, s: S) {
        let mut v = s.widen();
        if !v.norm_sqr().is_finite() {
            v = Complex::ZERO;
            self.nonfinite += 1;
        }
        self.held[self.held_len] = v;
        self.held_len += 1;
    }

    /// Runs the scan kernel over `x`, whose first sample has absolute
    /// index `first`, and the burst bookkeeping over its flags but the
    /// first `settled`, which it has seen.
    fn judge<S: IqSample>(
        &mut self,
        x: &[S],
        first: usize,
        settled: usize,
        sink: &mut impl FnMut(StreamedBurst),
    ) {
        let mut active = std::mem::take(&mut self.active);
        // Grow-only scratch: the kernel writes every flag it scans, so
        // stale bytes beyond previous chunks never get read.
        if active.len() < x.len() {
            active.resize(x.len(), 0);
        }
        self.nonfinite +=
            simd::gated_scan(x, &mut self.ring, &mut self.scan, &mut active[..x.len()]) as u64;
        // Power index of the window completed by the first unseen sample.
        let base = first + settled + 1 - self.config.window;
        self.process_flags(&active[settled..x.len()], base, sink);
        self.active = active;
    }

    /// The earliest sample index a burst not yet handed out can start
    /// at: the open burst's start, or else the first window the burst
    /// bookkeeping has not seen.
    pub(crate) fn reach(&self) -> usize {
        let unseen = self.total - self.held_len + self.settled;
        let next = (unseen + 1).saturating_sub(self.config.window);
        self.start.map_or(next, |s| s.min(next))
    }

    /// Burst bookkeeping over a batch of activity flags, run-by-run: flag
    /// decisions only matter at run boundaries (a burst opens at the first
    /// active sample, hang expiry fires at one specific idle sample), so
    /// whole runs are skipped with a vectorizable byte scan instead of
    /// branching per sample. Decision-for-decision equivalent to feeding
    /// `on_decision` each flag in order (a property the tests pin down).
    fn process_flags(&mut self, flags: &[u8], base: usize, sink: &mut impl FnMut(StreamedBurst)) {
        let w = self.config.window;
        let mut pos = 0;
        while pos < flags.len() {
            let cur = flags[pos];
            let run_end = run_end(flags, pos, cur);
            if cur != 0 {
                // Active run [pos, run_end): opens a burst if none is open;
                // the cap may force-close (and immediately reopen) inside it.
                let mut s = *self.start.get_or_insert(base + pos);
                loop {
                    // First *active* index at which `i + w - s >= max_burst`
                    // (the cap threshold may have passed during a tolerated
                    // gap; then the first sample of this run closes).
                    let close = s
                        .saturating_add(self.max_burst.saturating_sub(w))
                        .saturating_sub(base)
                        .max(pos);
                    if close >= run_end {
                        break;
                    }
                    sink(StreamedBurst {
                        burst: Burst {
                            start: s,
                            end: base + close + w,
                        },
                        end_reason: BurstEnd::Overlong,
                    });
                    if close + 1 < run_end {
                        s = base + close + 1;
                        self.start = Some(s);
                    } else {
                        self.start = None;
                        break;
                    }
                }
                self.last_active = base + run_end - 1;
            } else if let Some(s) = self.start {
                // Idle run: hang expiry fires at the first idle index
                // beyond `last_active + hang` (which may be overdue if the
                // previous feed ended mid-gap).
                let expiry = (self.last_active + self.config.hang + 1)
                    .saturating_sub(base)
                    .max(pos);
                if expiry < run_end {
                    let end = self.last_active + w;
                    self.start = None;
                    if end - s >= self.config.min_len {
                        sink(StreamedBurst {
                            burst: Burst { start: s, end },
                            end_reason: BurstEnd::Gap,
                        });
                    }
                }
            }
            pos = run_end;
        }
    }

    /// Consumes a chunk, handing each burst it completes to `sink` in
    /// order: a burst closes once the window that ends its hang has
    /// arrived, unless that window ties with the gate within rounding in a
    /// block the chunk leaves incomplete (see [`EnergyStream`]); then it
    /// closes with the chunk that completes the block, or at
    /// [`finish`](Self::finish).
    ///
    /// This is the allocation-free bulk path: a scan-kernel call for the
    /// chunk's whole blocks (and one for a held block it completes), then
    /// run-length burst bookkeeping. The chunk is parsed samples or cf32
    /// pairs as a read delivered them
    /// ([`Cf32Reader::read_raw`](ctc_dsp::io::Cf32Reader::read_raw)); the
    /// gate widens each pair exactly as parsing does, so both forms find
    /// the same bursts and count the same non-finite samples.
    pub fn push_each<S: IqSample>(&mut self, chunk: &[S], mut sink: impl FnMut(StreamedBurst)) {
        self.feed(chunk, &mut sink);
    }

    /// Consumes a chunk; returns the bursts it completes, in order (as
    /// [`push_each`](Self::push_each)).
    pub fn push(&mut self, chunk: &[Complex]) -> Vec<StreamedBurst> {
        let mut out = Vec::new();
        self.push_each(chunk, |b| out.push(b));
        out
    }

    /// Ends the stream: judges the samples held for a partial block one
    /// window at a time, closes any open burst
    /// ([`BurstEnd::EndOfStream`]), returns the bursts these complete, in
    /// order, and resets the session for reuse (the non-finite count
    /// included).
    pub fn finish(&mut self) -> Vec<StreamedBurst> {
        let mut out = Vec::new();
        let (held, n) = (self.held, self.held_len);
        if n > 0 {
            self.judge(&held[..n], self.total - n, self.settled, &mut |b| {
                out.push(b)
            });
        }
        if let Some(s) = self.start.take() {
            let end = (self.last_active + self.config.window).min(self.total);
            if end - s >= self.config.min_len {
                out.push(StreamedBurst {
                    burst: Burst { start: s, end },
                    end_reason: BurstEnd::EndOfStream,
                });
            }
        }
        // Keep the scratch allocation alive across sessions.
        let active = std::mem::take(&mut self.active);
        *self = EnergyStream::new(self.config).with_max_burst(self.max_burst);
        self.active = active;
        out
    }

    /// Burst bookkeeping on one active/idle decision: the hang, min-len
    /// and cap rules, one power index at a time. Integer-only: all
    /// floating point lives in the scan kernel, and nothing here feeds
    /// back into it (the floor never updates while active, and closing a
    /// burst touches no scan state). The production path is the run-length
    /// `process_flags`; this per-sample form is its test oracle.
    #[cfg(test)]
    fn on_decision(&mut self, i: usize, active: bool) -> Option<StreamedBurst> {
        if active {
            if self.start.is_none() {
                self.start = Some(i);
            }
            self.last_active = i;
            let s = self.start.expect("just set");
            if i + self.config.window - s >= self.max_burst {
                // Force-close: bound downstream buffering on continuous
                // transmissions. The follow-on burst opens immediately.
                let end = i + self.config.window;
                self.start = None;
                return Some(StreamedBurst {
                    burst: Burst { start: s, end },
                    end_reason: BurstEnd::Overlong,
                });
            }
        } else if let Some(s) = self.start {
            if i > self.last_active + self.config.hang {
                let end = self.last_active + self.config.window;
                self.start = None;
                if end - s >= self.config.min_len {
                    return Some(StreamedBurst {
                        burst: Burst { start: s, end },
                        end_reason: BurstEnd::Gap,
                    });
                }
            }
        }
        None
    }

    /// Seeds the floor and its cached gate from the first full window.
    fn seed_floor(&mut self, floor: f64) {
        self.scan.floor = floor;
        self.scan.gate = floor * self.config.threshold;
        self.floor_seeded = true;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ctc_channel::noise::complex_gaussian;
    use ctc_zigbee::Transmitter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Noise | one `b"00000"` frame | noise, with `gap` noise samples each
    /// side at the given SNR. Returns the stream and the frame's bounds.
    pub(crate) fn stream_with_frame(
        gap: usize,
        snr_db: f64,
        seed: u64,
    ) -> (Vec<Complex>, usize, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = Transmitter::new().transmit_payload(b"00000").unwrap();
        let sigma2 = 10f64.powf(-snr_db / 10.0);
        let mut stream: Vec<Complex> = (0..gap)
            .map(|_| complex_gaussian(&mut rng, sigma2))
            .collect();
        let start = stream.len();
        stream.extend(
            frame
                .iter()
                .map(|&v| v + complex_gaussian(&mut rng, sigma2)),
        );
        let end = stream.len();
        stream.extend((0..gap).map(|_| complex_gaussian(&mut rng, sigma2)));
        (stream, start, end)
    }

    /// Every burst the gate finds in a whole recording: one push, then
    /// finish.
    fn bursts_in(x: &[Complex]) -> Vec<StreamedBurst> {
        let mut s = EnergyDetector::default().stream();
        let mut bursts = s.push(x);
        bursts.extend(s.finish());
        bursts
    }

    #[test]
    fn finds_single_frame() {
        let (stream, start, end) = stream_with_frame(500, 15.0, 1);
        let bursts = bursts_in(&stream);
        assert_eq!(bursts.len(), 1, "bursts: {bursts:?}");
        let b = bursts[0];
        assert_eq!(b.end_reason, BurstEnd::Gap);
        assert!(!b.truncated());
        assert!(
            (b.burst.start as i64 - start as i64).unsigned_abs() < 32,
            "start {b:?} vs {start}"
        );
        assert!(
            (b.burst.end as i64 - end as i64).unsigned_abs() < 64,
            "end {b:?} vs {end}"
        );
    }

    #[test]
    fn finds_multiple_frames() {
        let (mut stream, _, _) = stream_with_frame(400, 15.0, 3);
        let (second, _, _) = stream_with_frame(400, 15.0, 4);
        stream.extend(second);
        let bursts = bursts_in(&stream);
        assert_eq!(bursts.len(), 2, "bursts: {bursts:?}");
    }

    #[test]
    fn pure_noise_yields_nothing() {
        let mut rng = StdRng::seed_from_u64(5);
        let noise: Vec<Complex> = (0..4000)
            .map(|_| complex_gaussian(&mut rng, 0.01))
            .collect();
        assert!(bursts_in(&noise).is_empty());
    }

    #[test]
    fn short_blips_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut stream: Vec<Complex> = (0..2000)
            .map(|_| complex_gaussian(&mut rng, 0.01))
            .collect();
        for sample in stream.iter_mut().take(940).skip(900) {
            *sample = Complex::ONE;
        }
        assert!(bursts_in(&stream).is_empty());
    }

    #[test]
    fn burst_accessors() {
        let b = Burst { start: 10, end: 20 };
        assert_eq!(b.len(), 10);
        assert!(!b.is_empty());
    }

    /// Streaming detection is invariant to how the stream is chunked.
    #[test]
    fn stream_chunking_invariance() {
        let (stream, _, _) = stream_with_frame(500, 15.0, 11);
        let det = EnergyDetector::default();
        let reference = bursts_in(&stream);
        assert_eq!(reference.len(), 1, "reference: {reference:?}");
        for chunk in [1usize, 7, 50, 333, 1024, stream.len()] {
            let mut s = det.stream();
            let mut bursts = Vec::new();
            for c in stream.chunks(chunk) {
                bursts.extend(s.push(c));
            }
            bursts.extend(s.finish());
            assert_eq!(bursts, reference, "chunk size {chunk}");
        }
    }

    #[test]
    fn stream_noise_only_finds_nothing() {
        let mut rng = StdRng::seed_from_u64(13);
        let det = EnergyDetector::default();
        let mut s = det.stream();
        for _ in 0..40 {
            let chunk: Vec<Complex> = (0..100).map(|_| complex_gaussian(&mut rng, 0.01)).collect();
            assert!(s.push(&chunk).is_empty());
        }
        assert!(s.finish().is_empty());
        assert!(s.samples_seen() == 0, "finish resets the session");
    }

    #[test]
    fn stream_end_of_stream_truncates_open_burst() {
        let (stream, start, _) = stream_with_frame(500, 15.0, 14);
        let det = EnergyDetector::default();
        let mut s = det.stream();
        // Cut the stream in the middle of the frame.
        let cut = start + 400;
        let mut bursts = s.push(&stream[..cut]);
        assert!(bursts.is_empty(), "burst still open at the cut");
        bursts.extend(s.finish());
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].end_reason, BurstEnd::EndOfStream);
        assert!(bursts[0].truncated());
        assert!(bursts[0].burst.end <= cut);
    }

    #[test]
    fn overlong_burst_is_split_by_cap() {
        let det = EnergyDetector::default();
        let mut s = det.stream().with_max_burst(256);
        let quiet = vec![Complex::new(1e-3, 0.0); 300];
        let loud = vec![Complex::ONE; 1000];
        let mut bursts = s.push(&quiet);
        bursts.extend(s.push(&loud));
        bursts.extend(s.push(&quiet));
        bursts.extend(s.finish());
        assert!(bursts.len() >= 3, "split into >= 3 pieces: {bursts:?}");
        for b in &bursts[..bursts.len() - 1] {
            assert_eq!(b.end_reason, BurstEnd::Overlong);
            assert!(b.burst.len() <= 256);
        }
        // Pieces tile the transmission without gaps.
        for pair in bursts.windows(2) {
            assert!(pair[1].burst.start <= pair[0].burst.end);
        }
    }

    /// Run-length flag processing must make exactly the decisions the
    /// per-sample state machine makes, for any flag pattern, any chunk
    /// split, and any cap/hang/min-len configuration.
    #[test]
    fn process_flags_matches_per_sample_oracle() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(21);
        for case in 0..200 {
            let det = EnergyDetector {
                window: 16,
                threshold: 4.0,
                min_len: [1, 20, 128][case % 3],
                hang: [0, 3, 32][(case / 3) % 3],
            };
            let max_burst = [usize::MAX, 256, 140][(case / 9) % 3];
            // Bursty flag pattern: runs of correlated activity.
            let mut flags = Vec::with_capacity(500);
            let mut on = false;
            while flags.len() < 500 {
                let run = rng.gen_range(1usize..60);
                flags.extend(std::iter::repeat_n(u8::from(on), run));
                on = !on;
            }
            flags.truncate(500);

            let mut fast = det.stream().with_max_burst(max_burst);
            let mut slow = fast.clone();
            // Pretend both are warm at power index `base`.
            let base = 7usize;
            let mut got_fast = Vec::new();
            let mut done = 0;
            while done < flags.len() {
                let end = (done + rng.gen_range(1usize..97)).min(flags.len());
                fast.process_flags(&flags[done..end], base + done, &mut |b| got_fast.push(b));
                done = end;
            }
            let mut got_slow = Vec::new();
            for (k, &f) in flags.iter().enumerate() {
                if let Some(b) = slow.on_decision(base + k, f != 0) {
                    got_slow.push(b);
                }
            }
            assert_eq!(got_fast, got_slow, "case {case}");
            assert_eq!(fast.start, slow.start, "case {case}");
            assert_eq!(fast.last_active, slow.last_active, "case {case}");
        }
    }

    #[test]
    fn floor_tracks_noise_between_frames() {
        let (stream, _, _) = stream_with_frame(800, 20.0, 15);
        let det = EnergyDetector::default();
        let mut s = det.stream();
        s.push(&stream);
        let floor = s.noise_floor().expect("floor estimated");
        let sigma2 = 10f64.powf(-20.0 / 10.0);
        assert!(
            floor > sigma2 / 4.0 && floor < sigma2 * 4.0,
            "floor {floor:.3e} vs noise {sigma2:.3e}"
        );
    }
}
