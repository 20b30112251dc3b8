//! Always-on, bounded-memory flight recorder: a lock-free ring journal
//! of compact structured events, dumped as an incident snapshot when
//! something goes wrong.
//!
//! Aggregate counters answer "how much"; they cannot answer "what was
//! the system doing in the seconds before the detector fired?". The
//! [`FlightRecorder`] keeps the last `capacity` events — burst arrivals,
//! per-stage span boundaries, detector verdicts with per-feature scores,
//! queue-depth samples, drops, session opens/closes — in a fixed block
//! of atomics, overwriting the oldest. Recording is wait-free and
//! allocation-free: a writer claims a ticket with one `fetch_add`, then
//! publishes the event's words through a per-slot sequence stamp
//! (seqlock style), so readers detect and discard slots torn by a
//! concurrent overwrite instead of locking writers out.
//!
//! Memory is bounded by construction: `capacity × ~200 bytes`,
//! allocated once. The default capacity ([`FlightRecorder::
//! DEFAULT_CAPACITY`]) journals roughly the last thousand events —
//! several seconds of context at gateway burst rates — for ~200 KiB.
//!
//! Reading ([`FlightRecorder::events`]) is the cold path: it copies
//! whatever window of tickets is still live, validating each slot's
//! stamp before and after the copy. [`FlightRecorder::events_until`]
//! bounds the window at a specific ticket, so an incident snapshot can
//! end *exactly* at its triggering event even while other threads keep
//! journaling.
//!
//! ```
//! use ctc_obs::flight::{EventKind, FlightEvent, FlightRecorder};
//!
//! let rec = FlightRecorder::with_capacity(64);
//! let ticket = rec.record(
//!     FlightEvent::new(EventKind::Verdict, 1, 7, rec.now_us()).with_args(0b11, 0),
//! );
//! let events = rec.events_until(Some(ticket));
//! assert_eq!(events.last().unwrap().kind, EventKind::Verdict);
//! ```

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maximum per-feature scores carried inline by one event. The detector
/// ensemble has 16 named features; anything past that is truncated
/// rather than allocated.
pub const MAX_EVENT_SCORES: usize = 16;

/// Words per slot: timestamp, kind, session, seq, two kind-specific
/// args, the fused score, a score count, and the inline score array.
const SLOT_WORDS: usize = 8 + MAX_EVENT_SCORES;

const W_T_US: usize = 0;
const W_KIND: usize = 1;
const W_SESSION: usize = 2;
const W_SEQ: usize = 3;
const W_A: usize = 4;
const W_B: usize = 5;
const W_FUSED: usize = 6;
const W_NSCORES: usize = 7;
const W_SCORES: usize = 8;

/// What one journal entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A stream session opened (`a` = shard index).
    SessionOpen = 1,
    /// A stream session closed (`a` = 1 when it ended in error).
    SessionClose = 2,
    /// A burst capture closed at ingest (`a` = start sample offset,
    /// `b` = samples in the capture).
    Burst = 3,
    /// One pipeline stage boundary (`a` = the
    /// [`SpanStage`](crate::SpanStage) id, `b` = duration in µs).
    Stage = 4,
    /// A detector verdict (`a` = flag bits, see [`FlightEvent::
    /// VERDICT_DECODED`] and friends; `b` = DE² statistic bits; fused
    /// score and per-feature scores inline).
    Verdict = 5,
    /// A burst shed by the drop-oldest queue (`a` = samples lost,
    /// `b` = µs it sat queued before being shed).
    Drop = 6,
    /// A queue-depth sample at enqueue time (`a` = depth after the
    /// push, `b` = shard index).
    QueueDepth = 7,
    /// One loadgen SLO check evaluation (`a` = 1 when the check passed,
    /// `b` = observed value bits; `seq` = check index).
    SloCheck = 8,
}

impl EventKind {
    /// Stable lowercase name used in snapshot JSON.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SessionOpen => "session_open",
            EventKind::SessionClose => "session_close",
            EventKind::Burst => "burst",
            EventKind::Stage => "stage",
            EventKind::Verdict => "verdict",
            EventKind::Drop => "drop",
            EventKind::QueueDepth => "queue_depth",
            EventKind::SloCheck => "slo_check",
        }
    }

    fn from_u64(w: u64) -> Option<EventKind> {
        Some(match w {
            1 => EventKind::SessionOpen,
            2 => EventKind::SessionClose,
            3 => EventKind::Burst,
            4 => EventKind::Stage,
            5 => EventKind::Verdict,
            6 => EventKind::Drop,
            7 => EventKind::QueueDepth,
            8 => EventKind::SloCheck,
            _ => return None,
        })
    }
}

/// One decoded journal entry. Fixed-size and `Copy`: events are built
/// on the stack and stored wordwise, never boxed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// Microseconds since the recorder's epoch (its construction).
    pub t_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// The session the event belongs to (0 when process-wide).
    pub session: u64,
    /// The burst sequence number within the session (0 when n/a).
    pub seq: u64,
    /// First kind-specific argument (see [`EventKind`]).
    pub a: u64,
    /// Second kind-specific argument (see [`EventKind`]).
    pub b: u64,
    /// Fused detector score ([`EventKind::Verdict`] only).
    pub fused: f64,
    /// How many entries of `scores` are live.
    pub nscores: usize,
    /// Inline per-feature scores, `scores[..nscores]` valid.
    pub scores: [f64; MAX_EVENT_SCORES],
}

impl FlightEvent {
    /// Verdict flag: the burst decoded to a frame.
    pub const VERDICT_DECODED: u64 = 1;
    /// Verdict flag: the detector classified the frame as an attack.
    pub const VERDICT_ATTACK: u64 = 1 << 1;
    /// Verdict flag: a forgery was *accepted* for counting (decoded and
    /// classified as attack) — the exit-3 condition.
    pub const VERDICT_ACCEPTED: u64 = 1 << 2;

    /// A new event at `t_us` (use [`FlightRecorder::now_us`]) with no
    /// kind-specific payload yet.
    pub fn new(kind: EventKind, session: u64, seq: u64, t_us: u64) -> FlightEvent {
        FlightEvent {
            t_us,
            kind,
            session,
            seq,
            a: 0,
            b: 0,
            fused: 0.0,
            nscores: 0,
            scores: [0.0; MAX_EVENT_SCORES],
        }
    }

    /// Sets both kind-specific arguments.
    pub fn with_args(mut self, a: u64, b: u64) -> FlightEvent {
        self.a = a;
        self.b = b;
        self
    }

    /// Attaches the fused score and up to [`MAX_EVENT_SCORES`]
    /// per-feature scores (extras are silently truncated, not boxed).
    pub fn with_scores(mut self, fused: f64, scores: impl IntoIterator<Item = f64>) -> FlightEvent {
        self.fused = fused;
        self.nscores = 0;
        for v in scores.into_iter().take(MAX_EVENT_SCORES) {
            self.scores[self.nscores] = v;
            self.nscores += 1;
        }
        self
    }

    /// The live per-feature scores.
    pub fn feature_scores(&self) -> &[f64] {
        &self.scores[..self.nscores]
    }

    fn store(&self, words: &[AtomicU64; SLOT_WORDS]) {
        words[W_T_US].store(self.t_us, Ordering::Relaxed);
        words[W_KIND].store(self.kind as u64, Ordering::Relaxed);
        words[W_SESSION].store(self.session, Ordering::Relaxed);
        words[W_SEQ].store(self.seq, Ordering::Relaxed);
        words[W_A].store(self.a, Ordering::Relaxed);
        words[W_B].store(self.b, Ordering::Relaxed);
        words[W_FUSED].store(self.fused.to_bits(), Ordering::Relaxed);
        words[W_NSCORES].store(self.nscores as u64, Ordering::Relaxed);
        for i in 0..self.nscores {
            words[W_SCORES + i].store(self.scores[i].to_bits(), Ordering::Relaxed);
        }
    }

    fn load(words: &[AtomicU64; SLOT_WORDS]) -> Option<FlightEvent> {
        let kind = EventKind::from_u64(words[W_KIND].load(Ordering::Relaxed))?;
        let nscores = (words[W_NSCORES].load(Ordering::Relaxed) as usize).min(MAX_EVENT_SCORES);
        let mut scores = [0.0; MAX_EVENT_SCORES];
        for (i, slot) in scores.iter_mut().enumerate().take(nscores) {
            *slot = f64::from_bits(words[W_SCORES + i].load(Ordering::Relaxed));
        }
        Some(FlightEvent {
            t_us: words[W_T_US].load(Ordering::Relaxed),
            kind,
            session: words[W_SESSION].load(Ordering::Relaxed),
            seq: words[W_SEQ].load(Ordering::Relaxed),
            a: words[W_A].load(Ordering::Relaxed),
            b: words[W_B].load(Ordering::Relaxed),
            fused: f64::from_bits(words[W_FUSED].load(Ordering::Relaxed)),
            nscores,
            scores,
        })
    }
}

/// One ring slot: a sequence stamp plus the event words. The stamp is
/// `2·ticket + 1` while a write is in flight and `2·ticket + 2` once
/// published; a reader keeps a copy only when the stamp reads the same
/// published value before and after.
struct Slot {
    stamp: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; SLOT_WORDS],
        }
    }
}

struct Inner {
    slots: Vec<Slot>,
    head: AtomicU64,
    epoch: Instant,
    /// Feature names for rendering verdict scores; set once at startup
    /// (cold path), never touched while recording.
    feature_names: Mutex<Vec<String>>,
}

/// The lock-free ring journal. Cheap to clone (`Arc` inside); all
/// methods take `&self`, so one recorder is shared across every worker,
/// sink, and supervisor thread of a run.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl FlightRecorder {
    /// Default ring capacity: ~1k events ≈ 200 KiB, several seconds of
    /// journal at typical gateway burst rates.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A recorder with the default capacity.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(FlightRecorder::DEFAULT_CAPACITY)
    }

    /// A recorder holding the last `capacity` events (minimum 1). All
    /// memory is allocated here; recording never allocates.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Arc::new(Inner {
                slots: (0..capacity).map(|_| Slot::new()).collect(),
                head: AtomicU64::new(0),
                epoch: Instant::now(),
                feature_names: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Total events ever recorded (recorded − capacity have been
    /// overwritten once past the first lap).
    pub fn recorded(&self) -> u64 {
        self.inner.head.load(Ordering::Relaxed)
    }

    /// Microseconds since this recorder was constructed — the timestamp
    /// base every event uses.
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Names for verdict per-feature scores, in score order. Cold path:
    /// call once at startup, before traffic.
    pub fn set_feature_names(&self, names: Vec<String>) {
        *self.inner.feature_names.lock().unwrap() = names;
    }

    /// The configured feature names (empty until set).
    pub fn feature_names(&self) -> Vec<String> {
        self.inner.feature_names.lock().unwrap().clone()
    }

    /// Journals one event and returns its ticket (its position in the
    /// all-time event sequence). Wait-free, allocation-free: one
    /// `fetch_add` to claim the slot, then plain atomic stores.
    pub fn record(&self, event: FlightEvent) -> u64 {
        let ticket = self.inner.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.inner.slots[(ticket % self.inner.slots.len() as u64) as usize];
        slot.stamp.store(ticket * 2 + 1, Ordering::Relaxed);
        // Order the odd stamp before the payload words, and the payload
        // before the even stamp, so a reader that sees a stable even
        // stamp saw a complete event.
        fence(Ordering::Release);
        event.store(&slot.words);
        fence(Ordering::Release);
        slot.stamp.store(ticket * 2 + 2, Ordering::Release);
        ticket
    }

    /// Every live journal event in ticket order (oldest first).
    pub fn events(&self) -> Vec<FlightEvent> {
        self.events_until(None)
    }

    /// Live journal events up to and including `last_ticket` (all of
    /// them when `None`), oldest first. Slots torn by a concurrent
    /// overwrite are skipped, not misread: each copy is validated
    /// against the slot's sequence stamp before being kept.
    pub fn events_until(&self, last_ticket: Option<u64>) -> Vec<FlightEvent> {
        let cap = self.inner.slots.len() as u64;
        let head = self.inner.head.load(Ordering::Acquire);
        let end = match last_ticket {
            Some(t) => (t + 1).min(head),
            None => head,
        };
        let start = end.saturating_sub(cap);
        let mut out = Vec::with_capacity((end - start) as usize);
        for ticket in start..end {
            let slot = &self.inner.slots[(ticket % cap) as usize];
            let before = slot.stamp.load(Ordering::Acquire);
            if before != ticket * 2 + 2 {
                continue; // overwritten or mid-write: not this ticket's data
            }
            fence(Ordering::Acquire);
            let event = FlightEvent::load(&slot.words);
            fence(Ordering::Acquire);
            let after = slot.stamp.load(Ordering::Acquire);
            if after == before {
                if let Some(event) = event {
                    out.push(event);
                }
            }
        }
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static SIGUSR1_SEEN: AtomicBool = AtomicBool::new(false);

    pub(super) extern "C" fn on_sigusr1(_signum: i32) {
        // The only async-signal-safe thing worth doing: set a flag the
        // supervisor loop polls.
        SIGUSR1_SEEN.store(true, Ordering::Relaxed);
    }

    #[cfg(any(target_os = "macos", target_os = "ios", target_os = "freebsd"))]
    pub(super) const SIGUSR1: i32 = 30;
    #[cfg(not(any(target_os = "macos", target_os = "ios", target_os = "freebsd")))]
    pub(super) const SIGUSR1: i32 = 10;

    extern "C" {
        // libc's signal(2); the symbol is always linked via std.
        pub(super) fn signal(signum: i32, handler: usize) -> usize;
    }
}

/// Installs a `SIGUSR1` handler that latches a flag readable via
/// [`take_sigusr1`]. Returns `false` on non-unix targets (no signals)
/// or if installation failed. Safe to call more than once.
pub fn install_sigusr1_handler() -> bool {
    #[cfg(unix)]
    {
        const SIG_ERR: usize = usize::MAX;
        // SAFETY: the handler only stores to an AtomicBool, which is
        // async-signal-safe; `signal` is the libc prototype.
        let handler = sig::on_sigusr1 as extern "C" fn(i32);
        let prev = unsafe { sig::signal(sig::SIGUSR1, handler as usize) };
        prev != SIG_ERR
    }
    #[cfg(not(unix))]
    {
        false
    }
}

/// True once per `SIGUSR1` received since the last call (the flag is
/// cleared on read). Always `false` on non-unix targets.
pub fn take_sigusr1() -> bool {
    #[cfg(unix)]
    {
        sig::SIGUSR1_SEEN.swap(false, std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(unix))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_in_order() {
        let rec = FlightRecorder::with_capacity(8);
        for seq in 0..5u64 {
            rec.record(
                FlightEvent::new(EventKind::Burst, 1, seq, rec.now_us()).with_args(seq * 100, 600),
            );
        }
        let events = rec.events();
        assert_eq!(events.len(), 5);
        for (seq, ev) in events.iter().enumerate() {
            assert_eq!(ev.kind, EventKind::Burst);
            assert_eq!(ev.seq, seq as u64);
            assert_eq!(ev.a, seq as u64 * 100);
            assert_eq!(ev.b, 600);
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let rec = FlightRecorder::with_capacity(4);
        for seq in 0..10u64 {
            rec.record(FlightEvent::new(EventKind::QueueDepth, 0, seq, 0).with_args(seq, 0));
        }
        let events = rec.events();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(rec.recorded(), 10);
    }

    /// The trigger contract: a snapshot bounded at a ticket ends at that
    /// event even when later events have already been journaled.
    #[test]
    fn events_until_bounds_at_the_trigger() {
        let rec = FlightRecorder::with_capacity(16);
        rec.record(FlightEvent::new(EventKind::Burst, 1, 0, 10));
        let trigger = rec.record(
            FlightEvent::new(EventKind::Verdict, 1, 0, 20)
                .with_args(FlightEvent::VERDICT_ACCEPTED, 0)
                .with_scores(0.51, [0.5, 0.6]),
        );
        rec.record(FlightEvent::new(EventKind::Stage, 1, 0, 30));
        rec.record(FlightEvent::new(EventKind::Burst, 1, 1, 40));

        let events = rec.events_until(Some(trigger));
        assert_eq!(events.len(), 2);
        let last = events.last().unwrap();
        assert_eq!(last.kind, EventKind::Verdict);
        assert_eq!(last.fused, 0.51);
        assert_eq!(last.feature_scores(), &[0.5, 0.6]);
    }

    #[test]
    fn scores_truncate_at_capacity_without_allocation() {
        let ev = FlightEvent::new(EventKind::Verdict, 0, 0, 0)
            .with_scores(1.0, (0..40).map(|i| i as f64));
        assert_eq!(ev.nscores, MAX_EVENT_SCORES);
        assert_eq!(ev.feature_scores()[15], 15.0);
    }

    #[test]
    fn concurrent_writers_never_tear_reads() {
        let rec = FlightRecorder::with_capacity(32);
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        // Each writer's events carry a self-consistent
                        // signature: a == session * 1_000_000 + seq.
                        rec.record(
                            FlightEvent::new(EventKind::Burst, w, i, 0)
                                .with_args(w * 1_000_000 + i, w),
                        );
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            for ev in rec.events() {
                assert_eq!(ev.a, ev.session * 1_000_000 + ev.seq, "torn event: {ev:?}");
                assert_eq!(ev.b, ev.session);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(rec.recorded(), 8000);
        assert_eq!(rec.events().len(), 32);
    }

    #[cfg(unix)]
    #[test]
    fn sigusr1_flag_latches_and_clears() {
        assert!(install_sigusr1_handler());
        assert!(!take_sigusr1());
        // Raise the signal at ourselves; the handler must latch the flag.
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        unsafe { raise(super::sig::SIGUSR1) };
        assert!(take_sigusr1());
        assert!(!take_sigusr1());
    }
}
