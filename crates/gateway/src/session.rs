//! Per-stream session state, the run's session table, and the work
//! queue every session shares.
//!
//! A [`Session`] is the server-side handle for one connected IQ stream:
//! its id, tenant label, per-stream [`MetricsCore`], per-session event
//! sequence and end state. Sessions never share splitter state — each
//! gets a fresh `BurstSplitter` from the server's `MonitorFactory` — but
//! they do share the worker pool, the capture buffer pool, and one
//! [`WorkQueue`]. A run's [`SessionTable`] lists every session it
//! opened; run-wide totals and session-lifecycle counts are folded from
//! it when read.
//!
//! The work queue takes only the sessions' overflow: a session runs its
//! bursts itself while nothing is queued and fewer bursts are running
//! than there are workers ([`WorkQueue::run_inline`]). The queue counts
//! those running bursts along with the ones its workers popped.
//!
//! The work queue is bounded, with non-blocking push and drop-oldest
//! under overload — but *which* oldest is governed by a per-session
//! **drop budget**. A session pushing beyond its fair share
//! of the queue (`capacity / active sessions`) sheds its own oldest
//! burst; a session within budget sheds the most-loaded session's oldest
//! instead. A chatty stream therefore pays for its own overload and a
//! quiet stream's bursts survive, which is the isolation property the
//! fairness unit tests below pin down.

use crate::metrics::{MetricsCore, MetricsSnapshot, ServerMetricsSnapshot};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Identifier of one gateway session, unique within a server run.
pub type SessionId = u64;

/// Server-side handle for one connected stream.
#[derive(Debug)]
pub struct Session {
    id: SessionId,
    label: Option<String>,
    metrics: MetricsCore,
    seq: AtomicU64,
    /// Set when the input ends: `true` for a read error.
    errored: OnceLock<bool>,
}

impl Session {
    /// A session. `label` is the tenant label stamped on the session's
    /// JSONL events and metrics; `None` is the unlabelled single-stream
    /// mode (no `stream` field, no session markers).
    pub fn new(id: SessionId, label: Option<String>) -> Self {
        Session {
            id,
            label,
            metrics: MetricsCore::default(),
            seq: AtomicU64::new(0),
            errored: OnceLock::new(),
        }
    }

    /// The session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The tenant label (`None` in unlabelled single-stream mode).
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// This session's counters, the only copy: run-wide totals are
    /// summed from every session's (see [`SessionTable::totals`]).
    pub fn metrics(&self) -> &MetricsCore {
        &self.metrics
    }

    /// A point-in-time copy of this session's counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The next per-session event sequence number (monotonic from 0).
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Records how the session's input ended: at end of stream
    /// (`errored == false`) or with a read error.
    pub(crate) fn end(&self, errored: bool) {
        let _ = self.errored.set(errored);
    }
}

/// Every session one server run opened, live and closed, in open order,
/// plus the connections it refused: the list the run's report, stats
/// lines, unlabelled registry names and incident snapshots all read. A
/// cheap-to-clone `Arc` handle, so registry collectors can keep reading
/// it after the run joins.
#[derive(Debug, Clone, Default)]
pub struct SessionTable {
    inner: Arc<TableInner>,
}

#[derive(Debug, Default)]
struct TableInner {
    sessions: Mutex<Vec<Arc<Session>>>,
    /// Connections refused at the `max_streams` ceiling.
    refused: AtomicU64,
}

impl SessionTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the next session: ids count from 1 in open order.
    pub fn open(&self, label: Option<String>) -> Arc<Session> {
        let mut sessions = self.lock();
        let id = sessions.len() as u64 + 1;
        let session = Arc::new(Session::new(id, label));
        sessions.push(session.clone());
        session
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Arc<Session>>> {
        self.inner.sessions.lock().expect("session table poisoned")
    }

    /// Sessions opened so far.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// The sessions, in open order.
    pub fn sessions(&self) -> Vec<Arc<Session>> {
        self.lock().clone()
    }

    /// Counts one connection refused at the `max_streams` ceiling.
    pub(crate) fn refuse(&self) {
        self.inner.refused.fetch_add(1, Ordering::Relaxed);
    }

    /// Run-wide counters: every session's counters summed and their
    /// latency histograms merged bucket-wise.
    pub fn totals(&self) -> MetricsSnapshot {
        let mut totals = MetricsSnapshot::default();
        for session in self.lock().iter() {
            totals.merge(&session.snapshot());
        }
        totals
    }

    /// Session-lifecycle counts: every session opened, each one's end
    /// state, and the refused connections.
    pub fn lifecycle(&self) -> ServerMetricsSnapshot {
        let sessions = self.lock();
        let ended = |errored| {
            sessions
                .iter()
                .filter(|s| s.errored.get() == Some(&errored))
                .count() as u64
        };
        ServerMetricsSnapshot {
            sessions_opened: sessions.len() as u64,
            sessions_closed: ended(false),
            sessions_refused: self.inner.refused.load(Ordering::Relaxed),
            sessions_errored: ended(true),
        }
    }
}

/// What a full queue did when a push came in.
#[derive(Debug, PartialEq, Eq)]
pub enum Evicted<T> {
    /// There was room; nothing was dropped.
    None,
    /// The queue was full (or closed): this item was shed and must be
    /// counted against its session.
    Item {
        /// Session the shed item belonged to.
        key: SessionId,
        /// The shed item.
        item: T,
    },
}

/// The run's bounded work queue with per-session drop budgets: every
/// session pushes to it and every worker blocks on it. It also counts the
/// items running outside it: popped by a worker, or run inline by their
/// pusher, until [`finish`](Self::finish).
#[derive(Debug)]
pub struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<(SessionId, T)>,
    /// Queued items per session — the load the drop budget arbitrates on.
    counts: BTreeMap<SessionId, usize>,
    capacity: usize,
    closed: bool,
    /// Items popped or run inline and not yet finished.
    running: usize,
}

impl<T> QueueState<T> {
    /// The fair per-session share of the queue right now: capacity
    /// divided over the sessions that currently have items queued (the
    /// pusher counts even when it has none yet).
    fn fair_share(&self, pusher: SessionId) -> usize {
        let mut active = self.counts.len();
        if !self.counts.contains_key(&pusher) {
            active += 1;
        }
        (self.capacity / active.max(1)).max(1)
    }

    /// Removes the oldest queued item of `victim`.
    fn evict_oldest_of(&mut self, victim: SessionId) -> Option<(SessionId, T)> {
        let pos = self.items.iter().position(|(k, _)| *k == victim)?;
        let evicted = self.items.remove(pos)?;
        self.decrement(victim);
        Some(evicted)
    }

    fn decrement(&mut self, key: SessionId) {
        if let Some(n) = self.counts.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                self.counts.remove(&key);
            }
        }
    }

    /// The session holding the most queued items (ties broken by lower
    /// id, for determinism).
    fn most_loaded(&self) -> Option<SessionId> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(k, _)| *k)
    }
}

impl<T> WorkQueue<T> {
    /// Work queue holding at most `capacity` items across all sessions.
    /// Slots are allocated as the queue fills, so a huge `capacity`
    /// costs nothing until items arrive.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                counts: BTreeMap::new(),
                capacity,
                closed: false,
                running: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues `item` for session `key` without ever blocking. On a full
    /// queue the drop budget picks the victim: the pusher's own oldest
    /// item when the pusher is at or over its fair share, otherwise the
    /// most-loaded session's oldest. Pushing to a closed queue sheds the
    /// item itself.
    pub fn push(&self, key: SessionId, item: T) -> Evicted<T> {
        let mut s = self.state.lock().expect("work queue poisoned");
        if s.closed {
            return Evicted::Item { key, item };
        }
        let evicted = if s.items.len() == s.capacity {
            let share = s.fair_share(key);
            let over_budget = s.counts.get(&key).copied().unwrap_or(0) >= share;
            let victim = if over_budget {
                key
            } else {
                s.most_loaded().unwrap_or(key)
            };
            s.evict_oldest_of(victim)
        } else {
            None
        };
        *s.counts.entry(key).or_insert(0) += 1;
        s.items.push_back((key, item));
        drop(s);
        self.available.notify_one();
        match evicted {
            Some((key, item)) => Evicted::Item { key, item },
            None => Evicted::None,
        }
    }

    /// Pops the oldest item, blocking until one arrives; the item counts
    /// as running until [`finish`](Self::finish). `None` means the queue
    /// is closed and drained: the worker is done.
    pub fn pop(&self) -> Option<(SessionId, T)> {
        let mut s = self.state.lock().expect("work queue poisoned");
        loop {
            if let Some((key, item)) = s.items.pop_front() {
                s.decrement(key);
                s.running += 1;
                return Some((key, item));
            }
            if s.closed {
                return None;
            }
            s = self.available.wait(s).expect("work queue poisoned");
        }
    }

    /// Lets a pusher run its next item itself instead of queueing it: when
    /// nothing is queued and fewer than `limit` items are running, counts
    /// one more as running (until [`finish`](Self::finish)) and returns
    /// true. Otherwise returns false, and the item belongs on the queue.
    pub fn run_inline(&self, limit: usize) -> bool {
        let mut s = self.state.lock().expect("work queue poisoned");
        let inline = s.items.is_empty() && s.running < limit;
        if inline {
            s.running += 1;
        }
        inline
    }

    /// Marks one running item (popped, or run inline) finished. Returns
    /// true when nothing is queued: a worker is then about to block.
    pub fn finish(&self) -> bool {
        let mut s = self.state.lock().expect("work queue poisoned");
        s.running = s.running.saturating_sub(1);
        s.items.is_empty()
    }

    /// Closes the queue: queued items still drain via `pop`, new pushes
    /// are shed, and every blocked `pop` wakes.
    pub fn close(&self) {
        self.state.lock().expect("work queue poisoned").closed = true;
        self.available.notify_all();
    }

    /// Items currently queued across all sessions.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().expect("work queue poisoned").items.len()
    }

    /// Items currently queued for one session.
    pub fn len_of(&self, key: SessionId) -> usize {
        self.state
            .lock()
            .expect("work queue poisoned")
            .counts
            .get(&key)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    /// Pops without blocking; exact here because only the test's own
    /// thread pushes.
    fn try_pop<T>(q: &WorkQueue<T>) -> Option<(SessionId, T)> {
        (q.len() > 0).then(|| q.pop()).flatten()
    }

    fn drain<T>(q: &WorkQueue<T>) -> Vec<(SessionId, T)> {
        std::iter::from_fn(|| try_pop(q)).collect()
    }

    #[test]
    fn fifo_within_capacity_across_sessions() {
        let q = WorkQueue::new(4);
        assert_eq!(q.push(1, "a"), Evicted::None);
        assert_eq!(q.push(2, "b"), Evicted::None);
        assert_eq!(q.push(1, "c"), Evicted::None);
        assert_eq!(q.len(), 3);
        assert_eq!(q.len_of(1), 2);
        let order: Vec<_> = drain(&q);
        assert_eq!(order, vec![(1, "a"), (2, "b"), (1, "c")]);
        assert_eq!(q.len_of(1), 0);
    }

    /// A session flooding past its fair share sheds its *own* oldest,
    /// never the quiet session's only burst.
    #[test]
    fn noisy_session_pays_its_own_drops() {
        let q = WorkQueue::new(4);
        assert_eq!(q.push(7, "quiet"), Evicted::None);
        for noisy in ["a", "b", "c"] {
            assert_eq!(q.push(1, noisy), Evicted::None);
        }
        // Queue full; session 1 holds 3/4 > fair share (4/2 = 2).
        for noisy in ["d", "e", "f", "g", "h", "i", "j"] {
            match q.push(1, noisy) {
                Evicted::Item { key, .. } => assert_eq!(key, 1, "noisy pays"),
                Evicted::None => panic!("full queue must evict"),
            }
        }
        let remaining = drain(&q);
        assert!(
            remaining.contains(&(7, "quiet")),
            "quiet session survived the flood: {remaining:?}"
        );
        assert_eq!(q.len(), 0);
    }

    /// A within-budget pusher on a full queue evicts from the most
    /// loaded session, not from itself.
    #[test]
    fn under_budget_push_evicts_the_most_loaded() {
        let q = WorkQueue::new(4);
        for i in 0..4 {
            assert_eq!(q.push(1, i), Evicted::None);
        }
        match q.push(2, 100) {
            Evicted::Item { key, item } => {
                assert_eq!(key, 1, "most-loaded session evicted");
                assert_eq!(item, 0, "its oldest item");
            }
            Evicted::None => panic!("full queue must evict"),
        }
        assert_eq!(q.len_of(2), 1);
        assert_eq!(q.len_of(1), 3);
    }

    /// Per-session FIFO order survives mid-queue evictions.
    #[test]
    fn eviction_preserves_per_session_order() {
        let q = WorkQueue::new(4);
        q.push(1, 0);
        q.push(2, 10);
        q.push(1, 1);
        q.push(2, 11);
        q.push(3, 20); // evicts oldest of most-loaded (session 1, item 0)
        let order = drain(&q);
        assert_eq!(order, vec![(2, 10), (1, 1), (2, 11), (3, 20)]);
    }

    /// With every session at one item and capacity below the session
    /// count, a pusher at fair share (1) sheds its own item.
    #[test]
    fn tiny_capacity_still_fair() {
        let q = WorkQueue::new(2);
        q.push(1, "a");
        q.push(2, "b");
        match q.push(1, "c") {
            Evicted::Item { key, item } => {
                assert_eq!((key, item), (1, "a"));
            }
            Evicted::None => panic!("full queue must evict"),
        }
        assert_eq!(drain(&q), vec![(2, "b"), (1, "c")]);
    }

    /// The adversarial fleet pattern the soak harness generates: one
    /// tenant pushing at 100× the rate of 31 quiet tenants, interleaved
    /// the way a shared accept loop would deliver it, with workers
    /// draining partially between rounds. Fair-share eviction must make
    /// the noisy tenant absorb *every* drop — the quiet tenants' drop
    /// count stays exactly zero and all their bursts come back out.
    #[test]
    fn adversarial_flood_never_drops_quiet_tenants() {
        const NOISY: SessionId = 1;
        const QUIET_TENANTS: u64 = 31;
        let q: WorkQueue<u64> = WorkQueue::new(64);
        let mut dropped_noisy = 0u64;
        let mut dropped_quiet = 0u64;
        let mut quiet_sent = 0u64;
        let mut quiet_out = 0u64;
        let mut drain_budget;
        for round in 0..50u64 {
            // 100 noisy pushes per round, one push per quiet tenant
            // spread through them (≈100:1 per-tenant rate).
            for burst in 0..100u64 {
                match q.push(NOISY, round * 1000 + burst) {
                    Evicted::Item { key, .. } if key == NOISY => dropped_noisy += 1,
                    Evicted::Item { .. } => dropped_quiet += 1,
                    Evicted::None => {}
                }
                if burst % 3 == 0 {
                    let tenant = 2 + (quiet_sent % QUIET_TENANTS);
                    quiet_sent += 1;
                    match q.push(tenant, round) {
                        Evicted::Item { key, .. } if key == NOISY => dropped_noisy += 1,
                        Evicted::Item { .. } => dropped_quiet += 1,
                        Evicted::None => {}
                    }
                }
            }
            // Workers catch up between rounds, so every round floods a
            // freshly drained queue back to capacity.
            drain_budget = 64;
            while drain_budget > 0 {
                match try_pop(&q) {
                    Some((key, _)) if key != NOISY => quiet_out += 1,
                    Some(_) => {}
                    None => break,
                }
                drain_budget -= 1;
            }
        }
        for (key, _) in drain(&q) {
            if key != NOISY {
                quiet_out += 1;
            }
        }
        assert_eq!(
            dropped_quiet, 0,
            "quiet tenants must never pay for the flood"
        );
        assert_eq!(quiet_out, quiet_sent, "every quiet burst drains intact");
        assert!(
            dropped_noisy > 1000,
            "the flood itself must have been shed ({dropped_noisy} drops)"
        );
    }

    /// An item runs inline only while nothing is queued and fewer than
    /// the limit are running, popped and inline ones alike.
    #[test]
    fn run_inline_only_when_nothing_is_queued_and_a_worker_is_free() {
        let q = WorkQueue::new(4);
        assert!(q.run_inline(2));
        assert!(q.run_inline(2));
        assert!(!q.run_inline(2), "two running: the limit");
        assert!(q.finish(), "nothing queued");
        assert!(q.run_inline(2));
        assert!(q.finish());
        assert!(q.finish());
        assert_eq!(q.push(1, "a"), Evicted::None);
        assert!(!q.run_inline(2), "an item is queued");
        assert_eq!(q.pop(), Some((1, "a")));
        assert!(q.run_inline(2), "one popped, one inline");
        assert!(!q.run_inline(2), "the popped item counts");
        assert_eq!(q.push(1, "b"), Evicted::None);
        assert!(!q.finish(), "an item is still queued");
    }

    #[test]
    fn close_sheds_new_pushes_and_wakes_waiters() {
        let q = std::sync::Arc::new(WorkQueue::new(2));
        q.push(1, 1);
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || {
                // Drain the one item, then block until close.
                let first = q.pop();
                let second = q.pop();
                (first, second)
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let (first, second) = waiter.join().unwrap();
        assert_eq!(first, Some((1, 1)));
        assert_eq!(second, None);
        assert_eq!(q.push(2, 9), Evicted::Item { key: 2, item: 9 });
    }

    /// Every push wakes a blocked worker: N poppers parked on an empty
    /// queue each receive one of N pushes.
    #[test]
    fn each_blocked_popper_receives_one_push() {
        const N: u64 = 4;
        let q = Arc::new(WorkQueue::new(N as usize));
        let parked = Arc::new(Barrier::new(N as usize + 1));
        let (tx, rx) = std::sync::mpsc::channel();
        let poppers: Vec<_> = (0..N)
            .map(|_| {
                let (q, parked, tx) = (q.clone(), parked.clone(), tx.clone());
                std::thread::spawn(move || {
                    parked.wait();
                    tx.send(q.pop()).unwrap();
                })
            })
            .collect();
        parked.wait();
        for i in 0..N {
            assert_eq!(q.push(i + 1, i), Evicted::None);
        }
        let mut received: Vec<_> = (0..N)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("a blocked popper never woke")
                    .expect("queue is open, so pop returns an item")
            })
            .collect();
        q.close();
        for popper in poppers {
            popper.join().unwrap();
        }
        received.sort_unstable();
        assert_eq!(received, (0..N).map(|i| (i + 1, i)).collect::<Vec<_>>());
    }
}
