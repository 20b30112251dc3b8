//! Pooled capture buffers.
//!
//! The streaming gateway cuts every burst it serves into a buffer of its
//! own: the burst's samples plus a decode margin, handed from the session
//! that read them to the receiver and detector. Allocating a fresh
//! `Vec<Complex>` per burst would put the allocator on that path, so the
//! captures' capacity is recycled instead:
//!
//! * [`BufferPool`] — a thread-safe free-list of `Vec<Complex>` capacity.
//!   Checking out is a mutex-protected pop (a *hit*) or a fresh allocation
//!   (a *miss*); steady-state pipelines converge to all-hits.
//! * [`SampleBuf`] — a buffer checked out of a pool, which returns its
//!   capacity there on drop.
//!
//! Ownership rule of thumb: *whoever checks a buffer out lets it drop* —
//! return-to-pool is automatic, never manual. A capture crosses threads by
//! moving its `SampleBuf` (it is `Send`), and the consumer's drop returns
//! the capacity to the shared pool. Nothing else is pooled: the DSP stages
//! are plain functions from `&[Complex]` to a fresh `Vec<Complex>`.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::complex::Complex;

/// Default cap on idle vectors retained by a [`BufferPool`].
const DEFAULT_MAX_IDLE: usize = 64;

#[derive(Debug)]
struct PoolInner {
    free: Mutex<Vec<Vec<Complex>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    max_idle: usize,
}

/// A thread-safe pool of reusable `Vec<Complex>` capacity.
///
/// Cloning a `BufferPool` is cheap (an `Arc` bump) and all clones share the
/// same free-list, so a pool can be handed to every worker in a pipeline.
///
/// # Examples
///
/// ```
/// use ctc_dsp::buffer::BufferPool;
///
/// let pool = BufferPool::new();
/// let mut buf = pool.checkout(1024);
/// buf.extend([ctc_dsp::Complex::ONE; 8]);
/// let cap = buf.capacity();
/// drop(buf); // capacity returns to the pool
/// let again = pool.checkout(16);
/// assert!(again.capacity() >= cap); // reused, not reallocated
/// assert_eq!(pool.hits(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// Creates an empty pool with the default idle-buffer cap.
    pub fn new() -> Self {
        Self::with_max_idle(DEFAULT_MAX_IDLE)
    }

    /// Creates an empty pool that retains at most `max_idle` returned buffers;
    /// further returns are simply freed.
    pub fn with_max_idle(max_idle: usize) -> Self {
        BufferPool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                max_idle,
            }),
        }
    }

    /// Checks out an empty buffer with at least `capacity` reserved.
    ///
    /// Prefers the largest idle buffer (growing it if needed); allocates
    /// fresh on a pool miss. The returned [`SampleBuf`] gives its capacity
    /// back to this pool when dropped.
    pub fn checkout(&self, capacity: usize) -> SampleBuf {
        let recycled = {
            let mut free = self.inner.free.lock().expect("buffer pool poisoned");
            free.pop()
        };
        let data = match recycled {
            Some(mut v) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                v.clear();
                if v.capacity() < capacity {
                    v.reserve(capacity - v.len());
                }
                v
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(capacity)
            }
        };
        SampleBuf {
            data,
            pool: self.clone(),
        }
    }

    /// Number of checkouts served from the free-list.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Number of checkouts that had to allocate.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Number of idle buffers currently held.
    pub fn idle(&self) -> usize {
        self.inner.free.lock().expect("buffer pool poisoned").len()
    }

    fn give_back(&self, v: Vec<Complex>) {
        if v.capacity() == 0 {
            return;
        }
        let mut free = self.inner.free.lock().expect("buffer pool poisoned");
        if free.len() < self.inner.max_idle {
            free.push(v);
        }
    }
}

/// A block of complex samples checked out of a [`BufferPool`], whose
/// capacity returns to that pool on drop.
///
/// Dereferences to `[Complex]`; fill it with [`Extend`].
#[derive(Debug)]
pub struct SampleBuf {
    data: Vec<Complex>,
    pool: BufferPool,
}

impl SampleBuf {
    /// Current capacity in samples.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }
}

impl Deref for SampleBuf {
    type Target = [Complex];

    fn deref(&self) -> &[Complex] {
        &self.data
    }
}

impl Drop for SampleBuf {
    fn drop(&mut self) {
        self.pool.give_back(std::mem::take(&mut self.data));
    }
}

impl Extend<Complex> for SampleBuf {
    fn extend<T: IntoIterator<Item = Complex>>(&mut self, iter: T) {
        self.data.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn checkout_miss_then_hit() {
        let pool = BufferPool::new();
        let b = pool.checkout(32);
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.hits(), 0);
        drop(b);
        assert_eq!(pool.idle(), 1);
        let b2 = pool.checkout(8);
        assert_eq!(pool.hits(), 1);
        assert!(b2.capacity() >= 32, "recycled capacity is kept");
    }

    #[test]
    fn max_idle_caps_retention() {
        let pool = BufferPool::with_max_idle(2);
        let bufs: Vec<SampleBuf> = (0..4).map(|_| pool.checkout(8)).collect();
        drop(bufs);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn zero_capacity_buffers_not_pooled() {
        let pool = BufferPool::new();
        let b = pool.checkout(0);
        drop(b);
        assert_eq!(pool.idle(), 0, "empty vecs are not worth retaining");
    }

    proptest! {
        // Checkout/return round-trips never lose capacity: a buffer grown
        // to `n` samples comes back from the pool with at least that
        // capacity.
        #[test]
        fn roundtrip_preserves_capacity(n in 1usize..4096) {
            let pool = BufferPool::new();
            let mut b = pool.checkout(0);
            b.extend(std::iter::repeat_n(Complex::ZERO, n));
            let grown = b.capacity();
            prop_assert!(grown >= n);
            drop(b);
            let b2 = pool.checkout(0);
            prop_assert!(b2.capacity() >= grown);
            prop_assert_eq!(b2.len(), 0, "recycled buffers come back empty");
        }

        // Pool misses fall back to fresh allocation with the full requested
        // capacity, and hits+misses always equals total checkouts.
        #[test]
        fn misses_allocate_requested_capacity(caps in proptest::collection::vec(1usize..2048, 1..8)) {
            let pool = BufferPool::new();
            let bufs: Vec<SampleBuf> = caps.iter().map(|&c| pool.checkout(c)).collect();
            for (b, &c) in bufs.iter().zip(&caps) {
                prop_assert!(b.capacity() >= c);
            }
            prop_assert_eq!(pool.misses(), caps.len() as u64, "all live at once: every checkout is a miss");
            prop_assert_eq!(pool.hits(), 0);
        }
    }

    /// Under concurrent checkout/return, no two live buffers ever alias the
    /// same backing storage.
    #[test]
    fn concurrent_checkouts_never_alias() {
        let pool = BufferPool::new();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = pool.clone();
                thread::spawn(move || {
                    let mut ptrs = Vec::new();
                    for i in 0..200 {
                        let mut a = pool.checkout(64);
                        let mut b = pool.checkout(64);
                        a.extend([Complex::new(t as f64, i as f64)]);
                        b.extend([Complex::new(-(t as f64), i as f64)]);
                        let pa = a.as_ptr() as usize;
                        let pb = b.as_ptr() as usize;
                        assert_ne!(pa, pb, "two live buffers share storage");
                        // Writes through one handle are invisible to the other.
                        assert_eq!(a[0], Complex::new(t as f64, i as f64));
                        assert_eq!(b[0], Complex::new(-(t as f64), i as f64));
                        ptrs.push((pa, pb));
                    }
                    ptrs
                })
            })
            .collect();
        let mut live_pairs = 0usize;
        let mut seen = HashSet::new();
        for h in handles {
            for (pa, pb) in h.join().unwrap() {
                live_pairs += 1;
                seen.insert(pa);
                seen.insert(pb);
            }
        }
        assert_eq!(live_pairs, 800);
        assert!(!seen.is_empty());
    }
}
