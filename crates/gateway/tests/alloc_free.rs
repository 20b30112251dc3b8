//! Proof of the allocation-free sample path: a counting global allocator
//! wraps `System`, and the steady-state ingest loop (read chunk → energy
//! detection → burst splitting) must make **zero** heap allocations per
//! chunk once its buffers have warmed up, in both ingest forms: parsed
//! chunks, and the cf32 pairs of each read as the gateway scans them.
//!
//! The tests run the pipeline stages inline on the test's own thread,
//! rather than through the threaded `GatewayServer`, and the allocator
//! counts per thread: sibling tests running in parallel under the
//! default harness allocate on their own threads and never show up in a
//! measured delta.

use ctc_core::defense::{BurstCapture, BurstSplitter, EnergyDetector};
use ctc_dsp::io::Cf32Reader;
use ctc_dsp::{BufferPool, Complex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

/// Counts every allocation and reallocation (frees are not interesting:
/// the criterion is that steady state requests no new memory).
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread. `try_with` fails only
/// while the thread's locals are being torn down, when nothing is
/// measured.
fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged, so the layout
// and pointer contracts `GlobalAlloc` requires are `System`'s own; the
// counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A pseudo-noise cf32 byte stream (xorshift — no rand, no allocation).
fn noise_cf32(samples: usize, seed: u64, amplitude: f32) -> Vec<u8> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Map to roughly uniform [-1, 1).
        (state >> 11) as f32 / (1u64 << 52) as f32 * 2.0 - 1.0
    };
    let mut bytes = Vec::with_capacity(samples * 8);
    for _ in 0..samples {
        bytes.extend_from_slice(&(next() * amplitude).to_le_bytes());
        bytes.extend_from_slice(&(next() * amplitude).to_le_bytes());
    }
    bytes
}

/// The gateway ingest loop in steady state — reader chunking plus burst
/// splitting over a quiet channel — allocates nothing per chunk.
#[test]
fn ingest_loop_steady_state_allocates_nothing() {
    const CHUNK: usize = 4096;
    const WARMUP_CHUNKS: usize = 8;
    const MEASURED_CHUNKS: usize = 64;

    let bytes = noise_cf32((WARMUP_CHUNKS + MEASURED_CHUNKS) * CHUNK, 0x5eed, 0.01);
    let mut reader = Cf32Reader::new(Cursor::new(&bytes)).with_chunk_samples(CHUNK);
    let mut splitter = BurstSplitter::new(EnergyDetector::default());
    let mut chunk: Vec<Complex> = Vec::new();
    let mut captures: Vec<BurstCapture> = Vec::new();

    // Warm-up: the reader's byte buffer, the chunk vector and the
    // splitter's history ring all grow to their steady-state sizes here.
    for _ in 0..WARMUP_CHUNKS {
        assert_eq!(reader.read_chunk(&mut chunk).unwrap(), CHUNK);
        splitter.push_into(&chunk, &mut captures);
        assert!(captures.is_empty(), "noise must not trigger bursts");
    }

    let before = allocations();
    for _ in 0..MEASURED_CHUNKS {
        assert_eq!(reader.read_chunk(&mut chunk).unwrap(), CHUNK);
        splitter.push_into(&chunk, &mut captures);
        assert!(captures.is_empty(), "noise must not trigger bursts");
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state ingest made {delta} allocations over {MEASURED_CHUNKS} chunks"
    );
}

/// The gateway's own form of the loop — each read's cf32 pairs gated and
/// split as they arrived, never parsed — allocates nothing per quiet
/// read either.
#[test]
fn cf32_ingest_loop_steady_state_allocates_nothing() {
    const CHUNK: usize = 4096;
    const WARMUP_CHUNKS: usize = 8;
    const MEASURED_CHUNKS: usize = 64;

    let bytes = noise_cf32((WARMUP_CHUNKS + MEASURED_CHUNKS) * CHUNK, 0xcf32, 0.01);
    let mut reader = Cf32Reader::new(Cursor::new(&bytes)).with_chunk_samples(CHUNK);
    let mut splitter = BurstSplitter::cf32(EnergyDetector::default());
    let mut captures: Vec<BurstCapture> = Vec::new();

    for _ in 0..WARMUP_CHUNKS {
        let raw = reader.read_raw().unwrap();
        assert_eq!(raw.len(), CHUNK);
        splitter.push_into(raw, &mut captures);
        assert!(captures.is_empty(), "noise must not trigger bursts");
    }

    let before = allocations();
    for _ in 0..MEASURED_CHUNKS {
        let raw = reader.read_raw().unwrap();
        assert_eq!(raw.len(), CHUNK);
        splitter.push_into(raw, &mut captures);
        assert!(captures.is_empty(), "noise must not trigger bursts");
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state cf32 ingest made {delta} allocations over {MEASURED_CHUNKS} reads"
    );
}

/// The flight recorder rides the same hot path, so it is held to the
/// same bar: journaling a burst, its stage boundaries and a queue-depth
/// sample for every chunk — against a recorder at the default capacity,
/// wrapping many times over — requests no heap memory at all.
#[test]
fn flight_recorder_steady_state_allocates_nothing() {
    use ctc_obs::flight::{EventKind, FlightEvent, FlightRecorder};

    const CHUNK: usize = 4096;
    const WARMUP_CHUNKS: usize = 8;
    const MEASURED_CHUNKS: usize = 64;

    let recorder = FlightRecorder::with_capacity(FlightRecorder::DEFAULT_CAPACITY);
    let bytes = noise_cf32((WARMUP_CHUNKS + MEASURED_CHUNKS) * CHUNK, 0xf11e, 0.01);
    let mut reader = Cf32Reader::new(Cursor::new(&bytes)).with_chunk_samples(CHUNK);
    let mut splitter = BurstSplitter::new(EnergyDetector::default());
    let mut chunk: Vec<Complex> = Vec::new();
    let mut captures: Vec<BurstCapture> = Vec::new();

    let record_chunk = |recorder: &FlightRecorder, seq: u64, n: usize| {
        let t = recorder.now_us();
        recorder.record(
            FlightEvent::new(EventKind::Burst, 1, seq, t).with_args(seq * CHUNK as u64, n as u64),
        );
        recorder.record(FlightEvent::new(EventKind::Stage, 1, seq, t).with_args(0, 17));
        recorder.record(FlightEvent::new(EventKind::QueueDepth, 1, seq, t).with_args(3, 0));
    };

    for seq in 0..WARMUP_CHUNKS as u64 {
        assert_eq!(reader.read_chunk(&mut chunk).unwrap(), CHUNK);
        splitter.push_into(&chunk, &mut captures);
        record_chunk(&recorder, seq, chunk.len());
    }

    let before = allocations();
    for seq in 0..MEASURED_CHUNKS as u64 {
        assert_eq!(reader.read_chunk(&mut chunk).unwrap(), CHUNK);
        splitter.push_into(&chunk, &mut captures);
        record_chunk(&recorder, seq, chunk.len());
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "flight-recorder steady state made {delta} allocations over {MEASURED_CHUNKS} chunks"
    );
    assert_eq!(
        recorder.recorded(),
        ((WARMUP_CHUNKS + MEASURED_CHUNKS) * 3) as u64,
        "every event was journaled"
    );
}

/// With frames in the stream, capture buffers come from the shared pool:
/// after one pass has warmed the pool, further bursts are free-list hits,
/// never fresh allocations — parsed or cf32, the captures are the same.
#[test]
fn burst_captures_reuse_pooled_buffers() {
    // A square burst is enough for the energy detector; the decode side is
    // not under test here.
    let mut bytes = noise_cf32(4096, 7, 0.01);
    let mut burst = Vec::new();
    for i in 0..600 {
        let v = if (i / 4) % 2 == 0 { 1.0f32 } else { -1.0 };
        burst.extend_from_slice(&v.to_le_bytes());
        burst.extend_from_slice(&0.0f32.to_le_bytes());
    }
    bytes.extend_from_slice(&burst);
    bytes.extend_from_slice(&noise_cf32(4096, 11, 0.01));

    let pool = BufferPool::new();
    let run = |pool: &BufferPool| {
        let mut reader = Cf32Reader::new(Cursor::new(&bytes)).with_chunk_samples(1024);
        let mut splitter = BurstSplitter::new(EnergyDetector::default()).with_pool(pool.clone());
        let mut chunk: Vec<Complex> = Vec::new();
        let mut captures: Vec<BurstCapture> = Vec::new();
        let mut total = 0usize;
        while reader.read_chunk(&mut chunk).unwrap() > 0 {
            splitter.push_into(&chunk, &mut captures);
            total += captures.len();
            captures.clear(); // worker done: buffers return to the pool
        }
        splitter.finish_into(&mut captures);
        total += captures.len();
        total
    };
    let run_cf32 = |pool: &BufferPool| {
        let mut reader = Cf32Reader::new(Cursor::new(&bytes)).with_chunk_samples(1024);
        let mut splitter = BurstSplitter::cf32(EnergyDetector::default()).with_pool(pool.clone());
        let mut captures: Vec<BurstCapture> = Vec::new();
        let mut total = 0usize;
        loop {
            let raw = reader.read_raw().unwrap();
            if raw.is_empty() {
                break;
            }
            splitter.push_into(raw, &mut captures);
            total += captures.len();
            captures.clear();
        }
        splitter.finish_into(&mut captures);
        total += captures.len();
        total
    };

    assert_eq!(run(&pool), 1, "the burst is found");
    let misses_after_first = pool.misses();
    assert_eq!(run(&pool), 1);
    assert_eq!(run_cf32(&pool), 1, "the cf32 form finds it too");
    assert_eq!(
        pool.misses(),
        misses_after_first,
        "later passes allocated fresh capture buffers instead of pool hits"
    );
    assert!(pool.hits() >= 2);
}
