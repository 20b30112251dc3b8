//! What the feature ensemble allocates per burst: a counting global
//! allocator wraps `System` and counts, per thread, every allocation and
//! the bytes it asks for, around `DetectionPipeline::score` of the standard
//! pipeline on the `hello` frame and on its WiFi emulation as the ZigBee
//! radio captures it.
//!
//! The counts are pinned, so an extractor that starts allocating per burst
//! fails here. The OFDM-artifact extractor in particular allocates nothing
//! but the entries of a fresh output vector: its phase trends live in a
//! per-thread buffer that a burst no longer than the thread's last reuses.

use ctc_core::attack::Emulator;
use ctc_core::defense::pipeline::OfdmArtifactExtractor;
use ctc_core::defense::{
    DetectionPipeline, Detector, FeatureExtractor, FeatureInput, FeatureVector,
};
use ctc_dsp::Complex;
use ctc_zigbee::{Receiver, Transmitter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation, and the bytes each asks
/// for (a reallocation counts its new size).
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching them from
    // inside the allocator never allocates or registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one request on the calling thread. `try_with` fails only while
/// the thread's locals are being torn down, when nothing is measured.
fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` unchanged, so the layout
// and pointer contracts `GlobalAlloc` requires are `System`'s own; the
// counting touches only thread-local `Cell`s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and bytes the calling thread requests while running `f`.
fn measure<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let (n0, b0) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    std::hint::black_box(f());
    (ALLOCATIONS.with(Cell::get) - n0, BYTES.with(Cell::get) - b0)
}

/// One captured burst and what scoring it may allocate.
struct Case {
    label: &'static str,
    burst: Vec<Complex>,
    /// The bytes one `score` call asked for while the phase trend still
    /// built four vectors per burst: no call may exceed it.
    ceiling: u64,
    /// Steady-state (allocations, bytes) of one `score` call.
    pinned: (u64, u64),
}

/// The authentic `hello` burst and its forgery, as captured.
fn cases() -> [Case; 2] {
    let authentic = Transmitter::new()
        .transmit_payload(b"hello")
        .expect("short payload");
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
    [
        Case {
            label: "authentic",
            burst: authentic,
            ceiling: 65_872,
            pinned: (13, 38_720),
        },
        Case {
            label: "forged",
            burst: forged,
            ceiling: 66_240,
            pinned: (13, 38_864),
        },
    ]
}

#[test]
fn standard_pipeline_allocations_per_burst_are_pinned() {
    let pipeline = DetectionPipeline::standard(Detector::default());
    let rx = Receiver::usrp();
    let cases = cases().map(|case| {
        let reception = rx.receive(&case.burst);
        (case, reception)
    });
    // A fresh input per call, as the gateway builds one per burst.
    let score = |burst: &[Complex], reception| {
        let input = FeatureInput::with_samples(reception, burst);
        pipeline
            .score(&input)
            .expect("the burst carries chip samples")
    };
    // The process-wide tables (FFT twiddles, Welch windows, line-search
    // plans) fill on the first burst any thread scores. Fill them on
    // another thread, so this one measures per-burst work from an empty
    // phase-trend buffer.
    std::thread::scope(|s| {
        s.spawn(|| {
            for (case, reception) in &cases {
                score(&case.burst, reception);
            }
        });
    });
    for (case, reception) in &cases {
        let (label, ceiling) = (case.label, case.ceiling);
        // The first call grows this thread's phase-trend buffer.
        let first = measure(|| score(&case.burst, reception));
        let steady = measure(|| score(&case.burst, reception));
        assert!(
            first.1 <= ceiling && steady.1 <= ceiling,
            "{label}: score asked for {first:?} then {steady:?} (allocations, bytes), \
             over its {ceiling}-byte ceiling"
        );
        assert_eq!(
            steady, case.pinned,
            "{label}: (allocations, bytes) per call"
        );
        let again = measure(|| score(&case.burst, reception));
        assert_eq!(again, steady, "{label}: the count repeats");
    }
}

#[test]
fn ofdm_extractor_allocates_only_its_output_entries() {
    let rx = Receiver::usrp();
    for Case { label, burst, .. } in cases() {
        let reception = rx.receive(&burst);
        let input = FeatureInput::with_samples(&reception, &burst);
        input.features().expect("the burst carries chip samples");
        let extract = || {
            let mut out = FeatureVector::new();
            OfdmArtifactExtractor.extract(&input, &mut out);
            out
        };
        // The first call on a thread may grow its phase-trend buffer once.
        let first = measure(extract);
        assert!(first.0 <= 2, "{label}: first call made {first:?}");
        let steady = measure(extract);
        assert!(
            steady.0 <= 1,
            "{label}: the extractor made {} allocations beyond its output vector",
            steady.0 - 1
        );
        assert_eq!(steady, (1, 96), "{label}: (allocations, bytes) per call");
    }
}
