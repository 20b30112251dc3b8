//! Property tests for [`Cf32Reader`], the parser every byte a client
//! sends passes through. Random bytes arrive through a random schedule of
//! read sizes (mostly not whole samples) into a reader with a random chunk
//! size. Whatever the schedule, the reader must:
//!
//! - yield exactly the samples [`read_cf32`] parses from the same bytes;
//! - yield chunks that are never empty and never over the chunk size;
//! - never call `read` again once a whole sample is in hand, so samples
//!   reach the caller as soon as they arrive;
//! - end a stream that stops inside a sample with `InvalidData`;
//! - never panic.

use ctc_dsp::io::{read_cf32, write_cf32, Cf32Reader};
use ctc_dsp::Complex;
use proptest::prelude::*;
use std::cell::RefCell;
use std::io::{self, Read};

/// A source that hands its bytes over in a cycled schedule of read sizes
/// (each capped by the caller's buffer), logging every `read`'s count.
struct Scheduled<'a> {
    bytes: &'a [u8],
    sizes: &'a [usize],
    next: usize,
    log: &'a RefCell<Vec<usize>>,
}

impl Read for Scheduled<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let size = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        let n = size.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        self.log.borrow_mut().push(n);
        Ok(n)
    }
}

/// Bit patterns, so that NaN samples from random bytes compare equal.
fn bits(samples: &[Complex]) -> Vec<(u64, u64)> {
    samples
        .iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

/// Reads `bytes` through `sizes` with `chunk_samples` and checks every
/// property in the module docs.
fn check_reader(bytes: &[u8], sizes: &[usize], chunk_samples: usize) {
    let log = RefCell::new(Vec::new());
    let source = Scheduled {
        bytes,
        sizes,
        next: 0,
        log: &log,
    };
    let mut reader = Cf32Reader::new(source).with_chunk_samples(chunk_samples);
    let whole = bytes.len() / 8 * 8;
    let mut got = Vec::new();
    let mut chunk = Vec::new();
    let ending = loop {
        let calls_before = log.borrow().len();
        let carry = log.borrow().iter().sum::<usize>() - 8 * got.len();
        let result = reader.read_chunk(&mut chunk);

        // Every read but the last of this call left less than one whole
        // sample in hand: the reader stops at the first whole sample.
        let log_now = log.borrow();
        let calls = &log_now[calls_before..];
        assert!(
            !calls.is_empty(),
            "each call reads the source at least once"
        );
        let mut in_hand = carry;
        for (i, &n) in calls[..calls.len() - 1].iter().enumerate() {
            in_hand += n;
            assert!(
                in_hand < 8,
                "read {} of the call made with {in_hand} bytes in hand (carry {carry})",
                i + 2
            );
        }

        match result {
            Ok(0) => break Ok(()),
            Ok(n) => {
                assert_eq!(n, chunk.len());
                assert!(n <= chunk_samples, "chunk of {n} > {chunk_samples}");
                got.extend_from_slice(&chunk);
                assert!(got.len() * 8 <= whole, "more samples than the bytes hold");
            }
            Err(e) => break Err(e),
        }
    };
    assert_eq!(
        log.borrow().iter().sum::<usize>(),
        bytes.len(),
        "the reader stopped before the end of the source"
    );
    assert_eq!(reader.samples_read(), got.len() as u64);
    assert_eq!(bits(&got), bits(&read_cf32(&bytes[..whole]).unwrap()));
    match ending {
        Ok(()) => assert_eq!(whole, bytes.len(), "trailing bytes accepted"),
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            assert_ne!(whole, bytes.len(), "error on a whole-sample stream: {e}");
            let slurped = read_cf32(bytes).unwrap_err();
            assert_eq!(slurped.kind(), io::ErrorKind::InvalidData);
        }
    }
}

proptest! {
    #[test]
    fn any_read_schedule_yields_the_slurped_samples(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        sizes in proptest::collection::vec(1usize..700, 1..12),
        chunk_samples in 1usize..96,
    ) {
        check_reader(&bytes, &sizes, chunk_samples);
    }

    #[test]
    fn byte_dribbles_yield_the_slurped_samples(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        sizes in proptest::collection::vec(1usize..10, 1..8),
        chunk_samples in 1usize..8,
    ) {
        check_reader(&bytes, &sizes, chunk_samples);
    }
}

/// Bytes dribbled out 3, 4, …, 7, 1, 2, 3, … at a time, so almost every
/// sample straddles two reads.
#[test]
fn cycling_one_to_seven_byte_reads() {
    let samples: Vec<Complex> = (0..257).map(|i| Complex::new(i as f64, -1.0)).collect();
    let mut bytes = Vec::new();
    write_cf32(&mut bytes, &samples).unwrap();
    check_reader(&bytes, &[3, 4, 5, 6, 7, 1, 2], 100);
    bytes.extend_from_slice(&[1, 2, 3]);
    check_reader(&bytes, &[3, 4, 5, 6, 7, 1, 2], 100);
}
