//! IQ sample file I/O in the de-facto SDR interchange format: interleaved
//! little-endian `f32` I/Q pairs ("cf32", GNURadio's native file format).
//!
//! This is the bridge to real hardware: a ZigBee frame recorded with a
//! USRP + GNURadio file sink can be fed straight into the attack pipeline,
//! and an emulated waveform written here plays out of a GNURadio file
//! source.

use crate::complex::Complex;
use std::io::{self, Read, Write};

/// One cf32 sample as the byte stream carries it: the little-endian `f32`
/// I value, then the Q value. [`Cf32Reader::read_raw`] hands samples over
/// in this form, before any parsing.
pub type Cf32 = [u8; 8];

/// A sample type the ingest path reads: a parsed [`Complex`], or a
/// [`Cf32`] pair still in its byte form.
///
/// The energy gate's scan kernel, `EnergyStream` and `BurstSplitter`
/// each have one body, generic over this trait, so a cf32 stream can be
/// gated and split straight from the bytes of a read without parsing
/// every sample first. The trait is sealed: these two types are the only
/// ones.
pub trait IqSample: Copy + sealed::Sealed {
    /// The sample as a [`Complex`]. A [`Cf32`] pair widens each `f32`
    /// to `f64` exactly as [`Cf32Reader::read_chunk`] does, so any
    /// arithmetic on the widened value has the bits it has on the parsed
    /// sample.
    fn widen(self) -> Complex;
}

impl IqSample for Complex {
    #[inline(always)]
    fn widen(self) -> Complex {
        self
    }
}

impl IqSample for Cf32 {
    #[inline(always)]
    fn widen(self) -> Complex {
        let [r0, r1, r2, r3, i0, i1, i2, i3] = self;
        Complex::new(
            f32::from_le_bytes([r0, r1, r2, r3]) as f64,
            f32::from_le_bytes([i0, i1, i2, i3]) as f64,
        )
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for crate::complex::Complex {}
    impl Sealed for super::Cf32 {}
}

/// Default [`Cf32Reader`] chunk size in samples (512 KiB of cf32): the
/// largest chunk one read hands over, not a size every chunk reaches.
pub const DEFAULT_CHUNK_SAMPLES: usize = 65_536;

/// Incremental cf32 reader: pulls chunks of samples from any byte stream
/// (file, stdin, TCP socket) without slurping it into memory.
///
/// Each chunk is what one underlying `read` delivered, capped at the
/// chunk size: a file or an in-memory slice fills whole chunks, while a
/// socket or pipe hands its samples over as they arrive instead of
/// holding them until a full chunk has accumulated.
///
/// A sample may straddle two underlying `read` calls — the reader carries
/// the partial bytes across calls, so any byte-level chunking of the
/// source yields the same samples. Only a partial sample at end-of-stream
/// is an error.
///
/// # Examples
///
/// ```
/// use ctc_dsp::io::{write_cf32, Cf32Reader};
/// use ctc_dsp::Complex;
///
/// let samples: Vec<Complex> = (0..100).map(|i| Complex::new(i as f64, 0.0)).collect();
/// let mut bytes = Vec::new();
/// write_cf32(&mut bytes, &samples)?;
///
/// let mut reader = Cf32Reader::new(&bytes[..]).with_chunk_samples(32);
/// let mut back = Vec::new();
/// let mut chunk = Vec::new();
/// while reader.read_chunk(&mut chunk)? > 0 {
///     assert!(chunk.len() <= 32);
///     back.extend_from_slice(&chunk);
/// }
/// assert_eq!(back, samples);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct Cf32Reader<R> {
    inner: R,
    chunk_samples: usize,
    /// Reusable byte scratch, grown once to chunk size and never shrunk, so
    /// steady-state reads perform zero allocations.
    buf: Vec<u8>,
    /// Bytes of an incomplete trailing sample from the previous read.
    carry: [u8; 8],
    carry_len: usize,
    samples_read: u64,
}

impl<R: Read> Cf32Reader<R> {
    /// Wraps a byte stream with the default chunk size
    /// ([`DEFAULT_CHUNK_SAMPLES`]).
    pub fn new(inner: R) -> Self {
        Cf32Reader {
            inner,
            chunk_samples: DEFAULT_CHUNK_SAMPLES,
            buf: Vec::new(),
            carry: [0; 8],
            carry_len: 0,
            samples_read: 0,
        }
    }

    /// Sets the chunk size in samples: the most samples one
    /// [`read_chunk`](Self::read_chunk) returns.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if the read buffer's byte count (`n`
    /// samples of 8 bytes plus a carried partial sample) overflows
    /// `usize`, which would otherwise wrap to a tiny buffer.
    pub fn with_chunk_samples(mut self, n: usize) -> Self {
        assert!(n > 0, "chunk size must be positive");
        assert!(
            n.checked_mul(8)
                .and_then(|bytes| bytes.checked_add(7))
                .is_some(),
            "chunk size of {n} samples overflows its byte count"
        );
        self.chunk_samples = n;
        self
    }

    /// Total samples produced so far.
    pub fn samples_read(&self) -> u64 {
        self.samples_read
    }

    /// Reads the next chunk into `out` (cleared first), returning the
    /// number of samples read; `0` means end of stream.
    ///
    /// This is [`read_raw`](Self::read_raw) with every sample widened to
    /// a [`Complex`] ([`IqSample::widen`]).
    ///
    /// # Errors
    ///
    /// As [`read_raw`](Self::read_raw).
    pub fn read_chunk(&mut self, out: &mut Vec<Complex>) -> io::Result<usize> {
        out.clear();
        out.extend(self.read_raw()?.iter().map(|s| s.widen()));
        Ok(out.len())
    }

    /// Reads the next chunk and returns its whole samples as the source
    /// sent them, unparsed; an empty slice means end of stream. The slice
    /// borrows the reader's buffer and lives until the next read.
    ///
    /// Returns as soon as the source has delivered at least one whole
    /// sample: a chunk holds what one `read` of the source delivered
    /// (several reads only while the first sample is incomplete), capped
    /// at the chunk size. Files and slices fill whole chunks; sockets and
    /// pipes may return short ones before the end of the stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; end-of-stream inside a sample (a byte count
    /// not divisible by 8) is an `InvalidData` error.
    pub fn read_raw(&mut self) -> io::Result<&[Cf32]> {
        let want = self.carry_len + self.chunk_samples * 8;
        if self.buf.len() < want {
            // One-time grow (and zero-fill); steady-state calls reuse it and
            // only ever touch bytes that a `read` filled this call.
            self.buf.resize(want, 0);
        }
        let buf = &mut self.buf[..want];
        buf[..self.carry_len].copy_from_slice(&self.carry[..self.carry_len]);
        let mut filled = self.carry_len;
        // Stop at the first whole sample: reading on would hold the
        // samples already here until the source sends again.
        while filled < 8 {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let whole = filled / 8 * 8;
        self.carry_len = filled - whole;
        self.carry[..self.carry_len].copy_from_slice(&buf[whole..filled]);
        if whole == 0 && self.carry_len != 0 {
            return Err(partial_sample_error(self.carry_len));
        }
        let (samples, _) = self.buf[..whole].as_chunks::<8>();
        self.samples_read += samples.len() as u64;
        Ok(samples)
    }
}

/// Iterating yields owned chunks, each what one
/// [`read_chunk`](Cf32Reader::read_chunk) returns: any chunk may be short.
impl<R: Read> Iterator for Cf32Reader<R> {
    type Item = io::Result<Vec<Complex>>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut chunk = Vec::new();
        match self.read_chunk(&mut chunk) {
            Ok(0) => None,
            Ok(_) => Some(Ok(chunk)),
            Err(e) => Some(Err(e)),
        }
    }
}

fn partial_sample_error(extra: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("cf32 stream ends inside a sample ({extra} trailing bytes; samples are 8 bytes)"),
    )
}

/// Reads cf32 samples from any reader until EOF.
///
/// Streams through [`Cf32Reader`] chunks, so peak memory is the sample
/// vector itself rather than samples plus a full byte copy.
///
/// # Errors
///
/// Propagates I/O errors; a trailing partial sample (fewer than 8 bytes)
/// is an `InvalidData` error.
///
/// # Examples
///
/// ```
/// use ctc_dsp::io::{read_cf32, write_cf32};
/// use ctc_dsp::Complex;
///
/// let samples = vec![Complex::new(1.0, -0.5), Complex::new(0.25, 2.0)];
/// let mut buf = Vec::new();
/// write_cf32(&mut buf, &samples)?;
/// let back = read_cf32(&buf[..])?;
/// assert_eq!(back, samples);
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn read_cf32<R: Read>(reader: R) -> io::Result<Vec<Complex>> {
    let mut reader = Cf32Reader::new(reader);
    let mut all = Vec::new();
    let mut chunk = Vec::new();
    while reader.read_chunk(&mut chunk)? > 0 {
        all.extend_from_slice(&chunk);
    }
    Ok(all)
}

/// Writes samples as cf32 to any writer.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_cf32<W: Write>(mut writer: W, samples: &[Complex]) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(samples.len() * 8);
    for s in samples {
        bytes.extend_from_slice(&(s.re as f32).to_le_bytes());
        bytes.extend_from_slice(&(s.im as f32).to_le_bytes());
    }
    writer.write_all(&bytes)
}

/// Reads a cf32 file from disk.
///
/// # Errors
///
/// Propagates [`read_cf32`] and file-open errors.
pub fn read_cf32_file(path: &std::path::Path) -> io::Result<Vec<Complex>> {
    read_cf32(std::fs::File::open(path)?)
}

/// Writes a cf32 file to disk.
///
/// # Errors
///
/// Propagates [`write_cf32`] and file-create errors.
pub fn write_cf32_file(path: &std::path::Path, samples: &[Complex]) -> io::Result<()> {
    write_cf32(std::fs::File::create(path)?, samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_in_memory() {
        let samples: Vec<Complex> = (0..100)
            .map(|i| Complex::new(i as f64 * 0.25, -(i as f64) * 0.5))
            .collect();
        let mut buf = Vec::new();
        write_cf32(&mut buf, &samples).unwrap();
        assert_eq!(buf.len(), 800);
        assert_eq!(read_cf32(&buf[..]).unwrap(), samples);
    }

    #[test]
    fn empty_stream() {
        assert!(read_cf32(&[][..]).unwrap().is_empty());
        let mut buf = Vec::new();
        write_cf32(&mut buf, &[]).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn partial_sample_rejected() {
        let err = read_cf32(&[0u8; 7][..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn layout_is_little_endian_iq() {
        let mut buf = Vec::new();
        write_cf32(&mut buf, &[Complex::new(1.0, 2.0)]).unwrap();
        assert_eq!(&buf[..4], &1.0f32.to_le_bytes());
        assert_eq!(&buf[4..], &2.0f32.to_le_bytes());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ctc_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.cf32");
        let samples = vec![Complex::new(-0.5, 0.75); 16];
        write_cf32_file(&path, &samples).unwrap();
        assert_eq!(read_cf32_file(&path).unwrap(), samples);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn chunked_reader_matches_slurp_for_any_chunk_size() {
        let samples: Vec<Complex> = (0..1000)
            .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let mut bytes = Vec::new();
        write_cf32(&mut bytes, &samples).unwrap();
        let samples = read_cf32(&bytes[..]).unwrap(); // f32-rounded reference
        for chunk_size in [1usize, 3, 64, 333, 1000, 4096] {
            let mut reader = Cf32Reader::new(&bytes[..]).with_chunk_samples(chunk_size);
            let mut back = Vec::new();
            let mut chunk = Vec::new();
            let mut short = false;
            loop {
                let n = reader.read_chunk(&mut chunk).unwrap();
                if n == 0 {
                    break;
                }
                // A slice fills every buffer: only the last chunk is short.
                assert!(!short && n <= chunk_size, "chunk size {chunk_size}");
                short = n < chunk_size;
                back.extend_from_slice(&chunk);
            }
            assert_eq!(back, samples, "chunk size {chunk_size}");
            assert_eq!(reader.samples_read(), samples.len() as u64);
        }
    }

    /// `read_raw` hands over the bytes of each whole sample unparsed, and
    /// widening them gives `read_chunk`'s samples bit for bit, special
    /// values included; a sample split across reads is carried whole.
    #[test]
    fn raw_reads_widen_to_the_parsed_chunks() {
        let values = [
            0.0f32,
            -0.0,
            1.5,
            -2.25e-3,
            f32::MIN_POSITIVE / 4.0,
            1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut bytes = Vec::new();
        for (i, re) in values.iter().enumerate() {
            bytes.extend_from_slice(&re.to_le_bytes());
            bytes.extend_from_slice(&values[(i + 3) % values.len()].to_le_bytes());
        }
        // A source whose reads split samples: 3 bytes, then 13, then the rest.
        let splits = || {
            let (a, rest) = bytes.split_at(3);
            let (b, c) = rest.split_at(13);
            a.chain(b).chain(c)
        };
        let mut raw_reader = Cf32Reader::new(splits()).with_chunk_samples(4);
        let mut parsed_reader = Cf32Reader::new(splits()).with_chunk_samples(4);
        let mut chunk = Vec::new();
        let mut seen = 0;
        loop {
            let raw: Vec<Cf32> = raw_reader.read_raw().unwrap().to_vec();
            let n = parsed_reader.read_chunk(&mut chunk).unwrap();
            assert_eq!(raw.len(), n);
            if n == 0 {
                break;
            }
            for (r, c) in raw.iter().zip(&chunk) {
                let w = r.widen();
                assert_eq!(w.re.to_bits(), c.re.to_bits());
                assert_eq!(w.im.to_bits(), c.im.to_bits());
                assert_eq!(r[..], bytes[seen * 8..seen * 8 + 8]);
                seen += 1;
            }
        }
        assert_eq!(seen, values.len());
        assert_eq!(raw_reader.samples_read(), values.len() as u64);
    }

    #[test]
    fn chunk_sizes_whose_byte_count_overflows_are_rejected() {
        let builds = |n: usize| {
            std::panic::catch_unwind(|| Cf32Reader::new(&[][..]).with_chunk_samples(n)).is_ok()
        };
        let largest = (usize::MAX - 7) / 8;
        assert!(builds(largest));
        assert!(!builds(largest + 1));
        assert!(!builds(usize::MAX / 8 + 1), "a byte count that wraps to 0");
        assert!(!builds(0));
    }

    #[test]
    fn chunked_reader_rejects_trailing_partial_sample() {
        let mut bytes = Vec::new();
        write_cf32(&mut bytes, &[Complex::ONE; 10]).unwrap();
        bytes.extend_from_slice(&[1, 2, 3]); // 3 stray bytes
        let mut reader = Cf32Reader::new(&bytes[..]).with_chunk_samples(4);
        let mut chunk = Vec::new();
        let err = loop {
            match reader.read_chunk(&mut chunk) {
                Ok(0) => panic!("partial trailing sample must error"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn iterator_yields_owned_chunks() {
        let samples = vec![Complex::new(2.0, 3.0); 10];
        let mut bytes = Vec::new();
        write_cf32(&mut bytes, &samples).unwrap();
        let chunks: Vec<Vec<Complex>> = Cf32Reader::new(&bytes[..])
            .with_chunk_samples(4)
            .map(|c| c.unwrap())
            .collect();
        assert_eq!(
            chunks.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
    }

    #[test]
    fn f32_precision_loss_is_bounded() {
        let original = vec![Complex::new(0.123456789012345, -0.987654321098765)];
        let mut buf = Vec::new();
        write_cf32(&mut buf, &original).unwrap();
        let back = read_cf32(&buf[..]).unwrap();
        assert!((back[0] - original[0]).norm() < 1e-7);
    }
}
