//! Radix-2 decimation-in-time FFT/IFFT.
//!
//! The attack and the WiFi OFDM chain both revolve around the 64-point
//! transform (IEEE 802.11g uses 64 subcarriers), but the implementation is
//! generic over any power-of-two length so tests can cross-check against a
//! naive DFT at several sizes.
//!
//! Conventions match the paper's eq. (1): the *inverse* transform synthesizes
//! the time-domain waveform from frequency components with a `1/N` factor,
//! and the forward transform recovers the components, so
//! `fft(ifft(x)) == x` and Parseval's theorem holds as
//! `sum |x(n)|^2 == (1/N) sum |X(k)|^2`.

use crate::buffer::SampleBuf;
use crate::complex::Complex;
use crate::simd;
use std::sync::OnceLock;

/// Error produced when a transform is requested for an unsupported length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftLenError {
    len: usize,
}

impl std::fmt::Display for FftLenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fft length must be a nonzero power of two, got {}",
            self.len
        )
    }
}

impl std::error::Error for FftLenError {}

fn check_len(len: usize) -> Result<(), FftLenError> {
    if len == 0 || !len.is_power_of_two() {
        Err(FftLenError { len })
    } else {
        Ok(())
    }
}

/// Largest stage or transform length, as a power of two, whose twiddle
/// table and bit-reversal swaps are built once and kept for the life of
/// the process. If every size up to it occurs, the twiddles take 512 KiB
/// per direction and the swaps 256 KiB; longer transforms build theirs per
/// call with the same builders.
const CACHED_LOG2: usize = 15;

/// The tables of one power-of-two length, each built on first use.
struct Tables {
    /// The bit-reversal swap pairs of a transform of this length.
    swaps: OnceLock<Box<[(u32, u32)]>>,
    /// The twiddles of a stage of this length, forward then inverse.
    twiddles: [OnceLock<Box<[Complex]>>; 2],
}

/// Tables by length (`log2`).
static TABLES: [Tables; CACHED_LOG2 + 1] = [const {
    Tables {
        swaps: OnceLock::new(),
        twiddles: [const { OnceLock::new() }; 2],
    }
}; CACHED_LOG2 + 1];

/// The `len / 2` twiddles of one radix-2 stage, `w_k = wlen^k` by the
/// serial recurrence `w ← w·wlen` from `w_0 = 1`, with
/// `wlen = e^{sign·j·2π/len}` (`sign` −1 forward, +1 inverse). Every
/// butterfly block of the stage reads the same table, so a transform gets
/// the bits the per-block recurrence gave
/// ([`simd::reference::fft_stage`]).
fn build_twiddles(len: usize, sign: f64) -> Box<[Complex]> {
    let wlen = Complex::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
    let mut w = Complex::ONE;
    (0..len / 2)
        .map(|_| {
            let t = w;
            w *= wlen;
            t
        })
        .collect()
}

/// Calls `swap(i, j)` for every bit-reversal pair `i < j` of an `n`-point
/// transform, in the order the in-place permutation applies them.
fn for_each_swap(n: usize, mut swap: impl FnMut(usize, usize)) {
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            swap(i, j);
        }
    }
}

/// In-place iterative radix-2 butterfly; `sign` is -1 for forward, +1 for
/// inverse (no scaling applied here).
fn transform_in_place(buf: &mut [Complex], sign: f64) {
    let n = buf.len();
    let log2 = n.trailing_zeros() as usize;
    let dir = usize::from(sign > 0.0);
    match TABLES.get(log2) {
        Some(tables) => {
            let swaps = tables.swaps.get_or_init(|| {
                let mut pairs = Vec::new();
                for_each_swap(n, |i, j| pairs.push((i as u32, j as u32)));
                pairs.into_boxed_slice()
            });
            for &(i, j) in swaps.iter() {
                buf.swap(i as usize, j as usize);
            }
        }
        None => for_each_swap(n, |i, j| buf.swap(i, j)),
    }
    for s in 1..=log2 {
        let len = 1usize << s;
        match TABLES.get(s) {
            Some(tables) => {
                let twiddles = tables.twiddles[dir].get_or_init(|| build_twiddles(len, sign));
                simd::fft_stage(buf, twiddles);
            }
            None => simd::fft_stage(buf, &build_twiddles(len, sign)),
        }
    }
}

/// Forward FFT: `X(k) = sum_n x(n) e^{-j 2 pi k n / N}`.
///
/// # Errors
///
/// Returns [`FftLenError`] unless `x.len()` is a nonzero power of two.
///
/// # Examples
///
/// ```
/// use ctc_dsp::{fft, Complex};
/// let x = vec![Complex::ONE; 4];
/// let spec = fft::fft(&x)?;
/// assert!((spec[0] - Complex::new(4.0, 0.0)).norm() < 1e-12);
/// assert!(spec[1].norm() < 1e-12);
/// # Ok::<(), ctc_dsp::fft::FftLenError>(())
/// ```
pub fn fft(x: &[Complex]) -> Result<Vec<Complex>, FftLenError> {
    let mut buf = x.to_vec();
    fft_in_place(&mut buf)?;
    Ok(buf)
}

/// Forward FFT transforming the buffer in place (no allocation).
///
/// # Errors
///
/// Returns [`FftLenError`] unless `buf.len()` is a nonzero power of two.
pub fn fft_in_place(buf: &mut [Complex]) -> Result<(), FftLenError> {
    check_len(buf.len())?;
    transform_in_place(buf, -1.0);
    Ok(())
}

/// Forward FFT writing into a caller-supplied buffer (cleared first).
///
/// # Errors
///
/// Returns [`FftLenError`] unless `x.len()` is a nonzero power of two.
pub fn fft_into(x: &[Complex], out: &mut SampleBuf) -> Result<(), FftLenError> {
    check_len(x.len())?;
    out.clear();
    out.extend_from_slice(x);
    transform_in_place(out, -1.0);
    Ok(())
}

/// Inverse FFT: `x(n) = (1/N) sum_k X(k) e^{+j 2 pi k n / N}`.
///
/// # Errors
///
/// Returns [`FftLenError`] unless `spectrum.len()` is a nonzero power of two.
pub fn ifft(spectrum: &[Complex]) -> Result<Vec<Complex>, FftLenError> {
    let mut buf = spectrum.to_vec();
    ifft_in_place(&mut buf)?;
    Ok(buf)
}

/// Inverse FFT transforming the buffer in place (no allocation).
///
/// # Errors
///
/// Returns [`FftLenError`] unless `buf.len()` is a nonzero power of two.
pub fn ifft_in_place(buf: &mut [Complex]) -> Result<(), FftLenError> {
    check_len(buf.len())?;
    transform_in_place(buf, 1.0);
    let n = buf.len() as f64;
    for v in buf.iter_mut() {
        *v /= n;
    }
    Ok(())
}

/// Inverse FFT writing into a caller-supplied buffer (cleared first).
///
/// # Errors
///
/// Returns [`FftLenError`] unless `spectrum.len()` is a nonzero power of two.
pub fn ifft_into(spectrum: &[Complex], out: &mut SampleBuf) -> Result<(), FftLenError> {
    check_len(spectrum.len())?;
    out.clear();
    out.extend_from_slice(spectrum);
    ifft_in_place(out).expect("length already checked");
    Ok(())
}

/// Forward FFT of exactly 64 samples, the size used throughout the paper.
///
/// # Panics
///
/// Panics if `x.len() != 64`; the fixed size is part of the 802.11g contract.
pub fn fft64(x: &[Complex]) -> Vec<Complex> {
    assert_eq!(x.len(), 64, "fft64 requires exactly 64 samples");
    fft(x).expect("64 is a power of two")
}

/// Inverse FFT of exactly 64 frequency components.
///
/// # Panics
///
/// Panics if `spectrum.len() != 64`.
pub fn ifft64(spectrum: &[Complex]) -> Vec<Complex> {
    assert_eq!(spectrum.len(), 64, "ifft64 requires exactly 64 components");
    ifft(spectrum).expect("64 is a power of two")
}

/// Naive `O(N^2)` DFT used as a cross-check oracle in tests and benches.
pub fn dft_naive(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|t| {
                    x[t] * Complex::cis(-2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64)
                })
                .sum()
        })
        .collect()
}

/// Energy of a time-domain block (`sum |x|^2`).
pub fn energy(x: &[Complex]) -> f64 {
    simd::sum_norm_sqr(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close_vec(a: &[Complex], b: &[Complex], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (*x - *y).norm() < tol)
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(fft(&[]).is_err());
        assert!(fft(&[Complex::ONE; 3]).is_err());
        assert!(ifft(&[Complex::ONE; 6]).is_err());
        assert!(fft(&[Complex::ONE; 64]).is_ok());
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::ONE;
        let spec = fft(&x).unwrap();
        for v in spec {
            assert!((v - Complex::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * (k0 * t) as f64 / n as f64))
            .collect();
        let spec = fft(&x).unwrap();
        for (k, v) in spec.iter().enumerate() {
            if k == k0 {
                assert!((v.norm() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.norm() < 1e-9, "leakage at bin {k}: {}", v.norm());
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let fast = fft(&x).unwrap();
        let slow = dft_naive(&x);
        assert!(close_vec(&fast, &slow, 1e-9));
    }

    #[test]
    fn fft64_panics_on_wrong_len() {
        let r = std::panic::catch_unwind(|| fft64(&[Complex::ZERO; 32]));
        assert!(r.is_err());
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex> = (0..16)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        let b: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64).cos(), 0.3))
            .collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a).unwrap();
        let fb = fft(&b).unwrap();
        let fs = fft(&sum).unwrap();
        let fsum: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(close_vec(&fs, &fsum, 1e-9));
    }

    proptest! {
        #[test]
        fn roundtrip_fft_ifft(values in proptest::collection::vec(-100.0f64..100.0, 64)) {
            let x: Vec<Complex> = values.chunks(2)
                .map(|c| Complex::new(c[0], c.get(1).copied().unwrap_or(0.0)))
                .collect();
            // x has 32 entries; pad to 32 (power of two) — already is.
            let spec = fft(&x).unwrap();
            let back = ifft(&spec).unwrap();
            prop_assert!(close_vec(&x, &back, 1e-9));
        }

        #[test]
        fn parseval_holds(values in proptest::collection::vec(-10.0f64..10.0, 128)) {
            let x: Vec<Complex> = values.chunks(2).map(|c| Complex::new(c[0], c[1])).collect();
            let spec = fft(&x).unwrap();
            let et = energy(&x);
            let ef = energy(&spec) / x.len() as f64;
            prop_assert!((et - ef).abs() < 1e-6 * (1.0 + et));
        }

        #[test]
        fn random_matches_naive(values in proptest::collection::vec(-5.0f64..5.0, 32)) {
            let x: Vec<Complex> = values.chunks(2).map(|c| Complex::new(c[0], c[1])).collect();
            let fast = fft(&x).unwrap();
            let slow = dft_naive(&x);
            prop_assert!(close_vec(&fast, &slow, 1e-8));
        }
    }
}
