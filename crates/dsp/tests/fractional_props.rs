//! Bit-identity suite for [`fractional_delay`] and [`fractional_advance`].
//!
//! The ZigBee receiver's sub-sample timing refinement runs each capture
//! through `fractional_advance`, but no committed artifact exercises that
//! path: the golden corpus and the experiments run without fractional
//! timing, and the receiver's own oracle (`rx_bits_props.rs` in
//! `ctc-zigbee`) calls the same two functions, so it cannot see them
//! change. The models below are a fixed copy of their per-sample form —
//! the cubic-Lagrange (Farrow) evaluation [`ctc_dsp::fractional::sample_at`]
//! included — and every output must match them bit for bit: over lengths
//! from empty to about 2,000 samples, integer and fractional shifts (the
//! `mu == 0` branches, the receiver's eighth-sample grid, and shifts past
//! the end), and captures carrying NaN, ±inf and 1e300 samples. "Bit for
//! bit" counts every NaN as one value: a NaN's sign and payload are not
//! part of any operation's contract.

use ctc_dsp::fractional::{fractional_advance, fractional_delay};
use ctc_dsp::Complex;
use proptest::prelude::*;

/// The reference forms: one output sample at a time, written out.
mod model {
    use ctc_dsp::Complex;

    /// Cubic Lagrange through `x[index-1..=index+2]` (edges clamp),
    /// evaluated at `index + mu` in Farrow form.
    fn sample_at(x: &[Complex], index: usize, mu: f64) -> Complex {
        let get = |i: isize| x[i.clamp(0, x.len() as isize - 1) as usize];
        let i = index as isize;
        let xm1 = get(i - 1);
        let x0 = get(i);
        let x1 = get(i + 1);
        let x2 = get(i + 2);
        let c0 = x0;
        let c1 = (x1 - xm1) * 0.5;
        let c2 = xm1 - x0 * 2.5 + x1 * 2.0 - x2 * 0.5;
        let c3 = (x2 - xm1) * 0.5 + (x0 - x1) * 1.5;
        ((c3 * mu + c2) * mu + c1) * mu + c0
    }

    /// Output `n` is `x` at `n - delay`, zero before the signal starts and
    /// ramping in linearly from that zero before the first sample.
    pub fn fractional_delay(x: &[Complex], delay: f64) -> Vec<Complex> {
        let mut out = Vec::new();
        if x.is_empty() {
            return out;
        }
        let d_int = delay.floor() as usize;
        let mu = delay - delay.floor();
        for n in 0..x.len() {
            let y = if n < d_int {
                Complex::ZERO
            } else {
                let base = n - d_int;
                if mu == 0.0 {
                    x[base]
                } else if base == 0 {
                    x[0] * (1.0 - mu)
                } else {
                    sample_at(x, base - 1, 1.0 - mu)
                }
            };
            out.push(y);
        }
        out
    }

    /// Output `n` is `x` at `n + advance`, zero past the end.
    pub fn fractional_advance(x: &[Complex], advance: f64) -> Vec<Complex> {
        let mut out = Vec::new();
        if x.is_empty() {
            return out;
        }
        let a_int = advance.floor() as usize;
        let mu = advance - advance.floor();
        for n in 0..x.len() {
            let base = n + a_int;
            let y = if base >= x.len() {
                Complex::ZERO
            } else if mu == 0.0 {
                x[base]
            } else {
                sample_at(x, base, mu)
            };
            out.push(y);
        }
        out
    }
}

/// Deterministic test waveform with entries in `[-1, 1)` carrying full
/// 53-bit mantissas: with fewer bits the interpolator's sums are exact, and
/// a change in their order or rounding would go unseen.
fn wave(n: usize, seed: u64) -> Vec<Complex> {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut rnd = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    (0..n).map(|_| Complex::new(rnd(), rnd())).collect()
}

/// The special values a capture can carry into the timing refinement.
const SPECIALS: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];

/// `wave(n, seed)` with `SPECIALS[kind]` written into one component of the
/// sample at each `(position, kind)` (positions wrap).
fn poisoned(n: usize, seed: u64, specials: &[(usize, usize)]) -> Vec<Complex> {
    let mut x = wave(n, seed);
    if n > 0 {
        for &(pos, kind) in specials {
            let v = SPECIALS[kind % SPECIALS.len()];
            let s = &mut x[pos % n];
            if pos % 2 == 0 {
                s.re = v;
            } else {
                s.im = v;
            }
        }
    }
    x
}

/// An `f64`'s bits with every NaN as one value.
fn canon(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

fn complex_bits(x: &[Complex]) -> Vec<(u64, u64)> {
    x.iter().map(|v| (canon(v.re), canon(v.im))).collect()
}

/// Both shifts of `x` by `shift` match their models bit for bit.
fn check(x: &[Complex], shift: f64) {
    assert_eq!(
        complex_bits(&fractional_delay(x, shift)),
        complex_bits(&model::fractional_delay(x, shift)),
        "fractional_delay, len {}, delay {shift}",
        x.len()
    );
    assert_eq!(
        complex_bits(&fractional_advance(x, shift)),
        complex_bits(&model::fractional_advance(x, shift)),
        "fractional_advance, len {}, advance {shift}",
        x.len()
    );
}

#[test]
fn edge_lengths_and_shifts_match_the_model() {
    let specials: [&[(usize, usize)]; 3] = [&[], &[(0, 0), (3, 1)], &[(1, 2), (6, 3), (9, 0)]];
    for n in [0usize, 1, 2, 3, 4, 5, 16, 79, 80, 1023, 1024, 1025] {
        for (seed, marks) in specials.iter().enumerate() {
            let x = poisoned(n, seed as u64, marks);
            let len = n as f64;
            for shift in [
                0.0,
                0.5,
                1.0,
                1.125,
                2.875,
                3.0,
                len - 1.0,
                len - 0.25,
                len,
                len + 0.5,
                len + 3.0,
                2.0 * len + 7.0,
            ] {
                if shift >= 0.0 {
                    check(&x, shift);
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn shifts_match_the_model_bit_for_bit(
        n in 0usize..2049,
        seed in 0u64..1_000_000,
        whole in 0usize..2200,
        small in any::<bool>(),
        frac_kind in 0u8..3,
        eighths in 1u8..8,
        frac in 0.0f64..1.0,
        specials in proptest::collection::vec(0usize..4096, 0..5),
    ) {
        // Integer part: a few samples (what the receiver's search yields)
        // or anywhere up to and past the end of the longest input.
        let whole = if small { whole % 4 } else { whole };
        // Fractional part: none (the `mu == 0` branches), the receiver's
        // eighth-sample grid, or anywhere in [0, 1).
        let mu = match frac_kind {
            0 => 0.0,
            1 => f64::from(eighths) / 8.0,
            _ => frac,
        };
        let marks: Vec<(usize, usize)> = specials.iter().map(|&p| (p, p / 1024)).collect();
        check(&poisoned(n, seed, &marks), whole as f64 + mu);
    }
}
