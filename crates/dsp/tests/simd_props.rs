//! Property tests bounding every lane kernel in [`ctc_dsp::simd`] against
//! its order-preserving sequential model in [`ctc_dsp::simd::reference`].
//!
//! The lane kernels reassociate: they split a length-`n` sum across
//! [`ctc_dsp::simd::LANES`] partial accumulators and fold the partials at
//! the end. IEEE addition is not associative, so the result may differ from
//! the left-to-right reference — but only by rounding, which is bounded by
//! an ULP-scaled band of `c · n · ε · ‖terms‖₁` (the classic reassociation
//! bound: each of the ~`n` additions contributes at most one rounding of a
//! partial sum, and every partial is bounded by the magnitude sum of the
//! terms). Kernels that perform *identical* per-element arithmetic in
//! identical order (phasor application, norm computation, butterfly
//! recurrence, the gated power scan with a power-of-two EWMA) must be
//! **bit-identical** to the reference and are asserted exactly.
//!
//! Lengths are drawn randomly and the fixed probes include the edge shapes
//! lane code gets wrong first: empty input, a single sample, and tails
//! shorter than one lane block.
//!
//! This suite runs on both CI legs — with the `simd` feature (AVX2+FMA
//! dispatch) and with `--no-default-features` (plain scalar compilation of
//! the same lane bodies) — so it pins the dispatcher *and* the fallback to
//! the same contract.

use ctc_dsp::simd::{self, reference, GateScanState, LANES};
use ctc_dsp::{fft, Complex};
use proptest::prelude::*;

/// Deterministic test waveform with entries in `[-1, 1)`.
fn wave(n: usize, seed: u64) -> Vec<Complex> {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut rnd = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    (0..n).map(|_| Complex::new(rnd(), rnd())).collect()
}

fn reals(n: usize, seed: u64) -> Vec<f64> {
    wave(n, seed).into_iter().map(|v| v.re).collect()
}

/// Lengths every property sweeps in addition to its random draw: empty,
/// one sample, a sub-lane tail, one exact lane block, a block plus a tail.
const EDGE_LENS: [usize; 6] = [0, 1, 3, LANES, LANES + 5, 4 * LANES + 7];

/// Reassociation band: `|got - want| ≤ c·n·ε·scale` where `scale` is the
/// magnitude sum of the summed terms. `c = 4` leaves headroom for the
/// fold of the lane partials and the final complex magnitude.
fn assert_close(label: &str, n: usize, scale: f64, want: f64, got: f64) {
    let tol = 4.0 * (n as f64 + 1.0) * f64::EPSILON * scale.max(f64::MIN_POSITIVE);
    assert!(
        (want - got).abs() <= tol,
        "{label}: n={n} want {want:.17e} got {got:.17e} (|Δ| {:.3e} > tol {:.3e})",
        (want - got).abs(),
        tol
    );
}

fn assert_close_c(label: &str, n: usize, scale: f64, want: Complex, got: Complex) {
    assert_close(&format!("{label}.re"), n, scale, want.re, got.re);
    assert_close(&format!("{label}.im"), n, scale, want.im, got.im);
}

fn check_dots(n: usize, seed: u64, omega: f64) {
    let a = wave(n, seed);
    let b = wave(n, seed ^ 0x5555);
    let scale: f64 = a.iter().zip(&b).map(|(x, y)| x.norm() * y.norm()).sum();

    assert_close_c(
        "cdot",
        n,
        scale,
        reference::cdot(&a, &b),
        simd::cdot(&a, &b),
    );
    assert_close_c(
        "cdot_conj",
        n,
        scale,
        reference::cdot_conj(&a, &b),
        simd::cdot_conj(&a, &b),
    );
    // The rotated form also carries the lane-phasor recurrence, which
    // drifts O(RESYNC·ε) from the exact per-index `cis` before re-seeding;
    // fold that into the scale via an extra length factor.
    assert_close_c(
        "cdot_conj_rotated",
        n + 1024,
        scale,
        reference::cdot_conj_rotated(&a, &b, omega),
        simd::cdot_conj_rotated(&a, &b, omega),
    );

    let t = reals(n, seed ^ 0xAAAA);
    let scale_t: f64 = t.iter().zip(&a).map(|(t, x)| t.abs() * x.norm()).sum();
    assert_close_c(
        "dot_real",
        n,
        scale_t,
        reference::dot_real(&t, &a),
        simd::dot_real(&t, &a),
    );

    let u = reals(n, seed ^ 0x3333);
    let scale_u: f64 = t.iter().zip(&u).map(|(x, y)| (x * y).abs()).sum();
    assert_close(
        "dot_f64",
        n,
        scale_u,
        reference::dot_f64(&t, &u),
        simd::dot_f64(&t, &u),
    );

    let scale_e: f64 = a.iter().map(|v| v.norm_sqr()).sum();
    assert_close(
        "sum_norm_sqr",
        n,
        scale_e,
        reference::sum_norm_sqr(&a),
        simd::sum_norm_sqr(&a),
    );
}

/// One stage's twiddles by the serial recurrence `w ← w·wlen` from 1.
fn recurrence_twiddles(len: usize, wlen: Complex) -> Vec<Complex> {
    let mut w = Complex::ONE;
    (0..len / 2)
        .map(|_| {
            let t = w;
            w *= wlen;
            t
        })
        .collect()
}

/// The transform `fft`/`ifft` ran before their cached tables: the in-place
/// bit-reversal loop, then every stage regenerating its twiddles by the
/// recurrence in each block, then the inverse's `1/N`.
fn recurrence_transform(x: &[Complex], inverse: bool) -> Vec<Complex> {
    let mut buf = x.to_vec();
    let n = buf.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let wlen = Complex::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
        reference::fft_stage(&mut buf, len, wlen);
        len <<= 1;
    }
    if inverse {
        for v in &mut buf {
            *v /= n as f64;
        }
    }
    buf
}

/// A test waveform with IEEE special values mixed in: signed zeros,
/// infinities, NaN and subnormals, each in a few places.
fn special_wave(n: usize, seed: u64) -> Vec<Complex> {
    const SPECIAL: [f64; 7] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE / 8.0,
        -f64::MIN_POSITIVE / 1024.0,
    ];
    let mut x = wave(n, seed);
    for (i, v) in x.iter_mut().enumerate() {
        let h = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
        match h {
            0..=6 => v.re = SPECIAL[h as usize],
            7..=13 => v.im = SPECIAL[h as usize - 7],
            _ => {}
        }
    }
    x
}

/// Bit patterns, with every NaN as one value: a NaN's sign and payload are
/// not part of any operation's contract (Rust leaves them unspecified, and
/// LLVM may swap the operands of an addition or product, which decides
/// which NaN an x86 instruction returns), so only NaN-ness is compared.
fn bits(x: &[Complex]) -> Vec<(u64, u64)> {
    let canonical = |f: f64| {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else {
            f.to_bits()
        }
    };
    x.iter()
        .map(|v| (canonical(v.re), canonical(v.im)))
        .collect()
}

/// The table-driven stage against the recurrence stage at every stage
/// length from 2 to 2^14, both directions, on two blocks holding ±0, ±inf,
/// NaN and subnormals.
#[test]
fn table_driven_fft_stage_matches_the_recurrence_at_every_length() {
    for pow in 1..=14u32 {
        let len = 1usize << pow;
        for sign in [-1.0, 1.0] {
            let wlen = Complex::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
            let mut got = special_wave(2 * len, u64::from(pow));
            let mut want = got.clone();
            simd::fft_stage(&mut got, &recurrence_twiddles(len, wlen));
            reference::fft_stage(&mut want, len, wlen);
            assert_eq!(bits(&got), bits(&want), "len={len} sign={sign}");
        }
    }
}

/// `fft` and `ifft` against the recurrence transform at every size from 1
/// to 2^14, on finite and on special-valued inputs.
#[test]
fn fft_and_ifft_match_the_recurrence_transform_at_every_size() {
    for pow in 0..=14u32 {
        let n = 1usize << pow;
        for x in [wave(n, u64::from(pow)), special_wave(n, u64::from(pow))] {
            assert_eq!(
                bits(&fft::fft(&x).unwrap()),
                bits(&recurrence_transform(&x, false)),
                "fft n={n}"
            );
            assert_eq!(
                bits(&fft::ifft(&x).unwrap()),
                bits(&recurrence_transform(&x, true)),
                "ifft n={n}"
            );
        }
    }
}

proptest! {
    #[test]
    fn dot_kernels_stay_in_reassociation_band(
        n in 0usize..400,
        seed in 0u64..1000,
        omega in -3.0f64..3.0,
    ) {
        check_dots(n, seed, omega);
        for len in EDGE_LENS {
            check_dots(len, seed, omega);
        }
    }

    #[test]
    fn fir_interior_matches_reference_per_output(
        taps in 1usize..48,
        extra in 0usize..80,
        seed in 0u64..1000,
    ) {
        let t = reals(taps, seed ^ 0xF1F1);
        let x = wave(taps + extra, seed);
        let outs = x.len() + 1 - t.len();
        let mut got = vec![Complex::ZERO; outs];
        let mut want = got.clone();
        simd::fir_interior(&t, &x, &mut got);
        reference::fir_interior(&t, &x, &mut want);
        let scale: f64 = t.iter().map(|v| v.abs()).sum::<f64>() * 2.0f64.sqrt();
        for (j, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_close_c(&format!("fir_interior[{j}]"), taps, scale, *w, *g);
        }
    }

    #[test]
    fn norm_sqr_into_is_bit_identical(n in 0usize..300, seed in 0u64..1000) {
        for len in EDGE_LENS.into_iter().chain([n]) {
            let x = wave(len, seed);
            let mut got = Vec::new();
            let mut want = Vec::new();
            simd::norm_sqr_into(&x, &mut got);
            reference::norm_sqr_into(&x, &mut want);
            // |x|² is one multiply-add per element in both forms: exact.
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn phase_rotate_is_bit_identical(n in 0usize..300, seed in 0u64..1000, th in -3.2f64..3.2) {
        let r = Complex::cis(th);
        for len in EDGE_LENS.into_iter().chain([n]) {
            let mut got = wave(len, seed);
            let mut want = got.clone();
            simd::phase_rotate_in_place(&mut got, r);
            reference::phase_rotate_in_place(&mut want, r);
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn rotate_stays_near_exact_phasors(n in 0usize..3000, seed in 0u64..1000, omega in -3.0f64..3.0) {
        let mut got = wave(n, seed);
        let mut want = got.clone();
        simd::rotate_in_place(&mut got, omega);
        reference::rotate_in_place(&mut want, omega);
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            // The lane phasor advances by a recurrence and re-seeds from
            // exact `cis` every RESYNC samples, so the drift is bounded by
            // O(RESYNC·ε) ≈ 1e-12 on a unit-magnitude value — the same
            // band the in-module `rotate_in_place` test holds the
            // dispatcher to.
            prop_assert!(
                (*w - *g).norm() <= 1e-12 * w.norm().max(1.0),
                "sample {i}: want {w:?} got {g:?}"
            );
        }
    }

    #[test]
    fn dtft_norms_stay_in_reassociation_band(
        n in 0usize..400,
        nfreq in 1usize..24,
        seed in 0u64..1000,
    ) {
        for len in EDGE_LENS.into_iter().chain([n]) {
            let z = wave(len, seed);
            let nus: Vec<f64> = (0..nfreq).map(|k| -0.4 + 0.037 * k as f64).collect();
            let mut got = vec![0.0; nfreq];
            let mut want = got.clone();
            simd::dtft_norms(&z, &nus, &mut got);
            reference::dtft_norms(&z, &nus, &mut want);
            let scale: f64 = z.iter().map(|v| v.norm()).sum();
            for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                // Block-Horner vs direct sum: both are ~len operations on
                // terms bounded by ‖z‖₁; the shared phasor powers add a
                // few ULPs more, covered by the band's headroom factor.
                assert_close(&format!("dtft[{k}]"), len + 64, scale, *w, *g);
            }
        }
    }

    #[test]
    fn fft_stage_is_bit_identical(pow in 1u32..9, seed in 0u64..1000) {
        let n = 1usize << pow;
        let mut len = 2;
        while len <= n {
            let wlen = Complex::cis(-2.0 * std::f64::consts::PI / len as f64);
            let mut got = wave(n, seed ^ len as u64);
            let mut want = got.clone();
            simd::fft_stage(&mut got, &recurrence_twiddles(len, wlen));
            reference::fft_stage(&mut want, len, wlen);
            // Identical butterfly arithmetic and twiddles: exact.
            prop_assert_eq!(&got, &want, "n={} len={}", n, len);
            len <<= 1;
        }
    }

    #[test]
    fn fft_and_ifft_keep_the_recurrence_transforms_bits(pow in 0u32..12, seed in 0u64..1000) {
        let x = special_wave(1 << pow, seed);
        for inverse in [false, true] {
            let got = if inverse { fft::ifft(&x) } else { fft::fft(&x) }.unwrap();
            prop_assert_eq!(bits(&got), bits(&recurrence_transform(&x, inverse)));
        }
    }

    #[test]
    fn cumulant_sums_stay_in_reassociation_band(n in 0usize..400, seed in 0u64..1000) {
        for len in EDGE_LENS.into_iter().chain([n]) {
            let x = wave(len, seed);
            let got = simd::cumulant_sums(&x);
            let want = reference::cumulant_sums(&x);
            let s2: f64 = x.iter().map(|v| v.norm_sqr()).sum();
            let s4: f64 = x.iter().map(|v| v.norm_sqr() * v.norm_sqr()).sum();
            assert_close_c("s2", len, s2, want.s2, got.s2);
            assert_close("sa2", len, s2, want.sa2, got.sa2);
            assert_close_c("s4", len, s4, want.s4, got.s4);
            assert_close_c("s31", len, s4, want.s31, got.s31);
            assert_close("sa4", len, s4, want.sa4, got.sa4);
        }
    }

    #[test]
    fn gated_power_scan_is_bit_identical(
        n in 0usize..2000,
        window_pow in 1u32..8,
        non_pow2 in 0u32..2,
        seed in 0u64..1000,
    ) {
        // Cover both the exact-reciprocal (power-of-two window) fast path
        // and the divide fallback for odd windows.
        let window = if non_pow2 == 1 {
            (1usize << window_pow) + 1
        } else {
            1usize << window_pow
        };
        for len in EDGE_LENS.into_iter().chain([n]) {
            let x = wave(len, seed);
            let inv_w = if window.is_power_of_two() {
                1.0 / window as f64
            } else {
                0.0
            };
            let mut st_got = GateScanState {
                slot: 0,
                acc: 0.0,
                floor: 1e-3,
                gate: 4e-3,
                threshold: 4.0,
                alpha: 1.0 / 64.0,
                floor_eps: 1e-12,
                inv_w,
            };
            let mut st_want = st_got;
            let mut ring_got = vec![0.0; window];
            let mut ring_want = ring_got.clone();
            let mut act_got = vec![0u8; len];
            let mut act_want = vec![0u8; len];
            simd::gated_power_scan(&x, &mut ring_got, &mut st_got, &mut act_got);
            reference::gated_power_scan(&x, &mut ring_want, &mut st_want, &mut act_want);
            // alpha is a power of two, so the kernel's fused `mul_add`
            // EWMA rounds exactly like the textbook two-step form: the
            // whole scan must agree bit for bit.
            prop_assert_eq!(&act_got, &act_want, "flags len={} w={}", len, window);
            prop_assert_eq!(st_got, st_want, "state len={} w={}", len, window);
            prop_assert_eq!(&ring_got, &ring_want, "ring len={} w={}", len, window);
        }
    }
}
