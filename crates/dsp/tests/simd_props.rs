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
//! **bit-identical** to the reference and are asserted exactly. Kernels
//! that fuse or batch existing kernels (the timing search, chip sampling,
//! multi-row correlation, the per-block cyclic-prefix correlation) are
//! asserted bit for bit against those kernels composed the long way, and
//! within the band against the reference. The lane `atan2` is held to
//! libm's `atan2` within 2 ulp, and to its exact bits on special values.
//!
//! Lengths are drawn randomly and the fixed probes include the edge shapes
//! lane code gets wrong first: empty input, a single sample, and tails
//! shorter than one lane block.
//!
//! This suite runs on both CI legs — with the `simd` feature (AVX2+FMA
//! dispatch) and with `--no-default-features` (plain scalar compilation of
//! the same lane bodies) — so it pins the dispatcher *and* the fallback to
//! the same contract.

use ctc_dsp::simd::{self, reference, ChipTaps, GateScanState, LANES};
use ctc_dsp::{fft, metrics, Complex};
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

/// Distance in units in the last place between two finite doubles of the
/// same sign class (adjacent doubles are 1 apart, +0 and -0 are 0 apart).
fn ulps(a: f64, b: f64) -> u64 {
    let ordered = |f: f64| {
        let i = f.to_bits() as i64;
        if i < 0 {
            i64::MIN - i
        } else {
            i
        }
    };
    (ordered(a) - ordered(b)).unsigned_abs()
}

/// A component of random sign whose magnitude is log-uniform over
/// `[2^lo, 2^hi)` with a random 52-bit mantissa; exponents below -1022
/// give subnormals.
fn log_uniform(bits: u64, lo: i32, hi: i32) -> f64 {
    let span = (hi - lo) as u64;
    let e = lo + ((bits >> 53) % span) as i32;
    let m = 1.0 + (bits & ((1 << 52) - 1)) as f64 / (1u64 << 52) as f64;
    // Two steps, so exponents below the normal range round into
    // subnormals instead of flushing through `powi`'s reciprocal.
    let v = m * 2f64.powi(e.max(-1000)) * 2f64.powi((e + 1000).min(0));
    if bits & (1 << 52) != 0 {
        -v
    } else {
        v
    }
}

/// `lane atan2 == libm atan2` within 2 ulp on finite input, in `[-π, π]`.
fn check_arg(x: &[Complex]) {
    let mut got = vec![7.0; x.len()];
    simd::arg_into(x, &mut got);
    let mut want = vec![0.0; x.len()];
    reference::arg_into(x, &mut want);
    for ((v, g), w) in x.iter().zip(&got).zip(&want) {
        assert!(
            g.abs() <= std::f64::consts::PI,
            "arg {v:?} = {g:e} outside [-π, π]"
        );
        assert!(ulps(*g, *w) <= 2, "arg {v:?}: lane {g:e}, libm {w:e}");
    }
}

/// A point set for the Lloyd step: a coarse lattice (duplicates and
/// equidistant ties) or a uniform cloud, with NaN and ±inf mixed in.
fn lloyd_points(n: usize, seed: u64, lattice: bool) -> Vec<Complex> {
    let mut x = wave(n, seed);
    if lattice {
        for v in &mut x {
            *v = Complex::new((v.re * 2.5).round(), (v.im * 2.5).round());
        }
    }
    for (i, v) in x.iter_mut().enumerate() {
        match (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59 {
            0 => v.re = f64::NAN,
            1 => v.im = f64::INFINITY,
            2 => v.re = f64::NEG_INFINITY,
            _ => {}
        }
    }
    x
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

fn canonical(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

fn real_bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|&f| canonical(f)).collect()
}

/// `window_search` against one `cdot_conj` and one `sum_norm_sqr` per
/// window (bit for bit), and against the sequential model (within the
/// reassociation band on finite input).
fn check_window_search(x: &[Complex], t: &[Complex], offsets: usize) {
    let t_re: Vec<f64> = t.iter().map(|v| v.re).collect();
    let t_im: Vec<f64> = t.iter().map(|v| v.im).collect();
    let mut corr = vec![Complex::ZERO; offsets];
    let mut energy = vec![0.0; offsets];
    let mut scratch = vec![7.0; 3];
    simd::window_search(x, &t_re, &t_im, &mut scratch, &mut corr, &mut energy);
    let per_window: Vec<Complex> = (0..offsets)
        .map(|o| simd::cdot_conj(&x[o..o + t.len()], t))
        .collect();
    let per_energy: Vec<f64> = (0..offsets)
        .map(|o| simd::sum_norm_sqr(&x[o..o + t.len()]))
        .collect();
    assert_eq!(
        bits(&corr),
        bits(&per_window),
        "corr t={} offsets={offsets}",
        t.len()
    );
    assert_eq!(
        real_bits(&energy),
        real_bits(&per_energy),
        "energy t={}",
        t.len()
    );

    let mut want_c = vec![Complex::ZERO; offsets];
    let mut want_e = vec![0.0; offsets];
    reference::window_search(x, &t_re, &t_im, &mut want_c, &mut want_e);
    if x.iter().all(|v| v.re.is_finite() && v.im.is_finite()) {
        for o in 0..offsets {
            let seg = &x[o..o + t.len()];
            let scale: f64 = seg.iter().zip(t).map(|(a, b)| a.norm() * b.norm()).sum();
            let scale_e: f64 = seg.iter().map(|v| v.norm_sqr()).sum();
            assert_close_c("window corr", t.len(), scale, want_c[o], corr[o]);
            assert_close("window energy", t.len(), scale_e, want_e[o], energy[o]);
        }
    }
}

/// Chip taps for `pairs` pairs, pre-filled with a sentinel so an unwritten
/// entry shows.
fn taps(pairs: usize) -> (Vec<f64>, Vec<f64>, Vec<Complex>) {
    (
        vec![-7.5; pairs],
        vec![-7.5; pairs],
        vec![Complex::new(-7.5, -7.5); pairs],
    )
}

/// `sample_chips` against a rotated copy sampled at the chip instants —
/// `rotate_in_place` then `phase_rotate_in_place` over all of `x`, each
/// only when set — bit for bit, and against the exact-`cis` model within
/// the phasor drift band.
fn check_sample_chips(x: &[Complex], omega: Option<f64>, r: Option<Complex>) {
    let pairs = x.len().saturating_sub(1) / 4;
    let (mut ri, mut rq, mut rm) = taps(pairs);
    let (mut oi, mut oq, mut om) = taps(pairs);
    simd::sample_chips(
        x,
        omega,
        r,
        ChipTaps {
            i: &mut ri,
            q: &mut rq,
            mid: &mut rm,
        },
        ChipTaps {
            i: &mut oi,
            q: &mut oq,
            mid: &mut om,
        },
    );
    let mut y = x.to_vec();
    if let Some(w) = omega {
        simd::rotate_in_place(&mut y, w);
    }
    if let Some(r) = r {
        simd::phase_rotate_in_place(&mut y, r);
    }
    let pick = |w: &[Complex]| -> (Vec<f64>, Vec<f64>, Vec<Complex>) {
        (
            (0..pairs).map(|n| w[4 * n + 2].re).collect(),
            (0..pairs).map(|n| w[4 * n + 4].im).collect(),
            (0..pairs).map(|n| w[4 * n + 3]).collect(),
        )
    };
    let label = format!("n={} omega={omega:?} r={r:?}", x.len());
    let (xi, xq, xm) = pick(x);
    assert_eq!(real_bits(&ri), real_bits(&xi), "raw i {label}");
    assert_eq!(real_bits(&rq), real_bits(&xq), "raw q {label}");
    assert_eq!(bits(&rm), bits(&xm), "raw mid {label}");
    let (yi, yq, ym) = pick(&y);
    assert_eq!(real_bits(&oi), real_bits(&yi), "i {label}");
    assert_eq!(real_bits(&oq), real_bits(&yq), "q {label}");
    assert_eq!(bits(&om), bits(&ym), "mid {label}");

    if x.iter().all(|v| v.re.is_finite() && v.im.is_finite()) {
        let (mut wi, mut wq, mut wm) = taps(pairs);
        let (mut vi, mut vq, mut vm) = taps(pairs);
        reference::sample_chips(
            x,
            omega,
            r,
            ChipTaps {
                i: &mut wi,
                q: &mut wq,
                mid: &mut wm,
            },
            ChipTaps {
                i: &mut vi,
                q: &mut vq,
                mid: &mut vm,
            },
        );
        assert_eq!(real_bits(&wi), real_bits(&ri), "model raw i {label}");
        assert_eq!(real_bits(&wq), real_bits(&rq), "model raw q {label}");
        assert_eq!(bits(&wm), bits(&rm), "model raw mid {label}");
        for n in 0..pairs {
            let scale = x[4 * n + 2].norm() + x[4 * n + 3].norm() + x[4 * n + 4].norm();
            assert_close("chip i", 1024, scale, vi[n], oi[n]);
            assert_close("chip q", 1024, scale, vq[n], oq[n]);
            assert_close_c("chip mid", 1024, scale, vm[n], om[n]);
        }
    }
}

/// `dot_f64_rows` against one `dot_f64` per row of the chip-major table
/// (bit for bit) and against the sequential model (within the band).
fn check_dot_rows(a: &[f64], rows: usize, seed: u64) {
    let n = a.len();
    let table = reals(n * rows, seed);
    let mut out = vec![0.0; rows];
    simd::dot_f64_rows(a, &table, &mut out);
    let per_row: Vec<f64> = (0..rows)
        .map(|r| {
            let row: Vec<f64> = (0..n).map(|c| table[c * rows + r]).collect();
            simd::dot_f64(a, &row)
        })
        .collect();
    assert_eq!(real_bits(&out), real_bits(&per_row), "n={n} rows={rows}");
    if a.iter().all(|v| v.is_finite()) {
        let mut want = vec![0.0; rows];
        reference::dot_f64_rows(a, &table, &mut want);
        for r in 0..rows {
            let scale: f64 = (0..n).map(|c| (a[c] * table[c * rows + r]).abs()).sum();
            assert_close("dot_f64_rows", n, scale, want[r], out[r]);
        }
    }
}

#[test]
fn chip_sampling_keeps_the_rotated_copys_bits_around_every_reseed() {
    for n in (0..40).chain(1000..1050).chain(2040..2060) {
        for x in [wave(n, n as u64), special_wave(n, n as u64)] {
            for omega in [None, Some(0.0), Some(-0.0), Some(0.0123), Some(-2.9)] {
                for r in [None, Some(Complex::cis(0.7)), Some(Complex::ONE)] {
                    check_sample_chips(&x, omega, r);
                }
            }
        }
    }
}

#[test]
fn window_search_on_special_values_keeps_each_windows_bits() {
    for t_len in [0usize, 1, 7, 8, 13, 128] {
        for offsets in [1usize, 7, 8, 9, 97] {
            let x = special_wave(offsets - 1 + t_len + 3, (t_len * 131 + offsets) as u64);
            let t = wave(t_len, 5);
            check_window_search(&x, &t, offsets);
        }
    }
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
    fn window_search_keeps_each_windows_bits(
        t_len in 0usize..140,
        offsets in 0usize..40,
        extra in 0usize..5,
        seed in 0u64..1000,
    ) {
        let x = wave(offsets.saturating_sub(1) + t_len + extra, seed);
        let t = wave(t_len, seed ^ 0x7777);
        check_window_search(&x, &t, offsets);
    }

    #[test]
    fn sample_chips_keeps_the_rotated_copys_bits(
        n in 0usize..2200,
        seed in 0u64..1000,
        omega in -0.05f64..0.05,
        th in -3.2f64..3.2,
        which in 0u32..4,
    ) {
        let omega = (which & 1 == 1).then_some(omega);
        let r = (which & 2 == 2).then(|| Complex::cis(th));
        check_sample_chips(&wave(n, seed), omega, r);
    }

    #[test]
    fn dot_f64_rows_keeps_each_rows_bits(
        n in 0usize..70,
        rows in 0usize..40,
        seed in 0u64..1000,
    ) {
        check_dot_rows(&reals(n, seed), rows, seed ^ 0x1234);
        let mut special = reals(n, seed);
        if n > 0 {
            special[(seed as usize) % n] = [f64::NAN, f64::INFINITY, -0.0][(seed % 3) as usize];
        }
        check_dot_rows(&special, rows, seed ^ 0x4321);
    }

    #[test]
    fn gated_power_scan_zeroes_nonfinite_power(
        n in 1usize..600,
        seed in 0u64..1000,
        hits in 1usize..4,
    ) {
        // NaN, ±Inf, and a finite sample whose square overflows.
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];
        let mut x = wave(n, seed);
        for h in 0..hits {
            let at = (seed as usize * 31 + h * 97) % n;
            x[at].re = bad[(seed as usize + h) % bad.len()];
        }
        let expected = x.iter().filter(|v| !v.norm_sqr().is_finite()).count();
        let state = GateScanState {
            slot: 0,
            acc: 0.0,
            floor: 1e-3,
            gate: 4e-3,
            threshold: 4.0,
            alpha: 1.0 / 64.0,
            floor_eps: 1e-12,
            inv_w: 1.0 / 16.0,
        };
        let (mut st_got, mut st_want) = (state, state);
        let (mut ring_got, mut ring_want) = (vec![0.0; 16], vec![0.0; 16]);
        let (mut act_got, mut act_want) = (vec![0u8; n], vec![0u8; n]);
        let zeroed = simd::gated_power_scan(&x, &mut ring_got, &mut st_got, &mut act_got);
        let zeroed_ref =
            reference::gated_power_scan(&x, &mut ring_want, &mut st_want, &mut act_want);
        prop_assert_eq!(zeroed, expected);
        prop_assert_eq!(zeroed_ref, expected);
        prop_assert!(st_got.acc.is_finite(), "acc {}", st_got.acc);
        prop_assert!(st_got.floor.is_finite(), "floor {}", st_got.floor);
        prop_assert!(ring_got.iter().all(|p| p.is_finite()));
        prop_assert_eq!(st_got, st_want);
        prop_assert_eq!(&act_got, &act_want);
        // Finite inputs keep their bits: the same stream with the bad
        // samples replaced by zero scans identically.
        let clean: Vec<Complex> = x
            .iter()
            .map(|v| if v.norm_sqr().is_finite() { *v } else { Complex::ZERO })
            .collect();
        let mut st_clean = state;
        let mut ring_clean = vec![0.0; 16];
        let mut act_clean = vec![0u8; n];
        prop_assert_eq!(
            simd::gated_power_scan(&clean, &mut ring_clean, &mut st_clean, &mut act_clean),
            0
        );
        prop_assert_eq!(st_clean, st_got);
        prop_assert_eq!(act_clean, act_got);
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
            let zeroed = simd::gated_power_scan(&x, &mut ring_got, &mut st_got, &mut act_got);
            reference::gated_power_scan(&x, &mut ring_want, &mut st_want, &mut act_want);
            prop_assert_eq!(zeroed, 0, "finite input len={}", len);
            // The reference is the scan's definition (fresh window sums,
            // the floor judged block by block): the whole scan must agree
            // bit for bit.
            prop_assert_eq!(&act_got, &act_want, "flags len={} w={}", len, window);
            prop_assert_eq!(st_got, st_want, "state len={} w={}", len, window);
            prop_assert_eq!(&ring_got, &ring_want, "ring len={} w={}", len, window);
        }
    }
}

#[test]
fn arg_into_is_within_two_ulp_of_libm_from_1e_minus_300_to_1e300() {
    // 2^-997 ≈ 1e-300 to 2^997 ≈ 1e300, the two components drawn apart
    // so every ratio and octant occurs, then the subnormal range alone.
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for (lo, hi) in [(-997, 997), (-1074, -1010), (-30, 30)] {
        let x: Vec<Complex> = (0..60_000)
            .map(|_| Complex::new(log_uniform(next(), lo, hi), log_uniform(next(), lo, hi)))
            .collect();
        check_arg(&x);
    }
    for len in EDGE_LENS {
        check_arg(&wave(len, 5));
    }
}

#[test]
fn arg_into_equals_libm_on_special_values() {
    const SPECIAL: [f64; 16] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        1.0,
        -1.0,
        0.5,
        -3.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE / 1024.0,
        f64::from_bits(1),
        f64::MAX,
        -f64::MAX,
        1e300,
    ];
    let special = |f: f64| f == 0.0 || !f.is_finite();
    let mut x = Vec::new();
    for re in SPECIAL {
        for im in SPECIAL {
            x.push(Complex::new(re, im));
        }
    }
    let mut got = vec![0.0; x.len()];
    simd::arg_into(&x, &mut got);
    for (v, g) in x.iter().zip(&got) {
        let want = v.im.atan2(v.re);
        assert!(
            g.is_nan() || g.abs() <= std::f64::consts::PI,
            "{v:?} -> {g:e}"
        );
        if special(v.re) || special(v.im) {
            assert_eq!(canonical(*g), canonical(want), "arg {v:?}");
        } else {
            assert!(ulps(*g, want) <= 2, "arg {v:?}: lane {g:e}, libm {want:e}");
        }
    }
    // Lane position does not matter: each table entry alone.
    for v in &x {
        let mut one = [0.0];
        simd::arg_into(std::slice::from_ref(v), &mut one);
        let mut at = [0.0];
        reference::arg_into(std::slice::from_ref(v), &mut at);
        if special(v.re) || special(v.im) {
            assert_eq!(canonical(one[0]), canonical(at[0]), "arg {v:?} alone");
        }
    }
}

#[test]
#[should_panic(expected = "one angle per sample")]
fn arg_into_rejects_a_short_output() {
    simd::arg_into(&wave(9, 1), &mut [0.0; 8]);
}

#[test]
fn nearest_centroids_matches_the_scalar_loop_on_ties_and_specials() {
    for k in 1..=6usize {
        for len in EDGE_LENS.into_iter().chain([2 * LANES + 3, 429]) {
            for (seed, lattice) in [(1u64, true), (2, false), (3, true)] {
                let points = lloyd_points(len, seed ^ k as u64, lattice);
                let mut centroids = lloyd_points(k, seed * 7 + k as u64, lattice);
                // Centroids that sit on points give exact-zero distances and
                // ties between duplicate centroids.
                if len > 0 && k > 1 {
                    centroids[k - 1] = points[len / 2];
                    centroids[0] = points[len / 2];
                }
                let prior: Vec<usize> = (0..len).map(|i| (i * 5 + seed as usize) % k).collect();
                let (mut got, mut want) = (prior.clone(), prior);
                let changed = simd::nearest_centroids(&points, &centroids, &mut got);
                let changed_ref = reference::nearest_centroids(&points, &centroids, &mut want);
                assert_eq!(got, want, "k={k} len={len} seed={seed}");
                assert_eq!(changed, changed_ref, "k={k} len={len} seed={seed}");
                // A second pass from its own output changes nothing.
                assert!(!simd::nearest_centroids(&points, &centroids, &mut got));
            }
        }
    }
}

proptest! {
    #[test]
    fn arg_into_stays_within_two_ulp(n in 0usize..300, seed in 0u64..1000, exp in -40i32..40) {
        let scale = 2f64.powi(exp);
        let x: Vec<Complex> = wave(n, seed).iter().map(|v| *v * scale).collect();
        check_arg(&x);
    }

    #[test]
    fn nearest_centroids_is_bit_identical(
        n in 0usize..200,
        k in 1usize..7,
        seed in 0u64..1000,
        lattice in any::<bool>(),
    ) {
        let points = lloyd_points(n, seed, lattice);
        let centroids = lloyd_points(k, seed ^ 0xC0FFEE, lattice);
        let mut got = vec![k - 1; n];
        let mut want = got.clone();
        let changed = simd::nearest_centroids(&points, &centroids, &mut got);
        let changed_ref = reference::nearest_centroids(&points, &centroids, &mut want);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(changed, changed_ref);
    }

    #[test]
    fn cp_correlation_sum_keeps_the_composed_correlations_bits(
        n in 0usize..600,
        block in 1usize..40,
        cp in 0usize..41,
        seed in 0u64..1000,
        specials in any::<bool>(),
    ) {
        let cp = cp.min(block);
        let x = if specials { special_wave(n, seed) } else { wave(n, seed) };
        let got = simd::cp_correlation_sum(&x, block, cp);
        // The per-block composition the cyclic-prefix statistic ran
        // before: one `correlation` call on each block's two slices.
        let mut composed = 0.0;
        for b in x.chunks_exact(block) {
            composed += metrics::correlation(&b[..cp], &b[block - cp..]);
        }
        prop_assert_eq!(canonical(got), canonical(composed), "block={} cp={}", block, cp);
        let want = reference::cp_correlation_sum(&x, block, cp);
        if cp < LANES {
            // No lane partials: the sequential sums are the kernel's.
            prop_assert_eq!(canonical(got), canonical(want));
        } else if !specials {
            let blocks = (n / block) as f64;
            assert_close("cp_correlation_sum", cp, blocks, want, got);
        }
    }
}
