//! Explicit-SIMD lane kernels for the complex multiply-accumulate hot path.
//!
//! Stable-Rust SIMD without `std::simd`: every kernel is written once as
//! *lane-structured* scalar code — fixed-width accumulator arrays
//! (`[f64; LANES]`), fixed-order reduction trees, and inner loops whose
//! arithmetic order does not depend on how the compiler vectorizes them.
//! The `kernels!` macro compiles that one body twice:
//!
//! - a plain build, always present — the scalar fallback;
//! - an `#[target_feature(enable = "avx2", enable = "fma")]` clone (only
//!   when the `simd` cargo feature is on and the target is x86_64), which
//!   the public dispatcher selects at runtime via
//!   `is_x86_feature_detected!`. Inside the clone, LLVM's SLP vectorizer
//!   turns the lane arrays into YMM registers.
//!
//! Because Rust never contracts (`a*b + c` → fma) or reassociates floating
//! point, both clones execute the *identical* arithmetic: the SIMD and
//! scalar builds are **bit-identical**, so one committed golden-vector
//! corpus serves both CI legs and the `simd` feature is purely a speed
//! knob.
//!
//! ## Tolerance policy
//!
//! Kernels that mirror a pre-existing scalar loop element-for-element
//! ([`dtft_norms`], [`fft_stage`], [`norm_sqr_into`],
//! [`phase_rotate_in_place`]) are bit-equal to the code they replaced.
//! Kernels that fuse or batch other kernels keep those kernels' bits:
//! [`window_search`] gives every window the [`cdot_conj`] and
//! [`sum_norm_sqr`] sums, [`sample_chips`] the samples a copy rotated by
//! [`rotate_in_place`] then [`phase_rotate_in_place`] holds at the chip
//! instants, and [`dot_f64_rows`] each row's [`dot_f64`].
//! [`dtft_norms`] computes each frequency alone, so any subset of a grid
//! gets the bits the whole grid gives at those frequencies.
//! [`fft_stage`] reads its twiddles from a table; given the table
//! `fft` builds by the serial `w·wlen` recurrence, it is bit-equal to the
//! stage that ran the recurrence in every block
//! ([`reference::fft_stage`]), at every length and on ±0, ±inf, NaN and
//! subnormal inputs. "Bit-equal" counts every NaN as one value: a NaN's
//! sign and payload are not part of any operation's contract (Rust leaves
//! them unspecified, and the compiler may swap the operands of a sum or
//! product, which decides which NaN an x86 instruction returns).
//! Kernels that re-associate a reduction into per-lane partial sums
//! ([`cdot_conj`], [`dot_f64`], [`sum_norm_sqr`], [`cumulant_sums`],
//! [`fir_interior`]) or re-seed phasors block-wise
//! ([`rotate_in_place`], [`cdot_conj_rotated`]) drift from the sequential
//! order by `O(n · ulp)` — far inside every golden-vector stage tolerance.
//! Property tests in `tests/simd_props.rs` pin each one against the
//! order-preserving models in [`mod@reference`] within a ULP-scaled band, on
//! random lengths including empty, single-sample, and non-lane-multiple
//! tails.
//!
//! ## Adding a kernel
//!
//! Declare the signature in the `kernels!` invocation, write the body as a
//! `pub fn` in the `body` module using `[f64; LANES]` accumulators with a
//! fixed reduction (`reduce`-style), add an order-preserving model to
//! [`mod@reference`], and a case to `tests/simd_props.rs`. Keep per-call work
//! coarse (a whole block, stage, or search — not one sample) so the
//! runtime-dispatch check amortizes.

use crate::complex::Complex;
use crate::io::IqSample;

/// Accumulator lane width. Eight `f64` lanes span two AVX2 YMM registers,
/// giving the out-of-order core independent dependency chains even when
/// only 256-bit vectors are available.
pub const LANES: usize = 8;

/// Samples between exact-`cis` phasor re-seeds in the rotating kernels,
/// bounding incremental-phasor drift to ~1e-13 over arbitrarily long
/// waveforms (matches the scalar `frequency_shift_in_place` policy).
const RESYNC: usize = 1024;

/// Raw power sums over one sample block, accumulated lane-parallel by
/// [`cumulant_sums`]. `Cumulants::estimate` turns these into the
/// paper's second- and fourth-order cumulants; they are exposed so batch
/// callers can combine blocks without touching the samples twice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CumulantSums {
    /// `Σ x²`.
    pub s2: Complex,
    /// `Σ |x|²`.
    pub sa2: f64,
    /// `Σ x⁴`.
    pub s4: Complex,
    /// `Σ x³·conj(x)`.
    pub s31: Complex,
    /// `Σ |x|⁴`.
    pub sa4: f64,
}

/// Scalar state advanced by [`gated_scan`]: the sliding-window power
/// sum (ring cursor + running total) and the idle-gated EWMA noise floor
/// with its cached decision gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateScanState {
    /// Ring slot the next sample overwrites.
    pub slot: usize,
    /// Running sum of the ring.
    pub acc: f64,
    /// EWMA noise-floor estimate.
    pub floor: f64,
    /// `floor * threshold`, kept in lockstep with `floor`.
    pub gate: f64,
    /// Power ratio over the floor that declares a sample active.
    pub threshold: f64,
    /// EWMA weight. MUST be a power of two: the kernel folds the update
    /// into `mul_add`, which only matches mul-then-add bitwise when the
    /// product is exact.
    pub alpha: f64,
    /// Lower clamp applied to the floor after every update.
    pub floor_eps: f64,
    /// `1/window` when the window length is a power of two (multiplying is
    /// then bit-identical to dividing), else `0.0` and the kernel divides.
    pub inv_w: f64,
}

/// Where [`sample_chips`] writes one set of O-QPSK chip samples: per chip
/// pair `n`, the in-phase value `i[n]`, the quadrature value `q[n]` and the
/// complex sample `mid[n]` between the two pulse centres. All three slices
/// hold one entry per chip pair.
#[derive(Debug)]
pub struct ChipTaps<'a> {
    /// In-phase chip values (even chips).
    pub i: &'a mut [f64],
    /// Quadrature chip values (odd chips).
    pub q: &'a mut [f64],
    /// Samples midway between the I and Q pulse centres.
    pub mid: &'a mut [Complex],
}

impl ChipTaps<'_> {
    /// Chip pairs the taps hold.
    fn pairs(&self) -> usize {
        assert!(
            self.q.len() == self.i.len() && self.mid.len() == self.i.len(),
            "chip taps differ in length"
        );
        self.i.len()
    }
}

/// Fixed-order pairwise reduction of an 8-lane accumulator. The tree shape
/// is part of the numeric contract: both compilations of a kernel reduce
/// in exactly this order.
#[inline(always)]
fn reduce(v: [f64; LANES]) -> f64 {
    ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]))
}

/// [`reduce`] of each column of `G` lane sets: `out[g]` folds `v[0][g], …,
/// v[LANES-1][g]` in [`reduce`]'s tree, so many sums finish side by side.
#[inline(always)]
fn reduce_columns<const G: usize>(v: &[[f64; G]; LANES]) -> [f64; G] {
    std::array::from_fn(|g| {
        ((v[0][g] + v[4][g]) + (v[2][g] + v[6][g])) + ((v[1][g] + v[5][g]) + (v[3][g] + v[7][g]))
    })
}

/// Fixed-order reduction of a 4-lane accumulator (used where eight lanes
/// of complex fourth-power state would spill registers).
#[inline(always)]
fn reduce4(v: [f64; 4]) -> f64 {
    (v[0] + v[2]) + (v[1] + v[3])
}

/// One block-Horner term: `c[0] + c[1]·w + c[2]·w² + c[3]·w³` with the
/// trailing products dropped for short blocks. Mirrors the original
/// `Features::estimate` inner closure exactly (same operation order).
#[inline(always)]
fn dtft_block(c: &[Complex], w: Complex, w2: Complex, w3: Complex) -> Complex {
    let mut b = c[0];
    if c.len() > 1 {
        b += c[1] * w;
    }
    if c.len() > 2 {
        b += c[2] * w2;
    }
    if c.len() > 3 {
        b += c[3] * w3;
    }
    b
}

/// `|Σ_i z[i]·e^{-j·nu·i}|` by block Horner at a single frequency — the
/// scalar path [`dtft_norms`] reduces to, kept bit-equal to the original
/// `Features::estimate` implementation.
#[inline(always)]
fn dtft_one(z: &[Complex], nu: f64) -> f64 {
    let w = Complex::cis(-nu);
    let w2 = w * w;
    let w3 = w2 * w;
    let w4 = w2 * w2;
    let mut chunks = z.rchunks(4);
    let mut acc = match chunks.next() {
        Some(c) => dtft_block(c, w, w2, w3),
        None => return 0.0,
    };
    for c in chunks {
        let shift = match c.len() {
            4 => w4,
            3 => w3,
            2 => w2,
            _ => w,
        };
        acc = acc * shift + dtft_block(c, w, w2, w3);
    }
    acc.norm()
}

macro_rules! kernels {
    ($($(#[$meta:meta])* fn $name:ident $(<$g:ident: $bound:ident>)? ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?;)*) => {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        mod avx2 {
            use super::{body, ChipTaps, Complex, CumulantSums, GateScanState, IqSample};
            $(
                /// # Safety
                ///
                /// Caller must ensure the CPU supports AVX2 and FMA.
                #[target_feature(enable = "avx2", enable = "fma")]
                pub unsafe fn $name $(<$g: $bound>)? ($($arg: $ty),*) $(-> $ret)? {
                    body::$name($($arg),*)
                }
            )*
        }
        $(
            $(#[$meta])*
            #[inline]
            pub fn $name $(<$g: $bound>)? ($($arg: $ty),*) $(-> $ret)? {
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                if std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
                {
                    // SAFETY: the required CPU features were just detected.
                    return unsafe { avx2::$name($($arg),*) };
                }
                body::$name($($arg),*)
            }
        )*
    };
}

kernels! {
    /// Conjugate dot product `Σ a[i]·conj(b[i])` — the correlation form
    /// used by the ZigBee synchronizer.
    fn cdot_conj(a: &[Complex], b: &[Complex]) -> Complex;

    /// Rotated conjugate dot product `Σ (a[i]·e^{j·omega·i})·conj(b[i])`,
    /// fusing a CFO de-rotation into the correlation (one pass, no `cis`
    /// per sample).
    fn cdot_conj_rotated(a: &[Complex], b: &[Complex], omega: f64) -> Complex;

    /// Real dot product `Σ a[i]·b[i]` (DSSS chip correlation).
    fn dot_f64(a: &[f64], b: &[f64]) -> f64;

    /// Correlates `a` against every row of a chip-major table: `out[r] =
    /// Σ_c a[c]·table[c·R + r]` with `R = out.len()` rows of `a.len()`
    /// entries. Each row's sum is bit-identical to [`dot_f64`] of `a` and
    /// that row; lanes run across rows (DSSS soft despreading against all
    /// 16 chip sequences in one dispatch).
    fn dot_f64_rows(a: &[f64], table: &[f64], out: &mut [f64]);

    /// Sliding full-window FIR: `out[j] = Σ_i taps_rev[i]·x[j+i]` — the
    /// interior of a delay-compensated convolution, with `taps_rev` the
    /// time-reversed tap vector. One dispatch covers every interior output.
    fn fir_interior(taps_rev: &[f64], x: &[Complex], out: &mut [Complex]);

    /// `Σ |x[i]|²` — block energy.
    fn sum_norm_sqr(x: &[Complex]) -> f64;

    /// A whole timing search in one call: for every offset `o <
    /// corr.len()`, the template correlation `corr[o] = Σ_i
    /// x[o+i]·conj(t[i])` and the window energy `energy[o] = Σ_i
    /// |x[o+i]|²`, over `i < t_re.len()` with the template `t` in split
    /// re/im form. Each window keeps a fresh sum, bit-identical to
    /// [`cdot_conj`] and [`sum_norm_sqr`] of that window; lanes run across
    /// offsets, and `|x|²` is computed once per sample into `scratch`.
    fn window_search(
        x: &[Complex],
        t_re: &[f64],
        t_im: &[f64],
        scratch: &mut Vec<f64>,
        corr: &mut [Complex],
        energy: &mut [f64],
    );

    /// Writes `|x[i]|²` for every sample into `out` (cleared first).
    fn norm_sqr_into(x: &[Complex], out: &mut Vec<f64>);

    /// Multiplies `x[i]` by `e^{j·omega·i}` in place: frequency shift / CFO
    /// correction. Lane phasors advance by `e^{j·omega·LANES}` and re-seed
    /// from exact `cis` every `RESYNC` samples.
    fn rotate_in_place(x: &mut [Complex], omega: f64);

    /// Multiplies every sample by a constant phasor `r` in place.
    fn phase_rotate_in_place(x: &mut [Complex], r: Complex);

    /// O-QPSK chip sampling at two samples per chip, fused with carrier
    /// correction, reading only the chip instants. Chip pair `n` reads
    /// `x[4n+2].re` (I), `x[4n+3]` (midpoint) and `x[4n+4].im` (Q), for
    /// `n < raw.i.len()`. `raw` receives them as they are; `out` receives
    /// them after `x[k]·e^{j·omega·k}` when `omega` is set, with
    /// [`rotate_in_place`]'s lane phasors over all of `x`, and then `·r`
    /// when `r` is set. Bit-identical to rotating a copy of `x` in place
    /// with those kernels and sampling it; an unset correction is skipped,
    /// not applied as a unit phasor.
    fn sample_chips(
        x: &[Complex],
        omega: Option<f64>,
        r: Option<Complex>,
        raw: ChipTaps<'_>,
        out: ChipTaps<'_>,
    );

    /// Block-Horner DTFT magnitude `|Σ_i z[i]·e^{-j·nu·i}|` for a whole
    /// grid of frequencies, lane-parallel *across frequencies*; per-lane
    /// arithmetic is bit-equal to the scalar single-frequency evaluation.
    /// `out[k]` receives the magnitude at `nus[k]`.
    fn dtft_norms(z: &[Complex], nus: &[f64], out: &mut [f64]);

    /// One radix-2 FFT stage over the whole buffer: for each block of
    /// `len = 2·twiddles.len()` samples, butterflies between the lower and
    /// upper halves, the `k`-th reading `twiddles[k]`. Given the table
    /// `fft` builds by the serial `w·wlen` recurrence, bit-identical to
    /// the nested-loop formulation ([`reference::fft_stage`]).
    fn fft_stage(buf: &mut [Complex], twiddles: &[Complex]);

    /// Lane-parallel power sums for fourth-order cumulant estimation.
    fn cumulant_sums(x: &[Complex]) -> CumulantSums;

    /// Advances a gated sliding-power scan by `x.len()` samples, parsed
    /// ([`Complex`]) or still in their cf32 byte form
    /// ([`Cf32`](crate::io::Cf32)): each sample's power `|x|²` replaces
    /// the oldest ring entry, updates the running sum, forms the window
    /// mean, and is compared against the cached gate (`active[i] = 1` when
    /// above). Idle samples advance the EWMA noise floor. A sample whose
    /// `|x|²` is not finite (a NaN or infinite component, or an
    /// overflowing square) adds zero power, so one bad sample cannot
    /// poison the running sum or the floor; returns how many samples were
    /// zeroed. A cf32 pair is widened exactly as parsing widens it
    /// ([`IqSample::widen`]), so its flags, state and zeroed count are
    /// bit-identical to scanning the parsed chunk. The recurrence is
    /// inherently serial; the wins are the norm computation hiding under
    /// the loop-carried chain and the
    /// `target_feature(fma)` clone, where the explicit `mul_add` becomes a
    /// 4-cycle `vfmadd` instead of a libm call — value-identical because
    /// `alpha` is a power of two, so the product is exact and fused and
    /// two-step rounding agree.
    fn gated_scan<S: IqSample>(
        x: &[S],
        ring: &mut [f64],
        state: &mut GateScanState,
        active: &mut [u8],
    ) -> usize;
}

/// [`gated_scan`] over parsed samples.
#[inline]
pub fn gated_power_scan(
    x: &[Complex],
    ring: &mut [f64],
    state: &mut GateScanState,
    active: &mut [u8],
) -> usize {
    gated_scan(x, ring, state, active)
}

/// Lane-structured kernel bodies: the single source of truth compiled both
/// with and without AVX2 enabled.
mod body {
    use super::{
        dtft_block, dtft_one, reduce, reduce4, reduce_columns, ChipTaps, Complex, CumulantSums,
        GateScanState, IqSample, LANES, RESYNC,
    };

    #[inline(always)]
    pub fn cdot_conj(a: &[Complex], b: &[Complex]) -> Complex {
        let n = a.len().min(b.len());
        let whole = n - n % LANES;
        let mut re = [0.0; LANES];
        let mut im = [0.0; LANES];
        for (ca, cb) in a[..whole]
            .chunks_exact(LANES)
            .zip(b[..whole].chunks_exact(LANES))
        {
            for k in 0..LANES {
                let (x, y) = (ca[k], cb[k]);
                re[k] += x.re * y.re + x.im * y.im;
                im[k] += x.im * y.re - x.re * y.im;
            }
        }
        let mut acc = Complex::new(reduce(re), reduce(im));
        for k in whole..n {
            acc += a[k] * b[k].conj();
        }
        acc
    }

    #[inline(always)]
    pub fn cdot_conj_rotated(a: &[Complex], b: &[Complex], omega: f64) -> Complex {
        let n = a.len().min(b.len());
        let mut re = [0.0; LANES];
        let mut im = [0.0; LANES];
        let mut tail = Complex::ZERO;
        let step = Complex::cis(omega * LANES as f64);
        let mut base = 0;
        while base < n {
            let block = (n - base).min(RESYNC);
            let whole = block - block % LANES;
            let mut ph = [Complex::ZERO; LANES];
            for (k, p) in ph.iter_mut().enumerate() {
                *p = Complex::cis(omega * (base + k) as f64);
            }
            for (ca, cb) in a[base..base + whole]
                .chunks_exact(LANES)
                .zip(b[base..base + whole].chunks_exact(LANES))
            {
                for k in 0..LANES {
                    let x = ca[k] * ph[k];
                    let y = cb[k];
                    re[k] += x.re * y.re + x.im * y.im;
                    im[k] += x.im * y.re - x.re * y.im;
                    ph[k] *= step;
                }
            }
            for i in base + whole..base + block {
                tail += a[i] * Complex::cis(omega * i as f64) * b[i].conj();
            }
            base += block;
        }
        tail + Complex::new(reduce(re), reduce(im))
    }

    #[inline(always)]
    pub fn dot_real(taps: &[f64], x: &[Complex]) -> Complex {
        let n = taps.len().min(x.len());
        let whole = n - n % LANES;
        let mut re = [0.0; LANES];
        let mut im = [0.0; LANES];
        for (ct, cx) in taps[..whole]
            .chunks_exact(LANES)
            .zip(x[..whole].chunks_exact(LANES))
        {
            for k in 0..LANES {
                re[k] += ct[k] * cx[k].re;
                im[k] += ct[k] * cx[k].im;
            }
        }
        let mut acc = Complex::new(reduce(re), reduce(im));
        for k in whole..n {
            acc += x[k] * taps[k];
        }
        acc
    }

    #[inline(always)]
    pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let whole = n - n % LANES;
        let mut acc = [0.0; LANES];
        for (ca, cb) in a[..whole]
            .chunks_exact(LANES)
            .zip(b[..whole].chunks_exact(LANES))
        {
            for k in 0..LANES {
                acc[k] += ca[k] * cb[k];
            }
        }
        let mut s = reduce(acc);
        for k in whole..n {
            s += a[k] * b[k];
        }
        s
    }

    #[inline(always)]
    pub fn dot_f64_rows(a: &[f64], table: &[f64], out: &mut [f64]) {
        const BLOCK: usize = 2 * LANES;
        let rows = out.len();
        assert!(
            table.len() >= a.len() * rows,
            "dot_f64_rows table shorter than a.len() x rows"
        );
        let mut r = 0;
        while r + BLOCK <= rows {
            dot_rows_block::<BLOCK>(a, table, rows, r, &mut out[r..r + BLOCK]);
            r += BLOCK;
        }
        while r < rows {
            dot_rows_block::<1>(a, table, rows, r, &mut out[r..r + 1]);
            r += 1;
        }
    }

    /// `G` adjacent rows of [`dot_f64_rows`], starting at row `r0`: lane
    /// `k` of every row accumulates entries `k, k + LANES, …` in order, as
    /// [`dot_f64`]'s lane `k` does, and the lanes fold by [`reduce`]'s tree.
    #[inline(always)]
    fn dot_rows_block<const G: usize>(
        a: &[f64],
        table: &[f64],
        rows: usize,
        r0: usize,
        out: &mut [f64],
    ) {
        let n = a.len();
        let whole = n - n % LANES;
        let mut part = [[0.0; G]; LANES];
        for (k, lane) in part.iter_mut().enumerate() {
            let mut acc = [0.0; G];
            let mut c = k;
            while c < whole {
                let x = a[c];
                let t = &table[c * rows + r0..c * rows + r0 + G];
                for g in 0..G {
                    acc[g] += x * t[g];
                }
                c += LANES;
            }
            *lane = acc;
        }
        for (g, (o, s)) in out.iter_mut().zip(reduce_columns(&part)).enumerate() {
            let mut s = s;
            for c in whole..n {
                s += a[c] * table[c * rows + r0 + g];
            }
            *o = s;
        }
    }

    #[inline(always)]
    pub fn fir_interior(taps_rev: &[f64], x: &[Complex], out: &mut [Complex]) {
        let t = taps_rev.len();
        for (j, o) in out.iter_mut().enumerate() {
            *o = dot_real(taps_rev, &x[j..j + t]);
        }
    }

    #[inline(always)]
    pub fn sum_norm_sqr(x: &[Complex]) -> f64 {
        let whole = x.len() - x.len() % LANES;
        let mut acc = [0.0; LANES];
        for c in x[..whole].chunks_exact(LANES) {
            for k in 0..LANES {
                acc[k] += c[k].re * c[k].re + c[k].im * c[k].im;
            }
        }
        let mut s = reduce(acc);
        for v in &x[whole..] {
            s += v.norm_sqr();
        }
        s
    }

    #[inline(always)]
    pub fn window_search(
        x: &[Complex],
        t_re: &[f64],
        t_im: &[f64],
        scratch: &mut Vec<f64>,
        corr: &mut [Complex],
        energy: &mut [f64],
    ) {
        assert_eq!(t_re.len(), t_im.len(), "template halves differ in length");
        assert_eq!(corr.len(), energy.len(), "one energy per correlation");
        let offsets = corr.len();
        if offsets == 0 {
            return;
        }
        let t = t_re.len();
        let whole = t - t % LANES;
        let span = offsets - 1 + t;
        assert!(x.len() >= span, "search windows run past the input");
        let starts = offsets + LANES - 1;
        scratch.clear();
        scratch.resize(3 * span + starts, 0.0);
        let (re, rest) = scratch.split_at_mut(span);
        let (im, rest) = rest.split_at_mut(span);
        let (nrm, lane_energy) = rest.split_at_mut(span);
        for (((v, r), i), n) in x[..span].iter().zip(&mut *re).zip(&mut *im).zip(&mut *nrm) {
            *r = v.re;
            *i = v.im;
            *n = v.re * v.re + v.im * v.im;
        }

        // Lane `k` of window `o`'s energy sums samples `o+k, o+k+LANES, …`
        // in order, as `sum_norm_sqr`'s lane `k` does: a sum that depends
        // on `o + k` alone. Each is formed once, then folded by every
        // window holding it.
        let mut s = 0;
        while s + LANES <= starts {
            let mut acc = [0.0; LANES];
            let mut i = s;
            while i < s + whole {
                for (a, n) in acc.iter_mut().zip(&nrm[i..i + LANES]) {
                    *a += n;
                }
                i += LANES;
            }
            lane_energy[s..s + LANES].copy_from_slice(&acc);
            s += LANES;
        }
        for (s, e) in lane_energy.iter_mut().enumerate().skip(s) {
            let mut acc = 0.0;
            let mut i = s;
            while i < s + whole {
                acc += nrm[i];
                i += LANES;
            }
            *e = acc;
        }
        for (o, e) in energy.iter_mut().enumerate() {
            let lanes: &[f64; LANES] = lane_energy[o..o + LANES].try_into().expect("one lane set");
            let mut acc = reduce(*lanes);
            for n in &nrm[o + whole..o + t] {
                acc += n;
            }
            *e = acc;
        }

        let split = [&*re, &*im];
        let mut o = 0;
        while o + LANES <= offsets {
            window_block::<LANES>(split, t_re, t_im, o, &mut corr[o..o + LANES]);
            o += LANES;
        }
        while o < offsets {
            window_block::<1>(split, t_re, t_im, o, &mut corr[o..o + 1]);
            o += 1;
        }
    }

    /// Template correlations of `G` adjacent windows of [`window_search`],
    /// starting at offset `o0`. Window `o0 + g`'s lane `k` accumulates
    /// template taps `k, k + LANES, …` in order, exactly as [`cdot_conj`]
    /// does on that window; the lanes fold by [`reduce`]'s tree and the
    /// taps past the last whole lane block are added after, as its tail.
    #[inline(always)]
    fn window_block<const G: usize>(
        [re, im]: [&[f64]; 2],
        t_re: &[f64],
        t_im: &[f64],
        o0: usize,
        corr: &mut [Complex],
    ) {
        let t = t_re.len();
        let whole = t - t % LANES;
        let mut part_re = [[0.0; G]; LANES];
        let mut part_im = [[0.0; G]; LANES];
        for k in 0..LANES {
            // Local accumulators: they stay in registers across the taps.
            let mut ar = [0.0; G];
            let mut ai = [0.0; G];
            let mut i = k;
            while i < whole {
                let (tr, ti) = (t_re[i], t_im[i]);
                let at = o0 + i;
                let (r, m) = (&re[at..at + G], &im[at..at + G]);
                for g in 0..G {
                    ar[g] += r[g] * tr + m[g] * ti;
                    ai[g] += m[g] * tr - r[g] * ti;
                }
                i += LANES;
            }
            part_re[k] = ar;
            part_im[k] = ai;
        }
        let (sum_re, sum_im) = (reduce_columns(&part_re), reduce_columns(&part_im));
        for (g, c) in corr.iter_mut().enumerate() {
            let mut acc = Complex::new(sum_re[g], sum_im[g]);
            for i in whole..t {
                let at = o0 + g + i;
                acc += Complex::new(re[at], im[at]) * Complex::new(t_re[i], t_im[i]).conj();
            }
            *c = acc;
        }
    }

    #[inline(always)]
    pub fn norm_sqr_into(x: &[Complex], out: &mut Vec<f64>) {
        out.clear();
        out.resize(x.len(), 0.0);
        for (o, v) in out.iter_mut().zip(x) {
            *o = v.re * v.re + v.im * v.im;
        }
    }

    #[inline(always)]
    pub fn rotate_in_place(x: &mut [Complex], omega: f64) {
        let n = x.len();
        let step = Complex::cis(omega * LANES as f64);
        let mut base = 0;
        while base < n {
            let block = (n - base).min(RESYNC);
            let whole = block - block % LANES;
            let mut ph = [Complex::ZERO; LANES];
            for (k, p) in ph.iter_mut().enumerate() {
                *p = Complex::cis(omega * (base + k) as f64);
            }
            for c in x[base..base + whole].chunks_exact_mut(LANES) {
                for k in 0..LANES {
                    c[k] *= ph[k];
                    ph[k] *= step;
                }
            }
            for (k, v) in x[base + whole..base + block].iter_mut().enumerate() {
                *v *= Complex::cis(omega * (base + whole + k) as f64);
            }
            base += block;
        }
    }

    #[inline(always)]
    pub fn phase_rotate_in_place(x: &mut [Complex], r: Complex) {
        let whole = x.len() - x.len() % LANES;
        for c in x[..whole].chunks_exact_mut(LANES) {
            for v in c {
                *v *= r;
            }
        }
        for v in &mut x[whole..] {
            *v *= r;
        }
    }

    #[inline(always)]
    pub fn sample_chips(
        x: &[Complex],
        omega: Option<f64>,
        r: Option<Complex>,
        raw: ChipTaps<'_>,
        out: ChipTaps<'_>,
    ) {
        // One monomorphized pass per correction set, so a correction that
        // is off costs no branch per sample.
        match (omega, r) {
            (Some(w), Some(r)) => chip_pass::<true, true>(x, w, r, raw, out),
            (Some(w), None) => chip_pass::<true, false>(x, w, Complex::ONE, raw, out),
            (None, Some(r)) => chip_pass::<false, true>(x, 0.0, r, raw, out),
            (None, None) => chip_pass::<false, false>(x, 0.0, Complex::ONE, raw, out),
        }
    }

    /// Writes sample `idx` to the taps if it is a chip instant of a pair
    /// in range: `4n+2` → I, `4n+3` → midpoint, `4n+4` → Q. `phase` is
    /// `idx % 4`, passed apart so an unrolled lane loop sees a constant.
    #[inline(always)]
    fn tap(
        phase: usize,
        idx: usize,
        x: Complex,
        y: Complex,
        raw: &mut ChipTaps<'_>,
        out: &mut ChipTaps<'_>,
    ) {
        let pairs = raw.i.len();
        match phase {
            2 if idx / 4 < pairs => {
                raw.i[idx / 4] = x.re;
                out.i[idx / 4] = y.re;
            }
            3 if idx / 4 < pairs => {
                raw.mid[idx / 4] = x;
                out.mid[idx / 4] = y;
            }
            0 if idx >= 4 && idx / 4 - 1 < pairs => {
                raw.q[idx / 4 - 1] = x.im;
                out.q[idx / 4 - 1] = y.im;
            }
            _ => {}
        }
    }

    /// `(a + jb)·(c + jd)` on split lanes, in `Complex`'s `Mul` order.
    #[inline(always)]
    fn cmul_lanes([a, b]: [[f64; LANES]; 2], [c, d]: [[f64; LANES]; 2]) -> [[f64; LANES]; 2] {
        [
            std::array::from_fn(|k| a[k] * c[k] - b[k] * d[k]),
            std::array::from_fn(|k| a[k] * d[k] + b[k] * c[k]),
        ]
    }

    #[inline(always)]
    fn chip_pass<const CFO: bool, const PHASE: bool>(
        x: &[Complex],
        omega: f64,
        r: Complex,
        mut raw: ChipTaps<'_>,
        mut out: ChipTaps<'_>,
    ) {
        let pairs = raw.pairs();
        assert_eq!(
            out.pairs(),
            pairs,
            "raw and corrected taps differ in length"
        );
        if pairs == 0 {
            return;
        }
        // The last chip instant read: pair `pairs - 1`'s Q sample.
        let last = 4 * pairs;
        assert!(last < x.len(), "chip instants run past the input");
        let n = x.len();
        let step = Complex::cis(omega * LANES as f64);
        let step = [[step.re; LANES], [step.im; LANES]];
        let rot = [[r.re; LANES], [r.im; LANES]];
        // `rotate_in_place`'s blocks over all of `x` (its phasors depend
        // on where the last block's lane tail starts), stopping after the
        // block holding `last`.
        let mut base = 0;
        while base <= last {
            let block = (n - base).min(RESYNC);
            let whole = block - block % LANES;
            let mut ph = [[1.0; LANES], [0.0; LANES]];
            if CFO {
                let seed: [Complex; LANES] =
                    std::array::from_fn(|k| Complex::cis(omega * (base + k) as f64));
                ph = [seed.map(|p| p.re), seed.map(|p| p.im)];
            }
            let mut c0 = base;
            while c0 < base + whole && c0 <= last {
                let xs: &[Complex; LANES] = x[c0..c0 + LANES].try_into().expect("one lane block");
                let mut y = [
                    std::array::from_fn(|k| xs[k].re),
                    std::array::from_fn(|k| xs[k].im),
                ];
                if CFO {
                    y = cmul_lanes(y, ph);
                    ph = cmul_lanes(ph, step);
                }
                if PHASE {
                    y = cmul_lanes(y, rot);
                }
                // `c0` is a multiple of `LANES`, so lane `k` is at phase `k % 4`.
                for (k, &v) in xs.iter().enumerate() {
                    let yk = Complex::new(y[0][k], y[1][k]);
                    tap(k % 4, c0 + k, v, yk, &mut raw, &mut out);
                }
                c0 += LANES;
            }
            let end = (base + block).min(last + 1);
            let tail = (base + whole).min(end)..end;
            for (idx, &v) in (tail.start..).zip(&x[tail]) {
                let mut y = v;
                if CFO {
                    y *= Complex::cis(omega * idx as f64);
                }
                if PHASE {
                    y *= r;
                }
                tap(idx % 4, idx, v, y, &mut raw, &mut out);
            }
            base += block;
        }
    }

    #[inline(always)]
    pub fn dtft_norms(z: &[Complex], nus: &[f64], out: &mut [f64]) {
        assert!(
            out.len() >= nus.len(),
            "dtft_norms output shorter than frequency grid"
        );
        if z.is_empty() {
            out[..nus.len()].fill(0.0);
            return;
        }
        let mut f = 0;
        while f + LANES <= nus.len() {
            let mut w = [Complex::ZERO; LANES];
            let mut w2 = [Complex::ZERO; LANES];
            let mut w3 = [Complex::ZERO; LANES];
            let mut w4 = [Complex::ZERO; LANES];
            for k in 0..LANES {
                w[k] = Complex::cis(-nus[f + k]);
                w2[k] = w[k] * w[k];
                w3[k] = w2[k] * w[k];
                w4[k] = w2[k] * w2[k];
            }
            let mut chunks = z.rchunks(4);
            let first = chunks.next().expect("z nonempty");
            let mut acc = [Complex::ZERO; LANES];
            for k in 0..LANES {
                acc[k] = dtft_block(first, w[k], w2[k], w3[k]);
            }
            for c in chunks {
                // Only the final (front) chunk can be short; the branch is
                // perfectly predicted and keeps the lane math identical to
                // the scalar path.
                match c.len() {
                    4 => {
                        for k in 0..LANES {
                            acc[k] = acc[k] * w4[k]
                                + ((c[0] + c[1] * w[k]) + c[2] * w2[k] + c[3] * w3[k]);
                        }
                    }
                    len => {
                        for k in 0..LANES {
                            let shift = match len {
                                3 => w3[k],
                                2 => w2[k],
                                _ => w[k],
                            };
                            acc[k] = acc[k] * shift + dtft_block(c, w[k], w2[k], w3[k]);
                        }
                    }
                }
            }
            for k in 0..LANES {
                out[f + k] = acc[k].norm();
            }
            f += LANES;
        }
        for (o, &nu) in out[f..nus.len()].iter_mut().zip(&nus[f..]) {
            *o = dtft_one(z, nu);
        }
    }

    /// One radix-2 butterfly set in structure-of-arrays lanes: `lo[k] ±
    /// hi[k]·tw[k]` for `k < LANES`, with `Complex`'s own operation order
    /// (`re = a·c − b·d`, `im = a·d + b·c`) so the values equal the scalar
    /// butterfly's bit for bit.
    #[inline(always)]
    fn butterflies(
        lo: [Complex; LANES],
        hi: [Complex; LANES],
        tw: [Complex; LANES],
    ) -> ([Complex; LANES], [Complex; LANES]) {
        let mut vr = [0.0; LANES];
        let mut vi = [0.0; LANES];
        for k in 0..LANES {
            vr[k] = hi[k].re * tw[k].re - hi[k].im * tw[k].im;
            vi[k] = hi[k].re * tw[k].im + hi[k].im * tw[k].re;
        }
        let mut sum = [Complex::ZERO; LANES];
        let mut diff = [Complex::ZERO; LANES];
        for k in 0..LANES {
            sum[k] = Complex::new(lo[k].re + vr[k], lo[k].im + vi[k]);
            diff[k] = Complex::new(lo[k].re - vr[k], lo[k].im - vi[k]);
        }
        (sum, diff)
    }

    /// A stage whose blocks are shorter than a lane set (`HALF < LANES`):
    /// each run of `2·LANES` samples holds `LANES` butterflies from
    /// `LANES / HALF` whole blocks, so the lanes run across blocks.
    #[inline(always)]
    fn fft_stage_short<const HALF: usize>(buf: &mut [Complex], twiddles: &[Complex]) {
        let tw: [Complex; LANES] = std::array::from_fn(|m| twiddles[m % HALF]);
        let pair = |m: usize| {
            let lo = m / HALF * 2 * HALF + m % HALF;
            (lo, lo + HALF)
        };
        let mut runs = buf.chunks_exact_mut(2 * LANES);
        for run in &mut runs {
            let lo = std::array::from_fn(|m| run[pair(m).0]);
            let hi = std::array::from_fn(|m| run[pair(m).1]);
            let (sum, diff) = butterflies(lo, hi, tw);
            for m in 0..LANES {
                let (l, h) = pair(m);
                run[l] = sum[m];
                run[h] = diff[m];
            }
        }
        for block in runs.into_remainder().chunks_exact_mut(2 * HALF) {
            for k in 0..HALF {
                let u = block[k];
                let v = block[k + HALF] * twiddles[k];
                block[k] = u + v;
                block[k + HALF] = u - v;
            }
        }
    }

    #[inline(always)]
    pub fn fft_stage(buf: &mut [Complex], twiddles: &[Complex]) {
        let half = twiddles.len();
        match half {
            0 => return,
            1 => return fft_stage_short::<1>(buf, twiddles),
            2 => return fft_stage_short::<2>(buf, twiddles),
            4 => return fft_stage_short::<4>(buf, twiddles),
            _ => {}
        }
        for block in buf.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            let whole = half - half % LANES;
            for ((cl, ch), tw) in lo[..whole]
                .chunks_exact_mut(LANES)
                .zip(hi[..whole].chunks_exact_mut(LANES))
                .zip(twiddles[..whole].chunks_exact(LANES))
            {
                let (sum, diff) = butterflies(
                    std::array::from_fn(|k| cl[k]),
                    std::array::from_fn(|k| ch[k]),
                    std::array::from_fn(|k| tw[k]),
                );
                cl.copy_from_slice(&sum);
                ch.copy_from_slice(&diff);
            }
            for k in whole..half {
                let u = lo[k];
                let v = hi[k] * twiddles[k];
                lo[k] = u + v;
                hi[k] = u - v;
            }
        }
    }

    #[inline(always)]
    pub fn cumulant_sums(x: &[Complex]) -> CumulantSums {
        // Four lanes: eight would need 32 live f64 accumulators plus the
        // per-element temporaries and spill on AVX2's 16 YMM registers.
        const L: usize = 4;
        let whole = x.len() - x.len() % L;
        let mut s2r = [0.0; L];
        let mut s2i = [0.0; L];
        let mut sa2 = [0.0; L];
        let mut s4r = [0.0; L];
        let mut s4i = [0.0; L];
        let mut s31r = [0.0; L];
        let mut s31i = [0.0; L];
        let mut sa4 = [0.0; L];
        for c in x[..whole].chunks_exact(L) {
            for k in 0..L {
                let v = c[k];
                let x2 = v * v;
                let a2 = v.re * v.re + v.im * v.im;
                let x4 = x2 * x2;
                let x31 = x2 * v * v.conj();
                s2r[k] += x2.re;
                s2i[k] += x2.im;
                sa2[k] += a2;
                s4r[k] += x4.re;
                s4i[k] += x4.im;
                s31r[k] += x31.re;
                s31i[k] += x31.im;
                sa4[k] += a2 * a2;
            }
        }
        let mut sums = CumulantSums {
            s2: Complex::new(reduce4(s2r), reduce4(s2i)),
            sa2: reduce4(sa2),
            s4: Complex::new(reduce4(s4r), reduce4(s4i)),
            s31: Complex::new(reduce4(s31r), reduce4(s31i)),
            sa4: reduce4(sa4),
        };
        for &v in &x[whole..] {
            let x2 = v * v;
            let a2 = v.norm_sqr();
            sums.s2 += x2;
            sums.sa2 += a2;
            sums.s4 += x2 * x2;
            sums.s31 += x2 * v * v.conj();
            sums.sa4 += a2 * a2;
        }
        sums
    }

    /// Out-of-line landing pad for the floor-eps clamp, keeping the
    /// compare-and-branch off [`gated_scan`]'s serial EWMA chain
    /// (a call defeats if-conversion into `maxsd`).
    #[cold]
    #[inline(never)]
    fn clamp_cold(eps: f64) -> f64 {
        eps
    }

    /// Out-of-line landing pad for a sample whose power is not finite,
    /// keeping the check in [`gated_scan`] a never-taken branch
    /// rather than a select on every sample's power.
    #[cold]
    #[inline(never)]
    fn nonfinite_cold(zeroed: &mut usize) -> f64 {
        *zeroed += 1;
        0.0
    }

    #[inline(always)]
    pub fn gated_scan<S: IqSample>(
        x: &[S],
        ring: &mut [f64],
        st: &mut GateScanState,
        active: &mut [u8],
    ) -> usize {
        assert!(active.len() >= x.len(), "active buffer shorter than input");
        assert!(!ring.is_empty(), "window must be positive");
        let w = ring.len() as f64;
        let mut slot = st.slot;
        let mut acc = st.acc;
        let mut floor = st.floor;
        let mut gate = st.gate;
        let mut zeroed = 0;
        for (v, a) in x.iter().zip(active[..x.len()].iter_mut()) {
            let v = v.widen();
            let mut n = v.re * v.re + v.im * v.im;
            // A NaN or infinite power would stay in `acc` for good (`inf -
            // inf` is NaN) and blind the gate; it counts as silence.
            if !n.is_finite() {
                n = nonfinite_cold(&mut zeroed);
            }
            acc += n - ring[slot];
            ring[slot] = n;
            slot += 1;
            if slot == ring.len() {
                slot = 0;
            }
            let p = if st.inv_w != 0.0 {
                acc * st.inv_w
            } else {
                acc / w
            };
            if p > gate {
                *a = 1;
            } else {
                *a = 0;
                // `alpha` is a power of two, so `(p - floor) * alpha` is
                // exact and the fused form rounds once on the same value a
                // two-step mul-then-add would produce — bit-identical, but
                // a single 4-cycle vfmadd in the target_feature clone.
                floor = (p - floor).mul_add(st.alpha, floor);
                // The floor-eps clamp via an untaken cold branch rather
                // than a select: a `maxsd` would sit on the loop-carried
                // EWMA chain (+4 cycles every sample) to guard a case real
                // signals never hit. The negated comparison is load-bearing:
                // NaN lands in the clamp like `max` would put it.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(floor >= st.floor_eps) {
                    floor = clamp_cold(st.floor_eps);
                }
                gate = floor * st.threshold;
            }
        }
        st.slot = slot;
        st.acc = acc;
        st.floor = floor;
        st.gate = gate;
        zeroed
    }
}

/// Order-preserving sequential models of every kernel: one operation per
/// element, left-to-right, no lane partials. Property tests bound each
/// lane kernel against these within a ULP-scaled band.
#[doc(hidden)]
#[allow(missing_docs)]
pub mod reference {
    use super::{ChipTaps, Complex, CumulantSums, GateScanState};

    pub fn cdot_conj(a: &[Complex], b: &[Complex]) -> Complex {
        a.iter().zip(b).map(|(x, y)| *x * y.conj()).sum()
    }

    pub fn cdot_conj_rotated(a: &[Complex], b: &[Complex], omega: f64) -> Complex {
        a.iter()
            .zip(b)
            .enumerate()
            .map(|(i, (x, y))| *x * Complex::cis(omega * i as f64) * y.conj())
            .sum()
    }

    pub fn dot_real(taps: &[f64], x: &[Complex]) -> Complex {
        taps.iter().zip(x).map(|(t, v)| *v * *t).sum()
    }

    pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Row `r` of the chip-major `table` is `table[c·R + r]`, `R = out.len()`.
    pub fn dot_f64_rows(a: &[f64], table: &[f64], out: &mut [f64]) {
        let rows = out.len();
        for (r, o) in out.iter_mut().enumerate() {
            *o = a
                .iter()
                .enumerate()
                .map(|(c, x)| x * table[c * rows + r])
                .sum();
        }
    }

    pub fn fir_interior(taps_rev: &[f64], x: &[Complex], out: &mut [Complex]) {
        let t = taps_rev.len();
        for (j, o) in out.iter_mut().enumerate() {
            *o = dot_real(taps_rev, &x[j..j + t]);
        }
    }

    pub fn sum_norm_sqr(x: &[Complex]) -> f64 {
        x.iter().map(|v| v.norm_sqr()).sum()
    }

    /// Each window summed left to right on its own.
    pub fn window_search(
        x: &[Complex],
        t_re: &[f64],
        t_im: &[f64],
        corr: &mut [Complex],
        energy: &mut [f64],
    ) {
        let t: Vec<Complex> = t_re
            .iter()
            .zip(t_im)
            .map(|(&re, &im)| Complex::new(re, im))
            .collect();
        for (o, (c, e)) in corr.iter_mut().zip(energy.iter_mut()).enumerate() {
            let seg = &x[o..o + t.len()];
            *c = cdot_conj(seg, &t);
            *e = sum_norm_sqr(seg);
        }
    }

    pub fn norm_sqr_into(x: &[Complex], out: &mut Vec<f64>) {
        out.clear();
        out.extend(x.iter().map(|v| v.norm_sqr()));
    }

    pub fn rotate_in_place(x: &mut [Complex], omega: f64) {
        for (i, v) in x.iter_mut().enumerate() {
            *v *= Complex::cis(omega * i as f64);
        }
    }

    pub fn phase_rotate_in_place(x: &mut [Complex], r: Complex) {
        for v in x.iter_mut() {
            *v *= r;
        }
    }

    /// Chip sampling with an exact `cis` per sample in place of the lane
    /// phasors.
    pub fn sample_chips(
        x: &[Complex],
        omega: Option<f64>,
        r: Option<Complex>,
        raw: ChipTaps<'_>,
        out: ChipTaps<'_>,
    ) {
        let correct = |k: usize| {
            let mut y = x[k];
            if let Some(w) = omega {
                y *= Complex::cis(w * k as f64);
            }
            if let Some(r) = r {
                y *= r;
            }
            y
        };
        for n in 0..raw.i.len() {
            let (i, m, q) = (4 * n + 2, 4 * n + 3, 4 * n + 4);
            raw.i[n] = x[i].re;
            raw.mid[n] = x[m];
            raw.q[n] = x[q].im;
            out.i[n] = correct(i).re;
            out.mid[n] = correct(m);
            out.q[n] = correct(q).im;
        }
    }

    /// Naive direct-sum DTFT (one `cis` per sample per frequency) — an
    /// independent oracle for the block-Horner lane kernel.
    pub fn dtft_norms(z: &[Complex], nus: &[f64], out: &mut [f64]) {
        for (o, &nu) in out.iter_mut().zip(nus) {
            let sum: Complex = z
                .iter()
                .enumerate()
                .map(|(i, &v)| v * Complex::cis(-nu * i as f64))
                .sum();
            *o = sum.norm();
        }
    }

    /// The stage as `fft` ran it before its twiddle tables: each block
    /// regenerates its twiddles by the serial `w·wlen` recurrence.
    pub fn fft_stage(buf: &mut [Complex], len: usize, wlen: Complex) {
        let half = len / 2;
        let mut i = 0;
        while i + len <= buf.len() {
            let mut w = Complex::ONE;
            for k in 0..half {
                let u = buf[i + k];
                let v = buf[i + k + half] * w;
                buf[i + k] = u + v;
                buf[i + k + half] = u - v;
                w *= wlen;
            }
            i += len;
        }
    }

    /// Textbook per-sample form of the gated scan: window mean by division,
    /// EWMA as separate multiply-then-add, clamp via `f64::max`, and a
    /// non-finite power replaced by zero. Equal to the kernel whenever
    /// `alpha` is a power of two and `inv_w` is the exact reciprocal of the
    /// window (or 0.0).
    pub fn gated_power_scan(
        x: &[Complex],
        ring: &mut [f64],
        st: &mut GateScanState,
        active: &mut [u8],
    ) -> usize {
        let w = ring.len() as f64;
        let mut zeroed = 0;
        for (v, a) in x.iter().zip(active.iter_mut()) {
            let mut n = v.norm_sqr();
            if !n.is_finite() {
                n = 0.0;
                zeroed += 1;
            }
            st.acc += n - ring[st.slot];
            ring[st.slot] = n;
            st.slot = (st.slot + 1) % ring.len();
            let p = st.acc / w;
            if p > st.floor * st.threshold {
                *a = 1;
            } else {
                *a = 0;
                st.floor = (st.floor + st.alpha * (p - st.floor)).max(st.floor_eps);
                st.gate = st.floor * st.threshold;
            }
        }
        zeroed
    }

    pub fn cumulant_sums(x: &[Complex]) -> CumulantSums {
        let mut s = CumulantSums {
            s2: Complex::ZERO,
            sa2: 0.0,
            s4: Complex::ZERO,
            s31: Complex::ZERO,
            sa4: 0.0,
        };
        for &v in x {
            let x2 = v * v;
            let a2 = v.norm_sqr();
            s.s2 += x2;
            s.sa2 += a2;
            s.s4 += x2 * x2;
            s.s31 += x2 * v * v.conj();
            s.sa4 += a2 * a2;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The public dispatcher (AVX2 on this hardware when the `simd` feature
    /// is on) must be bit-identical to the plain compilation of the same
    /// lane body — the property that lets one golden corpus cover both CI
    /// legs.
    #[test]
    fn dispatch_is_bit_identical_to_plain_body() {
        for n in [0usize, 1, 5, 8, 64, 1023, 4099] {
            let a = wave(n, 1);
            let b = wave(n, 2);
            let t = reals(n, 3);
            assert_eq!(cdot_conj(&a, &b), body::cdot_conj(&a, &b), "conj n={n}");
            assert_eq!(
                cdot_conj_rotated(&a, &b, 0.017),
                body::cdot_conj_rotated(&a, &b, 0.017),
                "rotated n={n}"
            );
            assert_eq!(
                dot_f64(&t, &reals(n, 4)),
                body::dot_f64(&t, &reals(n, 4)),
                "f64 n={n}"
            );
            assert_eq!(sum_norm_sqr(&a), body::sum_norm_sqr(&a), "energy n={n}");

            let mut x1 = a.clone();
            let mut x2 = a.clone();
            rotate_in_place(&mut x1, -0.031);
            body::rotate_in_place(&mut x2, -0.031);
            assert_eq!(x1, x2, "rotate n={n}");

            let nus: Vec<f64> = (0..19).map(|i| -0.3 + 0.033 * i as f64).collect();
            let mut m1 = vec![0.0; nus.len()];
            let mut m2 = vec![0.0; nus.len()];
            dtft_norms(&a, &nus, &mut m1);
            body::dtft_norms(&a, &nus, &mut m2);
            assert_eq!(m1, m2, "dtft n={n}");

            let s1 = cumulant_sums(&a);
            let s2 = body::cumulant_sums(&a);
            assert_eq!(s1, s2, "cumulants n={n}");

            let rows = 16;
            let table = reals(n * rows, 5);
            let (mut r1, mut r2) = (vec![0.0; rows], vec![0.0; rows]);
            dot_f64_rows(&t, &table, &mut r1);
            body::dot_f64_rows(&t, &table, &mut r2);
            assert_eq!(r1, r2, "rows n={n}");

            let offsets = n.min(97);
            let t_len = n - offsets + 1;
            let (tr, ti) = (reals(t_len, 6), reals(t_len, 7));
            let (mut c1, mut c2) = (vec![Complex::ZERO; offsets], vec![Complex::ZERO; offsets]);
            let (mut e1, mut e2) = (vec![0.0; offsets], vec![0.0; offsets]);
            window_search(&a, &tr, &ti, &mut Vec::new(), &mut c1, &mut e1);
            body::window_search(&a, &tr, &ti, &mut Vec::new(), &mut c2, &mut e2);
            assert_eq!((c1, e1), (c2, e2), "search n={n}");

            let pairs = n.saturating_sub(1) / 4;
            let mut got = [
                vec![0.0; pairs],
                vec![0.0; pairs],
                vec![0.0; pairs],
                vec![0.0; pairs],
            ];
            let mut want = got.clone();
            let (mut m1, mut m2, mut m3, mut m4) = (
                vec![Complex::ZERO; pairs],
                vec![Complex::ZERO; pairs],
                vec![Complex::ZERO; pairs],
                vec![Complex::ZERO; pairs],
            );
            let [g0, g1, g2, g3] = &mut got;
            sample_chips(
                &a,
                Some(-0.031),
                Some(Complex::cis(0.4)),
                ChipTaps {
                    i: g0,
                    q: g1,
                    mid: &mut m1,
                },
                ChipTaps {
                    i: g2,
                    q: g3,
                    mid: &mut m2,
                },
            );
            let [w0, w1, w2, w3] = &mut want;
            body::sample_chips(
                &a,
                Some(-0.031),
                Some(Complex::cis(0.4)),
                ChipTaps {
                    i: w0,
                    q: w1,
                    mid: &mut m3,
                },
                ChipTaps {
                    i: w2,
                    q: w3,
                    mid: &mut m4,
                },
            );
            assert_eq!((got, m1, m2), (want, m3, m4), "chips n={n}");

            if n > 0 {
                let mut st1 = gate_state(16);
                let mut st2 = st1;
                let mut ring1 = vec![0.0; 16];
                let mut ring2 = ring1.clone();
                let mut act1 = vec![0u8; n];
                let mut act2 = vec![0u8; n];
                gated_power_scan(&a, &mut ring1, &mut st1, &mut act1);
                body::gated_scan(&a, &mut ring2, &mut st2, &mut act2);
                assert_eq!(st1, st2, "gate state n={n}");
                assert_eq!(act1, act2, "gate flags n={n}");
                assert_eq!(ring1, ring2, "gate ring n={n}");

                // The cf32 form: dispatched and plain scans of the bytes
                // agree with each other and with the parsed samples.
                let raw: Vec<crate::io::Cf32> = a
                    .iter()
                    .map(|v| {
                        let (re, im) = ((v.re as f32).to_le_bytes(), (v.im as f32).to_le_bytes());
                        [re[0], re[1], re[2], re[3], im[0], im[1], im[2], im[3]]
                    })
                    .collect();
                let parsed: Vec<Complex> = raw.iter().map(|s| s.widen()).collect();
                let runs = [0, 1, 2].map(|run| {
                    let mut st = gate_state(16);
                    let mut ring = vec![0.0; 16];
                    let mut act = vec![0u8; n];
                    let zeroed = match run {
                        0 => gated_scan(&raw, &mut ring, &mut st, &mut act),
                        1 => body::gated_scan(&raw, &mut ring, &mut st, &mut act),
                        _ => gated_power_scan(&parsed, &mut ring, &mut st, &mut act),
                    };
                    (st, ring, act, zeroed)
                });
                assert_eq!(runs[0], runs[1], "cf32 dispatch n={n}");
                assert_eq!(runs[0], runs[2], "cf32 vs parsed n={n}");
            }
        }
    }

    fn gate_state(window: usize) -> GateScanState {
        let inv_w = if window.is_power_of_two() {
            1.0 / window as f64
        } else {
            0.0
        };
        GateScanState {
            slot: 0,
            acc: 0.0,
            floor: 1e-3,
            gate: 1e-3 * 4.0,
            threshold: 4.0,
            alpha: 1.0 / 64.0,
            floor_eps: 1e-12,
            inv_w,
        }
    }

    /// The fused-EWMA kernel must be *bit-identical* to the textbook
    /// mul-then-add / divide formulation when `alpha` is a power of two and
    /// the window reciprocal is exact — the property that lets the gateway
    /// splitter move onto the kernel without perturbing golden-vector event
    /// boundaries.
    #[test]
    fn gated_power_scan_matches_reference_bitwise() {
        for window in [8usize, 16, 24, 64] {
            let x = wave(4099, window as u64);
            let mut st_k = gate_state(window);
            let mut st_r = st_k;
            let mut ring_k = vec![0.0; window];
            let mut ring_r = ring_k.clone();
            let mut act_k = vec![0u8; x.len()];
            let mut act_r = vec![0u8; x.len()];
            gated_power_scan(&x, &mut ring_k, &mut st_k, &mut act_k);
            reference::gated_power_scan(&x, &mut ring_r, &mut st_r, &mut act_r);
            assert_eq!(act_k, act_r, "window {window}");
            assert_eq!(
                st_k.floor.to_bits(),
                st_r.floor.to_bits(),
                "window {window}"
            );
            assert_eq!(st_k.acc.to_bits(), st_r.acc.to_bits(), "window {window}");
        }
    }

    /// Splitting one long scan into arbitrary sub-calls must produce the
    /// same flags and final state: all scan state lives in `GateScanState`
    /// and the ring, carried exactly across invocations.
    #[test]
    fn gated_power_scan_chunk_invariant() {
        let x = wave(2000, 9);
        let mut st_whole = gate_state(16);
        let mut ring_whole = vec![0.0; 16];
        let mut act_whole = vec![0u8; x.len()];
        gated_power_scan(&x, &mut ring_whole, &mut st_whole, &mut act_whole);

        for chunk in [1usize, 7, 16, 333] {
            let mut st = gate_state(16);
            let mut ring = vec![0.0; 16];
            let mut act = vec![0u8; x.len()];
            let mut done = 0;
            while done < x.len() {
                let end = (done + chunk).min(x.len());
                gated_power_scan(&x[done..end], &mut ring, &mut st, &mut act[done..end]);
                done = end;
            }
            assert_eq!(act, act_whole, "chunk {chunk}");
            assert_eq!(st, st_whole, "chunk {chunk}");
        }
    }

    #[test]
    fn dtft_norms_matches_single_frequency_path_bitwise() {
        // The lane-parallel grid evaluation must agree bit-for-bit with the
        // one-frequency scalar path (which is itself the pre-SIMD code).
        for n in [1usize, 2, 3, 4, 5, 96, 97, 98, 99, 428] {
            let z = wave(n, n as u64);
            let nus: Vec<f64> = (0..301)
                .map(|s| -0.3 + 2.0 * 0.3 * s as f64 / 300.0)
                .collect();
            let mut mags = vec![0.0; nus.len()];
            dtft_norms(&z, &nus, &mut mags);
            for (k, &nu) in nus.iter().enumerate() {
                assert_eq!(mags[k], dtft_one(&z, nu), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn dtft_norms_empty_input_is_all_zero() {
        let nus = [0.1, -0.2, 0.0];
        let mut mags = [1.0; 3];
        dtft_norms(&[], &nus, &mut mags);
        assert_eq!(mags, [0.0; 3]);
    }

    #[test]
    fn rotate_in_place_stays_near_exact_cis() {
        let n = 5000;
        let mut x = vec![Complex::ONE; n];
        rotate_in_place(&mut x, 0.1217);
        for (i, v) in x.iter().enumerate() {
            let exact = Complex::cis(0.1217 * i as f64);
            assert!((*v - exact).norm() < 1e-12, "sample {i} drifted");
        }
    }

    #[test]
    fn fft_stage_matches_reference_bitwise() {
        for n in [2usize, 8, 64, 256] {
            let mut len = 2;
            while len <= n {
                let ang = -2.0 * std::f64::consts::PI / len as f64;
                let wlen = Complex::cis(ang);
                let mut w = Complex::ONE;
                let table: Vec<Complex> = (0..len / 2)
                    .map(|_| {
                        let t = w;
                        w *= wlen;
                        t
                    })
                    .collect();
                let mut a = wave(n, len as u64);
                let mut b = a.clone();
                let mut c = a.clone();
                fft_stage(&mut a, &table);
                reference::fft_stage(&mut b, len, wlen);
                body::fft_stage(&mut c, &table);
                assert_eq!(a, b, "n={n} len={len}");
                assert_eq!(a, c, "dispatch n={n} len={len}");
                len <<= 1;
            }
        }
    }

    #[test]
    fn kernels_close_to_reference() {
        let a = wave(333, 7);
        let b = wave(333, 8);
        let d = cdot_conj_rotated(&a, &b, 0.05) - reference::cdot_conj_rotated(&a, &b, 0.05);
        assert!(d.norm() < 1e-12);
        let s = cumulant_sums(&a);
        let r = reference::cumulant_sums(&a);
        assert!((s.s4 - r.s4).norm() < 1e-10);
        assert!((s.sa4 - r.sa4).abs() < 1e-10);
    }

    #[test]
    fn norm_sqr_into_reuses_capacity() {
        let x = wave(100, 11);
        let mut out = Vec::with_capacity(200);
        norm_sqr_into(&x, &mut out);
        assert_eq!(out.len(), 100);
        let ptr = out.as_ptr();
        norm_sqr_into(&x, &mut out);
        assert_eq!(ptr, out.as_ptr(), "steady-state refill must not realloc");
        for (o, v) in out.iter().zip(&x) {
            assert_eq!(*o, v.norm_sqr());
        }
    }
}
