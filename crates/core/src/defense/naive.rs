//! The rejected defensive strategies (paper Sec. VI-A1, Figs. 8–9).
//!
//! Before settling on constellation statistics the paper walks through three
//! candidate defenses and shows each fails. They are implemented here so the
//! evaluation can reproduce that negative result quantitatively:
//!
//! 1. **Cyclic-prefix repetition** — each emulated 4 µs block starts with a
//!    copy of its tail, an authentic ZigBee waveform does not; but at the
//!    ZigBee receiver's 4 MHz rate the CP spans only ~3 samples and noise
//!    buries the margin.
//! 2. **O-QPSK demodulation output (phase trend)** — the instantaneous
//!    frequency trend is the same for both waveforms.
//! 3. **Chip sequences after hard decision** — the sequences differ, but
//!    DSSS tolerance decodes both to the same symbols.

use ctc_dsp::{simd, Complex};
use ctc_zigbee::modem::{instantaneous_phase, phase_step};
use std::cell::RefCell;

/// Samples per emulated WiFi-symbol block at the ZigBee rate
/// (4 µs × 4 MHz).
pub const BLOCK_LEN_4MHZ: usize = 16;

/// Cyclic-prefix samples per block at the ZigBee rate (0.8 µs × 4 MHz,
/// rounded down).
pub const CP_LEN_4MHZ: usize = 3;

/// Mean CP self-similarity across all complete 16-sample blocks of a 4 MHz
/// waveform: correlation between each block's first [`CP_LEN_4MHZ`] samples
/// and the corresponding tail samples.
///
/// A noiseless emulated waveform scores high; an authentic ZigBee waveform
/// scores whatever its chip pattern happens to produce. The experiment
/// harness shows the distributions collapse together under channel noise —
/// the reason the paper rejects this strategy.
///
/// Returns `None` when the waveform holds no complete block.
pub fn cp_similarity_4mhz(wave: &[Complex]) -> Option<f64> {
    let blocks = wave.len() / BLOCK_LEN_4MHZ;
    if blocks == 0 {
        return None;
    }
    // The CP copies the last 0.8 µs: samples ~12.8..16 at 4 MHz. The
    // fractional offset costs a fifth of a sample; the signal is
    // oversampled 2x, so nearest-sample alignment suffices here.
    let sum = simd::cp_correlation_sum(wave, BLOCK_LEN_4MHZ, CP_LEN_4MHZ);
    Some(sum / blocks as f64)
}

/// The phase-trend trace of Fig. 9a: unwrapped instantaneous phase of the
/// received waveform. Identical trends for original and emulated waveforms
/// defeat strategy 2.
pub fn phase_trend(wave: &[Complex]) -> Vec<f64> {
    instantaneous_phase(wave)
}

thread_local! {
    /// The two phase trends [`phase_trend_similarity`] compares, kept per
    /// thread so a call on halves no longer than the thread's last
    /// allocates nothing.
    static TRENDS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Quantifies how similar two phase trends are: the correlation of their
/// per-sample increments over the overlapping span, in `[-1, 1]`.
pub fn phase_trend_similarity(a: &[Complex], b: &[Complex]) -> f64 {
    let n = a.len().min(b.len());
    if n < 2 {
        return 0.0;
    }
    TRENDS.with_borrow_mut(|trends| {
        trends.clear();
        trends.resize(2 * n, 0.0);
        let (pa, pb) = trends.split_at_mut(n);
        // The trend is causal, so the first `n` samples give the first
        // `n` phases of the whole trend. Both are unwrapped as
        // `instantaneous_phase` unwraps, and their increments overwrite
        // the angles in place. Each sum runs in order from -0.0, as
        // `Iterator::sum` adds, side by side in two passes.
        simd::arg_into(&a[..n], pa);
        simd::arg_into(&b[..n], pb);
        let (mut prev_a, mut prev_b) = (pa[0], pb[0]);
        let (mut trend_a, mut trend_b) = (prev_a, prev_b);
        let (mut sa, mut sb) = (-0.0, -0.0);
        for i in 1..n {
            let (ra, rb) = (pa[i], pb[i]);
            let next_a = trend_a + phase_step(prev_a, ra);
            let next_b = trend_b + phase_step(prev_b, rb);
            let (x, y) = (next_a - trend_a, next_b - trend_b);
            (pa[i - 1], pb[i - 1]) = (x, y);
            sa += x;
            sb += y;
            (prev_a, prev_b, trend_a, trend_b) = (ra, rb, next_a, next_b);
        }
        let (da, db) = (&pa[..n - 1], &pb[..n - 1]);
        let (ma, mb) = (sa / (n - 1) as f64, sb / (n - 1) as f64);
        let (mut cov, mut va, mut vb) = (-0.0, -0.0, -0.0);
        for (x, y) in da.iter().zip(db) {
            let (dx, dy) = (x - ma, y - mb);
            cov += dx * dy;
            va += dx.powi(2);
            vb += dy.powi(2);
        }
        if va <= 0.0 || vb <= 0.0 {
            return 0.0;
        }
        cov / (va * vb).sqrt()
    })
}

/// Strategy 3 summary: fraction of 32-chip groups whose hard-decision chip
/// sequences differ between two receptions, against the fraction whose
/// decoded symbols differ. The paper's point is the first is large while the
/// second is zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipComparison {
    /// Fraction of symbol-sized chip groups that differ at chip level.
    pub chip_groups_differing: f64,
    /// Fraction of decoded symbols that differ.
    pub symbols_differing: f64,
}

/// Compares the chip and symbol streams of two receptions over their common
/// prefix.
pub fn compare_chip_streams(
    a: &ctc_zigbee::Reception,
    b: &ctc_zigbee::Reception,
) -> ChipComparison {
    let chips_a = a.chip_samples.hard_chips();
    let chips_b = b.chip_samples.hard_chips();
    let groups = (chips_a.len() / 32).min(chips_b.len() / 32);
    let mut chip_diff = 0usize;
    for g in 0..groups {
        let lo = g * 32;
        if chips_a[lo..lo + 32] != chips_b[lo..lo + 32] {
            chip_diff += 1;
        }
    }
    let syms = a.symbols.len().min(b.symbols.len());
    let sym_diff = a
        .symbols
        .iter()
        .zip(&b.symbols)
        .filter(|(x, y)| x != y)
        .count();
    ChipComparison {
        chip_groups_differing: if groups > 0 {
            chip_diff as f64 / groups as f64
        } else {
            0.0
        },
        symbols_differing: if syms > 0 {
            sym_diff as f64 / syms as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::Emulator;
    use ctc_channel::Link;
    use ctc_zigbee::{Receiver, Transmitter};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair() -> (Vec<Complex>, Vec<Complex>) {
        let orig = Transmitter::new().transmit_payload(b"00000").unwrap();
        let emu = Emulator::new();
        let em = emu.emulate(&orig);
        let back = emu.received_at_zigbee(&em);
        (orig, back)
    }

    #[test]
    fn cp_similarity_empty_is_none() {
        assert_eq!(cp_similarity_4mhz(&[]), None);
        assert!(cp_similarity_4mhz(&[Complex::ONE; 16]).is_some());
    }

    #[test]
    fn noiseless_emulation_has_higher_cp_similarity() {
        let (orig, emu) = pair();
        let n = orig.len().min(emu.len());
        let c_orig = cp_similarity_4mhz(&orig[..n]).unwrap();
        let c_emu = cp_similarity_4mhz(&emu[..n]).unwrap();
        assert!(
            c_emu > c_orig,
            "emulated CP similarity {c_emu} should exceed original {c_orig}"
        );
    }

    #[test]
    fn noise_destroys_cp_margin() {
        // Under realistic noise the CP statistic gap shrinks drastically —
        // the quantitative form of "this methodology is not reliable".
        let (orig, emu) = pair();
        let n = orig.len().min(emu.len());
        let clean_gap =
            cp_similarity_4mhz(&emu[..n]).unwrap() - cp_similarity_4mhz(&orig[..n]).unwrap();
        let mut rng = StdRng::seed_from_u64(91);
        let link = Link::awgn(0.0);
        let mut noisy_gap_sum = 0.0;
        const RUNS: usize = 20;
        for _ in 0..RUNS {
            let no = link.transmit(&orig[..n], &mut rng);
            let ne = link.transmit(&emu[..n], &mut rng);
            noisy_gap_sum += cp_similarity_4mhz(&ne).unwrap() - cp_similarity_4mhz(&no).unwrap();
        }
        let noisy_gap = noisy_gap_sum / RUNS as f64;
        assert!(
            noisy_gap < clean_gap * 0.7,
            "noise should shrink the CP gap: clean {clean_gap}, noisy {noisy_gap}"
        );
    }

    #[test]
    fn phase_trends_carry_no_attacker_signature() {
        // Fig. 9a's point, quantified: the phase-trend similarity between an
        // original waveform and its emulation is in the same range as
        // between two unrelated authentic waveforms — the statistic has no
        // power to separate attacker from transmitter.
        let (orig, emu) = pair();
        let other = Transmitter::new().transmit_payload(b"zq!#x").unwrap();
        let n = orig.len().min(emu.len()).min(other.len());
        let sim_emulated = phase_trend_similarity(&orig[..n], &emu[..n]);
        let sim_unrelated = phase_trend_similarity(&orig[..n], &other[..n]);
        assert!(
            sim_emulated > 0.4,
            "emulated phase trend diverged: {sim_emulated}"
        );
        assert!(
            (sim_emulated - sim_unrelated).abs() < 0.2,
            "phase trend should not separate attacker ({sim_emulated}) from \
             an unrelated authentic waveform ({sim_unrelated})"
        );
    }

    /// The correlation as written with one vector per trend and per
    /// increment series and an `Iterator::sum` per statistic.
    fn phase_trend_similarity_vectors(a: &[Complex], b: &[Complex]) -> f64 {
        let pa = phase_trend(a);
        let pb = phase_trend(b);
        let n = pa.len().min(pb.len());
        if n < 2 {
            return 0.0;
        }
        let da: Vec<f64> = pa[..n].windows(2).map(|w| w[1] - w[0]).collect();
        let db: Vec<f64> = pb[..n].windows(2).map(|w| w[1] - w[0]).collect();
        let ma = da.iter().sum::<f64>() / da.len() as f64;
        let mb = db.iter().sum::<f64>() / db.len() as f64;
        let cov: f64 = da.iter().zip(&db).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = da.iter().map(|x| (x - ma).powi(2)).sum();
        let vb: f64 = db.iter().map(|y| (y - mb).powi(2)).sum();
        if va <= 0.0 || vb <= 0.0 {
            return 0.0;
        }
        cov / (va * vb).sqrt()
    }

    #[test]
    fn phase_trend_similarity_keeps_the_vector_formulas_bits() {
        let (orig, emu) = pair();
        let mut rng = StdRng::seed_from_u64(5);
        let noisy = Link::awgn(3.0).transmit(&orig, &mut rng);
        let halves = |w: &[Complex]| {
            let (x, y) = w.split_at(w.len() / 2);
            (x.to_vec(), y.to_vec())
        };
        let mut cases = vec![
            (orig.clone(), emu.clone()),
            (emu.clone(), noisy.clone()),
            halves(&orig),
            halves(&emu),
            halves(&noisy),
            // Unequal lengths, and a constant phase (zero increments).
            (orig[..700].to_vec(), noisy.clone()),
            (vec![Complex::new(-1.0, -0.0); 40], orig[..40].to_vec()),
        ];
        // Special values reach the trend.
        let mut special = noisy.clone();
        special[300] = Complex::new(f64::NAN, 0.0);
        special[301] = Complex::new(f64::INFINITY, -0.0);
        cases.push((special.clone(), orig.clone()));
        for (i, (a, b)) in cases.iter().enumerate() {
            let got = phase_trend_similarity(a, b);
            let want = phase_trend_similarity_vectors(a, b);
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "case {i}: {got:e} vs {want:e}"
            );
        }
    }

    #[test]
    fn phase_trend_similarity_degenerate_inputs() {
        assert_eq!(phase_trend_similarity(&[], &[]), 0.0);
        assert_eq!(
            phase_trend_similarity(&[Complex::ONE; 5], &[Complex::ONE; 5]),
            0.0 // zero variance in both increments
        );
    }

    #[test]
    fn cp_similarity_short_burst_is_none() {
        // One sample short of a complete 16-sample block: no blocks, no
        // statistic. Pins the `blocks == 0` early return.
        assert_eq!(
            cp_similarity_4mhz(&[Complex::ONE; BLOCK_LEN_4MHZ - 1]),
            None
        );
    }

    #[test]
    fn cp_similarity_degenerate_bursts_pin_extremes() {
        // An all-zero block has zero power in head and tail, so the
        // correlation convention returns 0 rather than NaN.
        assert_eq!(cp_similarity_4mhz(&[Complex::ZERO; 32]), Some(0.0));
        // A constant nonzero burst is perfectly self-similar in every block.
        let c = cp_similarity_4mhz(&[Complex::ONE; 2 * BLOCK_LEN_4MHZ]).unwrap();
        assert!((c - 1.0).abs() < 1e-12, "constant burst similarity: {c}");
    }

    #[test]
    fn phase_trend_similarity_short_overlap_is_zero() {
        // Fewer than two overlapping samples means no increments to
        // correlate; pins the `n < 2` early return, including the
        // mismatched-length case where only one side is short.
        assert_eq!(
            phase_trend_similarity(&[Complex::ONE], &[Complex::ONE]),
            0.0
        );
        assert_eq!(
            phase_trend_similarity(&[Complex::ONE], &[Complex::ONE; 64]),
            0.0
        );
        assert_eq!(phase_trend_similarity(&[], &[Complex::ONE; 64]), 0.0);
    }

    #[test]
    fn chips_differ_but_symbols_agree() {
        let (orig, emu) = pair();
        let ra = Receiver::usrp().receive(&orig);
        let rb = Receiver::usrp().receive(&emu[..orig.len().min(emu.len())]);
        let cmp = compare_chip_streams(&ra, &rb);
        assert!(
            cmp.chip_groups_differing > 0.5,
            "most chip groups should differ, got {}",
            cmp.chip_groups_differing
        );
        assert_eq!(
            cmp.symbols_differing, 0.0,
            "DSSS tolerance should hide all chip differences"
        );
    }
}
