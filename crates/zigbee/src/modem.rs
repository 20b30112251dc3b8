//! O-QPSK half-sine modulation and chip-level demodulation.
//!
//! The 802.15.4 2.4 GHz PHY transmits 2 Mchip/s: even-indexed chips ride the
//! in-phase branch, odd-indexed chips the quadrature branch delayed by one
//! chip period `Tc` (the "offset" in O-QPSK), and every chip is shaped by a
//! half-sine pulse spanning `2 Tc`. At the 4 MHz sample rate used throughout
//! the paper that is [`SAMPLES_PER_CHIP`] = 2 samples per chip and a 4-sample
//! pulse, giving the constant-envelope waveform whose quarter-symbols the
//! WiFi attacker emulates.

use ctc_dsp::Complex;

/// Samples per chip at the paper's 4 MHz ZigBee sample rate (2 Mchip/s).
pub const SAMPLES_PER_CHIP: usize = 2;

/// Samples per 32-chip ZigBee symbol (64 = 16 µs at 4 MHz).
pub const SAMPLES_PER_SYMBOL: usize = crate::chipmap::CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP;

/// Length of the half-sine pulse in samples (two chip periods).
const PULSE_LEN: usize = 2 * SAMPLES_PER_CHIP;

/// Half-sine pulse sample `p[i] = sin(pi * i / (2 * SAMPLES_PER_CHIP))`.
fn pulse(i: usize) -> f64 {
    (std::f64::consts::PI * i as f64 / PULSE_LEN as f64).sin()
}

/// Extra samples the Q-branch offset adds past the last chip boundary.
pub const TAIL_SAMPLES: usize = SAMPLES_PER_CHIP;

/// Modulates a chip sequence (values 0/1) into a complex baseband waveform.
///
/// The output has `chips.len() * SAMPLES_PER_CHIP + TAIL_SAMPLES` samples:
/// the O-QPSK offset pushes the final quadrature pulse one chip period past
/// the nominal end.
///
/// # Panics
///
/// Panics if `chips.len()` is odd (I/Q chips must pair up) or any chip value
/// exceeds 1.
///
/// # Examples
///
/// ```
/// use ctc_zigbee::modem::{modulate_chips, SAMPLES_PER_CHIP, TAIL_SAMPLES};
/// let chips = ctc_zigbee::chipmap::spread(0);
/// let wave = modulate_chips(&chips);
/// assert_eq!(wave.len(), 32 * SAMPLES_PER_CHIP + TAIL_SAMPLES);
/// ```
pub fn modulate_chips(chips: &[u8]) -> Vec<Complex> {
    assert!(
        chips.len().is_multiple_of(2),
        "chip count must be even, got {}",
        chips.len()
    );
    assert!(chips.iter().all(|&c| c <= 1), "chips must be 0/1 values");
    let n = chips.len() * SAMPLES_PER_CHIP + TAIL_SAMPLES;
    let mut wave = vec![Complex::ZERO; n];
    for (k, &chip) in chips.iter().enumerate() {
        let bipolar = if chip == 1 { 1.0 } else { -1.0 };
        let pair = k / 2;
        let start = if k % 2 == 0 {
            // I branch: pulse spans [2*pair*2spc, +PULSE_LEN)
            pair * 2 * SAMPLES_PER_CHIP
        } else {
            // Q branch: delayed by one chip period.
            pair * 2 * SAMPLES_PER_CHIP + SAMPLES_PER_CHIP
        };
        for i in 0..PULSE_LEN {
            let v = bipolar * pulse(i);
            if k % 2 == 0 {
                wave[start + i].re += v;
            } else {
                wave[start + i].im += v;
            }
        }
    }
    wave
}

/// Raw chip-rate samples extracted from a waveform: the input to DSSS
/// demodulation, and exactly what the defense reconstructs its QPSK
/// constellation from ("we consider to use the input of the DSSS
/// demodulation", Sec. VI-A2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChipSamples {
    /// Soft I-branch values (even chips), one per chip pair.
    pub i_samples: Vec<f64>,
    /// Soft Q-branch values (odd chips), one per chip pair.
    pub q_samples: Vec<f64>,
    /// Complex waveform samples taken between the I and Q pulse centres,
    /// where a clean O-QPSK waveform passes through `(±1 ± j)/sqrt(2)` —
    /// one genuine QPSK point per chip pair. Channel rotations show up here
    /// as constellation rotation (paper Fig. 6b), unlike in the
    /// branch-projected values above.
    pub midpoints: Vec<Complex>,
}

impl ChipSamples {
    /// `pairs` chip pairs of zeros, to be filled in place.
    pub(crate) fn zeroed(pairs: usize) -> Self {
        ChipSamples {
            i_samples: vec![0.0; pairs],
            q_samples: vec![0.0; pairs],
            midpoints: vec![Complex::ZERO; pairs],
        }
    }

    /// The three vectors as the taps [`ctc_dsp::simd::sample_chips`]
    /// writes through.
    pub(crate) fn taps(&mut self) -> ctc_dsp::simd::ChipTaps<'_> {
        ctc_dsp::simd::ChipTaps {
            i: &mut self.i_samples,
            q: &mut self.q_samples,
            mid: &mut self.midpoints,
        }
    }

    /// Number of chip pairs.
    pub fn len(&self) -> usize {
        self.i_samples.len()
    }

    /// True when no samples were captured.
    pub fn is_empty(&self) -> bool {
        self.i_samples.is_empty()
    }

    /// Interleaves back to soft chip order `c0, c1, c2, ...` (bipolar).
    pub fn interleaved(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len() * 2);
        for (i, q) in self.i_samples.iter().zip(&self.q_samples) {
            out.push(*i);
            out.push(*q);
        }
        out
    }

    /// Hard decisions: `>= 0 -> 1`, `< 0 -> 0`, in chip order.
    pub fn hard_chips(&self) -> Vec<u8> {
        self.interleaved()
            .iter()
            .map(|&v| u8::from(v >= 0.0))
            .collect()
    }

    /// The defense's constellation points: one complex QPSK point per chip
    /// pair ("odd parts are put to the real axis and even parts being put to
    /// the imaginary axis", Sec. VI-A2), taken at the inter-centre sampling
    /// instants so channel phase offsets rotate the diagram as in Fig. 6b.
    pub fn constellation(&self) -> Vec<Complex> {
        self.midpoints.clone()
    }

    /// Constellation built from the branch-projected soft values
    /// (`I_k + j Q_k`). Equivalent to [`ChipSamples::constellation`] up to a
    /// fixed `e^{j pi/4}/sqrt(2)` factor on undistorted channels, but blind
    /// to phase rotation.
    pub fn branch_constellation(&self) -> Vec<Complex> {
        self.i_samples
            .iter()
            .zip(&self.q_samples)
            .map(|(&i, &q)| Complex::new(i, q))
            .collect()
    }
}

/// Chip pairs a frame-aligned waveform of `len` samples holds: pair `n`
/// reads samples `4n+2` (I), `4n+3` (midpoint) and `4n+4` (Q), so it
/// exists once sample `4n+4` does. The count [`demodulate_chips`] returns
/// when asked for every chip, `(len / SAMPLES_PER_CHIP) & !1`.
pub(crate) fn chip_pairs(len: usize) -> usize {
    len.saturating_sub(1) / (2 * SAMPLES_PER_CHIP)
}

/// Samples the matched-filter outputs at chip centers, assuming the waveform
/// starts exactly at a chip-pair boundary (perfect clock recovery).
///
/// Returns one I and one Q soft value per chip pair. `num_chips` must be
/// even; pairs whose sample positions run past the waveform are dropped.
///
/// # Panics
///
/// Panics if `num_chips` is odd.
pub fn demodulate_chips(wave: &[Complex], num_chips: usize) -> ChipSamples {
    assert!(num_chips.is_multiple_of(2), "chip count must be even");
    let pairs = num_chips / 2;
    let mut out = ChipSamples::default();
    for n in 0..pairs {
        let i_idx = n * 2 * SAMPLES_PER_CHIP + SAMPLES_PER_CHIP; // pulse centre
        let q_idx = i_idx + SAMPLES_PER_CHIP;
        if q_idx >= wave.len() {
            break;
        }
        out.i_samples.push(wave[i_idx].re);
        out.q_samples.push(wave[q_idx].im);
        // Midway between the two centres both half-sine pulses read
        // 1/sqrt(2), so the clean waveform is (a_I + j a_Q)/sqrt(2).
        out.midpoints.push(wave[i_idx + SAMPLES_PER_CHIP / 2]);
    }
    out
}

/// Instantaneous phase (radians, unwrapped) of a waveform — the "output of
/// the OQPSK demodulation" trace the paper plots in Fig. 9a to show that
/// frequency trends cannot distinguish the attacker. The sample angles
/// come from [`ctc_dsp::simd::arg_into`] and unwrap by [`phase_step`].
pub fn instantaneous_phase(wave: &[Complex]) -> Vec<f64> {
    let mut out = vec![0.0; wave.len()];
    ctc_dsp::simd::arg_into(wave, &mut out);
    let mut prev = 0.0f64;
    let mut acc = 0.0f64;
    for (n, o) in out.iter_mut().enumerate() {
        let a = *o;
        if n > 0 {
            acc += phase_step(prev, a);
        } else {
            acc = a;
        }
        prev = a;
        *o = acc;
    }
    out
}

/// The unwrapping step of [`instantaneous_phase`]: `a − prev`, less 2π
/// when above π or plus 2π when below −π. Both angles must lie in
/// `[-π, π]`, as [`ctc_dsp::simd::arg_into`]'s do, so the difference lies
/// in `[-2π, 2π]` and one wrap is all it can need; NaN passes through.
#[inline]
pub fn phase_step(prev: f64, a: f64) -> f64 {
    use std::f64::consts::PI;
    let d = a - prev;
    let d = if d > PI { d - 2.0 * PI } else { d };
    if d < -PI {
        d + 2.0 * PI
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chipmap::spread;
    use proptest::prelude::*;

    #[test]
    fn pulse_shape() {
        assert_eq!(pulse(0), 0.0);
        assert!((pulse(SAMPLES_PER_CHIP) - 1.0).abs() < 1e-12);
        assert!((pulse(1) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn waveform_length() {
        let chips = vec![1u8; 32];
        let w = modulate_chips(&chips);
        assert_eq!(w.len(), 32 * SAMPLES_PER_CHIP + TAIL_SAMPLES);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_chip_count_panics() {
        let _ = modulate_chips(&[1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "0/1")]
    fn bad_chip_value_panics() {
        let _ = modulate_chips(&[1, 2]);
    }

    #[test]
    fn constant_envelope() {
        // Half-sine O-QPSK has |s(t)| = 1 away from the ramp-up/down edges.
        let chips = spread(5);
        let w = modulate_chips(&chips);
        for v in &w[SAMPLES_PER_CHIP..w.len() - PULSE_LEN] {
            assert!((v.norm() - 1.0).abs() < 1e-9, "envelope {}", v.norm());
        }
    }

    #[test]
    fn chips_roundtrip_clean() {
        for s in 0..16u8 {
            let chips = spread(s);
            let w = modulate_chips(&chips);
            let samples = demodulate_chips(&w, chips.len());
            assert_eq!(samples.hard_chips(), chips.to_vec());
        }
    }

    #[test]
    fn chip_samples_are_unit_magnitude_at_centres() {
        let chips = spread(3);
        let w = modulate_chips(&chips);
        let samples = demodulate_chips(&w, chips.len());
        for v in samples.interleaved() {
            assert!((v.abs() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constellation_is_qpsk() {
        let chips = spread(11);
        let w = modulate_chips(&chips);
        let samples = demodulate_chips(&w, chips.len());
        let pts = samples.constellation();
        assert_eq!(pts.len(), 16);
        let r = std::f64::consts::FRAC_1_SQRT_2;
        for p in &pts {
            assert!((p.re.abs() - r).abs() < 1e-9, "{p}");
            assert!((p.im.abs() - r).abs() < 1e-9, "{p}");
        }
        // Branch constellation sits at (±1, ±1) and agrees in sign.
        for (b, m) in samples.branch_constellation().iter().zip(&pts) {
            assert!((b.re.abs() - 1.0).abs() < 1e-9);
            assert_eq!(b.re.signum(), m.re.signum());
            assert_eq!(b.im.signum(), m.im.signum());
        }
    }

    #[test]
    fn constellation_rotates_with_channel_phase() {
        // Phase offsets must rotate the midpoint constellation (Fig. 6b),
        // not merely attenuate it.
        let chips = spread(6);
        let w = modulate_chips(&chips);
        let theta = 0.6;
        let rotated: Vec<Complex> = w.iter().map(|&v| v * Complex::cis(theta)).collect();
        let pts = demodulate_chips(&rotated, chips.len()).constellation();
        for p in pts {
            let rel = (p.arg() - std::f64::consts::FRAC_PI_4 - theta)
                .rem_euclid(std::f64::consts::FRAC_PI_2);
            let off = rel.min(std::f64::consts::FRAC_PI_2 - rel);
            assert!(off < 1e-9, "point {p} not rotated by {theta}");
        }
    }

    #[test]
    fn demodulate_truncated_waveform_stops_early() {
        let chips = spread(0);
        let w = modulate_chips(&chips);
        let samples = demodulate_chips(&w[..20], chips.len());
        assert!(samples.len() < 16);
        assert!(!samples.is_empty());
    }

    #[test]
    fn chip_pairs_counts_what_demodulation_reads() {
        for len in 0..200 {
            let w = vec![Complex::ONE; len];
            let all = (len / SAMPLES_PER_CHIP) & !1usize;
            assert_eq!(
                chip_pairs(len),
                demodulate_chips(&w, all).len(),
                "len {len}"
            );
        }
    }

    #[test]
    fn instantaneous_phase_monotone_for_rotation() {
        let w: Vec<Complex> = (0..50).map(|n| Complex::cis(0.3 * n as f64)).collect();
        let ph = instantaneous_phase(&w);
        for pair in ph.windows(2) {
            assert!((pair[1] - pair[0] - 0.3).abs() < 1e-9);
        }
    }

    #[test]
    fn phase_step_matches_the_wrap_loops_on_angles_in_range() {
        use std::f64::consts::PI;
        // The unwrap as loops: as many 2π steps as the difference needs.
        let looped = |prev: f64, a: f64| {
            let mut d = a - prev;
            while d > PI {
                d -= 2.0 * PI;
            }
            while d < -PI {
                d += 2.0 * PI;
            }
            d
        };
        let mut angles = vec![-PI, PI, 0.0, -0.0, PI / 2.0, -PI / 2.0, 1e-300, f64::NAN];
        angles.extend((0..400).map(|i| -PI + 2.0 * PI * (i as f64 * 0.618_034).fract()));
        for &prev in &angles {
            for &a in &angles {
                let (got, want) = (phase_step(prev, a), looped(prev, a));
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "step {prev} -> {a}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn multi_symbol_concatenation_keeps_chip_alignment() {
        // Two symbols back to back decode independently.
        let mut chips = Vec::new();
        chips.extend_from_slice(&spread(4));
        chips.extend_from_slice(&spread(9));
        let w = modulate_chips(&chips);
        let samples = demodulate_chips(&w, chips.len());
        let hard = samples.hard_chips();
        assert_eq!(&hard[..32], &spread(4)[..]);
        assert_eq!(&hard[32..64], &spread(9)[..]);
    }

    proptest! {
        #[test]
        fn arbitrary_even_chip_sequences_roundtrip(chips in proptest::collection::vec(0u8..2, 2..128)) {
            let chips = if chips.len() % 2 == 1 { chips[..chips.len()-1].to_vec() } else { chips };
            let w = modulate_chips(&chips);
            let got = demodulate_chips(&w, chips.len()).hard_chips();
            prop_assert_eq!(got, chips);
        }
    }
}
