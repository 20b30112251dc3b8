//! ZigBee receiver: synchronization, O-QPSK demodulation, clock recovery,
//! DSSS despreading and frame parsing (Fig. 1, right half).
//!
//! Two despreading back-ends model the paper's two receiver platforms:
//!
//! - [`Decision::Hard`] — hard chip decisions + minimum-Hamming-distance
//!   lookup with a correlation threshold (the GNURadio/USRP pipeline).
//! - [`Decision::Soft`] — correlation of soft chip values against all 16
//!   sequences (the "stronger demodulation functions" of commodity
//!   CC26x2R1 silicon, Fig. 14b).
//!
//! After the timing search, [`Receiver::receive`] reads each capture
//! sample once: one pass de-rotates (CFO, then phase) and samples only the
//! chip instants, into chip vectors sized up front, and despreading packs
//! the hard chips into a `u32` per symbol. Only the soft decision
//! correlates soft chips while receiving; [`Reception::soft_scores`]
//! despreads the kept chip samples when a caller asks for the scores.

use crate::chipmap::{despread_hard_bits, despread_soft, spread, CHIPS_PER_SYMBOL};
use crate::frame::{parse_frame_symbols, Frame, FrameError};
use crate::modem::{chip_pairs, modulate_chips, ChipSamples, SAMPLES_PER_CHIP, SAMPLES_PER_SYMBOL};
use ctc_dsp::{simd, Complex};
use std::sync::OnceLock;

/// Chip pairs per symbol.
const PAIRS_PER_SYMBOL: usize = CHIPS_PER_SYMBOL / 2;

// `simd::sample_chips` reads the chip instants of two samples per chip.
const _: () = assert!(SAMPLES_PER_CHIP == 2);

/// The timing-search template in the split re/im form
/// [`simd::window_search`] reads, with its energy.
struct SplitTemplate {
    re: Vec<f64>,
    im: Vec<f64>,
    energy: f64,
}

/// Despreading strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Hard chip decisions; a 32-chip group whose best Hamming distance
    /// exceeds `threshold` is dropped (the paper uses threshold 10).
    Hard {
        /// Maximum tolerated Hamming distance.
        threshold: u32,
    },
    /// Soft correlation against all chip sequences; a group whose normalized
    /// score falls below `min_score` is dropped.
    Soft {
        /// Minimum normalized correlation in `[-1, 1]`.
        min_score: f64,
    },
}

impl Default for Decision {
    fn default() -> Self {
        Decision::Hard { threshold: 10 }
    }
}

/// Synchronization estimates recovered from the preamble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncResult {
    /// Sample offset of the first preamble chip.
    pub offset: usize,
    /// Carrier phase estimate (radians).
    pub phase: f64,
    /// Residual CFO estimate (radians per sample).
    pub cfo_per_sample: f64,
    /// Peak normalized correlation achieved during the search.
    pub peak_correlation: f64,
}

/// Everything the receiver extracted from one waveform.
#[derive(Debug, Clone)]
pub struct Reception {
    /// Despread data symbols, in order (dropped groups decoded anyway and
    /// flagged in [`Reception::dropped`]).
    pub symbols: Vec<u8>,
    /// Per-symbol Hamming distance (hard decision) between received and
    /// matched chip sequence.
    pub hamming_distances: Vec<u32>,
    /// Per-symbol drop flags (distance/score beyond the configured limit).
    pub dropped: Vec<bool>,
    /// Raw chip samples before any correction — what the defense taps: the
    /// channel's phase rotation stays visible (Fig. 6b), and a receiver CFO
    /// estimate cannot inject its estimation noise into `C40` (DESIGN §9.3).
    pub raw_chip_samples: ChipSamples,
    /// Chip samples after phase/CFO correction — what despreading used,
    /// and what [`Reception::soft_scores`] despreads again.
    pub chip_samples: ChipSamples,
    /// Frame parse over the despread symbols.
    pub frame: Result<Frame, FrameError>,
    /// Synchronization estimates.
    pub sync: SyncResult,
}

impl Reception {
    /// True when a frame parsed, its FCS checked out, and no symbol in the
    /// PSDU region was dropped.
    pub fn packet_ok(&self) -> bool {
        match &self.frame {
            Ok(f) => {
                let start = f.psdu_symbol_offset;
                !self
                    .dropped
                    .iter()
                    .skip(start)
                    .take(f.payload.len() * 2 + 4)
                    .any(|&d| d)
            }
            Err(_) => false,
        }
    }

    /// Payload bytes if the packet decoded.
    pub fn payload(&self) -> Option<&[u8]> {
        self.frame.as_ref().ok().map(|f| f.payload.as_slice())
    }

    /// Per-symbol normalized soft correlation score of
    /// [`chip_samples`](Self::chip_samples), in `[-1, 1]`: each whole
    /// 32-chip group despread by [`despread_soft`] against all 16 chip
    /// sequences, whichever [`Decision`] received it.
    ///
    /// Computed on each call rather than kept: the hard decision, which
    /// the gateway runs, never reads it. The bits are those the soft
    /// decision ranked its symbols by.
    pub fn soft_scores(&self) -> Vec<f64> {
        symbol_groups(&self.chip_samples)
            .map(|(i_chips, q_chips)| despread_soft(&soft_chips(i_chips, q_chips)).1)
            .collect()
    }

    /// Counts symbol mismatches against an expected transmitted stream
    /// (compared over the shorter of the two).
    pub fn symbol_errors(&self, expected: &[u8]) -> usize {
        self.symbols
            .iter()
            .zip(expected)
            .filter(|(a, b)| a != b)
            .count()
            + expected.len().saturating_sub(self.symbols.len())
    }
}

/// The I and Q chip values of each whole 32-chip symbol, in order.
fn symbol_groups(chips: &ChipSamples) -> impl Iterator<Item = (&[f64], &[f64])> {
    chips
        .i_samples
        .chunks_exact(PAIRS_PER_SYMBOL)
        .zip(chips.q_samples.chunks_exact(PAIRS_PER_SYMBOL))
}

/// One symbol's soft chips in chip order `c0 = I0, c1 = Q0, …`.
fn soft_chips(i_chips: &[f64], q_chips: &[f64]) -> [f64; CHIPS_PER_SYMBOL] {
    let mut soft = [0.0; CHIPS_PER_SYMBOL];
    for (p, (&i, &q)) in i_chips.iter().zip(q_chips).enumerate() {
        soft[2 * p] = i;
        soft[2 * p + 1] = q;
    }
    soft
}

/// A configured ZigBee receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct Receiver {
    decision: Decision,
    sync_search: usize,
    fractional_timing: bool,
}

impl Default for Receiver {
    fn default() -> Self {
        Self::new()
    }
}

impl Receiver {
    /// Hard-decision receiver (threshold 10), no timing search (the waveform
    /// is assumed frame-aligned, as in the paper's simulations). Every
    /// receiver corrects CFO and phase from the preamble before it
    /// despreads.
    pub fn new() -> Self {
        Receiver {
            decision: Decision::default(),
            sync_search: 0,
            fractional_timing: false,
        }
    }

    /// USRP-like receiver: hard decisions with the paper's threshold of 10.
    pub fn usrp() -> Self {
        Self::new()
    }

    /// Commodity-device receiver: soft-decision despreading.
    pub fn commodity() -> Self {
        Self::new().with_decision(Decision::Soft { min_score: 0.25 })
    }

    /// Sets the despreading strategy.
    pub fn with_decision(mut self, decision: Decision) -> Self {
        self.decision = decision;
        self
    }

    /// Enables a timing search over `0..=max_offset` samples.
    pub fn with_sync_search(mut self, max_offset: usize) -> Self {
        self.sync_search = max_offset;
        self
    }

    /// Enables sub-sample timing recovery: after the integer search, the
    /// receiver tests quarter-sample offsets with a Farrow fractional
    /// interpolator and keeps the best preamble correlation. Needed when
    /// the incoming waveform is not sample-aligned with the receiver's
    /// clock (always true over the air).
    pub fn with_fractional_timing(mut self, enabled: bool) -> Self {
        self.fractional_timing = enabled;
        self
    }

    /// The reference waveform of one preamble symbol (32 chips of symbol 0).
    ///
    /// Modulated once per process: every burst the streaming gateway decodes
    /// runs synchronization, so rebuilding the template per call would put a
    /// fixed waveform synthesis on the hot path.
    fn preamble_template() -> &'static [Complex] {
        static TEMPLATE: OnceLock<Vec<Complex>> = OnceLock::new();
        TEMPLATE.get_or_init(|| modulate_chips(&spread(0)))
    }

    /// Two preamble symbols back to back — the timing-search template.
    fn sync_template() -> &'static [Complex] {
        static TEMPLATE: OnceLock<Vec<Complex>> = OnceLock::new();
        TEMPLATE.get_or_init(|| {
            let one = Self::preamble_template();
            let mut template = Vec::with_capacity(SAMPLES_PER_SYMBOL * 2);
            template.extend_from_slice(&one[..SAMPLES_PER_SYMBOL]);
            template.extend_from_slice(&one[..SAMPLES_PER_SYMBOL]);
            template
        })
    }

    /// [`Receiver::sync_template`] split into re/im halves, built once per
    /// process like the template itself.
    fn split_template() -> &'static SplitTemplate {
        static TEMPLATE: OnceLock<SplitTemplate> = OnceLock::new();
        TEMPLATE.get_or_init(|| {
            let t = Self::sync_template();
            SplitTemplate {
                re: t.iter().map(|v| v.re).collect(),
                im: t.iter().map(|v| v.im).collect(),
                energy: simd::sum_norm_sqr(t),
            }
        })
    }

    /// Correlates the known preamble against the waveform to estimate
    /// timing, phase and CFO.
    fn synchronize(&self, wave: &[Complex]) -> SyncResult {
        // Template: two preamble symbols for timing, full four for CFO.
        let template = Self::sync_template();

        // Too little signal to correlate against the template: report a
        // null sync instead of slicing out of range.
        if wave.len() < template.len() {
            return SyncResult {
                offset: 0,
                phase: 0.0,
                cfo_per_sample: 0.0,
                peak_correlation: 0.0,
            };
        }

        // Every offset's correlation and energy in one kernel call. Each
        // window keeps a fresh sum: a sliding energy would round
        // differently, and a near-tie could then move the chosen offset.
        let split = Self::split_template();
        let search = self
            .sync_search
            .min(wave.len().saturating_sub(template.len()));
        let mut corrs = vec![Complex::ZERO; search + 1];
        let mut energies = vec![0.0; search + 1];
        simd::window_search(
            wave,
            &split.re,
            &split.im,
            &mut Vec::new(),
            &mut corrs,
            &mut energies,
        );
        let mut best_off = 0usize;
        let mut best_corr = Complex::ZERO;
        let mut best_score = f64::NEG_INFINITY;
        for (off, (&corr, &r_energy)) in corrs.iter().zip(&energies).enumerate() {
            let score = if r_energy > 0.0 {
                corr.norm_sqr() / (r_energy * split.energy)
            } else {
                0.0
            };
            if score > best_score {
                best_score = score;
                best_off = off;
                best_corr = corr;
            }
        }

        // CFO by delay-and-correlate over the preamble: consecutive preamble
        // symbols carry identical chips, so the waveform is 64-sample
        // periodic and `sum x[n+64] x*[n]` accumulates the per-symbol phase
        // advance with a long averaging window (unbiased for offsets below
        // fs/128 ≈ 31 kHz — far above any residual CFO after front-end
        // correction).
        let mut cfo = 0.0;
        let span = (6 * SAMPLES_PER_SYMBOL).min(wave.len().saturating_sub(best_off));
        if span > SAMPLES_PER_SYMBOL + 32 {
            let seg = &wave[best_off..best_off + span];
            let acc = simd::cdot_conj(
                &seg[SAMPLES_PER_SYMBOL..],
                &seg[..span - SAMPLES_PER_SYMBOL],
            );
            if acc.norm() > 0.0 {
                cfo = acc.arg() / SAMPLES_PER_SYMBOL as f64;
            }
        }

        // Phase from the template correlation of the CFO-derotated preamble.
        let seg_end = (best_off + template.len()).min(wave.len());
        let corr = simd::cdot_conj_rotated(&wave[best_off..seg_end], template, -cfo);
        let phase = if corr.norm() > 0.0 {
            corr.arg()
        } else {
            best_corr.arg()
        };

        SyncResult {
            offset: best_off,
            phase,
            cfo_per_sample: cfo,
            peak_correlation: best_score.max(0.0).sqrt(),
        }
    }

    /// Processes a received baseband waveform (4 MHz, frame starting within
    /// the configured search window) into a [`Reception`].
    pub fn receive(&self, wave: &[Complex]) -> Reception {
        let sync = self.synchronize(wave);
        let aligned_slice = &wave[sync.offset.min(wave.len())..];
        // Sub-sample refinement: advance by the fractional offset that
        // maximizes preamble correlation. Only the first `template.len()`
        // samples of a candidate are scored, and the cubic interpolant
        // reads at most two samples ahead, so each candidate advances just
        // that prefix plus two: the scores are those of the whole slice.
        let fractional = if self.fractional_timing && !aligned_slice.is_empty() {
            let one = Self::preamble_template();
            let template = &one[..SAMPLES_PER_SYMBOL.min(one.len())];
            let prefix = &aligned_slice[..(template.len() + 2).min(aligned_slice.len())];
            let mut best_mu = 0.0f64;
            let mut best = f64::NEG_INFINITY;
            for k in 0..8 {
                if aligned_slice.len() < template.len() {
                    break;
                }
                let mu = k as f64 / 8.0;
                let advanced;
                let candidate = if mu == 0.0 {
                    prefix
                } else {
                    advanced = ctc_dsp::fractional::fractional_advance(prefix, mu);
                    &advanced[..]
                };
                let corr = simd::cdot_conj(&candidate[..template.len()], template);
                if corr.norm() > best {
                    best = corr.norm();
                    best_mu = mu;
                }
            }
            best_mu
        } else {
            0.0
        };
        let refined;
        let aligned: &[Complex] = if fractional > 0.0 {
            refined = ctc_dsp::fractional::fractional_advance(aligned_slice, fractional);
            &refined
        } else {
            aligned_slice
        };

        // One pass over the chip instants: the raw samples, and the same
        // samples after CFO correction (clock recovery) then phase
        // correction.
        let pairs = chip_pairs(aligned.len());
        let mut raw_chip_samples = ChipSamples::zeroed(pairs);
        let mut chip_samples = ChipSamples::zeroed(pairs);
        simd::sample_chips(
            aligned,
            -sync.cfo_per_sample,
            Complex::cis(-sync.phase),
            raw_chip_samples.taps(),
            chip_samples.taps(),
        );

        // Despread 32-chip groups: hard decisions (`>= 0` is a 1) packed
        // into bit `c`; the soft decision also correlates the soft chips.
        let groups = pairs / PAIRS_PER_SYMBOL;
        let mut symbols = Vec::with_capacity(groups);
        let mut hamming_distances = Vec::with_capacity(groups);
        let mut dropped = Vec::with_capacity(groups);
        for (i_chips, q_chips) in symbol_groups(&chip_samples) {
            let mut bits = 0u32;
            for (p, (&i, &q)) in i_chips.iter().zip(q_chips).enumerate() {
                bits |= u32::from(i >= 0.0) << (2 * p) | u32::from(q >= 0.0) << (2 * p + 1);
            }
            let (hard_sym, dist) = despread_hard_bits(bits);
            match self.decision {
                Decision::Hard { threshold } => {
                    symbols.push(hard_sym);
                    dropped.push(dist > threshold);
                }
                Decision::Soft { min_score } => {
                    let (soft_sym, score) = despread_soft(&soft_chips(i_chips, q_chips));
                    symbols.push(soft_sym);
                    dropped.push(score < min_score);
                }
            }
            hamming_distances.push(dist);
        }

        let frame = parse_frame_symbols(&symbols);
        Reception {
            symbols,
            hamming_distances,
            dropped,
            raw_chip_samples,
            chip_samples,
            frame,
            sync,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transmitter;
    use ctc_channel::Link;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tx_rx(payload: &[u8], rx: &Receiver) -> Reception {
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(payload).unwrap();
        rx.receive(&wave)
    }

    #[test]
    fn clean_frame_decodes_hard() {
        let r = tx_rx(b"00042", &Receiver::usrp());
        assert!(r.packet_ok());
        assert_eq!(r.payload(), Some(&b"00042"[..]));
        assert!(r.hamming_distances.iter().all(|&d| d == 0));
    }

    #[test]
    fn clean_frame_decodes_soft() {
        let r = tx_rx(b"hello zigbee", &Receiver::commodity());
        assert!(r.packet_ok());
        assert_eq!(r.payload(), Some(&b"hello zigbee"[..]));
        assert!(r.soft_scores().iter().all(|&s| s > 0.95));
    }

    #[test]
    fn noisy_frame_decodes_at_moderate_snr() {
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(b"00007").unwrap();
        let link = Link::awgn(12.0);
        let mut rng = StdRng::seed_from_u64(41);
        let mut ok = 0;
        for _ in 0..20 {
            let rxw = link.transmit(&wave, &mut rng);
            if Receiver::usrp().receive(&rxw).packet_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 18, "only {ok}/20 packets at 12 dB");
    }

    #[test]
    fn soft_beats_hard_at_low_snr() {
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(b"0001200045").unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let link = Link::awgn(2.0);
        let mut hard_ok = 0;
        let mut soft_ok = 0;
        for _ in 0..60 {
            let rxw = link.transmit(&wave, &mut rng);
            if Receiver::usrp().receive(&rxw).packet_ok() {
                hard_ok += 1;
            }
            if Receiver::commodity().receive(&rxw).packet_ok() {
                soft_ok += 1;
            }
        }
        assert!(
            soft_ok >= hard_ok,
            "soft ({soft_ok}) should be at least as robust as hard ({hard_ok})"
        );
    }

    #[test]
    fn phase_offset_corrected() {
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(b"4567").unwrap();
        let rotated = ctc_channel::impairments::apply_phase(&wave, 0.9);
        let r = Receiver::usrp().receive(&rotated);
        assert!(r.packet_ok(), "phase correction failed");
        // Raw samples keep the rotation; corrected ones do not.
        let raw_pts = r.raw_chip_samples.constellation();
        let fixed_pts = r.chip_samples.constellation();
        let raw_rot = raw_pts[4].arg();
        let fixed_rot = fixed_pts[4].arg();
        // Fixed points sit near odd multiples of pi/4.
        let snap = |a: f64| {
            let r = a.rem_euclid(std::f64::consts::FRAC_PI_2) - std::f64::consts::FRAC_PI_4;
            r.abs()
        };
        assert!(snap(fixed_rot) < 0.1, "corrected rot {fixed_rot}");
        assert!(
            snap(raw_rot) > 0.1,
            "raw constellation lost its rotation {raw_rot}"
        );
    }

    #[test]
    fn timing_offset_found_by_search() {
        let tx = Transmitter::new();
        let mut wave = vec![Complex::ZERO; 37];
        wave.extend(tx.transmit_payload(b"99").unwrap());
        let r = Receiver::usrp().with_sync_search(64).receive(&wave);
        assert_eq!(r.sync.offset, 37);
        assert!(r.packet_ok());
    }

    #[test]
    fn cfo_corrected() {
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(b"31415").unwrap();
        let shifted = ctc_channel::impairments::apply_cfo(&wave, 200.0, 4.0e6, 0.2);
        let r = Receiver::usrp().receive(&shifted);
        assert!(r.packet_ok(), "CFO correction failed");
    }

    #[test]
    fn garbage_does_not_decode() {
        let mut rng = StdRng::seed_from_u64(43);
        let noise: Vec<Complex> = (0..2048)
            .map(|_| ctc_channel::noise::complex_gaussian(&mut rng, 1.0))
            .collect();
        let r = Receiver::usrp().receive(&noise);
        assert!(!r.packet_ok());
    }

    #[test]
    fn dropped_symbols_fail_packet() {
        // Corrupt enough chips of one payload symbol to exceed threshold 10
        // but still decode to some symbol: packet must not count as ok.
        let tx = Transmitter::new();
        let symbols = crate::frame::build_frame_symbols(b"ab").unwrap();
        let mut chips = tx.symbols_to_chips(&symbols);
        // Payload starts after 12 symbols; corrupt symbol 13 heavily.
        let lo = 13 * CHIPS_PER_SYMBOL;
        for c in chips[lo..lo + 14].iter_mut() {
            *c = 1 - *c;
        }
        let wave = crate::modem::modulate_chips(&chips);
        let r = Receiver::usrp().receive(&wave);
        assert!(
            r.hamming_distances[13] > 10 || !r.packet_ok(),
            "corruption not reflected"
        );
    }

    #[test]
    fn fractional_timing_recovers_half_sample_offset() {
        // A half-sample delay is the worst case for a 2-sample/chip
        // receiver: without sub-sample recovery the chip samples land on
        // pulse shoulders and the constellation degrades badly.
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(b"frac").unwrap();
        let delayed = ctc_dsp::fractional::fractional_delay(&wave, 0.5);
        let mut rng = StdRng::seed_from_u64(44);
        let noisy = Link::awgn(10.0).transmit(&delayed, &mut rng);

        let plain = Receiver::usrp().receive(&noisy);
        let frac = Receiver::usrp()
            .with_fractional_timing(true)
            .receive(&noisy);
        assert!(
            frac.packet_ok(),
            "fractional timing should recover the frame"
        );
        assert_eq!(frac.payload(), Some(&b"frac"[..]));
        // Half-sample misalignment costs ~8% chip amplitude (half-sine
        // shoulders) — hard decisions survive, but the matched-filter
        // quality visibly improves with sub-sample recovery.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let plain_score = mean(&plain.soft_scores());
        let frac_score = mean(&frac.soft_scores());
        assert!(
            frac_score > plain_score + 0.01,
            "sub-sample recovery should raise the despreading correlation: \
             {frac_score} vs {plain_score}"
        );
    }

    #[test]
    fn fractional_timing_sweeps_all_offsets() {
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(b"mu").unwrap();
        let rx = Receiver::usrp().with_fractional_timing(true);
        for k in 0..8 {
            let mu = k as f64 / 8.0;
            let delayed = ctc_dsp::fractional::fractional_delay(&wave, mu);
            let r = rx.receive(&delayed);
            assert_eq!(r.payload(), Some(&b"mu"[..]), "failed at mu = {mu}");
        }
    }

    #[test]
    fn symbol_error_count() {
        let r = tx_rx(b"z", &Receiver::usrp());
        let expected = crate::frame::build_frame_symbols(b"z").unwrap();
        assert_eq!(r.symbol_errors(&expected), 0);
        let wrong = crate::frame::build_frame_symbols(b"y").unwrap();
        assert!(r.symbol_errors(&wrong) > 0);
    }
}
