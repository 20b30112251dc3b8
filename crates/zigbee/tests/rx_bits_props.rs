//! Bit-identity suite for [`Receiver::receive`].
//!
//! The receiver reads each capture once after its timing search: one lane
//! kernel scores every search offset, one pass de-rotates and samples the
//! chip instants, and despreading packs hard chips into a `u32`. The
//! oracle below is the straightforward form that pass replaced: whole-slice
//! rotation copies, per-offset `cdot_conj`/`sum_norm_sqr`, three
//! `demodulate_chips` passes, and per-row despreading. Every [`Reception`]
//! field must match it bit for bit, and so must the soft scores
//! [`Reception::soft_scores`] despreads on demand against the scores the
//! oracle keeps while despreading, for every receiver configuration and on
//! captures built to hit the edges: frame offsets across the search window,
//! amplitudes from 1e-3 to 10, CFO and phase, truncation at any length
//! (including below the 128-sample sync template), lengths around the
//! 1,024-sample phasor re-seed, one NaN/±Inf/1e300 sample, and all-zero
//! captures. "Bit for bit" counts every NaN as one value: a NaN's sign and
//! payload are not part of any operation's contract.

use ctc_dsp::{simd, Complex};
use ctc_zigbee::chipmap::{chip_table, spread, CHIPS_PER_SYMBOL};
use ctc_zigbee::frame::parse_frame_symbols;
use ctc_zigbee::modem::{demodulate_chips, modulate_chips, ChipSamples, SAMPLES_PER_CHIP};
use ctc_zigbee::rx::SyncResult;
use ctc_zigbee::{Decision, Receiver, Reception, Transmitter};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One receiver configuration, kept beside the [`Receiver`] it builds so
/// the oracle can read what the receiver keeps private.
#[derive(Debug, Clone, Copy)]
struct Config {
    decision: Decision,
    sync_search: usize,
    fractional_timing: bool,
    correct_cfo: bool,
    correct_phase: bool,
}

impl Config {
    fn receiver(&self) -> Receiver {
        Receiver::new()
            .with_decision(self.decision)
            .with_sync_search(self.sync_search)
            .with_fractional_timing(self.fractional_timing)
            .with_cfo_correction(self.correct_cfo)
            .with_phase_correction(self.correct_phase)
    }
}

const USRP: Decision = Decision::Hard { threshold: 10 };
const COMMODITY: Decision = Decision::Soft { min_score: 0.25 };

/// Every configuration the suite covers: both decisions, sync search 0,
/// 96 and 300, fractional timing, CFO and phase correction each on/off.
fn configs(fractional: &[bool]) -> Vec<Config> {
    let mut out = Vec::new();
    for decision in [USRP, COMMODITY] {
        for sync_search in [0, 96, 300] {
            for &fractional_timing in fractional {
                for correct_cfo in [true, false] {
                    for correct_phase in [true, false] {
                        out.push(Config {
                            decision,
                            sync_search,
                            fractional_timing,
                            correct_cfo,
                            correct_phase,
                        });
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// The oracle: the receiver as it ran before the one-pass rewrite.
// ---------------------------------------------------------------------

fn preamble_template() -> Vec<Complex> {
    modulate_chips(&spread(0))
}

fn sync_template() -> Vec<Complex> {
    let one = preamble_template();
    let sym_len = CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP;
    let mut template = Vec::with_capacity(sym_len * 2);
    template.extend_from_slice(&one[..sym_len]);
    template.extend_from_slice(&one[..sym_len]);
    template
}

fn oracle_synchronize(cfg: &Config, wave: &[Complex]) -> SyncResult {
    let template = sync_template();
    let sym_len = CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP;
    if wave.len() < template.len() {
        return SyncResult {
            offset: 0,
            phase: 0.0,
            cfo_per_sample: 0.0,
            peak_correlation: 0.0,
        };
    }
    let t_energy = simd::sum_norm_sqr(&template);
    let search = cfg
        .sync_search
        .min(wave.len().saturating_sub(template.len()));
    let mut best_off = 0usize;
    let mut best_corr = Complex::ZERO;
    let mut best_score = f64::NEG_INFINITY;
    for off in 0..=search {
        let seg = &wave[off..off + template.len()];
        let corr = simd::cdot_conj(seg, &template);
        let r_energy = simd::sum_norm_sqr(seg);
        let score = if r_energy > 0.0 {
            corr.norm_sqr() / (r_energy * t_energy)
        } else {
            0.0
        };
        if score > best_score {
            best_score = score;
            best_off = off;
            best_corr = corr;
        }
    }
    let mut cfo = 0.0;
    if cfg.correct_cfo {
        let span = (6 * sym_len).min(wave.len().saturating_sub(best_off));
        if span > sym_len + 32 {
            let seg = &wave[best_off..best_off + span];
            let acc = simd::cdot_conj(&seg[sym_len..], &seg[..span - sym_len]);
            if acc.norm() > 0.0 {
                cfo = acc.arg() / sym_len as f64;
            }
        }
    }
    let phase = if cfg.correct_phase {
        let seg_end = (best_off + template.len()).min(wave.len());
        let corr = simd::cdot_conj_rotated(&wave[best_off..seg_end], &template, -cfo);
        if corr.norm() > 0.0 {
            corr.arg()
        } else {
            best_corr.arg()
        }
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

fn oracle_despread_hard(chips: &[u8; CHIPS_PER_SYMBOL]) -> (u8, u32) {
    let mut best_sym = 0u8;
    let mut best_d = u32::MAX;
    for (s, row) in chip_table().iter().enumerate() {
        let d: u32 = chips.iter().zip(row).map(|(x, y)| u32::from(x != y)).sum();
        if d < best_d {
            best_d = d;
            best_sym = s as u8;
        }
    }
    (best_sym, best_d)
}

fn oracle_despread_soft(soft_chips: &[f64]) -> (u8, f64) {
    let energy = simd::dot_f64(soft_chips, soft_chips);
    let norm = (energy * CHIPS_PER_SYMBOL as f64).sqrt();
    let mut best_sym = 0u8;
    let mut best_score = f64::NEG_INFINITY;
    for (s, row) in chip_table().iter().enumerate() {
        let bipolar: Vec<f64> = row
            .iter()
            .map(|&c| if c == 1 { 1.0 } else { -1.0 })
            .collect();
        let acc = simd::dot_f64(soft_chips, &bipolar);
        if acc > best_score {
            best_score = acc;
            best_sym = s as u8;
        }
    }
    let score = if norm > 0.0 { best_score / norm } else { 0.0 };
    (best_sym, score)
}

/// The oracle's reception and the soft score it computed per symbol.
fn oracle_receive(cfg: &Config, wave: &[Complex]) -> (Reception, Vec<f64>) {
    let sync = oracle_synchronize(cfg, wave);
    let aligned_slice = &wave[sync.offset.min(wave.len())..];
    let fractional = if cfg.fractional_timing && !aligned_slice.is_empty() {
        let one = preamble_template();
        let sym_len = CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP;
        let template = &one[..sym_len.min(one.len())];
        let mut best_mu = 0.0f64;
        let mut best = f64::NEG_INFINITY;
        for k in 0..8 {
            let mu = k as f64 / 8.0;
            let candidate = if mu == 0.0 {
                aligned_slice.to_vec()
            } else {
                ctc_dsp::fractional::fractional_advance(aligned_slice, mu)
            };
            if candidate.len() < template.len() {
                break;
            }
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

    let mut cfo_corrected = aligned.to_vec();
    if cfg.correct_cfo {
        simd::rotate_in_place(&mut cfo_corrected, -sync.cfo_per_sample);
    }
    let mut corrected = cfo_corrected;
    if cfg.correct_phase {
        ctc_dsp::filter::phase_rotate_in_place(&mut corrected, -sync.phase);
    }

    let num_chips = (aligned.len() / SAMPLES_PER_CHIP) & !1usize;
    let raw_chip_samples = demodulate_chips(aligned, num_chips);
    let chip_samples = demodulate_chips(&corrected, num_chips);

    let soft = chip_samples.interleaved();
    let hard = chip_samples.hard_chips();
    let mut symbols = Vec::new();
    let mut hamming_distances = Vec::new();
    let mut soft_scores = Vec::new();
    let mut dropped = Vec::new();
    for group in 0..(hard.len() / CHIPS_PER_SYMBOL) {
        let lo = group * CHIPS_PER_SYMBOL;
        let hi = lo + CHIPS_PER_SYMBOL;
        let mut chips = [0u8; CHIPS_PER_SYMBOL];
        chips.copy_from_slice(&hard[lo..hi]);
        let (hard_sym, dist) = oracle_despread_hard(&chips);
        let (soft_sym, score) = oracle_despread_soft(&soft[lo..hi]);
        match cfg.decision {
            Decision::Hard { threshold } => {
                symbols.push(hard_sym);
                dropped.push(dist > threshold);
            }
            Decision::Soft { min_score } => {
                symbols.push(soft_sym);
                dropped.push(score < min_score);
            }
        }
        hamming_distances.push(dist);
        soft_scores.push(score);
    }
    let frame = parse_frame_symbols(&symbols);
    let reception = Reception {
        symbols,
        hamming_distances,
        dropped,
        raw_chip_samples,
        chip_samples,
        frame,
        sync,
    };
    (reception, soft_scores)
}

// ---------------------------------------------------------------------
// Bitwise comparison.
// ---------------------------------------------------------------------

/// An `f64`'s bits with every NaN as one value.
fn canon(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

fn reals_bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|&f| canon(f)).collect()
}

fn complex_bits(x: &[Complex]) -> Vec<(u64, u64)> {
    x.iter().map(|v| (canon(v.re), canon(v.im))).collect()
}

fn chips_equal(label: &str, got: &ChipSamples, want: &ChipSamples) -> Result<(), String> {
    if reals_bits(&got.i_samples) != reals_bits(&want.i_samples) {
        return Err(format!("{label}.i_samples differ"));
    }
    if reals_bits(&got.q_samples) != reals_bits(&want.q_samples) {
        return Err(format!("{label}.q_samples differ"));
    }
    if complex_bits(&got.midpoints) != complex_bits(&want.midpoints) {
        return Err(format!("{label}.midpoints differ"));
    }
    Ok(())
}

/// Every [`Reception`] field and the soft scores, bit for bit; names the
/// first that differs.
fn receptions_equal(
    got: &Reception,
    want: &Reception,
    want_soft_scores: &[f64],
) -> Result<(), String> {
    let (gs, ws) = (&got.sync, &want.sync);
    if gs.offset != ws.offset {
        return Err(format!("sync.offset {} vs {}", gs.offset, ws.offset));
    }
    for (name, g, w) in [
        ("sync.phase", gs.phase, ws.phase),
        ("sync.cfo_per_sample", gs.cfo_per_sample, ws.cfo_per_sample),
        (
            "sync.peak_correlation",
            gs.peak_correlation,
            ws.peak_correlation,
        ),
    ] {
        if canon(g) != canon(w) {
            return Err(format!("{name} {g:e} vs {w:e}"));
        }
    }
    if got.symbols != want.symbols {
        return Err("symbols differ".into());
    }
    if got.hamming_distances != want.hamming_distances {
        return Err("hamming_distances differ".into());
    }
    if reals_bits(&got.soft_scores()) != reals_bits(want_soft_scores) {
        return Err("soft_scores differ".into());
    }
    if got.dropped != want.dropped {
        return Err("dropped differs".into());
    }
    chips_equal(
        "raw_chip_samples",
        &got.raw_chip_samples,
        &want.raw_chip_samples,
    )?;
    chips_equal("chip_samples", &got.chip_samples, &want.chip_samples)?;
    if got.frame != want.frame {
        return Err(format!("frame {:?} vs {:?}", got.frame, want.frame));
    }
    Ok(())
}

fn check(cfg: &Config, wave: &[Complex], what: &str) -> Result<(), String> {
    let got = cfg.receiver().receive(wave);
    let (want, want_soft_scores) = oracle_receive(cfg, wave);
    receptions_equal(&got, &want, &want_soft_scores)
        .map_err(|e| format!("{what} (len {}) {cfg:?}: {e}", wave.len()))
}

// ---------------------------------------------------------------------
// Captures.
// ---------------------------------------------------------------------

/// How a capture is built: a frame after `offset` samples of lead-in,
/// scaled, rotated by CFO and phase, with optional noise, optionally cut,
/// and optionally carrying one special sample.
#[derive(Debug, Clone, Copy)]
struct Capture {
    seed: u64,
    payload_len: usize,
    offset: usize,
    amplitude: f64,
    cfo: f64,
    phase: f64,
    noise: f64,
    cut: Option<usize>,
    special: Option<(f64, usize, bool)>,
}

impl Capture {
    fn build(&self) -> Vec<Complex> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let payload: Vec<u8> = (0..self.payload_len).map(|_| rng.gen()).collect();
        let frame = Transmitter::new()
            .transmit_payload(&payload)
            .expect("payload fits a frame");
        let mut wave = vec![Complex::ZERO; self.offset];
        wave.extend(frame.iter().map(|&v| v * self.amplitude));
        wave.extend(std::iter::repeat_n(Complex::ZERO, 40));
        for (n, v) in wave.iter_mut().enumerate() {
            *v *= Complex::cis(self.phase + self.cfo * n as f64);
            if self.noise > 0.0 {
                *v += ctc_channel::noise::complex_gaussian(&mut rng, self.noise);
            }
        }
        if let Some(cut) = self.cut {
            wave.truncate(cut);
        }
        if let Some((value, at, imag)) = self.special {
            if !wave.is_empty() {
                let at = at % wave.len();
                if imag {
                    wave[at].im = value;
                } else {
                    wave[at].re = value;
                }
            }
        }
        wave
    }
}

const SPECIALS: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];

fn capture_from(seed: u64, sel: u64) -> Capture {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let amplitude = 10f64.powf(rng.gen_range(-3.0..1.0));
    let noise_db: f64 = rng.gen_range(-10.0..30.0);
    let noise = if sel.is_multiple_of(5) {
        0.0
    } else {
        amplitude * amplitude * 10f64.powf(-noise_db / 10.0)
    };
    let payload_len = rng.gen_range(0..24);
    let offset = rng.gen_range(0..=120);
    // Frame length in samples: (6 header + 2 FCS + payload) bytes, two
    // symbols per byte, 64 samples per symbol, plus the O-QPSK tail.
    let full = offset + (2 * (payload_len + 8)) * 64 + 2 + 40;
    let cut = match (sel / 5) % 4 {
        0 => None,
        1 => Some(rng.gen_range(0..=full)),
        2 => Some(rng.gen_range(0..160)),
        // Aligned lengths around the 1,024-sample re-seed.
        _ => Some(offset + 1024 - 12 + rng.gen_range(0usize..24)),
    };
    let special = match (sel / 20) % 3 {
        0 => None,
        _ => Some((
            SPECIALS[rng.gen_range(0..SPECIALS.len())],
            rng.gen_range(0..full),
            rng.gen(),
        )),
    };
    Capture {
        seed,
        payload_len,
        offset,
        amplitude,
        cfo: rng.gen_range(-0.01..0.01),
        phase: rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        noise,
        cut,
        special,
    }
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

#[test]
fn clean_frames_match_in_every_configuration() {
    let frame = Transmitter::new().transmit_payload(b"one pass").unwrap();
    for offset in [0usize, 1, 7, 37, 96, 97, 120] {
        let mut wave = vec![Complex::ZERO; offset];
        wave.extend_from_slice(&frame);
        for cfg in configs(&[false, true]) {
            check(&cfg, &wave, &format!("clean offset {offset}")).unwrap();
        }
    }
}

#[test]
fn short_and_empty_captures_match() {
    let frame = Transmitter::new().transmit_payload(b"x").unwrap();
    for len in (0..140).chain([255, 256, 257, 258, 259, 260]) {
        let wave = &frame[..len.min(frame.len())];
        for cfg in configs(&[false, true]) {
            check(&cfg, wave, "short").unwrap();
        }
    }
}

#[test]
fn all_zero_captures_match() {
    for len in [0usize, 1, 127, 128, 129, 400, 1027, 1029, 2500] {
        let wave = vec![Complex::ZERO; len];
        for cfg in configs(&[false, true]) {
            check(&cfg, &wave, "all zero").unwrap();
        }
    }
}

#[test]
fn lengths_around_the_phasor_reseed_match() {
    let frame = Transmitter::new()
        .transmit_payload(b"a longer payload for 1k")
        .unwrap();
    let rotated: Vec<Complex> = frame
        .iter()
        .enumerate()
        .map(|(n, &v)| v * Complex::cis(0.4 + 0.003 * n as f64))
        .collect();
    let configs = configs(&[false]);
    for offset in [0usize, 5, 96] {
        let mut wave = vec![Complex::ZERO; offset];
        wave.extend_from_slice(&rotated);
        for aligned in 1012..1040 {
            let cut = &wave[..(offset + aligned).min(wave.len())];
            // Every other configuration per length; both halves over the sweep.
            for cfg in configs.iter().skip(aligned % 2).step_by(2) {
                check(cfg, cut, &format!("re-seed offset {offset}")).unwrap();
            }
        }
    }
}

#[test]
fn one_special_sample_matches_everywhere_it_lands() {
    let frame = Transmitter::new().transmit_payload(b"nan").unwrap();
    let mut base = vec![Complex::ZERO; 30];
    base.extend(frame.iter().map(|&v| v * Complex::cis(1.1)));
    let configs = configs(&[false]);
    // The search window, the preamble, both sides of a chip instant in
    // the payload, and the last sample.
    let spots = [
        0, 29, 30, 31, 32, 33, 34, 100, 157, 158, 159, 160, 161, 401, 402, 403, 404,
    ];
    let mut case = 0;
    for value in SPECIALS {
        for at in spots.into_iter().chain([base.len() - 1]) {
            for imag in [false, true] {
                let mut wave = base.clone();
                if imag {
                    wave[at].im = value;
                } else {
                    wave[at].re = value;
                }
                // A quarter of the configurations per case, rotating.
                case += 1;
                for cfg in configs.iter().skip(case % 4).step_by(4) {
                    check(cfg, &wave, &format!("{value:e} at {at} imag {imag}")).unwrap();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_captures_match_in_every_configuration(seed in 0u64..1_000_000, sel in 0u64..60) {
        let capture = capture_from(seed, sel);
        let wave = capture.build();
        for cfg in configs(&[false]) {
            if let Err(e) = check(&cfg, &wave, &format!("{capture:?}")) {
                prop_assert!(false, "{}", e);
            }
        }
        // Fractional timing runs eight interpolations of the slice; one
        // random configuration per case keeps the suite quick.
        let all = configs(&[true]);
        let cfg = all[(seed as usize) % all.len()];
        if let Err(e) = check(&cfg, &wave, &format!("{capture:?}")) {
            prop_assert!(false, "{}", e);
        }
    }
}
