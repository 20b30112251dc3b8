//! Advanced extension experiments: the attack–defense arms race, spectral
//! placement, coexistence under interference, and the full-stack
//! (dual-protocol) attack.

use crate::engine::{column, flag, rate_of, Artifacts, Ctx, Experiment, MonteCarlo, OneShot};
use crate::report::{f2, f4, markdown_table, pct, write_csv};
use crate::trials::mean;
use ctc_channel::interference::Interferer;
use ctc_channel::Link;
use ctc_core::attack::{Emulator, FullFrameAttack, LeastSquaresEmulator};
use ctc_core::defense::{cumulant_features_from_reception, ChannelAssumption, Detector};
use ctc_dsp::psd::{welch_psd, Window};
use ctc_dsp::Complex;
use ctc_wifi::WifiReceiver;
use ctc_zigbee::{Receiver, Transmitter};
use rand::rngs::StdRng;
use std::path::PathBuf;
use std::sync::Arc;

const ARMS_SNRS: [f64; 3] = [9.0, 13.0, 17.0];

/// Roles within one arms-race SNR cell group; one reception per trial.
const ARMS_ROLES: usize = 8;
const ROLE_ZIG_DE: usize = 0;
const ROLE_BASE_DE: usize = 1;
const ROLE_LS_DE: usize = 2;
const ROLE_BASE_OK: usize = 3;
const ROLE_LS_OK: usize = 4;
const ROLE_ZIG_TRAIN: usize = 5;
const ROLE_EMU_TRAIN: usize = 6;
const ROLE_LS_TEST: usize = 7;

/// The least-squares attacker's waveform, memoised once per run.
fn ls_emulated(artifacts: &Artifacts) -> Result<Arc<Vec<Complex>>, ctc_core::Error> {
    artifacts.try_memo("arms_race:ls_emulated", || {
        let original = Transmitter::new().transmit_payload(b"00000")?;
        let ls = LeastSquaresEmulator::new();
        Ok(ls.received_at_zigbee(&ls.emulate(&original)))
    })
}

/// Arms race: the baseline attacker vs the least-squares (CP-aware)
/// attacker, against a defender calibrated on the baseline.
pub fn arms_race(results: PathBuf, per_class: usize) -> Box<dyn Experiment> {
    Box::new(MonteCarlo {
        name: "arms_race",
        // cell = snr_index * ARMS_ROLES + role.
        cells: ARMS_SNRS.len() * ARMS_ROLES,
        per_cell: per_class,
        trial_fn: |ctx: &Ctx<'_>, cell: usize, rng: &mut StdRng| {
            let role = cell % ARMS_ROLES;
            let pair = ctx.artifacts.pair(b"00000")?;
            let ls = ls_emulated(ctx.artifacts)?;
            let wave: &[Complex] = match role {
                ROLE_ZIG_DE | ROLE_ZIG_TRAIN => &pair.original,
                ROLE_BASE_DE | ROLE_BASE_OK | ROLE_EMU_TRAIN => &pair.emulated,
                _ => &ls,
            };
            let link = Link::awgn(ARMS_SNRS[cell / ARMS_ROLES]);
            let r = Receiver::usrp().receive(&link.transmit(wave, rng));
            Ok(match role {
                ROLE_BASE_OK | ROLE_LS_OK => {
                    vec![flag(crate::trials::packet_ok(&r, b"00000"))]
                }
                _ => match cumulant_features_from_reception(&r) {
                    Ok(f) => vec![f.de_squared_ideal()],
                    Err(_) => vec![],
                },
            })
        },
        reduce_fn: move |_artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let mut rows = Vec::new();
            for (i, &snr) in ARMS_SNRS.iter().enumerate() {
                let cell = |role: usize| &grouped[i * ARMS_ROLES + role];
                let de2 = |role: usize| column(cell(role), 0);
                // Defender calibrated on baseline-attack training data.
                let det = Detector::calibrate_from_stats(
                    ChannelAssumption::Ideal,
                    &de2(ROLE_ZIG_TRAIN),
                    &de2(ROLE_EMU_TRAIN),
                );
                let ls_test = de2(ROLE_LS_TEST);
                let ls_caught = ls_test.iter().filter(|&&v| v > det.threshold()).count();
                rows.push(vec![
                    f2(snr),
                    f4(mean(&de2(ROLE_ZIG_DE))),
                    f4(mean(&de2(ROLE_BASE_DE))),
                    f4(mean(&de2(ROLE_LS_DE))),
                    pct(rate_of(cell(ROLE_BASE_OK), 0)),
                    pct(rate_of(cell(ROLE_LS_OK), 0)),
                    f4(det.threshold()),
                    pct(ls_caught as f64 / ls_test.len().max(1) as f64),
                ]);
            }
            let header: Vec<String> = [
                "SNR (dB)",
                "authentic DE²",
                "baseline-attack DE²",
                "LS-attack DE²",
                "baseline success",
                "LS success",
                "calibrated Q",
                "LS attack detected",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            write_csv(&results, "ext_arms_race.csv", &header, &rows)?;
            let mut out = String::new();
            out.push_str(&format!(
                "## Extension — Arms race: CP-aware least-squares attacker ({per_class} frames per cell)\n\n"
            ));
            out.push_str(&markdown_table(&header, &rows));
            out.push_str(
                "\nThe LS attacker fits the kept subcarriers to the whole 80-sample\n\
                 block (CP included), roughly halving its DE² signature while keeping\n\
                 the attack success — yet it stays well above the authentic class, so\n\
                 a defender calibrated only on the *baseline* attack still catches it.\n",
            );
            Ok(out)
        },
    })
}

/// Spectral placement: band-power accounting of the original, emulated and
/// captured waveforms (the quantitative version of the paper's Fig. 3
/// spectrum sketch).
pub fn spectral(results: PathBuf) -> Box<dyn Experiment> {
    Box::new(OneShot {
        name: "spectral",
        render: move |artifacts: &Artifacts| {
            let pair = artifacts.pair(b"00000")?;
            let emulator = Emulator::new()
                .with_spectral_mode(ctc_core::attack::SpectralMode::CarrierAllocated);
            let em = emulator.emulate(&pair.original);

            let psd_orig = welch_psd(&pair.original, 64, Window::Hann).expect("long enough");
            let psd_emul = welch_psd(&em.waveform_20mhz, 64, Window::Hann).expect("long enough");
            let captured = emulator.received_at_zigbee(&em);
            let psd_capt = welch_psd(&captured, 64, Window::Hann).expect("long enough");

            // CSVs with natural frequency ordering.
            for (name, psd, rate_mhz) in [
                ("orig_4mhz", &psd_orig, 4.0),
                ("emulated_20mhz", &psd_emul, 20.0),
                ("captured_4mhz", &psd_capt, 4.0),
            ] {
                let rows: Vec<Vec<String>> = psd
                    .ordered()
                    .iter()
                    .map(|(f, p)| vec![f4(f * rate_mhz), format!("{:.6e}", p)])
                    .collect();
                write_csv(
                    &results,
                    &format!("ext_spectrum_{name}.csv"),
                    &["freq_mhz".into(), "power".into()],
                    &rows,
                )?;
            }

            // The ZigBee band sits at -5 MHz in the attacker's baseband:
            // fraction of emulated power within 1.09 MHz (7 subcarriers) of
            // -5 MHz.
            let zig_band: f64 = psd_emul
                .ordered()
                .iter()
                .filter(|(f, _)| (f * 20.0 + 5.0).abs() <= 1.1)
                .map(|(_, p)| p)
                .sum::<f64>()
                / psd_emul.power.iter().sum::<f64>();

            Ok(format!(
                "## Extension — Spectral placement (carrier-allocated mode)\n\n\
                 CSVs: results/ext_spectrum_*.csv\n\n\
                 Original ZigBee waveform: {} of power within ±1 MHz of its centre.\n\
                 Emulated 20 MHz waveform: {} of power within the ZigBee band at\n\
                 −5 MHz (the data subcarriers [-19, -13]); the rest is the OFDM\n\
                 frame structure outside the victim's 2 MHz filter.\n\
                 Captured at the ZigBee front-end: {} of power in ±1 MHz — the\n\
                 channel filter strips the WiFi scaffolding, leaving the emulation.\n",
                pct(psd_orig.band_power_fraction(0.25)),
                pct(zig_band),
                pct(psd_capt.band_power_fraction(0.25)),
            ))
        },
    })
}

const COEX_SIRS: [f64; 5] = [f64::INFINITY, 20.0, 10.0, 5.0, 0.0];

/// Coexistence: attack success and defense accuracy under a bursty
/// co-channel interferer of growing power.
pub fn coexistence(results: PathBuf, trials: usize) -> Box<dyn Experiment> {
    Box::new(MonteCarlo {
        name: "coexistence",
        cells: COEX_SIRS.len(),
        per_cell: trials,
        trial_fn: |ctx: &Ctx<'_>, cell: usize, rng: &mut StdRng| {
            let pair = ctx.artifacts.pair(b"00000")?;
            let sir_db = COEX_SIRS[cell];
            let power = if sir_db.is_finite() {
                10f64.powf(-sir_db / 10.0)
            } else {
                0.0
            };
            let interferer = Interferer::zigbee_like(0.35, power);
            let link = Link::awgn(14.0);
            let rx = Receiver::usrp();
            let det = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
            let z = interferer.apply(&link.transmit(&pair.original, rng), rng);
            let e = interferer.apply(&link.transmit(&pair.emulated, rng), rng);
            let rz = rx.receive(&z);
            let re = rx.receive(&e);
            Ok(vec![
                flag(det.detect(&rz).map(|v| v.is_attack).unwrap_or(false)),
                flag(det.detect(&re).map(|v| v.is_attack).unwrap_or(false)),
                flag(re.payload() == Some(&b"00000"[..])),
            ])
        },
        reduce_fn: move |_artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let mut rows = Vec::new();
            for (i, &sir_db) in COEX_SIRS.iter().enumerate() {
                rows.push(vec![
                    if sir_db.is_finite() {
                        format!("{sir_db}")
                    } else {
                        "no interferer".into()
                    },
                    pct(rate_of(&grouped[i], 2)),
                    pct(rate_of(&grouped[i], 0)),
                    pct(rate_of(&grouped[i], 1)),
                ]);
            }
            let header: Vec<String> = [
                "SIR (dB)",
                "attack success",
                "authentic false-flagged",
                "attack detected",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            write_csv(&results, "ext_coexistence.csv", &header, &rows)?;
            let mut out = String::new();
            out.push_str(&format!(
                "## Extension — Coexistence with an adjacent-channel interferer ({trials} frames per cell, 14 dB SNR)\n\n"
            ));
            out.push_str(&markdown_table(&header, &rows));
            out.push_str(
                "\nModerate interference leaves both the attack and the defense\n\
                 functional; at 0 dB SIR the interferer starts inflating the\n\
                 authentic constellation's statistics (false flags) before the\n\
                 attack itself fails — the defense degrades gracefully.\n",
            );
            Ok(out)
        },
    })
}

const FULLFRAME_SNRS: [f64; 3] = [9.0, 13.0, 17.0];

/// One-time synthesis + WiFi-side decode of the full-frame attack, shared
/// by every trial.
struct FullFrameSetup {
    at_zigbee: Vec<Complex>,
    header: String,
}

fn fullframe_setup(artifacts: &Artifacts) -> Result<Arc<FullFrameSetup>, ctc_core::Error> {
    artifacts.try_memo("fullframe:setup", || {
        let original = Transmitter::new().transmit_payload(b"00000")?;
        let attack = FullFrameAttack::new();
        let em = attack.emulate(&original);
        let wifi_rx = WifiReceiver::new().receive(&em.wifi_waveform);
        let wifi_ok = wifi_rx.as_ref().map(|r| r.psdu == em.psdu).unwrap_or(false);
        let header = format!(
            "Frame: {} samples at 20 MHz = PLCP + SIGNAL + {} data symbols,\n\
             PSDU {} bytes, constrained-codeword distance {}.\n\
             Stock 802.11g receiver decodes the exact PSDU: {}.\n\n",
            em.wifi_waveform.len(),
            em.data_symbols,
            em.psdu.len(),
            em.codeword_distance,
            wifi_ok,
        );
        Ok(FullFrameSetup {
            at_zigbee: attack.received_at_zigbee(&em),
            header,
        })
    })
}

/// The full-stack attack: one transmission, decoded by a stock WiFi
/// receiver *and* accepted by the ZigBee device.
pub fn fullframe(results: PathBuf, trials: usize) -> Box<dyn Experiment> {
    Box::new(MonteCarlo {
        name: "fullframe",
        cells: FULLFRAME_SNRS.len(),
        per_cell: trials,
        trial_fn: |ctx: &Ctx<'_>, cell: usize, rng: &mut StdRng| {
            let setup = fullframe_setup(ctx.artifacts)?;
            let rx = Receiver::usrp().with_sync_search(160);
            let link = Link::awgn(FULLFRAME_SNRS[cell]);
            let r = rx.receive(&link.transmit(&setup.at_zigbee, rng));
            Ok(vec![flag(crate::trials::packet_ok(&r, b"00000"))])
        },
        reduce_fn: move |artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let setup = fullframe_setup(artifacts)?;
            let mut rows = Vec::new();
            for (i, &snr) in FULLFRAME_SNRS.iter().enumerate() {
                rows.push(vec![f2(snr), pct(rate_of(&grouped[i], 0))]);
            }
            let header: Vec<String> = ["SNR (dB)", "ZigBee control success"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            write_csv(&results, "ext_fullframe.csv", &header, &rows)?;
            let mut out = String::new();
            out.push_str(&format!(
                "## Extension — Full-stack attack ({trials} frames per SNR)\n\n"
            ));
            out.push_str(&setup.header);
            out.push_str(&markdown_table(&header, &rows));
            out.push_str(
                "\nOne RF transmission is simultaneously a standards-complete WiFi\n\
                 frame (SERVICE/tail constraints satisfied via constrained Viterbi)\n\
                 and a ZigBee control frame — the strongest form of the paper's\n\
                 attack, invisible to WiFi-side anomaly detection too.\n",
            );
            Ok(out)
        },
    })
}

/// Time-frequency anatomy of the full-frame attack: per-OFDM-symbol power
/// in the ZigBee band (−5 MHz ± 1.1 MHz) vs total — the spectrogram view
/// that separates the WiFi scaffolding (preamble, SIGNAL) from the
/// embedded emulation.
pub fn timefreq(results: PathBuf) -> Box<dyn Experiment> {
    Box::new(OneShot {
        name: "timefreq",
        render: move |artifacts: &Artifacts| {
            use ctc_dsp::spectrogram::spectrogram;
            let pair = artifacts.pair(b"00000")?;
            let attack = FullFrameAttack::new();
            let em = attack.emulate(&pair.original);
            let s =
                spectrogram(&em.wifi_waveform, 64, 80, Window::Hann).expect("frame long enough");
            // ZigBee band at -5 MHz of 20 MHz = -0.25 cycles/sample; 7
            // subcarriers ~ +-1.1 MHz = 0.055.
            let mut rows = Vec::new();
            for (t, _) in s.frames.iter().enumerate() {
                let total: f64 = s.frames[t].iter().sum();
                let band = s.band_power(t, -0.25, 0.055);
                rows.push(vec![
                    format!("{t}"),
                    format!("{:.6e}", total),
                    format!("{:.6e}", band),
                    f4(if total > 0.0 { band / total } else { 0.0 }),
                ]);
            }
            let header: Vec<String> = [
                "ofdm_symbol",
                "total_power",
                "zigbee_band_power",
                "band_fraction",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            write_csv(&results, "ext_timefreq_fullframe.csv", &header, &rows)?;
            // Summaries: preamble frames (0..5) vs data frames (6..).
            let frac = |lo: usize, hi: usize| -> f64 {
                let mut band = 0.0;
                let mut total = 0.0;
                for t in lo..hi.min(s.len()) {
                    band += s.band_power(t, -0.25, 0.055);
                    total += s.frames[t].iter().sum::<f64>();
                }
                if total > 0.0 {
                    band / total
                } else {
                    0.0
                }
            };
            Ok(format!(
                "## Extension — Time-frequency anatomy of the full-frame attack\n\n\
                 CSV: results/ext_timefreq_fullframe.csv ({} OFDM-symbol frames)\n\n\
                 ZigBee-band power fraction in the PLCP preamble + SIGNAL (symbols\n\
                 0-5): {} — wideband training structure.\n\
                 ZigBee-band power fraction in the data field (symbols 6+): {} —\n\
                 the emulation dominates exactly where the victim's filter listens.\n",
                s.len(),
                pct(frac(0, 6)),
                pct(frac(6, s.len())),
            ))
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tables::{run_test, test_dir};

    fn dir() -> PathBuf {
        test_dir("ctc_advanced_test")
    }

    #[test]
    fn arms_race_renders() {
        assert!(run_test(arms_race(dir(), 3)).contains("LS attack detected"));
    }

    #[test]
    fn spectral_renders() {
        let out = run_test(spectral(dir()));
        assert!(out.contains("ZigBee band"));
    }

    #[test]
    fn fullframe_renders() {
        let out = run_test(fullframe(dir(), 3));
        assert!(out.contains("decodes the exact PSDU: true"));
    }
}
