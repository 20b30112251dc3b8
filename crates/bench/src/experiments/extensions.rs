//! Experiments beyond the paper: detector ROC, attack ablations, the
//! full-bit-chain attack mode and CFO robustness of the |C40| detector.

use crate::engine::{column, flag, rate_of, Artifacts, Ctx, Experiment, MonteCarlo};
use crate::report::{f2, f4, markdown_table, pct, write_csv};
use crate::trials::mean;
use ctc_channel::Link;
use ctc_core::attack::{Emulator, SpectralMode, SynthesisMode};
use ctc_core::defense::{cumulant_features_from_reception, ChannelAssumption, Detector, Roc};
use ctc_dsp::metrics::{correlation, normalize_power};
use ctc_zigbee::Receiver;
use rand::rngs::StdRng;
use std::path::PathBuf;

/// ROC of the detector: sweep the threshold Q and report false-positive /
/// true-positive rates at a given SNR.
pub fn roc(results: PathBuf, snr_db: f64, per_class: usize) -> Box<dyn Experiment> {
    Box::new(MonteCarlo {
        name: "roc",
        // cell = class (0 = ZigBee, 1 = emulated).
        cells: 2,
        per_cell: per_class,
        trial_fn: move |ctx: &Ctx<'_>, cell: usize, rng: &mut StdRng| {
            let pair = ctx.artifacts.pair(b"00000")?;
            let wave = if cell == 0 {
                &pair.original
            } else {
                &pair.emulated
            };
            let r = Receiver::usrp().receive(&Link::awgn(snr_db).transmit(wave, rng));
            Ok(match cumulant_features_from_reception(&r) {
                Ok(f) => vec![f.de_squared_ideal()],
                Err(_) => vec![],
            })
        },
        reduce_fn: move |_artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let roc = Roc::from_scores(&column(&grouped[0], 0), &column(&grouped[1], 0));
            let rows: Vec<Vec<String>> = roc
                .points
                .iter()
                .map(|p| vec![f4(p.threshold), f4(p.fpr), f4(p.tpr)])
                .collect();
            write_csv(
                &results,
                "ext_roc.csv",
                &["threshold".into(), "fpr".into(), "tpr".into()],
                &rows,
            )?;
            let per_class = grouped[0].len();
            Ok(format!(
                "## Extension — Detector ROC at {snr_db} dB ({per_class} frames per class)\n\n\
                 CSV: results/ext_roc.csv\n\
                 AUC ≈ {} (1.0 = perfect separation; the paper's gap implies ≈ 1.0).\n",
                f4(roc.auc)
            ))
        },
    })
}

const ABLATION_KEPT: [usize; 5] = [3, 5, 7, 9, 11];

/// Ablation: emulation fidelity and attack success vs number of kept
/// subcarriers (the paper fixes 7 ≈ 2 MHz).
pub fn ablation_subcarriers(results: PathBuf, trials: usize) -> Box<dyn Experiment> {
    Box::new(MonteCarlo {
        name: "ablation_subcarriers",
        cells: ABLATION_KEPT.len(),
        per_cell: trials,
        trial_fn: |ctx: &Ctx<'_>, cell: usize, rng: &mut StdRng| {
            let kept = ABLATION_KEPT[cell];
            let emulator = Emulator::new().with_kept_subcarriers(kept);
            let pair = ctx
                .artifacts
                .pair_with(b"00000", &format!("kept={kept}"), &emulator)?;
            let r = Receiver::usrp().receive(&Link::awgn(2.0).transmit(&pair.emulated, rng));
            Ok(vec![flag(crate::trials::packet_ok(&r, b"00000"))])
        },
        reduce_fn: move |artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let mut rows = Vec::new();
            for (cell, &kept) in ABLATION_KEPT.iter().enumerate() {
                let emulator = Emulator::new().with_kept_subcarriers(kept);
                let pair = artifacts.pair_with(b"00000", &format!("kept={kept}"), &emulator)?;
                let n = pair.original.len().min(pair.emulated.len());
                let a = normalize_power(&pair.original[..n]);
                let b = normalize_power(&pair.emulated[..n]);
                let corr = correlation(&a[64..n - 64], &b[64..n - 64]);
                rows.push(vec![
                    format!("{kept}"),
                    f4(corr),
                    f4(pair.emulation.quantization_error),
                    pct(rate_of(&grouped[cell], 0)),
                ]);
            }
            let header: Vec<String> = [
                "kept subcarriers",
                "waveform correlation",
                "quantization error",
                "success @ 2 dB",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            write_csv(&results, "ext_ablation_subcarriers.csv", &header, &rows)?;
            let mut out = String::new();
            out.push_str(&format!(
                "## Extension — Kept-subcarrier ablation ({trials} packets per row, success measured at 2 dB where the receiver margin is thin)\n\n"
            ));
            out.push_str(&markdown_table(&header, &rows));
            out.push_str(
                "\n7 subcarriers (the paper's choice, ≈ the ZigBee bandwidth) is the\n\
                 knee: fewer loses in-band energy, more buys little because the\n\
                 receiver filters it away.\n",
            );
            Ok(out)
        },
    })
}

const ALPHA_CONFIGS: [&str; 5] = [
    "optimized",
    "sqrt(26) (paper)",
    "1.0",
    "2x optimal",
    "0.5x optimal",
];

/// The emulator for one alpha-ablation config; "2x/0.5x optimal" derive
/// from the default pair's optimized alpha.
fn alpha_emulator(artifacts: &Artifacts, cell: usize) -> Result<Emulator, ctc_core::Error> {
    let alpha = match cell {
        0 => None,
        1 => Some(26f64.sqrt()),
        2 => Some(1.0),
        3 => Some(artifacts.pair(b"00000")?.emulation.alpha * 2.0),
        _ => Some(artifacts.pair(b"00000")?.emulation.alpha * 0.5),
    };
    Ok(Emulator::new().with_fixed_alpha(alpha))
}

/// Ablation: the optimized alpha of eq. (4) vs fixed scalers (including the
/// paper's alpha = sqrt(26)).
pub fn ablation_alpha(results: PathBuf, trials: usize) -> Box<dyn Experiment> {
    Box::new(MonteCarlo {
        name: "ablation_alpha",
        cells: ALPHA_CONFIGS.len(),
        per_cell: trials,
        trial_fn: |ctx: &Ctx<'_>, cell: usize, rng: &mut StdRng| {
            let emulator = alpha_emulator(ctx.artifacts, cell)?;
            let pair = ctx
                .artifacts
                .pair_with(b"00000", &format!("alpha={cell}"), &emulator)?;
            let r = Receiver::usrp().receive(&Link::awgn(2.0).transmit(&pair.emulated, rng));
            Ok(vec![flag(crate::trials::packet_ok(&r, b"00000"))])
        },
        reduce_fn: move |artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let mut rows = Vec::new();
            for (cell, name) in ALPHA_CONFIGS.iter().enumerate() {
                let emulator = alpha_emulator(artifacts, cell)?;
                let pair = artifacts.pair_with(b"00000", &format!("alpha={cell}"), &emulator)?;
                rows.push(vec![
                    name.to_string(),
                    f4(pair.emulation.alpha),
                    f4(pair.emulation.quantization_error),
                    pct(rate_of(&grouped[cell], 0)),
                ]);
            }
            let header: Vec<String> = ["scaler", "alpha", "quantization error", "success @ 2 dB"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            write_csv(&results, "ext_ablation_alpha.csv", &header, &rows)?;
            let mut out = String::new();
            out.push_str(&format!(
                "## Extension — QAM scaler ablation ({trials} packets per row)\n\n"
            ));
            out.push_str(&markdown_table(&header, &rows));
            out.push_str("\nThe global search of eq. (4) minimizes quantization error; bad fixed\nscalers cost attack success rate.\n");
            Ok(out)
        },
    })
}

const BITCHAIN_SNRS: [f64; 3] = [3.0, 6.0, 9.0];
const BITCHAIN_MODES: [&str; 2] = ["raw spectrum", "bit chain"];

fn bitchain_emulator(mode: usize) -> Emulator {
    let raw = Emulator::new().with_spectral_mode(SpectralMode::CarrierAllocated);
    if mode == 0 {
        raw
    } else {
        raw.with_synthesis_mode(SynthesisMode::BitChain)
    }
}

/// The full-bit-chain attack: the attacker inverts interleaving/scrambling
/// and finds the nearest convolutional codeword, so the emulated frame is a
/// *valid* 802.11g transmission. Reports the extra distortion this costs.
pub fn bitchain(results: PathBuf, trials: usize) -> Box<dyn Experiment> {
    Box::new(MonteCarlo {
        name: "bitchain",
        // cell = mode * SNRS + snr_index.
        cells: BITCHAIN_MODES.len() * BITCHAIN_SNRS.len(),
        per_cell: trials,
        trial_fn: |ctx: &Ctx<'_>, cell: usize, rng: &mut StdRng| {
            let mode = cell / BITCHAIN_SNRS.len();
            let emulator = bitchain_emulator(mode);
            let pair = ctx
                .artifacts
                .pair_with(b"00000", &format!("bitchain={mode}"), &emulator)?;
            let snr = BITCHAIN_SNRS[cell % BITCHAIN_SNRS.len()];
            let r = Receiver::usrp().receive(&Link::awgn(snr).transmit(&pair.emulated, rng));
            Ok(vec![flag(crate::trials::packet_ok(&r, b"00000"))])
        },
        reduce_fn: move |artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let mut rows = Vec::new();
            let mut csv_rows = Vec::new();
            for (mode, name) in BITCHAIN_MODES.iter().enumerate() {
                let emulator = bitchain_emulator(mode);
                let pair = artifacts.pair_with(b"00000", &format!("bitchain={mode}"), &emulator)?;
                for (si, &snr) in BITCHAIN_SNRS.iter().enumerate() {
                    let rate = rate_of(&grouped[mode * BITCHAIN_SNRS.len() + si], 0);
                    rows.push(vec![
                        name.to_string(),
                        f2(snr),
                        format!("{:?}", pair.emulation.codeword_distance),
                        pct(rate),
                    ]);
                    csv_rows.push(vec![
                        name.to_string(),
                        f2(snr),
                        format!("{}", pair.emulation.codeword_distance.unwrap_or(0)),
                        f4(rate),
                    ]);
                }
            }
            let header: Vec<String> =
                ["synthesis", "SNR (dB)", "codeword distance", "success rate"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
            write_csv(&results, "ext_bitchain.csv", &header, &csv_rows)?;
            let mut out = String::new();
            out.push_str(&format!(
                "## Extension — Full-bit-chain attack ({trials} packets per cell, carrier-allocated mode)\n\n"
            ));
            out.push_str(&markdown_table(&header, &rows));
            out.push_str(
                "\nThe paper calls the preprocessing \"invertible\"; in truth arbitrary\n\
                 QAM sequences are not codewords of the rate-3/4 BCC, so a standard-\n\
                 compliant attacker pays a nonzero codeword distance. The success-rate\n\
                 drop quantifies that cost.\n",
            );
            Ok(out)
        },
    })
}

const CFO_VALUES: [f64; 6] = [0.0, 50.0, 100.0, 200.0, 400.0, 800.0];

/// CFO robustness of the two detector variants: sweep residual CFO and
/// report false-positive rates of the Ideal vs Real (|C40|) detectors on
/// authentic waveforms.
pub fn cfo_robustness(results: PathBuf, trials: usize) -> Box<dyn Experiment> {
    Box::new(MonteCarlo {
        name: "cfo_robustness",
        cells: CFO_VALUES.len(),
        per_cell: trials,
        trial_fn: |ctx: &Ctx<'_>, cell: usize, rng: &mut StdRng| {
            let pair = ctx.artifacts.pair(b"00000")?;
            let cfo_hz = CFO_VALUES[cell];
            let link = Link::awgn(17.0)
                .with_max_cfo_hz(cfo_hz)
                .with_random_phase(cfo_hz > 0.0);
            let r = Receiver::usrp().receive(&link.transmit(&pair.original, rng));
            // Thresholds calibrated at zero offset (see fig. 12 discussion).
            let ideal = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
            let real = Detector::new(ChannelAssumption::Real).with_threshold(0.25);
            Ok(vec![
                flag(ideal.detect(&r).map(|v| v.is_attack).unwrap_or(false)),
                flag(real.detect(&r).map(|v| v.is_attack).unwrap_or(false)),
            ])
        },
        reduce_fn: move |_artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let mut rows = Vec::new();
            for (i, &cfo_hz) in CFO_VALUES.iter().enumerate() {
                rows.push(vec![
                    f2(cfo_hz),
                    pct(rate_of(&grouped[i], 0)),
                    pct(rate_of(&grouped[i], 1)),
                ]);
            }
            let header: Vec<String> = [
                "max CFO (Hz)",
                "Ideal detector false positives",
                "|C40| detector false positives",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            write_csv(&results, "ext_cfo_robustness.csv", &header, &rows)?;
            let mut out = String::new();
            out.push_str(&format!(
                "## Extension — CFO robustness of the detector variants ({trials} authentic frames per row)\n\n"
            ));
            out.push_str(&markdown_table(&header, &rows));
            out.push_str(
                "\nWith random phase + CFO the Ideal variant (Re Ĉ40) starts flagging\n\
                 authentic waveforms; the |C40| variant of Sec. VI-C stays clean —\n\
                 the quantitative version of the paper's real-scenario argument.\n",
            );
            Ok(out)
        },
    })
}

const GAP_SNRS: [f64; 7] = [5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0];

/// Mean DE² of both classes vs SNR using the detector's statistic — the
/// summary the README quotes.
pub fn gap_summary(results: PathBuf, per_class: usize) -> Box<dyn Experiment> {
    Box::new(MonteCarlo {
        name: "gap_summary",
        // cell = snr_index * 2 + class (0 = ZigBee, 1 = emulated).
        cells: GAP_SNRS.len() * 2,
        per_cell: per_class,
        trial_fn: |ctx: &Ctx<'_>, cell: usize, rng: &mut StdRng| {
            let pair = ctx.artifacts.pair(b"00000")?;
            let wave = if cell.is_multiple_of(2) {
                &pair.original
            } else {
                &pair.emulated
            };
            let link = Link::awgn(GAP_SNRS[cell / 2]);
            let r = Receiver::usrp().receive(&link.transmit(wave, rng));
            Ok(match cumulant_features_from_reception(&r) {
                Ok(f) => vec![f.de_squared_ideal()],
                Err(_) => vec![],
            })
        },
        reduce_fn: move |_artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let mut rows = Vec::new();
            for (i, &snr) in GAP_SNRS.iter().enumerate() {
                let zig = mean(&column(&grouped[i * 2], 0));
                let emu = mean(&column(&grouped[i * 2 + 1], 0));
                rows.push(vec![format!("{snr}"), f4(zig), f4(emu), f2(emu / zig)]);
            }
            let header: Vec<String> = ["SNR (dB)", "ZigBee DE²", "Emulated DE²", "ratio"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            write_csv(&results, "ext_gap_summary.csv", &header, &rows)?;
            let mut out = String::new();
            out.push_str(&format!(
                "## Extension — DE² gap summary ({per_class} frames per class)\n\n"
            ));
            out.push_str(&markdown_table(&header, &rows));
            Ok(out)
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tables::{run_test, test_dir};

    fn dir() -> PathBuf {
        test_dir("ctc_ext_test")
    }

    #[test]
    fn roc_reports_auc() {
        let out = run_test(roc(dir(), 17.0, 6));
        assert!(out.contains("AUC"));
    }

    #[test]
    fn ablation_tables_render() {
        assert!(run_test(ablation_alpha(dir(), 3)).contains("sqrt(26)"));
    }

    #[test]
    fn cfo_rows_render() {
        assert!(run_test(cfo_robustness(dir(), 3)).contains("|C40|"));
    }
}
