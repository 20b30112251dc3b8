//! Protocol-level extension experiments: the channel-plan feasibility
//! sweep, the detector comparison (cumulants vs clustered EVM), and the
//! MAC anti-replay vs physical-layer defense comparison.

use crate::engine::{column, flag, rate_of, Artifacts, Ctx, Experiment, MonteCarlo, OneShot};
use crate::report::{f4, markdown_table, pct, write_csv};
use crate::trials::{mean, receive_with};
use ctc_channel::Link;
use ctc_core::attack::{Emulator, SpectralMode};
use ctc_core::defense::{ChannelAssumption, Detector, EvmDetector};
use ctc_zigbee::channels::ZigbeeChannel;
use ctc_zigbee::mac::{MacFrame, ZigbeeDevice};
use ctc_zigbee::{Receiver, Transmitter};
use rand::rngs::StdRng;
use std::path::PathBuf;
use std::sync::Arc;

/// The attacker's forged waveform for one ZigBee channel, memoised in the
/// artifact cache (the emulation itself is the expensive step).
fn channel_forged(
    artifacts: &Artifacts,
    ch: ZigbeeChannel,
    wifi_center: f64,
) -> Result<Arc<Vec<ctc_dsp::Complex>>, ctc_core::Error> {
    artifacts.try_memo(&format!("channels:forged:{}", ch.number()), || {
        let wave = Transmitter::new().transmit_payload(b"00000")?;
        let emulator = Emulator::new()
            .with_spectral_mode(SpectralMode::CarrierAllocated)
            .with_zigbee_center_hz(ch.center_hz());
        let _ = wifi_center;
        let em = emulator.emulate(&wave);
        Ok(emulator.received_at_zigbee(&em))
    })
}

/// Channel-plan sweep: which ZigBee channels the paper's 2440 MHz attacker
/// reaches, verified end to end.
pub fn channels(results: PathBuf, trials: usize) -> Box<dyn Experiment> {
    const WIFI_CENTER: f64 = 2.44e9;
    Box::new(MonteCarlo {
        name: "channels",
        cells: ZigbeeChannel::all().len(),
        per_cell: trials,
        trial_fn: |ctx: &Ctx<'_>, cell: usize, rng: &mut StdRng| {
            let ch = ZigbeeChannel::all()[cell];
            // The spectral placement only works when the band fits inside
            // the attacker's 20 MHz; skip the reception otherwise.
            if (ch.center_hz() - WIFI_CENTER).abs() >= 9.0e6 {
                return Ok(vec![]);
            }
            let forged = channel_forged(ctx.artifacts, ch, WIFI_CENTER)?;
            let r = Receiver::usrp().receive(&Link::awgn(15.0).transmit(&forged, rng));
            Ok(vec![flag(crate::trials::packet_ok(&r, b"00000"))])
        },
        reduce_fn: move |_artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let mut rows = Vec::new();
            for (cell, ch) in ZigbeeChannel::all().into_iter().enumerate() {
                let predicted = ctc_zigbee::channels::attackable(ch, WIFI_CENTER);
                let in_band = (ch.center_hz() - WIFI_CENTER).abs() < 9.0e6;
                let note = if in_band {
                    String::new()
                } else {
                    " (band outside the attacker's 20 MHz)".into()
                };
                let rate = rate_of(&grouped[cell], 0);
                rows.push(vec![
                    format!("{}", ch.number()),
                    format!("{:.0}", ch.center_hz() / 1e6),
                    format!("{predicted}"),
                    format!("{}{}", pct(rate), note),
                ]);
            }
            let header: Vec<String> = [
                "ZigBee channel",
                "centre (MHz)",
                "predicted attackable",
                "measured attack success @ 15 dB",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            write_csv(&results, "ext_channels.csv", &header, &rows)?;
            let mut out = String::new();
            out.push_str(&format!(
                "## Extension — Channel-plan feasibility (attacker at 2440 MHz, {trials} frames per channel)\n\n"
            ));
            out.push_str(&markdown_table(&header, &rows));
            out.push_str(
                "\nThe attack's spectral precondition (paper Sec. IV): only victims\n\
                 whose 2 MHz channel fits inside the attacker's data-subcarrier span\n\
                 are controllable. The prediction from the channel plan matches the\n\
                 end-to-end measurement.\n",
            );
            Ok(out)
        },
    })
}

const DETECTOR_CONDITIONS: [&str; 3] = ["AWGN 15 dB", "phase offset", "CFO 400 Hz"];

fn detector_link(condition: usize) -> Link {
    match condition {
        0 => Link::awgn(15.0),
        1 => Link::awgn(15.0).with_random_phase(true),
        _ => Link::awgn(15.0)
            .with_max_cfo_hz(400.0)
            .with_random_phase(true),
    }
}

/// Detector comparison: the paper's cumulant detector vs the clustered-EVM
/// alternative, across AWGN, phase offset and CFO conditions.
pub fn detectors(results: PathBuf, trials: usize) -> Box<dyn Experiment> {
    Box::new(MonteCarlo {
        name: "detectors",
        // cell = condition * 2 + class (0 = ZigBee, 1 = emulated).
        cells: DETECTOR_CONDITIONS.len() * 2,
        per_cell: trials,
        trial_fn: |ctx: &Ctx<'_>, cell: usize, rng: &mut StdRng| {
            let pair = ctx.artifacts.pair(b"00000")?;
            let wave = if cell.is_multiple_of(2) {
                &pair.original
            } else {
                &pair.emulated
            };
            let link = detector_link(cell / 2);
            let r = Receiver::usrp().receive(&link.transmit(wave, rng));
            let cumulant = Detector::new(ChannelAssumption::Real).with_threshold(0.1);
            let evm = EvmDetector::new();
            Ok(vec![
                flag(cumulant.detect(&r).map(|v| v.is_attack).unwrap_or(false)),
                flag(evm.detect(&r).map(|v| v.is_attack).unwrap_or(false)),
            ])
        },
        reduce_fn: move |_artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let mut rows = Vec::new();
            for (i, name) in DETECTOR_CONDITIONS.iter().enumerate() {
                let cum_tn = 1.0 - rate_of(&grouped[i * 2], 0);
                let evm_tn = 1.0 - rate_of(&grouped[i * 2], 1);
                let cum_tp = rate_of(&grouped[i * 2 + 1], 0);
                let evm_tp = rate_of(&grouped[i * 2 + 1], 1);
                rows.push(vec![
                    name.to_string(),
                    pct(cum_tn),
                    pct(cum_tp),
                    pct(evm_tn),
                    pct(evm_tp),
                ]);
            }
            let header: Vec<String> = [
                "condition",
                "cumulant: authentic passed",
                "cumulant: attack caught",
                "EVM: authentic passed",
                "EVM: attack caught",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            write_csv(&results, "ext_detectors.csv", &header, &rows)?;
            let mut out = String::new();
            out.push_str(&format!(
                "## Extension — Detector comparison ({trials} frames per cell)\n\n"
            ));
            out.push_str(&markdown_table(&header, &rows));
            out.push_str(
                "\nClustered EVM matches the cumulant detector in static channels but\n\
                 collapses under residual CFO (the constellation spins within the\n\
                 frame and the clusters smear) — the quantitative case for the\n\
                 paper's higher-order-statistics choice.\n",
            );
            Ok(out)
        },
    })
}

/// MAC anti-replay (sequence cache) vs the physical-layer detector against
/// the replay attack. Inherently sequential (the device is stateful), so it
/// runs as a single reduce step.
pub fn replay(results: PathBuf) -> Box<dyn Experiment> {
    Box::new(OneShot {
        name: "replay",
        render: move |_artifacts: &Artifacts| {
            let tx = Transmitter::new();
            let rx = Receiver::usrp();
            let detector = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);

            // The gateway sends a MAC data frame; the attacker records it.
            let control = MacFrame::data(117, 0x1A2B, 0x0001, 0x00C0, b"unlock".to_vec());
            let symbols = control.to_symbols()?;
            let wave = tx.transmit_symbols(&symbols);
            let emulator = Emulator::new();
            let forged = emulator.received_at_zigbee(&emulator.emulate(&wave));

            let mut device = ZigbeeDevice::new(0x1A2B, 0x0001, 8);
            let mut rows = Vec::new();
            let mut step = |label: &str, wave: &[ctc_dsp::Complex], device: &mut ZigbeeDevice| {
                let reception = rx.receive(wave);
                let mac_result = reception
                    .payload()
                    .map(|p| device.handle(p))
                    .map(|r| match r {
                        Ok(_) => "ACCEPTED".to_string(),
                        Err(e) => format!("rejected ({e:?})"),
                    })
                    .unwrap_or_else(|| "PHY decode failed".into());
                let phy_verdict = detector
                    .detect(&reception)
                    .map(|v| {
                        if v.is_attack {
                            format!("ATTACK (DE² {})", f4(v.de_squared))
                        } else {
                            format!("authentic (DE² {})", f4(v.de_squared))
                        }
                    })
                    .unwrap_or_else(|_| "n/a".into());
                rows.push(vec![label.to_string(), mac_result, phy_verdict]);
            };

            step("1. gateway frame (seq 117)", &wave, &mut device);
            step("2. attacker replays emulation", &forged, &mut device);
            device.power_cycle();
            step("3. replay after device power-cycle", &forged, &mut device);

            let header: Vec<String> = [
                "event",
                "MAC anti-replay (8-entry cache)",
                "PHY cumulant detector",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            write_csv(&results, "ext_replay.csv", &header, &rows)?;
            let mut out = String::new();
            out.push_str("## Extension — MAC anti-replay vs the physical-layer defense\n\n");
            out.push_str(&markdown_table(&header, &rows));
            out.push_str(
                "\nThe sequence cache rejects the verbatim replay only while it holds\n\
                 state; after a power cycle (or cache eviction) the same forged frame\n\
                 is accepted. The cumulant detector flags the transmission itself,\n\
                 stateless — supporting the paper's claim that higher-layer defenses\n\
                 cannot stop a physical-layer emulation attack.\n",
            );
            Ok(out)
        },
    })
}

const LOWSNR_SNRS: [f64; 4] = [1.0, 3.0, 5.0, 7.0];
const LOWSNR_GROUPS: [usize; 3] = [1, 3, 10];
const LOWSNR_TRAIN: usize = 12;

/// Low-SNR detection via multi-frame aggregation: single-frame cumulant
/// estimates are noise-dominated below ~5 dB; pooling the constellations of
/// N frames shrinks the estimator variance until the (noise-biased but
/// still distinct) class means separate again. Thresholds are calibrated
/// per SNR from aggregated training groups, exactly as the paper calibrates
/// its Q from training waveforms.
pub fn lowsnr(results: PathBuf, trials: usize) -> Box<dyn Experiment> {
    let per_cell = LOWSNR_TRAIN.max(trials);
    Box::new(MonteCarlo {
        name: "lowsnr",
        // cell = (snr * GROUPS + group) * 4 + role, with roles
        // 0 = train ZigBee, 1 = train emulated, 2 = test ZigBee,
        // 3 = test emulated. One trial = one aggregated detection group.
        cells: LOWSNR_SNRS.len() * LOWSNR_GROUPS.len() * 4,
        per_cell,
        trial_fn: move |ctx: &Ctx<'_>, cell: usize, rng: &mut StdRng| {
            let role = cell % 4;
            let budget = if role < 2 { LOWSNR_TRAIN } else { trials };
            let within = ctx.trial_index as usize % per_cell.max(1);
            if within >= budget {
                return Ok(vec![]);
            }
            let pair = ctx.artifacts.pair(b"00000")?;
            let wave = if role.is_multiple_of(2) {
                &pair.original
            } else {
                &pair.emulated
            };
            let group = LOWSNR_GROUPS[(cell / 4) % LOWSNR_GROUPS.len()];
            let link = Link::awgn(LOWSNR_SNRS[cell / (4 * LOWSNR_GROUPS.len())]);
            let rx = Receiver::usrp();
            let rs = receive_with(wave, &link, &rx, group, rng);
            let base = Detector::new(ChannelAssumption::Ideal);
            Ok(match base.detect_aggregated(&rs) {
                Ok(v) => vec![v.de_squared],
                Err(_) => vec![],
            })
        },
        reduce_fn: move |_artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let mut rows = Vec::new();
            for (si, &snr) in LOWSNR_SNRS.iter().enumerate() {
                let mut cells = vec![format!("{snr}")];
                for gi in 0..LOWSNR_GROUPS.len() {
                    let base_cell = (si * LOWSNR_GROUPS.len() + gi) * 4;
                    let de2 = |role: usize| column(&grouped[base_cell + role], 0);
                    let threshold = ((mean(&de2(0)) + mean(&de2(1))) / 2.0).max(1e-6);
                    let mut correct = 0usize;
                    let mut total = 0usize;
                    for v in de2(2) {
                        correct += usize::from(v <= threshold);
                        total += 1;
                    }
                    for v in de2(3) {
                        correct += usize::from(v > threshold);
                        total += 1;
                    }
                    cells.push(pct(correct as f64 / total.max(1) as f64));
                }
                rows.push(cells);
            }
            let header: Vec<String> = ["SNR (dB)", "1 frame", "3 frames", "10 frames"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            write_csv(&results, "ext_lowsnr_aggregation.csv", &header, &rows)?;
            let mut out = String::new();
            out.push_str(&format!(
                "## Extension — Low-SNR detection via frame aggregation ({trials} decisions per cell per class, per-SNR calibrated thresholds)\n\n"
            ));
            out.push_str(&markdown_table(&header, &rows));
            out.push_str(
                "\nBelow the paper's 7 dB operating floor a single frame's cumulant\n\
                 estimate is too noisy to classify reliably; pooling constellations\n\
                 across frames (the estimator is O(N), so this is cheap) restores\n\
                 accurate classification down to SNRs where the attack itself barely\n\
                 functions.\n",
            );
            Ok(out)
        },
    })
}

const HARDWARE_CASES: [&str; 3] = ["ideal radio", "typical IoT radio", "worst-case radio"];

/// Hardware-impairment robustness: does a benign but imperfect ZigBee
/// transmitter get false-flagged? Sweeps impairment severity and reports
/// both detector variants' false-positive rates alongside the attack's
/// detection rate (unchanged).
pub fn hardware(results: PathBuf, trials: usize) -> Box<dyn Experiment> {
    use ctc_channel::hardware::TxImpairments;
    Box::new(MonteCarlo {
        name: "hardware",
        cells: HARDWARE_CASES.len(),
        per_cell: trials,
        trial_fn: |ctx: &Ctx<'_>, cell: usize, rng: &mut StdRng| {
            let imp = match cell {
                0 => TxImpairments::default(),
                1 => TxImpairments::typical_iot(),
                _ => TxImpairments::worst_case(),
            };
            let pair = ctx.artifacts.pair(b"00000")?;
            let rx = Receiver::usrp();
            let link = Link::awgn(15.0);
            let ideal = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
            let real = Detector::new(ChannelAssumption::Real).with_threshold(0.25);
            let dirty = imp.apply(&pair.original, rng);
            let rz = rx.receive(&link.transmit(&dirty, rng));
            let fp_ideal = ideal.detect(&rz).map(|v| v.is_attack).unwrap_or(false);
            let fp_real = real.detect(&rz).map(|v| v.is_attack).unwrap_or(false);
            let dirty_forged = imp.apply(&pair.emulated, rng);
            let re = rx.receive(&link.transmit(&dirty_forged, rng));
            let caught = real.detect(&re).map(|v| v.is_attack).unwrap_or(false);
            Ok(vec![flag(fp_ideal), flag(fp_real), flag(caught)])
        },
        reduce_fn: move |_artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let mut rows = Vec::new();
            for (i, name) in HARDWARE_CASES.iter().enumerate() {
                rows.push(vec![
                    name.to_string(),
                    pct(rate_of(&grouped[i], 0)),
                    pct(rate_of(&grouped[i], 1)),
                    pct(rate_of(&grouped[i], 2)),
                ]);
            }
            let header: Vec<String> = [
                "transmitter hardware",
                "Ideal detector false positives",
                "|C40| detector false positives",
                "impaired attacker still caught",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            write_csv(&results, "ext_hardware.csv", &header, &rows)?;
            let mut out = String::new();
            out.push_str(&format!(
                "## Extension — Hardware-impairment robustness ({trials} frames per cell, 15 dB)\n\n"
            ));
            out.push_str(&markdown_table(&header, &rows));
            out.push_str(
                "\nTypical IoT-grade I/Q imbalance, PA compression and phase noise do\n\
                 not push authentic waveforms over the detection threshold. The\n\
                 out-of-spec radio's phase noise starts false-flagging the Ideal\n\
                 (Re C40) variant, but the |C40| spectral-line variant stays clean —\n\
                 and an attacker using the same bad hardware remains fully\n\
                 detectable: the impairments stack on top of the emulation\n\
                 distortion rather than masking it.\n",
            );
            Ok(out)
        },
    })
}

/// Block-alignment sensitivity: the attacker's 4 µs block grid can sit at
/// any of 16 sample offsets within the victim frame; the CP-corruption
/// regions then hit different chip-sampling instants and the emulation's
/// DE² signature varies. Quantifies the spread — an evasion lever for the
/// attacker and a calibration requirement for the defender.
pub fn alignment(results: PathBuf) -> Box<dyn Experiment> {
    Box::new(MonteCarlo {
        name: "alignment",
        cells: 16,
        per_cell: 1,
        trial_fn: |ctx: &Ctx<'_>, cell: usize, _rng: &mut StdRng| {
            let frame = ctx.artifacts.pair(b"00000")?.original.clone();
            let rx = Receiver::usrp().with_sync_search(96);
            let emulator = Emulator::new();
            // Prepend `offset` zero samples: the attacker's block grid starts
            // at its recording boundary, so this shifts the frame within it.
            let mut observed = vec![ctc_dsp::Complex::ZERO; cell];
            observed.extend_from_slice(&frame);
            let forged = emulator.received_at_zigbee(&emulator.emulate(&observed));
            let r = rx.receive(&forged);
            let de = ctc_core::defense::cumulant_features_from_reception(&r)
                .map(|f| f.de_squared_ideal())
                .unwrap_or(f64::NAN);
            let decoded = r.payload() == Some(&b"00000"[..]);
            Ok(vec![de, flag(decoded)])
        },
        reduce_fn: move |_artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let mut rows = Vec::new();
            let mut de_values = Vec::new();
            for (offset, cell) in grouped.iter().enumerate() {
                let de = cell[0][0];
                let decoded = cell[0][1] > 0.5;
                de_values.push(de);
                rows.push(vec![format!("{offset}"), f4(de), format!("{decoded}")]);
            }
            let header: Vec<String> = ["frame offset (samples)", "emulated DE²", "frame decodes"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            write_csv(&results, "ext_alignment.csv", &header, &rows)?;
            let min = de_values.iter().cloned().fold(f64::MAX, f64::min);
            let max = de_values.iter().cloned().fold(f64::MIN, f64::max);
            let mut out = String::new();
            out.push_str("## Extension — Block-alignment sensitivity of the attack signature\n\n");
            out.push_str(&markdown_table(&header, &rows));
            out.push_str(&format!(
                "\nEmulated DE² spans {} – {} across the 16 possible alignments (the\n\
                 attack succeeds at every one). An attacker choosing its best\n\
                 alignment shrinks its signature ~{:.0}x — still far above the\n\
                 authentic ~0.003 at high SNR, but defenders must calibrate their\n\
                 threshold against the *minimum*, not the average, emulated DE².\n",
                f4(min),
                f4(max),
                max / min.max(1e-9),
            ));
            Ok(out)
        },
    })
}

const SCENARIO_PERIODS: [usize; 4] = [16_000, 9_000, 5_000, 3_000];

/// End-to-end coexistence scenario: attack timeline vs gateway traffic
/// density — CCA deferrals, strikes landed, and monitor accuracy over the
/// composite channel. One trial per traffic density.
pub fn scenario(results: PathBuf) -> Box<dyn Experiment> {
    Box::new(MonteCarlo {
        name: "scenario",
        cells: SCENARIO_PERIODS.len(),
        per_cell: 1,
        trial_fn: |_ctx: &Ctx<'_>, cell: usize, _rng: &mut StdRng| {
            use ctc_core::defense::StreamMonitor;
            use ctc_core::scenario::{run as run_scenario, ScenarioConfig, Source};
            let config = ScenarioConfig {
                gateway_period: SCENARIO_PERIODS[cell],
                attacker_strikes: 4,
                ..ScenarioConfig::default()
            };
            let result = run_scenario(&config, 700 + cell as u64);
            let strikes = result
                .transmissions
                .iter()
                .filter(|t| t.source == Source::Attacker)
                .count();
            let collisions = result
                .transmissions
                .iter()
                .filter(|t| t.source == Source::Attacker && t.collided)
                .count();
            let monitor = StreamMonitor::with_detector(
                Detector::new(ChannelAssumption::Ideal).with_threshold(0.03),
            );
            let events = monitor.scan(&result.channel);
            let mut correct = 0usize;
            let mut matched = 0usize;
            for e in &events {
                let mid = (e.burst.start + e.burst.end) / 2;
                let (Some(truth), Some(v)) = (result.source_at(mid), e.verdict) else {
                    continue;
                };
                matched += 1;
                correct += usize::from((truth == Source::Attacker) == v.is_attack);
            }
            Ok(vec![
                strikes as f64,
                result.cca_deferrals as f64,
                collisions as f64,
                correct as f64,
                matched as f64,
            ])
        },
        reduce_fn: move |_artifacts: &Artifacts, grouped: Vec<Vec<Vec<f64>>>| {
            let mut rows = Vec::new();
            for (i, &period) in SCENARIO_PERIODS.iter().enumerate() {
                let v = &grouped[i][0];
                rows.push(vec![
                    format!("{:.1}", period as f64 / 4000.0),
                    format!("{}/4", v[0] as usize),
                    format!("{}", v[1] as usize),
                    format!("{}", v[2] as usize),
                    format!("{}/{}", v[3] as usize, v[4] as usize),
                ]);
            }
            let header: Vec<String> = [
                "gateway period (ms)",
                "strikes landed",
                "CCA deferrals",
                "collisions",
                "monitor correct",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            write_csv(&results, "ext_scenario.csv", &header, &rows)?;
            let mut out = String::new();
            out.push_str(
                "## Extension — Coexistence scenario (listen → CCA → strike → monitor)\n\n",
            );
            out.push_str(&markdown_table(&header, &rows));
            out.push_str(
                "\nDenser gateway traffic forces the CSMA-respecting attacker to defer\n\
                 more, but every strike it does land decodes; the stream monitor\n\
                 classifies gateway and attacker transmissions correctly over the\n\
                 composite channel (threshold calibrated against the alignment\n\
                 minimum — see the `alignment` experiment).\n",
            );
            Ok(out)
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tables::{run_test, test_dir};

    fn dir() -> PathBuf {
        test_dir("ctc_protocol_test")
    }

    #[test]
    fn channels_renders() {
        let out = run_test(channels(dir(), 2));
        assert!(out.contains("ZigBee channel"));
        assert!(out.contains("2435"));
    }

    #[test]
    fn detectors_renders() {
        let out = run_test(detectors(dir(), 3));
        assert!(out.contains("CFO 400 Hz"));
    }

    #[test]
    fn replay_story_holds() {
        let out = run_test(replay(dir()));
        assert!(out.contains("rejected (DuplicateSequence)"));
        assert!(out.contains("power-cycle"));
        assert!(out.contains("ATTACK"));
    }
}
