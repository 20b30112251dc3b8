//! A sample-accurate coexistence scenario: the paper's two-phase attack
//! timeline (Sec. IV) played out on one shared channel.
//!
//! A gateway transmits periodic control frames; the attacker eavesdrops,
//! extracts the first frame it hears, then strikes — deferring via
//! CSMA/CA-style clear channel assessment whenever the gateway is on the
//! air ("If the WiFi attacker confirms that ZigBee devices are not
//! communicating, it emulates the received ZigBee waveform"). The output is
//! the composite channel waveform plus ground truth, ready for the stream
//! monitor.

use crate::attack::Emulator;
use crate::defense::EnergyDetector;
use ctc_channel::noise::complex_gaussian;
use ctc_dsp::metrics::normalize_power;
use ctc_dsp::Complex;
use ctc_zigbee::Transmitter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Who transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The legitimate gateway.
    Gateway,
    /// The WiFi attacker.
    Attacker,
}

/// One transmission on the ground-truth timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// First sample index on the shared channel.
    pub start: usize,
    /// One past the last sample.
    pub end: usize,
    /// Who transmitted.
    pub source: Source,
    /// Whether this transmission overlapped another one (collision).
    pub collided: bool,
}

/// Scenario parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Total timeline length in samples (4 MHz).
    pub duration: usize,
    /// Mean gap between gateway frames, in samples.
    pub gateway_period: usize,
    /// Uniform jitter applied to each gateway gap (± this many samples).
    pub gateway_jitter: usize,
    /// How long after its recording the attacker first tries to strike.
    pub attacker_delay: usize,
    /// Gap between attacker strikes.
    pub attacker_period: usize,
    /// Number of strikes the attacker attempts.
    pub attacker_strikes: usize,
    /// Whether the attacker performs CCA and defers to ongoing traffic.
    pub attacker_polite: bool,
    /// Channel noise variance (complex total).
    pub noise_variance: f64,
    /// Gateway payload.
    pub payload: Vec<u8>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            duration: 60_000,
            gateway_period: 9_000,
            gateway_jitter: 1_500,
            attacker_delay: 4_000,
            attacker_period: 8_000,
            attacker_strikes: 3,
            attacker_polite: true,
            noise_variance: 1e-3,
            payload: b"00000".to_vec(),
        }
    }
}

/// Output of a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The composite channel waveform (4 MHz).
    pub channel: Vec<Complex>,
    /// Ground-truth transmissions, in start order.
    pub transmissions: Vec<Transmission>,
    /// Number of strike attempts the attacker deferred due to CCA.
    pub cca_deferrals: usize,
    /// Whether the attacker managed to record a gateway frame at all.
    pub recording_captured: bool,
}

impl ScenarioResult {
    /// Ground truth for the transmission covering `sample`, if any.
    pub fn source_at(&self, sample: usize) -> Option<Source> {
        self.transmissions
            .iter()
            .find(|t| (t.start..t.end).contains(&sample))
            .map(|t| t.source)
    }
}

/// Runs the scenario.
///
/// # Panics
///
/// Panics if `duration == 0` or the payload is too long for one frame.
pub fn run(config: &ScenarioConfig, seed: u64) -> ScenarioResult {
    assert!(config.duration > 0, "duration must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let tx = Transmitter::new();
    let gateway_wave = tx
        .transmit_payload(&config.payload)
        .expect("scenario payloads are short");

    // --- Schedule gateway transmissions.
    let mut gateway_starts = Vec::new();
    let mut t = config.gateway_period / 2;
    while t + gateway_wave.len() < config.duration {
        gateway_starts.push(t);
        let jitter = if config.gateway_jitter > 0 {
            rng.gen_range(0..=2 * config.gateway_jitter) as i64 - config.gateway_jitter as i64
        } else {
            0
        };
        t = (t as i64 + config.gateway_period as i64 + jitter).max(t as i64 + 1) as usize;
    }

    // --- Compose the gateway-only channel (what the attacker eavesdrops).
    let mut channel: Vec<Complex> = (0..config.duration)
        .map(|_| complex_gaussian(&mut rng, config.noise_variance))
        .collect();
    let mut transmissions: Vec<Transmission> = Vec::new();
    for &s in &gateway_starts {
        for (i, &v) in gateway_wave.iter().enumerate() {
            channel[s + i] += v;
        }
        transmissions.push(Transmission {
            start: s,
            end: s + gateway_wave.len(),
            source: Source::Gateway,
            collided: false,
        });
    }

    // --- Phase 1: the attacker records the first frame it can find.
    let detector = EnergyDetector::default();
    let listen_until = gateway_starts
        .first()
        .map(|&s| (s + gateway_wave.len() + 512).min(config.duration))
        .unwrap_or(0);
    let recording = detector.extract_first(&channel[..listen_until]);
    let recording_captured = recording.is_some();
    let forged: Option<Vec<Complex>> = recording.map(|rec| {
        let emulator = Emulator::new();
        normalize_power(&emulator.received_at_zigbee(&emulator.emulate(rec)))
    });

    // --- Phase 2: strikes with (optional) CCA deferral.
    let mut cca_deferrals = 0usize;
    if let Some(forged) = forged {
        let busy = |at: usize, len: usize, txs: &[Transmission]| {
            txs.iter().any(|t| at < t.end && at + len > t.start)
        };
        let mut strike_at = listen_until + config.attacker_delay;
        for _ in 0..config.attacker_strikes {
            if strike_at + forged.len() >= config.duration {
                break;
            }
            let mut at = strike_at;
            if config.attacker_polite {
                // Defer in 256-sample backoff steps while the channel is busy.
                while busy(at, forged.len(), &transmissions) && at + forged.len() < config.duration
                {
                    cca_deferrals += 1;
                    at += 256 + rng.gen_range(0..128usize);
                }
            }
            if at + forged.len() >= config.duration {
                break;
            }
            let collided = busy(at, forged.len(), &transmissions);
            for (i, &v) in forged.iter().enumerate() {
                channel[at + i] += v;
            }
            // Mark the collision on both parties.
            if collided {
                for t in &mut transmissions {
                    if at < t.end && at + forged.len() > t.start {
                        t.collided = true;
                    }
                }
            }
            transmissions.push(Transmission {
                start: at,
                end: at + forged.len(),
                source: Source::Attacker,
                collided,
            });
            strike_at = at + forged.len() + config.attacker_period;
        }
    }
    transmissions.sort_by_key(|t| t.start);

    ScenarioResult {
        channel,
        transmissions,
        cca_deferrals,
        recording_captured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::{ChannelAssumption, Detector, StreamMonitor};

    #[test]
    fn default_scenario_produces_both_sources() {
        let result = run(&ScenarioConfig::default(), 1);
        assert!(result.recording_captured);
        let gateways = result
            .transmissions
            .iter()
            .filter(|t| t.source == Source::Gateway)
            .count();
        let attacks = result
            .transmissions
            .iter()
            .filter(|t| t.source == Source::Attacker)
            .count();
        assert!(gateways >= 3, "{gateways} gateway frames");
        assert!(attacks >= 2, "{attacks} attacker frames");
    }

    #[test]
    fn polite_attacker_never_collides() {
        let config = ScenarioConfig {
            gateway_period: 4_000, // dense traffic
            ..ScenarioConfig::default()
        };
        let result = run(&config, 2);
        for t in &result.transmissions {
            if t.source == Source::Attacker {
                assert!(!t.collided, "polite attacker collided at {}", t.start);
            }
        }
    }

    #[test]
    fn impolite_attacker_collides_in_dense_traffic() {
        let config = ScenarioConfig {
            gateway_period: 2_500,
            gateway_jitter: 200,
            attacker_polite: false,
            attacker_strikes: 8,
            attacker_period: 500,
            ..ScenarioConfig::default()
        };
        let result = run(&config, 3);
        let collisions = result
            .transmissions
            .iter()
            .filter(|t| t.source == Source::Attacker && t.collided)
            .count();
        assert!(collisions > 0, "dense impolite traffic should collide");
        assert_eq!(result.cca_deferrals, 0);
    }

    #[test]
    fn dense_traffic_causes_deferrals() {
        let config = ScenarioConfig {
            gateway_period: 3_000,
            gateway_jitter: 100,
            attacker_strikes: 6,
            attacker_period: 600,
            ..ScenarioConfig::default()
        };
        let result = run(&config, 4);
        assert!(result.cca_deferrals > 0, "expected CCA deferrals");
    }

    #[test]
    fn monitor_classifies_scenario_traffic() {
        let result = run(&ScenarioConfig::default(), 5);
        // The attacker's 4 µs block grid sits at an arbitrary offset inside
        // the victim frame (its recording had noise margins), which
        // modulates how many chip midpoints fall in the corrupted CP
        // regions: emulated DE² varies roughly 0.1-0.4 across alignments
        // while authentic frames sit near 0.005 at this SNR. A threshold
        // calibrated per the paper's procedure lands in between; 0.06
        // reflects that here.
        let monitor = StreamMonitor::with_detector(
            Detector::new(ChannelAssumption::Ideal).with_threshold(0.06),
        );
        let events = monitor.scan(&result.channel);
        assert!(!events.is_empty());
        let mut checked = 0;
        for e in &events {
            let mid = (e.burst.start + e.burst.end) / 2;
            let Some(truth) = result.source_at(mid) else {
                continue;
            };
            let Some(v) = e.verdict else { continue };
            checked += 1;
            match truth {
                Source::Gateway => assert!(
                    !v.is_attack,
                    "gateway frame at {} flagged (DE² {})",
                    e.burst.start, v.de_squared
                ),
                Source::Attacker => assert!(
                    v.is_attack,
                    "attack at {} missed (DE² {})",
                    e.burst.start, v.de_squared
                ),
            }
        }
        assert!(
            checked >= 4,
            "only {checked} events matched to ground truth"
        );
    }

    #[test]
    fn source_at_lookup() {
        let result = run(&ScenarioConfig::default(), 6);
        let t = result.transmissions[0];
        assert_eq!(result.source_at(t.start), Some(t.source));
        assert_eq!(result.source_at(config_free_sample(&result)), None);
    }

    fn config_free_sample(result: &ScenarioResult) -> usize {
        // A sample before the first transmission.
        result.transmissions[0].start.saturating_sub(1)
    }
}
