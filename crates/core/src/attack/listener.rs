//! The attacker's channel-listening phase (paper Sec. IV).
//!
//! In time slot `t1` the WiFi attacker eavesdrops the ZigBee channel:
//! it must find where frames start and end inside a continuous sample
//! stream (the paper assumes "the WiFi attacker knows the beginning of the
//! received ZigBee time-domain waveform"; this module earns that assumption
//! with the defending gateway's own energy gate, [`crate::defense::gate`],
//! so the attacker records exactly the capture a gateway would cut). Before
//! transmitting the emulation it performs clear channel assessment per
//! CSMA/CA — "if the WiFi attacker confirms that ZigBee devices are not
//! communicating, it emulates the received ZigBee waveform".

use crate::defense::{BurstSplitter, EnergyDetector};
use ctc_dsp::{simd, Complex};

impl EnergyDetector {
    /// Extracts the first frame of a recording — the attacker's recorded
    /// ZigBee waveform, ready for [`crate::attack::Emulator::emulate`].
    ///
    /// The recording runs through the gateway's [`BurstSplitter`], so the
    /// result is exactly its first capture: the first burst the gate finds,
    /// with the splitter's guard margin on each side so the frame's preamble
    /// edge is never clipped by detector latency. `None` when the gate finds
    /// no burst.
    ///
    /// # Panics
    ///
    /// Panics when `window == 0`.
    pub fn extract_first<'a>(&self, x: &'a [Complex]) -> Option<&'a [Complex]> {
        let mut splitter = BurstSplitter::new(*self);
        let mut captures = splitter.push(x);
        captures.extend(splitter.finish());
        let first = captures.first()?;
        Some(&x[first.capture_start..first.capture_start + first.samples.len()])
    }
}

/// Clear channel assessment: energy detect over the most recent `window`
/// samples against an absolute power threshold (CSMA/CA mode 1).
///
/// Returns `true` when the channel is idle (safe to transmit the
/// emulation).
///
/// # Panics
///
/// Panics if `window == 0` or `x.len() < window`.
pub fn clear_channel_assessment(x: &[Complex], window: usize, threshold_power: f64) -> bool {
    assert!(window > 0, "window must be positive");
    assert!(x.len() >= window, "need at least one CCA window of samples");
    let p = simd::sum_norm_sqr(&x[x.len() - window..]) / window as f64;
    p < threshold_power
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::gate::tests::stream_with_frame;
    use ctc_channel::noise::complex_gaussian;
    use ctc_zigbee::Transmitter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn extracted_burst_is_emulatable_and_decodable() {
        let (stream, _, _) = stream_with_frame(800, 20.0, 2);
        let det = EnergyDetector::default();
        let recorded = det.extract_first(&stream).expect("frame present");
        let emulator = crate::attack::Emulator::new();
        let forged = emulator.received_at_zigbee(&emulator.emulate(recorded));
        let r = ctc_zigbee::Receiver::usrp()
            .with_sync_search(96)
            .receive(&forged);
        assert_eq!(r.payload(), Some(&b"00000"[..]));
    }

    /// The attacker records, sample for sample, the first capture a
    /// gateway cuts from the same recording as it streams in: one gate and
    /// one margin serve both sides.
    #[test]
    fn listener_records_what_the_gateway_captures() {
        let det = EnergyDetector::default();
        for seed in 0..8 {
            let (stream, _, _) = stream_with_frame(700, 12.0, seed);
            let recorded = det.extract_first(&stream).expect("frame present");
            let mut splitter = BurstSplitter::new(det);
            let mut captures = Vec::new();
            for chunk in stream.chunks(333) {
                splitter.push_into(chunk, &mut captures);
            }
            splitter.finish_into(&mut captures);
            let first = captures.first().expect("gateway captures the frame");
            assert_eq!(recorded, &first.samples[..], "seed {seed}");
        }
    }

    #[test]
    fn cca_idle_on_noise_busy_on_frame() {
        let mut rng = StdRng::seed_from_u64(7);
        let noise: Vec<Complex> = (0..256).map(|_| complex_gaussian(&mut rng, 0.01)).collect();
        assert!(clear_channel_assessment(&noise, 128, 0.1));
        let frame = Transmitter::new().transmit_payload(b"busy").unwrap();
        assert!(!clear_channel_assessment(&frame, 128, 0.1));
    }
}
