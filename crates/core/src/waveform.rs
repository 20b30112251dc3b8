//! The authentic/emulated waveform pair used throughout the evaluation.
//!
//! Every attack and defense experiment starts from the same construction:
//! a ZigBee transmitter emits a frame, the WiFi attacker records it and
//! re-synthesizes it, and the ZigBee front-end captures the emulation back
//! at 4 MHz. [`WaveformPair`] packages the three artifacts. It lives here —
//! not in the benchmark crate — so the experiment harness, CLI and examples
//! share one implementation.

use crate::attack::{Emulation, Emulator};
use crate::error::Error;
use ctc_dsp::Complex;
use ctc_zigbee::Transmitter;

/// A reusable pair of transmit waveforms: the authentic frame and its
/// emulation as captured by the ZigBee front-end.
#[derive(Debug, Clone)]
pub struct WaveformPair {
    /// Authentic ZigBee baseband waveform (4 MHz).
    pub original: Vec<Complex>,
    /// The attacker's emulated waveform after the ZigBee front-end (4 MHz).
    pub emulated: Vec<Complex>,
    /// Full emulation metadata.
    pub emulation: Emulation,
}

impl WaveformPair {
    /// Builds the pair for one payload with the default attacker.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::Frame`] when the payload cannot be framed
    /// (e.g. it exceeds the maximum frame size).
    pub fn new(payload: &[u8]) -> Result<Self, Error> {
        Self::with_emulator(payload, &Emulator::new())
    }

    /// Builds the pair for one payload with a custom attacker.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::Frame`] when the payload cannot be framed.
    pub fn with_emulator(payload: &[u8], emulator: &Emulator) -> Result<Self, Error> {
        let original = Transmitter::new().transmit_payload(payload)?;
        let emulation = emulator.emulate(&original);
        Ok(WaveformPair {
            original,
            emulated: emulator.received_at_zigbee(&emulation),
            emulation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_zigbee::Receiver;

    #[test]
    fn pair_decodes_both_ways() {
        let pair = WaveformPair::new(b"00000").unwrap();
        let rx = Receiver::usrp();
        assert_eq!(rx.receive(&pair.original).payload(), Some(&b"00000"[..]));
        assert_eq!(rx.receive(&pair.emulated).payload(), Some(&b"00000"[..]));
    }

    #[test]
    fn oversized_payload_is_an_error_not_a_panic() {
        let long = vec![0u8; 4096];
        assert!(matches!(WaveformPair::new(&long), Err(Error::Frame(_))));
    }
}
