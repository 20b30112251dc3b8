//! Frequency analysis of the observed ZigBee waveform and the two-step
//! subcarrier-selection algorithm (paper Sec. V-A2, Table I).
//!
//! The ZigBee receiver's 2 MHz front-end passes at most
//! `2 MHz / 0.3125 MHz ≈ 7` OFDM subcarriers, so the attacker must decide
//! *which* 7 of the 64 FFT bins to keep. Because the ZigBee centre frequency
//! and bandwidth are fixed, the bin energy distribution is stable across
//! waveforms; the attacker therefore selects indexes once, from a batch of
//! observed blocks: a *coarse estimation* highlights every component above a
//! magnitude threshold, then a *detailed estimation* keeps the bins that
//! were highlighted most often.

use ctc_dsp::{fft64, Complex};
use ctc_wifi::ofdm::{CP_LEN, SYMBOL_LEN};

/// The coarse estimation's magnitude threshold: the value used in the
/// paper's Table I walkthrough, and the one every attacker here selects
/// subcarriers with.
pub const COARSE_THRESHOLD: f64 = 3.0;

/// Per-block FFT magnitudes of an observed waveform, one column of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSpectrum {
    /// The 64 complex frequency components of the block body.
    pub components: Vec<Complex>,
}

impl BlockSpectrum {
    /// Magnitudes per bin.
    pub fn magnitudes(&self) -> Vec<f64> {
        self.components.iter().map(|c| c.norm()).collect()
    }
}

/// Splits a 20 MHz waveform into 80-sample blocks and FFTs the last 64
/// samples of each ("we put the last 64 points into FFT", Sec. V-B1).
/// A trailing partial block is discarded.
pub fn block_spectra(wave_20mhz: &[Complex]) -> Vec<BlockSpectrum> {
    wave_20mhz
        .chunks_exact(SYMBOL_LEN)
        .map(|block| BlockSpectrum {
            components: fft64(&block[CP_LEN..]),
        })
        .collect()
}

/// The attacker's two-step subcarrier selection.
///
/// - Coarse: in every block, mark bins whose magnitude exceeds `threshold`.
/// - Detailed: sum the marks per bin and keep the `count` most-marked bins
///   (magnitude sums break ties deterministically).
///
/// Returns bin indexes (`0..64`) sorted ascending.
///
/// # Panics
///
/// Panics if `spectra` is empty or `count` is 0 or exceeds 64.
///
/// # Examples
///
/// ```
/// use ctc_core::attack::spectrum::{block_spectra, select_subcarriers};
/// use ctc_dsp::Complex;
/// // A pure tone in bin 2 dominates every block.
/// let wave: Vec<Complex> = (0..800)
///     .map(|n| Complex::cis(2.0 * std::f64::consts::PI * 2.0 * n as f64 / 64.0))
///     .collect();
/// let spectra = block_spectra(&wave);
/// let bins = select_subcarriers(&spectra, 3.0, 1);
/// assert_eq!(bins, vec![2]);
/// ```
pub fn select_subcarriers(spectra: &[BlockSpectrum], threshold: f64, count: usize) -> Vec<usize> {
    assert!(!spectra.is_empty(), "need at least one observed block");
    assert!(
        count > 0 && count <= 64,
        "subcarrier count must be in 1..=64, got {count}"
    );
    let mut votes = [0usize; 64];
    let mut magnitude_sum = [0f64; 64];
    for spec in spectra {
        for (bin, c) in spec.components.iter().enumerate() {
            let m = c.norm();
            magnitude_sum[bin] += m;
            if m > threshold {
                votes[bin] += 1;
            }
        }
    }
    let mut bins: Vec<usize> = (0..64).collect();
    bins.sort_by(|&a, &b| {
        votes[b]
            .cmp(&votes[a])
            .then(magnitude_sum[b].total_cmp(&magnitude_sum[a]))
            .then(a.cmp(&b))
    });
    let mut chosen: Vec<usize> = bins.into_iter().take(count).collect();
    chosen.sort_unstable();
    chosen
}

/// Renders Table I: rows are bin indexes (1-based, as printed in the paper),
/// columns are blocks. Only returns the magnitudes; formatting belongs to
/// the experiment harness.
pub fn frequency_table(spectra: &[BlockSpectrum]) -> Vec<Vec<f64>> {
    spectra.iter().map(|s| s.magnitudes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_dsp::resample::interpolate;
    use ctc_zigbee::Transmitter;

    fn observed_zigbee_20mhz(payload: &[u8]) -> Vec<Complex> {
        let wave = Transmitter::new().transmit_payload(payload).unwrap();
        interpolate(&wave, 5).unwrap()
    }

    #[test]
    fn block_count() {
        let wave = vec![Complex::ONE; 800];
        assert_eq!(block_spectra(&wave).len(), 10);
        let wave = vec![Complex::ONE; 799];
        assert_eq!(block_spectra(&wave).len(), 9);
    }

    #[test]
    fn zigbee_energy_concentrates_near_dc() {
        // Paper Table I: bins 1-4 and 62-64 (1-based) dominate, i.e. our
        // bins {0..3} and {61..63}.
        let wave = observed_zigbee_20mhz(b"00000");
        let spectra = block_spectra(&wave);
        let bins = select_subcarriers(&spectra, 3.0, 7);
        for &b in &bins {
            assert!(
                b <= 4 || b >= 60,
                "selected bin {b} far from the ZigBee band (bins {bins:?})"
            );
        }
        assert_eq!(bins.len(), 7);
    }

    #[test]
    fn selection_is_stable_across_payloads() {
        // "the distribution of X(k) is similar for each waveform": two very
        // different payloads must agree on most selected bins.
        let a = select_subcarriers(&block_spectra(&observed_zigbee_20mhz(b"00000")), 3.0, 7);
        let b = select_subcarriers(&block_spectra(&observed_zigbee_20mhz(b"zZ!?9")), 3.0, 7);
        let overlap = a.iter().filter(|x| b.contains(x)).count();
        assert!(overlap >= 5, "selections diverge: {a:?} vs {b:?}");
    }

    #[test]
    fn threshold_influences_votes_not_count() {
        let wave = observed_zigbee_20mhz(b"123");
        let spectra = block_spectra(&wave);
        let low = select_subcarriers(&spectra, 0.1, 7);
        let high = select_subcarriers(&spectra, 10.0, 7);
        assert_eq!(low.len(), 7);
        assert_eq!(high.len(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_spectra_panics() {
        let _ = select_subcarriers(&[], 3.0, 7);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_count_panics() {
        let wave = vec![Complex::ONE; 80];
        let _ = select_subcarriers(&block_spectra(&wave), 1.0, 0);
    }

    #[test]
    fn table_shape() {
        let wave = observed_zigbee_20mhz(b"42");
        let spectra = block_spectra(&wave);
        let table = frequency_table(&spectra);
        assert_eq!(table.len(), spectra.len());
        assert!(table.iter().all(|col| col.len() == 64));
    }
}
