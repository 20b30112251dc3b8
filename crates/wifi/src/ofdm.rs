//! OFDM symbol assembly: subcarrier allocation, 64-point IFFT, cyclic
//! prefix (paper Fig. 2, right half).
//!
//! One 802.11g OFDM symbol = 64 subcarriers at 0.3125 MHz spacing = 20 MHz;
//! 48 carry data, 4 carry pilots (±7, ±21), 12 are null (DC and the band
//! edges). After the IFFT the last 16 time samples are copied to the front
//! as the 0.8 µs guard interval, for 80 samples = 4 µs per symbol.

use ctc_dsp::{fft64, Complex};

/// FFT size / subcarrier count.
pub const FFT_SIZE: usize = 64;

/// Cyclic-prefix length in samples (0.8 µs at 20 MHz).
pub const CP_LEN: usize = 16;

/// Total samples per OFDM symbol (4 µs at 20 MHz).
pub const SYMBOL_LEN: usize = FFT_SIZE + CP_LEN;

/// Number of data subcarriers.
pub const DATA_SUBCARRIERS: usize = 48;

/// Pilot subcarrier logical indices.
pub const PILOT_INDICES: [i32; 4] = [-21, -7, 7, 21];

/// Pilot symbol values (BPSK, the first polarity of the 802.11 sequence).
pub const PILOT_VALUES: [Complex; 4] = [
    Complex { re: 1.0, im: 0.0 },
    Complex { re: 1.0, im: 0.0 },
    Complex { re: 1.0, im: 0.0 },
    Complex { re: -1.0, im: 0.0 },
];

/// Logical data subcarrier indices in transmission order:
/// `[-26,-22], [-20,-8], [-6,-1], [1,6], [8,20], [22,26]` (Sec. V-A4).
pub fn data_subcarrier_indices() -> Vec<i32> {
    let mut idx = Vec::with_capacity(DATA_SUBCARRIERS);
    for k in -26..=26 {
        if k == 0 || PILOT_INDICES.contains(&k) {
            continue;
        }
        idx.push(k);
    }
    idx
}

/// Converts a logical subcarrier index (`-32..=31`, 0 = DC) to its FFT bin
/// (`0..64`).
///
/// # Panics
///
/// Panics when the index is outside `-32..=31`.
pub fn subcarrier_to_bin(k: i32) -> usize {
    assert!((-32..=31).contains(&k), "subcarrier index {k} out of range");
    if k >= 0 {
        k as usize
    } else {
        (FFT_SIZE as i32 + k) as usize
    }
}

/// Converts an FFT bin (`0..64`) to its logical subcarrier index.
///
/// # Panics
///
/// Panics when `bin >= 64`.
pub fn bin_to_subcarrier(bin: usize) -> i32 {
    assert!(bin < FFT_SIZE, "bin {bin} out of range");
    if bin < FFT_SIZE / 2 {
        bin as i32
    } else {
        bin as i32 - FFT_SIZE as i32
    }
}

/// Builds the 64-entry frequency-domain vector from 48 data points
/// (pilots and nulls inserted automatically).
///
/// # Panics
///
/// Panics unless `data.len() == 48`.
pub fn allocate_subcarriers(data: &[Complex]) -> [Complex; FFT_SIZE] {
    assert_eq!(data.len(), DATA_SUBCARRIERS, "need exactly 48 data points");
    let mut spectrum = [Complex::ZERO; FFT_SIZE];
    for (point, k) in data.iter().zip(data_subcarrier_indices()) {
        spectrum[subcarrier_to_bin(k)] = *point;
    }
    for (v, k) in PILOT_VALUES.iter().zip(PILOT_INDICES) {
        spectrum[subcarrier_to_bin(k)] = *v;
    }
    spectrum
}

/// Extracts the 48 data points from a 64-entry frequency-domain vector.
///
/// # Panics
///
/// Panics unless `spectrum.len() == 64`.
pub fn extract_data_subcarriers(spectrum: &[Complex]) -> Vec<Complex> {
    assert_eq!(spectrum.len(), FFT_SIZE, "need a 64-entry spectrum");
    data_subcarrier_indices()
        .into_iter()
        .map(|k| spectrum[subcarrier_to_bin(k)])
        .collect()
}

/// Synthesizes one 80-sample time-domain OFDM symbol from a 64-entry
/// spectrum: IFFT then cyclic prefix.
///
/// # Panics
///
/// Panics unless `spectrum.len() == 64`.
pub fn synthesize_symbol(spectrum: &[Complex]) -> Vec<Complex> {
    let mut out = Vec::with_capacity(SYMBOL_LEN);
    synthesize_symbol_into(spectrum, &mut out);
    out
}

/// [`synthesize_symbol`] appending the 80-sample symbol to `out` (not
/// cleared — block pipelines concatenate symbols directly).
///
/// # Panics
///
/// Panics unless `spectrum.len() == 64`.
pub fn synthesize_symbol_into(spectrum: &[Complex], out: &mut Vec<Complex>) {
    assert_eq!(spectrum.len(), FFT_SIZE, "need a 64-entry spectrum");
    let mut body = [Complex::ZERO; FFT_SIZE];
    body.copy_from_slice(spectrum);
    ctc_dsp::fft::ifft_in_place(&mut body).expect("64 is a power of two");
    out.extend_from_slice(&body[FFT_SIZE - CP_LEN..]);
    out.extend_from_slice(&body);
}

/// Recovers the 64-entry spectrum from one received 80-sample symbol
/// (drops the CP, FFTs the rest) — also the first step of the attacker's
/// reverse pipeline on the *ZigBee* waveform ("the WiFi attacker has to
/// leave out the first 0.8 µs ... and emulate the following 3.2 µs").
///
/// # Panics
///
/// Panics unless `symbol.len() == 80`.
pub fn analyze_symbol(symbol: &[Complex]) -> Vec<Complex> {
    assert_eq!(symbol.len(), SYMBOL_LEN, "need an 80-sample symbol");
    fft64(&symbol[CP_LEN..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn data_indices_match_standard() {
        let idx = data_subcarrier_indices();
        assert_eq!(idx.len(), 48);
        assert_eq!(idx[0], -26);
        assert_eq!(*idx.last().unwrap(), 26);
        assert!(!idx.contains(&0));
        for p in PILOT_INDICES {
            assert!(!idx.contains(&p));
        }
        // The six contiguous runs from Sec. V-A4.
        assert!(idx.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn bin_mapping_roundtrip() {
        for k in -32..=31 {
            assert_eq!(bin_to_subcarrier(subcarrier_to_bin(k)), k);
        }
        assert_eq!(subcarrier_to_bin(-1), 63);
        assert_eq!(subcarrier_to_bin(1), 1);
        assert_eq!(subcarrier_to_bin(0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_subcarrier_panics() {
        let _ = subcarrier_to_bin(40);
    }

    #[test]
    fn allocation_places_pilots_and_nulls() {
        let data = vec![Complex::ONE; 48];
        let spec = allocate_subcarriers(&data);
        assert_eq!(spec[subcarrier_to_bin(0)], Complex::ZERO); // DC null
        assert_eq!(spec[subcarrier_to_bin(-21)], Complex::ONE);
        assert_eq!(spec[subcarrier_to_bin(21)], Complex::new(-1.0, 0.0));
        for k in 27..=31 {
            assert_eq!(spec[subcarrier_to_bin(k)], Complex::ZERO);
            assert_eq!(spec[subcarrier_to_bin(-k - 1)], Complex::ZERO);
        }
    }

    #[test]
    fn extract_inverts_allocate() {
        let data: Vec<Complex> = (0..48)
            .map(|i| Complex::new(i as f64, -(i as f64) / 2.0))
            .collect();
        let spec = allocate_subcarriers(&data);
        assert_eq!(extract_data_subcarriers(&spec), data);
    }

    #[test]
    fn symbol_has_cyclic_prefix() {
        let data: Vec<Complex> = (0..48).map(|i| Complex::cis(i as f64 * 0.37)).collect();
        let sym = synthesize_symbol(&allocate_subcarriers(&data));
        assert_eq!(sym.len(), SYMBOL_LEN);
        for i in 0..CP_LEN {
            assert!(
                (sym[i] - sym[FFT_SIZE + i]).norm() < 1e-12,
                "CP mismatch at {i}"
            );
        }
    }

    #[test]
    fn analyze_inverts_synthesize() {
        let data: Vec<Complex> = (0..48)
            .map(|i| Complex::new((i as f64 * 1.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let spec = allocate_subcarriers(&data);
        let sym = synthesize_symbol(&spec);
        let back = analyze_symbol(&sym);
        for (a, b) in spec.iter().zip(&back) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    proptest! {
        #[test]
        fn spectrum_roundtrip(values in proptest::collection::vec(-3.0f64..3.0, 96)) {
            let data: Vec<Complex> = values.chunks(2).map(|c| Complex::new(c[0], c[1])).collect();
            let spec = allocate_subcarriers(&data);
            let sym = synthesize_symbol(&spec);
            let back = analyze_symbol(&sym);
            let got = extract_data_subcarriers(&back);
            for (a, b) in data.iter().zip(&got) {
                prop_assert!((*a - *b).norm() < 1e-9);
            }
        }
    }
}
