//! IEEE 802.15.4 symbol-to-chip spreading table (2.4 GHz O-QPSK PHY).
//!
//! Each 4-bit data symbol maps to one of 16 nearly-orthogonal 32-chip
//! pseudo-noise sequences (std. Table 73). Symbols 1–7 are successive
//! 4-chip right rotations of symbol 0; symbols 8–15 repeat 0–7 with every
//! odd-indexed chip complemented (a conjugation on the Q branch).

/// Number of chips per ZigBee symbol.
pub const CHIPS_PER_SYMBOL: usize = 32;

/// Number of distinct data symbols (one hex digit each).
pub const SYMBOL_COUNT: usize = 16;

/// Chip sequence of data symbol 0, MSB-first chip order `c0..c31`.
const SYMBOL0: [u8; CHIPS_PER_SYMBOL] = [
    1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0,
];

/// The full 16×32 spreading table, generated once at first use.
pub fn chip_table() -> &'static [[u8; CHIPS_PER_SYMBOL]; SYMBOL_COUNT] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[u8; CHIPS_PER_SYMBOL]; SYMBOL_COUNT]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [[0u8; CHIPS_PER_SYMBOL]; SYMBOL_COUNT];
        table[0] = SYMBOL0;
        for s in 1..8 {
            // Cyclic right rotation by 4 chips of the previous sequence.
            let prev = table[s - 1];
            for (c, chip) in table[s].iter_mut().enumerate() {
                *chip = prev[(c + CHIPS_PER_SYMBOL - 4) % CHIPS_PER_SYMBOL];
            }
        }
        for s in 8..16 {
            let base_row = table[s - 8];
            for (c, chip) in table[s].iter_mut().enumerate() {
                *chip = if c % 2 == 1 {
                    1 - base_row[c]
                } else {
                    base_row[c]
                };
            }
        }
        table
    })
}

/// The spreading table as bit masks: bit `c` of row `s` is chip `c` of
/// symbol `s`, the form [`despread_hard_bits`] compares against with one
/// XOR and popcount per row.
fn mask_table() -> &'static [u32; SYMBOL_COUNT] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; SYMBOL_COUNT]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|s| pack_chips(&chip_table()[s])))
}

/// The spreading table as bipolar values (`0 -> -1.0`, `1 -> +1.0`),
/// chip-major: entry `c * SYMBOL_COUNT + s` is chip `c` of symbol `s`. The
/// layout [`ctc_dsp::simd::dot_f64_rows`] correlates soft chips against
/// all 16 sequences in, lanes across sequences.
fn bipolar_columns() -> &'static [f64; CHIPS_PER_SYMBOL * SYMBOL_COUNT] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; CHIPS_PER_SYMBOL * SYMBOL_COUNT]> = OnceLock::new();
    TABLE.get_or_init(|| {
        std::array::from_fn(|e| {
            let (c, s) = (e / SYMBOL_COUNT, e % SYMBOL_COUNT);
            if chip_table()[s][c] == 1 {
                1.0
            } else {
                -1.0
            }
        })
    })
}

/// Spreads one data symbol (0–15) into its 32-chip sequence.
///
/// # Panics
///
/// Panics if `symbol >= 16`.
///
/// # Examples
///
/// ```
/// let chips = ctc_zigbee::chipmap::spread(0);
/// assert_eq!(chips.len(), 32);
/// assert_eq!(&chips[..4], &[1, 1, 0, 1]);
/// ```
pub fn spread(symbol: u8) -> [u8; CHIPS_PER_SYMBOL] {
    assert!(
        (symbol as usize) < SYMBOL_COUNT,
        "ZigBee symbols are 4-bit values, got {symbol}"
    );
    chip_table()[symbol as usize]
}

/// Hamming distance between a received hard-decision chip sequence and a
/// table row.
pub fn hamming(a: &[u8; CHIPS_PER_SYMBOL], b: &[u8; CHIPS_PER_SYMBOL]) -> u32 {
    a.iter().zip(b).map(|(x, y)| u32::from(x != y)).sum()
}

/// Packs hard chip decisions (0/1 values, chip `c` into bit `c`) into the
/// word [`despread_hard_bits`] reads.
fn pack_chips(chips: &[u8; CHIPS_PER_SYMBOL]) -> u32 {
    chips
        .iter()
        .enumerate()
        .fold(0, |bits, (c, &chip)| bits | u32::from(chip == 1) << c)
}

/// Hard-decision despreading: returns the symbol whose chip sequence is
/// nearest in Hamming distance, with the distance itself.
///
/// The caller applies the correlation threshold ("a correlation threshold is
/// defined to control the maximum Hamming distance ... the receiver can
/// tolerate" — Sec. III-B1); sequences above it should be dropped.
pub fn despread_hard(chips: &[u8; CHIPS_PER_SYMBOL]) -> (u8, u32) {
    despread_hard_bits(pack_chips(chips))
}

/// [`despread_hard`] over chips packed by [`pack_chips`] (bit `c` set when
/// chip `c` is 1): the distance to each row is one XOR and a popcount. Ties
/// go to the lowest symbol.
pub(crate) fn despread_hard_bits(chips: u32) -> (u8, u32) {
    let distances = mask_table().map(|row| (chips ^ row).count_ones());
    let mut best_sym = 0u8;
    let mut best_d = u32::MAX;
    for (s, d) in distances.into_iter().enumerate() {
        if d < best_d {
            best_d = d;
            best_sym = s as u8;
        }
    }
    (best_sym, best_d)
}

/// Soft-decision despreading: correlates bipolar soft chip values against
/// every row (`0 -> -1`, `1 -> +1`) and returns the symbol with the largest
/// correlation plus the normalized score in `[-1, 1]`.
///
/// This models the stronger demodulator of commodity ZigBee silicon
/// (CC26x2R1), which decodes reliably where hard-decision USRP pipelines
/// fail (paper Fig. 14b).
///
/// # Panics
///
/// Panics if `soft_chips.len() != 32`.
pub fn despread_soft(soft_chips: &[f64]) -> (u8, f64) {
    assert_eq!(
        soft_chips.len(),
        CHIPS_PER_SYMBOL,
        "need exactly 32 soft chips"
    );
    let energy = ctc_dsp::simd::dot_f64(soft_chips, soft_chips);
    let norm = (energy * CHIPS_PER_SYMBOL as f64).sqrt();
    let mut corr = [0.0; SYMBOL_COUNT];
    ctc_dsp::simd::dot_f64_rows(soft_chips, bipolar_columns(), &mut corr);
    let mut best_sym = 0u8;
    let mut best_score = f64::NEG_INFINITY;
    for (s, &acc) in corr.iter().enumerate() {
        if acc > best_score {
            best_score = acc;
            best_sym = s as u8;
        }
    }
    let score = if norm > 0.0 { best_score / norm } else { 0.0 };
    (best_sym, score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table_rows_match_standard_samples() {
        // Spot-check rows against IEEE 802.15.4 Table 73.
        let t = chip_table();
        let row1: Vec<u8> = "11101101100111000011010100100010"
            .bytes()
            .map(|b| b - b'0')
            .collect();
        assert_eq!(&t[1][..], &row1[..]);
        let row8: Vec<u8> = "10001100100101100000011101111011"
            .bytes()
            .map(|b| b - b'0')
            .collect();
        assert_eq!(&t[8][..], &row8[..]);
        let row15: Vec<u8> = "11001001011000000111011110111000"
            .bytes()
            .map(|b| b - b'0')
            .collect();
        assert_eq!(&t[15][..], &row15[..]);
    }

    #[test]
    fn rows_are_distinct_and_far_apart() {
        let t = chip_table();
        for i in 0..SYMBOL_COUNT {
            for j in (i + 1)..SYMBOL_COUNT {
                let d = hamming(&t[i], &t[j]);
                assert!(d >= 12, "rows {i},{j} too close: {d}");
            }
        }
    }

    #[test]
    fn spread_despread_roundtrip() {
        for s in 0..16u8 {
            let chips = spread(s);
            let (got, d) = despread_hard(&chips);
            assert_eq!(got, s);
            assert_eq!(d, 0);
        }
    }

    #[test]
    #[should_panic(expected = "4-bit")]
    fn spread_rejects_large_symbol() {
        let _ = spread(16);
    }

    #[test]
    fn despread_tolerates_chip_errors() {
        // DSSS error resilience: up to ~5 flipped chips still decode.
        for s in 0..16u8 {
            let mut chips = spread(s);
            for i in [0usize, 7, 13, 21, 30] {
                chips[i] = 1 - chips[i];
            }
            let (got, d) = despread_hard(&chips);
            assert_eq!(got, s, "symbol {s} misdecoded with 5 chip errors");
            assert_eq!(d, 5);
        }
    }

    #[test]
    fn soft_despread_matches_hard_on_clean_chips() {
        for s in 0..16u8 {
            let soft: Vec<f64> = spread(s)
                .iter()
                .map(|&c| if c == 1 { 1.0 } else { -1.0 })
                .collect();
            let (got, score) = despread_soft(&soft);
            assert_eq!(got, s);
            assert!((score - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn soft_despread_handles_attenuation_and_noise() {
        let s = 9u8;
        let soft: Vec<f64> = spread(s)
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let v = if c == 1 { 1.0 } else { -1.0 };
                0.3 * v + 0.1 * ((i * 7) as f64).sin()
            })
            .collect();
        let (got, score) = despread_soft(&soft);
        assert_eq!(got, s);
        assert!(score > 0.8);
    }

    #[test]
    fn soft_despread_zero_input() {
        let (_, score) = despread_soft(&[0.0; 32]);
        assert_eq!(score, 0.0);
    }

    #[test]
    fn popcount_distance_matches_elementwise_hamming() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..2000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let chips: [u8; CHIPS_PER_SYMBOL] = std::array::from_fn(|c| (state >> c) as u8 & 1);
            let mut best = (0u8, u32::MAX);
            for (s, row) in chip_table().iter().enumerate() {
                let d = hamming(&chips, row);
                if d < best.1 {
                    best = (s as u8, d);
                }
            }
            assert_eq!(despread_hard(&chips), best, "chips {chips:?}");
        }
    }

    proptest! {
        #[test]
        fn hard_decode_correct_below_half_min_distance(s in 0u8..16, flips in proptest::collection::hash_set(0usize..32, 0..6)) {
            let mut chips = spread(s);
            for &i in &flips {
                chips[i] = 1 - chips[i];
            }
            let (got, d) = despread_hard(&chips);
            prop_assert_eq!(d as usize, flips.len());
            prop_assert_eq!(got, s);
        }

        #[test]
        fn hamming_symmetric(a in 0u8..16, b in 0u8..16) {
            let ca = spread(a);
            let cb = spread(b);
            prop_assert_eq!(hamming(&ca, &cb), hamming(&cb, &ca));
        }
    }
}
