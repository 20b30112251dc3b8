//! The classifier's features come in two halves: the cumulant half (Ĉ40,
//! Ĉ42 and the point count, from one cumulant pass) and the line half
//! (`|Ĉ40|` and the line frequency, from the 301-point fourth-power line
//! search). Paths that decide on the ideal-channel DE² estimate only the
//! cumulant half. On any point set, including all-zero and single-point
//! sets, the cheap path must give the bits of the full estimate:
//! `assumption.de_squared(&Features::estimate(points))`, under both channel
//! assumptions.

use ctc_core::defense::{
    constellation_from_reception, features_from_reception, ChannelAssumption, CumulantFeatures,
    Detector, Features,
};
use ctc_dsp::Complex;
use ctc_zigbee::{Receiver, Reception};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ASSUMPTIONS: [ChannelAssumption; 2] = [ChannelAssumption::Ideal, ChannelAssumption::Real];

/// `len` points of one of four shapes: all zero, a single point (`len`
/// ignored), a noisy QPSK cloud turning at a line-search rate, or a
/// uniform square. Scales span six decades.
fn points(len: usize, shape: u8, rng: &mut StdRng) -> Vec<Complex> {
    let scale = 10f64.powf(rng.gen_range(-3.0..3.0));
    let uniform =
        |rng: &mut StdRng| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)) * scale;
    match shape {
        0 => vec![Complex::ZERO; len],
        1 => vec![uniform(rng)],
        2..=4 => {
            let noise: f64 = rng.gen_range(0.0..0.6);
            let nu: f64 = rng.gen_range(-0.3..0.3) / 4.0;
            let phase: f64 = rng.gen_range(-3.2..3.2);
            (0..len)
                .map(|i| {
                    let symbol =
                        Complex::cis(std::f64::consts::FRAC_PI_2 * rng.gen_range(0..4) as f64);
                    let jitter =
                        Complex::new(rng.gen_range(-noise..=noise), rng.gen_range(-noise..=noise));
                    (symbol + jitter) * Complex::cis(phase + nu * i as f64) * scale
                })
                .collect()
        }
        _ => (0..len).map(|_| uniform(rng)).collect(),
    }
}

/// A reception whose constellation is `midpoints` rotated by `-π/4`.
fn reception(midpoints: Vec<Complex>) -> Reception {
    let mut r = Receiver::usrp().receive(&[]);
    r.raw_chip_samples.midpoints = midpoints;
    r
}

/// The cumulant half's bits, NaN included.
fn bits(c: &CumulantFeatures) -> (u64, u64, u64, usize) {
    (
        c.c40.re.to_bits(),
        c.c40.im.to_bits(),
        c.c42.to_bits(),
        c.sample_count,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_cheap_path_gives_the_full_estimates_bits(
        len in 1usize..4097,
        shape in 0u8..8,
        seed in any::<u64>(),
    ) {
        let pts = points(len, shape, &mut StdRng::seed_from_u64(seed));
        let full = Features::estimate(&pts).unwrap();
        let cheap = CumulantFeatures::estimate(&pts).unwrap();
        prop_assert_eq!(bits(&cheap), bits(&full.cumulants));
        prop_assert_eq!(cheap.de_squared_ideal().to_bits(), full.de_squared_ideal().to_bits());
        for assumption in ASSUMPTIONS {
            let statistic = Detector::new(assumption).statistic_for_points(&pts).unwrap();
            prop_assert_eq!(
                statistic.to_bits(),
                assumption.de_squared(&full).to_bits(),
                "{:?}, {} points of shape {}", assumption, pts.len(), shape
            );
        }
    }

    #[test]
    fn aggregation_and_calibration_keep_the_full_estimates_bits(
        len in 1usize..2049,
        shapes in proptest::collection::vec(0u8..8, 1..5),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let receptions: Vec<Reception> = shapes
            .iter()
            .map(|&shape| reception(points(len, shape, &mut rng)))
            .collect();
        let pooled: Vec<Complex> = receptions.iter().flat_map(constellation_from_reception).collect();
        let full = Features::estimate(&pooled).unwrap();
        let (zig, emu) = receptions.split_at(receptions.len() / 2);
        for assumption in ASSUMPTIONS {
            let v = Detector::new(assumption).detect_aggregated(&receptions).unwrap();
            prop_assert_eq!(v.de_squared.to_bits(), assumption.de_squared(&full).to_bits());
            prop_assert_eq!(bits(&v.features), bits(&full.cumulants));

            let stats = |rs: &[Reception]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| features_from_reception(r).ok())
                    .map(|f| assumption.de_squared(&f))
                    .collect()
            };
            let expected = Detector::calibrate_from_stats(assumption, &stats(zig), &stats(emu));
            let calibrated = Detector::calibrate(assumption, zig, emu);
            prop_assert_eq!(calibrated.threshold().to_bits(), expected.threshold().to_bits());
        }
    }
}

#[test]
fn calibration_finds_the_same_gap_as_the_full_estimate() {
    // Clean unrotated QPSK clouds against uniform ones, so a gap exists
    // under both assumptions and the comparison above is not only of the
    // Q = 0.5 fallback.
    let mut rng = StdRng::seed_from_u64(11);
    let qpsk = |rng: &mut StdRng| {
        let quarter = std::f64::consts::FRAC_PI_2;
        let pts = (0..512)
            .map(|_| {
                let k = rng.gen_range(0..4) as f64;
                Complex::cis(quarter / 2.0 + quarter * k)
                    + Complex::new(rng.gen_range(-0.1..0.1), rng.gen_range(-0.1..0.1))
            })
            .collect();
        reception(pts)
    };
    let zig: Vec<Reception> = (0..4).map(|_| qpsk(&mut rng)).collect();
    let emu: Vec<Reception> = (0..4)
        .map(|_| reception(points(512, 7, &mut rng)))
        .collect();
    for assumption in ASSUMPTIONS {
        let stat = |r: &Reception| assumption.de_squared(&features_from_reception(r).unwrap());
        let zig_stats: Vec<f64> = zig.iter().map(stat).collect();
        let emu_stats: Vec<f64> = emu.iter().map(stat).collect();
        let expected = Detector::calibrate_from_stats(assumption, &zig_stats, &emu_stats);
        assert_ne!(expected.threshold(), 0.5, "{assumption:?}: no gap");
        let calibrated = Detector::calibrate(assumption, &zig, &emu);
        assert_eq!(
            calibrated.threshold().to_bits(),
            expected.threshold().to_bits()
        );
    }
}
