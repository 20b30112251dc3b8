//! The classifier's features come in two halves: the cumulant half (Ĉ40,
//! Ĉ42 and the point count, from one cumulant pass) and the line half
//! (`|Ĉ40|` and the line frequency, from the 301-point fourth-power line
//! search). Paths that decide on the ideal-channel DE² estimate only the
//! cumulant half. On any point set, including all-zero and single-point
//! sets, the cheap path must give the bits of the full estimate:
//! `assumption.de_squared(&Features::estimate(points))`, under both channel
//! assumptions.
//!
//! The line half's search screens the grid with a chirp-z transform and
//! evaluates exactly only the points the screen cannot rule out. Whatever
//! the input, it must give the bits of the dense search that evaluates all
//! 301 points.

use ctc_core::defense::{
    constellation_from_reception, features_from_reception, ChannelAssumption, CumulantFeatures,
    Detector, Features,
};
use ctc_dsp::cumulants::Cumulants;
use ctc_dsp::{simd, Complex};
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

/// The line half as the dense search computed it before the chirp-z
/// screen: every one of the 301 grid points through `dtft_norms`, the first
/// strictly greatest `m / d` in grid order, normalized by `C̃21²`. Returns
/// the bits of `(|Ĉ40|, line frequency)`.
fn dense_line(points: &[Complex]) -> (u64, u64) {
    let z: Vec<Complex> = points
        .iter()
        .map(|&p| {
            let p2 = p * p;
            p2 * p2
        })
        .collect();
    let nus: Vec<f64> = (0..301).map(grid).collect();
    let mut mags = vec![0.0; nus.len()];
    simd::dtft_norms(&z, &nus, &mut mags);
    let d = z.len() as f64;
    let mut best_mag = 0.0f64;
    let mut best_nu = 0.0f64;
    for (&nu, &m) in nus.iter().zip(&mags) {
        let mag = m / d;
        if mag > best_mag {
            best_mag = mag;
            best_nu = nu;
        }
    }
    let c21 = Cumulants::estimate(points).unwrap().c21();
    let c40 = if c21 > 0.0 {
        best_mag / (c21 * c21)
    } else {
        0.0
    };
    (c40.to_bits(), best_nu.to_bits())
}

fn assert_dense_bits(points: &[Complex], label: &str) {
    let f = Features::estimate(points).unwrap();
    assert_eq!(
        (f.c40_magnitude.to_bits(), f.line_frequency.to_bits()),
        dense_line(points),
        "{label}: {} points, got |C40| {} at {}",
        points.len(),
        f.c40_magnitude,
        f.line_frequency
    );
}

/// QPSK points whose fourth powers are the tone `e^{j·nu·n}` scaled by
/// `scale⁴`, plus a little noise.
fn tone_points(len: usize, nu: f64, scale: f64, rng: &mut StdRng) -> Vec<Complex> {
    (0..len)
        .map(|i| {
            let symbol = Complex::cis(std::f64::consts::FRAC_PI_2 * rng.gen_range(0..4) as f64);
            let jitter = Complex::new(rng.gen_range(-0.05..0.05), rng.gen_range(-0.05..0.05));
            (symbol + jitter) * Complex::cis(nu * i as f64 / 4.0) * scale
        })
        .collect()
}

/// The line search's grid frequency `s`, as the search computes it.
fn grid(s: usize) -> f64 {
    -0.3 + 2.0 * 0.3 * s as f64 / 300.0
}

#[test]
fn the_screened_line_search_gives_the_dense_bits_at_edge_lengths() {
    let mut rng = StdRng::seed_from_u64(16);
    let lens = (1..=8).chain([300, 301, 302, 429, 723, 724, 725, 726, 20_000]);
    for len in lens {
        for shape in 0u8..8 {
            assert_dense_bits(&points(len, shape, &mut rng), &format!("shape {shape}"));
        }
        let nu = rng.gen_range(-0.3..0.3);
        assert_dense_bits(&tone_points(len, nu, 1.0, &mut rng), "tone");
    }
}

#[test]
fn the_screened_line_search_gives_the_dense_bits_on_and_between_grid_tones() {
    let mut rng = StdRng::seed_from_u64(17);
    for s in [0usize, 1, 77, 150, 151, 299, 300] {
        for len in [64usize, 429, 2000] {
            assert_dense_bits(&tone_points(len, grid(s), 1.0, &mut rng), "on grid");
            if s < 300 {
                let mid = 0.5 * (grid(s) + grid(s + 1));
                assert_dense_bits(&tone_points(len, mid, 1.0, &mut rng), "midway");
            }
            // Noise-free: every symbol's fourth power is exactly the tone.
            let clean: Vec<Complex> = (0..len)
                .map(|i| Complex::cis(grid(s) * i as f64 / 4.0))
                .collect();
            assert_dense_bits(&clean, "clean tone");
        }
    }
}

#[test]
fn the_screened_line_search_gives_the_dense_bits_at_extreme_scales() {
    let mut rng = StdRng::seed_from_u64(18);
    // |z| = |p|⁴: points at 2^±125 put z at 2^±500, outside the screen's
    // range; 2^±75 puts z at 2^±300, inside it; 2^-265 makes z subnormal.
    for scale_log2 in [-265, -125, -75, -20, 20, 75, 125] {
        let scale = 2f64.powi(scale_log2);
        for len in [1usize, 5, 429, 3000] {
            let nu = rng.gen_range(-0.3..0.3);
            assert_dense_bits(
                &tone_points(len, nu, scale, &mut rng),
                &format!("2^{scale_log2}"),
            );
        }
    }
    // One subnormal fourth power among normal ones.
    let mut pts = tone_points(429, 0.1, 1.0, &mut rng);
    pts[17] = Complex::new(2f64.powi(-265), 0.0);
    assert_dense_bits(&pts, "one subnormal z");
}

#[test]
fn the_screened_line_search_gives_the_dense_bits_on_degenerate_input() {
    let mut rng = StdRng::seed_from_u64(19);
    for len in [1usize, 4, 429, 725] {
        assert_dense_bits(&vec![Complex::ZERO; len], "all zero");
        assert_dense_bits(&vec![Complex::new(0.3, -0.7); len], "constant");
        // Real fourth powers: |X(ν)| = |X(−ν)|, so mirror grid points tie.
        let real: Vec<Complex> = (0..len)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        assert_dense_bits(&real, "real");
        let cosine: Vec<Complex> = (0..len)
            .map(|i| Complex::new((2.0 + (0.2 * i as f64).cos()).powf(0.25), 0.0))
            .collect();
        assert_dense_bits(&cosine, "real cosine");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut pts = tone_points(len, 0.05, 1.0, &mut rng);
            pts[len / 2] = Complex::new(1.0, bad);
            assert_dense_bits(&pts, &format!("one {bad}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn the_screened_line_search_gives_the_dense_bits(
        len in 1usize..20_001,
        shape in 0u8..8,
        seed in any::<u64>(),
    ) {
        let pts = points(len, shape, &mut StdRng::seed_from_u64(seed));
        assert_dense_bits(&pts, &format!("shape {shape}"));
    }
}
