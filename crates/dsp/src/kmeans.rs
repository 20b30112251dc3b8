//! k-means clustering on the complex plane.
//!
//! The paper (Sec. VI-C, eq. (12)) clusters the received chip samples with
//! k-means (k = 4) to visualize the reconstructed constellation and its phase
//! rotation in the real environment. Initialization uses the k-means++
//! seeding of Bradley & Fayyad-style refinement so results are deterministic
//! given an RNG seed.

use crate::complex::Complex;
use crate::simd;
use rand::Rng;

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Final cluster centroids (length `k`).
    pub centroids: Vec<Complex>,
    /// For each input point, the index of its centroid.
    pub assignments: Vec<usize>,
    /// Final within-cluster sum of squares (the objective of eq. (12)).
    pub inertia: f64,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

/// Error cases for [`kmeans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KmeansError {
    /// `k` was zero.
    ZeroClusters,
    /// Fewer points than clusters.
    TooFewPoints {
        /// Number of points supplied.
        points: usize,
        /// Number of clusters requested.
        k: usize,
    },
}

impl std::fmt::Display for KmeansError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KmeansError::ZeroClusters => write!(f, "k must be at least 1"),
            KmeansError::TooFewPoints { points, k } => {
                write!(f, "need at least {k} points for {k} clusters, got {points}")
            }
        }
    }
}

impl std::error::Error for KmeansError {}

/// Runs Lloyd's algorithm with k-means++ initialization.
///
/// Deterministic for a given `rng` state. Converges when assignments stop
/// changing or after `max_iter` rounds.
///
/// # Errors
///
/// Returns [`KmeansError`] if `k == 0` or there are fewer points than
/// clusters.
///
/// # Examples
///
/// ```
/// use ctc_dsp::{kmeans::kmeans, Complex};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let pts = [
///     Complex::new(1.0, 1.0), Complex::new(1.1, 0.9),
///     Complex::new(-1.0, -1.0), Complex::new(-0.9, -1.1),
/// ];
/// let res = kmeans(&pts, 2, 100, &mut rng)?;
/// assert_eq!(res.centroids.len(), 2);
/// # Ok::<(), ctc_dsp::kmeans::KmeansError>(())
/// ```
pub fn kmeans<R: Rng>(
    points: &[Complex],
    k: usize,
    max_iter: usize,
    rng: &mut R,
) -> Result<Clustering, KmeansError> {
    if k == 0 {
        return Err(KmeansError::ZeroClusters);
    }
    if points.len() < k {
        return Err(KmeansError::TooFewPoints {
            points: points.len(),
            k,
        });
    }

    // --- k-means++ seeding ---
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())]);
    let mut dist2: Vec<f64> = points
        .iter()
        .map(|p| (*p - centroids[0]).norm_sqr())
        .collect();
    while centroids.len() < k {
        let total: f64 = dist2.iter().sum();
        let next = if total <= f64::EPSILON {
            // All points identical to an existing centroid; pick any.
            points[rng.gen_range(0..points.len())]
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = points.len() - 1;
            for (i, &d) in dist2.iter().enumerate() {
                if target <= d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            points[chosen]
        };
        centroids.push(next);
        for (i, p) in points.iter().enumerate() {
            dist2[i] = dist2[i].min((*p - next).norm_sqr());
        }
    }

    // --- Lloyd iterations ---
    // The lane kernel assigns every point (strict `<`: the lowest index
    // wins ties and a NaN distance never wins); the cluster sums then add
    // the points in point order.
    let mut assignments = vec![0usize; points.len()];
    let mut sums = vec![Complex::ZERO; k];
    let mut counts = vec![0usize; k];
    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        let changed = simd::nearest_centroids(points, &centroids, &mut assignments);
        sums.fill(Complex::ZERO);
        counts.fill(0);
        for (p, &a) in points.iter().zip(&assignments) {
            sums[a] += *p;
            counts[a] += 1;
        }
        for ((centroid, &sum), &count) in centroids.iter_mut().zip(&sums).zip(&counts) {
            if count > 0 {
                *centroid = sum / count as f64;
            }
            // Empty clusters keep their previous centroid.
        }
        if !changed && it > 0 {
            break;
        }
    }

    let inertia = points
        .iter()
        .zip(&assignments)
        .map(|(p, &a)| (*p - centroids[a]).norm_sqr())
        .sum();

    Ok(Clustering {
        centroids,
        assignments,
        inertia,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quad_cloud(rot: f64, n_per: usize, noise: f64, seed: u64) -> Vec<Complex> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Complex> = (0..4)
            .map(|k| {
                Complex::cis(
                    std::f64::consts::FRAC_PI_4 + k as f64 * std::f64::consts::FRAC_PI_2 + rot,
                )
            })
            .collect();
        let mut pts = Vec::new();
        for &c in &centers {
            for _ in 0..n_per {
                pts.push(
                    c + Complex::new(rng.gen_range(-noise..noise), rng.gen_range(-noise..noise)),
                );
            }
        }
        pts
    }

    /// The Lloyd loop as it was before the single-pass rewrite: a
    /// two-pass iteration with per-iteration `sums`/`counts` and a
    /// branching nearest-centroid search. Seeding is shared.
    fn kmeans_two_pass<R: Rng>(
        points: &[Complex],
        k: usize,
        max_iter: usize,
        rng: &mut R,
    ) -> Clustering {
        let mut centroids = kmeans(points, k, 0, rng).unwrap().centroids;
        let mut assignments = vec![0usize; points.len()];
        let mut iterations = 0;
        for it in 0..max_iter {
            iterations = it + 1;
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = (*p - *centroid).norm_sqr();
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if assignments[i] != best {
                    assignments[i] = best;
                    changed = true;
                }
            }
            let mut sums = vec![Complex::ZERO; k];
            let mut counts = vec![0usize; k];
            for (i, p) in points.iter().enumerate() {
                sums[assignments[i]] += *p;
                counts[assignments[i]] += 1;
            }
            for c in 0..k {
                if counts[c] > 0 {
                    centroids[c] = sums[c] / counts[c] as f64;
                }
            }
            if !changed && it > 0 {
                break;
            }
        }
        let inertia = points
            .iter()
            .zip(&assignments)
            .map(|(p, &a)| (*p - centroids[a]).norm_sqr())
            .sum();
        Clustering {
            centroids,
            assignments,
            inertia,
            iterations,
        }
    }

    /// Bit patterns of a clustering, with every NaN as one value (a NaN's
    /// sign and payload are unspecified in Rust).
    fn bits(c: &Clustering) -> (Vec<(u64, u64)>, Vec<usize>, u64, usize) {
        let canonical = |f: f64| {
            if f.is_nan() {
                f64::NAN.to_bits()
            } else {
                f.to_bits()
            }
        };
        (
            c.centroids
                .iter()
                .map(|v| (canonical(v.re), canonical(v.im)))
                .collect(),
            c.assignments.clone(),
            canonical(c.inertia),
            c.iterations,
        )
    }

    #[test]
    fn single_pass_lloyd_matches_the_two_pass_loop_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        for case in 0..300u64 {
            let n = rng.gen_range(1..200usize);
            let k = rng.gen_range(1..=n.min(6));
            let mut pts: Vec<Complex> = match case % 4 {
                // A QPSK cloud, like the EVM extractor's input.
                0 => quad_cloud(rng.gen_range(-1.0..1.0), n.div_ceil(4), 0.3, case),
                // A coarse integer lattice: duplicates and equidistant ties.
                1 => (0..n)
                    .map(|_| {
                        Complex::new(rng.gen_range(-2..=2) as f64, rng.gen_range(-2..=2) as f64)
                    })
                    .collect(),
                // Every point the same.
                2 => vec![Complex::new(0.5, -0.5); n],
                _ => (0..n)
                    .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                    .collect(),
            };
            if case % 5 == 0 {
                let at = rng.gen_range(0..pts.len());
                pts[at] = Complex::new(f64::NAN, 0.0);
            }
            if case % 7 == 0 {
                let at = rng.gen_range(0..pts.len());
                pts[at] = Complex::new(f64::INFINITY, 1.0);
            }
            let k = k.min(pts.len());
            let max_iter = rng.gen_range(0..40);
            let seed = rng.gen::<u64>();
            let got = kmeans(&pts, k, max_iter, &mut StdRng::seed_from_u64(seed)).unwrap();
            let want = kmeans_two_pass(&pts, k, max_iter, &mut StdRng::seed_from_u64(seed));
            assert_eq!(
                bits(&got),
                bits(&want),
                "case {case}: n={} k={k}",
                pts.len()
            );
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            kmeans(&[Complex::ONE], 0, 10, &mut rng),
            Err(KmeansError::ZeroClusters)
        );
        assert!(matches!(
            kmeans(&[Complex::ONE], 2, 10, &mut rng),
            Err(KmeansError::TooFewPoints { points: 1, k: 2 })
        ));
    }

    #[test]
    fn finds_four_qpsk_clusters() {
        let pts = quad_cloud(0.0, 100, 0.15, 42);
        let mut rng = StdRng::seed_from_u64(1);
        let res = kmeans(&pts, 4, 200, &mut rng).unwrap();
        assert_eq!(res.centroids.len(), 4);
        // Each centroid should be within 0.1 of a true QPSK point.
        for c in &res.centroids {
            let best = (0..4)
                .map(|k| {
                    (Complex::cis(
                        std::f64::consts::FRAC_PI_4 + k as f64 * std::f64::consts::FRAC_PI_2,
                    ) - *c)
                        .norm()
                })
                .fold(f64::INFINITY, f64::min);
            assert!(best < 0.1, "centroid {c} far from any QPSK point");
        }
        // Inertia should be roughly 4 * n_per * E[noise^2].
        assert!(res.inertia < 400.0 * 0.15 * 0.15 * 2.0);
    }

    #[test]
    fn recovers_rotated_constellation() {
        let rot = 0.4;
        let pts = quad_cloud(rot, 80, 0.1, 7);
        let mut rng = StdRng::seed_from_u64(2);
        let res = kmeans(&pts, 4, 200, &mut rng).unwrap();
        // Mean centroid phase offset from pi/4 grid should recover rot.
        let mut offsets = Vec::new();
        for c in &res.centroids {
            let base = std::f64::consts::FRAC_PI_4;
            let ang = c.arg();
            let rel = (ang - base).rem_euclid(std::f64::consts::FRAC_PI_2);
            offsets.push(rel.min(std::f64::consts::FRAC_PI_2 - rel));
        }
        let mean_off: f64 = offsets.iter().sum::<f64>() / offsets.len() as f64;
        assert!(
            (mean_off - rot).abs() < 0.07,
            "estimated rotation {mean_off} vs {rot}"
        );
    }

    #[test]
    fn k_equals_points_gives_zero_inertia() {
        let pts = vec![
            Complex::new(0.0, 0.0),
            Complex::new(5.0, 0.0),
            Complex::new(0.0, 5.0),
        ];
        let mut rng = StdRng::seed_from_u64(3);
        let res = kmeans(&pts, 3, 50, &mut rng).unwrap();
        assert!(res.inertia < 1e-20);
    }

    #[test]
    fn identical_points_dont_hang() {
        let pts = vec![Complex::ONE; 10];
        let mut rng = StdRng::seed_from_u64(4);
        let res = kmeans(&pts, 3, 50, &mut rng).unwrap();
        assert!(res.inertia < 1e-20);
        assert!(res.iterations <= 50);
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = quad_cloud(0.2, 50, 0.2, 9);
        let r1 = kmeans(&pts, 4, 100, &mut StdRng::seed_from_u64(5)).unwrap();
        let r2 = kmeans(&pts, 4, 100, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn assignments_match_nearest_centroid() {
        let pts = quad_cloud(0.0, 30, 0.1, 11);
        let mut rng = StdRng::seed_from_u64(6);
        let res = kmeans(&pts, 4, 100, &mut rng).unwrap();
        for (p, &a) in pts.iter().zip(&res.assignments) {
            let d_assigned = (*p - res.centroids[a]).norm_sqr();
            for c in &res.centroids {
                assert!(d_assigned <= (*p - *c).norm_sqr() + 1e-12);
            }
        }
    }
}
