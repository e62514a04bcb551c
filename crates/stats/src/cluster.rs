//! Agglomerative hierarchical clustering.
//!
//! Palmed groups instructions into *equivalence classes* before selecting
//! basic instructions: two instructions `a` and `b` are interchangeable when
//! their quadratic-benchmark IPC vectors are (approximately) identical, i.e.
//! `∀p. IPC(aapp) ≈ IPC(bbpp)`.  On real measurements equality never holds
//! exactly, so the paper uses hierarchical clustering with a distance
//! threshold instead.  This module implements the classical agglomerative
//! scheme with complete linkage: the distance between two clusters is the
//! largest distance between their members, so every pair inside a cluster
//! is within the threshold.

/// Groups `items` into clusters whose complete-linkage distance stays below
/// `threshold`, using Euclidean distance between feature vectors.
///
/// Returns the cluster index of every item (cluster indices are contiguous
/// starting at zero, ordered by the smallest item index they contain).
///
/// # Panics
///
/// Panics if feature vectors do not all have the same length.
pub fn hierarchical_clusters(items: &[Vec<f64>], threshold: f64) -> Vec<usize> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let dim = items[0].len();
    for (i, v) in items.iter().enumerate() {
        assert_eq!(v.len(), dim, "feature vector {i} has length {} != {dim}", v.len());
    }

    // Pairwise distance matrix between items (not clusters), row-major.  A
    // pair stops accumulating once its partial sum of squares already proves
    // its distance exceeds `threshold`, and is stored as +∞.  This is exact:
    // under round-to-nearest, adding a non-negative term never lowers a sum
    // and `sqrt` is monotone, so the full distance would exceed `threshold`
    // too and no merge could involve the pair, while every distance that is
    // kept is computed term by term as before.  Non-finite features (whose
    // NaNs `f64::max` skips) turn the bound off.
    let finite = items.iter().flatten().all(|x| x.is_finite());
    let bound = if finite { threshold } else { f64::INFINITY };
    let bound_sq = bound * bound;
    let dist = |a: &[f64], b: &[f64]| -> f64 {
        let mut acc = 0.0;
        for (x, y) in a.iter().zip(b) {
            acc += (x - y) * (x - y);
            if acc > bound_sq && acc.sqrt() > bound {
                return f64::INFINITY;
            }
        }
        acc.sqrt()
    };
    let mut point_dist = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = dist(&items[i], &items[j]);
            point_dist[i * n + j] = d;
            point_dist[j * n + i] = d;
        }
    }

    // Active clusters, each a list of item indices.
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

    let cluster_distance = |a: &[usize], b: &[usize]| -> f64 {
        let mut acc = f64::NEG_INFINITY;
        for &i in a {
            for &j in b {
                acc = acc.max(point_dist[i * n + j]);
            }
        }
        acc
    };

    // Greedy agglomeration: repeatedly merge the two closest clusters while
    // their linkage distance stays below the threshold.
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let d = cluster_distance(&clusters[i], &clusters[j]);
                if d <= threshold && best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((i, j, d));
                }
            }
        }
        let Some((i, j, _)) = best else { break };
        let merged = clusters.swap_remove(j);
        clusters[i].extend(merged);
    }

    // Assign contiguous cluster ids ordered by the smallest member index.
    let mut cluster_order: Vec<usize> = (0..clusters.len()).collect();
    cluster_order.sort_by_key(|&c| *clusters[c].iter().min().expect("non-empty cluster"));
    let mut assignment = vec![0usize; n];
    for (new_id, &c) in cluster_order.iter().enumerate() {
        for &item in &clusters[c] {
            assignment[item] = new_id;
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_gives_empty_assignment() {
        assert!(hierarchical_clusters(&[], 0.1).is_empty());
    }

    #[test]
    fn identical_points_collapse_to_one_cluster() {
        let items = vec![vec![1.0, 2.0]; 5];
        let a = hierarchical_clusters(&items, 1e-9);
        assert!(a.iter().all(|&c| c == 0));
    }

    #[test]
    fn distant_points_stay_separate() {
        let items = vec![vec![0.0], vec![10.0], vec![20.0]];
        let a = hierarchical_clusters(&items, 1.0);
        assert_eq!(a, vec![0, 1, 2]);
        // Points 0.9 apart form a chain; complete linkage refuses to merge
        // the extremes (distance 1.8 > 1.0), so the chain splits.
        let chain = vec![vec![0.0], vec![0.9], vec![1.8]];
        let c = hierarchical_clusters(&chain, 1.0);
        assert!(c.iter().max().copied().unwrap() >= 1);
    }

    #[test]
    fn two_well_separated_groups() {
        let items =
            vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1], vec![5.0, 5.0], vec![5.1, 5.0]];
        let a = hierarchical_clusters(&items, 0.5);
        assert_eq!(a[0], a[1]);
        assert_eq!(a[0], a[2]);
        assert_eq!(a[3], a[4]);
        assert_ne!(a[0], a[3]);
    }

    #[test]
    fn cluster_ids_are_contiguous_and_ordered() {
        let items = vec![vec![100.0], vec![0.0], vec![100.1], vec![0.1]];
        let a = hierarchical_clusters(&items, 0.5);
        // Item 0 defines cluster 0 (first by index), item 1 defines cluster 1.
        assert_eq!(a, vec![0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn mismatched_dimensions_panic() {
        let items = vec![vec![0.0], vec![0.0, 1.0]];
        hierarchical_clusters(&items, 0.5);
    }

    /// The routine as it was before distances were threshold-bounded: every
    /// point distance computed in full.  The oracle of
    /// `bounded_distances_match_the_full_distance_oracle`.
    fn reference_clusters(items: &[Vec<f64>], threshold: f64) -> Vec<usize> {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let dim = items[0].len();
        for (i, v) in items.iter().enumerate() {
            assert_eq!(v.len(), dim, "feature vector {i} has length {} != {dim}", v.len());
        }

        // Pairwise distance matrix between items (not clusters).
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
        };
        let mut point_dist = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = dist(&items[i], &items[j]);
                point_dist[i][j] = d;
                point_dist[j][i] = d;
            }
        }

        // Active clusters, each a list of item indices.
        let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

        let cluster_distance = |a: &[usize], b: &[usize]| -> f64 {
            let mut acc = f64::NEG_INFINITY;
            for &i in a {
                for &j in b {
                    acc = acc.max(point_dist[i][j]);
                }
            }
            acc
        };

        // Greedy agglomeration: repeatedly merge the two closest clusters while
        // their linkage distance stays below the threshold.
        loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..clusters.len() {
                for j in (i + 1)..clusters.len() {
                    let d = cluster_distance(&clusters[i], &clusters[j]);
                    if d <= threshold && best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((i, j, d));
                    }
                }
            }
            let Some((i, j, _)) = best else { break };
            let merged = clusters.swap_remove(j);
            clusters[i].extend(merged);
        }

        // Assign contiguous cluster ids ordered by the smallest member index.
        let mut cluster_order: Vec<usize> = (0..clusters.len()).collect();
        cluster_order.sort_by_key(|&c| *clusters[c].iter().min().expect("non-empty cluster"));
        let mut assignment = vec![0usize; n];
        for (new_id, &c) in cluster_order.iter().enumerate() {
            for &item in &clusters[c] {
                assignment[item] = new_id;
            }
        }
        assignment
    }

    /// SplitMix64: a seeded stream for the oracle's feature sets.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Seeded feature sets of every shape the bound has to get right.
    fn oracle_feature_sets() -> Vec<Vec<Vec<f64>>> {
        let mut rng = SplitMix(0x5eed);
        let mut sets = Vec::new();
        for _ in 0..40 {
            let n = 2 + rng.below(14) as usize;
            let dim = 1 + rng.below(6) as usize;
            // Small integer grids: many tied distances, and many pairs at
            // exactly an integer threshold (3-4-5 and axis-aligned pairs).
            let grid: Vec<Vec<f64>> =
                (0..n).map(|_| (0..dim).map(|_| rng.below(4) as f64).collect()).collect();
            sets.push(grid);
            // Duplicated points among random reals, long enough vectors that
            // the bound stops in the middle of a pair.
            let dim = 1 + rng.below(40) as usize;
            let mut points: Vec<Vec<f64>> =
                (0..n).map(|_| (0..dim).map(|_| rng.unit() * 0.3).collect()).collect();
            for _ in 0..rng.below(4) {
                let copy = points[rng.below(n as u64) as usize].clone();
                points.push(copy);
            }
            sets.push(points);
        }
        // 0.9-spaced chains, in one dimension and spread over two.
        for len in [3, 5, 8] {
            sets.push((0..len).map(|k| vec![0.9 * k as f64]).collect());
            sets.push((0..len).map(|k| vec![0.9 * k as f64, 0.0, 0.45 * k as f64]).collect());
        }
        // Exact 3-4-5 triangles and squares.
        sets.push(vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![3.0, 0.0], vec![0.0, 4.0]]);
        sets.push(vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        // A pair whose sum of squares exceeds 0.08² as computed while its
        // distance rounds to exactly 0.08: it must merge at threshold 0.08.
        let edge: Vec<f64> = vec![0.07822477091263932, 0.016759630534862572];
        let sum_sq = edge[0] * edge[0] + edge[1] * edge[1];
        assert!(sum_sq > 0.08 * 0.08 && sum_sq.sqrt() == 0.08);
        sets.push(vec![vec![0.0, 0.0], edge, vec![0.3, 0.0]]);
        // Non-finite features: the oracle's `f64::max` skips NaN distances,
        // so a NaN coordinate after a far one still lets the pair merge.
        sets.push(vec![vec![10.0, f64::NAN], vec![0.0, 0.0], vec![5.0, 0.0], vec![0.05, 0.0]]);
        sets.push(vec![vec![f64::INFINITY, 1.0], vec![f64::INFINITY, 1.0], vec![0.0, 1.0]]);
        sets
    }

    #[test]
    fn bounded_distances_match_the_full_distance_oracle() {
        let thresholds = [0.0, 1e-12, 0.08, 0.5, 0.9, 1.0, 1.8, 2.0, 3.0, 5.0, 1e9, f64::INFINITY];
        for (s, items) in oracle_feature_sets().iter().enumerate() {
            for &threshold in &thresholds {
                assert_eq!(
                    hierarchical_clusters(items, threshold),
                    reference_clusters(items, threshold),
                    "feature set {s} at threshold {threshold}: {items:?}"
                );
            }
        }
    }
}
