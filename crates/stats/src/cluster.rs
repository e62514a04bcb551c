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
        let items = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![5.0, 5.0],
            vec![5.1, 5.0],
        ];
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
}
