//! Weighted error summaries.
//!
//! Fig. 4b of the paper aggregates per-basic-block prediction errors with a
//! weighted root-mean-square of the *relative* error,
//! `sqrt( Σ_i w_i/Σw * ((pred_i - native_i) / native_i)^2 )`, where the
//! weight of a block is its dynamic execution count.  This module implements
//! that estimator plus a few convenience statistics.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Weighted root-mean-square *relative* error between predictions and
/// reference values, exactly as defined in Sec. VI-B of the paper.
///
/// Entries with a non-positive reference value or a non-positive weight are
/// skipped (they carry no information about relative error).  Returns 0 when
/// nothing remains.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn weighted_rms_relative_error(predicted: &[f64], reference: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(predicted.len(), reference.len(), "length mismatch");
    assert_eq!(predicted.len(), weights.len(), "length mismatch");
    let mut total_weight = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 && reference[i] > 0.0 {
            total_weight += w;
        }
    }
    if total_weight == 0.0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..predicted.len() {
        if weights[i] > 0.0 && reference[i] > 0.0 {
            let rel = (predicted[i] - reference[i]) / reference[i];
            acc += weights[i] / total_weight * rel * rel;
        }
    }
    acc.sqrt()
}

/// A small container of summary statistics for a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum value (0 for empty samples).
    pub min: f64,
    /// Maximum value (0 for empty samples).
    pub max: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Computes summary statistics over `values`.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Summary::default();
        }
        let count = values.len();
        let mean = mean(values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let variance = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        Summary { count, mean, min, max, std_dev: variance.sqrt() }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.4} min={:.4} max={:.4} sd={:.4}",
            self.count, self.mean, self.min, self.max, self.std_dev
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn rms_of_exact_predictions_is_zero() {
        let native = [1.0, 2.0, 3.0];
        let weights = [1.0, 1.0, 1.0];
        assert_eq!(weighted_rms_relative_error(&native, &native, &weights), 0.0);
    }

    #[test]
    fn rms_matches_hand_computation() {
        let predicted = [1.1, 1.8];
        let native = [1.0, 2.0];
        let weights = [1.0, 1.0];
        // errors: +10%, -10% -> rms 10%
        let rms = weighted_rms_relative_error(&predicted, &native, &weights);
        assert!((rms - 0.1).abs() < 1e-12);
    }

    #[test]
    fn weights_shift_the_rms() {
        let predicted = [1.5, 2.0];
        let native = [1.0, 2.0]; // 50% error on the first, 0% on the second
        let balanced = weighted_rms_relative_error(&predicted, &native, &[1.0, 1.0]);
        let skewed = weighted_rms_relative_error(&predicted, &native, &[0.01, 10.0]);
        assert!(skewed < balanced);
    }

    #[test]
    fn zero_reference_entries_are_skipped() {
        let predicted = [5.0, 1.1];
        let native = [0.0, 1.0];
        let weights = [1.0, 1.0];
        let rms = weighted_rms_relative_error(&predicted, &native, &weights);
        assert!((rms - 0.1).abs() < 1e-12);
    }

    #[test]
    fn all_skipped_gives_zero() {
        assert_eq!(weighted_rms_relative_error(&[1.0], &[0.0], &[1.0]), 0.0);
        assert_eq!(weighted_rms_relative_error(&[1.0], &[1.0], &[0.0]), 0.0);
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert!(!s.to_string().is_empty());
    }
}
