//! Accuracy metrics of Fig. 4b: coverage, weighted RMS error, Kendall's τ.

use crate::blocks::BasicBlock;
use palmed_core::ThroughputPredictor;
use palmed_stats::{weighted_kendall_tau, weighted_rms_relative_error};

/// Aggregate accuracy of one tool over one suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToolMetrics {
    /// Fraction of blocks the tool produced a prediction for (the paper's
    /// "translation block coverage", relative to the blocks Palmed supports).
    pub coverage: f64,
    /// Weighted root-mean-square relative error of the IPC predictions over
    /// the covered blocks.
    pub rms_error: f64,
    /// Kendall's τ rank correlation between predicted and native IPC.
    pub kendall_tau: f64,
    /// Number of blocks that entered the error statistics.
    pub evaluated_blocks: usize,
}

impl ToolMetrics {
    /// A metrics value representing "tool not available on this target".
    pub fn unavailable() -> Self {
        ToolMetrics {
            coverage: 0.0,
            rms_error: f64::NAN,
            kendall_tau: f64::NAN,
            evaluated_blocks: 0,
        }
    }

    /// Whether this row should be rendered as N/A.
    pub fn is_unavailable(&self) -> bool {
        self.evaluated_blocks == 0
    }
}

/// Evaluates a tool on a suite of blocks with known native IPCs.
///
/// `native` must hold one IPC per block, in the same order.
///
/// # Panics
///
/// Panics if `native` and `blocks` have different lengths.
pub fn evaluate_tool<P: ThroughputPredictor + ?Sized>(
    tool: &P,
    blocks: &[BasicBlock],
    native: &[f64],
) -> ToolMetrics {
    assert_eq!(blocks.len(), native.len(), "one native IPC per block required");
    let mut predicted = Vec::new();
    let mut reference = Vec::new();
    let mut weights = Vec::new();
    let mut covered = 0usize;

    for (block, &native_ipc) in blocks.iter().zip(native) {
        match tool.predict_ipc(&block.kernel) {
            Some(ipc) if ipc.is_finite() && ipc > 0.0 => {
                covered += 1;
                predicted.push(ipc);
                reference.push(native_ipc);
                weights.push(block.weight);
            }
            _ => {}
        }
    }

    if covered == 0 {
        return ToolMetrics::unavailable();
    }
    ToolMetrics {
        coverage: covered as f64 / blocks.len().max(1) as f64,
        rms_error: weighted_rms_relative_error(&predicted, &reference, &weights),
        kendall_tau: weighted_kendall_tau(&predicted, &reference, None),
        evaluated_blocks: covered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_isa::{InstId, Microkernel};

    /// A fake predictor multiplying the true IPC of `InstId(0)`-only kernels.
    struct Fake {
        factor: f64,
        supports_even_only: bool,
    }

    impl ThroughputPredictor for Fake {
        fn name(&self) -> &str {
            "fake"
        }
        fn supports(&self, inst: InstId) -> bool {
            !self.supports_even_only || inst.0.is_multiple_of(2)
        }
        fn predict_ipc(&self, kernel: &Microkernel) -> Option<f64> {
            if kernel.instructions().any(|i| self.supports(i)) {
                Some(self.factor * kernel.total_instructions() as f64)
            } else {
                None
            }
        }
    }

    fn blocks() -> (Vec<BasicBlock>, Vec<f64>) {
        let blocks: Vec<BasicBlock> = (0..4)
            .map(|i| {
                BasicBlock::new(format!("b{i}"), Microkernel::single(InstId(i)).scaled(i + 1), 1.0)
            })
            .collect();
        let native: Vec<f64> = blocks.iter().map(|b| b.size() as f64).collect();
        (blocks, native)
    }

    #[test]
    fn perfect_predictor_has_zero_error_and_full_tau() {
        let (blocks, native) = blocks();
        let m = evaluate_tool(&Fake { factor: 1.0, supports_even_only: false }, &blocks, &native);
        assert_eq!(m.coverage, 1.0);
        assert!(m.rms_error < 1e-12);
        assert!((m.kendall_tau - 1.0).abs() < 1e-12);
        assert_eq!(m.evaluated_blocks, 4);
    }

    #[test]
    fn biased_predictor_has_the_expected_rms() {
        let (blocks, native) = blocks();
        let m = evaluate_tool(&Fake { factor: 1.2, supports_even_only: false }, &blocks, &native);
        assert!((m.rms_error - 0.2).abs() < 1e-9);
        // Monotone bias keeps the ranking perfect.
        assert!((m.kendall_tau - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_support_reduces_coverage() {
        let (blocks, native) = blocks();
        let m = evaluate_tool(&Fake { factor: 1.0, supports_even_only: true }, &blocks, &native);
        assert!((m.coverage - 0.5).abs() < 1e-12);
        assert_eq!(m.evaluated_blocks, 2);
    }

    #[test]
    fn unavailable_tool_is_flagged() {
        struct Never;
        impl ThroughputPredictor for Never {
            fn name(&self) -> &str {
                "never"
            }
            fn supports(&self, _: InstId) -> bool {
                false
            }
            fn predict_ipc(&self, _: &Microkernel) -> Option<f64> {
                None
            }
        }
        let (blocks, native) = blocks();
        let m = evaluate_tool(&Never, &blocks, &native);
        assert!(m.is_unavailable());
        assert!(m.rms_error.is_nan());
    }
}
