//! The throughput-predictor interface shared by Palmed and the baselines.
//!
//! Every tool compared in the paper's evaluation (Palmed, uops.info-style
//! port mappings, PMEvo, IACA / llvm-mca-like static analysers) answers the
//! same question: *given a basic block's instruction mix, what is its
//! steady-state IPC?*  [`ThroughputPredictor`] captures exactly that
//! interface, including the possibility of not supporting an instruction —
//! the coverage metric of Fig. 4b counts how often that happens.

use crate::conjunctive::ConjunctiveMapping;
use palmed_isa::{InstId, Microkernel};

/// A static throughput model: predicts the IPC of dependency-free
/// instruction mixes.
pub trait ThroughputPredictor {
    /// Short human-readable name ("palmed", "uops-style", ...).
    fn name(&self) -> &str;

    /// Whether the predictor has a model for the instruction.
    fn supports(&self, inst: InstId) -> bool;

    /// Predicted IPC of the kernel, or `None` when the predictor cannot
    /// produce any estimate (e.g. no supported instruction in the kernel).
    ///
    /// What a kernel mixing supported and unsupported instructions gets is
    /// up to the predictor: a conjunctive mapping treats the unsupported
    /// ones as taking no resource at all, while PMEvo answers only when it
    /// trained every instruction of the kernel.
    fn predict_ipc(&self, kernel: &Microkernel) -> Option<f64>;

    /// Fraction of the kernel's instructions that are supported.
    fn support_fraction(&self, kernel: &Microkernel) -> f64 {
        let total = kernel.total_instructions();
        if total == 0 {
            return 0.0;
        }
        let supported: u32 = kernel.iter().filter(|&(i, _)| self.supports(i)).map(|(_, c)| c).sum();
        supported as f64 / total as f64
    }
}

/// Palmed's predictor: a conjunctive resource mapping evaluated with the
/// closed-form throughput formula of Def. IV.3.
#[derive(Debug, Clone)]
pub struct PalmedPredictor {
    mapping: ConjunctiveMapping,
}

impl PalmedPredictor {
    /// Wraps an inferred mapping.
    pub fn new(mapping: ConjunctiveMapping) -> Self {
        PalmedPredictor { mapping }
    }

    /// The underlying mapping.
    pub fn mapping(&self) -> &ConjunctiveMapping {
        &self.mapping
    }
}

impl ThroughputPredictor for PalmedPredictor {
    fn name(&self) -> &str {
        "palmed"
    }

    fn supports(&self, inst: InstId) -> bool {
        self.mapping.supports(inst)
    }

    fn predict_ipc(&self, kernel: &Microkernel) -> Option<f64> {
        self.mapping.ipc(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping() -> ConjunctiveMapping {
        let mut m = ConjunctiveMapping::with_resources(2);
        m.set_usage(InstId(0), vec![1.0, 0.5]);
        m.set_usage(InstId(1), vec![0.0, 0.5]);
        m
    }

    #[test]
    fn predictor_exposes_mapping_support() {
        let p = PalmedPredictor::new(mapping());
        assert_eq!(p.name(), "palmed");
        assert!(p.supports(InstId(0)));
        assert!(!p.supports(InstId(9)));
    }

    #[test]
    fn prediction_uses_the_conjunctive_formula() {
        let p = PalmedPredictor::new(mapping());
        let k = Microkernel::pair(InstId(0), 1, InstId(1), 1);
        // loads: r0 = 1, r1 = 1 -> t = 1 -> IPC 2.
        assert!((p.predict_ipc(&k).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unsupported_only_kernel_has_no_prediction() {
        let p = PalmedPredictor::new(mapping());
        assert!(p.predict_ipc(&Microkernel::single(InstId(9))).is_none());
    }

    #[test]
    fn support_fraction_counts_instructions() {
        let p = PalmedPredictor::new(mapping());
        let k = Microkernel::pair(InstId(0), 1, InstId(9), 3);
        assert!((p.support_fraction(&k) - 0.25).abs() < 1e-12);
        assert_eq!(p.support_fraction(&Microkernel::new()), 0.0);
    }

    #[test]
    fn predictor_is_object_safe() {
        let p = PalmedPredictor::new(mapping());
        let as_dyn: &dyn ThroughputPredictor = &p;
        assert_eq!(as_dyn.name(), "palmed");
    }
}
