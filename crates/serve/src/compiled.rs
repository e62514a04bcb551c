//! A named [`ConjunctiveMapping`], kept for the benchmark package.
//!
//! The mapping is itself the dense serving layout (see
//! [`palmed_core::conjunctive`]), so serving needs no compiled copy: the
//! registry, the batch engine and the fingerprint all take
//! `&ConjunctiveMapping`.  [`CompiledModel`] only pairs a mapping with a
//! display name.  It derefs to the mapping, so `BatchPredictor::new(&model)`
//! and `model_fingerprint(&model, n)` accept it, and its
//! [`ThroughputPredictor`] impl reports that name.

use palmed_core::{ConjunctiveMapping, ThroughputPredictor};
use palmed_isa::{InstId, Microkernel};
use std::ops::Deref;

/// A conjunctive mapping under a display name.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    name: String,
    mapping: ConjunctiveMapping,
}

impl CompiledModel {
    /// Copies `mapping` under a display name.
    pub fn compile(name: impl Into<String>, mapping: &ConjunctiveMapping) -> Self {
        CompiledModel { name: name.into(), mapping: mapping.clone() }
    }
}

impl Deref for CompiledModel {
    type Target = ConjunctiveMapping;

    fn deref(&self) -> &ConjunctiveMapping {
        &self.mapping
    }
}

impl ThroughputPredictor for CompiledModel {
    fn name(&self) -> &str {
        &self.name
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

    fn example() -> (ConjunctiveMapping, InstId, InstId) {
        let mut m = ConjunctiveMapping::new(vec!["r1".into(), "r01".into(), "r016".into()]);
        let addss = InstId(0);
        let bsr = InstId(3);
        m.set_usage(addss, vec![0.0, 0.5, 1.0 / 3.0]);
        m.set_usage(bsr, vec![1.0, 0.5, 1.0 / 3.0]);
        (m, addss, bsr)
    }

    #[test]
    fn compile_builds_sparse_rows() {
        let (m, addss, bsr) = example();
        let c = CompiledModel::compile("palmed", &m);
        assert_eq!(*c, m, "compile keeps the mapping");
        assert_eq!(c.num_resources(), 3);
        assert_eq!(c.num_instructions(), 2);
        assert_eq!(c.usage_vector(addss).unwrap(), &[0.0, 0.5, 1.0 / 3.0]);
        assert_eq!(c.usage_vector(bsr).unwrap(), &[1.0, 0.5, 1.0 / 3.0]);
        assert_eq!(c.usage_vector(InstId(1)), None);
        assert_eq!(c.usage_vector(InstId(99)), None);
    }

    #[test]
    fn supports_matches_the_mapping_even_for_zero_rows() {
        let mut m = ConjunctiveMapping::with_resources(2);
        m.set_usage(InstId(1), vec![0.0, 0.0]);
        let c = CompiledModel::compile("palmed", &m);
        assert!(!ThroughputPredictor::supports(&c, InstId(0)));
        assert!(ThroughputPredictor::supports(&c, InstId(1)));
        assert!(!ThroughputPredictor::supports(&c, InstId(2)));
    }

    #[test]
    fn trait_path_agrees_with_scratch_path() {
        let (m, addss, bsr) = example();
        let c = CompiledModel::compile("served", &m);
        assert_eq!(c.name(), "served");
        let k = Microkernel::pair(addss, 2, bsr, 1);
        let mut scratch = Vec::new();
        assert_eq!(
            c.predict_ipc(&k).map(f64::to_bits),
            m.ipc_with(&k, &mut scratch).map(f64::to_bits)
        );
    }

    #[test]
    fn empty_mapping_compiles() {
        let m = ConjunctiveMapping::with_resources(0);
        let c = CompiledModel::compile("empty", &m);
        assert_eq!(c.num_resources(), 0);
        assert_eq!(c.num_instructions(), 0);
        assert_eq!(c.predict_ipc(&Microkernel::single(InstId(0))), None);
    }
}
