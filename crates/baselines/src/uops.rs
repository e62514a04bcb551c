//! uops.info-style predictor.
//!
//! uops.info publishes, for every instruction, the list of ports each of its
//! µOPs can execute on (measured with per-port hardware counters).  The
//! paper evaluates that data by "running a conjunctive mapping with exact
//! compatibility and approximating the execution time by the port with the
//! highest usage": an optimal assignment of the published µOPs to ports,
//! with the execution time given by the most loaded port.  Ports are the
//! *only* resources in this model — no front-end, no reorder buffer, no
//! non-port bottleneck — so it is exact on port-bound kernels and
//! systematically *over-estimates* the IPC of kernels bottlenecked elsewhere
//! (the over-approximation visible in Fig. 4a).

use crate::port_model_ipc;
use palmed_core::ThroughputPredictor;
use palmed_isa::{InstId, Microkernel};
use palmed_machine::DisjunctiveMapping;
use std::sync::Arc;

/// Throughput predictor built from a published (oracle) port mapping,
/// evaluated with the max-port-usage (ports-only) approximation.
#[derive(Debug, Clone)]
pub struct UopsStylePredictor {
    mapping: Arc<DisjunctiveMapping>,
}

impl UopsStylePredictor {
    /// Builds the predictor from the ground-truth mapping.
    pub fn new(mapping: Arc<DisjunctiveMapping>) -> Self {
        UopsStylePredictor { mapping }
    }
}

impl ThroughputPredictor for UopsStylePredictor {
    fn name(&self) -> &str {
        "uops-style"
    }

    fn supports(&self, inst: InstId) -> bool {
        inst.index() < self.mapping.instructions().len()
    }

    /// Every µOP, optimally assigned over ports only (no front-end): the
    /// most loaded port under the best schedule sets the execution time.
    fn predict_ipc(&self, kernel: &Microkernel) -> Option<f64> {
        port_model_ipc(&self.mapping, kernel, |_| true, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_machine::{presets, throughput};

    #[test]
    fn single_port_instruction_is_exact() {
        let preset = presets::paper_ports016();
        let map = preset.mapping_arc();
        let p = UopsStylePredictor::new(Arc::clone(&map));
        let bsr = preset.instructions.find("BSR").unwrap();
        let k = Microkernel::single(bsr).scaled(4);
        assert!((p.predict_ipc(&k).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn port_bound_mixes_are_predicted_exactly() {
        // ADDSS (p0/p1) + BSR^2 (p1) is purely port-bound: the ports-only
        // model matches the native execution exactly (IPC 1.5).
        let preset = presets::paper_ports016();
        let map = preset.mapping_arc();
        let p = UopsStylePredictor::new(Arc::clone(&map));
        let addss = preset.instructions.find("ADDSS").unwrap();
        let bsr = preset.instructions.find("BSR").unwrap();
        let k = Microkernel::pair(addss, 1, bsr, 2);
        let native = throughput::ipc(&preset.mapping(), &k);
        let predicted = p.predict_ipc(&k).unwrap();
        assert!((predicted - native).abs() < 1e-9, "predicted {predicted} native {native}");
    }

    #[test]
    fn front_end_bound_kernels_are_overestimated() {
        let preset = presets::skl_sp(&palmed_isa::InventoryConfig::small());
        let map = preset.mapping_arc();
        let p = UopsStylePredictor::new(Arc::clone(&map));
        let add = preset.instructions.find("ADD").unwrap();
        let load = preset.instructions.find("MOV_LD").unwrap();
        let store = preset.instructions.find("MOV_ST").unwrap();
        // Wide mix: ports could sustain ~6 IPC but the front-end allows 4.
        let k = Microkernel::from_counts([(add, 4), (load, 2), (store, 1)]);
        let native = throughput::ipc(&preset.mapping(), &k);
        let predicted = p.predict_ipc(&k).unwrap();
        assert!(native <= 4.0 + 1e-9);
        assert!(predicted > native + 0.25, "predicted {predicted} native {native}");
    }

    #[test]
    fn unsupported_instructions_reduce_coverage() {
        // An instruction outside the published table (here: past the end of
        // the inventory) takes no resource and lowers coverage.
        let preset = presets::paper_ports016();
        let map = preset.mapping_arc();
        let missing = InstId(preset.instructions.len() as u32);
        let bsr = preset.instructions.find("BSR").unwrap();
        let p = UopsStylePredictor::new(Arc::clone(&map));
        assert!(!p.supports(missing));
        assert!(p.supports(bsr));
        // A kernel of only unsupported instructions yields no prediction.
        assert!(p.predict_ipc(&Microkernel::single(missing)).is_none());
        // Mixed kernels degrade: the unsupported part is ignored.
        let k = Microkernel::pair(missing, 2, bsr, 1);
        let fraction = p.support_fraction(&k);
        assert!((fraction - 1.0 / 3.0).abs() < 1e-9);
    }
}
