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

use palmed_core::ThroughputPredictor;
use palmed_isa::{InstId, Microkernel};
use palmed_machine::{DisjunctiveMapping, PortSet};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Throughput predictor built from a published (oracle) port mapping,
/// evaluated with the max-port-usage (ports-only) approximation.
#[derive(Debug, Clone)]
pub struct UopsStylePredictor {
    mapping: Arc<DisjunctiveMapping>,
    /// Pre-built table of candidate bottleneck port sets: the closure under
    /// union of every µOP port set of the machine.  The Hall bound is always
    /// attained on a union of loaded port sets (shrinking a subset to the
    /// union of the port sets it contains keeps the confined load while
    /// reducing the divisor), so enumerating this table is exact while being
    /// far smaller than the `2^P - 1` power set walked otherwise — the same
    /// argument as `optimal_execution_time` in `palmed-machine`.
    candidate_sets: Vec<PortSet>,
}

impl UopsStylePredictor {
    /// Builds the predictor from the ground-truth mapping, pre-computing the
    /// union-closure table of candidate bottleneck port sets.
    pub fn new(mapping: Arc<DisjunctiveMapping>) -> Self {
        let mut generators: Vec<u32> = Vec::new();
        for inst in mapping.instructions().ids() {
            for uop in mapping.uops(inst) {
                let mask = uop.ports.mask();
                if mask != 0 && !generators.contains(&mask) {
                    generators.push(mask);
                }
            }
        }
        let mut closure: BTreeSet<u32> = generators.iter().copied().collect();
        let mut frontier: Vec<u32> = generators.clone();
        while let Some(m) = frontier.pop() {
            for &g in &generators {
                if closure.insert(m | g) {
                    frontier.push(m | g);
                }
            }
        }
        UopsStylePredictor {
            mapping,
            candidate_sets: closure.into_iter().map(PortSet::from_mask).collect(),
        }
    }

    /// Number of ports of the underlying machine.
    pub fn num_ports(&self) -> usize {
        self.mapping.machine().num_ports
    }
}

impl ThroughputPredictor for UopsStylePredictor {
    fn name(&self) -> &str {
        "uops-style"
    }

    fn supports(&self, inst: InstId) -> bool {
        inst.index() < self.mapping.instructions().len()
    }

    fn predict_ipc(&self, kernel: &Microkernel) -> Option<f64> {
        // Aggregate µOP loads of the supported instructions by port set.
        let mut loads: Vec<(PortSet, f64)> = Vec::new();
        let mut any = false;
        for &(inst, count) in kernel.as_slice() {
            if !self.supports(inst) {
                continue; // unsupported instructions take no resource at all
            }
            any = true;
            for uop in self.mapping.uops(inst) {
                let load = count as f64 * uop.inverse_throughput;
                match loads.iter_mut().find(|(p, _)| *p == uop.ports) {
                    Some((_, l)) => *l += load,
                    None => loads.push((uop.ports, load)),
                }
            }
        }
        if !any {
            return None;
        }
        // Optimal assignment over ports only (no front-end): the most loaded
        // port under the best schedule determines the execution time.  Only
        // the pre-built union-closure table needs to be scanned (see
        // `candidate_sets`).
        let confined_ratio = |subset: PortSet| -> f64 {
            let confined: f64 =
                loads.iter().filter(|(p, _)| p.is_subset_of(subset)).map(|&(_, l)| l).sum();
            confined / subset.len() as f64
        };
        let mut t: f64 = 0.0;
        for &subset in &self.candidate_sets {
            t = t.max(confined_ratio(subset));
        }

        // Cross-check against the exhaustive power-set enumeration on
        // machines small enough to afford it.
        #[cfg(debug_assertions)]
        if self.num_ports() <= 12 {
            let num_ports = self.num_ports();
            let mut exhaustive: f64 = 0.0;
            for mask in 1u32..(1 << num_ports) {
                exhaustive = exhaustive.max(confined_ratio(PortSet::from_mask(mask)));
            }
            debug_assert!(
                (t - exhaustive).abs() <= 1e-9 * exhaustive.max(1.0),
                "union-closure bound {t} disagrees with power-set bound {exhaustive}"
            );
        }

        if t <= 0.0 {
            None
        } else {
            Some(kernel.total_instructions() as f64 / t)
        }
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
