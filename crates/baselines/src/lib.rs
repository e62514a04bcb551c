//! Baseline throughput predictors the paper compares Palmed against.
//!
//! The evaluation of the paper (Fig. 4) pits Palmed against four families of
//! tools.  Each family is reproduced here as a
//! [`ThroughputPredictor`](palmed_core::ThroughputPredictor) implementation
//! with the decision procedure — and the characteristic blind spots — of the
//! original:
//!
//! * [`uops`] — a **uops.info-style** model: the exact (oracle) port mapping
//!   published per instruction, evaluated by the optimal assignment of every
//!   µOP to its ports, the execution time being that of the most loaded
//!   port.  No front-end, no non-port resources: it over-estimates IPC
//!   whenever something other than a port is the bottleneck, exactly as
//!   observed in the paper.
//! * [`static_analyzer`] — **IACA-like** and **llvm-mca-like** analysers:
//!   hand-maintained machine models that solve the port-assignment problem
//!   optimally, know each µOP's reciprocal throughput (so non-pipelined
//!   units) and the front-end width, but carry modelling gaps (both miss the
//!   finite scheduler window and greedy dispatch; the mca-like model also
//!   drops secondary store/AVX µOPs), standing in for the "manual
//!   expertise, platform-tailored, mostly accurate" behaviour of the real
//!   tools.
//! * [`pmevo`] — a reimplementation of **PMEvo**: inference of a disjunctive
//!   port mapping from pair benchmarks with an evolutionary algorithm, and a
//!   coverage limited to the instructions present in its training set.
//!
//! All baselines other than PMEvo require the ground-truth
//! [`DisjunctiveMapping`] — they model tools that had inside information
//! (vendor documentation, per-port hardware counters) which Palmed
//! deliberately does without.  Every one of them, PMEvo included, computes
//! its port bound with [`throughput::port_bound`], the function that also
//! defines the ground truth.
//!
//! Each predictor reports one fixed name (`"uops-style"`, `"iaca-like"`,
//! `"llvm-mca-like"`, `"pmevo"`).  None of them knows which machines the
//! real tool supported: the evaluation campaign decides which rows of
//! Fig. 4b read "N/A".  PMEvo's search constants ([`pmevo::NUM_PORTS`],
//! [`pmevo::MUTATION_RATE`], …) are fixed; only its population and
//! generation counts ([`PmEvoConfig`]) vary between quick and full runs.

pub mod pmevo;
pub mod static_analyzer;
pub mod uops;

pub use pmevo::{PmEvo, PmEvoConfig, PmEvoPredictor};
pub use static_analyzer::{IacaLikePredictor, McaLikePredictor};
pub use uops::UopsStylePredictor;

use palmed_isa::Microkernel;
use palmed_machine::{throughput, DisjunctiveMapping, PortSet};

/// IPC of `kernel` under an oracle port model of `mapping`: the µOPs of the
/// kernel's supported instructions for which `keep_uop(index in the
/// instruction's decomposition)` holds, aggregated by port set in
/// first-seen order, scheduled optimally by [`throughput::port_bound`], and
/// with `front_end` also bounded by the decode width.
///
/// Unsupported instructions (outside the mapping's instruction set) take no
/// resource but still count in the IPC.  `None` when the kernel has no
/// supported instruction or no load.
pub(crate) fn port_model_ipc(
    mapping: &DisjunctiveMapping,
    kernel: &Microkernel,
    keep_uop: impl Fn(usize) -> bool,
    front_end: bool,
) -> Option<f64> {
    let mut loads: Vec<(PortSet, f64)> = Vec::new();
    let mut any = false;
    for (inst, count) in kernel.iter() {
        if inst.index() >= mapping.instructions().len() {
            continue;
        }
        any = true;
        for (idx, uop) in mapping.uops(inst).iter().enumerate() {
            if !keep_uop(idx) {
                continue;
            }
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
    let instructions = kernel.total_instructions() as f64;
    let mut t = throughput::port_bound(&loads);
    if front_end {
        t = t.max(instructions / mapping.machine().front_end.instructions_per_cycle);
    }
    (t > 0.0).then(|| instructions / t)
}
