//! LPAUX — completing the mapping, one instruction at a time (Algorithm 5).
//!
//! Once the core mapping (resources + weights for the basic instructions) is
//! frozen, every remaining instruction `i` is characterised independently:
//!
//! 1. for every resource `r`, build the benchmark
//!    `K_sat(i, r) = i^⌈ipc(i)⌉ · sat[r]^L · sat[r]` — the instruction mixed
//!    with `L + 1` copies of the kernel that saturates `r` — and measure it;
//! 2. bound each usage `ρ_{i,r}` by what the measurements allow: the
//!    measured slowdown of each saturated benchmark reveals how much of `r`
//!    the instruction consumes (Theorem A.3 guarantees that `r` stays the
//!    bottleneck, so the signal is clean).
//!
//! The paper states step 2 as one LP per instruction with the `|R|` usages
//! as unknowns and the core edges as constants.  Every row of that LP bounds
//! a single `ρ_{i,r}` — the instruction's own `ρ_r ≤ 1/ipc` and, for each
//! benchmark `K` with `n` copies of `i`, IPC-per-instruction scale `s` and
//! fixed core load `f_r`, `f_r·s + n·s·ρ_r ≤ max(f_r·s, 1)` — and the
//! objective rewards every `ρ_r`, so the LP separates per usage and its
//! optimum puts each `ρ_r` at its tightest bound:
//!
//! ```text
//! ρ_r = min(1/ipc + 1e-6, min_K (max(f_r·s, 1) − f_r·s) / (n·s))
//! ```
//!
//! Every bound is non-negative (`max(f_r·s, 1) ≥ f_r·s`), so the LP's
//! `ρ_r ≥ 0` never binds.
//!
//! That closed form is what [`map_instruction`] computes, so each
//! instruction costs `|R|` measurements and `O(|R|·|K_sat|)` arithmetic,
//! which is what lets Palmed map thousands of instructions in hours where
//! PMEvo's global evolutionary search takes days.

use crate::conjunctive::ConjunctiveMapping;
use crate::quadratic::{measure_all, MIN_IPC};
use crate::saturate::SaturatingKernels;
use palmed_isa::{InstId, Microkernel};
use palmed_machine::Measurer;

/// The `L` of `K_sat(i, r) = i i sat[r]^L sat[r]` (paper: 4).
pub const SATURATING_REPEAT: u32 = 4;

/// Outcome of mapping a single instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum CompletionOutcome {
    /// The instruction was added to the mapping.
    Mapped,
    /// The instruction was skipped (below [`MIN_IPC`]).
    SkippedLowIpc(f64),
}

/// The `K_sat(i, r)` benchmark of Algorithm 5.
pub fn completion_kernel(inst: InstId, inst_ipc: f64, sat: &Microkernel) -> Microkernel {
    let mut kernel = Microkernel::new();
    let reps = inst_ipc.round().max(1.0) as u32;
    kernel.add(inst, reps);
    kernel.merge(&sat.scaled(SATURATING_REPEAT + 1));
    kernel
}

/// Maps one instruction against the frozen core mapping, mutating `mapping`:
/// each usage is set to the tightest of its bounds (see the module docs).
pub fn map_instruction<M: Measurer>(
    measurer: &M,
    mapping: &mut ConjunctiveMapping,
    saturating: &SaturatingKernels,
    inst: InstId,
) -> CompletionOutcome {
    if mapping.supports(inst) {
        return CompletionOutcome::Mapped;
    }
    let inst_ipc = measurer.ipc(&Microkernel::single(inst));
    if inst_ipc < MIN_IPC {
        return CompletionOutcome::SkippedLowIpc(inst_ipc);
    }

    let num_resources = mapping.num_resources();
    // The instruction alone must be explained: no resource is used for
    // longer than the instruction takes to execute, 1/ipc.  (The LP's
    // variable box, 1.5·max(1/ipc, 1), lies above this for any ipc below
    // 5·10⁵, so it never binds.)
    let mut usage = vec![1.0 / inst_ipc + 1e-6; num_resources];
    let mut fixed = Vec::with_capacity(num_resources);
    let mut any_kernel = false;
    for sat_kernel in saturating.kernels.iter().flatten() {
        let kernel = completion_kernel(inst, inst_ipc, sat_kernel);
        let ipc = measurer.ipc(&kernel);
        if ipc <= 0.0 {
            continue;
        }
        any_kernel = true;
        let scale = ipc / kernel.total_instructions() as f64;
        let inst_count = kernel.multiplicity(inst) as f64;
        // Fixed core load of every resource in this benchmark: `inst` is
        // still unmapped, so it contributes nothing.
        mapping.kernel_load_into(&kernel, &mut fixed);
        // Usage of every resource r in this benchmark:
        //   (inst_count * rho_r + fixed_r) * scale  <= 1
        // Real measurements (greedy scheduling, quantisation, noise) can make
        // the benchmark slightly faster than the frozen core mapping allows,
        // which would leave no room for the nominal `<= 1`; the bound is
        // therefore relaxed to the already-committed core load, acknowledging
        // sub-saturation exactly like LP2 does.
        for (rho, &f) in usage.iter_mut().zip(&fixed) {
            let committed = f * scale;
            *rho = rho.min((committed.max(1.0) - committed) / (inst_count * scale));
        }
    }
    if !any_kernel {
        // No saturating kernel available: fall back to the single-instruction
        // information only (the instruction gets 1/ipc on a fresh view of its
        // heaviest resource — here we simply spread it on resource 0).
        let mut usage = vec![0.0; num_resources];
        if num_resources > 0 {
            usage[0] = 1.0 / inst_ipc;
        }
        mapping.set_usage(inst, usage);
        return CompletionOutcome::Mapped;
    }
    mapping.set_usage(inst, usage);
    CompletionOutcome::Mapped
}

/// Maps every instruction of `instructions` that is not yet in the mapping.
/// Returns, per instruction, the outcome.
///
/// Every kernel the sweep measures depends only on its instruction and the
/// frozen saturating kernels, never on another instruction's usage, so they
/// are all measured up front, in two fan-outs over the cores: first the
/// single-instruction kernels, then the `K_sat` kernels of the instructions
/// at or above [`MIN_IPC`].  Each fan-out cuts its kernels into contiguous
/// blocks, one [`Measurer::ipc_many`] batch each.  The sweep then reads
/// them back.  Pass a memoizing measurer, as the pipeline does, or each
/// kernel is measured twice.
pub fn complete_mapping<M: Measurer + Sync>(
    measurer: &M,
    mapping: &mut ConjunctiveMapping,
    saturating: &SaturatingKernels,
    instructions: &[InstId],
) -> Vec<(InstId, CompletionOutcome)> {
    let unsupported: Vec<InstId> =
        instructions.iter().copied().filter(|&inst| !mapping.supports(inst)).collect();
    let singles = measure_all(measurer, &unsupported, |&inst| Microkernel::single(inst));
    let completions: Vec<(InstId, f64, &Microkernel)> = unsupported
        .iter()
        .zip(singles)
        .filter(|&(_, inst_ipc)| inst_ipc >= MIN_IPC)
        .flat_map(|(&inst, inst_ipc)| {
            saturating.kernels.iter().flatten().map(move |sat| (inst, inst_ipc, sat))
        })
        .collect();
    measure_all(measurer, &completions, |&(inst, inst_ipc, sat)| {
        completion_kernel(inst, inst_ipc, sat)
    });
    instructions
        .iter()
        .map(|&inst| (inst, map_instruction(measurer, mapping, saturating, inst)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp1::ShapeMapping;
    use crate::saturate::select_saturating_kernels;
    use palmed_isa::Microkernel;
    use palmed_machine::{presets, AnalyticMeasurer, Measurer};
    use std::collections::BTreeSet;

    /// Core mapping for the toy machine covering ADD / BSR / IMUL, with the
    /// STORE instruction (1 µOP on each port) left for LPAUX.
    fn toy_core() -> (
        AnalyticMeasurer,
        ConjunctiveMapping,
        SaturatingKernels,
        std::sync::Arc<palmed_isa::InstructionSet>,
    ) {
        let preset = presets::toy_two_port();
        let measurer = AnalyticMeasurer::new(preset.mapping_arc());
        let insts = preset.instructions.clone();
        let add = insts.find("ADD").unwrap();
        let bsr = insts.find("BSR").unwrap();
        let imul = insts.find("IMUL").unwrap();
        let mut mapping = ConjunctiveMapping::with_resources(3);
        // r0 = port0-like (IMUL), r1 = port1-like (BSR), r2 = r01-like.
        mapping.set_usage(add, vec![0.0, 0.0, 0.5]);
        mapping.set_usage(bsr, vec![0.0, 1.0, 0.5]);
        mapping.set_usage(imul, vec![1.0, 0.0, 0.5]);
        let mut shape = ShapeMapping { num_resources: 3, ..Default::default() };
        shape.allowed.insert(add, BTreeSet::from([2]));
        shape.allowed.insert(bsr, BTreeSet::from([1, 2]));
        shape.allowed.insert(imul, BTreeSet::from([0, 2]));
        shape.kernels = vec![
            (Microkernel::single(add), measurer.ipc(&Microkernel::single(add))),
            (Microkernel::single(bsr), measurer.ipc(&Microkernel::single(bsr))),
            (Microkernel::single(imul), measurer.ipc(&Microkernel::single(imul))),
        ];
        let sat = select_saturating_kernels(&mapping, &shape);
        (measurer, mapping, sat, insts)
    }

    #[test]
    fn completion_kernel_has_expected_shape() {
        let sat = Microkernel::single(InstId(7));
        let k = completion_kernel(InstId(3), 2.0, &sat);
        assert_eq!(k.multiplicity(InstId(3)), 2);
        assert_eq!(k.multiplicity(InstId(7)), 5); // L + 1 = 5 copies of sat
    }

    #[test]
    fn store_instruction_gets_mapped_and_predicts_well() {
        let (measurer, mut mapping, sat, insts) = toy_core();
        let store = insts.find("STORE").unwrap();
        let outcome = map_instruction(&measurer, &mut mapping, &sat, store);
        assert_eq!(outcome, CompletionOutcome::Mapped);
        assert!(mapping.supports(store));
        // STORE alone has IPC 1 (two µOPs, one per port); the completed
        // mapping should reproduce that within a reasonable margin.
        let predicted = mapping.ipc(&Microkernel::single(store)).unwrap();
        let native = measurer.ipc(&Microkernel::single(store));
        assert!(
            (predicted - native).abs() / native < 0.35,
            "predicted {predicted}, native {native}"
        );
        // And a mix with ADD should stay within a reasonable band too.
        let add = insts.find("ADD").unwrap();
        let mix = Microkernel::pair(store, 1, add, 2);
        let predicted_mix = mapping.ipc(&mix).unwrap();
        let native_mix = measurer.ipc(&mix);
        assert!(
            (predicted_mix - native_mix).abs() / native_mix < 0.35,
            "mix predicted {predicted_mix}, native {native_mix}"
        );
    }

    #[test]
    fn already_mapped_instructions_are_untouched() {
        let (measurer, mut mapping, sat, insts) = toy_core();
        let add = insts.find("ADD").unwrap();
        let before = mapping.usage_vector(add).unwrap().to_vec();
        let outcome = map_instruction(&measurer, &mut mapping, &sat, add);
        assert_eq!(outcome, CompletionOutcome::Mapped);
        assert_eq!(mapping.usage_vector(add).unwrap(), before.as_slice());
    }

    #[test]
    fn complete_mapping_processes_every_instruction() {
        let (measurer, mut mapping, sat, insts) = toy_core();
        let all: Vec<InstId> = insts.ids().collect();
        let outcomes = complete_mapping(&measurer, &mut mapping, &sat, &all);
        assert_eq!(outcomes.len(), all.len());
        assert!(outcomes.iter().all(|(_, o)| matches!(o, CompletionOutcome::Mapped)));
        assert!((mapping.coverage(&insts) - 1.0).abs() < 1e-9);
    }
}
