//! LPAUX — completing the mapping, one instruction at a time (Algorithm 5).
//!
//! Once the core mapping (resources + weights for the basic instructions) is
//! frozen, every remaining instruction `i` is characterised independently:
//!
//! 1. for every resource `r`, build the benchmark
//!    `K_sat(i, r) = i^⌈ipc(i)⌉ · sat[r]^L · sat[r]` — the instruction mixed
//!    with `L + 1` copies of the kernel that saturates `r` — and measure it;
//! 2. solve a small LP whose unknowns are only `ρ_{i,r}` (the core edges are
//!    constants): the measured slowdown of each saturated benchmark reveals
//!    how much of `r` the instruction consumes (Theorem A.3 guarantees that
//!    `r` stays the bottleneck, so the signal is clean).
//!
//! Each instruction costs `|R|` measurements and one LP with `|R|` variables,
//! which is what lets Palmed map thousands of instructions in hours where
//! PMEvo's global evolutionary search takes days.

use crate::conjunctive::ConjunctiveMapping;
use crate::quadratic::MIN_IPC;
use crate::saturate::SaturatingKernels;
use palmed_isa::{InstId, Microkernel};
use palmed_lp::{revised, Basis, LinExpr, LpError, Problem, Sense};
use palmed_machine::Measurer;
use palmed_par::par_map;

/// The `L` of `K_sat(i, r) = i i sat[r]^L sat[r]` (paper: 4).
pub const SATURATING_REPEAT: u32 = 4;

/// Outcome of mapping a single instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum CompletionOutcome {
    /// The instruction was added to the mapping.
    Mapped,
    /// The instruction was skipped (below [`MIN_IPC`]).
    SkippedLowIpc(f64),
    /// The LP could not be solved; the instruction stays unmapped.
    Failed(LpError),
}

/// The `K_sat(i, r)` benchmark of Algorithm 5.
pub fn completion_kernel(inst: InstId, inst_ipc: f64, sat: &Microkernel) -> Microkernel {
    let mut kernel = Microkernel::new();
    let reps = inst_ipc.round().max(1.0) as u32;
    kernel.add(inst, reps);
    kernel.merge(&sat.scaled(SATURATING_REPEAT + 1));
    kernel
}

/// Maps one instruction against the frozen core mapping, mutating `mapping`
/// on success.
///
/// `warm` is a warm-start slot: pass `&mut None` for a cold solve.
/// Consecutive completion LPs share their structure — same `|R|` unknowns,
/// same constraint layout, only the measured coefficients differ — so
/// [`complete_mapping`] threads the previous instruction's optimal [`Basis`]
/// through this slot and each solve typically starts one or two pivots from
/// its optimum.  On success the slot is refreshed with the new basis.
pub fn map_instruction_warm<M: Measurer>(
    measurer: &M,
    mapping: &mut ConjunctiveMapping,
    saturating: &SaturatingKernels,
    inst: InstId,
    warm: &mut Option<Basis>,
) -> CompletionOutcome {
    if mapping.supports(inst) {
        return CompletionOutcome::Mapped;
    }
    let inst_ipc = measurer.ipc(&Microkernel::single(inst));
    if inst_ipc < MIN_IPC {
        return CompletionOutcome::SkippedLowIpc(inst_ipc);
    }

    let num_resources = mapping.num_resources();
    let mut problem = Problem::new(Sense::Maximize);
    // Unknown usages of the new instruction.  The upper bound is the
    // instruction's own execution time 1/ipc (it cannot use any resource for
    // longer than it takes to execute).
    let upper = (1.0 / inst_ipc).max(1.0) * 1.5;
    let rho: Vec<_> = (0..num_resources)
        .map(|r| problem.add_var(format!("rho_{inst}_{r}"), 0.0, upper))
        .collect();

    // The instruction alone must be explained: max_r rho_r = 1/ipc, relaxed
    // to "no resource exceeds 1/ipc" plus an objective pushing usage up.
    for &v in &rho {
        problem.add_le(problem.expr().term(1.0, v), 1.0 / inst_ipc + 1e-6);
    }

    let mut objective = LinExpr::new();
    let mut any_kernel = false;
    for r in 0..num_resources {
        let Some(sat_kernel) = saturating.kernels.get(r).and_then(Option::as_ref) else {
            continue;
        };
        let kernel = completion_kernel(inst, inst_ipc, sat_kernel);
        let ipc = measurer.ipc(&kernel);
        if ipc <= 0.0 {
            continue;
        }
        any_kernel = true;
        let scale = ipc / kernel.total_instructions() as f64;
        let inst_count = kernel.multiplicity(inst) as f64;
        // Usage of every resource r' in this benchmark:
        //   (inst_count * rho_{inst,r'} + fixed core load) * scale  <= 1
        for (rp, &rho_rp) in rho.iter().enumerate() {
            let fixed: f64 = kernel
                .iter()
                .filter(|&(i, _)| i != inst)
                .map(|(i, c)| c as f64 * mapping.usage(i, crate::ResourceId(rp as u32)))
                .sum();
            let mut usage = LinExpr::constant(fixed * scale);
            usage.add_term(inst_count * scale, rho_rp);
            // Real measurements (greedy scheduling, quantisation, noise) can
            // make the benchmark slightly faster than the frozen core mapping
            // allows, which would render the nominal `<= 1` bound infeasible;
            // the bound is therefore relaxed to the already-committed core
            // load, acknowledging sub-saturation exactly like LP2 does.
            problem.add_le(usage.clone(), (fixed * scale).max(1.0));
            if rp == r {
                // The designated resource is the bottleneck of this benchmark
                // (Theorem A.3); maximising its usage recovers rho_{inst,r}.
                objective.add_scaled(1.0, &usage);
            }
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
    // Also reward explaining the instruction's own throughput.
    for &v in &rho {
        objective.add_term(1e-3, v);
    }
    problem.set_objective(objective);

    match revised::solve_with_warm_start(&problem, warm.as_ref()) {
        Ok(info) => {
            let usage: Vec<f64> = rho.iter().map(|&v| info.solution[v].max(0.0)).collect();
            mapping.set_usage(inst, usage);
            *warm = Some(info.basis);
            CompletionOutcome::Mapped
        }
        Err(e) => CompletionOutcome::Failed(e),
    }
}

/// Maps every instruction of `instructions` that is not yet in the mapping.
/// Returns, per instruction, the outcome.
///
/// Every kernel the sweep measures depends only on its instruction and the
/// frozen saturating kernels, never on an LP, so they are all measured up
/// front, in parallel; the sweep then reads them back.  Pass a memoizing
/// measurer, as the pipeline does, or each kernel is measured twice.
pub fn complete_mapping<M: Measurer + Sync>(
    measurer: &M,
    mapping: &mut ConjunctiveMapping,
    saturating: &SaturatingKernels,
    instructions: &[InstId],
) -> Vec<(InstId, CompletionOutcome)> {
    let unsupported: Vec<InstId> =
        instructions.iter().copied().filter(|&inst| !mapping.supports(inst)).collect();
    par_map(&unsupported, |&inst| {
        let inst_ipc = measurer.ipc(&Microkernel::single(inst));
        if inst_ipc >= MIN_IPC {
            for sat in saturating.kernels.iter().flatten() {
                measurer.ipc(&completion_kernel(inst, inst_ipc, sat));
            }
        }
    });
    // One rolling basis across the sweep: every completion LP has the same
    // shape, so each instruction warm-starts from its predecessor.
    let mut warm: Option<Basis> = None;
    instructions
        .iter()
        .map(|&inst| (inst, map_instruction_warm(measurer, mapping, saturating, inst, &mut warm)))
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
        let outcome = map_instruction_warm(&measurer, &mut mapping, &sat, store, &mut None);
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
        let outcome = map_instruction_warm(&measurer, &mut mapping, &sat, add, &mut None);
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
