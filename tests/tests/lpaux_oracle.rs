//! Differential check of LPAUX's closed form against the linear program it
//! stands for.
//!
//! Algorithm 5 states each instruction's completion as an LP over its `|R|`
//! usages.  `palmed_core::lpaux` computes that LP's optimum in closed form;
//! this test rebuilds the LP row for row, solves it with the simplex, and
//! checks that every closed-form usage matches the simplex optimum and
//! satisfies every row of the LP.

use palmed_core::conjunctive::{ConjunctiveMapping, ResourceId};
use palmed_core::lp1::ShapeMapping;
use palmed_core::lpaux::{completion_kernel, map_instruction, CompletionOutcome};
use palmed_core::saturate::{select_saturating_kernels, SaturatingKernels};
use palmed_core::{Palmed, PalmedConfig};
use palmed_isa::{InstId, InventoryConfig, Microkernel};
use palmed_lp::{LinExpr, Problem, Sense, VarId};
use palmed_machine::{
    presets, AnalyticMeasurer, BackendKind, BackendMeasurer, MeasurementNoise, Measurer,
    MemoizingMeasurer, SimulationConfig,
};
use std::collections::BTreeSet;

/// Agreement required between the closed form and the simplex, relative to
/// `max(1, |ρ|)`, and the slack allowed on each LP row.  The simplex leaves
/// round-off where the exact optimum is 0, so nothing is compared bit for
/// bit.
const TOLERANCE: f64 = 1e-12;

/// The completion LP of `inst`, built as Algorithm 5 states it: maximise the
/// designated resource's usage in every saturated benchmark, plus `1e-3` per
/// usage, under the `1/ipc` cap and one row per benchmark and resource.
/// `None` when no saturating benchmark was measured (LPAUX's fallback).
fn completion_lp<M: Measurer>(
    measurer: &M,
    core: &ConjunctiveMapping,
    saturating: &SaturatingKernels,
    inst: InstId,
) -> Option<(Problem, Vec<VarId>)> {
    let inst_ipc = measurer.ipc(&Microkernel::single(inst));
    let num_resources = core.num_resources();
    let mut problem = Problem::new(Sense::Maximize);
    let upper = (1.0 / inst_ipc).max(1.0) * 1.5;
    let rho: Vec<_> = (0..num_resources)
        .map(|r| problem.add_var(format!("rho_{inst}_{r}"), 0.0, upper))
        .collect();
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
        for (rp, &rho_rp) in rho.iter().enumerate() {
            let fixed: f64 = kernel
                .iter()
                .filter(|&(i, _)| i != inst)
                .map(|(i, c)| c as f64 * core.usage(i, ResourceId(rp as u32)))
                .sum();
            let mut usage = LinExpr::constant(fixed * scale);
            usage.add_term(inst_count * scale, rho_rp);
            problem.add_le(usage.clone(), (fixed * scale).max(1.0));
            if rp == r {
                objective.add_scaled(1.0, &usage);
            }
        }
    }
    if !any_kernel {
        return None;
    }
    for &v in &rho {
        objective.add_term(1e-3, v);
    }
    problem.set_objective(objective);
    Some((problem, rho))
}

/// Asserts that `closed` is the optimum of `inst`'s completion LP against
/// `core` and satisfies every one of its rows.
fn assert_matches_the_lp<M: Measurer>(
    measurer: &M,
    core: &ConjunctiveMapping,
    saturating: &SaturatingKernels,
    inst: InstId,
    closed: &[f64],
) {
    let (problem, rho) =
        completion_lp(measurer, core, saturating, inst).expect("a saturating benchmark");
    let solution = problem.solve().expect("the completion LP is feasible");
    for (r, (&v, &got)) in rho.iter().zip(closed).enumerate() {
        let want = solution[v].max(0.0);
        assert!(
            (got - want).abs() <= TOLERANCE * want.abs().max(1.0),
            "{inst} r{r}: closed form {got:e}, simplex {want:e}"
        );
    }
    // The variables are the first `|R|` of the problem, so the closed-form
    // row is a full assignment.
    for (def, &value) in problem.vars().iter().zip(closed) {
        assert!(def.lower <= value && value <= def.upper, "{inst}: {value:e} outside {def:?}");
    }
    for (k, row) in problem.constraints().iter().enumerate() {
        let lhs = row.expr.evaluate(closed);
        assert!(lhs <= row.rhs + TOLERANCE, "{inst} row {k}: {lhs:e} > {:e}", row.rhs);
    }
}

#[test]
fn closed_form_matches_the_lp_on_the_toy_core() {
    // The toy machine's core covers ADD / BSR / IMUL; STORE (one µOP on
    // each port) is left for LPAUX.
    let preset = presets::toy_two_port();
    let measurer = AnalyticMeasurer::new(preset.mapping_arc());
    let insts = &preset.instructions;
    let add = insts.find("ADD").unwrap();
    let bsr = insts.find("BSR").unwrap();
    let imul = insts.find("IMUL").unwrap();
    let mut core = ConjunctiveMapping::with_resources(3);
    core.set_usage(add, vec![0.0, 0.0, 0.5]);
    core.set_usage(bsr, vec![0.0, 1.0, 0.5]);
    core.set_usage(imul, vec![1.0, 0.0, 0.5]);
    let mut shape = ShapeMapping { num_resources: 3, ..Default::default() };
    shape.allowed.insert(add, BTreeSet::from([2]));
    shape.allowed.insert(bsr, BTreeSet::from([1, 2]));
    shape.allowed.insert(imul, BTreeSet::from([0, 2]));
    shape.kernels = [add, bsr, imul]
        .iter()
        .map(|&i| (Microkernel::single(i), measurer.ipc(&Microkernel::single(i))))
        .collect();
    let saturating = select_saturating_kernels(&core, &shape);

    let store = insts.find("STORE").unwrap();
    let mut mapping = core.clone();
    assert_eq!(
        map_instruction(&measurer, &mut mapping, &saturating, store),
        CompletionOutcome::Mapped
    );
    assert_matches_the_lp(
        &measurer,
        &core,
        &saturating,
        store,
        mapping.usage_vector(store).unwrap(),
    );
}

#[test]
fn closed_form_matches_the_lp_on_the_simulated_pipeline() {
    // The pinned simulated training of `end_to_end.rs`: skl-sp-like, small
    // inventory, Quick simulator settings, realistic noise.
    let preset = presets::skl_sp(&InventoryConfig::small());
    let measurer = MemoizingMeasurer::new(BackendMeasurer::new(
        BackendKind::Simulation(SimulationConfig { warmup_cycles: 100, measured_cycles: 1_000 }),
        preset.mapping_arc(),
        MeasurementNoise::realistic(2022),
    ));
    let result = Palmed::new(PalmedConfig::evaluation()).infer(&measurer);

    // LPAUX completed the core mapping of the basic instructions; rebuild
    // that core from the result (resource names do not enter the LP).
    let basic = result.basic_instructions();
    let names = result.mapping.resources().map(|r| result.mapping.resource_name(r).to_string());
    let mut core = ConjunctiveMapping::new(names.collect());
    for &inst in &basic {
        core.set_usage(inst, result.mapping.usage_vector(inst).unwrap());
    }

    let mut compared = 0;
    for inst in result.mapping.instructions().filter(|i| !basic.contains(i)) {
        let row = result.mapping.usage_vector(inst).unwrap();
        // The pipeline's row is LPAUX's answer against this core.
        let mut alone = core.clone();
        map_instruction(&measurer, &mut alone, &result.saturating, inst);
        assert_eq!(alone.usage_vector(inst), Some(row), "{inst}: the core was rebuilt wrongly");
        assert_matches_the_lp(&measurer, &core, &result.saturating, inst, row);
        compared += 1;
    }
    assert!(compared >= 90, "only {compared} LPAUX instructions compared");
}
