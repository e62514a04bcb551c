//! Property-based tests of the theoretical core: the equivalence between the
//! disjunctive port mapping and its conjunctive ∇-dual (Appendix A of the
//! paper), checked on randomly generated machines and kernels, and the
//! ground truth's port bound checked against an independent LP over
//! fractional port assignments.

use palmed_core::dual::{dual_of, DualOptions};
use palmed_isa::{ExecClass, InstDesc, InstructionSet, Microkernel};
use palmed_lp::{LpError, Problem, Sense};
use palmed_machine::disjunctive::{FrontEnd, MachineDescription};
use palmed_machine::{presets, throughput, DisjunctiveMapping, MicroOp, PortSet};
use proptest::prelude::*;
use std::sync::Arc;

/// The ground truth's optimal execution time computed with an explicit
/// linear program over fractional port assignments, instead of the Hall
/// bound [`throughput::optimal_execution_time`] maximises: an independent
/// exact reference for it.
///
/// # Errors
///
/// Propagates LP solver failures (they indicate a bug: the scheduling LP is
/// always feasible and bounded).
fn optimal_execution_time_lp(
    mapping: &DisjunctiveMapping,
    kernel: &Microkernel,
) -> Result<f64, LpError> {
    if kernel.is_empty() {
        return Ok(0.0);
    }
    let loads = mapping.kernel_load(kernel);
    let num_ports = mapping.machine().num_ports;

    let mut p = Problem::new(Sense::Minimize);
    let t = p.add_var("t", 0.0, f64::INFINITY);
    // x[u][port]: cycles of work of µOP-group u assigned to port.
    let mut port_load_exprs = vec![p.expr(); num_ports];
    for (u, &(ports, load)) in loads.iter().enumerate() {
        let mut total = p.expr();
        for port in ports.iter() {
            let x = p.add_var(format!("x_{u}_{port}"), 0.0, f64::INFINITY);
            total.add_term(1.0, x);
            port_load_exprs[port.index()].add_term(1.0, x);
        }
        p.add_eq(total, load);
    }
    for expr in port_load_exprs {
        // port load <= t
        let mut c = expr;
        c.add_term(-1.0, t);
        p.add_le(c, 0.0);
    }
    // Front-end lower bounds on t.
    let fe = mapping.machine().front_end;
    let mut lower = kernel.total_instructions() as f64 / fe.instructions_per_cycle;
    if fe.uops_per_cycle.is_finite() {
        lower = lower.max(mapping.kernel_uop_count(kernel) / fe.uops_per_cycle);
    }
    p.add_ge(p.expr().term(1.0, t), lower);
    p.set_objective(p.expr().term(1.0, t));
    Ok(p.solve()?.objective)
}

/// Strategy: a random machine with `num_ports` ports and one class per
/// generated instruction, each instruction being 1–2 µOPs over random
/// non-empty port subsets.
fn arbitrary_machine(
    num_ports: usize,
    max_insts: usize,
) -> impl Strategy<Value = (Arc<MachineDescription>, Arc<InstructionSet>)> {
    let classes: Vec<ExecClass> = ExecClass::ALL.to_vec();
    let port_mask = 1u32..(1u32 << num_ports);
    let uop = port_mask.prop_map(move |m| MicroOp::pipelined(PortSet::from_mask(m)));
    let inst = prop::collection::vec(uop, 1..=2);
    prop::collection::vec(inst, 1..=max_insts).prop_map(move |inst_uops| {
        let mut machine =
            MachineDescription::new("random", num_ports, FrontEnd::instructions_only(4.0));
        let mut insts = InstructionSet::new();
        for (idx, uops) in inst_uops.into_iter().enumerate() {
            let class = classes[idx % classes.len()];
            // Each instruction gets its own class slot by overwriting — use a
            // distinct class per instruction index to keep decompositions
            // independent (classes beyond ALL.len() reuse earlier ones, so we
            // redefine right before binding: instead, give every instruction a
            // unique class by cycling AND unique naming, redefining the class
            // map just once per index).
            machine.define_class(class, uops);
            insts.push(InstDesc::new(format!("I{idx}_{class}"), class));
        }
        (Arc::new(machine), Arc::new(insts))
    })
}

/// Strategy: a random kernel over `n` instructions.
fn arbitrary_kernel(n: usize) -> impl Strategy<Value = Microkernel> {
    prop::collection::vec((0..n as u32, 1..4u32), 1..5).prop_map(|pairs| {
        Microkernel::from_counts(pairs.into_iter().map(|(i, c)| (palmed_isa::InstId(i), c)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem A.1 (i): for any ∇ (here the union closure), the dual never
    /// overestimates the execution time of the optimal disjunctive schedule.
    #[test]
    fn closure_dual_is_a_lower_bound(
        (machine, insts) in arbitrary_machine(4, 6),
        kernel_seed in any::<u64>(),
    ) {
        let mapping = machine.bind(Arc::clone(&insts));
        let dual = dual_of(&mapping, &DualOptions { include_front_end: false, full_power_set: false });
        let mut rng_kernel = Microkernel::new();
        // Derive a kernel deterministically from the seed.
        let n = insts.len() as u64;
        for step in 0..4u64 {
            let inst = ((kernel_seed >> (8 * step)) % n) as u32;
            let count = 1 + ((kernel_seed >> (8 * step + 4)) % 3) as u32;
            rng_kernel.add(palmed_isa::InstId(inst), count);
        }
        let t_disjunctive = throughput::optimal_execution_time(&mapping, &rng_kernel);
        let t_dual = dual.execution_time(&rng_kernel);
        prop_assert!(t_dual <= t_disjunctive + 1e-9,
            "dual {t_dual} > disjunctive {t_disjunctive} for {rng_kernel}");
    }

    /// Theorem A.1 (ii): with ∇ = the full power set, the dual is exact.
    #[test]
    fn power_set_dual_is_exact(
        (machine, insts) in arbitrary_machine(3, 5),
        kernel in arbitrary_kernel(5),
    ) {
        // Clamp kernel instructions to the actual instruction count.
        let clamped = Microkernel::from_counts(
            kernel.iter().map(|(i, c)| (palmed_isa::InstId(i.0 % insts.len() as u32), c)),
        );
        let mapping = machine.bind(Arc::clone(&insts));
        let dual = dual_of(&mapping, &DualOptions { include_front_end: false, full_power_set: true });
        let t_disjunctive = throughput::optimal_execution_time(&mapping, &clamped);
        let t_dual = dual.execution_time(&clamped);
        prop_assert!((t_dual - t_disjunctive).abs() <= 1e-9,
            "dual {t_dual} != disjunctive {t_disjunctive} for {clamped}");
    }

    /// The subset-enumeration bound and the LP formulation of the optimal
    /// disjunctive schedule agree.
    #[test]
    fn subset_bound_matches_lp(
        (machine, insts) in arbitrary_machine(3, 4),
        kernel in arbitrary_kernel(4),
    ) {
        let clamped = Microkernel::from_counts(
            kernel.iter().map(|(i, c)| (palmed_isa::InstId(i.0 % insts.len() as u32), c)),
        );
        let mapping = machine.bind(Arc::clone(&insts));
        let by_subsets = throughput::optimal_execution_time(&mapping, &clamped);
        let by_lp = optimal_execution_time_lp(&mapping, &clamped).unwrap();
        prop_assert!((by_subsets - by_lp).abs() < 1e-6,
            "subset {by_subsets} vs LP {by_lp} for {clamped}");
    }

    /// The conjunctive throughput formula is monotone: adding instructions to
    /// a kernel never increases its IPC above the combined best case and the
    /// execution time never decreases.
    #[test]
    fn conjunctive_execution_time_is_monotone(
        (machine, insts) in arbitrary_machine(4, 5),
        kernel in arbitrary_kernel(5),
        extra in 0u32..5u32,
    ) {
        let clamp = |k: &Microkernel| Microkernel::from_counts(
            k.iter().map(|(i, c)| (palmed_isa::InstId(i.0 % insts.len() as u32), c)),
        );
        let base = clamp(&kernel);
        let mapping = machine.bind(Arc::clone(&insts));
        let dual = dual_of(&mapping, &DualOptions::default());
        let mut extended = base.clone();
        extended.add(palmed_isa::InstId(extra % insts.len() as u32), 1 + extra);
        prop_assert!(dual.execution_time(&extended) >= dual.execution_time(&base) - 1e-12);
    }
}

#[test]
fn union_closure_matches_lp_on_a_many_port_machine() {
    // 20 ports: a power-set enumeration would visit ~10^6 subsets; the union
    // closure visits a handful.  The LP formulation provides an independent
    // exact reference.
    let insts = Arc::new(InstructionSet::from_descs([
        InstDesc::new("A", ExecClass::FpAddSse),
        InstDesc::new("B", ExecClass::IntAluRestricted),
        InstDesc::new("C", ExecClass::Branch),
    ]));
    let mut m = MachineDescription::new("wide", 20, FrontEnd::instructions_only(16.0));
    m.define_class(
        ExecClass::FpAddSse,
        vec![MicroOp::pipelined(PortSet::from_ports([0, 1, 2, 3]))],
    );
    m.define_class(
        ExecClass::IntAluRestricted,
        vec![MicroOp::pipelined(PortSet::from_ports([2, 3, 4]))],
    );
    m.define_class(ExecClass::Branch, vec![MicroOp::pipelined(PortSet::from_ports([17, 18, 19]))]);
    let map = Arc::new(m).bind(Arc::clone(&insts));
    let a = insts.find("A").unwrap();
    let b = insts.find("B").unwrap();
    let c = insts.find("C").unwrap();
    for k in [
        Microkernel::from_counts([(a, 7), (b, 3), (c, 2)]),
        Microkernel::from_counts([(a, 1), (b, 9)]),
        Microkernel::single(c).scaled(5),
    ] {
        let closure = throughput::optimal_execution_time(&map, &k);
        let lp = optimal_execution_time_lp(&map, &k).unwrap();
        assert!((closure - lp).abs() < 1e-6, "mismatch for {k}: {closure} vs {lp}");
    }
}

#[test]
fn lp_formulation_agrees_with_subset_enumeration() {
    // The paper's 3-port machine of Sec. III (ports 0, 1, 6).
    let preset = presets::paper_ports016();
    let map = preset.mapping();
    let find = |name| preset.instructions.find(name).unwrap();
    let (addss, bsr, vcvtt, jnle) = (find("ADDSS"), find("BSR"), find("VCVTT"), find("JNLE"));
    let kernels = [
        Microkernel::single(addss),
        Microkernel::pair(addss, 2, bsr, 1),
        Microkernel::pair(addss, 1, bsr, 2),
        Microkernel::from_counts([(vcvtt, 1), (addss, 2), (jnle, 3)]),
        Microkernel::from_counts([(vcvtt, 2), (bsr, 1), (jnle, 1), (addss, 1)]),
    ];
    for k in kernels {
        let subset = throughput::optimal_execution_time(&map, &k);
        let lp = optimal_execution_time_lp(&map, &k).unwrap();
        assert!((subset - lp).abs() < 1e-6, "mismatch for {k}: {subset} vs {lp}");
    }
}
