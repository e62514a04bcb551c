//! Property-based tests of the theoretical core: the equivalence between the
//! disjunctive port mapping and its conjunctive ∇-dual (Appendix A of the
//! paper), checked on randomly generated machines and kernels.

use palmed_core::dual::{dual_of, DualOptions};
use palmed_isa::{ExecClass, InstDesc, InstructionSet, Microkernel};
use palmed_machine::disjunctive::{FrontEnd, MachineDescription};
use palmed_machine::{throughput, MicroOp, PortSet};
use proptest::prelude::*;
use std::sync::Arc;

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
        let by_lp = throughput::optimal_execution_time_lp(&mapping, &clamped).unwrap();
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
