//! The ∇-dual: turning a disjunctive port mapping into an equivalent
//! conjunctive resource mapping (Appendix A of the paper).
//!
//! Given a disjunctive mapping (µOPs choose one port among a set), pick a
//! family ∇ of port subsets.  Each subset `J ∈ ∇` becomes an abstract
//! resource of throughput `|J|`; a µOP uses `r_J` exactly when *all* its
//! compatible ports lie inside `J`.  After normalisation (divide usages by
//! `|J|`), the conjunctive throughput formula under-approximates the
//! execution time for any ∇ (Thm. A.1 (i)) and is exact when ∇ contains all
//! port subsets (Thm. A.1 (ii)) — in practice the much smaller *union
//! closure* of the µOP port sets suffices, which is what [`nabla_closure`]
//! computes and what the paper uses ("fewer than 14 elements in our
//! experiments").
//!
//! This module is the reproduction's oracle: it converts the ground-truth
//! machine model into the representation Palmed is trying to learn, so tests
//! can compare the inferred mapping against the ideal one, and the
//! "uops.info"-style baseline can be expressed as "the oracle dual without
//! non-port resources".

use crate::conjunctive::ConjunctiveMapping;
use palmed_machine::{DisjunctiveMapping, PortSet};
use std::collections::BTreeSet;

/// Options controlling the dual construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DualOptions {
    /// Add one extra abstract resource modelling the front-end: every
    /// instruction uses `1 / decode-width` of it.  The paper highlights that
    /// representing such non-port bottlenecks is exactly what the conjunctive
    /// form can do and port-based tools cannot.
    pub include_front_end: bool,
    /// Use the full power set of ports instead of the union closure
    /// (exponential; only sensible for machines with few ports, e.g. tests).
    pub full_power_set: bool,
}

impl Default for DualOptions {
    fn default() -> Self {
        DualOptions { include_front_end: true, full_power_set: false }
    }
}

/// Computes ∇ as the union closure of the given port sets: starting from the
/// distinct µOP port sets, the union of any two intersecting members is added
/// until a fixed point is reached.
pub fn nabla_closure(base: impl IntoIterator<Item = PortSet>) -> Vec<PortSet> {
    let mut nabla: BTreeSet<PortSet> = base.into_iter().filter(|s| !s.is_empty()).collect();
    loop {
        let mut additions = Vec::new();
        let members: Vec<PortSet> = nabla.iter().copied().collect();
        for (idx, &a) in members.iter().enumerate() {
            for &b in &members[idx + 1..] {
                if !a.intersection(b).is_empty() {
                    let u = a.union(b);
                    if !nabla.contains(&u) {
                        additions.push(u);
                    }
                }
            }
        }
        if additions.is_empty() {
            break;
        }
        nabla.extend(additions);
    }
    nabla.into_iter().collect()
}

/// All non-empty subsets of the first `num_ports` ports.
pub fn full_power_set(num_ports: usize) -> Vec<PortSet> {
    assert!(num_ports <= 20, "power set limited to 20 ports, got {num_ports}");
    (1u32..(1 << num_ports)).map(PortSet::from_mask).collect()
}

/// Human-readable name of the abstract resource corresponding to a port set
/// (`r01` for ports {0, 1}, matching the paper's figures).
pub fn resource_name_for(ports: PortSet) -> String {
    let mut name = String::from("r");
    for p in ports.iter() {
        name.push_str(&p.index().to_string());
    }
    name
}

/// Builds the normalised ∇-dual conjunctive mapping of a disjunctive mapping.
///
/// Every instruction of the disjunctive mapping's instruction set is mapped.
pub fn dual_of(mapping: &DisjunctiveMapping, options: &DualOptions) -> ConjunctiveMapping {
    let machine = mapping.machine();
    let insts = mapping.instructions();

    let nabla = if options.full_power_set {
        full_power_set(machine.num_ports)
    } else {
        let base =
            insts.ids().flat_map(|i| mapping.uops(i).iter().map(|u| u.ports).collect::<Vec<_>>());
        nabla_closure(base)
    };

    let mut names: Vec<String> = nabla.iter().map(|&j| resource_name_for(j)).collect();
    let front_end_index = if options.include_front_end {
        names.push("front-end".to_string());
        Some(names.len() - 1)
    } else {
        None
    };

    let mut conj = ConjunctiveMapping::new(names);
    for inst in insts.ids() {
        let mut usage = vec![0.0; nabla.len() + usize::from(front_end_index.is_some())];
        for (idx, &j) in nabla.iter().enumerate() {
            let mut load = 0.0;
            for u in mapping.uops(inst) {
                if u.ports.is_subset_of(j) {
                    load += u.inverse_throughput;
                }
            }
            usage[idx] = load / j.len() as f64;
        }
        if let Some(fe) = front_end_index {
            usage[fe] = 1.0 / machine.front_end.instructions_per_cycle;
        }
        conj.set_usage(inst, usage);
    }
    conj.prune_unused_resources();
    conj
}

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_isa::Microkernel;
    use palmed_machine::{presets, throughput};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn closure_of_paper_ports() {
        // µOP port sets of the pedagogical machine: {0}, {01}, {1}, {02}, {2}.
        let sets = [
            PortSet::from_ports([0]),
            PortSet::from_ports([0, 1]),
            PortSet::from_ports([1]),
            PortSet::from_ports([0, 2]),
            PortSet::from_ports([2]),
        ];
        let nabla = nabla_closure(sets);
        // Expect the 5 base sets plus {0,1,2} and {1,2}? {1} ∪ {02} don't
        // intersect; {01} ∪ {02} = {012}; {01} ∪ {2}? disjoint. {012} present.
        assert!(nabla.contains(&PortSet::from_ports([0, 1, 2])));
        assert!(nabla.len() >= 6);
        // Closure is idempotent.
        let again = nabla_closure(nabla.clone());
        assert_eq!(again.len(), nabla.len());
    }

    #[test]
    fn resource_names_match_paper_convention() {
        assert_eq!(resource_name_for(PortSet::from_ports([0, 1])), "r01");
        assert_eq!(resource_name_for(PortSet::from_ports([0, 1, 6])), "r016");
    }

    #[test]
    fn paper_example_dual_has_expected_resources() {
        let preset = presets::paper_ports016();
        let map = preset.mapping();
        let dual = dual_of(&map, &DualOptions { include_front_end: false, full_power_set: false });
        let names: Vec<&str> = dual.resources().map(|r| dual.resource_name(r)).collect();
        // Paper Fig. 1b: r0, r1, r6(-> port 2 here), r01, r06(->r02), r016(->r012)
        for expected in ["r0", "r1", "r2", "r01", "r02", "r012"] {
            assert!(names.contains(&expected), "missing {expected}, got {names:?}");
        }
    }

    #[test]
    fn paper_example_dual_normalised_usages() {
        let preset = presets::paper_ports016();
        let insts = &preset.instructions;
        let map = preset.mapping();
        let dual = dual_of(&map, &DualOptions { include_front_end: false, full_power_set: false });
        let addss = insts.find("ADDSS").unwrap();
        let vcvtt = insts.find("VCVTT").unwrap();
        let r01 = dual.resources().find(|&r| dual.resource_name(r) == "r01").unwrap();
        let r012 = dual.resources().find(|&r| dual.resource_name(r) == "r012").unwrap();
        // Paper: normalised ρ(ADDSS, r01) = 1/2, ρ(ADDSS, r016) = 1/3,
        // ρ(VCVTT, r01) = 1 (2 uses / throughput 2).
        assert!((dual.usage(addss, r01) - 0.5).abs() < 1e-12);
        assert!((dual.usage(addss, r012) - 1.0 / 3.0).abs() < 1e-12);
        assert!((dual.usage(vcvtt, r01) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dual_exactly_reproduces_disjunctive_throughput_on_paper_machine() {
        let preset = presets::paper_ports016();
        let insts = &preset.instructions;
        let map = preset.mapping();
        let dual = dual_of(&map, &DualOptions::default());
        let find = |n: &str| insts.find(n).unwrap();
        let kernels = [
            Microkernel::pair(find("ADDSS"), 2, find("BSR"), 1),
            Microkernel::pair(find("ADDSS"), 1, find("BSR"), 2),
            Microkernel::from_counts([(find("VCVTT"), 1), (find("JNLE"), 2), (find("JMP"), 1)]),
            Microkernel::from_counts([(find("DIVPS"), 2), (find("ADDSS"), 1), (find("BSR"), 1)]),
            Microkernel::single(find("JNLE")).scaled(3),
        ];
        for k in kernels {
            let native = throughput::ipc(&map, &k);
            let predicted = dual.ipc(&k).unwrap();
            assert!(
                (native - predicted).abs() < 1e-9,
                "dual mismatch on {k}: native {native}, dual {predicted}"
            );
        }
    }

    #[test]
    fn closure_dual_never_overestimates_execution_time() {
        // Theorem A.1 (i): t_dual(K) <= t_disj(K) for any ∇; with the union
        // closure we additionally expect equality on most kernels, but only
        // the inequality is guaranteed.  Check on random kernels of the
        // SKL-like machine (8 ports -> power set would be 255 resources).
        let preset = presets::skl_sp(&palmed_isa::InventoryConfig::small());
        let map = preset.mapping();
        let dual = dual_of(&map, &DualOptions::default());
        let ids: Vec<_> = preset.instructions.ids().collect();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let mut k = Microkernel::new();
            for _ in 0..rng.gen_range(1..5) {
                k.add(ids[rng.gen_range(0..ids.len())], rng.gen_range(1..4));
            }
            let t_disj = throughput::optimal_execution_time(&map, &k);
            let t_dual = dual.execution_time(&k);
            assert!(t_dual <= t_disj + 1e-9, "dual overestimates: {t_dual} > {t_disj} for {k}");
        }
    }

    #[test]
    fn power_set_dual_is_exact_on_small_machines() {
        // Theorem A.1 (ii): with ∇ = all subsets the dual is exact.  The toy
        // machine has 2 ports, the pedagogical one 3 — both small enough.
        for preset in [presets::toy_two_port(), presets::paper_ports016()] {
            let map = preset.mapping();
            let dual =
                dual_of(&map, &DualOptions { include_front_end: true, full_power_set: true });
            let ids: Vec<_> = preset.instructions.ids().collect();
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..100 {
                let mut k = Microkernel::new();
                for _ in 0..rng.gen_range(1..4) {
                    k.add(ids[rng.gen_range(0..ids.len())], rng.gen_range(1..4));
                }
                let t_disj = throughput::optimal_execution_time(&map, &k);
                let t_dual = dual.execution_time(&k);
                assert!(
                    (t_disj - t_dual).abs() < 1e-9,
                    "power-set dual not exact on {k}: {t_dual} vs {t_disj}"
                );
            }
        }
    }

    #[test]
    fn front_end_resource_is_included_when_requested() {
        let preset = presets::paper_ports016();
        let map = preset.mapping();
        let with_fe =
            dual_of(&map, &DualOptions { include_front_end: true, full_power_set: false });
        let without_fe =
            dual_of(&map, &DualOptions { include_front_end: false, full_power_set: false });
        assert_eq!(with_fe.num_resources(), without_fe.num_resources() + 1);
        let addss = preset.instructions.find("ADDSS").unwrap();
        // Six ADDSS per iteration: port bound gives IPC 2, front-end gives 4.
        let k = Microkernel::single(addss).scaled(6);
        assert!((with_fe.ipc(&k).unwrap() - 2.0).abs() < 1e-9);
        // A kernel with enough port parallelism is front-end-bound only in
        // the with-front-end dual.
        let jmp = preset.instructions.find("JMP").unwrap();
        let bsr = preset.instructions.find("BSR").unwrap();
        let divps = preset.instructions.find("DIVPS").unwrap();
        let wide = Microkernel::from_counts([(jmp, 2), (bsr, 2), (divps, 2)]);
        let fe_ipc = with_fe.ipc(&wide).unwrap();
        let port_ipc = without_fe.ipc(&wide).unwrap();
        assert!(fe_ipc <= 4.0 + 1e-9);
        assert!(port_ipc >= fe_ipc - 1e-9);
    }
}
