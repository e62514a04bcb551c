//! Property-based tests of the LP substrate and of the model-facing
//! invariants the inference pipeline relies on.

use palmed_lp::{LpError, Problem, Sense};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Feasible bounded LPs: the simplex solution satisfies every constraint
    /// and every bound (primal feasibility).
    #[test]
    fn simplex_solutions_are_feasible(
        coeffs in prop::collection::vec((0.1f64..5.0, 0.1f64..5.0), 1..6),
        bounds in prop::collection::vec(1.0f64..20.0, 1..6),
        obj in prop::collection::vec(0.1f64..3.0, 2),
    ) {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        let n = coeffs.len().min(bounds.len());
        for i in 0..n {
            let (a, b) = coeffs[i];
            p.add_le(p.expr().term(a, x).term(b, y), bounds[i]);
        }
        p.set_objective(p.expr().term(obj[0], x).term(obj[1], y));
        let sol = p.solve().expect("bounded feasible LP");
        prop_assert!(sol[x] >= -1e-7 && sol[y] >= -1e-7);
        for i in 0..n {
            let (a, b) = coeffs[i];
            prop_assert!(a * sol[x] + b * sol[y] <= bounds[i] + 1e-6,
                "constraint {i} violated: {} > {}", a * sol[x] + b * sol[y], bounds[i]);
        }
        // The objective equals the recomputed expression value.
        prop_assert!((sol.objective - (obj[0] * sol[x] + obj[1] * sol[y])).abs() < 1e-6);
    }

    /// Microkernel multiset semantics: |K| is the sum of multiplicities and
    /// merging is commutative.
    #[test]
    fn microkernel_merge_is_commutative(
        a in prop::collection::vec((0u32..12, 1u32..5), 1..6),
        b in prop::collection::vec((0u32..12, 1u32..5), 1..6),
    ) {
        use palmed_isa::{InstId, Microkernel};
        let ka = Microkernel::from_counts(a.iter().map(|&(i, c)| (InstId(i), c)));
        let kb = Microkernel::from_counts(b.iter().map(|&(i, c)| (InstId(i), c)));
        let mut ab = ka.clone();
        ab.merge(&kb);
        let mut ba = kb.clone();
        ba.merge(&ka);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.total_instructions(), ka.total_instructions() + kb.total_instructions());
    }

    /// The conjunctive throughput formula is scale-invariant: repeating the
    /// whole kernel k times does not change its IPC.
    #[test]
    fn conjunctive_ipc_is_scale_invariant(
        usages in prop::collection::vec(prop::collection::vec(0.0f64..2.0, 3), 2..5),
        counts in prop::collection::vec(1u32..4, 2..5),
        scale in 2u32..5,
    ) {
        use palmed_core::ConjunctiveMapping;
        use palmed_isa::{InstId, Microkernel};
        let mut mapping = ConjunctiveMapping::with_resources(3);
        for (i, usage) in usages.iter().enumerate() {
            mapping.set_usage(InstId(i as u32), usage.clone());
        }
        let n = usages.len().min(counts.len());
        let kernel = Microkernel::from_counts((0..n).map(|i| (InstId(i as u32), counts[i])));
        let base = mapping.ipc(&kernel);
        let scaled = mapping.ipc(&kernel.scaled(scale));
        match (base, scaled) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
            (None, None) => {}
            _ => prop_assert!(false, "scaling changed definedness"),
        }
    }
}

/// Deterministic regression: an infeasible system must be reported as such,
/// not silently "solved".
#[test]
fn infeasible_systems_are_reported() {
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", 0.0, 10.0);
    p.add_ge(p.expr().term(1.0, x), 5.0);
    p.add_le(p.expr().term(1.0, x), 2.0);
    p.set_objective(p.expr().term(1.0, x));
    assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
}
