//! Every simplex solve proves its own answer.
//!
//! `Problem::solve` checks each outcome against its problem before
//! returning it: an optimum with its row duals (primal residual, reduced-cost
//! signs, duality gap), infeasibility with a Farkas certificate and
//! unboundedness with an improving ray.  Those checks share no code with the
//! pivoting.  A failed certificate panics in debug builds and is counted in
//! `lp.certify.failed` in every build.  These tests drive the solver over a
//! few hundred random instances, bounded, degenerate, infeasible and
//! unbounded ones, and over a perturbed copy of each optimal one, so that
//! every path is certified.

use palmed_lp::{LpError, Problem, Sense, Solution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random LP: up to 8 variables with mixed finite/infinite/fixed bounds,
/// up to 8 constraints with mixed operators, small integer-ish coefficients
/// (well-scaled so that tolerance differences cannot flip feasibility).
fn random_problem(rng: &mut StdRng) -> Problem {
    let sense = if rng.gen_bool(0.5) { Sense::Maximize } else { Sense::Minimize };
    let mut p = Problem::new(sense);
    let n = rng.gen_range(1..=8usize);
    let m = rng.gen_range(1..=8usize);

    let mut vars = Vec::with_capacity(n);
    for i in 0..n {
        let (lower, upper) = match rng.gen_range(0..10u32) {
            0..=3 => (0.0, f64::INFINITY),
            4..=6 => (0.0, rng.gen_range(1..=6) as f64 * 0.5),
            7 => (-(rng.gen_range(1..=4) as f64), rng.gen_range(1..=4) as f64),
            8 => {
                // Upper-bounded-only (rests at its upper bound) or free.
                if rng.gen_bool(0.5) {
                    (f64::NEG_INFINITY, rng.gen_range(1..=4) as f64 * 0.5)
                } else {
                    (f64::NEG_INFINITY, f64::INFINITY)
                }
            }
            _ => {
                // Fixed variable.
                let v = rng.gen_range(0..=2) as f64 * 0.5;
                (v, v)
            }
        };
        vars.push(p.add_var(format!("x{i}"), lower, upper));
    }

    for _ in 0..m {
        let mut expr = p.expr();
        let nnz = rng.gen_range(1..=3.min(n));
        for _ in 0..nnz {
            let v = vars[rng.gen_range(0..n)];
            let c = rng.gen_range(-4..=4) as f64 * 0.5;
            if c != 0.0 {
                expr.add_term(c, v);
            }
        }
        // Mostly `<=` rows with non-negative right-hand sides keep a healthy
        // share of instances feasible and bounded; `>=`/`==` rows with
        // occasionally negative sides still exercise infeasibility.
        match rng.gen_range(0..10u32) {
            0..=5 => p.add_le(expr, rng.gen_range(0..=8) as f64 * 0.5),
            6..=7 => p.add_ge(expr, rng.gen_range(-8..=4) as f64 * 0.5),
            _ => p.add_eq(expr, rng.gen_range(-2..=6) as f64 * 0.5),
        }
    }

    let mut obj = p.expr();
    for &v in &vars {
        let c = rng.gen_range(-3..=3) as f64;
        if c != 0.0 {
            obj.add_term(c, v);
        }
    }
    p.set_objective(obj);
    p
}

fn is_feasible(p: &Problem, sol: &Solution, tol: f64) -> bool {
    for (def, &v) in p.vars().iter().zip(&sol.values) {
        if v < def.lower - tol || v > def.upper + tol {
            return false;
        }
    }
    for c in p.constraints() {
        let lhs = c.expr.evaluate(&sol.values);
        let ok = match c.op {
            palmed_lp::ConstraintOp::Le => lhs <= c.rhs + tol,
            palmed_lp::ConstraintOp::Ge => lhs >= c.rhs - tol,
            palmed_lp::ConstraintOp::Eq => (lhs - c.rhs).abs() <= tol,
        };
        if !ok {
            return false;
        }
    }
    true
}

/// `p` with every right-hand side and every finite bound shifted by a
/// random multiple of 0.25 in `[-0.5, 0.5]` (a box moves as a whole).
fn perturbed(p: &Problem, rng: &mut StdRng) -> Problem {
    let mut q = Problem::new(p.sense());
    for def in p.vars() {
        let shift = rng.gen_range(-2..=2) as f64 * 0.25;
        q.add_var(def.name.clone(), def.lower + shift, def.upper + shift);
    }
    for c in p.constraints() {
        let shift = rng.gen_range(-2..=2) as f64 * 0.25;
        q.add_constraint(c.expr.clone(), c.op, c.rhs + shift);
    }
    q.set_objective(p.objective().clone());
    q
}

fn counter(name: &str) -> u64 {
    palmed_obs::snapshot().counter(name).unwrap_or(0)
}

#[test]
fn random_lps_are_certified() {
    palmed_obs::set_enabled(true);
    let checked_before = counter("lp.certify.checked");
    let mut rng = StdRng::seed_from_u64(0x5EED_1AB5);
    let mut shifts = StdRng::seed_from_u64(0x5_EED5_41F7);
    let mut solves = 0u64;
    let mut optimal = 0usize;
    let mut infeasible = 0usize;
    let mut unbounded = 0usize;
    let mut perturbed_optimal = 0usize;

    for case in 0..200 {
        let p = random_problem(&mut rng);
        p.validate().expect("generator builds valid problems");
        solves += 1;
        match p.solve() {
            Ok(solution) => {
                optimal += 1;
                assert!(is_feasible(&p, &solution, 1e-6), "case {case}: solution infeasible");
                // Shift the bounds and right-hand sides of this optimum's
                // problem and solve that too: its verdict is certified as
                // well, and an optimum must be feasible.
                let q = perturbed(&p, &mut shifts);
                solves += 1;
                match q.solve() {
                    Ok(solution) => {
                        perturbed_optimal += 1;
                        assert!(
                            is_feasible(&q, &solution, 1e-6),
                            "case {case}: perturbed solution infeasible"
                        );
                    }
                    Err(LpError::Infeasible | LpError::Unbounded) => {}
                    Err(e) => panic!("case {case}: perturbed solver error {e}"),
                }
            }
            Err(LpError::Infeasible) => infeasible += 1,
            Err(LpError::Unbounded) => unbounded += 1,
            Err(e) => panic!("case {case}: solver error {e}"),
        }
    }

    // The generator must actually exercise all three outcome classes, and
    // enough perturbed problems must stay optimal to certify their optima.
    assert!(optimal >= 40, "only {optimal} optimal instances generated");
    assert!(infeasible >= 10, "only {infeasible} infeasible instances generated");
    assert!(unbounded >= 10, "only {unbounded} unbounded instances generated");
    assert!(perturbed_optimal >= 20, "only {perturbed_optimal} perturbed problems were optimal");
    // Every solve above was certified (other tests only add to the count),
    // and no certificate anywhere failed, release builds included.
    assert!(counter("lp.certify.checked") - checked_before >= solves);
    assert_eq!(counter("lp.certify.failed"), 0);
}

// Textbook LPs with known optima; each solve is certified on the way out.

fn assert_close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-6, "{a} != {b}");
}

#[test]
fn simple_minimization_with_ge() {
    // min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> x = 1.6, y = 1.2, obj = 2.8
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", 0.0, f64::INFINITY);
    let y = p.add_var("y", 0.0, f64::INFINITY);
    p.add_ge(p.expr().term(1.0, x).term(2.0, y), 4.0);
    p.add_ge(p.expr().term(3.0, x).term(1.0, y), 6.0);
    p.set_objective(p.expr().term(1.0, x).term(1.0, y));
    let sol = p.solve().unwrap();
    assert_close(sol.objective, 2.8);
}

#[test]
fn equality_constraints() {
    // min 2x + 3y s.t. x + y == 10, x - y == 2 -> x=6, y=4, obj=24
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", 0.0, f64::INFINITY);
    let y = p.add_var("y", 0.0, f64::INFINITY);
    p.add_eq(p.expr().term(1.0, x).term(1.0, y), 10.0);
    p.add_eq(p.expr().term(1.0, x).term(-1.0, y), 2.0);
    p.set_objective(p.expr().term(2.0, x).term(3.0, y));
    let sol = p.solve().unwrap();
    assert_close(sol[x], 6.0);
    assert_close(sol[y], 4.0);
    assert_close(sol.objective, 24.0);
}

#[test]
fn redundant_equalities_are_handled() {
    // x + y == 2 listed twice.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, f64::INFINITY);
    let y = p.add_var("y", 0.0, f64::INFINITY);
    p.add_eq(p.expr().term(1.0, x).term(1.0, y), 2.0);
    p.add_eq(p.expr().term(1.0, x).term(1.0, y), 2.0);
    p.set_objective(p.expr().term(1.0, x));
    let sol = p.solve().unwrap();
    assert_close(sol[x], 2.0);
}

#[test]
fn negative_lower_bounds_are_supported() {
    // max x + y with x in [-3, -1], y in [-2, 2], x + y <= 0
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", -3.0, -1.0);
    let y = p.add_var("y", -2.0, 2.0);
    p.add_le(p.expr().term(1.0, x).term(1.0, y), 0.0);
    p.set_objective(p.expr().term(1.0, x).term(1.0, y));
    let sol = p.solve().unwrap();
    assert_close(sol.objective, 0.0);
}

#[test]
fn upper_bounds_are_respected() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x", 0.0, 2.5);
    p.set_objective(p.expr().term(1.0, x));
    let sol = p.solve().unwrap();
    assert_close(sol[x], 2.5);
}
