//! Every simplex solve proves its own answer.
//!
//! `palmed_lp::revised` checks each outcome against the `Problem` before
//! returning it: an optimum with its row duals (primal residual, reduced-cost
//! signs, duality gap), infeasibility with a Farkas certificate and
//! unboundedness with an improving ray.  Those checks share no code with the
//! pivoting.  A failed certificate panics in debug builds and is counted in
//! `lp.certify.failed` in every build.  These tests drive the solver over a
//! few hundred random instances, bounded, degenerate, infeasible and
//! unbounded ones, cold and warm-started, so that every path is certified.

use palmed_lp::{revised, LpError, Problem, Sense, Solution};
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
/// random multiple of 0.25 in `[-0.5, 0.5]` (a box moves as a whole).  The
/// dimensions stay, so `p`'s final basis can seed the solve.
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
fn random_lps_are_certified_cold_and_warm() {
    palmed_obs::set_enabled(true);
    let checked_before = counter("lp.certify.checked");
    let mut rng = StdRng::seed_from_u64(0x5EED_1AB5);
    let mut shifts = StdRng::seed_from_u64(0x5_EED5_41F7);
    let mut solves = 0u64;
    let mut optimal = 0usize;
    let mut infeasible = 0usize;
    let mut unbounded = 0usize;
    let mut warm_optimal = 0usize;

    for case in 0..200 {
        let p = random_problem(&mut rng);
        p.validate().expect("generator builds valid problems");
        solves += 1;
        match revised::solve_with_warm_start(&p, None) {
            Ok(info) => {
                optimal += 1;
                assert!(is_feasible(&p, &info.solution, 1e-6), "case {case}: solution infeasible");
                // Warm-start the perturbed problem from this optimum's basis;
                // a cold solve of the same problem must reach the same verdict.
                let q = perturbed(&p, &mut shifts);
                let warm = revised::solve_with_warm_start(&q, Some(&info.basis));
                let cold = revised::solve_with_warm_start(&q, None);
                solves += 2;
                match (&warm, &cold) {
                    (Ok(a), Ok(b)) => {
                        warm_optimal += 1;
                        let (a, b) = (a.solution.objective, b.solution.objective);
                        assert!(
                            (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                            "case {case}: warm objective {a} vs cold {b}"
                        );
                    }
                    (Err(LpError::Infeasible), Err(LpError::Infeasible))
                    | (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
                    (a, b) => panic!("case {case}: warm {a:?} vs cold {b:?}"),
                }
            }
            Err(LpError::Infeasible) => infeasible += 1,
            Err(LpError::Unbounded) => unbounded += 1,
            Err(e) => panic!("case {case}: solver error {e}"),
        }
    }

    // The generator must actually exercise all three outcome classes, and
    // enough perturbed warm starts must stay optimal to compare objectives.
    assert!(optimal >= 40, "only {optimal} optimal instances generated");
    assert!(infeasible >= 10, "only {infeasible} infeasible instances generated");
    assert!(unbounded >= 10, "only {unbounded} unbounded instances generated");
    assert!(warm_optimal >= 20, "only {warm_optimal} perturbed warm starts were optimal");
    // Every solve above was certified (other tests only add to the count),
    // and no certificate anywhere failed, release builds included.
    assert!(counter("lp.certify.checked") - checked_before >= solves);
    assert_eq!(counter("lp.certify.failed"), 0);
}

#[test]
fn warm_start_beats_cold_start_on_perturbed_rhs() {
    // A transportation-like LP; perturb the supply vector and restart.
    let build = |bump: f64| {
        let n = 12usize;
        let mut p = Problem::new(Sense::Minimize);
        let mut vars = Vec::new();
        for i in 0..n {
            for j in 0..n {
                vars.push(p.add_var(format!("x_{i}_{j}"), 0.0, f64::INFINITY));
            }
        }
        for i in 0..n {
            let mut row = p.expr();
            for j in 0..n {
                row.add_term(1.0, vars[i * n + j]);
            }
            p.add_eq(row, 1.0 + i as f64 + bump);
        }
        for j in 0..n {
            let mut col = p.expr();
            for i in 0..n {
                col.add_term(1.0, vars[i * n + j]);
            }
            p.add_ge(col, 0.5 + j as f64 * 0.5);
        }
        let mut obj = p.expr();
        for (k, &v) in vars.iter().enumerate() {
            obj.add_term(1.0 + (k % 7) as f64, v);
        }
        p.set_objective(obj);
        p
    };
    let cold = revised::solve_with_warm_start(&build(0.0), None).unwrap();
    let perturbed = build(0.25);
    let re_cold = revised::solve_with_warm_start(&perturbed, None).unwrap();
    let warm = revised::solve_with_warm_start(&perturbed, Some(&cold.basis)).unwrap();
    assert!(
        (warm.solution.objective - re_cold.solution.objective).abs() <= 1e-6,
        "warm and cold must agree: {} vs {}",
        warm.solution.objective,
        re_cold.solution.objective
    );
    assert!(
        warm.iterations < re_cold.iterations,
        "warm start must pivot less: warm {} vs cold {}",
        warm.iterations,
        re_cold.iterations
    );
}

/// Four equality rows whose only feasible point is `x`, over a matrix built
/// so that factorising the all-structural basis (columns in variable order)
/// cancels a work value to exactly zero and fills it in again: in column 2,
/// row `r` starts at 1, drops to `1 - 0.5·2 = 0` against pivot 0 and refills
/// to `-0.25·4 = -1` against pivot 1, while row `q` takes the pivot.  A
/// factorisation that lists such a row twice stores its L entry twice.
fn cancelling_basis_problem(x: [f64; 4]) -> Problem {
    let rows: [[f64; 4]; 4] =
        [[2.0, 0.0, 2.0, 0.0], [0.0, 4.0, 4.0, 0.0], [1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 8.0, 1.0]];
    let mut p = Problem::new(Sense::Minimize);
    let vars: Vec<_> = (0..4).map(|i| p.add_var(format!("x{i}"), 0.0, f64::INFINITY)).collect();
    for row in rows {
        let mut expr = p.expr();
        for (&a, &v) in row.iter().zip(&vars) {
            if a != 0.0 {
                expr.add_term(a, v);
            }
        }
        p.add_eq(expr, row.iter().zip(&x).map(|(a, x)| a * x).sum());
    }
    let mut obj = p.expr();
    for &v in &vars {
        obj.add_term(1.0, v);
    }
    p.set_objective(obj);
    p
}

#[test]
fn warm_start_factorises_a_basis_whose_work_value_cancels_and_refills() {
    palmed_obs::set_enabled(true);
    let checked_before = counter("lp.certify.checked");
    // The cold solve pivots all four structural columns in (the only
    // feasible point is strictly positive), so its basis is the matrix.
    let cold = revised::solve_with_warm_start(&cancelling_basis_problem([1.0; 4]), None).unwrap();
    for &v in &cold.solution.values {
        assert_close(v, 1.0);
    }
    // Warm-starting factorises that basis from scratch.  With correct
    // factors it is already optimal for a new right-hand side, so the
    // solve takes no pivot and lands on the new point.
    let target = [1.0, 2.0, 0.5, 3.0];
    let warm = revised::solve_with_warm_start(&cancelling_basis_problem(target), Some(&cold.basis))
        .unwrap();
    assert_eq!(warm.iterations, 0, "the adopted basis is optimal as it stands");
    for (&v, &want) in warm.solution.values.iter().zip(&target) {
        assert_close(v, want);
    }
    assert_close(warm.solution.objective, target.iter().sum());
    assert!(counter("lp.certify.checked") - checked_before >= 2);
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
