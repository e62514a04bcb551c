//! Duality certificates: every simplex outcome checked against the
//! [`Problem`] it claims to solve.
//!
//! The revised simplex ([`crate::revised`]) works on a bounded standard form
//! with one slack per row and a factorised basis.  The checks here never see
//! any of that: they read the variable boxes and the `Le`/`Ge`/`Eq` rows
//! straight from the [`Problem`], cost `O(nnz)` each, and share no code with
//! pricing, the ratio test or the basis factors they are checking.
//!
//! All three speak the minimisation form: the objective `c` is negated when
//! the problem maximises.  Row `i` reads `aᵢ·x + sᵢ = bᵢ` with its slack in
//! `[0, ∞)` for `Le`, `(−∞, 0]` for `Ge` and `{0}` for `Eq`; a multiplier
//! `yᵢ` prices that row, so the reduced cost of variable `j` is
//! `dⱼ = cⱼ − (yA)ⱼ` and that of slack `i` is `−yᵢ`.
//!
//! Tolerances are relative to [`TOL`]: a row residual scales by `1 + |bᵢ|`,
//! a bound residual by `1 + |xⱼ|`, a reduced-cost sign by `1 + |cⱼ|` and
//! the gap by `1 + |objective|`.  Farkas multipliers and rays are
//! scale-free, so they are normalised to unit max-norm first.

use std::fmt;

use crate::model::{ConstraintOp, Problem, Sense};

/// Relative tolerance every certificate is checked at.
const TOL: f64 = 1e-6;

/// A certificate condition that does not hold, with its scaled residual.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Violation {
    what: String,
    residual: f64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (scaled residual {:e})", self.what, self.residual)
    }
}

/// Outcome of one certificate check.
pub(crate) type Check = Result<(), Violation>;

/// Fails with `what` unless `residual` is within [`TOL`] (NaN fails too).
fn within(residual: f64, what: impl FnOnce() -> String) -> Check {
    if residual <= TOL {
        Ok(())
    } else {
        Err(Violation { what: what(), residual })
    }
}

/// Bounds of row `op`'s slack `s = b − a·x`.
fn slack_box(op: ConstraintOp) -> (f64, f64) {
    match op {
        ConstraintOp::Le => (0.0, f64::INFINITY),
        ConstraintOp::Ge => (f64::NEG_INFINITY, 0.0),
        ConstraintOp::Eq => (0.0, 0.0),
    }
}

/// `sup { g·z : lower ≤ z ≤ upper }` when finite.  When `g` points at an
/// infinite bound the supremum is `+∞`: the finite part `0` is returned
/// together with `|g|` as the residual.
fn sup(g: f64, lower: f64, upper: f64) -> (f64, f64) {
    if g > 0.0 {
        if upper.is_finite() {
            (g * upper, 0.0)
        } else {
            (0.0, g)
        }
    } else if g < 0.0 {
        if lower.is_finite() {
            (g * lower, 0.0)
        } else {
            (0.0, -g)
        }
    } else {
        (0.0, 0.0)
    }
}

/// How far the direction `r` leaves the recession cone of `[lower, upper]`.
fn recession(r: f64, lower: f64, upper: f64) -> f64 {
    if r > 0.0 && upper.is_finite() {
        r
    } else if r < 0.0 && lower.is_finite() {
        -r
    } else {
        0.0
    }
}

/// Minimisation-form objective coefficients, duplicate terms summed.
fn min_costs(problem: &Problem) -> Vec<f64> {
    let sign = if problem.sense() == Sense::Maximize { -1.0 } else { 1.0 };
    let mut c = vec![0.0; problem.num_vars()];
    for (v, a) in problem.objective().iter() {
        c[v.index()] += sign * a;
    }
    c
}

/// `yA`, one entry per variable.
fn price(problem: &Problem, y: &[f64]) -> Vec<f64> {
    let mut ya = vec![0.0; problem.num_vars()];
    for (row, &yi) in problem.constraints().iter().zip(y) {
        if yi != 0.0 {
            for (v, a) in row.expr.iter() {
                ya[v.index()] += yi * a;
            }
        }
    }
    ya
}

/// `v / ‖v‖∞`, or `None` for the zero vector (or a non-finite one).
fn normalized(v: &[f64]) -> Option<Vec<f64>> {
    let scale = v.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
    (scale > 0.0 && scale.is_finite()).then(|| v.iter().map(|x| x / scale).collect())
}

/// `x` satisfies every variable bound and every row.
fn primal(problem: &Problem, x: &[f64]) -> Check {
    assert_eq!(x.len(), problem.num_vars(), "one value per variable");
    for (j, (def, &xj)) in problem.vars().iter().zip(x).enumerate() {
        let outside = (def.lower - xj).max(xj - def.upper).max(0.0);
        within(outside / (1.0 + xj.abs()), || {
            format!("variable {j} = {xj} outside [{}, {}]", def.lower, def.upper)
        })?;
    }
    for (i, row) in problem.constraints().iter().enumerate() {
        let lhs = row.expr.evaluate(x);
        let excess = match row.op {
            ConstraintOp::Le => lhs - row.rhs,
            ConstraintOp::Ge => row.rhs - lhs,
            ConstraintOp::Eq => (lhs - row.rhs).abs(),
        };
        within(excess.max(0.0) / (1.0 + row.rhs.abs()), || {
            format!("row {i} ({:?}): lhs {lhs} against rhs {}", row.op, row.rhs)
        })?;
    }
    Ok(())
}

/// Checks that `x` is optimal, with `y` (one multiplier per row, pricing the
/// minimisation form) as the proof: `x` satisfies every bound and row (primal
/// residual), every reduced cost pushes only against a finite bound (dual
/// residual), and `c·x` equals the dual objective
/// `y·b + Σⱼ min over the box of dⱼ·xⱼ` (duality gap).
pub(crate) fn optimal(problem: &Problem, x: &[f64], y: &[f64]) -> Check {
    assert_eq!(y.len(), problem.num_constraints(), "one multiplier per row");
    primal(problem, x)?;
    let c = min_costs(problem);
    let ya = price(problem, y);
    // Dual objective: y·b plus the minimum of each reduced cost over its
    // box, `min d·z = −sup (−d)·z`.
    let mut dual = 0.0;
    for (i, (row, &yi)) in problem.constraints().iter().zip(y).enumerate() {
        let (lower, upper) = slack_box(row.op);
        let (_, wrong_sign) = sup(yi, lower, upper);
        within(wrong_sign, || {
            format!("row {i} ({:?}) multiplier {yi} has the wrong sign", row.op)
        })?;
        dual += yi * row.rhs;
    }
    for (j, def) in problem.vars().iter().enumerate() {
        let d = c[j] - ya[j];
        let (neg_min, wrong_sign) = sup(-d, def.lower, def.upper);
        within(wrong_sign / (1.0 + c[j].abs()), || {
            format!("variable {j} reduced cost {d} pushes against an infinite bound")
        })?;
        dual -= neg_min;
    }
    let primal_objective: f64 = c.iter().zip(x).map(|(cj, xj)| cj * xj).sum();
    let objective = problem.objective().evaluate(x);
    let gap = (primal_objective - dual).abs();
    within(gap / (1.0 + objective.abs()), || {
        format!("duality gap: primal {primal_objective} against dual {dual}")
    })
}

/// Checks the Farkas certificate `y` (one multiplier per row): over the
/// variable and slack boxes, `sup y·(Ax + s)` must be below `y·b`, so
/// `Ax + s = b` has no solution inside the boxes.
pub(crate) fn infeasible(problem: &Problem, y: &[f64]) -> Check {
    assert_eq!(y.len(), problem.num_constraints(), "one multiplier per row");
    let Some(y) = normalized(y) else {
        return Err(Violation { what: "zero Farkas multipliers".into(), residual: f64::INFINITY });
    };
    let mut sup_total = 0.0;
    let mut yb = 0.0;
    for (i, (row, &yi)) in problem.constraints().iter().zip(&y).enumerate() {
        let (lower, upper) = slack_box(row.op);
        let (value, unbounded_by) = sup(yi, lower, upper);
        within(unbounded_by, || {
            format!("row {i} ({:?}) multiplier {yi} has the wrong sign", row.op)
        })?;
        sup_total += value;
        yb += yi * row.rhs;
    }
    for (j, (def, g)) in problem.vars().iter().zip(price(problem, &y)).enumerate() {
        let (value, unbounded_by) = sup(g, def.lower, def.upper);
        within(unbounded_by, || format!("variable {j}: (yA) = {g} points at an infinite bound"))?;
        sup_total += value;
    }
    if sup_total < yb {
        Ok(())
    } else {
        Err(Violation {
            what: format!("sup y·(Ax + s) = {sup_total} is not below y·b = {yb}"),
            residual: sup_total - yb,
        })
    }
}

/// Checks that `x` is feasible and that `ray` (one entry per variable) keeps
/// every variable and row feasible while strictly improving the objective.
pub(crate) fn unbounded(problem: &Problem, x: &[f64], ray: &[f64]) -> Check {
    assert_eq!(ray.len(), problem.num_vars(), "one ray entry per variable");
    primal(problem, x)?;
    let Some(ray) = normalized(ray) else {
        return Err(Violation { what: "zero ray".into(), residual: f64::INFINITY });
    };
    for (j, (def, &rj)) in problem.vars().iter().zip(&ray).enumerate() {
        within(recession(rj, def.lower, def.upper), || {
            format!("ray leaves variable {j}'s box [{}, {}] at rate {rj}", def.lower, def.upper)
        })?;
    }
    for (i, row) in problem.constraints().iter().enumerate() {
        // The slack moves by −a·r per unit step along the ray.
        let ar = row.expr.evaluate(&ray);
        let (lower, upper) = slack_box(row.op);
        within(recession(-ar, lower, upper), || {
            format!("ray leaves row {i} ({:?}) at rate {ar}", row.op)
        })?;
    }
    let improvement: f64 = min_costs(problem).iter().zip(&ray).map(|(c, r)| c * r).sum();
    if improvement < -TOL {
        Ok(())
    } else {
        Err(Violation {
            what: format!("ray changes the minimised objective by {improvement} per step"),
            residual: improvement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Sense};

    /// Asserts that `check` failed, naming `what`.
    fn rejects(check: Check, what: &str) {
        let violation = check.expect_err(what);
        assert!(violation.what.contains(what), "expected `{what}`, got: {violation}");
    }

    #[test]
    fn optimal_accepts_the_true_optimum_and_rejects_corruptions() {
        // max x + 2y  s.t.  x + y ≤ 4,  x ≥ 1 (a row),  x ∈ [0, 3],  y ∈ [0, 2].
        // Optimum (2, 2).  In minimisation form c = (−1, −2) and y₀ = −1
        // prices the binding `≤` row: d = (0, −1), y rests at its upper bound.
        let mut p = Problem::new(Sense::Maximize);
        let (x, y) = (p.add_var("x", 0.0, 3.0), p.add_var("y", 0.0, 2.0));
        p.add_le(p.expr().term(1.0, x).term(1.0, y), 4.0);
        p.add_ge(p.expr().term(1.0, x), 1.0);
        p.set_objective(p.expr().term(1.0, x).term(2.0, y));
        assert_eq!(optimal(&p, &[2.0, 2.0], &[-1.0, 0.0]), Ok(()));
        // A perturbed y leaves a reduced cost on the basic x.
        rejects(optimal(&p, &[2.0, 2.0], &[-1.1, 0.0]), "duality gap");
        rejects(optimal(&p, &[2.0, 2.0], &[0.5, 0.0]), "wrong sign");
        // An infeasible x breaks the `≤` row by 1, the shape of a badly
        // factorised basis; bounds count as much as rows.
        rejects(optimal(&p, &[3.0, 2.0], &[-1.0, 0.0]), "row 0");
        rejects(optimal(&p, &[2.0, 2.5], &[-1.0, 0.0]), "variable 1");
        // A feasible but suboptimal x leaves a gap.
        rejects(optimal(&p, &[1.0, 2.0], &[-1.0, 0.0]), "duality gap");

        // min x  s.t.  x ≥ −5 (a row), x free: y₀ = 1 gives d = 0, while
        // y₀ = 0 leaves d = 1 on a variable with no lower bound.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
        p.add_ge(p.expr().term(1.0, x), -5.0);
        p.set_objective(p.expr().term(1.0, x));
        assert_eq!(optimal(&p, &[-5.0], &[1.0]), Ok(()));
        rejects(optimal(&p, &[-5.0], &[0.0]), "infinite bound");
    }

    #[test]
    fn infeasible_accepts_a_farkas_certificate_and_rejects_corruptions() {
        // x ∈ [0, upper] with x ≥ 2.
        let boxed = |upper: f64| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var("x", 0.0, upper);
            p.add_ge(p.expr().term(1.0, x), 2.0);
            p
        };
        // In [0, 1], y₀ = 1 (at any scale) gives sup x = 1 < 2.
        let p = boxed(1.0);
        assert_eq!(infeasible(&p, &[1.0]), Ok(()));
        assert_eq!(infeasible(&p, &[7.5]), Ok(()));
        // A sign-flipped y prices the `≥` slack at +∞; zero proves nothing.
        rejects(infeasible(&p, &[-1.0]), "wrong sign");
        rejects(infeasible(&p, &[0.0]), "zero");
        // Widening x's box makes the same y prove nothing.
        rejects(infeasible(&boxed(3.0), &[1.0]), "not below");

        // x + y ≤ 1 and x + y ≥ 2 over free x, y: y = (−1, 1) cancels A,
        // while a perturbed y leaves (yA) ≠ 0 on free variables.
        let mut p = Problem::new(Sense::Minimize);
        let free = f64::INFINITY;
        let (x, y) = (p.add_var("x", -free, free), p.add_var("y", -free, free));
        p.add_le(p.expr().term(1.0, x).term(1.0, y), 1.0);
        p.add_ge(p.expr().term(1.0, x).term(1.0, y), 2.0);
        assert_eq!(infeasible(&p, &[-1.0, 1.0]), Ok(()));
        rejects(infeasible(&p, &[-1.0, 1.1]), "infinite bound");
    }

    #[test]
    fn unbounded_accepts_an_improving_ray_and_rejects_corruptions() {
        // max x + y  s.t.  x − y ≤ 1,  x ≥ 0,  y ∈ [0, y_upper].
        let build = |y_upper: f64| {
            let mut p = Problem::new(Sense::Maximize);
            let (x, y) = (p.add_var("x", 0.0, f64::INFINITY), p.add_var("y", 0.0, y_upper));
            p.add_le(p.expr().term(1.0, x).term(-1.0, y), 1.0);
            p.set_objective(p.expr().term(1.0, x).term(1.0, y));
            p
        };
        let p = build(10.0);
        // x alone grows x − y past the row; (1, 1) leaves y's box.
        rejects(unbounded(&p, &[0.0, 0.0], &[1.0, 0.0]), "row 0");
        rejects(unbounded(&p, &[0.0, 0.0], &[1.0, 1.0]), "variable 1");
        // Lift y's bound: (1, 1) is now a valid improving ray, at any scale.
        let p = build(f64::INFINITY);
        assert_eq!(unbounded(&p, &[0.0, 0.0], &[1.0, 1.0]), Ok(()));
        assert_eq!(unbounded(&p, &[1.0, 0.0], &[3.0, 3.0]), Ok(()));
        // An infeasible start, a worsening ray or no ray proves nothing.
        rejects(unbounded(&p, &[2.0, 0.0], &[1.0, 1.0]), "row 0");
        rejects(unbounded(&p, &[0.0, 0.0], &[-1.0, -1.0]), "variable 0");
        rejects(unbounded(&p, &[0.0, 0.0], &[0.0, 0.0]), "zero ray");
    }
}
