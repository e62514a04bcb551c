//! Linearisation helpers for `min` / `max` terms.
//!
//! Palmed's formulations are full of maxima: the execution time of a
//! microkernel is the *maximum* load over all abstract resources, and the
//! LP1/LP2 constraints use both `min ... = 0` ("there exists a resource such
//! that ...") and `max`-based saturation variables.  These helpers provide
//! the two big-M linearisations the formulations need:
//!
//! * [`exact_max`] — an exact `max` using one binary selector per expression
//!   and a big-M, usable in either optimisation direction.
//! * [`exists_zero`] — the "there exists an expression equal to zero"
//!   disjunction used by LP1, encoded with binary selectors.

use crate::model::{LinExpr, Problem, VarId};

/// Adds an *exact* maximum variable using binary selectors and a big-M.
///
/// Creates `t` and binaries `z_i` such that `sum z_i = 1`, `t >= e_i` and
/// `t <= e_i + M (1 - z_i)`, which forces `t = max_i e_i` for any sufficiently
/// large `M` (an upper bound on the spread of the expressions).
///
/// Returns `(t, selectors)`.
pub fn exact_max(
    problem: &mut Problem,
    name: &str,
    exprs: &[LinExpr],
    big_m: f64,
) -> (VarId, Vec<VarId>) {
    let t = problem.add_var(format!("{name}_max"), f64::NEG_INFINITY, f64::INFINITY);
    let mut selectors = Vec::with_capacity(exprs.len());
    let mut sum = LinExpr::new();
    for (i, e) in exprs.iter().enumerate() {
        let z = problem.add_bool_var(format!("{name}_sel{i}"));
        selectors.push(z);
        sum.add_term(1.0, z);
        // t >= e_i
        let mut lower = LinExpr::new().term(1.0, t);
        lower.add_scaled(-1.0, e);
        problem.add_ge(lower, 0.0);
        // t <= e_i + M (1 - z_i)  <=>  t - e_i + M z_i <= M
        let mut upper = LinExpr::new().term(1.0, t).term(big_m, z);
        upper.add_scaled(-1.0, e);
        problem.add_le(upper, big_m);
    }
    problem.add_eq(sum, 1.0);
    (t, selectors)
}

/// Encodes "there exists `i` such that `e_i = 0`" for non-negative
/// expressions `e_i`, using one binary per expression and a big-M.
///
/// Adds binaries `z_i` with `sum z_i >= 1` and `e_i <= M (1 - z_i)`.  The
/// expressions must be non-negative for the encoding to be exact.
/// Returns the selector variables.
pub fn exists_zero(
    problem: &mut Problem,
    name: &str,
    exprs: &[LinExpr],
    big_m: f64,
) -> Vec<VarId> {
    let mut selectors = Vec::with_capacity(exprs.len());
    let mut sum = LinExpr::new();
    for (i, e) in exprs.iter().enumerate() {
        let z = problem.add_bool_var(format!("{name}_zero{i}"));
        selectors.push(z);
        sum.add_term(1.0, z);
        // e_i + M z_i <= M
        let mut c = LinExpr::new().term(big_m, z);
        c.add_scaled(1.0, e);
        problem.add_le(c, big_m);
    }
    problem.add_ge(sum, 1.0);
    selectors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Sense};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn exact_max_holds_even_when_maximized() {
        // maximise z - max(x, y): the max must not be under-estimated.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 4.0, 4.0);
        let y = p.add_var("y", 1.0, 1.0);
        let exprs = vec![LinExpr::new().term(1.0, x), LinExpr::new().term(1.0, y)];
        let (t, _sel) = exact_max(&mut p, "m", &exprs, 100.0);
        // objective: maximise -t  => wants t as small as possible, but the
        // encoding pins t to the true max of 4.
        p.set_objective(p.expr().term(-1.0, t));
        let sol = p.solve().unwrap();
        assert!(close(sol[t], 4.0), "t = {}", sol[t]);
    }

    #[test]
    fn exists_zero_forces_one_expression_to_zero() {
        // x + y >= 3, both in [0, 5], and exists-zero over {x, y}:
        // one of them must be 0, so the other is >= 3.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 5.0);
        let y = p.add_var("y", 0.0, 5.0);
        p.add_ge(p.expr().term(1.0, x).term(1.0, y), 3.0);
        let exprs = vec![LinExpr::new().term(1.0, x), LinExpr::new().term(1.0, y)];
        exists_zero(&mut p, "ez", &exprs, 10.0);
        p.set_objective(p.expr().term(1.0, x).term(1.0, y));
        let sol = p.solve().unwrap();
        let min_value = sol[x].min(sol[y]);
        assert!(min_value.abs() < 1e-6, "one variable must be zero, got {} / {}", sol[x], sol[y]);
        assert!(sol[x].max(sol[y]) >= 3.0 - 1e-6);
    }
}
