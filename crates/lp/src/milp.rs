//! Mixed-integer linear programming by branch and bound.
//!
//! Palmed's LP1 ("shape of the core mapping") is an integer program over 0/1
//! resource-usage indicators.  The instances are small (tens of binaries), so
//! a straightforward depth-first branch and bound over the simplex relaxation
//! is both exact and fast.

use crate::error::{LpError, LpResult};
use crate::model::{Problem, Sense, Solution, SolveStatus};
use crate::revised::{self, Basis};
use crate::INT_EPS;

/// Absolute optimality gap: a node is pruned unless its relaxation beats
/// the incumbent by more than this.
const ABSOLUTE_GAP: f64 = 1e-6;

/// Options controlling the branch-and-bound search.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpOptions {
    /// Maximum number of explored branch-and-bound nodes.  When it runs out,
    /// the incumbent (if any) is returned with [`SolveStatus::Feasible`].
    pub max_nodes: usize,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions { max_nodes: 200_000 }
    }
}

/// One branch-and-bound node: a set of tightened variable bounds plus the
/// basis its parent's relaxation ended on (the warm-start seed).
#[derive(Debug, Clone)]
struct Node {
    bounds: Vec<(usize, f64, f64)>,
    parent_basis: Option<Basis>,
}

/// Applies branching decisions by *tightening variable bounds* rather than
/// appending `>=`/`<=` rows.  The bounded-variable revised simplex handles
/// bounds implicitly, so child relaxations keep the parent's constraint
/// matrix dimensions — which is exactly what lets them warm-start from the
/// parent basis.  Returns `None` when the accumulated bounds are
/// contradictory (the child is trivially infeasible).
fn apply_bounds(base: &Problem, bounds: &[(usize, f64, f64)]) -> Option<Problem> {
    let mut p = base.clone();
    for &(var, lo, hi) in bounds {
        let v = crate::model::VarId(var);
        let def = &p.vars()[var];
        let new_lo = def.lower.max(lo);
        let new_hi = def.upper.min(hi);
        if new_lo > new_hi {
            return None;
        }
        p.set_var_bounds(v, new_lo, new_hi);
    }
    Some(p)
}

/// Finds the integer variable whose relaxation value is most fractional.
fn most_fractional(problem: &Problem, values: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None;
    for (i, def) in problem.vars().iter().enumerate() {
        if !def.integer {
            continue;
        }
        let v = values[i];
        let frac = (v - v.round()).abs();
        if frac > INT_EPS {
            let distance_to_half = (frac - 0.5).abs();
            if best.is_none() || distance_to_half < best.unwrap().2 {
                best = Some((i, v, distance_to_half));
            }
        }
    }
    best.map(|(i, v, _)| (i, v))
}

/// Solves a mixed-integer problem by branch and bound on the LP relaxation.
///
/// # Errors
///
/// Returns [`LpError::Infeasible`] when no integer-feasible point exists,
/// [`LpError::Unbounded`] when the relaxation is unbounded, and
/// [`LpError::NodeLimit`] when the node budget is exhausted without any
/// incumbent.
pub fn solve(problem: &Problem, options: &MilpOptions) -> LpResult<Solution> {
    let maximize = problem.sense() == Sense::Maximize;
    let better = |a: f64, b: f64| if maximize { a > b + ABSOLUTE_GAP } else { a < b - ABSOLUTE_GAP };

    let mut incumbent: Option<Solution> = None;
    let mut stack = vec![Node { bounds: Vec::new(), parent_basis: None }];
    let mut nodes = 0usize;

    while let Some(node) = stack.pop() {
        if nodes >= options.max_nodes {
            return match incumbent {
                Some(mut sol) => {
                    sol.status = SolveStatus::Feasible;
                    Ok(sol)
                }
                None => Err(LpError::NodeLimit { nodes }),
            };
        }
        nodes += 1;
        palmed_obs::counter!("lp.milp.nodes").inc();

        let Some(sub) = apply_bounds(problem, &node.bounds) else {
            // Contradictory branch bounds: prune without an LP solve.
            continue;
        };
        // Children only perturb variable bounds, so the parent's final basis
        // is dimensionally valid and usually a handful of pivots from the
        // child's optimum.
        let info = match revised::solve_with_warm_start(&sub, node.parent_basis.as_ref()) {
            Ok(info) => info,
            Err(LpError::Infeasible) => continue,
            Err(e) => return Err(e),
        };
        let relaxed = info.solution;
        let node_basis = info.basis;

        // Bound: prune if the relaxation cannot beat the incumbent.
        if let Some(ref inc) = incumbent {
            let can_improve = better(relaxed.objective, inc.objective);
            if !can_improve {
                continue;
            }
        }

        match most_fractional(problem, &relaxed.values) {
            None => {
                // Integer feasible: round the integer variables exactly.
                let mut sol = relaxed;
                for (i, def) in problem.vars().iter().enumerate() {
                    if def.integer {
                        sol.values[i] = sol.values[i].round();
                    }
                }
                sol.objective = problem.objective().evaluate(&sol.values);
                let accept = match &incumbent {
                    None => true,
                    Some(inc) => better(sol.objective, inc.objective),
                };
                if accept {
                    incumbent = Some(sol);
                }
            }
            Some((var, value)) => {
                let floor = value.floor();
                let ceil = value.ceil();
                let mut down = node.bounds.clone();
                down.push((var, f64::NEG_INFINITY, floor));
                let mut up = node.bounds.clone();
                up.push((var, ceil, f64::INFINITY));
                let child = |bounds: Vec<(usize, f64, f64)>| Node {
                    bounds,
                    parent_basis: Some(node_basis.clone()),
                };
                // Depth-first: explore the branch closer to the fractional
                // value first (pushed last).
                if value - floor < 0.5 {
                    stack.push(child(up));
                    stack.push(child(down));
                } else {
                    stack.push(child(down));
                    stack.push(child(up));
                }
            }
        }
    }

    // No incumbent: integer-infeasible, whether or not some relaxation was
    // continuously feasible.
    incumbent.ok_or(LpError::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "{a} != {b}");
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary -> a=0,b=1,c=1 (20) vs a=1,c=1 (17)
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_bool_var("a");
        let b = p.add_bool_var("b");
        let c = p.add_bool_var("c");
        p.add_le(p.expr().term(3.0, a).term(4.0, b).term(2.0, c), 6.0);
        p.set_objective(p.expr().term(10.0, a).term(13.0, b).term(7.0, c));
        let sol = p.solve().unwrap();
        assert_close(sol.objective, 20.0);
        assert_close(sol[b], 1.0);
        assert_close(sol[c], 1.0);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y <= 5, integers -> obj 2 (relaxation 2.5)
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_int_var("x", 0.0, 10.0);
        let y = p.add_int_var("y", 0.0, 10.0);
        p.add_le(p.expr().term(2.0, x).term(2.0, y), 5.0);
        p.set_objective(p.expr().term(1.0, x).term(1.0, y));
        let sol = p.solve().unwrap();
        assert_close(sol.objective, 2.0);
        let relaxed = p.solve_relaxation().unwrap();
        assert_close(relaxed.objective, 2.5);
    }

    #[test]
    fn set_cover_minimization() {
        // Cover elements {1,2,3} with sets A={1,2}, B={2,3}, C={3}, D={1,3}.
        // Optimal cover size 2 (A + B, or A + C, or ...).
        let mut p = Problem::new(Sense::Minimize);
        let a = p.add_bool_var("A");
        let b = p.add_bool_var("B");
        let c = p.add_bool_var("C");
        let d = p.add_bool_var("D");
        p.add_ge(p.expr().term(1.0, a).term(1.0, d), 1.0); // element 1
        p.add_ge(p.expr().term(1.0, a).term(1.0, b), 1.0); // element 2
        p.add_ge(p.expr().term(1.0, b).term(1.0, c).term(1.0, d), 1.0); // element 3
        p.set_objective(p.expr().term(1.0, a).term(1.0, b).term(1.0, c).term(1.0, d));
        let sol = p.solve().unwrap();
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn infeasible_integer_problem() {
        // 2x == 3 with x integer.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_int_var("x", 0.0, 10.0);
        p.add_eq(p.expr().term(2.0, x), 3.0);
        p.set_objective(p.expr().term(1.0, x));
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn mixed_continuous_and_integer() {
        // max 2x + y with x integer <= 3.7 constraint, y continuous <= 1.5
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_int_var("x", 0.0, 10.0);
        let y = p.add_var("y", 0.0, 1.5);
        p.add_le(p.expr().term(1.0, x), 3.7);
        p.set_objective(p.expr().term(2.0, x).term(1.0, y));
        let sol = p.solve().unwrap();
        assert_close(sol[x], 3.0);
        assert_close(sol[y], 1.5);
        assert_close(sol.objective, 7.5);
    }

    #[test]
    fn node_limit_reports_feasible_incumbent() {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..12).map(|i| p.add_bool_var(format!("b{i}"))).collect();
        let mut cap = p.expr();
        let mut obj = p.expr();
        for (i, &v) in vars.iter().enumerate() {
            cap.add_term((i % 5 + 1) as f64, v);
            obj.add_term((i % 7 + 1) as f64, v);
        }
        p.add_le(cap, 11.0);
        p.set_objective(obj);
        let opts = MilpOptions { max_nodes: 5 };
        // With a tiny node budget we still expect either a feasible incumbent
        // or a NodeLimit error, never a panic.
        match p.solve_with(&opts) {
            Ok(sol) => assert!(matches!(sol.status, SolveStatus::Feasible | SolveStatus::Optimal)),
            Err(e) => assert!(matches!(e, LpError::NodeLimit { .. })),
        }
    }
}
