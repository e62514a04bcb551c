//! Modelling layer: variables, linear expressions, constraints, problems.
//!
//! The types here are deliberately small and dense-friendly: Palmed's linear
//! programs have at most a few hundred variables, so everything is indexed by
//! plain `usize`-backed [`VarId`]s and expressions are sparse term lists.

use std::fmt;
use std::ops::Index;

use crate::error::{LpError, LpResult};
use crate::revised;

/// Identifier of a decision variable inside a [`Problem`].
///
/// `VarId`s are only meaningful for the problem that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Raw index of the variable inside its problem.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Optimisation direction of a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimise the objective expression.
    Minimize,
    /// Maximise the objective expression.
    Maximize,
}

/// Comparison operator of a [`Constraint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// A sparse linear expression `sum(coefficient * variable) + constant`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// Creates the zero expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an expression consisting only of a constant.
    pub fn constant(value: f64) -> Self {
        LinExpr { terms: Vec::new(), constant: value }
    }

    /// Builder-style addition of a `coefficient * variable` term.
    #[must_use]
    pub fn term(mut self, coefficient: f64, var: VarId) -> Self {
        self.add_term(coefficient, var);
        self
    }

    /// Builder-style addition of a constant offset.
    #[must_use]
    pub fn plus(mut self, value: f64) -> Self {
        self.constant += value;
        self
    }

    /// Adds `coefficient * variable` to the expression in place.
    pub fn add_term(&mut self, coefficient: f64, var: VarId) {
        if coefficient != 0.0 {
            self.terms.push((var, coefficient));
        }
    }

    /// Adds `scale * other` to this expression.
    pub fn add_scaled(&mut self, scale: f64, other: &LinExpr) {
        for &(v, c) in &other.terms {
            self.add_term(scale * c, v);
        }
        self.constant += scale * other.constant;
    }

    /// The constant part of the expression.
    pub fn constant_part(&self) -> f64 {
        self.constant
    }

    /// Iterates over the (variable, coefficient) terms, duplicates included.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// Returns true when the expression has no variable terms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over the coalesced sparse terms of the expression: duplicate
    /// variables are merged, zero coefficients dropped, and terms are yielded
    /// in increasing variable order.
    ///
    /// This is the allocation-light path the solver uses to assemble its
    /// sparse standard form: its cost is `O(k log k)` in the number of terms
    /// `k`, independent of the number of variables in the problem.
    pub fn sparse_terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        let mut terms = self.terms.clone();
        terms.sort_unstable_by_key(|&(v, _)| v);
        let mut coalesced: Vec<(VarId, f64)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            match coalesced.last_mut() {
                Some((last_v, last_c)) if *last_v == v => *last_c += c,
                _ => coalesced.push((v, c)),
            }
        }
        coalesced.into_iter().filter(|&(_, c)| c != 0.0)
    }

    /// Checks that every term references a variable below `n_vars` and has a
    /// finite coefficient, without allocating a dense vector.
    pub(crate) fn validate_against(&self, n_vars: usize) -> LpResult<()> {
        for &(v, c) in &self.terms {
            if v.0 >= n_vars {
                return Err(LpError::UnknownVariable { index: v.0, problem_size: n_vars });
            }
            if !c.is_finite() {
                return Err(LpError::NonFiniteCoefficient { context: format!("term for {v}") });
            }
        }
        Ok(())
    }

    /// Evaluates the expression for a dense assignment of variable values.
    ///
    /// # Panics
    ///
    /// Panics if a referenced variable index is out of range of `values`.
    pub fn evaluate(&self, values: &[f64]) -> f64 {
        let mut acc = self.constant;
        for &(v, c) in &self.terms {
            acc += c * values[v.0];
        }
        acc
    }
}

/// A single linear constraint `expr (<=|>=|==) rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Left-hand side expression (its constant is folded into `rhs`).
    pub expr: LinExpr,
    /// Comparison operator.
    pub op: ConstraintOp,
    /// Right-hand side constant.
    pub rhs: f64,
}

/// Definition of a decision variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDef {
    /// Name used for debugging / display purposes.
    pub name: String,
    /// Lower bound (may be `-inf`).
    pub lower: f64,
    /// Upper bound (may be `+inf`).
    pub upper: f64,
}

/// An optimal assignment of the problem variables, checked against its row
/// duals before it is returned.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Value of every variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Objective value in the problem's own sense.
    pub objective: f64,
}

impl Index<VarId> for Solution {
    type Output = f64;

    fn index(&self, index: VarId) -> &Self::Output {
        &self.values[index.0]
    }
}

/// A linear optimisation problem over continuous, bounded variables.
///
/// See the crate-level documentation for a usage example.
#[derive(Debug, Clone)]
pub struct Problem {
    vars: Vec<VarDef>,
    constraints: Vec<Constraint>,
    objective: LinExpr,
    sense: Sense,
}

impl Problem {
    /// Creates an empty problem with the given optimisation sense.
    pub fn new(sense: Sense) -> Self {
        Problem { vars: Vec::new(), constraints: Vec::new(), objective: LinExpr::new(), sense }
    }

    /// Adds a continuous variable with the given bounds and returns its id.
    pub fn add_var(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarDef { name: name.into(), lower, upper });
        id
    }

    /// Convenience constructor for an empty expression tied to this problem.
    ///
    /// Purely cosmetic: expressions are not checked against the problem until
    /// solve time.
    pub fn expr(&self) -> LinExpr {
        LinExpr::new()
    }

    /// Adds the constraint `expr <= rhs`.
    pub fn add_le(&mut self, expr: LinExpr, rhs: f64) {
        self.add_constraint(expr, ConstraintOp::Le, rhs);
    }

    /// Adds the constraint `expr >= rhs`.
    pub fn add_ge(&mut self, expr: LinExpr, rhs: f64) {
        self.add_constraint(expr, ConstraintOp::Ge, rhs);
    }

    /// Adds the constraint `expr == rhs`.
    pub fn add_eq(&mut self, expr: LinExpr, rhs: f64) {
        self.add_constraint(expr, ConstraintOp::Eq, rhs);
    }

    /// Adds the constraint `expr (op) rhs`.
    pub fn add_constraint(&mut self, expr: LinExpr, op: ConstraintOp, rhs: f64) {
        // Fold the expression constant into the right-hand side so that the
        // solver only ever sees `a.x (op) b`.
        let constant = expr.constant_part();
        let mut expr = expr;
        expr.constant = 0.0;
        self.constraints.push(Constraint { expr, op, rhs: rhs - constant });
    }

    /// Sets the objective expression (interpreted according to the sense).
    pub fn set_objective(&mut self, objective: LinExpr) {
        self.objective = objective;
    }

    /// Optimisation sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Objective expression.
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Variable definitions, indexed by [`VarId::index`].
    pub fn vars(&self) -> &[VarDef] {
        &self.vars
    }

    /// Constraint list in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Validates variable bounds and coefficient finiteness.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::InvalidBounds`] or [`LpError::NonFiniteCoefficient`]
    /// when the model is malformed, and [`LpError::UnknownVariable`] when an
    /// expression references a variable that does not belong to this problem.
    pub fn validate(&self) -> LpResult<()> {
        for v in &self.vars {
            if v.lower > v.upper || v.lower.is_nan() || v.upper.is_nan() {
                return Err(LpError::InvalidBounds {
                    name: v.name.clone(),
                    lower: v.lower,
                    upper: v.upper,
                });
            }
        }
        let n = self.vars.len();
        self.objective.validate_against(n)?;
        if !self.objective.constant_part().is_finite() {
            return Err(LpError::NonFiniteCoefficient { context: "objective constant".into() });
        }
        for (i, c) in self.constraints.iter().enumerate() {
            c.expr.validate_against(n)?;
            if !c.rhs.is_finite() {
                return Err(LpError::NonFiniteCoefficient {
                    context: format!("right-hand side of constraint {i}"),
                });
            }
        }
        Ok(())
    }

    /// Solves the problem with the sparse revised simplex (cold start).
    ///
    /// # Errors
    ///
    /// Returns an error when the model is malformed, infeasible, unbounded or
    /// when the simplex iteration limit is exceeded.
    pub fn solve(&self) -> LpResult<Solution> {
        revised::solve(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expression_building_and_evaluation() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 10.0);
        let y = p.add_var("y", 0.0, 10.0);
        let e = p.expr().term(2.0, x).term(3.0, y).plus(1.0);
        assert_eq!(e.evaluate(&[1.0, 2.0]), 2.0 + 6.0 + 1.0);
        assert_eq!(e.sparse_terms().collect::<Vec<_>>(), vec![(x, 2.0), (y, 3.0)]);
    }

    #[test]
    fn duplicate_terms_are_merged_in_sparse_form() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0);
        let e = p.expr().term(1.0, x).term(2.5, x);
        assert_eq!(e.sparse_terms().collect::<Vec<_>>(), vec![(x, 3.5)]);
    }

    #[test]
    fn sparse_terms_coalesce_sort_and_drop_zeros() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0);
        let y = p.add_var("y", 0.0, 1.0);
        let z = p.add_var("z", 0.0, 1.0);
        let e = p.expr().term(2.0, z).term(1.0, x).term(-2.0, z).term(0.5, y).term(1.5, x);
        let terms: Vec<(VarId, f64)> = e.sparse_terms().collect();
        assert_eq!(terms, vec![(x, 2.5), (y, 0.5)]);
        // z cancelled to zero and was dropped entirely.
        assert!(terms.iter().all(|&(v, _)| v != z));
    }

    #[test]
    fn constraint_constant_folds_into_rhs() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 10.0);
        p.add_le(p.expr().term(1.0, x).plus(2.0), 5.0);
        assert_eq!(p.constraints()[0].rhs, 3.0);
        assert_eq!(p.constraints()[0].expr.constant_part(), 0.0);
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_var("x", 1.0, 0.0);
        assert!(matches!(p.validate(), Err(LpError::InvalidBounds { .. })));
    }

    #[test]
    fn validate_rejects_unknown_variable() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0);
        let mut q = Problem::new(Sense::Minimize);
        q.add_le(q.expr().term(1.0, x), 1.0);
        // `q` has zero variables, so `x` is out of range.
        assert!(matches!(q.validate(), Err(LpError::UnknownVariable { .. })));
    }

    #[test]
    fn validate_rejects_non_finite() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0);
        p.add_le(p.expr().term(f64::NAN, x), 1.0);
        assert!(matches!(p.validate(), Err(LpError::NonFiniteCoefficient { .. })));
    }
}
