//! Error types for the LP solver.

use std::fmt;

/// Result alias used by every fallible solver entry point.
pub type LpResult<T> = Result<T, LpError>;

/// Errors produced while building or solving a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The constraint set admits no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimisation direction.
    Unbounded,
    /// The simplex iteration limit was exhausted before convergence.
    IterationLimit {
        /// Number of pivots performed before giving up.
        iterations: usize,
    },
    /// A variable identifier does not belong to the problem it was used with.
    UnknownVariable {
        /// Index of the offending variable.
        index: usize,
        /// Number of variables in the problem.
        problem_size: usize,
    },
    /// A variable was declared with an empty domain (lower bound above upper
    /// bound) or a non-finite bound where a finite one is required.
    InvalidBounds {
        /// Name of the offending variable.
        name: String,
        /// Declared lower bound.
        lower: f64,
        /// Declared upper bound.
        upper: f64,
    },
    /// A coefficient or right-hand side was not a finite number.
    NonFiniteCoefficient {
        /// Human readable location of the offending coefficient.
        context: String,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "problem is infeasible"),
            LpError::Unbounded => write!(f, "objective is unbounded"),
            LpError::IterationLimit { iterations } => {
                write!(f, "simplex iteration limit reached after {iterations} pivots")
            }
            LpError::UnknownVariable { index, problem_size } => write!(
                f,
                "variable index {index} does not belong to a problem with {problem_size} variables"
            ),
            LpError::InvalidBounds { name, lower, upper } => {
                write!(f, "variable `{name}` has invalid bounds [{lower}, {upper}]")
            }
            LpError::NonFiniteCoefficient { context } => {
                write!(f, "non-finite coefficient in {context}")
            }
        }
    }
}

impl std::error::Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            LpError::Infeasible,
            LpError::Unbounded,
            LpError::IterationLimit { iterations: 3 },
            LpError::UnknownVariable { index: 2, problem_size: 1 },
            LpError::InvalidBounds { name: "x".into(), lower: 1.0, upper: 0.0 },
            LpError::NonFiniteCoefficient { context: "objective".into() },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LpError>();
    }
}
