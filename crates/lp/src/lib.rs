//! Linear-programming substrate for the Palmed reproduction.
//!
//! The paper states three phases of the Palmed pipeline as linear programs
//! (LP1, LP2 and LPAUX).  It solves LP1 as an integer program and LP2 as a
//! mixed-integer one with an off-the-shelf solver; this reproduction builds
//! LP1's shape from cliques, alternates pure LPs for LP2 and solves LPAUX's
//! separable per-instruction LP in closed form, so it needs no integer
//! programming, and this crate is a from-scratch, dependency-free LP solver:
//!
//! * [`model`] — a tiny modelling layer: variables with bounds, linear
//!   expressions, constraints and an objective ([`Problem`]).
//! * [`revised`] — the one LP solver: a **sparse revised simplex** over
//!   column-major (CSC) storage with implicit lower/upper variable bounds
//!   (no bound rows, no free-variable splitting), a sparse-LU + product-form
//!   eta factorised basis, and **warm starting** via a reusable [`Basis`]
//!   handle ([`solve_with_warm_start`]).
//! * `certify` (crate-private) — the solver's proof obligations.  Every
//!   outcome is checked against the [`Problem`] in `O(nnz)` with no code
//!   shared with pivoting: an optimum by its row duals (primal residual,
//!   reduced-cost signs, duality gap), infeasibility by a Farkas
//!   certificate, unboundedness by an improving ray.  Checks are counted in
//!   `lp.certify.checked` / `lp.certify.failed`; debug builds panic on a
//!   failed one.
//!
//! The solver is exact (up to floating-point tolerance) and geared towards
//! the problem sizes LP2 generates: tens to a few hundred variables and
//! constraints per solve.  Warm starts pay off on sequences of solves that
//! are small perturbations of each other; LP2's rounds solve cold, and the
//! `lp_solver` benchmark and the certificate tests exercise the warm path.
//!
//! # Example
//!
//! ```
//! use palmed_lp::{Problem, Sense};
//!
//! // maximise x + 2y subject to x + y <= 4, x <= 3, y <= 2, x,y >= 0
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var("x", 0.0, f64::INFINITY);
//! let y = p.add_var("y", 0.0, 2.0);
//! p.add_le(p.expr().term(1.0, x).term(1.0, y), 4.0);
//! p.add_le(p.expr().term(1.0, x), 3.0);
//! p.set_objective(p.expr().term(1.0, x).term(2.0, y));
//! let sol = p.solve().unwrap();
//! assert!((sol.objective - 6.0).abs() < 1e-6);
//! assert!((sol[x] - 2.0).abs() < 1e-6);
//! assert!((sol[y] - 2.0).abs() < 1e-6);
//! ```
//!
//! # Warm starting
//!
//! ```
//! use palmed_lp::{revised, Problem, Sense};
//!
//! let build = |rhs: f64| {
//!     let mut p = Problem::new(Sense::Maximize);
//!     let x = p.add_var("x", 0.0, 3.0);
//!     let y = p.add_var("y", 0.0, 3.0);
//!     p.add_le(p.expr().term(1.0, x).term(1.0, y), rhs);
//!     p.set_objective(p.expr().term(2.0, x).term(1.0, y));
//!     p
//! };
//! let first = revised::solve_with_warm_start(&build(4.0), None).unwrap();
//! // Perturb the right-hand side and restart from the previous basis.
//! let again = revised::solve_with_warm_start(&build(4.5), Some(&first.basis)).unwrap();
//! assert!(again.iterations <= first.iterations);
//! ```

mod certify;
pub mod error;
pub mod model;
pub mod revised;

pub use error::{LpError, LpResult};
pub use model::{Constraint, ConstraintOp, LinExpr, Problem, Sense, Solution, VarId};
pub use revised::{solve_with_warm_start, Basis, SolveInfo};
