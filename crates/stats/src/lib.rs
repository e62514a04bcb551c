//! Numeric and statistical substrate for the Palmed reproduction.
//!
//! Three small pieces of machinery that the paper relies on:
//!
//! * [`cluster`] — agglomerative hierarchical clustering with complete
//!   linkage, used by the basic-instruction selection step to build
//!   equivalence classes of instructions with indistinguishable
//!   quadratic-benchmark behaviour (Sec. V-A of the paper).
//! * [`kendall`] — Kendall's τ rank-correlation coefficient, the ranking
//!   metric of the evaluation section (Fig. 4b).
//! * [`summary`] — weighted root-mean-square error and other summary
//!   statistics used to aggregate per-basic-block prediction errors.

pub mod cluster;
pub mod kendall;
pub mod summary;

pub use cluster::hierarchical_clusters;
pub use kendall::{kendall_tau, weighted_kendall_tau};
pub use summary::{mean, weighted_rms_relative_error, Summary};
