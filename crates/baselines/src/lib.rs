//! Baseline throughput predictors the paper compares Palmed against.
//!
//! The evaluation of the paper (Fig. 4) pits Palmed against four families of
//! tools.  Each family is reproduced here as a
//! [`ThroughputPredictor`](palmed_core::ThroughputPredictor) implementation
//! with the decision procedure — and the characteristic blind spots — of the
//! original:
//!
//! * [`uops`] — a **uops.info-style** model: the exact (oracle) port mapping
//!   published per instruction, evaluated by spreading each µOP uniformly
//!   over its ports and taking the most-used port.  No front-end, no
//!   non-port resources: it over-estimates IPC whenever something other than
//!   a port is the bottleneck, exactly as observed in the paper.
//! * [`static_analyzer`] — **IACA-like** and **llvm-mca-like** analysers:
//!   hand-maintained machine models that solve the port-assignment problem
//!   optimally and know the front-end width, but carry small modelling gaps
//!   (IACA treats non-pipelined units as pipelined; the mca-like model drops
//!   secondary store/AVX µOPs), standing in for the "manual expertise,
//!   platform-tailored, mostly accurate" behaviour of the real tools.
//! * [`pmevo`] — a reimplementation of **PMEvo**: inference of a disjunctive
//!   port mapping from pair benchmarks with an evolutionary algorithm, and a
//!   coverage limited to the instructions present in its training set.
//!
//! All baselines other than PMEvo require the ground-truth
//! [`DisjunctiveMapping`](palmed_machine::DisjunctiveMapping) — they model
//! tools that had inside information (vendor documentation, per-port
//! hardware counters) which Palmed deliberately does without.
//!
//! Each predictor reports one fixed name (`"uops-style"`, `"iaca-like"`,
//! `"llvm-mca-like"`, `"pmevo"`).  None of them knows which machines the
//! real tool supported: the evaluation campaign decides which rows of
//! Fig. 4b read "N/A".  PMEvo's search constants ([`pmevo::NUM_PORTS`],
//! [`pmevo::MUTATION_RATE`], …) are fixed; only its population and
//! generation counts ([`PmEvoConfig`]) vary between quick and full runs.

pub mod pmevo;
pub mod static_analyzer;
pub mod uops;

pub use pmevo::{PmEvo, PmEvoConfig, PmEvoPredictor};
pub use static_analyzer::{IacaLikePredictor, McaLikePredictor};
pub use uops::UopsStylePredictor;
