//! Palmed: automatic construction of conjunctive resource mappings from
//! cycle-only measurements.
//!
//! This crate implements the contribution of *"PALMED: Throughput
//! Characterization for Superscalar Architectures"* (CGO 2022): given only a
//! way to measure the steady-state IPC of dependency-free microkernels (the
//! [`Measurer`](palmed_machine::Measurer) trait), it infers a **conjunctive
//! bipartite resource mapping** — for every instruction, how much of every
//! abstract resource it consumes — such that the throughput of *any*
//! instruction mix can then be predicted with a closed-form maximum instead
//! of a flow problem.
//!
//! The crate is organised along the paper's structure:
//!
//! * [`conjunctive`] — the model itself: Def. IV.1–IV.3 (microkernels,
//!   conjunctive port mapping, throughput formula).
//! * [`dual`] — Appendix A: the ∇-dual construction turning a disjunctive
//!   (ground-truth) port mapping into an equivalent conjunctive one, used as
//!   an oracle and for property-testing the equivalence theorems.
//! * [`quadratic`] — the quadratic benchmark campaign (`a`, `aabb`, `aMb`).
//! * [`select`] — Algorithm 1: basic-instruction selection (low-IPC filter,
//!   equivalence classes, very-basic clique, greediest completion).
//! * [`lp1`] — Algorithm 3: discovering the *shape* of the core mapping
//!   (how many abstract resources, which edges may exist) from cliques.
//! * [`lp2`] — Algorithm 4: the Bipartite Weight Problem assigning edge
//!   weights to the core mapping, by alternating LPs.
//! * [`saturate`] — selection of one saturating microkernel per resource.
//! * [`lpaux`] — Algorithm 5: the per-instruction completion of the mapping.
//!   Its LP separates per usage, so each usage is computed as the LP's
//!   optimum in closed form, with no simplex.
//! * [`pipeline`] — the end-to-end driver of Fig. 3 ([`Palmed`]).
//! * [`predict`] — the [`ThroughputPredictor`] trait, shared with the
//!   baseline tools, and Palmed's implementation of it: the inferred
//!   [`ConjunctiveMapping`] itself.
//! * [`report`] — mapping statistics (the data behind Table II).
//!
//! # Parameters
//!
//! The one setting of a run is [`PalmedConfig::target_count`], the number of
//! basic instructions per ISA extension (`n` of Algorithm 1): 5 in
//! [`PalmedConfig::small`], 6 in [`PalmedConfig::evaluation`].  Every other
//! parameter is a constant of the phase that reads it:
//!
//! | Constant | Value | Paper | Read by |
//! |---|---|---|---|
//! | [`quadratic::MIN_IPC`] | 0.05 | IPC cut-off, Sec. VI-A | quadratic campaign, LPAUX |
//! | [`quadratic::COEFFICIENT_TOLERANCE`] | 0.05 | rounding of IPC proportions | quadratic campaign, LP1 enrichment, saturating-kernel fallback |
//! | [`quadratic::MAX_KERNEL_SIZE`] | 64 | — (kernel body cap) | quadratic campaign, LP1 enrichment, saturating-kernel fallback |
//! | [`quadratic::ASYMMETRIC_REPEAT`] | 4 | `M` of `a^M b` | LP1 seed benchmarks |
//! | [`quadratic::DISJOINT_TOLERANCE`] | 0.05 | disjointness, Sec. V-A | selection step 3, LP1 |
//! | [`select::LOW_IPC_EPSILON`] | 0.05 | `ε` of Algorithm 1 | selection step 1 |
//! | [`select::CLUSTER_EPSILON`] | 0.08 | equivalence classes of Algorithm 1 | selection step 2 |
//! | [`lp1::MAX_ENRICHMENT_ROUNDS`] | 4 | enrichment of Algorithm 2 † | LP1 |
//! | [`lp2::MAX_ROUNDS`] | 8 | Algorithm 4 † | LP2 |
//! | [`lp2::SLACK_TOLERANCE`] | 1e-6 | Algorithm 4 † | LP2 |
//! | [`saturate::SATURATION_THRESHOLD`] | 0.95 | saturation, paper: 1 † | saturating kernels |
//! | [`lpaux::SATURATING_REPEAT`] | 4 | `L` of `K_sat`, Algorithm 5 | LPAUX |
//!
//! † differs from the paper, for cost or robustness:
//!
//! * the paper solves shape discovery as an ILP; the clique search builds
//!   every shape (see [`lp1`]);
//! * the paper enriches until no new benchmark appears; 4 rounds bound the
//!   loop;
//! * the paper solves the BWP as one MILP; LP2 alternates LPs, at most 8
//!   rounds, and stops when the slack no longer drops by 1e-6; no exact
//!   MILP is kept;
//! * the paper requires a usage of exactly 1 to call a benchmark saturating;
//!   0.95 keeps measurement noise from leaving a resource without one.
//!
//! # Quickstart
//!
//! ```
//! use palmed_core::{Palmed, PalmedConfig, ThroughputPredictor};
//! use palmed_machine::{presets, AnalyticMeasurer, MemoizingMeasurer};
//! use palmed_isa::Microkernel;
//!
//! // The machine under test: the 3-port pedagogical core from the paper.
//! let machine = presets::paper_ports016();
//! let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(machine.mapping_arc()));
//!
//! // Infer the resource mapping from IPC measurements only.
//! let result = Palmed::new(PalmedConfig::small()).infer(&measurer);
//! let predictor = &result.mapping;
//!
//! // Predict the throughput of an unseen instruction mix.
//! let addss = machine.instructions.find("ADDSS").unwrap();
//! let bsr = machine.instructions.find("BSR").unwrap();
//! let kernel = Microkernel::pair(addss, 2, bsr, 1);
//! let predicted = predictor.predict_ipc(&kernel).unwrap();
//! assert!((predicted - 2.0).abs() < 0.2);
//! ```

pub mod conjunctive;
pub mod dual;
pub mod lp1;
pub mod lp2;
pub mod lpaux;
pub mod pipeline;
pub mod predict;
pub mod quadratic;
pub mod report;
pub mod saturate;
pub mod select;

pub use conjunctive::{ConjunctiveMapping, ResourceId};
pub use pipeline::{Palmed, PalmedConfig, PalmedResult};
pub use predict::ThroughputPredictor;
pub use report::MappingReport;
