//! Hardware substrate: the simulated CPU that Palmed characterises.
//!
//! The original Palmed measures real processors (an Intel Skylake-SP and an
//! AMD Zen1) with cycle counters.  This reproduction replaces the silicon
//! with a **port-model simulator**: a ground-truth *disjunctive* tripartite
//! port mapping (instructions → µOPs → execution ports) plus the non-port
//! resources the paper names (front-end width, non-pipelined dividers,
//! reorder-buffer capacity), behind the same observable — the steady-state
//! IPC of a dependency-free microkernel.
//!
//! * [`port`] — ports, port sets and µOP descriptors.
//! * [`disjunctive`] — machine descriptions and the resolved
//!   [`DisjunctiveMapping`] for an instruction set.
//! * [`throughput`] — exact optimal steady-state throughput of a microkernel
//!   on a disjunctive mapping: the Hall bound of Appendix A, computed by
//!   [`throughput::port_bound`], which the port-model baselines share.
//! * [`cycle_sim`] — a cycle-level greedy issue simulator with a finite
//!   scheduler window, used as the "really executed" alternative back-end.
//! * [`noise`] — measurement perturbation so that inference sees realistic,
//!   not mathematically exact, IPC values.
//! * [`measure`] — the [`Measurer`] trait: the *only*
//!   interface Palmed uses to talk to a machine, mirroring the paper's
//!   "cycle measurements only" constraint; plus caching and counting
//!   wrappers.
//! * [`presets`] — ready-made machines: a Skylake-SP-like core, a Zen1-like
//!   core with split integer/floating-point pipelines, the 3-port
//!   pedagogical machine of the paper's Sec. III, and small test machines.

pub mod cycle_sim;
pub mod disjunctive;
pub mod measure;
pub mod noise;
pub mod port;
pub mod presets;
pub mod throughput;

pub use cycle_sim::SimulationConfig;
pub use disjunctive::{DisjunctiveMapping, MachineDescription};
pub use measure::{
    AnalyticMeasurer, BackendKind, BackendMeasurer, Measurer, MemoizingMeasurer, SimulationMeasurer,
};
pub use noise::MeasurementNoise;
pub use port::{MicroOp, PortId, PortSet};
pub use throughput::{ipc, optimal_execution_time};
