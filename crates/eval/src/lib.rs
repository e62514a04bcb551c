//! Evaluation harness: reproduces the tables and figures of the paper's
//! evaluation section (Sec. VI).
//!
//! * [`blocks`] — weighted basic blocks (the unit of evaluation).
//! * [`suite`] — synthetic benchmark suites standing in for the SPEC CPU2017
//!   and PolyBench/C basic-block extractions of the paper: seeded generators
//!   with per-suite opcode-frequency profiles and per-block execution
//!   weights.  A [`SuiteConfig`] sets only the block count and the seed;
//!   block shape is fixed by the module's constants.
//! * [`metrics`] — the three quantities of Fig. 4b: coverage, weighted RMS
//!   error and Kendall's τ.
//! * [`heatmap`] — the 2-D histograms of Fig. 4a (predicted/native IPC ratio
//!   against native IPC).
//! * [`campaign`] — the driver that infers a Palmed mapping per machine,
//!   trains PMEvo, instantiates the other baselines, evaluates every tool on
//!   every suite and collects the results.  Each tool is named by its
//!   [`ThroughputPredictor::name`](palmed_core::ThroughputPredictor::name);
//!   a tool the machine has no model for (IACA and uops.info on the AMD
//!   target) is marked N/A by the campaign rather than evaluated.
//! * [`tables`] — text renderers for Table I, Table II and Fig. 4b.

pub mod blocks;
pub mod campaign;
pub mod heatmap;
pub mod metrics;
pub mod suite;
pub mod tables;

pub use blocks::BasicBlock;
pub use campaign::{Campaign, CampaignConfig, CampaignResult, ToolResult};
pub use heatmap::Heatmap;
pub use metrics::{evaluate_tool, ToolMetrics};
pub use suite::{SuiteConfig, SuiteKind};
