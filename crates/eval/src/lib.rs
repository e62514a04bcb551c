//! Evaluation harness: reproduces the tables and figures of the paper's
//! evaluation section (Sec. VI).
//!
//! * [`blocks`] — weighted basic blocks (the unit of evaluation).
//! * [`suite`] — synthetic benchmark suites standing in for the SPEC CPU2017
//!   and PolyBench/C basic-block extractions of the paper: seeded generators
//!   with per-suite opcode-frequency profiles and per-block execution
//!   weights.
//! * [`metrics`] — the three quantities of Fig. 4b: coverage, weighted RMS
//!   error and Kendall's τ.
//! * [`heatmap`] — the 2-D histograms of Fig. 4a (predicted/native IPC ratio
//!   against native IPC).
//! * [`campaign`] — the driver that infers a Palmed mapping per machine,
//!   instantiates every baseline, evaluates all of them on every suite and
//!   collects the results.
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
