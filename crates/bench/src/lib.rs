//! Shared helpers for the reproduction binaries and Criterion benches.
//!
//! The binaries regenerate the paper's tables and figures:
//!
//! * `table1` — Table I (qualitative feature matrix);
//! * `table2` — Table II (mapping statistics per machine);
//! * `figure1` — the Sec. III walkthrough (port mapping, resource mapping
//!   and the two optimal schedules of Fig. 2);
//! * `figure4` — Fig. 4a heatmaps and the Fig. 4b accuracy table.
//!
//! The Criterion benches measure the building blocks whose scalability the
//! paper argues for: the LP solver, the throughput evaluations, the
//! inference pipeline and the final predictor.

use palmed_eval::{Campaign, CampaignConfig, CampaignResult};

/// Campaign size selectable from the command line of the binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignScale {
    /// Small inventory, few blocks: finishes in seconds.
    Quick,
    /// Default inventory and block counts: the full reproduction.
    Full,
}

impl CampaignScale {
    /// Parses `--quick` / `--full` style flags (defaults to `Quick`).
    pub fn from_args(args: &[String]) -> Self {
        if args.iter().any(|a| a == "--full") {
            CampaignScale::Full
        } else {
            CampaignScale::Quick
        }
    }

    /// The campaign configuration for this scale.
    pub fn config(self) -> CampaignConfig {
        match self {
            CampaignScale::Quick => CampaignConfig::quick(),
            CampaignScale::Full => CampaignConfig::default(),
        }
    }
}

/// Runs the evaluation campaign at the given scale.
pub fn run_campaign(scale: CampaignScale) -> CampaignResult {
    Campaign::new(scale.config()).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_to_quick() {
        assert_eq!(CampaignScale::from_args(&[]), CampaignScale::Quick);
        assert_eq!(CampaignScale::from_args(&["--full".to_string()]), CampaignScale::Full);
        assert_eq!(CampaignScale::from_args(&["--heatmap".to_string()]), CampaignScale::Quick);
    }

    #[test]
    fn configs_differ_by_inventory_size() {
        let quick = CampaignScale::Quick.config();
        let full = CampaignScale::Full.config();
        assert!(full.inventory.scalar_variants > quick.inventory.scalar_variants);
    }
}
