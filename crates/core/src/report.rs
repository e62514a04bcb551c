//! Mapping statistics — the data behind Table II of the paper.
//!
//! Table II reports, for every target machine: the benchmarking time, the LP
//! solving time, the number of generated microbenchmarks, the number of
//! abstract resources found and the number of instructions mapped.  The
//! [`MappingReport`] collects the same quantities during an inference run so
//! the table can be regenerated (`cargo run -p palmed-bench --bin table2`).

use std::fmt;
use std::time::Duration;

/// Statistics of one Palmed inference run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MappingReport {
    /// Name of the measured machine.
    pub machine: String,
    /// Total number of instructions offered to the pipeline.
    pub instructions_total: usize,
    /// Number of instructions that ended up with a resource mapping.
    pub instructions_mapped: usize,
    /// Number of instructions skipped (below the IPC threshold, ...).
    pub instructions_skipped: usize,
    /// Number of basic instructions selected for the core mapping.
    pub basic_instructions: usize,
    /// Number of abstract resources in the final mapping.
    pub resources_found: usize,
    /// Number of distinct microbenchmarks generated and measured: the
    /// measurer's [`measurement_count`](palmed_machine::Measurer::measurement_count)
    /// once inference is done.  A measurer that does not count (the bare
    /// back-ends; wrap one in a `MemoizingMeasurer` to count) reports 0.
    pub benchmarks_generated: usize,
    /// Wall-clock time spent generating and measuring benchmarks.
    pub benchmarking_time: Duration,
    /// Wall-clock time spent solving linear programs.
    pub lp_time: Duration,
}

impl MappingReport {
    /// Total wall-clock time (benchmarking + solving).
    pub fn overall_time(&self) -> Duration {
        self.benchmarking_time + self.lp_time
    }

    /// Renders the report as one column of Table II.
    pub fn table_rows(&self) -> Vec<(String, String)> {
        vec![
            ("Machine".to_string(), self.machine.clone()),
            (
                "Benchmarking time".to_string(),
                format!("{:.2} s", self.benchmarking_time.as_secs_f64()),
            ),
            ("LP solving time".to_string(), format!("{:.2} s", self.lp_time.as_secs_f64())),
            ("Overall time".to_string(), format!("{:.2} s", self.overall_time().as_secs_f64())),
            ("Gen. microbenchmarks".to_string(), self.benchmarks_generated.to_string()),
            ("Resources found".to_string(), self.resources_found.to_string()),
            ("Basic instructions".to_string(), self.basic_instructions.to_string()),
            ("Instructions offered".to_string(), self.instructions_total.to_string()),
            ("Instructions mapped".to_string(), self.instructions_mapped.to_string()),
        ]
    }
}

impl fmt::Display for MappingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (label, value) in self.table_rows() {
            writeln!(f, "{label:<24} {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MappingReport {
        MappingReport {
            machine: "skl-sp-like".into(),
            instructions_total: 400,
            instructions_mapped: 390,
            instructions_skipped: 10,
            basic_instructions: 12,
            resources_found: 14,
            benchmarks_generated: 25_000,
            benchmarking_time: Duration::from_secs_f64(12.5),
            lp_time: Duration::from_secs_f64(3.25),
        }
    }

    #[test]
    fn totals_and_fractions() {
        let r = sample();
        assert_eq!(r.overall_time(), Duration::from_secs_f64(15.75));
    }

    #[test]
    fn display_contains_table_ii_fields() {
        let text = sample().to_string();
        for needle in [
            "Benchmarking time",
            "LP solving time",
            "Gen. microbenchmarks",
            "Resources found",
            "Instructions mapped",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
