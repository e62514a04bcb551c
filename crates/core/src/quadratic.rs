//! The quadratic benchmark campaign.
//!
//! The selection of basic instructions (Sec. V-A) and the seed of the core
//! mapping (Sec. V-B) are built from three benchmark shapes:
//!
//! * `a` — each instruction alone, giving its individual IPC;
//! * `a^σa b^σb` ("aabb") — every pair of instructions, each repeated
//!   proportionally to its own IPC (so that neither trivially starves);
//! * `a^M b` ("aMb", M = 4) — an asymmetric pair used by LP1 to avoid
//!   degenerate solutions.
//!
//! The number of pair benchmarks is quadratic in the number of instructions,
//! hence the name.  The campaign respects the calibration rules of
//! Sec. VI-A: instructions whose IPC is below a threshold are excluded, and
//! pairs mixing incompatible vector extensions (SSE + AVX) are skipped.

use palmed_isa::{InstId, Microkernel};
use palmed_machine::Measurer;
use palmed_par::par_map;
use std::collections::HashMap;

/// Configuration of the quadratic campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadraticConfig {
    /// Instructions with an individual IPC below this value are not
    /// benchmarked further (paper: 0.05).
    pub min_ipc: f64,
    /// Relative rounding tolerance when turning IPC proportions into integer
    /// repetition counts (paper: 0.05).
    pub coefficient_tolerance: f64,
    /// Maximum total instructions per generated benchmark body.
    pub max_kernel_size: u32,
    /// The `M` of the `a^M b` benchmarks (paper: 4).
    pub asymmetric_repeat: u32,
}

impl Default for QuadraticConfig {
    fn default() -> Self {
        QuadraticConfig {
            min_ipc: 0.05,
            coefficient_tolerance: 0.05,
            max_kernel_size: 64,
            asymmetric_repeat: 4,
        }
    }
}

/// Results of a quadratic campaign over a set of instructions.
#[derive(Debug, Clone, Default)]
pub struct QuadraticCampaign {
    /// Individual IPC of every benchmarked instruction.
    singles: HashMap<InstId, f64>,
    /// IPC of the `aabb` benchmark for every benchmarked (unordered) pair.
    pairs: HashMap<(InstId, InstId), f64>,
    /// Number of benchmarks generated (singles plus measured pairs).
    num_benchmarks: usize,
    config: QuadraticConfig,
}

impl QuadraticCampaign {
    /// Runs the campaign for `instructions` on `measurer`.
    ///
    /// `compatible` decides whether two instructions may share a benchmark
    /// (the extension-mixing rule); it is always called with `a <= b`.
    ///
    /// The per-benchmark measurements are embarrassingly parallel and fan
    /// out over the available cores; results are recorded in the same
    /// deterministic order as the sequential loop would produce.
    pub fn run<M: Measurer + Sync>(
        measurer: &M,
        instructions: &[InstId],
        config: QuadraticConfig,
        compatible: impl Fn(InstId, InstId) -> bool + Sync,
    ) -> Self {
        let mut campaign = QuadraticCampaign { config, ..Default::default() };

        // Individual IPCs and the low-IPC filter.
        let single_ipcs = par_map(instructions, |&a| measurer.ipc(&Microkernel::single(a)));
        let mut usable = Vec::new();
        for (&a, ipc) in instructions.iter().zip(single_ipcs) {
            campaign.singles.insert(a, ipc);
            campaign.num_benchmarks += 1;
            if ipc >= config.min_ipc {
                usable.push(a);
            }
        }

        // Pair benchmarks: enumerate in deterministic order, build and
        // measure in parallel, then record sequentially.  A kernel is a
        // sorted multiset, so `pair_kernel(lo, hi)` equals `pair_kernel(a, b)`.
        let mut pair_jobs: Vec<(InstId, InstId)> = Vec::new();
        for (i, &a) in usable.iter().enumerate() {
            for &b in &usable[i + 1..] {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                if compatible(lo, hi) {
                    pair_jobs.push((lo, hi));
                }
            }
        }
        let pair_ipcs =
            par_map(&pair_jobs, |&(lo, hi)| measurer.ipc(&campaign.pair_kernel(lo, hi)));
        for ((lo, hi), ipc) in pair_jobs.into_iter().zip(pair_ipcs) {
            campaign.pairs.insert((lo, hi), ipc);
            campaign.num_benchmarks += 1;
        }
        campaign
    }

    /// The `aabb` kernel for a pair, using the measured individual IPCs as
    /// proportions (rounded to integers within the configured tolerance).
    pub fn pair_kernel(&self, a: InstId, b: InstId) -> Microkernel {
        let ipc_a = self.singles.get(&a).copied().unwrap_or(1.0).max(self.config.min_ipc);
        let ipc_b = self.singles.get(&b).copied().unwrap_or(1.0).max(self.config.min_ipc);
        Microkernel::from_proportions(
            [(a, ipc_a), (b, ipc_b)],
            self.config.coefficient_tolerance,
            self.config.max_kernel_size,
        )
    }

    /// The asymmetric `a^M b` kernel.
    pub fn asymmetric_kernel(&self, a: InstId, b: InstId) -> Microkernel {
        Microkernel::pair(a, self.config.asymmetric_repeat, b, 1)
    }

    /// Individual IPC of an instruction, if it was benchmarked.
    pub fn single_ipc(&self, inst: InstId) -> Option<f64> {
        self.singles.get(&inst).copied()
    }

    /// IPC of the pair benchmark `aabb`, if it was run.
    pub fn pair_ipc(&self, a: InstId, b: InstId) -> Option<f64> {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.pairs.get(&key).copied()
    }

    /// The campaign's IPC feature vector of an instruction: its pair IPC
    /// against every instruction in `others` (its own single IPC is used when
    /// the pair was skipped or is the instruction itself).
    ///
    /// Two instructions with (approximately) identical vectors behave
    /// identically with respect to the basic-instruction selection and are
    /// grouped into one equivalence class.
    pub fn feature_vector(&self, inst: InstId, others: &[InstId]) -> Vec<f64> {
        others
            .iter()
            .map(|&o| {
                if o == inst {
                    self.single_ipc(inst).unwrap_or(0.0)
                } else {
                    self.pair_ipc(inst, o)
                        .unwrap_or_else(|| self.single_ipc(inst).unwrap_or(0.0))
                }
            })
            .collect()
    }

    /// Whether two instructions are *disjoint*: the pair IPC equals the sum
    /// of the individual IPCs (within `tolerance`, relative).
    pub fn are_disjoint(&self, a: InstId, b: InstId, tolerance: f64) -> bool {
        let (Some(ia), Some(ib), Some(iab)) =
            (self.single_ipc(a), self.single_ipc(b), self.pair_ipc(a, b))
        else {
            return false;
        };
        let expected = ia + ib;
        (iab - expected).abs() <= tolerance * expected
    }

    /// Number of benchmarks generated by the campaign.
    pub fn num_benchmarks(&self) -> usize {
        self.num_benchmarks
    }

    /// The configuration the campaign ran with.
    pub fn config(&self) -> &QuadraticConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_machine::{presets, AnalyticMeasurer};

    fn campaign() -> (QuadraticCampaign, std::sync::Arc<palmed_isa::InstructionSet>) {
        let preset = presets::paper_ports016();
        let measurer = AnalyticMeasurer::new(preset.mapping_arc());
        let ids: Vec<InstId> = preset.instructions.ids().collect();
        let c = QuadraticCampaign::run(&measurer, &ids, QuadraticConfig::default(), |_, _| true);
        (c, preset.instructions)
    }

    #[test]
    fn singles_match_known_throughputs() {
        let (c, insts) = campaign();
        let find = |n: &str| insts.find(n).unwrap();
        assert!((c.single_ipc(find("ADDSS")).unwrap() - 2.0).abs() < 1e-9);
        assert!((c.single_ipc(find("BSR")).unwrap() - 1.0).abs() < 1e-9);
        assert!((c.single_ipc(find("JNLE")).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pair_benchmark_count_is_quadratic() {
        let (c, insts) = campaign();
        let n = insts.len();
        assert_eq!(c.num_benchmarks(), n + n * (n - 1) / 2);
    }

    #[test]
    fn disjointness_matches_port_structure() {
        let (c, insts) = campaign();
        let find = |n: &str| insts.find(n).unwrap();
        // BSR (p1) and JMP (p6) are disjoint; ADDSS (p01) and BSR (p1) are not.
        assert!(c.are_disjoint(find("BSR"), find("JMP"), 0.05));
        assert!(!c.are_disjoint(find("ADDSS"), find("BSR"), 0.05));
        // DIVPS (p0) and BSR (p1) disjoint.
        assert!(c.are_disjoint(find("DIVPS"), find("BSR"), 0.05));
    }

    #[test]
    fn pair_kernel_respects_proportions() {
        let (c, insts) = campaign();
        let find = |n: &str| insts.find(n).unwrap();
        let k = c.pair_kernel(find("ADDSS"), find("BSR"));
        // IPC 2 vs 1 -> twice as many ADDSS as BSR.
        assert_eq!(k.multiplicity(find("ADDSS")), 2 * k.multiplicity(find("BSR")));
    }

    #[test]
    fn incompatible_pairs_are_skipped() {
        let preset = presets::paper_ports016();
        let measurer = AnalyticMeasurer::new(preset.mapping_arc());
        let ids: Vec<InstId> = preset.instructions.ids().collect();
        // Declare everything incompatible: only singles are measured.
        let c = QuadraticCampaign::run(&measurer, &ids, QuadraticConfig::default(), |_, _| false);
        assert_eq!(c.num_benchmarks(), ids.len());
        assert!(c.pair_ipc(ids[0], ids[1]).is_none());
    }

    #[test]
    fn feature_vectors_separate_behaviours() {
        let (c, insts) = campaign();
        let find = |n: &str| insts.find(n).unwrap();
        let all: Vec<InstId> = insts.ids().collect();
        let jnle = c.feature_vector(find("JNLE"), &all);
        let jmp = c.feature_vector(find("JMP"), &all);
        let addss = c.feature_vector(find("ADDSS"), &all);
        // JNLE (ports 0,6) and JMP (port 6) must differ; ADDSS differs from both.
        assert_ne!(jnle, jmp);
        assert_ne!(addss, jmp);
        assert_eq!(jnle.len(), all.len());
    }

    #[test]
    fn low_ipc_filter_excludes_slow_instructions() {
        // Build a machine where the divider is truly slow via the SKL preset.
        let preset = presets::skl_sp(&palmed_isa::InventoryConfig::small());
        let measurer = AnalyticMeasurer::new(preset.mapping_arc());
        let idiv = preset.instructions.find("IDIV").unwrap();
        let add = preset.instructions.find("ADD").unwrap();
        let config = QuadraticConfig { min_ipc: 0.5, ..QuadraticConfig::default() };
        let c = QuadraticCampaign::run(&measurer, &[idiv, add], config, |_, _| true);
        // Both singles are measured, IDIV falls below the threshold, so no
        // pair benchmark is generated (only one usable instruction).
        assert!(c.single_ipc(idiv).unwrap() < config.min_ipc);
        assert!(c.single_ipc(add).unwrap() >= config.min_ipc);
        assert!(c.pair_ipc(idiv, add).is_none());
        assert_eq!(c.num_benchmarks(), 2);
    }
}
