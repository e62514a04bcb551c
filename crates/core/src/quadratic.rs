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
use std::sync::Mutex;

/// Instructions with an individual IPC below this value are not
/// benchmarked further, neither in pairs nor by LPAUX (paper: 0.05).
pub const MIN_IPC: f64 = 0.05;

/// Relative rounding tolerance when turning IPC proportions into integer
/// repetition counts (paper: 0.05).
pub const COEFFICIENT_TOLERANCE: f64 = 0.05;

/// Maximum total instructions per generated benchmark body.
pub const MAX_KERNEL_SIZE: u32 = 64;

/// The `M` of the `a^M b` benchmarks (paper: 4).
pub const ASYMMETRIC_REPEAT: u32 = 4;

/// Relative tolerance of the disjointness test (paper: 5%).
pub const DISJOINT_TOLERANCE: f64 = 0.05;

/// Position of an instruction that is not in the campaign.
const ABSENT: u32 = u32::MAX;

/// Most blocks [`measure_all`] cuts a job list into.  A fixed block count,
/// not a fixed block size: enough blocks for the workers to balance uneven
/// measurement costs, few enough that each batch amortises the measurer's
/// per-batch overhead over many kernels.
const MEASURE_BLOCKS: usize = 64;

/// Measures the kernel `kernel(job)` of every job, returning the IPCs in
/// job order.  The jobs are cut into at most [`MEASURE_BLOCKS`] contiguous
/// blocks that fan out over the cores; each block builds its kernels and
/// measures them with one [`Measurer::ipc_many`] batch.
///
/// Each block copies its IPCs into its own slice of the returned buffer, so
/// the batch's result is freed on the worker that allocated it.  Returning
/// the per-block vectors to the caller instead left about 1 MB more of
/// free memory resident in the workers' glibc malloc arenas once training
/// had dropped its memo (the serve workloads of `palbench` train first).
pub(crate) fn measure_all<T: Sync, M: Measurer + Sync>(
    measurer: &M,
    jobs: &[T],
    kernel: impl Fn(&T) -> Microkernel + Sync,
) -> Vec<f64> {
    let block_len = jobs.len().div_ceil(MEASURE_BLOCKS).max(1);
    let mut ipcs = vec![f64::NAN; jobs.len()];
    let blocks: Vec<(&[T], Mutex<&mut [f64]>)> =
        jobs.chunks(block_len).zip(ipcs.chunks_mut(block_len).map(Mutex::new)).collect();
    par_map(&blocks, |(block, out)| {
        let block_ipcs = measurer.ipc_many(block.iter().map(&kernel).collect());
        out.lock().expect("a block panicked while writing its IPCs").copy_from_slice(&block_ipcs);
    });
    drop(blocks);
    ipcs
}

/// Results of a quadratic campaign over a set of instructions.
///
/// The campaign is dense: instructions are addressed by their position in
/// the candidate list the campaign ran on, found through a table indexed by
/// [`InstId::index`].  Individual IPCs are one `f64` per position and the
/// `aabb` IPCs one row-major `n×n` matrix, symmetric, with NaN for a pair
/// that was not run (the diagonal, pairs involving a low-IPC instruction and
/// incompatible pairs).  Every lookup is an index read.  The matrix costs
/// `n²·8` bytes: 4.1 MB for the 714 base-ISA candidates of the large
/// inventory.
#[derive(Debug, Clone, Default)]
pub struct QuadraticCampaign {
    /// Position of every instruction in the candidate list, indexed by
    /// [`InstId::index`]; [`ABSENT`] (or out of range) when not benchmarked.
    positions: Vec<u32>,
    /// Individual IPC per position.
    singles: Vec<f64>,
    /// `aabb` IPC of every pair of positions, row-major, NaN when not run.
    pairs: Vec<f64>,
    /// Number of benchmarks generated (singles plus measured pairs).
    num_benchmarks: usize,
}

impl QuadraticCampaign {
    /// Runs the campaign for `instructions` on `measurer`.
    ///
    /// `instructions` must be distinct.  `compatible` decides whether two
    /// instructions may share a benchmark (the extension-mixing rule); it is
    /// always called with `a <= b`.
    ///
    /// The singles, then the pairs, are each measured by [`measure_all`]:
    /// at most [`MEASURE_BLOCKS`] contiguous blocks fan out over the
    /// available cores, each block one [`Measurer::ipc_many`] batch.  The
    /// results come back in job order, so they are recorded exactly as the
    /// sequential loop would record them.
    pub fn run<M: Measurer + Sync>(
        measurer: &M,
        instructions: &[InstId],
        compatible: impl Fn(InstId, InstId) -> bool + Sync,
    ) -> Self {
        let n = instructions.len();
        let table_len = instructions.iter().map(|a| a.index() + 1).max().unwrap_or(0);
        let mut positions = vec![ABSENT; table_len];
        for (p, &a) in instructions.iter().enumerate() {
            debug_assert_eq!(positions[a.index()], ABSENT, "{a} is a candidate twice");
            positions[a.index()] = p as u32;
        }

        // Individual IPCs and the low-IPC filter.
        let singles = measure_all(measurer, instructions, |&a| Microkernel::single(a));
        let mut campaign = QuadraticCampaign {
            positions,
            singles,
            pairs: vec![f64::NAN; n * n],
            num_benchmarks: n,
        };
        let usable: Vec<u32> =
            (0..n as u32).filter(|&p| campaign.singles[p as usize] >= MIN_IPC).collect();

        // Pair benchmarks: enumerate in deterministic order, build and
        // measure in parallel, then record sequentially.  Jobs are position
        // pairs ordered by instruction id.  A kernel is a sorted multiset, so
        // `pair_kernel(lo, hi)` equals `pair_kernel(a, b)`.
        let id = |p: u32| instructions[p as usize];
        let mut pair_jobs: Vec<(u32, u32)> = Vec::new();
        for (i, &p) in usable.iter().enumerate() {
            for &q in &usable[i + 1..] {
                let (lo, hi) = if id(p) <= id(q) { (p, q) } else { (q, p) };
                if compatible(id(lo), id(hi)) {
                    pair_jobs.push((lo, hi));
                }
            }
        }
        let pair_ipcs =
            measure_all(measurer, &pair_jobs, |&(lo, hi)| campaign.pair_kernel(id(lo), id(hi)));
        campaign.num_benchmarks += pair_jobs.len();
        for ((p, q), ipc) in pair_jobs.into_iter().zip(pair_ipcs) {
            debug_assert!(!ipc.is_nan(), "NaN marks a pair that was not run");
            let (p, q) = (p as usize, q as usize);
            campaign.pairs[p * n + q] = ipc;
            campaign.pairs[q * n + p] = ipc;
        }
        campaign
    }

    /// Position of an instruction in the campaign's candidate list.
    fn position(&self, inst: InstId) -> Option<usize> {
        match self.positions.get(inst.index()) {
            Some(&p) if p != ABSENT => Some(p as usize),
            _ => None,
        }
    }

    /// The `aabb` kernel for a pair, using the measured individual IPCs as
    /// proportions (rounded to integers within [`COEFFICIENT_TOLERANCE`]).
    pub fn pair_kernel(&self, a: InstId, b: InstId) -> Microkernel {
        let ipc_a = self.single_ipc(a).unwrap_or(1.0).max(MIN_IPC);
        let ipc_b = self.single_ipc(b).unwrap_or(1.0).max(MIN_IPC);
        Microkernel::from_proportions(
            [(a, ipc_a), (b, ipc_b)],
            COEFFICIENT_TOLERANCE,
            MAX_KERNEL_SIZE,
        )
    }

    /// The asymmetric `a^M b` kernel.
    pub fn asymmetric_kernel(&self, a: InstId, b: InstId) -> Microkernel {
        Microkernel::pair(a, ASYMMETRIC_REPEAT, b, 1)
    }

    /// Individual IPC of an instruction, if it was benchmarked.
    pub fn single_ipc(&self, inst: InstId) -> Option<f64> {
        self.position(inst).map(|p| self.singles[p])
    }

    /// IPC of the pair benchmark `aabb`, if it was run.
    pub fn pair_ipc(&self, a: InstId, b: InstId) -> Option<f64> {
        let ipc = self.pairs[self.position(a)? * self.singles.len() + self.position(b)?];
        (!ipc.is_nan()).then_some(ipc)
    }

    /// The campaign's IPC feature vector of an instruction: its pair IPC
    /// against every instruction in `others` (its own single IPC is used when
    /// the pair was skipped or is the instruction itself, and 0.0 throughout
    /// when the instruction is not in the campaign).
    ///
    /// Two instructions with (approximately) identical vectors behave
    /// identically with respect to the basic-instruction selection and are
    /// grouped into one equivalence class.
    pub fn feature_vector(&self, inst: InstId, others: &[InstId]) -> Vec<f64> {
        let Some(p) = self.position(inst) else {
            return vec![0.0; others.len()];
        };
        let n = self.singles.len();
        let (single, row) = (self.singles[p], &self.pairs[p * n..(p + 1) * n]);
        others
            .iter()
            .map(|&o| match self.position(o) {
                Some(q) if !row[q].is_nan() => row[q],
                _ => single,
            })
            .collect()
    }

    /// Whether two instructions are *disjoint*: the pair IPC equals the sum
    /// of the individual IPCs (within [`DISJOINT_TOLERANCE`], relative).
    pub fn are_disjoint(&self, a: InstId, b: InstId) -> bool {
        let (Some(ia), Some(ib), Some(iab)) =
            (self.single_ipc(a), self.single_ipc(b), self.pair_ipc(a, b))
        else {
            return false;
        };
        let expected = ia + ib;
        (iab - expected).abs() <= DISJOINT_TOLERANCE * expected
    }

    /// Number of benchmarks generated by the campaign.
    pub fn num_benchmarks(&self) -> usize {
        self.num_benchmarks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_machine::{presets, AnalyticMeasurer, MeasurementNoise};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn campaign() -> (QuadraticCampaign, std::sync::Arc<palmed_isa::InstructionSet>) {
        let preset = presets::paper_ports016();
        let measurer = AnalyticMeasurer::new(preset.mapping_arc());
        let ids: Vec<InstId> = preset.instructions.ids().collect();
        let c = QuadraticCampaign::run(&measurer, &ids, |_, _| true);
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
        assert!(c.are_disjoint(find("BSR"), find("JMP")));
        assert!(!c.are_disjoint(find("ADDSS"), find("BSR")));
        // DIVPS (p0) and BSR (p1) disjoint.
        assert!(c.are_disjoint(find("DIVPS"), find("BSR")));
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
        let c = QuadraticCampaign::run(&measurer, &ids, |_, _| false);
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

    /// A two-port machine whose `DIV` is one 40-cycle non-pipelined µOP on
    /// port 0: IPC 1/40, below [`MIN_IPC`].
    fn machine_with_a_slow_divider() -> presets::PresetMachine {
        use palmed_isa::{ExecClass, InstDesc, InstructionSet};
        use palmed_machine::disjunctive::{FrontEnd, MachineDescription};
        use palmed_machine::{MicroOp, PortSet};
        let ports = |list: &[u8]| PortSet::from_ports(list.iter().copied());
        let mut m = MachineDescription::new("toy2-div", 2, FrontEnd::instructions_only(4.0));
        m.define_class(ExecClass::IntAlu, vec![MicroOp::pipelined(ports(&[0, 1]))]);
        m.define_class(ExecClass::IntAluRestricted, vec![MicroOp::pipelined(ports(&[1]))]);
        m.define_class(ExecClass::IntMul, vec![MicroOp::pipelined(ports(&[0]))]);
        m.define_class(ExecClass::IntDiv, vec![MicroOp::non_pipelined(ports(&[0]), 40.0)]);
        let insts = InstructionSet::from_descs([
            InstDesc::new("ADD", ExecClass::IntAlu),
            InstDesc::new("BSR", ExecClass::IntAluRestricted),
            InstDesc::new("IMUL", ExecClass::IntMul),
            InstDesc::new("DIV", ExecClass::IntDiv),
        ]);
        presets::PresetMachine {
            description: std::sync::Arc::new(m),
            instructions: std::sync::Arc::new(insts),
        }
    }

    #[test]
    fn an_instruction_below_the_ipc_cut_off_gets_no_pair_benchmark_and_no_mapping() {
        let machine = machine_with_a_slow_divider();
        let measurer = AnalyticMeasurer::new(machine.mapping_arc());
        let div = machine.instructions.find("DIV").unwrap();
        let ids: Vec<InstId> = machine.instructions.ids().collect();
        let others: Vec<InstId> = ids.iter().copied().filter(|&i| i != div).collect();

        // The campaign measures DIV alone, finds it below the cut-off and runs
        // every pair of the other instructions but none with DIV.
        let c = QuadraticCampaign::run(&measurer, &ids, |_, _| true);
        let div_ipc = c.single_ipc(div).unwrap();
        assert!((div_ipc - 1.0 / 40.0).abs() < 1e-9, "DIV IPC {div_ipc}");
        assert!(others.iter().all(|&o| c.single_ipc(o).unwrap() >= MIN_IPC));
        for &o in &others {
            assert!(c.pair_ipc(div, o).is_none() && c.pair_ipc(o, div).is_none());
        }
        let n = others.len();
        assert_eq!(c.num_benchmarks(), ids.len() + n * (n - 1) / 2);

        // The pipeline leaves DIV unmapped, skipped for its IPC.
        let result = crate::Palmed::new(crate::PalmedConfig::small()).infer(&measurer);
        assert!(!result.mapping.supports(div));
        assert_eq!(result.skipped.len(), 1, "skipped: {:?}", result.skipped);
        let (inst, reason) = &result.skipped[0];
        assert_eq!(*inst, div);
        assert!(reason.contains("below threshold"), "{reason}");
        assert!(others.iter().all(|&o| result.mapping.supports(o)));
    }

    /// The campaign as it was kept before the dense layout: `HashMap`s keyed
    /// by instruction id, filled by a sequential loop.  The differential
    /// reference of `dense_campaign_matches_the_hash_map_reference`.
    struct HashCampaign {
        singles: HashMap<InstId, f64>,
        pairs: HashMap<(InstId, InstId), f64>,
        num_benchmarks: usize,
    }

    impl HashCampaign {
        fn run(
            measurer: &impl Measurer,
            instructions: &[InstId],
            compatible: impl Fn(InstId, InstId) -> bool,
        ) -> Self {
            let mut campaign =
                HashCampaign { singles: HashMap::new(), pairs: HashMap::new(), num_benchmarks: 0 };
            let mut usable = Vec::new();
            for &a in instructions {
                let ipc = measurer.ipc(&Microkernel::single(a));
                campaign.singles.insert(a, ipc);
                campaign.num_benchmarks += 1;
                if ipc >= MIN_IPC {
                    usable.push(a);
                }
            }
            for (i, &a) in usable.iter().enumerate() {
                for &b in &usable[i + 1..] {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    if compatible(lo, hi) {
                        let ipc = measurer.ipc(&campaign.pair_kernel(lo, hi));
                        campaign.pairs.insert((lo, hi), ipc);
                        campaign.num_benchmarks += 1;
                    }
                }
            }
            campaign
        }

        fn pair_kernel(&self, a: InstId, b: InstId) -> Microkernel {
            let ipc_a = self.singles.get(&a).copied().unwrap_or(1.0).max(MIN_IPC);
            let ipc_b = self.singles.get(&b).copied().unwrap_or(1.0).max(MIN_IPC);
            Microkernel::from_proportions(
                [(a, ipc_a), (b, ipc_b)],
                COEFFICIENT_TOLERANCE,
                MAX_KERNEL_SIZE,
            )
        }

        fn single_ipc(&self, inst: InstId) -> Option<f64> {
            self.singles.get(&inst).copied()
        }

        fn pair_ipc(&self, a: InstId, b: InstId) -> Option<f64> {
            let key = if a <= b { (a, b) } else { (b, a) };
            self.pairs.get(&key).copied()
        }

        fn feature_vector(&self, inst: InstId, others: &[InstId]) -> Vec<f64> {
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

        fn are_disjoint(&self, a: InstId, b: InstId) -> bool {
            let (Some(ia), Some(ib), Some(iab)) =
                (self.single_ipc(a), self.single_ipc(b), self.pair_ipc(a, b))
            else {
                return false;
            };
            let expected = ia + ib;
            (iab - expected).abs() <= DISJOINT_TOLERANCE * expected
        }
    }

    /// A measurer that runs every kernel holding a `slow` instruction 1000
    /// times slower than `inner`, so those instructions fall below
    /// [`MIN_IPC`] while every measured value stays distinct.
    struct Slowed<M> {
        inner: M,
        slow: Vec<InstId>,
    }

    impl<M: Measurer> Measurer for Slowed<M> {
        fn ipc(&self, kernel: &Microkernel) -> f64 {
            let ipc = self.inner.ipc(kernel);
            if self.slow.iter().any(|&s| kernel.contains(s)) {
                ipc / 1000.0
            } else {
                ipc
            }
        }

        fn instructions(&self) -> &palmed_isa::InstructionSet {
            self.inner.instructions()
        }
    }

    #[test]
    fn dense_campaign_matches_the_hash_map_reference() {
        let preset = presets::skl_sp(&palmed_isa::InventoryConfig::small());
        let all: Vec<InstId> = preset.instructions.ids().collect();
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        let mut rng = StdRng::seed_from_u64(19);
        let mut filtered = 0;
        for round in 0..12u64 {
            let mut candidates: Vec<InstId> =
                all.iter().copied().filter(|_| rng.gen_bool(0.3)).collect();
            // Shuffle so candidate positions do not follow instruction ids.
            for i in (1..candidates.len()).rev() {
                candidates.swap(i, rng.gen_range(0..=i));
            }
            // Noise makes every measured value distinct, so a lookup that
            // reads the wrong slot cannot agree by accident.  A random share
            // of the candidates, up to most of them, falls below the cut-off.
            let slow_share = [0.0, 0.1, 0.4, 0.8][rng.gen_range(0..4usize)];
            let measurer = Slowed {
                inner: AnalyticMeasurer::with_noise(
                    preset.mapping_arc(),
                    MeasurementNoise::realistic(round),
                ),
                slow: candidates.iter().copied().filter(|_| rng.gen_bool(slow_share)).collect(),
            };
            let salt: u64 = rng.gen();
            let compatible = |a: InstId, b: InstId| {
                let h = (u64::from(a.0) << 32 | u64::from(b.0)) ^ salt;
                h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61 != 0
            };
            let dense = QuadraticCampaign::run(&measurer, &candidates, compatible);
            let reference = HashCampaign::run(&measurer, &candidates, compatible);
            assert_eq!(dense.num_benchmarks(), reference.num_benchmarks, "round {round}");
            filtered += candidates.iter().filter(|&&a| dense.single_ipc(a) < Some(MIN_IPC)).count();

            // Queries range over the whole inventory, most of it outside the
            // campaign, plus ids beyond the inventory.
            let mut queries = all.clone();
            queries.extend([InstId(all.len() as u32), InstId(10_000)]);
            let subset: Vec<InstId> =
                queries.iter().copied().filter(|_| rng.gen_bool(0.2)).collect();
            let others_lists = [candidates.clone(), queries.clone(), subset, Vec::new()];
            for &a in &queries {
                assert_eq!(bits(dense.single_ipc(a)), bits(reference.single_ipc(a)));
                for others in &others_lists {
                    let got: Vec<u64> =
                        dense.feature_vector(a, others).into_iter().map(f64::to_bits).collect();
                    let want: Vec<u64> =
                        reference.feature_vector(a, others).into_iter().map(f64::to_bits).collect();
                    assert_eq!(got, want, "round {round}: feature vector of {a}");
                }
                for &b in &queries {
                    assert_eq!(bits(dense.pair_ipc(a, b)), bits(reference.pair_ipc(a, b)));
                    assert_eq!(
                        dense.are_disjoint(a, b),
                        reference.are_disjoint(a, b),
                        "round {round}: disjointness of {a} and {b}"
                    );
                }
            }
            for (&a, &b) in candidates.iter().zip(candidates.iter().rev()) {
                assert_eq!(dense.pair_kernel(a, b), reference.pair_kernel(a, b));
            }
        }
        assert!(filtered > 0, "no candidate fell below the cut-off");
    }
}
