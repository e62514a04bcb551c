//! Synthetic benchmark suites.
//!
//! The paper extracts basic blocks from SPECint2017 (static binary analysis
//! plus performance counters) and PolyBench/C (QEMU translation blocks with
//! execution counts).  Neither source is redistributable, so this module
//! generates *synthetic* suites with the same statistical character:
//!
//! * **SPEC-like** — integer- and control-flow-heavy blocks: ALU operations,
//!   compares and branches, address arithmetic, scalar loads/stores, the
//!   occasional multiply / divide; a wide range of block sizes; heavy-tailed
//!   execution weights.
//! * **PolyBench-like** — floating-point loop kernels: SSE/AVX adds and
//!   multiplies (FMA-style), vector loads/stores, address computations
//!   (LEA), very few branches; blocks are dominated by a handful of hot
//!   kernels with very large weights (PolyBench spends almost all its time
//!   in a few loop nests).
//!
//! Generation is seeded and deterministic, so every figure of the evaluation
//! can be regenerated exactly.

use crate::blocks::BasicBlock;
use palmed_isa::{ExecClass, Extension, InstId, InstructionSet, Microkernel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which suite to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteKind {
    /// Integer / control-flow heavy blocks (SPECint2017 stand-in).
    SpecLike,
    /// Floating-point loop kernels (PolyBench/C stand-in).
    PolybenchLike,
}

impl SuiteKind {
    /// Display name used in tables ("SPEC2017-like", "Polybench-like").
    pub fn name(self) -> &'static str {
        match self {
            SuiteKind::SpecLike => "SPEC2017-like",
            SuiteKind::PolybenchLike => "Polybench-like",
        }
    }

    /// Both suites, in the order of the paper's tables.
    pub const ALL: [SuiteKind; 2] = [SuiteKind::SpecLike, SuiteKind::PolybenchLike];

    /// Class-frequency profile of the suite: `(class, relative weight)`.
    fn profile(self) -> &'static [(ExecClass, f64)] {
        match self {
            SuiteKind::SpecLike => &[
                (ExecClass::IntAlu, 42.0),
                (ExecClass::Load, 18.0),
                (ExecClass::Store, 8.0),
                (ExecClass::Branch, 12.0),
                (ExecClass::Jump, 3.0),
                (ExecClass::Lea, 8.0),
                (ExecClass::IntMul, 3.0),
                (ExecClass::IntAluRestricted, 2.0),
                (ExecClass::IntDiv, 0.5),
                (ExecClass::FpAddSse, 1.5),
                (ExecClass::FpMulSse, 1.0),
                (ExecClass::VecAluSse, 1.0),
            ],
            SuiteKind::PolybenchLike => &[
                (ExecClass::FpAddSse, 14.0),
                (ExecClass::FpMulSse, 16.0),
                (ExecClass::FpAddAvx, 8.0),
                (ExecClass::FpMulAvx, 10.0),
                (ExecClass::VecAluSse, 4.0),
                (ExecClass::VecAluAvx, 3.0),
                (ExecClass::VecShuffleSse, 2.0),
                (ExecClass::VecCvtSse, 1.0),
                (ExecClass::Load, 14.0),
                (ExecClass::VecLoad, 6.0),
                (ExecClass::Store, 5.0),
                (ExecClass::VecStore, 3.0),
                (ExecClass::Lea, 8.0),
                (ExecClass::IntAlu, 9.0),
                (ExecClass::Branch, 2.0),
                (ExecClass::FpDivSse, 0.5),
            ],
        }
    }
}

/// Minimum distinct instructions per block.
pub const MIN_DISTINCT: usize = 2;
/// Maximum distinct instructions per block.
pub const MAX_DISTINCT: usize = 10;
/// Maximum multiplicity of one instruction inside a block.
pub const MAX_MULTIPLICITY: u32 = 4;

/// Configuration of suite generation: how many blocks, from which seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteConfig {
    /// Number of basic blocks to generate.
    pub num_blocks: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig { num_blocks: 400, seed: 2017 }
    }
}

impl SuiteConfig {
    /// A smaller configuration for unit tests.
    pub fn small(seed: u64) -> Self {
        SuiteConfig { num_blocks: 60, seed }
    }
}

/// Generates a suite of weighted basic blocks for `insts`.
///
/// Blocks never mix SSE and AVX instructions (the same constraint the
/// paper's microbenchmark generator enforces); the generator picks the
/// vector flavour per block.
pub fn generate_suite(
    kind: SuiteKind,
    insts: &InstructionSet,
    config: &SuiteConfig,
) -> Vec<BasicBlock> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ kind.name().len() as u64);
    let profile = kind.profile();

    // Candidate instructions per class (only classes present in the ISA).
    let per_class: Vec<(ExecClass, f64, Vec<InstId>)> = profile
        .iter()
        .map(|&(class, weight)| (class, weight, insts.ids_with_class(class)))
        .filter(|(_, _, ids)| !ids.is_empty())
        .collect();

    let mut blocks = Vec::with_capacity(config.num_blocks);
    for index in 0..config.num_blocks {
        // Pick the vector flavour of this block: SSE or AVX (never both).
        let allow_avx = rng.gen_bool(0.5);
        let allowed: Vec<(f64, &Vec<InstId>)> = per_class
            .iter()
            .filter(|(class, _, _)| match class.extension() {
                Extension::BaseIsa => true,
                Extension::Sse => !allow_avx,
                Extension::Avx => allow_avx,
            })
            .map(|(_, w, ids)| (*w, ids))
            .collect();
        let total_weight: f64 = allowed.iter().map(|(w, _)| w).sum();

        let distinct = rng.gen_range(MIN_DISTINCT..=MAX_DISTINCT);
        let mut kernel = Microkernel::new();
        for _ in 0..distinct {
            // Weighted class pick.
            let mut draw = rng.gen::<f64>() * total_weight;
            let mut chosen = &allowed[0];
            for entry in &allowed {
                if draw < entry.0 {
                    chosen = entry;
                    break;
                }
                draw -= entry.0;
            }
            let ids = chosen.1;
            let inst = ids[rng.gen_range(0..ids.len())];
            kernel.add(inst, rng.gen_range(1..=MAX_MULTIPLICITY));
        }
        if kernel.is_empty() {
            continue;
        }
        // Heavy-tailed execution weights; PolyBench-like blocks are even more
        // concentrated (a few loop nests dominate the runtime).
        let exponent = match kind {
            SuiteKind::SpecLike => rng.gen_range(0.0..4.0),
            SuiteKind::PolybenchLike => rng.gen_range(0.0..6.0),
        };
        let weight = 10f64.powf(exponent);
        blocks.push(BasicBlock::new(format!("{}/{index}", kind.name()), kernel, weight));
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_isa::InventoryConfig;

    fn inventory() -> InstructionSet {
        InstructionSet::synthetic(&InventoryConfig::small())
    }

    #[test]
    fn generation_is_deterministic() {
        let insts = inventory();
        let a = generate_suite(SuiteKind::SpecLike, &insts, &SuiteConfig::small(1));
        let b = generate_suite(SuiteKind::SpecLike, &insts, &SuiteConfig::small(1));
        assert_eq!(a, b);
        let c = generate_suite(SuiteKind::SpecLike, &insts, &SuiteConfig::small(2));
        assert_ne!(a, c);
    }

    #[test]
    fn suites_have_the_requested_size_and_valid_blocks() {
        let insts = inventory();
        for kind in SuiteKind::ALL {
            let blocks = generate_suite(kind, &insts, &SuiteConfig::small(7));
            assert!(blocks.len() >= 55, "{} blocks", blocks.len());
            for b in &blocks {
                assert!(!b.kernel.is_empty());
                assert!(b.weight > 0.0);
                assert!(b.size() <= MAX_DISTINCT as u32 * MAX_MULTIPLICITY);
            }
        }
    }

    #[test]
    fn blocks_never_mix_sse_and_avx() {
        let insts = inventory();
        for kind in SuiteKind::ALL {
            for block in generate_suite(kind, &insts, &SuiteConfig::small(3)) {
                let has_sse =
                    block.kernel.instructions().any(|i| insts.desc(i).extension == Extension::Sse);
                let has_avx =
                    block.kernel.instructions().any(|i| insts.desc(i).extension == Extension::Avx);
                assert!(!(has_sse && has_avx), "mixed block: {}", block.render(&insts));
            }
        }
    }

    #[test]
    fn spec_like_is_integer_heavy_and_polybench_like_is_fp_heavy() {
        let insts = inventory();
        let count_fp = |blocks: &[BasicBlock]| -> f64 {
            let mut fp = 0u32;
            let mut total = 0u32;
            for b in blocks {
                for (i, c) in b.kernel.iter() {
                    total += c;
                    if insts.desc(i).extension != Extension::BaseIsa {
                        fp += c;
                    }
                }
            }
            fp as f64 / total.max(1) as f64
        };
        let spec = generate_suite(SuiteKind::SpecLike, &insts, &SuiteConfig::small(11));
        let poly = generate_suite(SuiteKind::PolybenchLike, &insts, &SuiteConfig::small(11));
        let spec_fp = count_fp(&spec);
        let poly_fp = count_fp(&poly);
        assert!(spec_fp < 0.2, "SPEC-like FP fraction {spec_fp}");
        assert!(poly_fp > 0.4, "PolyBench-like FP fraction {poly_fp}");
    }

    #[test]
    fn suite_names_are_stable() {
        assert_eq!(SuiteKind::SpecLike.name(), "SPEC2017-like");
        assert_eq!(SuiteKind::PolybenchLike.name(), "Polybench-like");
    }
}
