//! Instruction inventories.
//!
//! The real Palmed extracts its instruction list from Intel XED (several
//! thousand benchmarkable instructions).  The statistically relevant
//! structure of that list — and the reason Palmed scales — is that thousands
//! of mnemonics collapse onto a few tens of distinct port behaviours (the
//! paper's example: 754 instructions on ports {0,1,6} form only 9 classes).
//! [`InstructionSet::synthetic`] reproduces that structure: a configurable
//! number of named opcode variants is generated for every
//! [`ExecClass`], so the inference pipeline sees a large
//! instruction list with realistic redundancy.

use crate::inst::{ExecClass, Extension, InstDesc, InstId};
use crate::intern::HashIndex;
use serde::{Deserialize, Serialize};

/// An ordered collection of instruction descriptors.
///
/// The name index maps the Fx hash of a name to its id instead of keying by
/// owned `String`s: inserting never clones the name, and lookups are one
/// cheap hash plus one name comparison.  Names whose hashes collide (never
/// observed in practice) follow the workspace's one collision rule, kept in
/// the crate's `HashIndex` (see [`crate::intern`]).  SipHash resistance
/// buys nothing here — names are short trusted mnemonics inserted once at
/// build time, and collisions only cost extra comparisons.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InstructionSet {
    descs: Vec<InstDesc>,
    #[serde(skip)]
    by_name: HashIndex,
}

/// Two sets are equal when they hold the same descriptors in the same order
/// (the name index is derived state).
impl PartialEq for InstructionSet {
    fn eq(&self, other: &Self) -> bool {
        self.descs == other.descs
    }
}

impl Eq for InstructionSet {}

/// Fx hash of an instruction name, the key of the name index.
fn name_hash(name: &str) -> u64 {
    use std::hash::Hasher;
    let mut hasher = crate::intern::FxLikeHasher::default();
    hasher.write(name.as_bytes());
    hasher.write_usize(name.len());
    hasher.finish()
}

impl InstructionSet {
    /// Creates an empty instruction set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from descriptors.
    ///
    /// # Panics
    ///
    /// Panics if two descriptors share a name.
    pub fn from_descs(descs: impl IntoIterator<Item = InstDesc>) -> Self {
        let mut set = Self::new();
        for d in descs {
            set.push(d);
        }
        set
    }

    /// Adds a descriptor and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the name is already present.
    pub fn push(&mut self, desc: InstDesc) -> InstId {
        match self.try_push(desc) {
            Ok(id) => id,
            Err(desc) => panic!("duplicate instruction name `{}`", desc.name),
        }
    }

    /// Adds a descriptor, handing it back instead of panicking when the name
    /// is already present (the codec path for untrusted artifacts).
    pub fn try_push(&mut self, desc: InstDesc) -> Result<InstId, InstDesc> {
        let fresh = self.descs.len() as u32;
        let descs = &self.descs;
        let id = self.by_name.find_or_insert(name_hash(&desc.name), fresh, |id| {
            descs[id as usize].name == desc.name
        });
        if id != fresh {
            return Err(desc);
        }
        self.descs.push(desc);
        Ok(InstId(id))
    }

    /// Reserves room for `additional` more instructions in the descriptor
    /// table and the name index (bulk-load paths).
    pub fn reserve(&mut self, additional: usize) {
        self.descs.reserve(additional);
        self.by_name.reserve(additional);
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// True when the set contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// Descriptor of an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this set.
    pub fn desc(&self, id: InstId) -> &InstDesc {
        &self.descs[id.index()]
    }

    /// Name of an instruction (shorthand for `desc(id).name`).
    pub fn name(&self, id: InstId) -> &str {
        &self.desc(id).name
    }

    /// Looks an instruction up by name.
    pub fn find(&self, name: &str) -> Option<InstId> {
        self.by_name.find(name_hash(name), |id| self.descs[id as usize].name == name).map(InstId)
    }

    /// Iterates over all instruction ids in order.
    pub fn ids(&self) -> impl Iterator<Item = InstId> + '_ {
        (0..self.descs.len() as u32).map(InstId)
    }

    /// Iterates over `(id, descriptor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (InstId, &InstDesc)> + '_ {
        self.descs.iter().enumerate().map(|(i, d)| (InstId(i as u32), d))
    }

    /// Ids of all instructions with the given ground-truth class.
    pub fn ids_with_class(&self, class: ExecClass) -> Vec<InstId> {
        self.iter().filter(|(_, d)| d.class == class).map(|(i, _)| i).collect()
    }

    /// Builds a synthetic x86-flavoured inventory according to `config`.
    pub fn synthetic(config: &InventoryConfig) -> Self {
        let mut set = Self::new();
        for &(class, mnemonics) in CLASS_MNEMONICS {
            let variants = config.variants_for(class);
            for mnemonic in mnemonics {
                for v in 0..variants {
                    let name = if variants == 1 {
                        (*mnemonic).to_string()
                    } else {
                        format!("{}_{}", mnemonic, VARIANT_SUFFIXES[v % VARIANT_SUFFIXES.len()])
                    };
                    set.push(InstDesc::new(name, class));
                }
            }
        }
        set
    }

    /// The small six-instruction set used throughout Sec. III of the paper
    /// (DIVPS, VCVTT, ADDSS, BSR, JNLE, JMP restricted to ports 0/1/6).
    pub fn paper_example() -> Self {
        Self::from_descs([
            InstDesc::new("DIVPS", ExecClass::FpDivSse),
            InstDesc::new("VCVTT", ExecClass::VecCvtSse),
            InstDesc::new("ADDSS", ExecClass::FpAddSse),
            InstDesc::new("BSR", ExecClass::IntAluRestricted),
            InstDesc::new("JNLE", ExecClass::Branch),
            InstDesc::new("JMP", ExecClass::Jump),
        ])
    }
}

impl std::ops::Index<InstId> for InstructionSet {
    type Output = InstDesc;
    fn index(&self, index: InstId) -> &Self::Output {
        self.desc(index)
    }
}

/// Operand-width / addressing-mode suffixes used to expand mnemonics into
/// several synthetic variants with identical behaviour.
const VARIANT_SUFFIXES: &[&str] =
    &["R8", "R16", "R32", "R64", "I8", "I32", "XMM", "YMM", "M32", "M64", "RR", "RI", "RM", "MR"];

/// Mnemonic pools per execution class.  Names are real x86 mnemonics chosen
/// so that generated inventories read naturally in reports.
const CLASS_MNEMONICS: &[(ExecClass, &[&str])] = &[
    (
        ExecClass::IntAlu,
        &[
            "ADD", "SUB", "AND", "OR", "XOR", "CMP", "TEST", "INC", "DEC", "NEG", "NOT", "MOV",
            "MOVZX", "MOVSX", "SETCC", "CMOVCC",
        ],
    ),
    (ExecClass::IntAluRestricted, &["BSR", "BSF", "LZCNT", "TZCNT", "POPCNT", "PDEP", "PEXT"]),
    (ExecClass::IntMul, &["IMUL", "MUL", "MULX"]),
    (ExecClass::IntDiv, &["IDIV", "DIV"]),
    (ExecClass::Lea, &["LEA", "LEA_B", "LEA_BIS"]),
    (ExecClass::Branch, &["JNLE", "JE", "JNE", "JL", "JGE", "JB", "JAE", "JO", "JS"]),
    (ExecClass::Jump, &["JMP", "JMP_IND", "CALL_DIR"]),
    (ExecClass::Load, &["MOV_LD", "MOVQ_LD", "MOVD_LD", "LODS"]),
    (ExecClass::Store, &["MOV_ST", "MOVQ_ST", "MOVD_ST", "STOS"]),
    (
        ExecClass::FpAddSse,
        &["ADDSS", "ADDSD", "ADDPS", "ADDPD", "SUBSS", "SUBSD", "SUBPS", "SUBPD"],
    ),
    (
        ExecClass::FpMulSse,
        &["MULSS", "MULSD", "MULPS", "MULPD", "FMADD132SS", "FMADD213PS", "FMADD231SD"],
    ),
    (ExecClass::FpDivSse, &["DIVSS", "DIVSD", "DIVPS", "DIVPD", "SQRTSS", "SQRTPS"]),
    (
        ExecClass::VecAluSse,
        &["PADDD", "PADDQ", "PSUBD", "PAND", "POR", "PXOR", "PCMPEQD", "PMAXSD", "PMINSD"],
    ),
    (
        ExecClass::VecShuffleSse,
        &["PSHUFD", "PSHUFB", "UNPCKLPS", "UNPCKHPD", "PUNPCKLDQ", "SHUFPS"],
    ),
    (ExecClass::VecCvtSse, &["VCVTT", "CVTSS2SD", "CVTSD2SS", "CVTDQ2PS", "CVTPS2DQ"]),
    (ExecClass::FpAddAvx, &["VADDPS", "VADDPD", "VSUBPS", "VSUBPD"]),
    (ExecClass::FpMulAvx, &["VMULPS", "VMULPD", "VFMADD132PS", "VFMADD213PD", "VFMADD231PS"]),
    (ExecClass::FpDivAvx, &["VDIVPS", "VDIVPD", "VSQRTPS"]),
    (ExecClass::VecAluAvx, &["VPADDD", "VPSUBD", "VPAND", "VPOR", "VPXOR", "VANDPS", "VORPS"]),
    (ExecClass::VecShuffleAvx, &["VPERMD", "VPERMILPS", "VSHUFPS", "VUNPCKLPS", "VBLENDPS"]),
    (ExecClass::VecStore, &["VMOVAPS_ST", "VMOVUPS_ST", "MOVAPS_ST", "MOVUPS_ST"]),
    (ExecClass::VecLoad, &["VMOVAPS_LD", "VMOVUPS_LD", "MOVAPS_LD", "MOVUPS_LD"]),
];

/// Controls how large the synthetic inventory is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InventoryConfig {
    /// Number of named variants generated per mnemonic for scalar classes.
    pub scalar_variants: usize,
    /// Number of named variants generated per mnemonic for vector classes.
    pub vector_variants: usize,
}

impl Default for InventoryConfig {
    fn default() -> Self {
        // ~ (16+7+3+2+3+10+4+4) * 4 + vector mnemonics * 3 ≈ 400 instructions.
        InventoryConfig { scalar_variants: 4, vector_variants: 3 }
    }
}

impl InventoryConfig {
    /// A small inventory (one variant per mnemonic), handy for fast tests.
    pub fn small() -> Self {
        InventoryConfig { scalar_variants: 1, vector_variants: 1 }
    }

    /// A large inventory approaching the size of the paper's supported set.
    pub fn large() -> Self {
        InventoryConfig { scalar_variants: 14, vector_variants: 10 }
    }

    fn variants_for(&self, class: ExecClass) -> usize {
        match class.extension() {
            Extension::BaseIsa => self.scalar_variants.max(1),
            Extension::Sse | Extension::Avx => self.vector_variants.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut set = InstructionSet::new();
        let a = set.push(InstDesc::new("ADD", ExecClass::IntAlu));
        let b = set.push(InstDesc::new("MULSS", ExecClass::FpMulSse));
        assert_eq!(set.len(), 2);
        assert_eq!(set.find("ADD"), Some(a));
        assert_eq!(set.find("MULSS"), Some(b));
        assert_eq!(set.find("NOPE"), None);
        assert_eq!(set.name(a), "ADD");
        assert_eq!(set[a].class, ExecClass::IntAlu);
    }

    #[test]
    #[should_panic(expected = "duplicate instruction name")]
    fn duplicate_names_panic() {
        let mut set = InstructionSet::new();
        set.push(InstDesc::new("ADD", ExecClass::IntAlu));
        set.push(InstDesc::new("ADD", ExecClass::IntMul));
    }

    #[test]
    fn synthetic_small_covers_every_class() {
        let set = InstructionSet::synthetic(&InventoryConfig::small());
        for class in ExecClass::ALL {
            assert!(
                !set.ids_with_class(class).is_empty(),
                "class {class} missing from synthetic inventory"
            );
        }
    }

    #[test]
    fn synthetic_default_is_reasonably_large() {
        let set = InstructionSet::synthetic(&InventoryConfig::default());
        assert!(set.len() >= 250, "only {} instructions", set.len());
        let large = InstructionSet::synthetic(&InventoryConfig::large());
        assert!(large.len() > set.len());
    }

    #[test]
    fn synthetic_names_are_unique() {
        let set = InstructionSet::synthetic(&InventoryConfig::large());
        let mut names = std::collections::HashSet::new();
        for (_, d) in set.iter() {
            assert!(names.insert(d.name.clone()), "duplicate {}", d.name);
        }
    }

    #[test]
    fn paper_example_has_six_instructions() {
        let set = InstructionSet::paper_example();
        assert_eq!(set.len(), 6);
        assert!(set.find("ADDSS").is_some());
        assert!(set.find("DIVPS").is_some());
    }
}
