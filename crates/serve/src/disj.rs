//! The disjunctive model family: `PALMED-DISJ v1` artifacts and their
//! compiled serving form.
//!
//! Palmed's own models are *conjunctive* (every instruction loads every
//! resource it maps to), but the baselines it is evaluated against learn
//! *disjunctive* port mappings: each instruction decomposes into µOPs, each
//! choosing one port among a set.  PMEvo re-evolves such a mapping from pair
//! benchmarks on every campaign — minutes of work whose result is a few
//! hundred `(port set, weight)` rows.  [`DisjArtifact`] persists those rows
//! once, so baselines load pre-built tables the way the real tools ship
//! published port mappings.
//!
//! * **Artifact** ([`DisjArtifact`]): machine/source provenance, the
//!   instruction inventory, and per-instruction µOP rows ([`DisjUop`]: a
//!   port *mask* over `num_ports` abstract ports plus a *weight*, the µOP
//!   multiplicity × inverse throughput).  Persisted as the length-prefixed
//!   little-endian `PALMED-DISJ v1` binary with the same strided FNV
//!   trailer and validate-pass discipline as `PALMED-MODEL v2b`
//!   (see [`crate::codec`]).
//! * **Compiled form** ([`CompiledDisjModel`]): the rows flattened into a
//!   CSR-style arena (`uop_ptr`/`masks`/`weights`).  It implements
//!   [`KernelLoad`] — the scratch vector holds one entry per non-empty
//!   subset of the abstract ports, each the subset-confined load divided by
//!   the subset width — so the execution time `max`imised by the provided
//!   combinators is exactly the optimal fractional port assignment bound,
//!   and the whole batch/registry serving plane works on disjunctive models
//!   unchanged.
//!
//! Predictions are **bit-identical** to PMEvo's own genome evaluation: the
//! hot loop accumulates per-mask loads in first-occurrence order and sums
//! subset-confined loads in that same order, reproducing
//! `PmEvoPredictor::predict_ipc` addition for addition (asserted by the
//! round-trip integration tests).

use crate::artifact::{token, ArtifactError};
use crate::codec::{
    f64_at, finish_trailer, push_f64, push_str, push_u32, u32_at, ArtifactCodec, Cursor, ModelKind,
    DISJ_MAGIC,
};
use crate::compiled::{KernelLoad, LOAD_SCRATCH};
use palmed_core::ThroughputPredictor;
use palmed_isa::{InstId, InstructionSet, Microkernel};
use std::cell::RefCell;
use std::path::Path;

/// Most abstract ports a disjunctive artifact may use.  The compiled form's
/// scratch enumerates every non-empty port subset, so the cap bounds the
/// scratch at `2^16 - 1` entries; real machines and PMEvo configurations use
/// 6–10 ports.
pub const MAX_DISJ_PORTS: u32 = 16;

/// One µOP hypothesis of a disjunctive row: the ports it may execute on and
/// its weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisjUop {
    /// Bit mask over the model's abstract ports (non-zero, below
    /// `1 << num_ports`).
    pub mask: u32,
    /// Occupancy one instruction adds on the chosen port: µOP multiplicity ×
    /// inverse throughput.  Finite and positive.
    pub weight: f64,
}

/// A persistable disjunctive port mapping: provenance, instruction set and
/// per-instruction µOP rows.
///
/// The disjunctive counterpart of [`ModelArtifact`](crate::ModelArtifact);
/// see the module docs for the `PALMED-DISJ v1` layout.
#[derive(Debug, Clone, PartialEq)]
pub struct DisjArtifact {
    /// Architecture / machine preset this model serves.
    pub machine: String,
    /// Name of the originating trainer or machine description (provenance).
    pub source: String,
    /// The instruction inventory the rows' [`InstId`]s index into.
    pub instructions: InstructionSet,
    num_ports: u32,
    /// Sorted by instruction, each row non-empty.
    rows: Vec<(InstId, Vec<DisjUop>)>,
}

impl DisjArtifact {
    /// Bundles disjunctive rows with their instruction set and provenance.
    /// Rows may arrive in any order; they are sorted by instruction.
    ///
    /// # Panics
    ///
    /// Panics if `num_ports` is outside `1..=`[`MAX_DISJ_PORTS`], a row
    /// references an instruction outside the set or appears twice, a row is
    /// empty, a mask is zero or uses ports beyond `num_ports`, or a weight
    /// is not finite and positive — an artifact must stay self-describing
    /// and loadable.
    pub fn new(
        machine: impl Into<String>,
        source: impl Into<String>,
        instructions: InstructionSet,
        num_ports: u32,
        rows: Vec<(InstId, Vec<(u32, f64)>)>,
    ) -> Self {
        assert!(
            (1..=MAX_DISJ_PORTS).contains(&num_ports),
            "num_ports must be in 1..={MAX_DISJ_PORTS}, got {num_ports}"
        );
        let mut rows: Vec<(InstId, Vec<DisjUop>)> = rows
            .into_iter()
            .map(|(inst, uops)| {
                assert!(
                    inst.index() < instructions.len(),
                    "row references {inst} but the instruction set has {} entries",
                    instructions.len()
                );
                assert!(!uops.is_empty(), "row for {inst} has no µOPs");
                let uops = uops
                    .into_iter()
                    .map(|(mask, weight)| {
                        assert!(
                            mask != 0 && mask < (1 << num_ports),
                            "µOP mask {mask:#b} of {inst} is empty or exceeds {num_ports} ports"
                        );
                        assert!(
                            weight.is_finite() && weight > 0.0,
                            "µOP weight {weight} of {inst} is not finite and positive"
                        );
                        DisjUop { mask, weight }
                    })
                    .collect();
                (inst, uops)
            })
            .collect();
        rows.sort_by_key(|(inst, _)| *inst);
        for pair in rows.windows(2) {
            assert!(pair[0].0 != pair[1].0, "duplicate row for instruction {}", pair[0].0);
        }
        DisjArtifact {
            machine: machine.into(),
            source: source.into(),
            instructions,
            num_ports,
            rows,
        }
    }

    /// Number of abstract ports the masks range over.
    pub fn num_ports(&self) -> u32 {
        self.num_ports
    }

    /// The per-instruction µOP rows, sorted by instruction.
    pub fn rows(&self) -> &[(InstId, Vec<DisjUop>)] {
        &self.rows
    }

    /// The µOP row of one instruction, if trained.
    pub fn row(&self, inst: InstId) -> Option<&[DisjUop]> {
        self.rows.binary_search_by_key(&inst, |(i, _)| *i).ok().map(|at| self.rows[at].1.as_slice())
    }

    /// Number of trained instructions.
    pub fn num_instructions(&self) -> usize {
        self.rows.len()
    }

    /// The rows in the plain `(instruction, [(mask, weight)])` form the
    /// trainers and machine descriptions exchange.
    pub fn to_rows(&self) -> Vec<(InstId, Vec<(u32, f64)>)> {
        self.rows
            .iter()
            .map(|(inst, uops)| (*inst, uops.iter().map(|u| (u.mask, u.weight)).collect()))
            .collect()
    }

    /// Flattens the rows into the compiled serving form, named after the
    /// machine.
    pub fn compile(&self) -> CompiledDisjModel {
        let slots = self.rows.last().map_or(0, |(inst, _)| inst.index() + 1);
        let mut uop_ptr = Vec::with_capacity(slots + 1);
        let mut masks = Vec::new();
        let mut weights = Vec::new();
        uop_ptr.push(0u32);
        let mut next_row = self.rows.iter().peekable();
        for slot in 0..slots {
            if let Some((inst, uops)) = next_row.peek() {
                if inst.index() == slot {
                    for u in uops.iter() {
                        masks.push(u.mask);
                        weights.push(u.weight);
                    }
                    next_row.next();
                }
            }
            uop_ptr.push(masks.len() as u32);
        }
        CompiledDisjModel {
            name: token(&self.machine),
            num_ports: self.num_ports,
            uop_ptr,
            masks,
            weights,
        }
    }

    /// Serialises the artifact in the binary `PALMED-DISJ v1` format,
    /// checksum trailer included.
    pub fn render(&self) -> Vec<u8> {
        DisjCodec::encode(self)
    }

    /// Parses and verifies a `PALMED-DISJ v1` artifact.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError`] on any layout violation, truncation or
    /// checksum mismatch ([`ArtifactError::WrongKind`] when the buffer is a
    /// conjunctive artifact); never panics on untrusted input.
    pub fn parse(bytes: &[u8]) -> Result<Self, ArtifactError> {
        match ModelKind::sniff(bytes) {
            ModelKind::DisjunctiveV1 => DisjCodec::decode(bytes),
            found => Err(ArtifactError::WrongKind { expected: DisjCodec::KIND, found }),
        }
    }

    /// Saves the rendered artifact to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path, self.render())?;
        Ok(())
    }

    /// Loads and verifies an artifact from a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and every [`DisjArtifact::parse`]
    /// failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        Self::parse(&std::fs::read(path)?)
    }

    /// The artifact's determinism fingerprint (see
    /// [`model_fingerprint`](crate::fingerprint::model_fingerprint)),
    /// computed from the compiled model's predictions on the pinned probe
    /// corpus over this instruction set.
    pub fn fingerprint(&self) -> u64 {
        use crate::compiled::KernelLoad;
        self.compile().fingerprint(self.instructions.len())
    }
}

/// The `PALMED-DISJ v1` codec, as the registry's sniff table sees it.
pub(crate) struct DisjCodec;

impl ArtifactCodec for DisjCodec {
    const KIND: ModelKind = ModelKind::DisjunctiveV1;
    const MAGIC: &'static [u8] = DISJ_MAGIC;
    type Artifact = DisjArtifact;

    fn encode(artifact: &DisjArtifact) -> Vec<u8> {
        encode(artifact)
    }

    fn decode(bytes: &[u8]) -> Result<DisjArtifact, ArtifactError> {
        decode(bytes)
    }
}

/// Layout (all integers little-endian):
///
/// ```text
/// magic         "PALMED-DISJ v1\n"                        15 bytes
/// machine       u32 len + UTF-8 bytes
/// source        u32 len + UTF-8 bytes
/// num_ports     u32, 1..=16
/// instructions  u32 n; n × { u32 len + name, u8 class, u8 extension }
/// row slots     u32 s (last trained instruction index + 1)
/// uop_ptr       (s + 1) × u32, monotone, ending at total; last slot trained
/// total         u32
/// masks         total × u32, non-zero, < 2^num_ports
/// weights       total × u64 (f64 bits), finite and > 0
/// checksum      u64, FNV-1a 64 over 8-byte LE words of all preceding bytes
/// ```
fn encode(artifact: &DisjArtifact) -> Vec<u8> {
    let compiled = artifact.compile();
    let mut out = Vec::with_capacity(64 + 16 * compiled.masks.len());
    out.extend_from_slice(DISJ_MAGIC);
    push_str(&mut out, &token(&artifact.machine));
    push_str(&mut out, &token(&artifact.source));
    push_u32(&mut out, artifact.num_ports);

    crate::codec::write_instruction_table(&mut out, &artifact.instructions);

    push_u32(&mut out, (compiled.uop_ptr.len() - 1) as u32);
    for &p in &compiled.uop_ptr {
        push_u32(&mut out, p);
    }
    push_u32(&mut out, compiled.masks.len() as u32);
    for &m in &compiled.masks {
        push_u32(&mut out, m);
    }
    for &w in &compiled.weights {
        push_f64(&mut out, w);
    }

    finish_trailer(out)
}

fn decode(bytes: &[u8]) -> Result<DisjArtifact, ArtifactError> {
    let body = crate::codec::verify_for::<DisjCodec>(bytes)?;

    let mut cur = Cursor::after_magic(body, DISJ_MAGIC);
    let machine = cur.token("machine name")?.to_string();
    let source = cur.token("source name")?.to_string();
    let num_ports = cur.u32("port count")?;
    if !(1..=MAX_DISJ_PORTS).contains(&num_ports) {
        return Err(cur.bad(format!("port count {num_ports} outside 1..={MAX_DISJ_PORTS}")));
    }

    // Instruction inventory — the identical shared section of the v2b
    // validator.
    let instructions = crate::codec::read_instruction_table(&mut cur)?;
    let n_insts = instructions.len();

    // µOP arrays: lengths validated against the remaining byte budget by the
    // cursor before anything is read past.
    let slots = cur.u32("row slot count")? as usize;
    if slots > n_insts {
        return Err(cur.bad(format!("{slots} row slots exceed {n_insts} instructions")));
    }
    let (uop_ptr, total) =
        crate::codec::read_csr_ptr(&mut cur, bytes, slots, "uop_ptr", "µOP count")?;
    if slots > 0 && u32_at(bytes, &uop_ptr, slots - 1) as usize == total {
        return Err(cur.bad("last row slot is untrained (slot table is not minimal)"));
    }
    let masks_len =
        total.checked_mul(4).ok_or_else(|| cur.bad("mask count overflows".to_string()))?;
    let masks = cur.take_range(masks_len, "masks")?;
    let weights_len =
        total.checked_mul(8).ok_or_else(|| cur.bad("weight count overflows".to_string()))?;
    let weights = cur.take_range(weights_len, "weights")?;
    if !cur.done() {
        return Err(cur.bad("trailing bytes after the µOP arrays"));
    }
    for i in 0..total {
        let mask = u32_at(bytes, &masks, i);
        if mask == 0 || mask >= (1 << num_ports) {
            return Err(
                cur.bad(format!("µOP mask {mask:#b} is empty or exceeds {num_ports} ports"))
            );
        }
        let weight = f64_at(bytes, &weights, i);
        if !weight.is_finite() || weight <= 0.0 {
            return Err(cur.bad(format!("µOP weight {weight} is not finite and positive")));
        }
    }

    // Materialise the rows (disjunctive models are small; no deferred form).
    let mut rows: Vec<(InstId, Vec<DisjUop>)> = Vec::with_capacity(slots.min(1 << 16));
    for slot in 0..slots {
        let (start, end) =
            (u32_at(bytes, &uop_ptr, slot) as usize, u32_at(bytes, &uop_ptr, slot + 1) as usize);
        if start == end {
            continue;
        }
        let uops = (start..end)
            .map(|e| DisjUop { mask: u32_at(bytes, &masks, e), weight: f64_at(bytes, &weights, e) })
            .collect();
        rows.push((InstId(slot as u32), uops));
    }
    Ok(DisjArtifact { machine, source, instructions, num_ports, rows })
}

thread_local! {
    /// Reusable per-mask load accumulator for [`CompiledDisjModel::load_into`]
    /// (the fixed-size `scratch` holds per-subset results; the distinct-mask
    /// list is workload-dependent and tiny).
    static MASK_LOADS: RefCell<Vec<(u32, f64)>> = const { RefCell::new(Vec::new()) };
}

/// A disjunctive mapping flattened for serving: per-instruction µOP rows in
/// a CSR-style arena, predicting through the optimal fractional
/// port-assignment bound.
///
/// Implements [`KernelLoad`]: the scratch vector holds one entry per
/// non-empty subset of the abstract ports — the subset-confined load divided
/// by the subset width — so
/// [`execution_time_with`](KernelLoad::execution_time_with) (the scratch
/// maximum) is the disjunctive execution-time bound and every provided
/// combinator ([`ipc_with`](KernelLoad::ipc_with),
/// [`bottleneck_with`](KernelLoad::bottleneck_with)) works unchanged.  The
/// "resource" index space is the port subsets: `ResourceId(i)` is subset
/// mask `i + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledDisjModel {
    name: String,
    num_ports: u32,
    /// CSR row boundaries, one entry per instruction slot plus a sentinel.
    uop_ptr: Vec<u32>,
    /// Port mask of every µOP entry.
    masks: Vec<u32>,
    /// Weight (multiplicity × inverse throughput) of every µOP entry.
    weights: Vec<f64>,
}

impl CompiledDisjModel {
    /// Number of abstract ports.
    pub fn num_ports(&self) -> u32 {
        self.num_ports
    }

    /// Number of trained instructions.
    pub fn num_instructions(&self) -> usize {
        self.uop_ptr.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Number of µOP entries across all rows.
    pub fn num_uops(&self) -> usize {
        self.masks.len()
    }
}

impl KernelLoad for CompiledDisjModel {
    fn num_resources(&self) -> usize {
        (1usize << self.num_ports) - 1
    }

    /// Writes the per-subset load bound of one kernel iteration into
    /// `scratch`.
    ///
    /// Phase 1 accumulates per-mask loads in first-occurrence order — the
    /// exact accumulation PMEvo's genome evaluation performs, so predictions
    /// stay bit-identical to the trainer.  Phase 2 sweeps every non-empty
    /// port subset, summing the loads confined to it (in that same
    /// first-occurrence order) and dividing by the subset width.
    fn load_into(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) {
        scratch.clear();
        scratch.resize(self.num_resources(), 0.0);
        MASK_LOADS.with_borrow_mut(|loads| {
            loads.clear();
            for &(inst, count) in kernel.as_slice() {
                let index = inst.index();
                if index + 1 >= self.uop_ptr.len() {
                    continue;
                }
                let (start, end) = (self.uop_ptr[index] as usize, self.uop_ptr[index + 1] as usize);
                let count = count as f64;
                for e in start..end {
                    let mask = self.masks[e];
                    let load = count * self.weights[e];
                    match loads.iter_mut().find(|(m, _)| *m == mask) {
                        Some((_, l)) => *l += load,
                        None => loads.push((mask, load)),
                    }
                }
            }
            for subset in 1u32..(1u32 << self.num_ports) {
                let confined: f64 =
                    loads.iter().filter(|(m, _)| m & !subset == 0).map(|&(_, l)| l).sum();
                scratch[(subset - 1) as usize] =
                    if confined > 0.0 { confined / subset.count_ones() as f64 } else { 0.0 };
            }
        });
    }
}

impl ThroughputPredictor for CompiledDisjModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, inst: InstId) -> bool {
        let index = inst.index();
        index + 1 < self.uop_ptr.len() && self.uop_ptr[index] != self.uop_ptr[index + 1]
    }

    /// Trait-object entry point, backed by the shared thread-local scratch
    /// buffer so it stays allocation-free per call.
    fn predict_ipc(&self, kernel: &Microkernel) -> Option<f64> {
        LOAD_SCRATCH.with_borrow_mut(|scratch| self.ipc_with(kernel, scratch))
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// A small disjunctive artifact shared by this module's and the
    /// registry's tests: three instructions over three abstract ports.
    pub(crate) fn example() -> DisjArtifact {
        let instructions = InstructionSet::paper_example();
        DisjArtifact::new(
            "skl-disj",
            "pmevo-test",
            instructions,
            3,
            vec![
                (InstId(0), vec![(0b001, 1.0), (0b110, 2.0)]),
                (InstId(2), vec![(0b011, 1.0)]),
                (InstId(3), vec![(0b111, 3.0)]),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::example;
    use super::*;

    #[test]
    fn render_parse_round_trip_is_exact() {
        let artifact = example();
        let bytes = artifact.render();
        let reloaded = DisjArtifact::parse(&bytes).unwrap();
        assert_eq!(reloaded, artifact);
        assert_eq!(reloaded.render(), bytes);
        assert_eq!(reloaded.num_ports(), 3);
        assert_eq!(reloaded.num_instructions(), 3);
        assert_eq!(reloaded.to_rows(), artifact.to_rows());
    }

    #[test]
    fn compiled_form_predicts_the_subset_bound() {
        let artifact = example();
        let model = artifact.compile();
        assert_eq!(model.num_resources(), 7);
        assert_eq!(model.num_instructions(), 3);
        assert_eq!(model.num_uops(), 4);
        assert!(model.supports(InstId(0)));
        assert!(!model.supports(InstId(1)));
        assert!(!model.supports(InstId(99)));

        // One instruction confined to port 0 with weight 1: t = 1, ipc = 1.
        let mut scratch = model.scratch();
        let k = Microkernel::single(InstId(2)); // mask 0b011, weight 1
                                                // Subset {0,1} carries load 1 over 2 ports; singletons carry none.
        let t = model.execution_time_with(&k, &mut scratch);
        assert!((t - 0.5).abs() < 1e-12, "t = {t}");
        let ipc = model.ipc_with(&k, &mut scratch).unwrap();
        assert!((ipc - 2.0).abs() < 1e-12, "ipc = {ipc}");

        // Unsupported-only kernels predict None.
        assert_eq!(model.predict_ipc(&Microkernel::single(InstId(1))), None);
    }

    #[test]
    fn round_tripped_model_predicts_bit_identically() {
        let artifact = example();
        let reloaded = DisjArtifact::parse(&artifact.render()).unwrap();
        let (fresh, loaded) = (artifact.compile(), reloaded.compile());
        let mut s1 = fresh.scratch();
        let mut s2 = loaded.scratch();
        for k in [
            Microkernel::single(InstId(0)),
            Microkernel::pair(InstId(0), 3, InstId(2), 2),
            Microkernel::pair(InstId(2), 1, InstId(3), 5),
            Microkernel::single(InstId(1)),
        ] {
            assert_eq!(
                fresh.ipc_with(&k, &mut s1).map(f64::to_bits),
                loaded.ipc_with(&k, &mut s2).map(f64::to_bits),
                "kernel {k}"
            );
        }
    }

    #[test]
    fn corruption_truncation_and_wrong_kind_are_rejected() {
        let bytes = example().render();
        for cut in 0..bytes.len() {
            assert!(DisjArtifact::parse(&bytes[..cut]).is_err(), "truncation at {cut} parsed");
        }
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x08;
        assert!(DisjArtifact::parse(&corrupt).is_err());
        // A conjunctive buffer is a kind error, not a parse error.
        let conj = crate::artifact::tests_support::example().render_v2();
        match DisjArtifact::parse(&conj) {
            Err(ArtifactError::WrongKind { expected, found }) => {
                assert_eq!(expected, ModelKind::DisjunctiveV1);
                assert_eq!(found, ModelKind::ConjunctiveV2b);
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
    }

    #[test]
    fn crafted_structural_violations_are_rejected() {
        // Rehash after each mutation: the trailer is integrity, not
        // authentication, so structural checks must hold on their own.
        let valid = example().render();
        let body = &valid[..valid.len() - 8];
        let rehash = |b: &[u8]| finish_trailer(b.to_vec());
        // Port count beyond the cap.
        let mut huge_ports = body.to_vec();
        let at = DISJ_MAGIC.len() + 4 + "skl-disj".len() + 4 + "pmevo-test".len();
        huge_ports[at..at + 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(
            DisjArtifact::parse(&rehash(&huge_ports)),
            Err(ArtifactError::MalformedBinary { .. })
        ));
        // Truncated body with a fresh checksum.
        assert!(matches!(
            DisjArtifact::parse(&rehash(&body[..body.len() - 4])),
            Err(ArtifactError::MalformedBinary { .. })
        ));
        // Trailing garbage.
        let mut padded = body.to_vec();
        padded.extend_from_slice(&[0u8; 2]);
        assert!(matches!(
            DisjArtifact::parse(&rehash(&padded)),
            Err(ArtifactError::MalformedBinary { .. })
        ));
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let artifact = example();
        let path = std::env::temp_dir().join("palmed-serve-disj-test.palmeddisj");
        artifact.save(&path).unwrap();
        let loaded = DisjArtifact::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, artifact);
    }

    #[test]
    #[should_panic(expected = "row references")]
    fn artifact_requires_a_covering_instruction_set() {
        DisjArtifact::new(
            "m",
            "s",
            InstructionSet::paper_example(),
            3,
            vec![(InstId(99), vec![(0b1, 1.0)])],
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn artifact_rejects_masks_beyond_the_port_count() {
        DisjArtifact::new(
            "m",
            "s",
            InstructionSet::paper_example(),
            2,
            vec![(InstId(0), vec![(0b100, 1.0)])],
        );
    }
}
