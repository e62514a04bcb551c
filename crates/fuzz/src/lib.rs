//! Structure-aware mutational fuzzing of the serving plane's codecs.
//!
//! The `palmed-serve` decoders accept untrusted bytes and promise three
//! invariants (see the crate's "Threat model" docs):
//!
//! 1. **No panics.**  Every decoder entry point returns on every input.
//! 2. **Structured rejection.**  A rejected buffer yields an
//!    [`ArtifactError`] whose rendering is diagnosable — binary layout
//!    violations carry the byte offset ([`ArtifactError::offset`]), text
//!    violations a line number.
//! 3. **Canonical accept.**  An accepted buffer re-encodes bit-identically
//!    (binary formats are canonical) or reaches a one-step fixed point
//!    (text formats, whose comments/whitespace are not preserved), and the
//!    served v2b load ([`ServedModel::from_v2b`]) agrees with the eager
//!    decoder — accept/reject, [fingerprint](palmed_serve::model_fingerprint)
//!    and the artifact it hands back alike.
//!
//! This crate checks those invariants the way an attacker would probe them:
//! each case starts from a **valid** artifact (all four formats — v1 text,
//! v2b binary, `PALMED-DISJ v1`, corpus), applies 1–3 *format-aware*
//! mutations — length-prefix and count-field perturbation, slot-table
//! shuffles, CSR pointer permutation, section splices, truncation,
//! extension, trailer re-hash after body edits — and feeds the result to
//! **every** decoder entry point ([`ModelArtifact::parse_bytes`],
//! [`ServedModel::from_v2b`], [`DisjArtifact::parse`], [`Corpus::parse`],
//! [`migrate_v1_to_v2b`]), not just the format's own.  Everything is
//! deterministic: case `n` replays the same bytes forever (the RNG is the
//! vendored proptest engine's), so any finding becomes a regression test by
//! pinning `(format, case)` — see `tests/tests/codec_mutations.rs`, or
//! re-run one case verbosely with `fuzz_codecs --replay <format>:<case>`.
//!
//! Beyond the uniform round-robin scheduler ([`run_many`]) the crate
//! provides:
//!
//! * [`guided`] — coverage-guided scheduling: a seed queue of "interesting"
//!   mutants (first-seen rejection class, first-seen offset bucket, top
//!   decile of case times), mutation energy biased toward rare rejection
//!   classes, and automatic minimization of violating cases.
//! * [`fault`] — [`FaultyIo`](fault::FaultyIo), a deterministic in-memory
//!   [`ArtifactIo`](palmed_serve::ArtifactIo) that injects short reads,
//!   transient stat/read errors, torn mid-write snapshots and mtime
//!   flapping on a scripted schedule.
//! * [`registry_fuzz`] — whole refresh-loop schedules driven through
//!   [`FaultyIo`](fault::FaultyIo), asserting after every step that the
//!   last good generation keeps serving bit-identically, nothing panics,
//!   and the refresh accounting identity holds (`fuzz_registry` bin).
//! * [`wire_fuzz`] — whole schedules of one or several connections driven
//!   through [`FaultyConn`](conn_fault::FaultyConn)s and served in shared
//!   batcher rounds, asserting after every round that the wire plane sheds
//!   exactly, rejects structurally, isolates poison, serves
//!   bit-identically to the in-process predictor and always drains, plus a
//!   coverage-guided fuzz of the frame decoder itself (`fuzz_wire` bin).
//!
//! Run the bounded CI smokes with `cargo run -p palmed-fuzz --bin
//! fuzz_codecs -- --iters 10000`, `cargo run -p palmed-fuzz --bin
//! fuzz_registry -- --schedules 1000` and `cargo run -p palmed-fuzz --bin
//! fuzz_wire -- --schedules 500`.

use palmed_core::ConjunctiveMapping;
use palmed_isa::{InstId, InstructionSet, InventoryConfig, Microkernel};
use palmed_serve::checksum::{fnv1a64, fnv1a64_words};
use palmed_serve::{
    migrate_v1_to_v2b, ArtifactError, Corpus, DisjArtifact, KernelLoad, ModelArtifact, ModelKind,
    ServedModel,
};
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub mod conn_fault;
pub mod fault;
pub mod guided;
pub mod registry_fuzz;
pub mod wire_fuzz;

/// Magic prefixes of the binary formats, mirrored here (they are crate
/// private in `palmed-serve`; the fuzzer needs them to re-hash trailers).
const V2B_MAGIC: &[u8] = b"PALMED-MODEL v2b\n";
const DISJ_MAGIC: &[u8] = b"PALMED-DISJ v1\n";

/// The four artifact formats under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `PALMED-MODEL v1` text.
    ModelV1,
    /// `PALMED-MODEL v2b` binary.
    ModelV2b,
    /// `PALMED-DISJ v1` binary.
    Disj,
    /// `PALMED-CORPUS v1` text.
    Corpus,
}

impl Format {
    /// All formats, in round-robin order.
    pub const ALL: [Format; 4] = [Format::ModelV1, Format::ModelV2b, Format::Disj, Format::Corpus];

    /// Parses the [`fmt::Display`] name back (`--replay model-v2b:123`).
    pub fn from_name(name: &str) -> Option<Format> {
        Format::ALL.into_iter().find(|f| f.to_string() == name)
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Format::ModelV1 => f.write_str("model-v1"),
            Format::ModelV2b => f.write_str("model-v2b"),
            Format::Disj => f.write_str("disj"),
            Format::Corpus => f.write_str("corpus"),
        }
    }
}

/// An invariant violation found by the fuzzer — always a bug in a codec,
/// never an "interesting input".
#[derive(Debug, Clone)]
pub struct Violation {
    /// The format the seed was generated in.
    pub format: Format,
    /// The deterministic case number; replaying `run_case(format, case)`
    /// reproduces the exact bytes.
    pub case: u32,
    /// The mutation trail applied to the valid seed.
    pub mutations: Vec<String>,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} case {}] {} (mutations: {})",
            self.format,
            self.case,
            self.detail,
            self.mutations.join(", ")
        )
    }
}

/// One structured rejection, as a coverage observation: which entry point
/// rejected, with what [`ArtifactError::class`] label, at what byte offset.
#[derive(Debug, Clone)]
pub struct RejectionRecord {
    /// The decoder entry point that rejected (`parse_bytes`, `view`,
    /// `disj`, `migrate`, `corpus`).
    pub entry: &'static str,
    /// The rejection-class label ([`ArtifactError::class`]).
    pub class: &'static str,
    /// The byte offset, when the rejection carried one
    /// ([`ArtifactError::offset`]).
    pub offset: Option<usize>,
    /// The rendered error.
    pub message: String,
}

/// Collapses a rejection offset into the coverage bucket the guided
/// scheduler keys on: fine-grained (4-byte buckets) below 64, logarithmic
/// above — deep-layout rejections at ever-larger offsets keep opening new
/// buckets, which is exactly the headroom coverage-guided scheduling
/// exploits.  `None` (no offset) is its own bucket.
pub fn offset_bucket(offset: Option<usize>) -> u32 {
    match offset {
        None => u32::MAX,
        Some(at) if at < 64 => (at / 4) as u32,
        Some(at) => 16 + (usize::BITS - 1 - at.leading_zeros()),
    }
}

/// The coverage key of one rejection: `(class, offset bucket)`.
pub fn coverage_key(record: &RejectionRecord) -> (&'static str, u32) {
    (record.class, offset_bucket(record.offset))
}

/// What one fuzz case observed across all decoder entry points.
#[derive(Debug, Default)]
pub struct CaseOutcome {
    /// Entry-point runs that accepted their input.
    pub accepted: u32,
    /// Entry-point runs that rejected their input with a structured error.
    pub rejected: u32,
    /// Rejections whose [`ArtifactError::offset`] carried a byte offset.
    pub rejections_with_offset: u32,
    /// Entry points that accepted, by name (replay verbosity).
    pub accepts: Vec<&'static str>,
    /// Every structured rejection, as a coverage observation.
    pub rejections: Vec<RejectionRecord>,
    /// Invariant violations (empty on a healthy codec).
    pub violations: Vec<Violation>,
}

/// One entry of the slowest-case report: replay with
/// `run_case(format, case)`.
#[derive(Debug, Clone, Copy)]
pub struct SlowCase {
    /// The format the case was generated in.
    pub format: Format,
    /// The deterministic case number.
    pub case: u32,
    /// Wall time of the case in nanoseconds.
    pub ns: u64,
}

/// How many slowest cases [`FuzzSummary`] retains.
pub const SLOWEST_KEPT: usize = 5;

/// Aggregated result of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Cases executed.
    pub cases: u32,
    /// Total accepting entry-point runs.
    pub accepted: u64,
    /// Total structured rejections.
    pub rejected: u64,
    /// Rejections carrying a byte offset.
    pub rejections_with_offset: u64,
    /// Every violation found.
    pub violations: Vec<Violation>,
    /// The [`SLOWEST_KEPT`] slowest cases, slowest first — the seed of the
    /// coverage/profile-guided scheduling signal.
    pub slowest: Vec<SlowCase>,
    /// Distinct `(rejection class, offset bucket)` pairs observed — the
    /// coverage measure the guided scheduler competes with the uniform one
    /// on (see [`guided::run_guided`]).
    pub coverage: BTreeSet<(&'static str, u32)>,
}

impl FuzzSummary {
    fn absorb(&mut self, outcome: CaseOutcome) {
        self.cases += 1;
        self.accepted += u64::from(outcome.accepted);
        self.rejected += u64::from(outcome.rejected);
        self.rejections_with_offset += u64::from(outcome.rejections_with_offset);
        for record in &outcome.rejections {
            self.coverage.insert(coverage_key(record));
        }
        self.violations.extend(outcome.violations);
    }

    fn note_case_time(&mut self, format: Format, case: u32, ns: u64) {
        self.slowest.push(SlowCase { format, case, ns });
        self.slowest.sort_by_key(|case| std::cmp::Reverse(case.ns));
        self.slowest.truncate(SLOWEST_KEPT);
    }
}

impl fmt::Display for FuzzSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cases: {} accepts, {} structured rejections ({} with byte offset), \
             {} coverage pairs, {} violations",
            self.cases,
            self.accepted,
            self.rejected,
            self.rejections_with_offset,
            self.coverage.len(),
            self.violations.len()
        )
    }
}

/// The fixed instruction inventory every seed draws from (the same one the
/// integration property tests use).
pub fn inventory() -> InstructionSet {
    InstructionSet::synthetic(&InventoryConfig::small())
}

// ---------------------------------------------------------------------------
// Seed generation: one *valid* artifact per case.
// ---------------------------------------------------------------------------

fn seed_model(insts: &InstructionSet, rng: &mut TestRng) -> ModelArtifact {
    let num_resources = rng.usize_in(1, 6);
    let mut mapping = ConjunctiveMapping::with_resources(num_resources);
    for _ in 0..rng.usize_in(1, 10) {
        let inst = InstId(rng.usize_in(0, insts.len() - 1) as u32);
        let usage: Vec<f64> = (0..num_resources)
            .map(|_| if rng.next_f64() < 0.5 { 0.0 } else { 0.25 + rng.next_f64() })
            .collect();
        mapping.set_usage(inst, usage);
    }
    ModelArtifact::new("fuzz-machine", "fuzz-seed", insts.clone(), mapping)
}

fn seed_disj(insts: &InstructionSet, rng: &mut TestRng) -> DisjArtifact {
    let num_ports = rng.usize_in(1, 4) as u32;
    let mut chosen = std::collections::BTreeSet::new();
    for _ in 0..rng.usize_in(1, 8) {
        chosen.insert(rng.usize_in(0, insts.len() - 1) as u32);
    }
    let rows = chosen
        .into_iter()
        .map(|inst| {
            let uops = (0..rng.usize_in(1, 3))
                .map(|_| {
                    let mask = rng.usize_in(1, (1usize << num_ports) - 1) as u32;
                    (mask, 0.25 + rng.next_f64())
                })
                .collect();
            (InstId(inst), uops)
        })
        .collect();
    DisjArtifact::new("fuzz-disj", "fuzz-seed", insts.clone(), num_ports, rows)
}

fn seed_corpus(insts: &InstructionSet, rng: &mut TestRng) -> Corpus {
    let mut corpus = Corpus::new();
    for b in 0..rng.usize_in(1, 8) {
        let mut kernel = Microkernel::new();
        for _ in 0..rng.usize_in(1, 4) {
            let inst = InstId(rng.usize_in(0, insts.len() - 1) as u32);
            kernel.add(inst, rng.usize_in(1, 7) as u32);
        }
        let weight = rng.usize_in(0, 100) as f64 / 4.0;
        corpus.push(format!("b{b}"), weight, kernel);
    }
    corpus
}

/// Renders the valid seed artifact for `(format, rng)`.
fn seed_bytes(format: Format, insts: &InstructionSet, rng: &mut TestRng) -> Vec<u8> {
    match format {
        Format::ModelV1 => seed_model(insts, rng).render().into_bytes(),
        Format::ModelV2b => seed_model(insts, rng).render_v2(),
        Format::Disj => seed_disj(insts, rng).render(),
        Format::Corpus => seed_corpus(insts, rng).render(insts).into_bytes(),
    }
}

// ---------------------------------------------------------------------------
// Structure-aware mutation.
// ---------------------------------------------------------------------------

/// Byte-level map of a valid binary seed: where the untrusted numbers live.
/// Computed by re-walking the documented layout of the *valid* seed, so
/// mutations can aim at count fields, flag tables and pointer arrays
/// instead of flipping blind.
struct BinLayout {
    /// Length the walk was computed against; structure-aware mutations only
    /// apply while the buffer still has this length.
    len: usize,
    magic_len: usize,
    /// Offsets of `u32` count / length-prefix fields.
    counts: Vec<usize>,
    /// The v2b per-slot `mapped` flag table.
    flags: Option<Range<usize>>,
    /// The CSR pointer array (v2b `row_ptr` / disj `uop_ptr`).
    ptrs: Option<Range<usize>>,
}

/// Bounds-checked little-endian `u32` read used by the layout walkers.
fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

/// Walks a *valid* v2b buffer (see the serve crate docs for the layout).
fn walk_v2b(bytes: &[u8]) -> Option<BinLayout> {
    let mut counts = Vec::new();
    let mut pos = V2B_MAGIC.len();
    for _ in 0..2 {
        // machine, source strings
        counts.push(pos);
        pos += 4 + u32_at(bytes, pos)? as usize;
    }
    counts.push(pos); // instruction count
    let n = u32_at(bytes, pos)? as usize;
    pos += 4;
    for _ in 0..n {
        counts.push(pos);
        pos += 4 + u32_at(bytes, pos)? as usize + 2;
    }
    counts.push(pos); // resource count
    let m = u32_at(bytes, pos)? as usize;
    pos += 4;
    for _ in 0..m {
        counts.push(pos);
        pos += 4 + u32_at(bytes, pos)? as usize;
    }
    counts.push(pos); // slots
    let slots = u32_at(bytes, pos)? as usize;
    pos += 4;
    let flags = pos..pos + slots;
    pos += slots;
    let ptrs = pos..pos + 4 * (slots + 1);
    pos += 4 * (slots + 1);
    counts.push(pos); // nnz
    let nnz = u32_at(bytes, pos)? as usize;
    pos += 4 + 4 * nnz + 8 * nnz;
    (pos + 8 == bytes.len()).then_some(BinLayout {
        len: bytes.len(),
        magic_len: V2B_MAGIC.len(),
        counts,
        flags: Some(flags),
        ptrs: Some(ptrs),
    })
}

/// Walks a *valid* `PALMED-DISJ v1` buffer (see `palmed_serve::disj`).
fn walk_disj(bytes: &[u8]) -> Option<BinLayout> {
    let mut counts = Vec::new();
    let mut pos = DISJ_MAGIC.len();
    for _ in 0..2 {
        counts.push(pos);
        pos += 4 + u32_at(bytes, pos)? as usize;
    }
    counts.push(pos); // num_ports
    pos += 4;
    counts.push(pos); // instruction count
    let n = u32_at(bytes, pos)? as usize;
    pos += 4;
    for _ in 0..n {
        counts.push(pos);
        pos += 4 + u32_at(bytes, pos)? as usize + 2;
    }
    counts.push(pos); // slots
    let slots = u32_at(bytes, pos)? as usize;
    pos += 4;
    let ptrs = pos..pos + 4 * (slots + 1);
    pos += 4 * (slots + 1);
    counts.push(pos); // total µOPs
    let total = u32_at(bytes, pos)? as usize;
    pos += 4 + 4 * total + 8 * total;
    (pos + 8 == bytes.len()).then_some(BinLayout {
        len: bytes.len(),
        magic_len: DISJ_MAGIC.len(),
        counts,
        flags: None,
        ptrs: Some(ptrs),
    })
}

/// Recomputes the strided-word FNV trailer after a body edit, so structural
/// mutations are tested against the validators instead of bouncing off the
/// checksum.
fn rehash_binary(bytes: &mut [u8]) {
    let n = bytes.len();
    if n >= 8 {
        let checksum = fnv1a64_words(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&checksum.to_le_bytes());
    }
}

/// Recomputes (or appends) the v1 text `checksum` line over the body.
fn rehash_v1(text: &str) -> String {
    let body = match text.rfind("checksum ") {
        Some(at) if at == 0 || text.as_bytes()[at - 1] == b'\n' => &text[..at],
        _ => text,
    };
    format!("{body}checksum {:016x}\n", fnv1a64(body.as_bytes()))
}

/// The menu a count-field perturbation draws its replacement from.
fn perturbed_count(orig: u32, rng: &mut TestRng) -> u32 {
    match rng.usize_in(0, 5) {
        0 => 0,
        1 => orig.wrapping_add(1),
        2 => orig.wrapping_sub(1),
        3 => orig.wrapping_mul(2).wrapping_add(1),
        4 => u32::MAX,
        _ => rng.usize_in(0, 4096) as u32,
    }
}

/// Applies 1–3 structure-aware mutations to a binary seed.  Ops that need
/// the layout (count perturbation, flag shuffles, pointer permutation,
/// splices) only run while the buffer still has the seed's length — after a
/// truncation or extension the walked offsets no longer mean anything, and
/// the remaining ops degrade to blind truncate/extend/flip.
fn mutate_binary(seed: &[u8], layout: &BinLayout, rng: &mut TestRng) -> (Vec<u8>, Vec<String>) {
    let mut bytes = seed.to_vec();
    let mut log = Vec::new();
    for _ in 0..rng.usize_in(1, 3) {
        let structural = bytes.len() == layout.len;
        match rng.usize_in(0, if structural { 6 } else { 2 }) {
            0 => {
                let at = rng.usize_in(0, bytes.len().saturating_sub(1));
                bytes.truncate(at);
                log.push(format!("truncate@{at}"));
            }
            1 => {
                let n = rng.usize_in(1, 16);
                for _ in 0..n {
                    bytes.push(rng.next_u64() as u8);
                }
                log.push(format!("extend+{n}"));
            }
            2 => {
                if bytes.is_empty() {
                    continue;
                }
                for _ in 0..rng.usize_in(1, 3) {
                    let at = rng.usize_in(0, bytes.len() - 1);
                    bytes[at] ^= 1 << rng.usize_in(0, 7);
                    log.push(format!("flip@{at}"));
                }
            }
            3 => {
                let at = layout.counts[rng.usize_in(0, layout.counts.len() - 1)];
                let orig = u32_at(&bytes, at).expect("layout offsets are in bounds");
                let new = perturbed_count(orig, rng);
                bytes[at..at + 4].copy_from_slice(&new.to_le_bytes());
                log.push(format!("count@{at}:{orig}->{new}"));
            }
            4 => {
                let Some(flags) = layout.flags.clone().filter(|f| f.len() >= 2) else {
                    continue;
                };
                let a = flags.start + rng.usize_in(0, flags.len() - 1);
                let b = flags.start + rng.usize_in(0, flags.len() - 1);
                bytes.swap(a, b);
                // Also try inventing a non-boolean flag now and then.
                if rng.next_f64() < 0.3 {
                    bytes[a] = rng.usize_in(0, 255) as u8;
                }
                log.push(format!("flags-shuffle@{a},{b}"));
            }
            5 => {
                let Some(ptrs) = layout.ptrs.clone().filter(|p| p.len() >= 8) else {
                    continue;
                };
                let entries = ptrs.len() / 4;
                let a = ptrs.start + 4 * rng.usize_in(0, entries - 1);
                let b = ptrs.start + 4 * rng.usize_in(0, entries - 1);
                for i in 0..4 {
                    bytes.swap(a + i, b + i);
                }
                log.push(format!("ptr-swap@{a},{b}"));
            }
            _ => {
                // Splice: copy one in-body range over an equal-length one.
                let body = layout.magic_len..layout.len.saturating_sub(8);
                if body.len() < 2 {
                    continue;
                }
                let len = rng.usize_in(1, body.len().min(16));
                let src = body.start + rng.usize_in(0, body.len() - len);
                let dst = body.start + rng.usize_in(0, body.len() - len);
                let chunk = bytes[src..src + len].to_vec();
                bytes[dst..dst + len].copy_from_slice(&chunk);
                log.push(format!("splice@{src}->{dst}+{len}"));
            }
        }
    }
    // Usually re-hash so the mutation reaches the structural validators;
    // sometimes leave the stale trailer to keep the checksum path covered.
    if bytes.len() > layout.magic_len + 8 && rng.next_f64() < 0.7 {
        rehash_binary(&mut bytes);
        log.push("rehash".to_string());
    }
    (bytes, log)
}

/// Applies 1–3 line/byte-level mutations to a text seed (v1 model or
/// corpus), optionally re-hashing the v1 `checksum` trailer afterwards.
fn mutate_text(seed: &str, has_checksum: bool, rng: &mut TestRng) -> (Vec<u8>, Vec<String>) {
    let mut lines: Vec<String> = seed.lines().map(str::to_string).collect();
    let mut log = Vec::new();
    let mut truncate_at = None;
    for _ in 0..rng.usize_in(1, 3) {
        if lines.is_empty() {
            break;
        }
        match rng.usize_in(0, 6) {
            0 => {
                let at = rng.usize_in(0, lines.len() - 1);
                let line = lines[at].clone();
                lines.insert(at, line);
                log.push(format!("dup-line@{at}"));
            }
            1 => {
                let at = rng.usize_in(0, lines.len() - 1);
                lines.remove(at);
                log.push(format!("del-line@{at}"));
            }
            2 => {
                let a = rng.usize_in(0, lines.len() - 1);
                let b = rng.usize_in(0, lines.len() - 1);
                lines.swap(a, b);
                log.push(format!("swap-lines@{a},{b}"));
            }
            3 => {
                // Perturb one digit somewhere (counts, indices, values).
                let at = rng.usize_in(0, lines.len() - 1);
                let digits: Vec<usize> = lines[at]
                    .char_indices()
                    .filter(|(_, c)| c.is_ascii_digit())
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&i) = digits.get(rng.usize_in(0, digits.len().max(1) - 1)) {
                    let new = char::from(b'0' + rng.usize_in(0, 9) as u8);
                    lines[at].replace_range(i..i + 1, &new.to_string());
                    log.push(format!("digit@{at}:{i}"));
                }
            }
            4 => {
                let at = rng.usize_in(0, lines.len());
                lines.insert(at.min(lines.len()), "# fuzz comment".to_string());
                log.push(format!("comment@{at}"));
            }
            5 => {
                let garbage: String = (0..rng.usize_in(1, 24))
                    .map(|_| char::from(rng.usize_in(33, 126) as u8))
                    .collect();
                lines.push(garbage);
                log.push("garbage-line".to_string());
            }
            _ => {
                truncate_at = Some(rng.next_f64());
                log.push("truncate".to_string());
            }
        }
    }
    let mut text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    if has_checksum && rng.next_f64() < 0.5 {
        text = rehash_v1(&text);
        log.push("rehash".to_string());
    }
    if let Some(frac) = truncate_at {
        let cut = (text.len() as f64 * frac) as usize;
        let cut = (0..=cut.min(text.len())).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
        text.truncate(cut);
    }
    (text.into_bytes(), log)
}

// ---------------------------------------------------------------------------
// The invariant harness.
// ---------------------------------------------------------------------------

/// Runs one decoder check, converting panics into violations.  Returns
/// `Some(detail)` on an invariant violation.
fn guard(what: &str, f: impl FnOnce() -> Option<String>) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(violation) => violation,
        Err(_) => Some(format!("{what}: decoder panicked")),
    }
}

/// Tallies one rejection: its rendering must be non-empty (structured),
/// offsets are counted for the summary, and the full record is retained for
/// coverage tracking and replay.
fn tally_rejection(
    outcome: &mut CaseOutcome,
    what: &'static str,
    error: &ArtifactError,
) -> Option<String> {
    let message = error.to_string();
    if message.is_empty() {
        return Some(format!("{what}: rejection renders empty"));
    }
    outcome.rejected += 1;
    if error.offset().is_some() {
        outcome.rejections_with_offset += 1;
    }
    outcome.rejections.push(RejectionRecord {
        entry: what,
        class: error.class(),
        offset: error.offset(),
        message,
    });
    count_rejection_class(error.class());
    None
}

/// Bumps the per-class rejection counter.  The name is dynamic
/// (`fuzz.reject.<class>`), so this goes through the registry directly
/// rather than a call-site cell — gated the same way.
fn count_rejection_class(class: &str) {
    if palmed_obs::enabled() {
        palmed_obs::counter(&format!("fuzz.reject.{class}")).inc();
    }
}

/// Feeds one buffer to every decoder entry point and checks the three
/// invariants.  `insts` is the inventory corpus parsing resolves names in.
pub fn check_all(
    bytes: &[u8],
    insts: &InstructionSet,
    outcome: &mut CaseOutcome,
    mut report: impl FnMut(String),
) {
    let kind = ModelKind::sniff(bytes);

    // 1. The sniffing conjunctive decoder.
    let mut parsed_conjunctive: Option<ModelArtifact> = None;
    if let Some(detail) = guard("parse_bytes", || match ModelArtifact::parse_bytes(bytes) {
        Ok(artifact) => {
            outcome.accepted += 1;
            outcome.accepts.push("parse_bytes");
            if kind == ModelKind::ConjunctiveV2b {
                if artifact.render_v2() != bytes {
                    return Some("accepted v2b does not re-encode bit-identically".into());
                }
            } else {
                // Text accepts reach a fixed point in one render step.
                let rendered = artifact.render();
                match ModelArtifact::parse(&rendered) {
                    Ok(again) if again == artifact && again.render() == rendered => {}
                    Ok(_) => return Some("v1 re-render is not a fixed point".into()),
                    Err(e) => return Some(format!("v1 re-render does not re-parse: {e}")),
                }
            }
            parsed_conjunctive = Some(artifact);
            None
        }
        Err(error) => tally_rejection(outcome, "parse_bytes", &error),
    }) {
        report(detail);
    }

    // 2. The served v2b load must agree with the eager decoder.  Its entry
    // point keeps the label "view" so guided coverage keys stay stable.
    if kind == ModelKind::ConjunctiveV2b {
        if let Some(detail) = guard("view", || match ServedModel::from_v2b(bytes) {
            Ok(served) => {
                outcome.accepted += 1;
                outcome.accepts.push("view");
                match &parsed_conjunctive {
                    None => Some("from_v2b accepts what parse_bytes rejects".into()),
                    Some(artifact) => {
                        let n = artifact.instructions.len();
                        if served.model.fingerprint(n) != artifact.compile().fingerprint(n) {
                            Some("from_v2b and eager load fingerprint differently".into())
                        } else {
                            (served.to_artifact() != *artifact)
                                .then(|| "from_v2b does not hand back the eager artifact".into())
                        }
                    }
                }
            }
            Err(error) => {
                if parsed_conjunctive.is_some() {
                    return Some("from_v2b rejects what parse_bytes accepts".into());
                }
                tally_rejection(outcome, "view", &error)
            }
        }) {
            report(detail);
        }
    }

    // 3. The disjunctive decoder sees every buffer too.
    if let Some(detail) = guard("disj", || match DisjArtifact::parse(bytes) {
        Ok(artifact) => {
            outcome.accepted += 1;
            outcome.accepts.push("disj");
            (artifact.render() != bytes)
                .then(|| "accepted disj does not re-encode bit-identically".into())
        }
        Err(error) => tally_rejection(outcome, "disj", &error),
    }) {
        report(detail);
    }

    // 4. Migration must accept exactly the valid v1 inputs and produce a
    //    byte-equal v2b encoding of the same model.
    if let Some(detail) = guard("migrate", || match migrate_v1_to_v2b(bytes) {
        Ok(migrated) => {
            outcome.accepted += 1;
            outcome.accepts.push("migrate");
            match (&parsed_conjunctive, ModelArtifact::parse_v2(&migrated)) {
                (Some(artifact), Ok(from_v2)) if from_v2 == *artifact => None,
                (Some(_), Ok(_)) => Some("migration changed the model".into()),
                (Some(_), Err(e)) => Some(format!("migrated buffer does not parse: {e}")),
                (None, _) => Some("migration accepts what parse_bytes rejects".into()),
            }
        }
        Err(error) => tally_rejection(outcome, "migrate", &error),
    }) {
        report(detail);
    }

    // 5. The corpus loader sees every UTF-8 buffer.
    if let Ok(text) = std::str::from_utf8(bytes) {
        if let Some(detail) = guard("corpus", || match Corpus::parse(text, insts) {
            Ok(corpus) => {
                outcome.accepted += 1;
                outcome.accepts.push("corpus");
                let rendered = corpus.render(insts);
                match Corpus::parse(&rendered, insts) {
                    Ok(again) if again == corpus && again.render(insts) == rendered => None,
                    Ok(_) => Some("corpus re-render is not a fixed point".into()),
                    Err(e) => Some(format!("corpus re-render does not re-parse: {e}")),
                }
            }
            Err(error) => {
                let message = error.to_string();
                if message.is_empty() {
                    return Some("corpus: rejection renders empty".into());
                }
                outcome.rejected += 1;
                outcome.rejections.push(RejectionRecord {
                    entry: "corpus",
                    class: error.class(),
                    offset: None,
                    message,
                });
                count_rejection_class(error.class());
                None
            }
        }) {
            report(detail);
        }
    }
}

/// Applies the format's mutator to `seed`, continuing the case's RNG
/// stream.  Seeds that no longer walk as their format (stacked guided
/// mutations) are not handled here — see `guided::mutate_queued`.
fn mutate_case_bytes(format: Format, seed: &[u8], rng: &mut TestRng) -> (Vec<u8>, Vec<String>) {
    match format {
        Format::ModelV2b => {
            let layout = walk_v2b(seed).expect("valid v2b seed must walk");
            mutate_binary(seed, &layout, rng)
        }
        Format::Disj => {
            let layout = walk_disj(seed).expect("valid disj seed must walk");
            mutate_binary(seed, &layout, rng)
        }
        Format::ModelV1 => {
            mutate_text(std::str::from_utf8(seed).expect("v1 seeds are UTF-8"), true, rng)
        }
        Format::Corpus => {
            mutate_text(std::str::from_utf8(seed).expect("corpus seeds are UTF-8"), false, rng)
        }
    }
}

/// Reproduces the exact bytes of a deterministic case: the valid seed, the
/// mutant, and the mutation trail.  [`run_case`], [`replay_case`] and the
/// guided scheduler all regenerate cases through this one path, so a case
/// number means the same bytes everywhere.
fn generate_case(
    format: Format,
    case: u32,
    insts: &InstructionSet,
) -> (Vec<u8>, Vec<u8>, Vec<String>) {
    let mut rng = TestRng::for_case(case);
    let seed = seed_bytes(format, insts, &mut rng);
    let (mutated, mutations) = mutate_case_bytes(format, &seed, &mut rng);
    (seed, mutated, mutations)
}

/// Runs one fully deterministic fuzz case: seed, mutate, check.  The
/// unmutated seed is checked first — a seed the decoders reject is itself a
/// violation (the generators only emit valid artifacts).
pub fn run_case(format: Format, case: u32) -> CaseOutcome {
    let insts = inventory();
    let (seed, mutated, mutations) = generate_case(format, case, &insts);
    let mut outcome = CaseOutcome::default();

    let mut seed_violations = Vec::new();
    check_all(&seed, &insts, &mut outcome, |detail| seed_violations.push(detail));
    for detail in seed_violations {
        outcome.violations.push(Violation {
            format,
            case,
            mutations: vec!["<unmutated seed>".to_string()],
            detail,
        });
    }

    let mut mutant_violations = Vec::new();
    check_all(&mutated, &insts, &mut outcome, |detail| mutant_violations.push(detail));
    for detail in mutant_violations {
        outcome.violations.push(Violation { format, case, mutations: mutations.clone(), detail });
    }
    palmed_obs::counter!("fuzz.cases").inc();
    palmed_obs::counter!("fuzz.accepted").add(u64::from(outcome.accepted));
    palmed_obs::counter!("fuzz.rejected").add(u64::from(outcome.rejected));
    outcome
}

/// Re-runs one deterministic case with verbose per-entry-point output — the
/// triage view behind `fuzz_codecs --replay <format>:<case>`: the exact
/// seed and mutant bytes are regenerated, and for each buffer every decoder
/// entry point's accept/reject outcome is rendered with its rejection
/// class, byte offset and coverage bucket.
pub fn replay_case(format: Format, case: u32) -> String {
    use std::fmt::Write;
    let insts = inventory();
    let (seed, mutated, mutations) = generate_case(format, case, &insts);
    let mut out = String::new();
    let _ = writeln!(out, "replay {format} case {case}");
    let _ = writeln!(out, "  mutations: {}", mutations.join(", "));
    for (label, bytes) in [("seed", &seed), ("mutant", &mutated)] {
        let mut outcome = CaseOutcome::default();
        let mut violations = Vec::new();
        check_all(bytes, &insts, &mut outcome, |detail| violations.push(detail));
        let _ = writeln!(out, "--- {label}: {} bytes ---", bytes.len());
        for entry in &outcome.accepts {
            let _ = writeln!(out, "  accept  {entry}");
        }
        for record in &outcome.rejections {
            let _ = writeln!(
                out,
                "  reject  {:<11} class={} offset={} bucket={}\n          {}",
                record.entry,
                record.class,
                record.offset.map_or_else(|| "-".to_string(), |at| at.to_string()),
                offset_bucket(record.offset),
                record.message,
            );
        }
        for detail in &violations {
            let _ = writeln!(out, "  VIOLATION {detail}");
        }
    }
    out
}

/// Runs `iters` deterministic cases round-robin across all four formats,
/// starting at case number `seed`.  Timing never affects the outcome —
/// cases stay bit-for-bit deterministic — it only feeds the
/// `fuzz.case_ns.<format>` histograms and the slowest-case report.
pub fn run_many(iters: u32, seed: u32) -> FuzzSummary {
    let mut summary = FuzzSummary::default();
    for i in 0..iters {
        let format = Format::ALL[(i % 4) as usize];
        let case = seed.wrapping_add(i);
        let start = std::time::Instant::now();
        let outcome = run_case(format, case);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if palmed_obs::enabled() {
            palmed_obs::histogram(&format!("fuzz.case_ns.{format}")).record(ns);
        }
        summary.note_case_time(format, case, ns);
        summary.absorb(outcome);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_valid_and_deterministic() {
        for format in Format::ALL {
            let mut a = TestRng::for_case(7);
            let mut b = TestRng::for_case(7);
            let insts = inventory();
            let bytes_a = seed_bytes(format, &insts, &mut a);
            let bytes_b = seed_bytes(format, &insts, &mut b);
            assert_eq!(bytes_a, bytes_b, "{format} seeds must be deterministic");
            let mut outcome = CaseOutcome::default();
            check_all(&bytes_a, &insts, &mut outcome, |d| panic!("{format} seed: {d}"));
            assert!(outcome.accepted > 0, "{format} seed must be accepted somewhere");
        }
    }

    #[test]
    fn layout_walkers_cover_the_whole_buffer() {
        let insts = inventory();
        let mut rng = TestRng::for_case(11);
        let v2b = seed_model(&insts, &mut rng).render_v2();
        let layout = walk_v2b(&v2b).expect("valid v2b walks");
        assert_eq!(layout.len, v2b.len());
        assert!(layout.counts.len() >= 5);
        assert!(layout.flags.is_some() && layout.ptrs.is_some());
        let disj = seed_disj(&insts, &mut rng).render();
        let layout = walk_disj(&disj).expect("valid disj walks");
        assert_eq!(layout.len, disj.len());
        assert!(layout.ptrs.is_some());
    }

    #[test]
    fn rehash_v1_matches_the_renderer() {
        let insts = inventory();
        let mut rng = TestRng::for_case(3);
        let text = String::from_utf8(seed_bytes(Format::ModelV1, &insts, &mut rng)).unwrap();
        // Re-hashing an untouched artifact is the identity.
        assert_eq!(rehash_v1(&text), text);
        // Re-hashing after an edit makes it parse again.
        let edited = text.replacen("fuzz-seed", "fuzz-EDIT", 1);
        assert!(ModelArtifact::parse(&edited).is_err());
        assert!(ModelArtifact::parse(&rehash_v1(&edited)).is_ok());
    }

    #[test]
    fn a_small_run_is_clean_and_exercises_both_outcomes() {
        let summary = run_many(120, 900_000);
        assert!(summary.violations.is_empty(), "violations: {:?}", summary.violations);
        assert!(summary.accepted > 0);
        assert!(summary.rejected > 0);
        assert!(summary.rejections_with_offset > 0);
    }
}
