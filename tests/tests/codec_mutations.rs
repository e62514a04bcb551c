//! Replay corpus for the codec fuzzer.
//!
//! Two layers: a deterministic sweep of the structure-aware mutation
//! engine (`palmed_fuzz::run_many` — any violation it ever finds is
//! reproduced forever by its `(format, case)` number), plus hand-crafted
//! mutants pinning the exact rejection class for the attack shapes the
//! fuzzer generates randomly: boundary truncations, count-field blowups
//! with a re-hashed trailer, bit flips with a stale trailer, out-of-range
//! port counts, zero port masks, and text-layer edits.

use palmed_core::ConjunctiveMapping;
use palmed_fuzz::{run_case, run_many, Format};
use palmed_isa::{InstId, InstructionSet, Microkernel};
use palmed_serve::checksum::{fnv1a64, fnv1a64_words};
use palmed_serve::{
    migrate_v1_to_v2b, ArtifactError, Corpus, DisjArtifact, ModelArtifact, ServedModel,
};

fn v2b_artifact() -> ModelArtifact {
    let mut mapping = ConjunctiveMapping::with_resources(3);
    mapping.set_usage(InstId(0), vec![1.0, 0.0, 0.5]);
    mapping.set_usage(InstId(2), vec![0.0, 0.25, 1.0 / 3.0]);
    ModelArtifact::new("replay", "codec-mutations", InstructionSet::paper_example(), mapping)
}

fn disj_artifact() -> DisjArtifact {
    DisjArtifact::new(
        "replay-disj",
        "codec-mutations",
        InstructionSet::paper_example(),
        3,
        vec![(InstId(0), vec![(0b001, 1.0), (0b110, 2.0)]), (InstId(2), vec![(0b011, 1.0)])],
    )
}

/// Recomputes the strided-word trailer after a body edit, so the mutant
/// reaches the structural validators instead of bouncing off the checksum.
fn rehash(bytes: &mut [u8]) {
    let n = bytes.len();
    let checksum = fnv1a64_words(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&checksum.to_le_bytes());
}

fn expect_binary_offset(result: Result<ModelArtifact, ArtifactError>, what: &str) -> usize {
    match result {
        Ok(_) => panic!("{what}: mutant was accepted"),
        Err(error) => {
            assert!(!error.to_string().is_empty(), "{what}: rejection renders empty");
            error
                .offset()
                .unwrap_or_else(|| panic!("{what}: rejection carries no byte offset, got {error}"))
        }
    }
}

/// The deterministic mutation sweep stays clean and exercises every
/// outcome class: accepts, structured rejections, and offset-carrying
/// binary rejections.
#[test]
fn deterministic_mutation_sweep_is_clean() {
    let summary = run_many(600, 0);
    assert!(summary.violations.is_empty(), "violations: {:?}", summary.violations);
    assert!(summary.accepted > 0, "sweep must accept the valid seeds");
    assert!(summary.rejected > 0, "sweep must reject most mutants");
    assert!(summary.rejections_with_offset > 0, "binary rejections must carry offsets");
}

/// Every individual format replays clean at a second, disjoint case range
/// (regression anchor: pin any future finding by its `(format, case)`).
#[test]
fn per_format_replay_ranges_are_clean() {
    for format in Format::ALL {
        for case in 5_000..5_050 {
            let outcome = run_case(format, case);
            assert!(
                outcome.violations.is_empty(),
                "{format} case {case}: {:?}",
                outcome.violations
            );
        }
    }
}

/// Truncating a v2b buffer at every prefix length is always a structured
/// rejection — never a panic, never an accept.
#[test]
fn v2b_truncation_at_every_boundary_is_rejected() {
    let bytes = v2b_artifact().render_v2();
    for cut in 0..bytes.len() {
        let error = ModelArtifact::parse_bytes(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("truncation at {cut} was accepted"));
        assert!(!error.to_string().is_empty(), "truncation at {cut} renders empty");
        // The served load must agree.
        let served = ServedModel::from_v2b(&bytes[..cut]);
        assert!(served.is_err(), "from_v2b accepted truncation at {cut}");
    }
}

/// Blowing a length prefix up to `u32::MAX` (with the trailer re-hashed so
/// the checksum passes) is caught by the structural validator with the
/// offset of the violated field.
#[test]
fn v2b_count_blowup_is_rejected_with_its_offset() {
    let bytes = v2b_artifact().render_v2();
    // The machine-string length prefix sits right after the 17-byte magic.
    let field = 17;
    let mut mutant = bytes.clone();
    mutant[field..field + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    rehash(&mut mutant);
    let offset = expect_binary_offset(ModelArtifact::parse_bytes(&mutant), "count blowup");
    // The decoder reports the position it was at when validation failed —
    // at or just past the violated length prefix.
    assert!(
        (field..=field + 4).contains(&offset),
        "the error must point at the violated length prefix, got offset {offset}"
    );

    // Zeroing a count the layout needs is likewise structural.
    let mut mutant = bytes;
    mutant[field..field + 4].copy_from_slice(&0u32.to_le_bytes());
    rehash(&mut mutant);
    assert!(ModelArtifact::parse_bytes(&mutant).is_err(), "zeroed machine name must not decode");
}

/// A bit flip *without* re-hashing the trailer is caught by the checksum
/// before any structural interpretation happens.
#[test]
fn v2b_flip_without_rehash_is_a_checksum_mismatch() {
    let mut bytes = v2b_artifact().render_v2();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    match ModelArtifact::parse_bytes(&bytes) {
        Err(ArtifactError::ChecksumMismatch { stored, computed }) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

/// Out-of-range port counts in a DISJ artifact are rejected structurally
/// even when the trailer is re-hashed to match.
#[test]
fn disj_port_count_out_of_range_is_rejected() {
    let dj = disj_artifact();
    let bytes = dj.render();
    // num_ports sits after the magic and the two length-prefixed strings.
    let field = 15 + 4 + dj.machine.len() + 4 + dj.source.len();
    for ports in [0u32, 17, u32::MAX] {
        let mut mutant = bytes.clone();
        mutant[field..field + 4].copy_from_slice(&ports.to_le_bytes());
        rehash(&mut mutant);
        match DisjArtifact::parse(&mutant) {
            Err(error) => {
                let offset = error.offset().unwrap_or_else(|| {
                    panic!("ports={ports}: rejection carries no byte offset, got {error}")
                });
                assert!(
                    (field..=field + 4).contains(&offset),
                    "ports={ports}: error must point at num_ports, got offset {offset}"
                );
            }
            Ok(_) => panic!("ports={ports} was accepted"),
        }
    }
}

/// A zeroed port mask (a µOP that can execute nowhere) is structural
/// corruption, caught after a re-hash.
#[test]
fn disj_zero_mask_is_rejected() {
    let dj = disj_artifact();
    let bytes = dj.render();
    // Masks sit between the µOP pointer table and the weights; find the
    // first mask by scanning for its known value from the end-side layout:
    // total µOPs = 3, so masks occupy 12 bytes before the 24 weight bytes
    // and the 8 trailer bytes.
    let masks_at = bytes.len() - 8 - 3 * 8 - 3 * 4;
    assert_eq!(
        u32::from_le_bytes(bytes[masks_at..masks_at + 4].try_into().unwrap()),
        0b001,
        "layout arithmetic must land on the first mask"
    );
    let mut mutant = bytes;
    mutant[masks_at..masks_at + 4].copy_from_slice(&0u32.to_le_bytes());
    rehash(&mut mutant);
    match DisjArtifact::parse(&mutant) {
        Err(error) => {
            // Array-content checks run after the cursor has consumed the
            // arenas, so the offset is a cursor position, not the mask's —
            // but it must still be a structured in-buffer binary error
            // that names the violated mask.
            let offset = error.offset().expect("zero-mask rejection carries a byte offset");
            assert!(offset <= mutant.len(), "offset {offset} must be in-buffer");
            assert!(error.to_string().contains("mask"), "error names the mask: {error}");
        }
        Ok(_) => panic!("zero mask was accepted"),
    }
}

/// Text-layer mutants: a deleted mapping row breaks the checksum; after a
/// re-hash the stale `rows N` count becomes the structural finding; fixing
/// that too yields a valid smaller model that migration preserves.
#[test]
fn v1_deleted_line_is_caught_with_and_without_rehash() {
    fn joined(lines: impl Iterator<Item = String>) -> String {
        lines.fold(String::new(), |mut acc, line| {
            acc.push_str(&line);
            acc.push('\n');
            acc
        })
    }
    fn rehashed(text: &str) -> String {
        let body = joined(text.lines().filter(|l| !l.starts_with("checksum ")).map(str::to_string));
        format!("{body}checksum {:016x}\n", fnv1a64(body.as_bytes()))
    }

    let text = v2b_artifact().render();
    // Delete the first mapping row (an `M <inst> ...` line) without
    // touching the trailer: checksum catches it first.
    let mut deleted_one = false;
    let stale = joined(text.lines().map(str::to_string).filter(|l| {
        if !deleted_one && l.starts_with("M ") {
            deleted_one = true;
            return false;
        }
        true
    }));
    assert!(deleted_one, "the artifact must render at least one mapping row");
    assert!(
        matches!(ModelArtifact::parse(&stale), Err(ArtifactError::ChecksumMismatch { .. })),
        "stale trailer must be a checksum mismatch"
    );
    assert!(migrate_v1_to_v2b(stale.as_bytes()).is_err(), "migration agrees on the rejection");

    // Re-hash over the edited body: the checksum now passes, so the stale
    // `rows N` count becomes the finding — a structured line-level error.
    let fixed_trailer = rehashed(&stale);
    match ModelArtifact::parse(&fixed_trailer) {
        Err(ArtifactError::Malformed { line, reason }) => {
            assert!(line > 0, "line numbers are 1-based");
            assert!(!reason.is_empty());
        }
        other => panic!("expected a structural Malformed error, got {other:?}"),
    }

    // Fix the row count too: the smaller model is simply valid, and
    // migration carries it to v2b unchanged — the accept side of the
    // invariant (accepted ⇒ canonical round-trip).
    let consistent = rehashed(&joined(stale.lines().map(|l| {
        if l.starts_with("rows ") {
            "rows 1".to_string()
        } else {
            l.to_string()
        }
    })));
    let artifact = ModelArtifact::parse(&consistent).expect("consistent mutant decodes");
    assert_eq!(artifact.render(), consistent, "accepted text is already canonical");
    let migrated = migrate_v1_to_v2b(consistent.as_bytes()).expect("migration accepts it too");
    assert_eq!(ModelArtifact::parse_v2(&migrated).unwrap(), artifact, "migration preserves it");
}

/// Corpus mutants: bad weights, unknown instruction names, zero counts and
/// multiplicity overflow are all structured line-level rejections.
#[test]
fn corpus_malformed_entries_are_rejected_with_line_numbers() {
    let insts = InstructionSet::paper_example();
    let mut corpus = Corpus::new();
    corpus.push("base", 1.5, Microkernel::pair(InstId(0), 2, InstId(2), 1));
    let good = corpus.render(&insts);
    assert_eq!(Corpus::parse(&good, &insts).unwrap(), corpus, "seed round-trips");

    let name0 = insts.name(InstId(0));
    let mutants = [
        good.replace("1.5", "not-a-weight"),
        good.replace(name0, "no_such_instruction"),
        good.replace(&format!("{name0}{}2", '\u{d7}'), &format!("{name0}{}0", '\u{d7}')),
        good.replace(&format!("{name0}{}2", '\u{d7}'), &format!("{name0}{}99999999999", '\u{d7}')),
    ];
    for (i, mutant) in mutants.iter().enumerate() {
        assert_ne!(mutant, &good, "mutant {i} must differ from the seed");
        let error = Corpus::parse(mutant, &insts)
            .err()
            .unwrap_or_else(|| panic!("corpus mutant {i} was accepted"));
        assert!(!error.to_string().is_empty(), "corpus mutant {i} renders empty");
    }
}
