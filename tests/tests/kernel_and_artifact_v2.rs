//! Properties of the flat-vector [`Microkernel`] representation and the
//! binary `PALMED-MODEL v2b` artifact codec.
//!
//! The kernel half pits the sorted-vec multiset against an explicit
//! `BTreeMap` reference model (the representation it replaced): every
//! observable behaviour — duplicate accumulation, zero-count drops, sorted
//! iteration, multiset equality and hashing, merge and scaling — must be
//! identical.  The artifact half drives v1 text and v2b binary renders of the
//! same random models through both parsers and requires bit-identical
//! results, plus rejection of byte flips and truncations.

use palmed_integration_tests::artifact_prop::{build_artifact, inventory, MAX_RESOURCES};
use palmed_isa::{FxBuildHasher, InstId, KernelSet, Microkernel};
use palmed_serve::{KernelLoad, ModelArtifact};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::BuildHasher;

/// The reference semantics: the `BTreeMap` multiset the old representation
/// used, rebuilt explicitly.
fn reference_counts(pairs: &[(u32, u32)]) -> BTreeMap<InstId, u32> {
    let mut map = BTreeMap::new();
    for &(inst, count) in pairs {
        if count > 0 {
            *map.entry(InstId(inst)).or_insert(0u32) += count;
        }
    }
    map
}

fn kernel_of(pairs: &[(u32, u32)]) -> Microkernel {
    Microkernel::from_counts(pairs.iter().map(|&(i, c)| (InstId(i), c)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_microkernel_is_observably_identical_to_the_map_semantics(
        pairs in prop::collection::vec((0u32..40, 0u32..9), 0..24),
        other in prop::collection::vec((0u32..40, 1u32..9), 0..12),
        factor in 0u32..5,
    ) {
        let kernel = kernel_of(&pairs);
        let reference = reference_counts(&pairs);

        // Zero counts dropped, duplicates accumulated, lookups agree.
        prop_assert_eq!(kernel.num_distinct(), reference.len());
        prop_assert_eq!(
            kernel.total_instructions(),
            reference.values().sum::<u32>()
        );
        prop_assert_eq!(kernel.is_empty(), reference.is_empty());
        for inst in 0u32..40 {
            let id = InstId(inst);
            prop_assert_eq!(kernel.multiplicity(id), reference.get(&id).copied().unwrap_or(0));
            prop_assert_eq!(kernel.contains(id), reference.contains_key(&id));
        }

        // Iteration is exactly the sorted map iteration, and the slice view
        // agrees with the iterator.
        let iterated: Vec<(InstId, u32)> = kernel.iter().collect();
        let expected: Vec<(InstId, u32)> = reference.iter().map(|(&i, &c)| (i, c)).collect();
        prop_assert_eq!(&iterated, &expected);
        prop_assert_eq!(kernel.as_slice(), &expected[..]);
        prop_assert!(iterated.windows(2).all(|w| w[0].0 < w[1].0));

        // Multiset equality and hashing ignore construction order: building
        // from reversed input and from incremental `add` calls lands on an
        // equal, identically-hashing kernel.
        let reversed: Vec<(u32, u32)> = pairs.iter().rev().copied().collect();
        let from_reversed = kernel_of(&reversed);
        let mut incremental = Microkernel::new();
        for &(inst, count) in &pairs {
            incremental.add(InstId(inst), count);
        }
        prop_assert_eq!(&kernel, &from_reversed);
        prop_assert_eq!(&kernel, &incremental);
        let build = FxBuildHasher::default();
        prop_assert_eq!(build.hash_one(&kernel), build.hash_one(&from_reversed));
        prop_assert_eq!(build.hash_one(&kernel), build.hash_one(&incremental));

        // Merge is the multiset union with addition.
        let other_kernel = kernel_of(&other);
        let mut merged = kernel.clone();
        merged.merge(&other_kernel);
        let mut merged_reference = reference.clone();
        for &(inst, count) in &other {
            *merged_reference.entry(InstId(inst)).or_insert(0) += count;
        }
        prop_assert_eq!(
            merged.iter().collect::<Vec<_>>(),
            merged_reference.iter().map(|(&i, &c)| (i, c)).collect::<Vec<_>>()
        );

        // Scaling multiplies every multiplicity (these counts cannot
        // overflow: < 9 × factor < 5).
        let scaled = kernel.scaled(factor);
        if factor == 0 {
            prop_assert!(scaled.is_empty());
        } else {
            prop_assert_eq!(
                scaled.iter().collect::<Vec<_>>(),
                reference.iter().map(|(&i, &c)| (i, c * factor)).collect::<Vec<_>>()
            );
        }

        // Interning dedupes exactly along multiset equality.
        let mut set = KernelSet::new();
        let a = set.intern(&kernel);
        let b = set.intern(&from_reversed);
        prop_assert_eq!(a, b);
        prop_assert_eq!(set.hash_of(a), KernelSet::hash_kernel(&kernel));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn v1_and_v2_artifacts_cross_round_trip_bit_identically(
        num_resources in 1usize..=MAX_RESOURCES,
        rows in prop::collection::vec(
            (0u32..10_000, prop::collection::vec(0.0f64..4.0, MAX_RESOURCES)),
            1..12,
        ),
        kernels in prop::collection::vec(
            prop::collection::vec((0u32..10_000, 1u32..5), 1..8),
            1..10,
        ),
        position in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let insts = inventory();
        let artifact = build_artifact(num_resources, &rows, &insts);

        // Both renders parse back to the same artifact, and re-rendering in
        // either format is byte-stable regardless of which codec loaded it.
        let text = artifact.render();
        let bin = artifact.render_v2();
        let from_v1 = ModelArtifact::parse(&text).expect("v1 parses");
        let from_v2 = ModelArtifact::parse_v2(&bin).expect("v2 parses");
        prop_assert_eq!(&from_v1, &artifact);
        prop_assert_eq!(&from_v2, &artifact);
        prop_assert_eq!(from_v1.render_v2(), bin.clone());
        prop_assert_eq!(from_v2.render(), text);
        // The sniffing entry point picks the right codec for both.
        prop_assert_eq!(&ModelArtifact::parse_bytes(&bin).unwrap(), &artifact);
        prop_assert_eq!(&ModelArtifact::parse_bytes(text.as_bytes()).unwrap(), &artifact);

        // Models loaded through either codec predict bit-identically.
        let c1 = from_v1.compile();
        let c2 = from_v2.compile();
        prop_assert_eq!(&c1, &c2);
        let mut scratch = c1.scratch();
        let mut scratch2 = c2.scratch();
        for pairs in &kernels {
            let kernel = Microkernel::from_counts(
                pairs.iter().map(|&(i, c)| (InstId(i % insts.len() as u32), c)),
            );
            prop_assert_eq!(
                c1.ipc_with(&kernel, &mut scratch).map(f64::to_bits),
                c2.ipc_with(&kernel, &mut scratch2).map(f64::to_bits)
            );
        }

        // Any single byte flip anywhere in the binary artifact is rejected
        // (body flips fail the checksum; magic flips fail sniffing; trailer
        // flips mismatch the recomputed hash).
        let target = ((position * bin.len() as f64) as usize).min(bin.len() - 1);
        let mut corrupted = bin.clone();
        corrupted[target] ^= flip;
        prop_assert!(ModelArtifact::parse_bytes(&corrupted).is_err());

        // So is truncation at an arbitrary proportional cut.
        let cut = ((position * bin.len() as f64) as usize).min(bin.len() - 1);
        prop_assert!(ModelArtifact::parse_bytes(&bin[..cut]).is_err());
    }
}

#[test]
fn v2_truncations_are_rejected_at_every_length() {
    let insts = inventory();
    let artifact = build_artifact(3, &[(0, vec![2.0; 6]), (7, vec![3.0; 6])], &insts);
    let bin = artifact.render_v2();
    for cut in 0..bin.len() {
        assert!(
            ModelArtifact::parse_bytes(&bin[..cut]).is_err(),
            "truncation at byte {cut} must not parse"
        );
    }
    assert!(ModelArtifact::parse_bytes(&bin).is_ok());
}
