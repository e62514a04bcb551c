//! Round-trip properties of the serving layer: random inferred-shaped
//! mappings survive save → load bit-for-bit, the reloaded mapping predicts
//! identically to the in-memory one, and damaged artifacts are rejected.

use palmed_core::{Palmed, PalmedConfig};
use palmed_integration_tests::artifact_prop::{build_artifact, inventory, MAX_RESOURCES};
use palmed_isa::{InstId, Microkernel};
use palmed_machine::{presets, AnalyticMeasurer, MemoizingMeasurer};
use palmed_serve::{ArtifactError, BatchPredictor, ModelArtifact};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_mappings_round_trip_bit_identically(
        num_resources in 1usize..=MAX_RESOURCES,
        rows in prop::collection::vec(
            (0u32..10_000, prop::collection::vec(0.0f64..4.0, MAX_RESOURCES)),
            1..12,
        ),
        kernels in prop::collection::vec(
            prop::collection::vec((0u32..10_000, 1u32..5), 1..8),
            1..20,
        ),
    ) {
        let insts = inventory();
        let artifact = build_artifact(num_resources, &rows, &insts);

        // Textual round trip: parse(render(x)) == x, byte-stable re-render.
        let text = artifact.render();
        let reloaded = ModelArtifact::parse(&text).expect("valid artifact parses");
        prop_assert_eq!(&reloaded, &artifact);
        prop_assert_eq!(reloaded.render(), text);

        // Semantic round trip: the reloaded model predicts exactly like the
        // never-persisted in-memory mapping, bit for bit.
        let served = reloaded.mapping();
        let mut scratch = Vec::new();
        let kernels: Vec<Microkernel> = kernels
            .into_iter()
            .map(|pairs| {
                Microkernel::from_counts(
                    pairs.into_iter().map(|(i, c)| (InstId(i % insts.len() as u32), c)),
                )
            })
            .collect();
        for kernel in &kernels {
            let in_memory = artifact.mapping().ipc(kernel);
            let reloaded_ipc = served.ipc_with(kernel, &mut scratch);
            prop_assert_eq!(in_memory.map(f64::to_bits), reloaded_ipc.map(f64::to_bits));
            prop_assert_eq!(
                artifact.mapping().execution_time(kernel).to_bits(),
                served.execution_time_with(kernel, &mut scratch).to_bits()
            );
        }
        // The batch engine agrees with the per-call path on the same stream.
        let batch = BatchPredictor::new(served).predict(&kernels);
        for (kernel, ipc) in kernels.iter().zip(&batch.ipcs) {
            prop_assert_eq!(
                ipc.map(f64::to_bits),
                artifact.mapping().ipc(kernel).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn corrupting_any_byte_of_the_body_is_detected(
        num_resources in 1usize..=MAX_RESOURCES,
        rows in prop::collection::vec(
            (0u32..10_000, prop::collection::vec(0.0f64..4.0, MAX_RESOURCES)),
            1..8,
        ),
        position in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let insts = inventory();
        let text = build_artifact(num_resources, &rows, &insts).render();
        let body_len = text.rfind("checksum ").expect("trailer present");
        let target = ((position * body_len as f64) as usize).min(body_len - 1);
        let mut bytes = text.clone().into_bytes();
        bytes[target] ^= flip;
        // The mutation may produce invalid UTF-8, which cannot even reach the
        // parser; when it stays text, the damaged model must be rejected.
        if let Ok(corrupted) = String::from_utf8(bytes) {
            prop_assert!(ModelArtifact::parse(&corrupted).is_err());
        }
    }
}

#[test]
fn truncated_artifacts_are_rejected_at_every_length() {
    let insts = inventory();
    let artifact = build_artifact(3, &[(0, vec![2.0; 6]), (7, vec![3.0; 6])], &insts);
    let text = artifact.render();
    for cut in 0..text.len() - 1 {
        if !text.is_char_boundary(cut) {
            continue;
        }
        let truncated = &text[..cut];
        assert!(
            ModelArtifact::parse(truncated).is_err(),
            "truncation at byte {cut} must not parse"
        );
    }
    assert!(ModelArtifact::parse(&text).is_ok());
}

#[test]
fn corrupt_checksum_digit_is_rejected() {
    let insts = inventory();
    let text = build_artifact(2, &[(3, vec![2.5; 6])], &insts).render();
    let flipped = if text.trim_end().ends_with('0') {
        format!("{}1\n", text.trim_end().strip_suffix('0').unwrap())
    } else {
        let trimmed = text.trim_end();
        format!("{}0\n", &trimmed[..trimmed.len() - 1])
    };
    assert!(matches!(ModelArtifact::parse(&flipped), Err(ArtifactError::ChecksumMismatch { .. })));
}

#[test]
fn a_real_inferred_model_survives_the_full_save_load_serve_cycle() {
    let preset = presets::paper_ports016();
    let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
    let result = Palmed::new(PalmedConfig::small()).infer(&measurer);
    let artifact = ModelArtifact::new(
        preset.name(),
        preset.description.name.clone(),
        (*preset.instructions).clone(),
        result.mapping.clone(),
    );
    let reloaded = ModelArtifact::parse(&artifact.render()).expect("inferred model round-trips");
    assert_eq!(reloaded, artifact);

    let served = reloaded.batch();
    let find = |n: &str| preset.instructions.find(n).unwrap();
    for kernel in [
        Microkernel::single(find("ADDSS")).scaled(4),
        Microkernel::pair(find("ADDSS"), 2, find("BSR"), 1),
        Microkernel::from_counts([(find("DIVPS"), 1), (find("JNLE"), 2), (find("JMP"), 1)]),
    ] {
        assert_eq!(
            result.mapping.ipc(&kernel).map(f64::to_bits),
            served.predict(std::slice::from_ref(&kernel)).ipcs[0].map(f64::to_bits),
            "served prediction differs for {kernel}"
        );
    }
}
