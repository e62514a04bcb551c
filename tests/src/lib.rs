//! Cross-crate integration tests for the Palmed reproduction.
//!
//! The tests live in `tests/tests/`; this library only hosts a few shared
//! helpers for building machines and kernels.

use palmed_isa::{InstId, Microkernel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random dependency-free kernel over the given instructions.
pub fn random_kernel(
    ids: &[InstId],
    rng: &mut StdRng,
    max_distinct: usize,
    max_mult: u32,
) -> Microkernel {
    let mut kernel = Microkernel::new();
    let distinct = rng.gen_range(1..=max_distinct.max(1));
    for _ in 0..distinct {
        kernel.add(ids[rng.gen_range(0..ids.len())], rng.gen_range(1..=max_mult.max(1)));
    }
    kernel
}

/// A seeded RNG for reproducible integration tests.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Shared scaffolding for registry incident tests: a watched artifact file
/// that is corrupted on disk and later restored, with the poll-to-quarantine
/// loop and its accounting in one place.  `registry_quarantine.rs`,
/// `obs_audit_trail.rs` and the fault-injection suites all replay the same
/// incident shape; this module keeps the on-disk choreography identical
/// across them.
pub mod incident {
    use palmed_core::ConjunctiveMapping;
    use palmed_isa::{InstId, InstructionSet, Microkernel};
    use palmed_serve::{sidecar_path, ModelArtifact, ModelRegistry, PreparedBatch, RefreshOutcome};
    use std::path::PathBuf;

    /// A model artifact saved to a scratch file (with its fingerprint
    /// sidecar) for a registry to watch.  Dropping it removes both files.
    pub struct WatchedArtifact {
        /// The registry key the artifact installs under.
        pub name: String,
        /// The watched scratch file.
        pub path: PathBuf,
        /// The good artifact, for restoring the original bytes.
        pub artifact: ModelArtifact,
        /// The determinism fingerprint the save recorded in the sidecar.
        pub recorded_fp: u64,
    }

    impl WatchedArtifact {
        /// Builds the canonical two-resource incident artifact and saves it
        /// (v2 body + fingerprint sidecar) to a scratch file named `file`.
        pub fn save(name: &str, file: &str, usage: f64) -> WatchedArtifact {
            let mut mapping = ConjunctiveMapping::with_resources(2);
            mapping.set_usage(InstId(0), vec![0.25, 0.0]);
            mapping.set_usage(InstId(2), vec![usage, 1.0 / 3.0]);
            let artifact = ModelArtifact::new(
                name,
                "integration-test",
                InstructionSet::paper_example(),
                mapping,
            );
            let path = scratch_file(file);
            let recorded_fp = artifact.save_v2_with_fingerprint(&path).unwrap();
            WatchedArtifact { name: name.to_string(), path, artifact, recorded_fp }
        }

        /// Corrupts the watched file in place (valid magic, garbage body —
        /// the shape of a torn or botched deploy).
        pub fn corrupt(&self) {
            std::fs::write(&self.path, b"PALMED-MODEL v2b\ncorrupted body").unwrap();
        }

        /// Restores the original body.  The sidecar recorded at save time is
        /// still on disk, so the restored file verifies against it.
        pub fn restore(&self) {
            self.artifact.save_v2(&self.path).unwrap();
        }

        /// A probe kernel covered by the incident artifact's mapping.
        pub fn probe_kernel() -> Microkernel {
            Microkernel::pair(InstId(2), 3, InstId(0), 1)
        }

        /// The exact bits the registry's current entry predicts for
        /// `kernel` — the "serving never degrades" witness.
        pub fn served_bits(&self, registry: &ModelRegistry, kernel: &Microkernel) -> u64 {
            let entry = registry.get(&self.name).expect("entry never disappears");
            let ipcs = entry.model().predict_prepared(&PreparedBatch::from_kernels([kernel])).ipcs;
            ipcs[0].expect("probe kernel is covered").to_bits()
        }
    }

    impl Drop for WatchedArtifact {
        fn drop(&mut self) {
            std::fs::remove_file(&self.path).ok();
            std::fs::remove_file(sidecar_path(&self.path)).ok();
        }
    }

    /// Poll accounting for one corrupt-until-quarantine incident.
    pub struct IncidentPolls {
        /// Total refresh polls until quarantine engaged.
        pub polls: u32,
        /// Reload attempts that failed (reported via `errors`).
        pub failures: u32,
        /// Polls the backoff ladder skipped (reported via `backed_off`).
        pub backoff_polls: u32,
    }

    /// Polls `registry.refresh()` until `name` is quarantined, invoking
    /// `per_poll` after every poll so callers can layer their own
    /// invariants (bit-identical serving, pinned generation, …) on top of
    /// the shared accounting.  Panics if quarantine does not engage within
    /// a bounded number of polls.
    pub fn poll_until_quarantined(
        registry: &ModelRegistry,
        name: &str,
        mut per_poll: impl FnMut(u32, &RefreshOutcome),
    ) -> IncidentPolls {
        let mut stats = IncidentPolls { polls: 0, failures: 0, backoff_polls: 0 };
        loop {
            stats.polls += 1;
            assert!(stats.polls < 64, "quarantine must engage within bounded polls");
            let outcome = registry.refresh();
            stats.failures += outcome.errors.len() as u32;
            stats.backoff_polls += outcome.backed_off.len() as u32;
            per_poll(stats.polls, &outcome);
            if !outcome.quarantined.is_empty() {
                assert_eq!(outcome.quarantined, vec![name.to_string()]);
                return stats;
            }
        }
    }

    /// A scratch path in the temp dir with any stale body/sidecar removed.
    pub fn scratch_file(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(sidecar_path(&path)).ok();
        path
    }
}

/// Shared generators for the serving-layer property tests: random
/// inferred-shaped model artifacts over a fixed synthetic inventory.  One
/// definition serves the v1 round-trip, v2 codec and v2b serving suites, so
/// the "inferred shape" invariant (sparsity threshold, resource width) can
/// only drift in one place.
pub mod artifact_prop {
    use palmed_isa::{InstId, InstructionSet, InventoryConfig};
    use palmed_serve::ModelArtifact;

    /// Maximum number of resources a generated mapping uses (usage rows are
    /// generated at this width and truncated to the actual resource count).
    pub const MAX_RESOURCES: usize = 6;

    /// The fixed inventory random artifacts draw their instructions from.
    pub fn inventory() -> InstructionSet {
        InstructionSet::synthetic(&InventoryConfig::small())
    }

    /// Builds an inferred-shaped artifact from generated raw rows: a handful
    /// of resources, sparse non-negative usage (draws below 1.6 are zeroed so
    /// rows are sparse like real inferred mappings), arbitrary instruction
    /// subset.
    pub fn build_artifact(
        num_resources: usize,
        rows: &[(u32, Vec<f64>)],
        insts: &InstructionSet,
    ) -> ModelArtifact {
        let mut mapping = palmed_core::ConjunctiveMapping::with_resources(num_resources);
        for (inst, raw) in rows {
            let inst = InstId(inst % insts.len() as u32);
            let usage: Vec<f64> = (0..num_resources)
                .map(|r| {
                    let v = raw.get(r).copied().unwrap_or(0.0);
                    if v < 1.6 {
                        0.0
                    } else {
                        v
                    }
                })
                .collect();
            mapping.set_usage(inst, usage);
        }
        ModelArtifact::new("prop-machine", "prop-source", insts.clone(), mapping)
    }
}
