//! Concurrency tests for the hot-reloadable [`ModelRegistry`]: readers
//! predict bit-identically across concurrent generation swaps without ever
//! holding a lock during prediction, and an old generation stays fully
//! valid for as long as any reader holds it.

use palmed_core::ConjunctiveMapping;
use palmed_isa::{InstId, InstructionSet, Microkernel};
use palmed_serve::{KernelLoad, ModelArtifact, ModelEntry, ModelRegistry, PreparedBatch};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

fn artifact(usage: f64) -> ModelArtifact {
    let mut mapping = ConjunctiveMapping::with_resources(1);
    mapping.set_usage(InstId(2), vec![usage]);
    ModelArtifact::new("hot", "swap-test", InstructionSet::paper_example(), mapping)
}

/// The exact bits a model predicts for the probe kernel.
fn expected_bits(artifact: &ModelArtifact, kernel: &Microkernel) -> u64 {
    let compiled = artifact.compile();
    let mut scratch = compiled.scratch();
    compiled.ipc_with(kernel, &mut scratch).expect("probe kernel is covered").to_bits()
}

fn entry_bits(entry: &ModelEntry, kernel: &Microkernel) -> u64 {
    let ipcs = entry.predict_prepared(&PreparedBatch::from_kernels([kernel])).ipcs;
    ipcs[0].expect("probe kernel is covered").to_bits()
}

/// Readers hammer `get` + predict while a writer swaps between two models;
/// every observed prediction must be bit-identical to one of the two, and
/// entries held across swaps keep serving their own generation.
#[test]
fn concurrent_readers_predict_bit_identically_across_swaps() {
    const SWAPS: usize = 60;
    const READERS: usize = 3;

    let kernel = Microkernel::pair(InstId(2), 3, InstId(0), 1);
    let (model_a, model_b) = (artifact(0.5), artifact(0.25));
    let bits_a = expected_bits(&model_a, &kernel);
    let bits_b = expected_bits(&model_b, &kernel);
    assert_ne!(bits_a, bits_b, "the two generations must be distinguishable");
    let (bytes_a, bytes_b) = (model_a.render_v2(), model_b.render_v2());

    let registry = Arc::new(ModelRegistry::new());
    registry.swap_bytes("hot", bytes_a.clone()).unwrap();
    let first_generation = registry.generation();
    let stop = AtomicBool::new(false);
    let observations = AtomicU64::new(0);
    // Swaps start only once every reader holds its entry, so reads overlap
    // swaps however the threads are scheduled.
    let start = Barrier::new(READERS + 1);

    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                // Hold one entry across the whole run: its generation must
                // keep serving the *same* bits no matter how many swaps
                // happen underneath.
                let held = registry.get("hot").expect("installed before readers start");
                let held_bits = entry_bits(held.model(), &kernel);
                start.wait();
                // At least one observation per reader, even if every swap
                // lands before this thread is scheduled again.
                loop {
                    let entry = registry.get("hot").expect("name never disappears");
                    let bits = entry_bits(entry.model(), &kernel);
                    assert!(
                        bits == bits_a || bits == bits_b,
                        "reader observed a torn model: {bits:#x}"
                    );
                    assert_eq!(
                        entry_bits(held.model(), &kernel),
                        held_bits,
                        "a held generation changed under a reader"
                    );
                    observations.fetch_add(1, Ordering::Relaxed);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }

        start.wait();
        for i in 0..SWAPS {
            let bytes = if i % 2 == 0 { bytes_b.clone() } else { bytes_a.clone() };
            registry.swap_bytes("hot", bytes).expect("swap installs");
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(observations.load(Ordering::Relaxed) > 0, "readers must have observed models");
    assert_eq!(
        registry.generation(),
        first_generation + SWAPS as u64,
        "every swap bumps the generation exactly once"
    );
}

/// A reader that keeps an `Arc` to a replaced entry can predict through it
/// indefinitely — including rebuilding the original artifact — after
/// many generations of swaps and even after the name is removed.
#[test]
fn old_generation_stays_valid_until_dropped() {
    let kernel = Microkernel::single(InstId(2));
    let original = artifact(0.5);
    let registry = ModelRegistry::new();
    registry.swap_bytes("hot", original.render_v2()).unwrap();
    let held = registry.get("hot").unwrap();

    for i in 0..50 {
        registry.swap_bytes("hot", artifact(0.1 + i as f64 / 100.0).render_v2()).unwrap();
    }
    registry.remove("hot");
    assert!(registry.get("hot").is_none());

    let served = held.served().expect("conjunctive entry");
    assert_eq!(entry_bits(held.model(), &kernel), expected_bits(&original, &kernel));
    // The held arrays are intact too: they rebuild the original artifact
    // bit for bit.
    assert_eq!(served.to_artifact(), original);
}
