//! Criterion bench: registry load and hot-reload cost of the serving layer.
//!
//! A serving process pays the registry three ways: once per model at
//! start-up (cold load), once per pushed update (generation swap), and on
//! every request (snapshot lookup).  This bench pins all three on a
//! paper-sized synthetic inventory, for both conjunctive formats:
//!
//! * `cold_load_v1` — `ModelRegistry::load_file` on a v1 text artifact:
//!   parse every decimal into the mapping's dense rows;
//! * `cold_load_v2b` — `ModelRegistry::load_file` on a `v2b` artifact:
//!   validate the CSR arrays and scatter them into the dense rows in one
//!   pass;
//! * `generation_swap` — `ModelRegistry::swap_bytes` over a loaded
//!   registry: validate the new bytes and atomically install the next
//!   generation (the in-flight-reader guarantee is what's being priced);
//! * `snapshot_get` — `ModelRegistry::get`: one read-lock `Arc` clone, the
//!   only synchronisation a prediction path ever touches.
//!
//! Record with `CRITERION_JSON=BENCH_ingest.json cargo bench --bench
//! registry_reload`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use palmed_isa::InventoryConfig;
use palmed_serve::{ModelArtifact, ModelRegistry};

/// The deterministic paper-sized model also used by `ingest_throughput`'s
/// large-load group: a synthetic inventory with a sparse pseudo-random
/// mapping (the codecs cannot tell it from an inferred one).
fn large_artifact() -> ModelArtifact {
    let insts = palmed_isa::InstructionSet::synthetic(&InventoryConfig::large());
    let resources = 30usize;
    let mut mapping = palmed_core::ConjunctiveMapping::with_resources(resources);
    for id in insts.ids() {
        let mut usage = vec![0.0; resources];
        let mut x = (id.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let entries = 4 + (x % 13) as usize;
        for _ in 0..entries {
            x ^= x >> 31;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let r = (x % resources as u64) as usize;
            usage[r] = 0.125 + ((x >> 32) % 1000) as f64 / 1000.0;
        }
        mapping.set_usage(id, usage);
    }
    ModelArtifact::new("skl-like-large", "synthetic", insts, mapping)
}

fn bench_registry_reload(c: &mut Criterion) {
    let artifact = large_artifact();
    let bin = artifact.render_v2();
    let path = std::env::temp_dir().join("palmed-bench-registry-reload.palmed2");
    std::fs::write(&path, &bin).expect("bench artifact writes");
    let text_path = std::env::temp_dir().join("palmed-bench-registry-reload.palmed");
    artifact.save(&text_path).expect("bench text artifact writes");
    eprintln!(
        "registry artifact: {} instructions, v2b {} bytes",
        artifact.instructions.len(),
        bin.len()
    );

    let mut group = c.benchmark_group("registry_reload");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("cold_load_v1", bin.len()), &text_path, |b, path| {
        b.iter(|| {
            let registry = ModelRegistry::new();
            let entry = registry.load_file(path).unwrap();
            entry.model().mapping().num_instructions()
        })
    });
    group.bench_with_input(BenchmarkId::new("cold_load_v2b", bin.len()), &path, |b, path| {
        b.iter(|| {
            let registry = ModelRegistry::new();
            let entry = registry.load_file(path).unwrap();
            entry.model().mapping().num_instructions()
        })
    });

    let registry = ModelRegistry::new();
    registry.load_file(&path).unwrap();
    group.bench_with_input(BenchmarkId::new("generation_swap", bin.len()), &bin, |b, bin| {
        b.iter(|| {
            // `swap_bytes` takes the buffer by value, so the `clone` is part
            // of the cost, exactly as a network push would pay it.
            let entry = registry.swap_bytes("skl-like-large", bin.clone()).unwrap();
            entry.generation()
        })
    });
    group.bench_function("snapshot_get", |b| {
        b.iter(|| registry.get("skl-like-large").unwrap().generation())
    });
    group.finish();

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&text_path).ok();
}

criterion_group!(benches, bench_registry_reload);
criterion_main!(benches);
