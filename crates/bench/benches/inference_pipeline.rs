//! Criterion bench: the Palmed inference pipeline itself.
//!
//! Tracks the end-to-end cost of mapping a machine as the instruction count
//! grows — the scalability story behind Table II ("Palmed maps ~2500
//! instructions in hours where PMEvo needs days").  PMEvo's evolutionary
//! training is measured on the same instruction subsets for comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use palmed_baselines::{PmEvo, PmEvoConfig};
use palmed_core::{Palmed, PalmedConfig};
use palmed_isa::InstId;
use palmed_isa::InventoryConfig;
use palmed_machine::{presets, AnalyticMeasurer, MemoizingMeasurer};

fn bench_palmed_inference(c: &mut Criterion) {
    let preset = presets::skl_sp(&InventoryConfig::small());
    let all: Vec<InstId> = preset.instructions.ids().collect();
    let mut group = c.benchmark_group("palmed_inference");
    group.sample_size(10);
    for &n in &[8usize, 16, 32] {
        let subset: Vec<InstId> = all.iter().copied().take(n).collect();
        group.bench_with_input(BenchmarkId::new("instructions", n), &subset, |b, subset| {
            b.iter(|| {
                let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
                Palmed::new(PalmedConfig::evaluation()).infer_subset(&measurer, subset)
            })
        });
    }
    group.finish();
}

fn bench_pmevo_training(c: &mut Criterion) {
    let preset = presets::skl_sp(&InventoryConfig::small());
    let all: Vec<InstId> = preset.instructions.ids().collect();
    let mut group = c.benchmark_group("pmevo_training");
    group.sample_size(10);
    for &n in &[8usize, 16] {
        let subset: Vec<InstId> = all.iter().copied().take(n).collect();
        group.bench_with_input(BenchmarkId::new("instructions", n), &subset, |b, subset| {
            b.iter(|| {
                let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
                PmEvo::new(PmEvoConfig::fast()).train(&measurer, subset)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_palmed_inference, bench_pmevo_training);
criterion_main!(benches);
