//! Criterion bench: prediction cost of every tool on realistic basic blocks.
//!
//! This is the consumer-side cost (what a compiler or performance debugger
//! pays per basic block), measured per suite of 200 SPEC-like blocks.

use criterion::{criterion_group, criterion_main, Criterion};
use palmed_baselines::{IacaLikePredictor, McaLikePredictor, UopsStylePredictor};
use palmed_core::{Palmed, PalmedConfig, ThroughputPredictor};
use palmed_eval::suite::{generate_suite, SuiteConfig, SuiteKind};
use palmed_isa::InventoryConfig;
use palmed_machine::{presets, AnalyticMeasurer, MemoizingMeasurer};

fn bench_prediction(c: &mut Criterion) {
    let preset = presets::skl_sp(&InventoryConfig::small());
    let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
    let palmed = Palmed::new(PalmedConfig::evaluation()).infer(&measurer).mapping;
    let uops = UopsStylePredictor::new(preset.mapping_arc());
    let iaca = IacaLikePredictor::new(preset.mapping_arc());
    let mca = McaLikePredictor::new(preset.mapping_arc());

    let blocks = generate_suite(
        SuiteKind::SpecLike,
        &preset.instructions,
        &SuiteConfig { num_blocks: 200, ..SuiteConfig::small(13) },
    );

    let mut group = c.benchmark_group("prediction_per_200_blocks");
    let tools: Vec<(&str, &dyn ThroughputPredictor)> = vec![
        ("palmed", &palmed),
        ("uops-style", &uops),
        ("iaca-like", &iaca),
        ("llvm-mca-like", &mca),
    ];
    for (name, tool) in tools {
        group.bench_function(name, |b| {
            b.iter(|| {
                blocks.iter().filter_map(|block| tool.predict_ipc(&block.kernel)).sum::<f64>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_prediction);
criterion_main!(benches);
