//! Criterion bench: the Palmed inference pipeline itself.
//!
//! Tracks the end-to-end cost of mapping a machine as the instruction count
//! grows — the scalability story behind Table II ("Palmed maps ~2500
//! instructions in hours where PMEvo needs days").  PMEvo's evolutionary
//! training is measured on the same instruction subsets for comparison.
//!
//! The `campaign` group times the layer that opens every inference: one
//! cold quadratic campaign (`QuadraticCampaign::run`) over the 714 base-ISA
//! instructions of the large inventory, as palbench's `train_analytic`
//! measures it (skl-sp-like, analytic bound, realistic noise at seed 2022):
//!
//! * `campaign/memo` runs it through a fresh `MemoizingMeasurer`, as
//!   `Palmed::infer` does;
//! * `campaign/bare` runs it on the bare `AnalyticMeasurer`, the in-run
//!   floor: `memo` minus `bare` is the memo's bookkeeping;
//! * `campaign/memo_drop` times dropping the filled memo, the teardown
//!   every inference pays.
//!
//! `BENCH_train.json` at the repository root records this group for two
//! builds measured alternately on one machine, each run dumped by
//! `CRITERION_JSON=<path> cargo bench -p palmed-bench --bench
//! inference_pipeline`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use palmed_baselines::{PmEvo, PmEvoConfig};
use palmed_core::quadratic::QuadraticCampaign;
use palmed_core::{Palmed, PalmedConfig};
use palmed_isa::{Extension, InstId, InventoryConfig};
use palmed_machine::{presets, AnalyticMeasurer, MeasurementNoise, Measurer, MemoizingMeasurer};
use std::time::Instant;

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

/// One quadratic campaign over `candidates`, pairing instructions of
/// compatible extensions as the pipeline does.
fn campaign<M: Measurer + Sync>(measurer: &M, candidates: &[InstId]) -> QuadraticCampaign {
    let insts = measurer.instructions();
    QuadraticCampaign::run(measurer, candidates, |a, b| {
        insts.desc(a).extension.compatible_with(insts.desc(b).extension)
    })
}

fn bench_campaign(c: &mut Criterion) {
    let preset = presets::skl_sp(&InventoryConfig::large());
    let insts = &preset.instructions;
    let base: Vec<InstId> =
        insts.ids().filter(|&i| insts.desc(i).extension == Extension::BaseIsa).collect();
    let analytic =
        || AnalyticMeasurer::with_noise(preset.mapping_arc(), MeasurementNoise::realistic(2022));
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.bench_function("memo", |b| {
        b.iter_custom(|_| {
            let memo = MemoizingMeasurer::new(analytic());
            let start = Instant::now();
            criterion::black_box(campaign(&memo, &base));
            let elapsed = start.elapsed();
            drop(memo);
            elapsed
        })
    });
    group.bench_function("bare", |b| {
        b.iter_custom(|_| {
            let bare = analytic();
            let start = Instant::now();
            criterion::black_box(campaign(&bare, &base));
            start.elapsed()
        })
    });
    group.bench_function("memo_drop", |b| {
        b.iter_custom(|_| {
            let memo = MemoizingMeasurer::new(analytic());
            criterion::black_box(campaign(&memo, &base));
            let start = Instant::now();
            drop(memo);
            start.elapsed()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_palmed_inference, bench_pmevo_training, bench_campaign);
criterion_main!(benches);
