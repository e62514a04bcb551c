//! End-to-end integration tests: infer a mapping from measurements only and
//! check that it predicts the throughput of unseen instruction mixes on both
//! evaluation machines.

use palmed_core::{Palmed, PalmedConfig, ThroughputPredictor};
use palmed_integration_tests::{random_kernel, rng};
use palmed_isa::{InstId, InventoryConfig};
use palmed_machine::{
    presets, AnalyticMeasurer, BackendKind, BackendMeasurer, MeasurementNoise, Measurer,
    MemoizingMeasurer, SimulationConfig,
};
use palmed_serve::fingerprint::model_fingerprint;
use palmed_serve::CompiledModel;
use palmed_stats::weighted_rms_relative_error;

fn accuracy_on_random_mixes(
    preset: &palmed_machine::presets::PresetMachine,
    seed: u64,
) -> (f64, f64) {
    let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
    let result = Palmed::new(PalmedConfig::evaluation()).infer(&measurer);
    let predictor = &result.mapping;
    let native = AnalyticMeasurer::new(preset.mapping_arc());

    let ids: Vec<InstId> = preset.instructions.ids().collect();
    let mut r = rng(seed);
    let mut predicted = Vec::new();
    let mut reference = Vec::new();
    for _ in 0..150 {
        let kernel = random_kernel(&ids, &mut r, 6, 3);
        // Skip kernels mixing SSE and AVX, as the benchmark generator does.
        let has_sse = kernel
            .instructions()
            .any(|i| preset.instructions.desc(i).extension == palmed_isa::Extension::Sse);
        let has_avx = kernel
            .instructions()
            .any(|i| preset.instructions.desc(i).extension == palmed_isa::Extension::Avx);
        if has_sse && has_avx {
            continue;
        }
        if let Some(p) = predictor.predict_ipc(&kernel) {
            predicted.push(p);
            reference.push(native.ipc(&kernel));
        }
    }
    let weights = vec![1.0; predicted.len()];
    let rms = weighted_rms_relative_error(&predicted, &reference, &weights);
    let coverage = result.mapping.coverage(&preset.instructions);
    (rms, coverage)
}

#[test]
fn skl_like_machine_is_mapped_accurately() {
    let preset = presets::skl_sp(&InventoryConfig::small());
    let (rms, coverage) = accuracy_on_random_mixes(&preset, 11);
    assert!(coverage > 0.95, "coverage {coverage}");
    assert!(rms < 0.30, "RMS error on SKL-like machine too high: {rms}");
}

#[test]
fn zen_like_machine_is_mapped_with_degraded_but_bounded_accuracy() {
    // The paper observes larger errors on Zen1 (split int/FP pipelines are
    // hard for a resource-minimising model); the reproduction shows the same
    // trend but must stay within a usable bound.
    let preset = presets::zen1(&InventoryConfig::small());
    let (rms, coverage) = accuracy_on_random_mixes(&preset, 13);
    assert!(coverage > 0.95, "coverage {coverage}");
    assert!(rms < 0.45, "RMS error on Zen-like machine too high: {rms}");
}

#[test]
fn inference_is_robust_to_measurement_noise() {
    let preset = presets::paper_ports016();
    let noisy = MemoizingMeasurer::new(AnalyticMeasurer::with_noise(
        preset.mapping_arc(),
        MeasurementNoise::realistic(3),
    ));
    let result = Palmed::new(PalmedConfig::small()).infer(&noisy);
    let predictor = &result.mapping;
    let native = AnalyticMeasurer::new(preset.mapping_arc());
    let ids: Vec<InstId> = preset.instructions.ids().collect();
    let mut r = rng(21);
    let mut worst: f64 = 0.0;
    for _ in 0..60 {
        let kernel = random_kernel(&ids, &mut r, 4, 3);
        if let Some(p) = predictor.predict_ipc(&kernel) {
            let n = native.ipc(&kernel);
            worst = worst.max((p - n).abs() / n);
        }
    }
    assert!(worst < 0.5, "worst-case relative error with noisy measurements: {worst}");
}

#[test]
fn mapping_report_is_consistent_with_the_result() {
    let preset = presets::toy_two_port();
    let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
    let result = Palmed::new(PalmedConfig::small()).infer(&measurer);
    assert_eq!(result.report.instructions_total, preset.instructions.len());
    assert_eq!(result.report.instructions_mapped, result.mapping.num_instructions());
    assert_eq!(result.report.resources_found, result.mapping.num_resources());
    assert!(result.report.benchmarks_generated >= measurer.distinct_kernels() / 2);
}

#[test]
fn simulated_training_reproduces_the_pinned_mapping() {
    // The evaluation configuration on skl-sp-like with the small inventory,
    // measured through the cycle simulator at the Quick settings with the
    // campaign's realistic noise.  The microbenchmark count and the mapping
    // fingerprint are pinned, so a change in what the simulator measures
    // shows up end to end; the generated-benchmark count pins the
    // campaign's bookkeeping.
    let preset = presets::skl_sp(&InventoryConfig::small());
    let measurer = MemoizingMeasurer::new(BackendMeasurer::new(
        BackendKind::Simulation(SimulationConfig { warmup_cycles: 100, measured_cycles: 1_000 }),
        preset.mapping_arc(),
        MeasurementNoise::realistic(2022),
    ));
    let result = Palmed::new(PalmedConfig::evaluation()).infer(&measurer);
    assert_eq!(measurer.distinct_kernels(), 5040);
    assert_eq!(result.report.benchmarks_generated, 5344);
    let model = CompiledModel::compile("pinned", &result.mapping);
    let fingerprint = model_fingerprint(&model, preset.instructions.len());
    assert_eq!(fingerprint, 0x2c5f_ab51_0756_7993, "mapping fingerprint {fingerprint:#018x}");
}

#[test]
fn analytic_training_reproduces_the_pinned_mapping() {
    // The same configuration as above, measured through the noise-free
    // analytic bound instead of the simulator, so the pins guard the
    // campaign's benchmark count and the order of selection's greedy
    // completion on a second measurer.
    let preset = presets::skl_sp(&InventoryConfig::small());
    let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
    let result = Palmed::new(PalmedConfig::evaluation()).infer(&measurer);
    assert_eq!(measurer.distinct_kernels(), 4857);
    assert_eq!(result.report.benchmarks_generated, 5221);
    let model = CompiledModel::compile("pinned", &result.mapping);
    let fingerprint = model_fingerprint(&model, preset.instructions.len());
    assert_eq!(fingerprint, 0xbab8_3227_3468_d28b, "mapping fingerprint {fingerprint:#018x}");
}
