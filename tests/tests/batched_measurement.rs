//! Batched and per-kernel measurement train the same mapping.
//!
//! The trainer's bulk measurements go through `Measurer::ipc_many`, which
//! the memo overrides to lock each shard once per batch.  A measurer that
//! implements only `ipc` (a probe or adapter wrapping the memo) takes the
//! trait's default batch, one memo lookup per kernel.  Both paths must give
//! the same measurements, so the same mapping and the same count of
//! distinct microbenchmarks.

use palmed_core::{Palmed, PalmedConfig};
use palmed_isa::{InstructionSet, InventoryConfig, Microkernel};
use palmed_machine::{
    presets, BackendKind, BackendMeasurer, MeasurementNoise, Measurer, MemoizingMeasurer,
    SimulationConfig,
};
use palmed_serve::fingerprint::model_fingerprint;

/// Forwards `ipc` alone, so batches take the trait's per-kernel default.
struct PerKernel<M>(M);

impl<M: Measurer> Measurer for PerKernel<M> {
    fn ipc(&self, kernel: &Microkernel) -> f64 {
        self.0.ipc(kernel)
    }

    fn instructions(&self) -> &InstructionSet {
        self.0.instructions()
    }

    fn measurement_count(&self) -> usize {
        self.0.measurement_count()
    }
}

/// `(mapping fingerprint, distinct microbenchmarks, generated benchmarks)`
/// of one evaluation-configuration inference.
fn train<M: Measurer + Sync>(measurer: &M, distinct: impl Fn() -> usize) -> (u64, usize, usize) {
    let result = Palmed::new(PalmedConfig::evaluation()).infer(measurer);
    let fingerprint = model_fingerprint(&result.mapping, measurer.instructions().len());
    (fingerprint, distinct(), result.report.benchmarks_generated)
}

fn batched_and_per_kernel_agree(backend: BackendKind) {
    let preset = presets::skl_sp(&InventoryConfig::small());
    let backend =
        || BackendMeasurer::new(backend, preset.mapping_arc(), MeasurementNoise::realistic(2022));

    let memo = MemoizingMeasurer::new(backend());
    let batched = train(&memo, || memo.distinct_kernels());
    let memo = MemoizingMeasurer::new(backend());
    let per_kernel = PerKernel(&memo);
    let per_kernel = train(&per_kernel, || memo.distinct_kernels());

    assert_eq!(
        batched, per_kernel,
        "(fingerprint, distinct kernels, benchmarks) batched vs per kernel"
    );
    assert!(batched.1 > 1000, "the campaign ran ({} kernels)", batched.1);
}

#[test]
fn analytic_training_is_the_same_batched_or_per_kernel() {
    batched_and_per_kernel_agree(BackendKind::Analytic);
}

#[test]
fn simulated_training_is_the_same_batched_or_per_kernel() {
    batched_and_per_kernel_agree(BackendKind::Simulation(SimulationConfig {
        warmup_cycles: 100,
        measured_cycles: 1_000,
    }));
}
