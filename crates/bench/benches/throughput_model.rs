//! Criterion bench: throughput evaluation on both representations.
//!
//! The paper's central trade-off: computing the throughput of a kernel on a
//! disjunctive port mapping requires solving an assignment problem, whereas
//! the conjunctive mapping is a closed-form maximum.  This bench measures
//! both on the same kernels, plus the cycle-level simulator for reference.

use criterion::{criterion_group, criterion_main, Criterion};
use palmed_core::dual::{dual_of, DualOptions};
use palmed_isa::{InventoryConfig, Microkernel};
use palmed_machine::cycle_sim::{simulate_ipc, SimulationConfig};
use palmed_machine::{presets, throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_kernels(insts: &palmed_isa::InstructionSet, count: usize, seed: u64) -> Vec<Microkernel> {
    let ids: Vec<_> = insts.ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut k = Microkernel::new();
            for _ in 0..rng.gen_range(2..8) {
                k.add(ids[rng.gen_range(0..ids.len())], rng.gen_range(1..4));
            }
            k
        })
        .collect()
}

fn bench_throughput(c: &mut Criterion) {
    let preset = presets::skl_sp(&InventoryConfig::small());
    let mapping = preset.mapping();
    let dual = dual_of(&mapping, &DualOptions::default());
    let kernels = random_kernels(&preset.instructions, 64, 7);

    let mut group = c.benchmark_group("throughput_per_64_kernels");
    group.bench_function("disjunctive_optimal_assignment", |b| {
        b.iter(|| kernels.iter().map(|k| throughput::ipc(&mapping, k)).sum::<f64>())
    });
    group.bench_function("conjunctive_closed_form", |b| {
        b.iter(|| kernels.iter().map(|k| dual.ipc(k).unwrap_or(0.0)).sum::<f64>())
    });
    group.finish();

    let mut sim_group = c.benchmark_group("cycle_simulation");
    sim_group.sample_size(10);
    let config = SimulationConfig { warmup_cycles: 50, measured_cycles: 500 };
    sim_group.bench_function("greedy_cycle_sim_8_kernels", |b| {
        b.iter(|| {
            kernels.iter().take(8).map(|k| simulate_ipc(&mapping, k, &config).ipc).sum::<f64>()
        })
    });
    sim_group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
