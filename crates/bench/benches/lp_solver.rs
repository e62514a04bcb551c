//! Criterion bench: the LP substrate.
//!
//! Palmed's scalability argument (Table II: two hours of LP solving for
//! ~2500 instructions) rests on every individual solve being small.  This
//! bench tracks the cost of representative LP instances as the problem size
//! grows, for the sparse revised simplex behind `Problem::solve` (every solve
//! certified by its own duals):
//!
//! * `lp_revised/transportation/*` — dense-objective, sparse-matrix
//!   assignment LPs (2n equality/inequality rows over n² variables);
//! * `lp_revised/band/*` — band-structured LPs with finite upper bounds on
//!   every variable, the shape the bounded-variable rule is built for;
//! * `lp2/solve_bwp/train_sim` — one whole LP2 alternation
//!   (`palmed_core::lp2::solve_bwp`: its per-resource solves and the round
//!   bookkeeping around them) on the shape of palbench's `train_sim`
//!   training: skl-sp-like, small inventory, cycle simulator at 100 + 1000
//!   cycles, noise seed 2022.
//!
//! The committed `BENCH_lp.json` at the repository root records these
//! numbers for two builds measured back to back on one machine, each run
//! dumped by `CRITERION_JSON=<path> cargo bench -p palmed-bench --bench
//! lp_solver`; it holds exactly the groups above.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use palmed_core::lp2::solve_bwp;
use palmed_core::{Palmed, PalmedConfig};
use palmed_isa::{InstId, InventoryConfig};
use palmed_lp::{Problem, Sense};
use palmed_machine::{
    presets, BackendKind, BackendMeasurer, MeasurementNoise, MemoizingMeasurer, SimulationConfig,
};

/// A dense transportation-style LP with `n` sources and `n` sinks.
fn transportation_lp(n: usize) -> Problem {
    let mut p = Problem::new(Sense::Minimize);
    let mut vars = Vec::new();
    for i in 0..n {
        for j in 0..n {
            vars.push(p.add_var(format!("x_{i}_{j}"), 0.0, f64::INFINITY));
        }
    }
    for i in 0..n {
        let mut row = p.expr();
        for j in 0..n {
            row.add_term(1.0, vars[i * n + j]);
        }
        p.add_eq(row, 1.0 + i as f64);
    }
    for j in 0..n {
        let mut col = p.expr();
        for i in 0..n {
            col.add_term(1.0, vars[i * n + j]);
        }
        p.add_ge(col, 0.5 + j as f64 * 0.5);
    }
    let mut obj = p.expr();
    for (k, &v) in vars.iter().enumerate() {
        obj.add_term(1.0 + (k % 7) as f64, v);
    }
    p.set_objective(obj);
    p
}

/// A band-structured LP: `n` variables with finite upper bounds, each
/// constraint touching three consecutive variables.  Every row has 3
/// non-zeros and every variable carries a `[0, 2]` box, which the
/// bounded-variable solver handles implicitly (no bound rows).
fn band_lp(n: usize) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..n).map(|i| p.add_var(format!("x{i}"), 0.0, 2.0)).collect();
    for i in 0..n.saturating_sub(2) {
        let row = p.expr().term(1.0, vars[i]).term(1.0, vars[i + 1]).term(1.0, vars[i + 2]);
        p.add_le(row, 2.5 + (i % 3) as f64);
    }
    let mut obj = p.expr();
    for (i, &v) in vars.iter().enumerate() {
        obj.add_term(1.0 + (i % 5) as f64 * 0.25, v);
    }
    p.set_objective(obj);
    p
}

fn bench_revised(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_revised");
    for n in [8usize, 16, 32, 48] {
        let problem = transportation_lp(n);
        group.bench_with_input(BenchmarkId::new("transportation", n * n), &problem, |b, p| {
            b.iter(|| p.solve().expect("feasible LP"))
        });
        let problem = band_lp(n * n / 2);
        group.bench_with_input(BenchmarkId::new("band", n * n / 2), &problem, |b, p| {
            b.iter(|| p.solve().expect("feasible LP"))
        });
    }
    group.finish();
}

fn bench_lp2(c: &mut Criterion) {
    let preset = presets::skl_sp(&InventoryConfig::small());
    let measurer = MemoizingMeasurer::new(BackendMeasurer::new(
        BackendKind::Simulation(SimulationConfig { warmup_cycles: 100, measured_cycles: 1_000 }),
        preset.mapping_arc(),
        MeasurementNoise::realistic(2022),
    ));
    let all: Vec<InstId> = preset.instructions.ids().collect();
    let shape = Palmed::new(PalmedConfig::evaluation()).core_shape(&measurer, &all);
    let mut group = c.benchmark_group("lp2");
    group.bench_function("solve_bwp/train_sim", |b| {
        b.iter(|| solve_bwp(&shape, &shape.kernels).expect("the BWP is always feasible"))
    });
    group.finish();
}

criterion_group!(benches, bench_revised, bench_lp2);
criterion_main!(benches);
