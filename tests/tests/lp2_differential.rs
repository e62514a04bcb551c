//! Differential test of LP2's alternation (`palmed_core::lp2::solve_bwp`).
//!
//! `solve_bwp` keeps its round state in dense arrays and evaluates every
//! kernel's usage once per round.  The reference below is the alternation as
//! it was written before that layout: `BTreeMap`s keyed by instruction id,
//! each LP row cloned into the problem, and the usages re-evaluated for the
//! saturation and for every comparison of the argmax.  Both must agree to
//! the bit on every usage, every saturation and the total slack, on the toy
//! shape, on the shapes of the pinned simulated and analytic trainings, and
//! on seeded random shapes.

use palmed_core::lp1::ShapeMapping;
use palmed_core::lp2::{solve_bwp, BwpSolution, MAX_ROUNDS, SLACK_TOLERANCE};
use palmed_core::{ConjunctiveMapping, Palmed, PalmedConfig};
use palmed_isa::{InstId, InventoryConfig, Microkernel};
use palmed_lp::{LinExpr, LpError, Problem, Sense, VarId};
use palmed_machine::{
    presets, AnalyticMeasurer, BackendKind, BackendMeasurer, MeasurementNoise, Measurer,
    MemoizingMeasurer, SimulationConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The `BTreeMap` alternation, kept as the differential reference.
fn reference_solve_bwp(
    shape: &ShapeMapping,
    kernels: &[(Microkernel, f64)],
) -> Result<BwpSolution, LpError> {
    let num_resources = shape.num_resources;
    if num_resources == 0 || kernels.is_empty() {
        return Ok(BwpSolution {
            mapping: ConjunctiveMapping::with_resources(num_resources),
            saturation: vec![0.0; kernels.len()],
            total_slack: kernels.len() as f64,
        });
    }

    let users_per_resource: Vec<usize> =
        (0..num_resources).map(|r| shape.users_of(r).len()).collect();
    let mut chosen: Vec<usize> = kernels
        .iter()
        .map(|(kernel, _)| {
            (0..num_resources)
                .max_by_key(|&r| {
                    let coverage: u64 = kernel
                        .iter()
                        .filter(|&(i, _)| shape.allowed.get(&i).is_some_and(|s| s.contains(&r)))
                        .map(|(_, c)| c as u64)
                        .sum();
                    (coverage, usize::MAX - users_per_resource[r])
                })
                .unwrap_or(0)
        })
        .collect();

    let mut best: Option<BwpSolution> = None;
    for _ in 0..MAX_ROUNDS {
        let mut weights: BTreeMap<(InstId, usize), f64> = BTreeMap::new();
        for r in 0..num_resources {
            let users = shape.users_of(r);
            if users.is_empty() {
                continue;
            }
            let mut problem = Problem::new(Sense::Maximize);
            let vars: BTreeMap<InstId, VarId> = users
                .iter()
                .map(|&i| (i, problem.add_var(format!("rho_{i}_{r}"), 0.0, 1.0)))
                .collect();
            let usage_expr = |kernel: &Microkernel| {
                let scale = 1.0 / kernel.total_instructions() as f64;
                let mut usage = LinExpr::new();
                for (inst, count) in kernel.iter() {
                    if let Some(&v) = vars.get(&inst) {
                        usage.add_term(count as f64 * scale, v);
                    }
                }
                usage
            };
            let mut objective = LinExpr::new();
            for (k, (kernel, ipc)) in kernels.iter().enumerate() {
                let mut usage = usage_expr(kernel);
                if usage.is_constant() {
                    continue;
                }
                usage = {
                    let mut scaled = LinExpr::new();
                    scaled.add_scaled(*ipc, &usage);
                    scaled
                };
                problem.add_le(usage.clone(), 1.0);
                if chosen[k] == r {
                    objective.add_scaled(1.0, &usage);
                }
            }
            problem.set_objective(objective);
            let solution = problem.solve()?;
            for (&inst, &v) in &vars {
                weights.insert((inst, r), solution[v].max(0.0));
            }
        }

        let usage_of = |kernel: &Microkernel, ipc: f64, r: usize| -> f64 {
            let scale = ipc / kernel.total_instructions() as f64;
            kernel
                .iter()
                .map(|(inst, count)| {
                    count as f64 * scale * weights.get(&(inst, r)).copied().unwrap_or(0.0)
                })
                .sum()
        };
        let saturation: Vec<f64> = kernels
            .iter()
            .map(|(kernel, ipc)| {
                (0..num_resources).map(|r| usage_of(kernel, *ipc, r)).fold(0.0, f64::max)
            })
            .collect();
        let total_slack: f64 = saturation.iter().map(|&s| 1.0 - s).sum();
        let mut mapping = ConjunctiveMapping::with_resources(num_resources);
        for (&inst, allowed) in &shape.allowed {
            let mut usage = vec![0.0; num_resources];
            for &r in allowed {
                usage[r] = weights.get(&(inst, r)).copied().unwrap_or(0.0);
            }
            mapping.set_usage(inst, usage);
        }
        let improved = best.as_ref().is_none_or(|b| total_slack < b.total_slack - SLACK_TOLERANCE);
        let next_chosen: Vec<usize> = kernels
            .iter()
            .map(|(kernel, ipc)| {
                (0..num_resources)
                    .max_by(|&a, &b| {
                        usage_of(kernel, *ipc, a)
                            .partial_cmp(&usage_of(kernel, *ipc, b))
                            .expect("finite usage")
                    })
                    .unwrap_or(0)
            })
            .collect();
        if improved {
            best = Some(BwpSolution { mapping, saturation, total_slack });
        }
        if next_chosen == chosen {
            break;
        }
        chosen = next_chosen;
    }
    Ok(best.expect("at least one round runs"))
}

/// Solves `shape` both ways and asserts bitwise equality of every output.
fn assert_matches_reference(shape: &ShapeMapping, what: &str) -> BwpSolution {
    let got = solve_bwp(shape, &shape.kernels).expect("solve_bwp");
    let want = reference_solve_bwp(shape, &shape.kernels).expect("reference");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(got.mapping.num_resources(), want.mapping.num_resources(), "{what}");
    let insts: Vec<InstId> = want.mapping.instructions().collect();
    assert_eq!(got.mapping.instructions().collect::<Vec<_>>(), insts, "{what}");
    for &i in &insts {
        assert_eq!(
            bits(got.mapping.usage_vector(i).unwrap()),
            bits(want.mapping.usage_vector(i).unwrap()),
            "{what}: usage of {i}"
        );
    }
    assert_eq!(bits(&got.saturation), bits(&want.saturation), "{what}: saturations");
    assert_eq!(got.total_slack.to_bits(), want.total_slack.to_bits(), "{what}: total slack");
    got
}

#[test]
fn toy_shape_matches_the_reference() {
    let (add, bsr, imul) = (InstId(0), InstId(1), InstId(2));
    let mut shape = ShapeMapping { num_resources: 3, ..Default::default() };
    shape.allowed.insert(add, BTreeSet::from([2]));
    shape.allowed.insert(bsr, BTreeSet::from([1, 2]));
    shape.allowed.insert(imul, BTreeSet::from([0, 2]));
    shape.kernels = vec![
        (Microkernel::single(add), 2.0),
        (Microkernel::single(bsr), 1.0),
        (Microkernel::single(imul), 1.0),
        (Microkernel::pair(add, 2, bsr, 1), 2.0),
        (Microkernel::pair(add, 2, imul, 1), 2.0),
        (Microkernel::pair(bsr, 1, imul, 1), 2.0),
        (Microkernel::from_counts([(add, 2), (bsr, 1), (imul, 1)]), 2.0),
    ];
    let solution = assert_matches_reference(&shape, "toy");
    assert!(solution.total_slack <= 1e-9, "toy total slack {}", solution.total_slack);
}

/// The shape LP2 solves in the pinned trainings of `end_to_end.rs`.
fn training_shape<M: Measurer + Sync>(measurer: &M) -> ShapeMapping {
    let all: Vec<InstId> = measurer.instructions().ids().collect();
    Palmed::new(PalmedConfig::evaluation()).core_shape(measurer, &all)
}

#[test]
fn pinned_simulated_training_shape_matches_the_reference() {
    let preset = presets::skl_sp(&InventoryConfig::small());
    let measurer = MemoizingMeasurer::new(BackendMeasurer::new(
        BackendKind::Simulation(SimulationConfig { warmup_cycles: 100, measured_cycles: 1_000 }),
        preset.mapping_arc(),
        MeasurementNoise::realistic(2022),
    ));
    let shape = training_shape(&measurer);
    assert!(shape.num_resources > 1 && shape.kernels.len() > 100, "{}", shape.kernels.len());
    assert_matches_reference(&shape, "simulated training");
}

#[test]
fn pinned_analytic_training_shape_matches_the_reference() {
    let preset = presets::skl_sp(&InventoryConfig::small());
    let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
    let shape = training_shape(&measurer);
    assert!(shape.num_resources > 1 && shape.kernels.len() > 100, "{}", shape.kernels.len());
    assert_matches_reference(&shape, "analytic training");
}

/// A random shape over the even instruction ids `0, 2, ...`; kernels also
/// draw odd ids and `InstId(1000)`, which lie outside the shape.  Some
/// resources share one user set, and IPCs come from a small set half of the
/// time, so usages tie.
fn random_shape(rng: &mut StdRng) -> ShapeMapping {
    let num_basic = rng.gen_range(1..=8usize);
    let num_resources = rng.gen_range(1..=6usize);
    let mut shape = ShapeMapping { num_resources, ..Default::default() };
    for b in 0..num_basic {
        let set: BTreeSet<usize> = (0..num_resources).filter(|_| rng.gen_bool(0.5)).collect();
        shape.allowed.insert(InstId(2 * b as u32), set);
    }
    if num_resources > 1 && rng.gen_bool(0.3) {
        // Resource `to` gets exactly the users of `from`.
        let from = rng.gen_range(0..num_resources);
        let to = (from + 1) % num_resources;
        for set in shape.allowed.values_mut() {
            if set.contains(&from) {
                set.insert(to);
            } else {
                set.remove(&to);
            }
        }
    }
    if rng.gen_bool(0.3) {
        let unused = rng.gen_range(0..num_resources);
        for set in shape.allowed.values_mut() {
            set.remove(&unused);
        }
    }
    let mut pool: Vec<InstId> = (0..2 * num_basic as u32 + 1).map(InstId).collect();
    pool.push(InstId(1000));
    const IPCS: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 3.0];
    for _ in 0..rng.gen_range(1..=14usize) {
        let mut kernel = Microkernel::new();
        for _ in 0..rng.gen_range(1..=4usize) {
            kernel.add(pool[rng.gen_range(0..pool.len())], rng.gen_range(1..=4u32));
        }
        let ipc = if rng.gen_bool(0.5) {
            IPCS[rng.gen_range(0..IPCS.len())]
        } else {
            rng.gen_range(0.2..4.0)
        };
        shape.kernels.push((kernel, ipc));
    }
    shape
}

#[test]
fn random_shapes_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(32);
    let (mut outside, mut unused, mut untouched, mut tied) = (0, 0, 0, 0);
    for case in 0..200 {
        let shape = random_shape(&mut rng);
        let solution = assert_matches_reference(&shape, &format!("random shape {case}"));

        // Count the cases each shape property occurs in.
        let users: Vec<Vec<InstId>> = (0..shape.num_resources).map(|r| shape.users_of(r)).collect();
        let kernels = &shape.kernels;
        outside +=
            kernels.iter().any(|(k, _)| k.instructions().any(|i| !shape.allowed.contains_key(&i)))
                as usize;
        unused += users.iter().any(Vec::is_empty) as usize;
        untouched += users.iter().any(|u| {
            !u.is_empty() && kernels.iter().any(|(k, _)| !u.iter().any(|&i| k.contains(i)))
        }) as usize;
        tied += kernels.iter().any(|(kernel, ipc)| {
            let load = solution.mapping.kernel_load(kernel);
            let scale = ipc / kernel.total_instructions() as f64;
            let mut usage: Vec<f64> = load.iter().map(|l| l * scale).collect();
            usage.sort_by(|a, b| b.partial_cmp(a).unwrap());
            usage.len() > 1 && usage[0] > 0.0 && usage[0] == usage[1]
        }) as usize;
    }
    assert!(
        outside > 20 && unused > 20 && untouched > 20 && tied > 20,
        "{outside} {unused} {untouched} {tied}"
    );
}
