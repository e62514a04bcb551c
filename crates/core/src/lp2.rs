//! LP2 — the Bipartite Weight Problem (Algorithm 4).
//!
//! Given the shape found by LP1 (allowed edges) and the set of measured
//! benchmarks, LP2 assigns a weight `ρ_{i,r} ∈ [0, 1]` to every edge so that
//! the conjunctive model reproduces the measured IPCs as closely as
//! possible.  For a benchmark `K` with measured throughput `ipc(K)`, the
//! relative usage of resource `r` is
//!
//! ```text
//! ρ_{K,r} = ( Σ_i σ_{K,i} ρ_{i,r} ) · ipc(K) / |K|      (≤ 1)
//! ```
//!
//! and the model is exact for `K` when some resource saturates
//! (`S_K = max_r ρ_{K,r} = 1`).  The objective is to minimise the total
//! prediction slack `Σ_K (1 − S_K)`.
//!
//! `S_K` is a maximum, so maximising `Σ_K S_K` is not directly an LP.  The
//! paper solves the full problem as one MILP, with a binary selector per
//! kernel picking its saturating resource.  This reproduction keeps no MILP:
//! [`solve_bwp`] fixes each benchmark's saturating resource, solves the
//! resulting pure LP, re-selects each saturating resource from the new
//! weights and repeats until the selection stabilises — the standard
//! block-coordinate treatment of minimax objectives, which converges in a
//! handful of rounds on Palmed's instances.  It reaches a local optimum of
//! the total slack, not a proven global one.
//!
//! The rounds run on dense arrays.  Before the first round, every basic
//! instruction gets a position and every benchmark its list of
//! `(position, count, count·(1/|K|))` entries; a round then holds the
//! weights as one `positions × resources` vector, builds each resource's LP
//! from the entries, and evaluates each `(kernel, resource)` usage exactly
//! once.  No map is looked up inside the alternation.

use crate::conjunctive::ConjunctiveMapping;
use crate::lp1::ShapeMapping;
use palmed_isa::{InstId, Microkernel};
use palmed_lp::{LinExpr, LpError, Problem, Sense, VarId};

/// Maximum number of alternating rounds of [`solve_bwp`].
pub const MAX_ROUNDS: usize = 8;

/// Smallest drop of the total slack that counts as an improvement between
/// rounds.
pub const SLACK_TOLERANCE: f64 = 1e-6;

/// Result of the weight assignment.
#[derive(Debug, Clone)]
pub struct BwpSolution {
    /// The core conjunctive mapping (basic instructions only).
    pub mapping: ConjunctiveMapping,
    /// Per benchmark, the achieved saturation `S_K` (1 = perfectly explained).
    pub saturation: Vec<f64>,
    /// Total slack `Σ_K (1 − S_K)` (the LP2 objective).
    pub total_slack: f64,
}

/// One instruction of a benchmark, as the rounds read it.
struct Entry {
    /// Position of the instruction in `shape.allowed` order; the position
    /// one past the last basic instruction stands for every instruction
    /// outside the shape, whose weights are always zero.
    pos: usize,
    /// Multiplicity `σ_{K,i}`.
    count: u32,
    /// `σ_{K,i} · (1/|K|)`: the instruction's LP coefficient before the
    /// IPC scale.
    share: f64,
}

/// A benchmark, precomputed once before the rounds.
struct Bench {
    /// Its instructions, in kernel order.
    entries: Vec<Entry>,
    /// Measured IPC.
    ipc: f64,
    /// `ipc / |K|`, the scale of its usage evaluation.
    scale: f64,
}

/// Solves the BWP with the alternating (argmax re-selection) strategy.
///
/// Every basic instruction gets a position in `shape.allowed` order, and
/// every benchmark its `(position, count, count·(1/|K|))` entries, once
/// before the rounds.  A round then keeps its state in dense arrays: the
/// weights are one `positions × resources` row-major vector, reset to zero,
/// and each resource's LP maps a position to its variable through a dense
/// table.  The usage `ρ_{K,r}` of every benchmark and resource is evaluated
/// exactly once per round, one benchmark at a time into a single
/// `num_resources` scratch row, which yields both `S_K` and the next
/// saturating-resource choice.
///
/// # Errors
///
/// Propagates LP solver failures; the model is always feasible (all weights
/// zero), so failures indicate solver-level problems.
pub fn solve_bwp(
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

    // Positions in `shape.allowed` order (sorted by id); `outside` is the
    // zero row.
    let insts: Vec<InstId> = shape.allowed.keys().copied().collect();
    let outside = insts.len();
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); num_resources];
    for (p, allowed) in shape.allowed.values().enumerate() {
        for &r in allowed {
            users[r].push(p);
        }
    }
    let benches: Vec<Bench> = kernels
        .iter()
        .map(|(kernel, ipc)| {
            let total = kernel.total_instructions() as f64;
            let inverse = 1.0 / total;
            let entries = kernel
                .iter()
                .map(|(inst, count)| Entry {
                    pos: insts.binary_search(&inst).unwrap_or(outside),
                    count,
                    share: count as f64 * inverse,
                })
                .collect();
            Bench { entries, ipc: *ipc, scale: ipc / total }
        })
        .collect();

    // Initial saturating-resource guess for every kernel: the allowed
    // resource covering the largest share of the kernel, preferring *more
    // private* resources (fewer users in the shape) on ties.  The private
    // preference matters for single-instruction benchmarks: an instruction
    // saturates its own resource, and starting from the widely shared one
    // can trap the alternation in a poor local optimum.
    let allowed: Vec<_> = shape.allowed.values().collect();
    let mut coverage = vec![0u64; num_resources];
    let mut chosen: Vec<usize> = benches
        .iter()
        .map(|bench| {
            coverage.fill(0);
            for e in bench.entries.iter().filter(|e| e.pos != outside) {
                for &r in allowed[e.pos] {
                    coverage[r] += u64::from(e.count);
                }
            }
            // privacy bonus: fewer users ranks higher on equal coverage
            (0..num_resources)
                .max_by_key(|&r| (coverage[r], usize::MAX - users[r].len()))
                .unwrap_or(0)
        })
        .collect();

    let mut weights = vec![0.0; (outside + 1) * num_resources];
    let mut var_of: Vec<Option<VarId>> = vec![None; outside + 1];
    let mut usage = vec![0.0; num_resources];
    let mut best: Option<BwpSolution> = None;
    for _ in 0..MAX_ROUNDS {
        palmed_obs::counter!("trainer.lp2.rounds").inc();
        // For a fixed choice of saturating resource per kernel, the LP
        // decomposes by resource: the variables `ρ_{i,r}` of resource `r`
        // only appear in the `ρ_{K,r} ≤ 1` constraints of that same resource
        // and in the objective terms of the kernels whose chosen resource is
        // `r`.  Solving one small LP per resource is therefore exact and
        // avoids building one tableau with |K|·|R| rows.
        weights.fill(0.0);
        for (r, users) in users.iter().enumerate() {
            if users.is_empty() {
                continue;
            }
            let mut problem = Problem::new(Sense::Maximize);
            for &p in users {
                var_of[p] = Some(problem.add_var(format!("rho_{}_{r}", insts[p]), 0.0, 1.0));
            }
            // Row `ρ_{K,r} ≤ 1` of every kernel touching a user of `r`, and
            // its terms once more in the objective when `r` is its choice.
            let mut objective = LinExpr::new();
            for (bench, &choice) in benches.iter().zip(&chosen) {
                let mut row = LinExpr::new();
                let mut touched = false;
                for e in &bench.entries {
                    if let Some(v) = var_of[e.pos] {
                        touched = true;
                        let coefficient = bench.ipc * e.share;
                        row.add_term(coefficient, v);
                        if choice == r {
                            objective.add_term(coefficient, v);
                        }
                    }
                }
                if touched {
                    problem.add_le(row, 1.0);
                }
            }
            problem.set_objective(objective);
            // A cold solve.  The saturation objective has many optimal
            // vertices, and the alternating heuristic interprets the
            // returned one (it re-selects each kernel's saturating resource
            // from the weights), so the starting basis changes the mapping.
            let solution = problem.solve()?;
            for &p in users {
                let v = var_of[p].take().expect("every user has a variable");
                weights[p * num_resources + r] = solution[v].max(0.0);
            }
        }

        // Evaluate the true saturation of every kernel under the new weights
        // and re-select each kernel's saturating resource (the last maximum
        // wins a tie).
        let mut saturation = Vec::with_capacity(benches.len());
        let mut next_chosen = Vec::with_capacity(benches.len());
        for bench in &benches {
            for (r, u) in usage.iter_mut().enumerate() {
                *u = bench
                    .entries
                    .iter()
                    .map(|e| e.count as f64 * bench.scale * weights[e.pos * num_resources + r])
                    .sum();
            }
            saturation.push(usage.iter().copied().fold(0.0, f64::max));
            next_chosen.push(
                (0..num_resources)
                    .max_by(|&a, &b| usage[a].partial_cmp(&usage[b]).expect("finite usage"))
                    .unwrap_or(0),
            );
        }
        let total_slack: f64 = saturation.iter().map(|&s| 1.0 - s).sum();
        if best.as_ref().is_none_or(|b| total_slack < b.total_slack - SLACK_TOLERANCE) {
            let mut mapping = ConjunctiveMapping::with_resources(num_resources);
            for (&inst, row) in insts.iter().zip(weights.chunks_exact(num_resources)) {
                mapping.set_usage(inst, row);
            }
            best = Some(BwpSolution { mapping, saturation, total_slack });
        }
        if next_chosen == chosen {
            break;
        }
        chosen = next_chosen;
    }
    Ok(best.expect("at least one round runs"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Hand-built shape reproducing the toy machine: ADD on {0,1}, BSR on
    /// {1}, IMUL on {0} — resources: 0 = "port0-like" (IMUL private),
    /// 1 = "port1-like" (BSR private), 2 = shared r01.
    fn toy_shape() -> (ShapeMapping, Vec<(Microkernel, f64)>, InstId, InstId, InstId) {
        let add = InstId(0);
        let bsr = InstId(1);
        let imul = InstId(2);
        let mut shape = ShapeMapping { num_resources: 3, ..Default::default() };
        shape.allowed.insert(add, BTreeSet::from([2]));
        shape.allowed.insert(bsr, BTreeSet::from([1, 2]));
        shape.allowed.insert(imul, BTreeSet::from([0, 2]));
        // Ground truth IPCs on the toy machine.
        let kernels = vec![
            (Microkernel::single(add), 2.0),
            (Microkernel::single(bsr), 1.0),
            (Microkernel::single(imul), 1.0),
            (Microkernel::pair(add, 2, bsr, 1), 2.0),
            (Microkernel::pair(add, 2, imul, 1), 2.0),
            (Microkernel::pair(bsr, 1, imul, 1), 2.0),
            (Microkernel::from_counts([(add, 2), (bsr, 1), (imul, 1)]), 2.0),
        ];
        shape.kernels = kernels.clone();
        (shape, kernels, add, bsr, imul)
    }

    #[test]
    fn alternating_bwp_recovers_sensible_weights() {
        let (shape, kernels, add, bsr, imul) = toy_shape();
        let sol = solve_bwp(&shape, &kernels).unwrap();
        let m = &sol.mapping;
        // ADD saturates the shared resource at 1/2 per instance (IPC 2).
        assert!(
            (m.usage(add, crate::ResourceId(2)) - 0.5).abs() < 0.05,
            "{}",
            m.usage(add, crate::ResourceId(2))
        );
        // BSR's bottleneck is its private resource with weight ~1.
        assert!(m.usage(bsr, crate::ResourceId(1)) > 0.9);
        // IMUL's bottleneck is its private resource with weight ~1.
        assert!(m.usage(imul, crate::ResourceId(0)) > 0.9);
        // The model reproduces the benchmark IPCs reasonably well.
        for ((kernel, ipc), s) in kernels.iter().zip(&sol.saturation) {
            let predicted = m.ipc(kernel).unwrap_or(0.0);
            assert!(
                (predicted - ipc).abs() / ipc < 0.25,
                "kernel {kernel}: predicted {predicted}, measured {ipc} (S = {s})"
            );
        }
    }

    #[test]
    fn saturations_never_exceed_one() {
        let (shape, kernels, ..) = toy_shape();
        let sol = solve_bwp(&shape, &kernels).unwrap();
        for &s in &sol.saturation {
            assert!(s <= 1.0 + 1e-6);
            assert!(s >= 0.0);
        }
        assert!(sol.total_slack >= -1e-9);
    }

    #[test]
    fn alternating_bwp_reaches_the_toy_optimum() {
        // The toy's ∇-dual explains every kernel exactly, so the optimal
        // total slack is 0: every kernel saturates some resource.
        let (shape, kernels, ..) = toy_shape();
        let sol = solve_bwp(&shape, &kernels).unwrap();
        for ((kernel, _), &s) in kernels.iter().zip(&sol.saturation) {
            assert!((s - 1.0).abs() <= 1e-9, "kernel {kernel}: S_K = {s}");
        }
        assert!(sol.total_slack <= 1e-9, "total slack {}", sol.total_slack);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let shape = ShapeMapping::default();
        let sol = solve_bwp(&shape, &[]).unwrap();
        assert_eq!(sol.saturation.len(), 0);
        assert_eq!(sol.mapping.num_instructions(), 0);
    }
}
