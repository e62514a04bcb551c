//! Saturating kernels (second half of Algorithm 2).
//!
//! For every abstract resource `r` of the core mapping, Palmed keeps one
//! *saturating kernel* `sat[r]`: a microkernel whose execution keeps `r` at
//! (or very near) 100 % utilisation while loading the other resources as
//! little as possible.  The LPAUX phase then measures every remaining
//! instruction *against* these kernels: adding an instruction to a benchmark
//! that already saturates `r` slows the benchmark down by exactly the
//! instruction's own usage of `r`, which is what makes the per-instruction
//! completion a sequence of tiny independent LPs (and what Theorem A.3
//! proves correct).

use crate::conjunctive::{ConjunctiveMapping, ResourceId};
use crate::lp1::ShapeMapping;
use crate::quadratic::{COEFFICIENT_TOLERANCE, MAX_KERNEL_SIZE};
use palmed_isa::Microkernel;

/// Minimum relative usage of a resource for a benchmark to count as
/// saturating it.  The paper requires exactly 1; measurement noise makes a
/// slightly lower bar more robust.
pub const SATURATION_THRESHOLD: f64 = 0.95;

/// Per-resource saturating kernels.
#[derive(Debug, Clone, Default)]
pub struct SaturatingKernels {
    /// `kernels[r]` saturates resource `r` of the core mapping (may be
    /// `None` when no benchmark loads the resource at all — an unused
    /// resource that will be pruned).
    pub kernels: Vec<Option<Microkernel>>,
}

impl SaturatingKernels {
    /// The saturating kernel of a resource, if any.
    pub fn kernel_for(&self, r: ResourceId) -> Option<&Microkernel> {
        self.kernels.get(r.index()).and_then(Option::as_ref)
    }
}

/// Total consumption of a kernel under a mapping: `Σ_i σ_i Σ_r ρ_{i,r}`,
/// normalised per instruction.  The saturating kernel of a resource is the
/// candidate with the *lowest* consumption, i.e. the one that disturbs other
/// resources the least (`cons(K)` in the paper).
pub fn consumption(mapping: &ConjunctiveMapping, kernel: &Microkernel) -> f64 {
    let total: f64 = kernel.iter().map(|(i, c)| c as f64 * mapping.consumption(i)).sum();
    total / kernel.total_instructions().max(1) as f64
}

/// Selects a saturating kernel for every resource of `mapping` among the
/// benchmarks accumulated by LP1/LP2, completing with freshly built kernels
/// when no measured benchmark saturates a resource.
///
/// A benchmark saturates `r` when its predicted relative usage of `r` is at
/// least [`SATURATION_THRESHOLD`].
pub fn select_saturating_kernels(
    mapping: &ConjunctiveMapping,
    shape: &ShapeMapping,
) -> SaturatingKernels {
    let num_resources = mapping.num_resources();
    let mut kernels: Vec<Option<Microkernel>> = vec![None; num_resources];

    for r in mapping.resources() {
        let mut best: Option<(&Microkernel, f64)> = None;
        for (kernel, ipc) in &shape.kernels {
            let load = mapping.kernel_load(kernel);
            let usage = load[r.index()] * ipc / kernel.total_instructions() as f64;
            if usage + 1e-9 < SATURATION_THRESHOLD {
                continue;
            }
            let cons = consumption(mapping, kernel);
            if best.is_none_or(|(_, c)| cons < c) {
                best = Some((kernel, cons));
            }
        }
        if let Some((kernel, _)) = best {
            kernels[r.index()] = Some(kernel.clone());
        } else {
            // Fall back: build a kernel from the users of the resource,
            // weighted by how much of it each uses (heavier users repeated
            // more to reach saturation quickly).
            let users: Vec<_> =
                mapping.instructions().filter(|&i| mapping.usage(i, r) > 1e-9).collect();
            if users.is_empty() {
                continue;
            }
            let kernel = Microkernel::from_proportions(
                users.iter().map(|&i| {
                    let u = mapping.usage(i, r);
                    // Repeat inversely to usage so the mix is balanced.
                    (i, 1.0 / u.max(1e-3))
                }),
                COEFFICIENT_TOLERANCE,
                MAX_KERNEL_SIZE,
            );
            if !kernel.is_empty() {
                kernels[r.index()] = Some(kernel);
            }
        }
    }
    SaturatingKernels { kernels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_isa::InstId;
    use std::collections::BTreeSet;

    /// The toy mapping of the LP2 tests: ADD -> r2 (0.5), BSR -> r1 (1.0) and
    /// r2 (0.5), IMUL -> r0 (1.0) and r2 (0.5).
    fn toy() -> (ConjunctiveMapping, ShapeMapping, InstId, InstId, InstId) {
        let add = InstId(0);
        let bsr = InstId(1);
        let imul = InstId(2);
        let mut mapping = ConjunctiveMapping::with_resources(3);
        mapping.set_usage(add, vec![0.0, 0.0, 0.5]);
        mapping.set_usage(bsr, vec![0.0, 1.0, 0.5]);
        mapping.set_usage(imul, vec![1.0, 0.0, 0.5]);
        let mut shape = ShapeMapping { num_resources: 3, ..Default::default() };
        shape.allowed.insert(add, BTreeSet::from([2]));
        shape.allowed.insert(bsr, BTreeSet::from([1, 2]));
        shape.allowed.insert(imul, BTreeSet::from([0, 2]));
        shape.kernels = vec![
            (Microkernel::single(add), 2.0),
            (Microkernel::single(bsr), 1.0),
            (Microkernel::single(imul), 1.0),
            (Microkernel::pair(add, 2, bsr, 1), 2.0),
            (Microkernel::pair(bsr, 1, imul, 1), 2.0),
        ];
        (mapping, shape, add, bsr, imul)
    }

    #[test]
    fn every_resource_gets_a_saturating_kernel() {
        let (mapping, shape, ..) = toy();
        let sat = select_saturating_kernels(&mapping, &shape);
        assert_eq!(sat.kernels.iter().flatten().count(), 3);
    }

    #[test]
    fn private_resources_are_saturated_by_their_owner_alone() {
        let (mapping, shape, _, bsr, imul) = toy();
        let sat = select_saturating_kernels(&mapping, &shape);
        // r1 is BSR's private resource: the lowest-consumption saturating
        // benchmark is BSR alone (cons 1.5), not the BSR+IMUL pair (cons 2.25... /2).
        let k1 = sat.kernel_for(ResourceId(1)).unwrap();
        assert!(k1.contains(bsr));
        assert_eq!(k1.num_distinct(), 1);
        let k0 = sat.kernel_for(ResourceId(0)).unwrap();
        assert!(k0.contains(imul));
        assert_eq!(k0.num_distinct(), 1);
    }

    #[test]
    fn shared_resource_prefers_the_cheapest_saturating_benchmark() {
        let (mapping, shape, add, ..) = toy();
        let sat = select_saturating_kernels(&mapping, &shape);
        // r2 is saturated by `ADD` alone (usage 0.5 * IPC 2 = 1, cons 0.5) —
        // cheaper than any pair.
        let k2 = sat.kernel_for(ResourceId(2)).unwrap();
        assert!(k2.contains(add));
        assert_eq!(k2.num_distinct(), 1);
    }

    #[test]
    fn missing_saturating_benchmark_triggers_fallback_construction() {
        let (mapping, mut shape, ..) = toy();
        shape.kernels.clear(); // no measured benchmark at all
        let sat = select_saturating_kernels(&mapping, &shape);
        // Fallback kernels are built from the mapping itself.
        assert_eq!(sat.kernels.iter().flatten().count(), 3);
    }

    #[test]
    fn consumption_is_per_instruction_average() {
        let (mapping, _, add, bsr, _) = toy();
        let k = Microkernel::pair(add, 2, bsr, 1);
        // (2*0.5 + 1*1.5) / 3
        assert!((consumption(&mapping, &k) - (2.0 * 0.5 + 1.5) / 3.0).abs() < 1e-12);
    }
}
