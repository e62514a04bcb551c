//! The compiled predictor: a [`ConjunctiveMapping`] flattened for serving.
//!
//! [`ConjunctiveMapping`] stores usage rows in a `BTreeMap` keyed by
//! [`InstId`] — ideal while the inference pipeline is still inserting and
//! removing rows, but every prediction then pays one tree lookup per distinct
//! instruction.  [`CompiledModel`] freezes the mapping into one dense
//! row-major table: `slots × resources` usages, one row per instruction slot
//! up to the last mapped one, with `+0.0` standing for "no usage".
//! Prediction indexes a row by instruction and adds it, scaled by the
//! instruction's count, into a caller-provided scratch buffer — no
//! allocation, no pointer chasing, and one zipped multiply-add per row that
//! the compiler vectorises.
//!
//! Dense rows beat a sparse (CSR) layout here because the table is small
//! and mostly full once LPAUX has run: the served skl-sp-like model has 423
//! slots × 21 resources with 7,210 non-zero usages (81 % dense), so a CSR
//! walk does a column load and a bounds-checked scatter per stored entry to
//! skip the few zeros, while the dense loop streams whole rows (71 KB
//! against ≈88 KB of CSR arrays).
//!
//! [`CompiledModel`] is the one form a conjunctive model serves from: a
//! registered artifact compiles into it, and a `v2b` load scatters its
//! validated CSR section into it.  Its [`KernelLoad`] impl holds the single
//! dense hot loop; [`KernelLoad`] is the allocation-free serving interface
//! the batch engine is generic over.  [`CompiledModel::to_mapping`] inverts
//! [`CompiledModel::compile`] exactly, so a served model can always hand
//! back the artifact it came from.
//!
//! The arithmetic is [`ConjunctiveMapping`]'s own: each resource's load sums
//! `count · usage` over the kernel's instructions in instruction order.  The
//! dense table adds the same terms in the same order, plus a `count · 0.0 =
//! +0.0` term wherever a row holds no usage (every entry of an unmapped
//! slot's row); instructions past the table are skipped, as the mapping
//! skips unmapped ones.  The accumulator starts at `+0.0` and never becomes
//! `-0.0`, so adding `+0.0` leaves it unchanged; `compile` stores a `-0.0`
//! usage as `+0.0` so that no `-0.0` term exists at all.  Compiled
//! predictions are therefore **bit-identical** to
//! [`ConjunctiveMapping::ipc`] — asserted by the random-mapping tests below
//! and the round-trip property tests.

use palmed_core::{ConjunctiveMapping, ResourceId, ThroughputPredictor};
use palmed_isa::{InstId, Microkernel};
use std::cell::RefCell;

thread_local! {
    /// Reusable load buffer for the borrow-free [`ThroughputPredictor`]
    /// entry points (shared with the disjunctive family in [`crate::disj`]),
    /// so trait-object consumers (e.g. the evaluation campaign) stay
    /// allocation-free per call like the scratch-based API.
    pub(crate) static LOAD_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// A conjunctive mapping compiled into dense rows for allocation-free
/// prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    name: String,
    resource_names: Vec<String>,
    /// Per-slot "has a row" flag, 0 or 1 (an all-zero row still counts as
    /// mapped, exactly like the `BTreeMap` representation).  One byte per
    /// slot, the same layout the `v2b` artifact stores.
    mapped: Vec<u8>,
    /// Row-major usages, `mapped.len() × resource_names.len()` entries;
    /// `+0.0` is "no usage" (and every entry of an unmapped slot).
    usage: Vec<f64>,
}

impl CompiledModel {
    /// Flattens `mapping` into its compiled form under a display name.
    pub fn compile(name: impl Into<String>, mapping: &ConjunctiveMapping) -> Self {
        let num_rows = mapping.instructions().last().map_or(0, |i| i.index() + 1);
        let width = mapping.num_resources();
        let mut mapped = vec![0u8; num_rows];
        let mut usage = vec![0.0; num_rows * width];
        for inst in mapping.instructions() {
            let row = mapping.usage_vector(inst).expect("mapped instruction has a row");
            mapped[inst.index()] = 1;
            let dense = &mut usage[inst.index() * width..][..width];
            for (cell, &value) in dense.iter_mut().zip(row) {
                // `-0.0 != 0.0` is false: a negative zero is stored as `+0.0`.
                if value != 0.0 {
                    *cell = value;
                }
            }
        }
        CompiledModel {
            name: name.into(),
            resource_names: mapping
                .resources()
                .map(|r| mapping.resource_name(r).to_string())
                .collect(),
            mapped,
            usage,
        }
    }

    /// Builds a compiled model from validated dense rows (the binary
    /// artifact codec's load path).  Callers must uphold the
    /// [`CompiledModel::compile`] invariants: `mapped` holds 0/1 flags,
    /// `usage` has `mapped.len() × resource_names.len()` finite entries, no
    /// entry is `-0.0`, and unmapped slots are all `+0.0`.
    pub(crate) fn from_dense_rows(
        name: String,
        resource_names: Vec<String>,
        mapped: Vec<u8>,
        usage: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(usage.len(), mapped.len() * resource_names.len());
        CompiledModel { name, resource_names, mapped, usage }
    }

    /// Number of abstract resources.
    pub fn num_resources(&self) -> usize {
        self.resource_names.len()
    }

    /// Number of mapped instructions.
    pub fn num_instructions(&self) -> usize {
        self.mapped.iter().filter(|&&m| m != 0).count()
    }

    /// Number of non-zero `(instruction, resource)` usage entries.
    pub fn num_entries(&self) -> usize {
        self.usage.iter().filter(|&&value| value != 0.0).count()
    }

    /// Number of row slots: the last mapped instruction index plus one.
    pub(crate) fn num_slots(&self) -> usize {
        self.mapped.len()
    }

    /// Name of a resource.
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.resource_names[r.index()]
    }

    /// The dense usage row of a slot, or `None` past the table.
    fn dense_row(&self, inst: InstId) -> Option<&[f64]> {
        let width = self.resource_names.len();
        (inst.index() < self.mapped.len()).then(|| &self.usage[inst.index() * width..][..width])
    }

    /// Sparse usage row of an instruction: its non-zero `(resource index,
    /// usage)` pairs in ascending resource order.  Empty for unmapped
    /// instructions.
    pub fn row(&self, inst: InstId) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.dense_row(inst)
            .unwrap_or_default()
            .iter()
            .enumerate()
            .filter(|&(_, &value)| value != 0.0)
            .map(|(col, &value)| (col as u32, value))
    }

    /// The mapping this model was compiled from: every mapped slot's dense
    /// row.  The exact inverse of [`CompiledModel::compile`], so a model
    /// rebuilt from its rows renders, compares and predicts like the
    /// original.
    pub fn to_mapping(&self) -> ConjunctiveMapping {
        let rows = (0..self.mapped.len()).filter(|&i| self.mapped[i] != 0).map(|i| {
            let inst = InstId(i as u32);
            (inst, self.dense_row(inst).expect("slot inside the table").to_vec())
        });
        ConjunctiveMapping::from_rows(self.resource_names.clone(), rows)
    }
}

impl KernelLoad for CompiledModel {
    fn num_resources(&self) -> usize {
        self.resource_names.len()
    }

    /// The dense hot loop — the only one in the crate.
    #[inline]
    fn load_into(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) {
        scratch.clear();
        scratch.resize(self.resource_names.len(), 0.0);
        for &(inst, count) in kernel.as_slice() {
            let Some(row) = self.dense_row(inst) else { continue };
            let count = count as f64;
            for (acc, &value) in scratch.iter_mut().zip(row) {
                *acc += count * value;
            }
        }
    }
}

impl ThroughputPredictor for CompiledModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, inst: InstId) -> bool {
        self.mapped.get(inst.index()).is_some_and(|&m| m != 0)
    }

    /// Trait-object entry point, backed by a thread-local scratch buffer so
    /// it stays allocation-free per call.  Explicit hot paths should still
    /// prefer [`KernelLoad::ipc_with`] or a [`BatchPredictor`] (see
    /// [`crate::batch`]).
    ///
    /// [`BatchPredictor`]: crate::BatchPredictor
    fn predict_ipc(&self, kernel: &Microkernel) -> Option<f64> {
        LOAD_SCRATCH.with_borrow_mut(|scratch| self.ipc_with(kernel, scratch))
    }
}

/// The allocation-free serving interface, shared by the conjunctive
/// [`CompiledModel`] and the disjunctive
/// [`CompiledDisjModel`](crate::CompiledDisjModel).  The batch engine
/// ([`BatchPredictor`](crate::BatchPredictor)) is generic over it, so the
/// whole post-inference data plane serves every model family through one
/// code path.
///
/// The provided combinators reproduce the exact arithmetic of
/// [`ConjunctiveMapping::ipc`] and friends, so any implementor whose
/// [`load_into`](KernelLoad::load_into) accumulates the same additions in
/// the same order predicts bit-identically.
pub trait KernelLoad {
    /// Number of abstract resources (the scratch width).
    fn num_resources(&self) -> usize;

    /// Writes the per-resource load of one kernel iteration into `scratch`
    /// (cleared and resized as needed).  Allocation-free once the buffer has
    /// the right capacity.
    fn load_into(&self, kernel: &Microkernel, scratch: &mut Vec<f64>);

    /// A scratch buffer sized for this model, for the `_with` entry points.
    fn scratch(&self) -> Vec<f64> {
        vec![0.0; self.num_resources()]
    }

    /// Execution time `t(K)` of one loop iteration (Def. IV.2).
    fn execution_time_with(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) -> f64 {
        self.load_into(kernel, scratch);
        scratch.iter().copied().fold(0.0, f64::max)
    }

    /// Throughput (IPC) of a microkernel (Def. IV.3), bit-identical to
    /// [`ConjunctiveMapping::ipc`].
    fn ipc_with(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) -> Option<f64> {
        let t = self.execution_time_with(kernel, scratch);
        if t <= 0.0 {
            None
        } else {
            Some(kernel.total_instructions() as f64 / t)
        }
    }

    /// The resource that bottlenecks `kernel`, together with its load.
    fn bottleneck_with(
        &self,
        kernel: &Microkernel,
        scratch: &mut Vec<f64>,
    ) -> Option<(ResourceId, f64)> {
        self.load_into(kernel, scratch);
        let (idx, &max) = scratch
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))?;
        if max > 0.0 {
            Some((ResourceId(idx as u32), max))
        } else {
            None
        }
    }

    /// The model's determinism fingerprint over the pinned probe corpus for
    /// `num_slots` instruction slots (use the artifact's instruction-set
    /// length).  Any two implementors that predict bit-identically — compiled
    /// from an artifact, copied from `v2b` bytes, migrated — fingerprint
    /// identically; see
    /// [`model_fingerprint`](crate::fingerprint::model_fingerprint).
    fn fingerprint(&self, num_slots: usize) -> u64 {
        crate::fingerprint::model_fingerprint(self, num_slots)
    }
}

impl<M: KernelLoad + ?Sized> KernelLoad for &M {
    fn num_resources(&self) -> usize {
        (**self).num_resources()
    }

    fn load_into(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) {
        (**self).load_into(kernel, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> (ConjunctiveMapping, InstId, InstId) {
        let mut m = ConjunctiveMapping::new(vec!["r1".into(), "r01".into(), "r016".into()]);
        let addss = InstId(0);
        let bsr = InstId(3);
        m.set_usage(addss, vec![0.0, 0.5, 1.0 / 3.0]);
        m.set_usage(bsr, vec![1.0, 0.5, 1.0 / 3.0]);
        (m, addss, bsr)
    }

    #[test]
    fn compile_builds_sparse_rows() {
        let (m, addss, bsr) = example();
        let c = CompiledModel::compile("palmed", &m);
        assert_eq!(c.num_resources(), 3);
        assert_eq!(c.num_instructions(), 2);
        // ADDSS has a zero on r1 that `row` skips; BSR keeps all three.
        assert_eq!(c.num_entries(), 5);
        assert_eq!(c.row(addss).collect::<Vec<_>>(), vec![(1, 0.5), (2, 1.0 / 3.0)]);
        assert_eq!(c.row(bsr).count(), 3);
        assert_eq!(c.row(InstId(1)).count(), 0);
        assert_eq!(c.row(InstId(99)).count(), 0);
        assert_eq!(c.to_mapping(), m, "to_mapping inverts compile");
    }

    #[test]
    fn negative_zero_usage_is_stored_as_positive_zero() {
        let mut m = ConjunctiveMapping::with_resources(2);
        m.set_usage(InstId(0), vec![-0.0, 1.0]);
        let c = CompiledModel::compile("palmed", &m);
        assert_eq!(c.num_entries(), 1);
        assert_eq!(c.row(InstId(0)).collect::<Vec<_>>(), vec![(1, 1.0)]);
        let row = c.to_mapping().usage_vector(InstId(0)).unwrap().to_vec();
        assert_eq!(row[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(c.to_mapping(), m);
    }

    #[test]
    fn predictions_are_bit_identical_to_the_mapping() {
        let (m, addss, bsr) = example();
        let c = CompiledModel::compile("palmed", &m);
        let mut scratch = c.scratch();
        let kernels = [
            Microkernel::pair(addss, 2, bsr, 1),
            Microkernel::pair(addss, 1, bsr, 2),
            Microkernel::single(addss).scaled(7),
            Microkernel::pair(addss, 3, InstId(42), 5),
            Microkernel::single(InstId(42)),
            Microkernel::new(),
        ];
        for k in &kernels {
            let reference = m.ipc(k);
            let compiled = c.ipc_with(k, &mut scratch);
            assert_eq!(reference.map(f64::to_bits), compiled.map(f64::to_bits), "kernel {k}");
            assert_eq!(
                m.execution_time(k).to_bits(),
                c.execution_time_with(k, &mut scratch).to_bits()
            );
            assert_eq!(m.bottleneck(k), c.bottleneck_with(k, &mut scratch));
        }
    }

    /// splitmix64: a tiny deterministic generator for the random mappings
    /// below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Random mappings (with `-0.0` and `+0.0` usages, all-zero rows and
    /// unmapped gaps) and random kernels (with instructions past the table
    /// and counts up to `u32::MAX`): the compiled model predicts every
    /// kernel bit-identically to the mapping and inverts back to it.
    #[test]
    fn random_mappings_predict_bit_identically() {
        let mut state = 0x5eed_u64;
        for case in 0..200 {
            let num_resources = (next(&mut state) % 24) as usize;
            let slots = 1 + (next(&mut state) % 40) as u32;
            let mut m = ConjunctiveMapping::with_resources(num_resources);
            for inst in 0..slots {
                if next(&mut state).is_multiple_of(4) {
                    continue;
                }
                let usage = (0..num_resources)
                    .map(|_| match next(&mut state) % 8 {
                        0 => -0.0,
                        1..=3 => 0.0,
                        4 => (next(&mut state) % 4) as f64,
                        _ => (next(&mut state) >> 11) as f64 / (1u64 << 50) as f64,
                    })
                    .collect();
                m.set_usage(InstId(inst), usage);
            }
            let c = CompiledModel::compile("random", &m);
            assert_eq!(c.to_mapping(), m, "case {case}: to_mapping inverts compile");
            let mut scratch = c.scratch();
            for _ in 0..50 {
                let distinct = 1 + next(&mut state) % 6;
                let kernel = if next(&mut state).is_multiple_of(5) {
                    let inst = InstId((next(&mut state) % (slots as u64 + 4)) as u32);
                    let count = u32::MAX - (next(&mut state) % 3) as u32;
                    Microkernel::from_counts([(inst, count)])
                } else {
                    Microkernel::from_counts((0..distinct).map(|_| {
                        let inst = InstId((next(&mut state) % (slots as u64 + 4)) as u32);
                        let count = 1 + (next(&mut state) % (1 << 20)) as u32;
                        (inst, count)
                    }))
                };
                assert_eq!(
                    m.ipc(&kernel).map(f64::to_bits),
                    c.ipc_with(&kernel, &mut scratch).map(f64::to_bits),
                    "case {case}: ipc of {kernel}"
                );
                assert_eq!(
                    m.execution_time(&kernel).to_bits(),
                    c.execution_time_with(&kernel, &mut scratch).to_bits(),
                    "case {case}: execution time of {kernel}"
                );
                let bottleneck = |b: Option<(ResourceId, f64)>| b.map(|(r, l)| (r, l.to_bits()));
                assert_eq!(
                    bottleneck(m.bottleneck(&kernel)),
                    bottleneck(c.bottleneck_with(&kernel, &mut scratch)),
                    "case {case}: bottleneck of {kernel}"
                );
            }
        }
    }

    #[test]
    fn supports_matches_the_mapping_even_for_zero_rows() {
        let mut m = ConjunctiveMapping::with_resources(2);
        m.set_usage(InstId(1), vec![0.0, 0.0]);
        let c = CompiledModel::compile("palmed", &m);
        assert!(!c.supports(InstId(0)));
        assert!(c.supports(InstId(1)));
        assert!(!c.supports(InstId(2)));
        assert_eq!(m.supports(InstId(1)), c.supports(InstId(1)));
        assert_eq!(c.to_mapping(), m, "an all-zero row stays mapped");
    }

    #[test]
    fn trait_path_agrees_with_scratch_path() {
        let (m, addss, bsr) = example();
        let c = CompiledModel::compile("served", &m);
        assert_eq!(c.name(), "served");
        let k = Microkernel::pair(addss, 2, bsr, 1);
        let mut scratch = c.scratch();
        assert_eq!(
            c.predict_ipc(&k).map(f64::to_bits),
            c.ipc_with(&k, &mut scratch).map(f64::to_bits)
        );
        let _ = m;
    }

    #[test]
    fn empty_mapping_compiles() {
        let m = ConjunctiveMapping::with_resources(0);
        let c = CompiledModel::compile("empty", &m);
        assert_eq!(c.num_resources(), 0);
        assert_eq!(c.num_instructions(), 0);
        assert_eq!(c.predict_ipc(&Microkernel::single(InstId(0))), None);
        assert_eq!(c.to_mapping(), m);
    }
}
