//! The compiled predictor: a [`ConjunctiveMapping`] flattened for serving.
//!
//! [`ConjunctiveMapping`] stores usage rows in a `BTreeMap` keyed by
//! [`InstId`] — ideal while the inference pipeline is still inserting and
//! removing rows, but every prediction then pays one tree lookup per distinct
//! instruction plus a dense sweep over all resources (zeros included).
//! [`CompiledModel`] freezes the mapping into a CSR-style arena: a dense
//! `row_ptr` table indexed by instruction, one flat `(resource, usage)` slice
//! per instruction with zero entries dropped, and resource indices kept
//! dense.  Prediction walks two flat arrays and writes into a caller-provided
//! scratch buffer — no allocation, no pointer chasing.
//!
//! [`CompiledModel`] is the one form a conjunctive model serves from: a
//! registered artifact compiles into it, and a `v2b` load copies its
//! validated CSR arrays into it.  Its [`KernelLoad`] impl holds the single
//! CSR hot loop; [`KernelLoad`] is the allocation-free serving interface
//! the batch engine is generic over.  [`CompiledModel::to_mapping`] inverts
//! [`CompiledModel::compile`] exactly, so a served model can always hand
//! back the artifact it came from.
//!
//! The arithmetic performs the same additions in the same order as the
//! `BTreeMap` path (kernels iterate in instruction order in both, and
//! skipping an exact `+ 0.0` cannot change a finite non-negative
//! accumulator), so compiled predictions are **bit-identical** to
//! [`ConjunctiveMapping::ipc`] — asserted by the round-trip property tests.

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

/// A conjunctive mapping compiled into flat arrays for allocation-free
/// prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    name: String,
    resource_names: Vec<String>,
    /// Per-slot "has a row" flag, 0 or 1 (an all-zero row still counts as
    /// mapped, exactly like the `BTreeMap` representation).  One byte per
    /// slot, the same layout the `v2b` artifact stores.
    mapped: Vec<u8>,
    /// CSR row boundaries, one entry per instruction index plus a sentinel.
    row_ptr: Vec<u32>,
    /// Resource index of every non-zero usage entry.
    cols: Vec<u32>,
    /// Usage value of every non-zero usage entry.
    vals: Vec<f64>,
}

impl CompiledModel {
    /// Flattens `mapping` into its compiled form under a display name.
    pub fn compile(name: impl Into<String>, mapping: &ConjunctiveMapping) -> Self {
        let num_rows = mapping.instructions().last().map_or(0, |i| i.index() + 1);
        let mut mapped = vec![0u8; num_rows];
        let mut row_ptr = Vec::with_capacity(num_rows + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for (index, is_mapped) in mapped.iter_mut().enumerate() {
            if let Some(usage) = mapping.usage_vector(InstId(index as u32)) {
                *is_mapped = 1;
                for (r, &value) in usage.iter().enumerate() {
                    if value != 0.0 {
                        cols.push(r as u32);
                        vals.push(value);
                    }
                }
            }
            row_ptr.push(cols.len() as u32);
        }
        CompiledModel {
            name: name.into(),
            resource_names: mapping
                .resources()
                .map(|r| mapping.resource_name(r).to_string())
                .collect(),
            mapped,
            row_ptr,
            cols,
            vals,
        }
    }

    /// Rebuilds a compiled model from already-validated raw CSR arrays (the
    /// binary artifact codec's load path).  Callers must uphold the
    /// [`CompiledModel::compile`] invariants: `mapped` holds 0/1 flags,
    /// `row_ptr` has `mapped.len() + 1` monotone entries ending at
    /// `cols.len()`, `cols` are ascending within a row and index into
    /// `resource_names`, and unmapped slots have empty rows.
    pub(crate) fn from_raw_parts(
        name: String,
        resource_names: Vec<String>,
        mapped: Vec<u8>,
        row_ptr: Vec<u32>,
        cols: Vec<u32>,
        vals: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), mapped.len() + 1);
        debug_assert_eq!(cols.len(), vals.len());
        debug_assert_eq!(row_ptr.last().copied(), Some(cols.len() as u32));
        CompiledModel { name, resource_names, mapped, row_ptr, cols, vals }
    }

    /// The raw CSR arrays `(mapped, row_ptr, cols, vals)`, for verbatim
    /// binary serialisation.
    pub(crate) fn raw_parts(&self) -> (&[u8], &[u32], &[u32], &[f64]) {
        (&self.mapped, &self.row_ptr, &self.cols, &self.vals)
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
        self.vals.len()
    }

    /// Name of a resource.
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.resource_names[r.index()]
    }

    /// Sparse usage row of an instruction: `(resource index, usage)` pairs in
    /// ascending resource order.  Empty for unmapped instructions.
    pub fn row(&self, inst: InstId) -> impl Iterator<Item = (u32, f64)> + '_ {
        let range = if inst.index() + 1 < self.row_ptr.len() {
            self.row_ptr[inst.index()] as usize..self.row_ptr[inst.index() + 1] as usize
        } else {
            0..0
        };
        self.cols[range.clone()].iter().copied().zip(self.vals[range].iter().copied())
    }

    /// The dense mapping this model was compiled from: every mapped slot's
    /// sparse row scattered over zeros.  The exact inverse of
    /// [`CompiledModel::compile`], so a model rebuilt from its arrays
    /// renders, compares and predicts like the original.
    pub fn to_mapping(&self) -> ConjunctiveMapping {
        let rows = (0..self.mapped.len()).filter(|&i| self.mapped[i] != 0).map(|i| {
            let inst = InstId(i as u32);
            let mut usage = vec![0.0; self.num_resources()];
            for (col, value) in self.row(inst) {
                usage[col as usize] = value;
            }
            (inst, usage)
        });
        ConjunctiveMapping::from_rows(self.resource_names.clone(), rows)
    }
}

impl KernelLoad for CompiledModel {
    fn num_resources(&self) -> usize {
        self.resource_names.len()
    }

    /// The CSR hot loop — the only one in the crate.
    #[inline]
    fn load_into(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) {
        scratch.clear();
        scratch.resize(self.resource_names.len(), 0.0);
        for &(inst, count) in kernel.as_slice() {
            let index = inst.index();
            if index >= self.mapped.len() {
                continue;
            }
            let (start, end) = (self.row_ptr[index] as usize, self.row_ptr[index + 1] as usize);
            let count = count as f64;
            for (col, val) in self.cols[start..end].iter().zip(&self.vals[start..end]) {
                scratch[*col as usize] += count * val;
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

/// The allocation-free CSR serving interface, shared by the conjunctive
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
        // ADDSS has a zero on r1 that the CSR drops; BSR keeps all three.
        assert_eq!(c.num_entries(), 5);
        assert_eq!(c.row(addss).collect::<Vec<_>>(), vec![(1, 0.5), (2, 1.0 / 3.0)]);
        assert_eq!(c.row(bsr).count(), 3);
        assert_eq!(c.row(InstId(1)).count(), 0);
        assert_eq!(c.row(InstId(99)).count(), 0);
        assert_eq!(c.to_mapping(), m, "to_mapping inverts compile");
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
