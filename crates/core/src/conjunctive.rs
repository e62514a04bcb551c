//! The conjunctive bipartite resource mapping (Def. IV.2 / IV.3).
//!
//! In a conjunctive mapping, every instruction *always* uses every resource
//! it is connected to, in a fixed proportion `ρ_{i,r}` (a number of cycles of
//! that resource per executed instance).  Resources are normalised to a
//! throughput of one use per cycle.  The execution time of one iteration of
//! a microkernel `K` is then simply
//!
//! ```text
//! t(K) = max over resources r of  Σ_i σ_{K,i} · ρ_{i,r}
//! ```
//!
//! and its IPC is `|K| / t(K)` — no flow problem, no assignment choice.
//! This closed form is what makes the conjunctive representation practical
//! both for inference (LP constraints become linear) and for downstream
//! consumers (compilers, performance debuggers).
//!
//! # Layout
//!
//! [`ConjunctiveMapping`] is one dense row-major table, the same value the
//! trainer builds and the serving layer predicts from: one
//! `resources`-wide usage row per instruction slot up to the last mapped
//! one, plus a 0/1 "mapped" flag per slot (an all-zero row still counts as
//! mapped).  Unmapped slots hold `+0.0` everywhere.  Prediction indexes a
//! row by instruction and adds it, scaled by the instruction's count, into
//! a caller-provided buffer ([`ConjunctiveMapping::kernel_load_into`], the
//! one prediction loop): no allocation, no pointer chasing, and one zipped
//! multiply-add per row that the compiler vectorises.
//!
//! Dense rows beat a sparse (CSR) layout because the table is small and
//! mostly full once LPAUX has run: the skl-sp-like model has 423 slots ×
//! 21 resources with 7,210 non-zero usages (81 % dense), so a CSR walk
//! would do a column load and a bounds-checked scatter per stored entry to
//! skip the few zeros, while the dense loop streams whole rows.
//!
//! Each resource's load sums `count · usage` over the kernel's instructions
//! in instruction order.  An unmapped slot inside the table adds `count ·
//! 0.0 = +0.0` terms and instructions past the table are skipped, so the
//! result equals a sum over the mapped rows only: the accumulator starts at
//! `+0.0` and never becomes `-0.0` (every term is `+0.0`, `-0.0` or
//! positive), and adding either zero to it leaves it unchanged.
//! Predictions therefore do not depend on how the table was filled or how
//! far it runs.

use palmed_isa::{InstId, InstructionSet, Microkernel};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;

thread_local! {
    /// Reusable load buffer for the borrow-free entry points
    /// ([`ConjunctiveMapping::execution_time`] and
    /// [`ConjunctiveMapping::ipc`]), so per-call prediction does not
    /// allocate.
    static LOAD_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Identifier of an abstract resource within a [`ConjunctiveMapping`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ResourceId(pub u32);

impl ResourceId {
    /// Raw index of the resource.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A normalised conjunctive bipartite resource mapping.
///
/// Every resource has throughput 1; `ρ_{i,r}` is the number of cycles of
/// resource `r` consumed by one instance of instruction `i` (0 when the
/// instruction does not use the resource).  See the module docs for the
/// dense layout.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ConjunctiveMapping {
    resource_names: Vec<String>,
    /// Per-slot "has a row" flag, 0 or 1; the table runs to the last
    /// mapped instruction, so the final flag (if any) is 1.
    mapped: Vec<u8>,
    /// Row-major usages, `mapped.len() × resource_names.len()` entries;
    /// every entry of an unmapped slot is `+0.0`.
    usage: Vec<f64>,
}

impl ConjunctiveMapping {
    /// Creates an empty mapping with named resources.
    pub fn new(resource_names: Vec<String>) -> Self {
        ConjunctiveMapping { resource_names, mapped: Vec::new(), usage: Vec::new() }
    }

    /// Creates an empty mapping with `n` anonymous resources `R0..R(n-1)`.
    pub fn with_resources(n: usize) -> Self {
        Self::new((0..n).map(|i| format!("R{i}")).collect())
    }

    /// Number of abstract resources.
    pub fn num_resources(&self) -> usize {
        self.resource_names.len()
    }

    /// Number of mapped instructions.
    pub fn num_instructions(&self) -> usize {
        self.mapped.iter().filter(|&&m| m != 0).count()
    }

    /// All resource ids.
    pub fn resources(&self) -> impl Iterator<Item = ResourceId> + '_ {
        (0..self.resource_names.len() as u32).map(ResourceId)
    }

    /// Name of a resource.
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.resource_names[r.index()]
    }

    /// Renames a resource (used to attach human-readable combined-port names).
    pub fn set_resource_name(&mut self, r: ResourceId, name: impl Into<String>) {
        self.resource_names[r.index()] = name.into();
    }

    /// Registers (or replaces) the usage vector of an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the number of resources, or
    /// if any usage is negative or non-finite.
    pub fn set_usage(&mut self, inst: InstId, usage: Vec<f64>) {
        assert_eq!(
            usage.len(),
            self.num_resources(),
            "usage vector length {} != resource count {}",
            usage.len(),
            self.num_resources()
        );
        assert!(
            usage.iter().all(|&u| u.is_finite() && u >= 0.0),
            "usage values must be finite and non-negative: {usage:?}"
        );
        let slot = inst.index();
        if slot >= self.mapped.len() {
            self.mapped.resize(slot + 1, 0);
            self.usage.resize((slot + 1) * self.num_resources(), 0.0);
        }
        self.mapped[slot] = 1;
        self.row_mut(slot).copy_from_slice(&usage);
    }

    /// Whether the instruction has a mapping.
    pub fn supports(&self, inst: InstId) -> bool {
        self.mapped.get(inst.index()).is_some_and(|&m| m != 0)
    }

    /// Usage `ρ_{i,r}`; 0 when the instruction is unmapped.
    pub fn usage(&self, inst: InstId, r: ResourceId) -> f64 {
        self.usage_vector(inst).map_or(0.0, |v| v[r.index()])
    }

    /// Full usage vector of an instruction, if mapped.
    pub fn usage_vector(&self, inst: InstId) -> Option<&[f64]> {
        self.supports(inst).then(|| self.row(inst.index()))
    }

    /// Iterates over mapped instructions, in ascending id order.
    pub fn instructions(&self) -> impl Iterator<Item = InstId> + '_ {
        (0..self.mapped.len()).filter(|&i| self.mapped[i] != 0).map(|i| InstId(i as u32))
    }

    /// Total resource consumption of one instance of `inst` (the `cons`
    /// quantity used when ranking saturating kernels).
    pub fn consumption(&self, inst: InstId) -> f64 {
        self.usage_vector(inst).map_or(0.0, |v| v.iter().sum())
    }

    /// The usage row of a slot inside the table (all `+0.0` if unmapped).
    fn row(&self, slot: usize) -> &[f64] {
        let width = self.num_resources();
        &self.usage[slot * width..][..width]
    }

    fn row_mut(&mut self, slot: usize) -> &mut [f64] {
        let width = self.num_resources();
        &mut self.usage[slot * width..][..width]
    }

    /// Load placed on every resource by one iteration of `kernel`
    /// (`Σ_i σ_{K,i} ρ_{i,r}` for each `r`).
    ///
    /// Instructions absent from the mapping contribute nothing (this mirrors
    /// the paper's evaluation rule for unsupported instructions).
    pub fn kernel_load(&self, kernel: &Microkernel) -> Vec<f64> {
        let mut load = Vec::new();
        self.kernel_load_into(kernel, &mut load);
        load
    }

    /// Allocation-free variant of [`kernel_load`](Self::kernel_load): writes
    /// the per-resource load into `load`, clearing and resizing it as needed.
    /// Reusing the same buffer across calls amortises the allocation away.
    /// This is the one prediction loop every entry point runs through.
    #[inline]
    pub fn kernel_load_into(&self, kernel: &Microkernel, load: &mut Vec<f64>) {
        load.clear();
        load.resize(self.num_resources(), 0.0);
        for &(inst, count) in kernel.as_slice() {
            if inst.index() >= self.mapped.len() {
                continue;
            }
            let count = count as f64;
            for (l, &u) in load.iter_mut().zip(self.row(inst.index())) {
                *l += count * u;
            }
        }
    }

    /// Execution time `t(K)` of one loop iteration (Def. IV.2).
    ///
    /// Returns 0 when no mapped instruction appears in the kernel.
    pub fn execution_time(&self, kernel: &Microkernel) -> f64 {
        LOAD_SCRATCH.with_borrow_mut(|scratch| self.execution_time_with(kernel, scratch))
    }

    /// [`execution_time`](Self::execution_time) with a caller-provided
    /// scratch buffer (its content on entry is irrelevant).
    pub fn execution_time_with(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) -> f64 {
        self.kernel_load_into(kernel, scratch);
        scratch.iter().copied().fold(0.0, f64::max)
    }

    /// Throughput (IPC) of a microkernel (Def. IV.3).
    ///
    /// Counts *all* instructions of the kernel in the numerator, including
    /// unmapped ones; returns `None` when the execution time is zero (no
    /// mapped instruction contributes any load).
    pub fn ipc(&self, kernel: &Microkernel) -> Option<f64> {
        LOAD_SCRATCH.with_borrow_mut(|scratch| self.ipc_with(kernel, scratch))
    }

    /// [`ipc`](Self::ipc) with a caller-provided scratch buffer.
    pub fn ipc_with(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) -> Option<f64> {
        let t = self.execution_time_with(kernel, scratch);
        if t <= 0.0 {
            None
        } else {
            Some(kernel.total_instructions() as f64 / t)
        }
    }

    /// Fraction of mapped instructions among `insts`.
    pub fn coverage(&self, insts: &InstructionSet) -> f64 {
        if insts.is_empty() {
            return 0.0;
        }
        insts.ids().filter(|&i| self.supports(i)).count() as f64 / insts.len() as f64
    }

    /// Removes resources that no mapped instruction uses, returning the
    /// number of resources dropped.  Resource ids are re-numbered.
    pub fn prune_unused_resources(&mut self) -> usize {
        let n = self.num_resources();
        let mut used = vec![false; n];
        for (i, &u) in self.usage.iter().enumerate() {
            if u > 1e-9 {
                used[i % n] = true;
            }
        }
        let keep: Vec<usize> = (0..n).filter(|&r| used[r]).collect();
        if keep.len() == n {
            return 0;
        }
        self.resource_names = keep.iter().map(|&r| self.resource_names[r].clone()).collect();
        self.usage =
            self.usage.chunks_exact(n).flat_map(|row| keep.iter().map(|&r| row[r])).collect();
        n - keep.len()
    }

    /// Pretty-prints the mapping with instruction names from `insts`.
    pub fn render(&self, insts: &InstructionSet) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "conjunctive mapping: {} instructions, {} resources\n",
            self.num_instructions(),
            self.num_resources()
        ));
        out.push_str("instruction                  ");
        for name in &self.resource_names {
            out.push_str(&format!("{name:>10}"));
        }
        out.push('\n');
        for inst in self.instructions() {
            out.push_str(&format!("{:<29}", insts.name(inst)));
            for &u in self.row(inst.index()) {
                if u.abs() < 1e-9 {
                    out.push_str(&format!("{:>10}", "."));
                } else {
                    out.push_str(&format!("{u:>10.3}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> (ConjunctiveMapping, InstId, InstId) {
        // Normalised Fig. 1c: resources r1, r01, r016 (throughput already
        // folded in).  ADDSS: 0 on r1, 1/2 on r01, 1/3 on r016.
        // BSR: 1 on r1, 1/2 on r01, 1/3 on r016.
        let mut m = ConjunctiveMapping::new(vec!["r1".into(), "r01".into(), "r016".into()]);
        let addss = InstId(0);
        let bsr = InstId(1);
        m.set_usage(addss, vec![0.0, 0.5, 1.0 / 3.0]);
        m.set_usage(bsr, vec![1.0, 0.5, 1.0 / 3.0]);
        (m, addss, bsr)
    }

    #[test]
    fn paper_throughput_example_addss2_bsr() {
        let (m, addss, bsr) = example();
        let k = Microkernel::pair(addss, 2, bsr, 1);
        // t = max(1, 1.5, 1) = 1.5; IPC = 3 / 1.5 = 2 (paper Sec. IV example).
        assert!((m.execution_time(&k) - 1.5).abs() < 1e-12);
        assert!((m.ipc(&k).unwrap() - 2.0).abs() < 1e-12);
        // The bottleneck is r01.
        let load = m.kernel_load(&k);
        assert!((load[1] - 1.5).abs() < 1e-12);
        assert!(load[0] < load[1] && load[2] < load[1]);
    }

    #[test]
    fn paper_throughput_example_addss_bsr2() {
        let (m, addss, bsr) = example();
        let k = Microkernel::pair(addss, 1, bsr, 2);
        // Bottleneck is r1 with load 2; IPC = 3/2.
        assert!((m.execution_time(&k) - 2.0).abs() < 1e-12);
        assert!((m.ipc(&k).unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(m.kernel_load(&k)[0], 2.0);
    }

    #[test]
    fn unmapped_instructions_contribute_nothing() {
        let (m, addss, _) = example();
        let unknown = InstId(99);
        let k = Microkernel::pair(addss, 1, unknown, 5);
        // Only ADDSS contributes load (0.5 on r01), but all 6 instructions count.
        assert!((m.execution_time(&k) - 0.5).abs() < 1e-12);
        assert!((m.ipc(&k).unwrap() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_kernel_has_no_ipc() {
        let (m, _, _) = example();
        assert!(m.ipc(&Microkernel::new()).is_none());
        assert_eq!(m.execution_time(&Microkernel::new()), 0.0);
    }

    #[test]
    fn consumption_and_coverage() {
        let (m, addss, bsr) = example();
        assert!((m.consumption(addss) - (0.5 + 1.0 / 3.0)).abs() < 1e-12);
        assert!((m.consumption(bsr) - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
        assert_eq!(m.consumption(InstId(42)), 0.0);
        let insts = InstructionSet::paper_example();
        // Only 2 of the 6 paper instructions are mapped here.
        assert!((m.coverage(&insts) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_load_into_matches_allocating_variant_and_reuses_capacity() {
        let (m, addss, bsr) = example();
        let k = Microkernel::pair(addss, 2, bsr, 1);
        let mut scratch = vec![99.0; 17];
        m.kernel_load_into(&k, &mut scratch);
        assert_eq!(scratch, m.kernel_load(&k));
        let capacity = scratch.capacity();
        assert!((m.execution_time_with(&k, &mut scratch) - 1.5).abs() < 1e-12);
        assert!((m.ipc_with(&k, &mut scratch).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(scratch.capacity(), capacity, "scratch must be reused, not reallocated");
    }

    #[test]
    fn prune_removes_unused_resources() {
        let mut m = ConjunctiveMapping::with_resources(3);
        m.set_usage(InstId(0), vec![1.0, 0.0, 0.5]);
        m.set_usage(InstId(1), vec![0.0, 0.0, 0.25]);
        // Slot 2 stays an unmapped gap in the table.
        m.set_usage(InstId(3), vec![0.0, 0.0, 2.0]);
        let dropped = m.prune_unused_resources();
        assert_eq!(dropped, 1);
        assert_eq!(m.num_resources(), 2);
        assert_eq!(m.usage_vector(InstId(0)).unwrap(), &[1.0, 0.5]);
        assert_eq!(m.usage_vector(InstId(2)), None);
        assert_eq!(m.usage_vector(InstId(3)).unwrap(), &[0.0, 2.0]);
        assert_eq!(m.instructions().collect::<Vec<_>>(), [InstId(0), InstId(1), InstId(3)]);
    }

    #[test]
    #[should_panic(expected = "usage vector length")]
    fn mismatched_usage_length_panics() {
        let mut m = ConjunctiveMapping::with_resources(2);
        m.set_usage(InstId(0), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_usage_panics() {
        let mut m = ConjunctiveMapping::with_resources(1);
        m.set_usage(InstId(0), vec![-0.5]);
    }

    #[test]
    fn render_contains_instruction_names() {
        let (m, _, _) = example();
        let insts = InstructionSet::paper_example();
        let rendered = m.render(&insts);
        assert!(rendered.contains("DIVPS") || rendered.contains("VCVTT"));
        assert!(rendered.contains("r01"));
    }
}
