//! The measurement interface Palmed talks to.
//!
//! The whole point of the paper is that the inference pipeline consumes
//! *only* end-to-end cycle measurements of microkernels — no per-port
//! hardware counters.  The [`Measurer`] trait is that seam: Palmed, the
//! baselines and the evaluation harness all receive a `&dyn Measurer` (or a
//! generic `M: Measurer`) and never see the ground-truth port mapping.
//!
//! Two back-ends are provided: [`AnalyticMeasurer`] (optimal-scheduler bound,
//! optionally perturbed by noise) and [`SimulationMeasurer`] (cycle-level
//! greedy simulation).  [`MemoizingMeasurer`] caches results — Palmed
//! re-measures the same kernels across phases — and its
//! [`distinct_kernels`](MemoizingMeasurer::distinct_kernels) is the
//! "Gen. microbenchmarks" column of Table II.
//!
//! Kernels are measured one at a time ([`Measurer::ipc`]) or in batches
//! ([`Measurer::ipc_many`]).  A batch returns exactly the values the
//! per-kernel calls would, in input order; it exists so a layer with
//! per-call overhead pays it once per batch.  The trainer's bulk
//! measurements (the quadratic campaigns and LPAUX's prefetch) go through
//! batches, so the memo takes each of its shard locks once per batch
//! instead of twice per kernel.

use crate::cycle_sim::{simulate_ipc, SimulationConfig};
use crate::disjunctive::DisjunctiveMapping;
use crate::noise::MeasurementNoise;
use crate::throughput;
use palmed_isa::{FxBuildHasher, InstructionSet, KernelSet, Microkernel};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// A device able to report the steady-state IPC of a microkernel.
///
/// Implementations must be deterministic: measuring the same kernel twice
/// returns the same value (the paper relies on reproducible measurements and
/// rounds away residual jitter).
pub trait Measurer {
    /// Steady-state instructions-per-cycle of the kernel.
    fn ipc(&self, kernel: &Microkernel) -> f64;

    /// Steady-state IPC of every kernel of a batch, in input order: the
    /// values [`ipc`](Measurer::ipc) returns for each.  The default measures
    /// them one by one; a layer with per-call overhead overrides it to pay
    /// that overhead once per batch.
    fn ipc_many(&self, kernels: Vec<Microkernel>) -> Vec<f64> {
        kernels.iter().map(|kernel| self.ipc(kernel)).collect()
    }

    /// The instruction set this measurer can benchmark.
    fn instructions(&self) -> &InstructionSet;

    /// Number of measurements performed so far (distinct benchmark runs).
    /// The default, kept by every measurer that does not count, is 0;
    /// [`MemoizingMeasurer`] reports its distinct kernels.
    fn measurement_count(&self) -> usize {
        0
    }
}

impl<M: Measurer + ?Sized> Measurer for &M {
    fn ipc(&self, kernel: &Microkernel) -> f64 {
        (**self).ipc(kernel)
    }
    fn ipc_many(&self, kernels: Vec<Microkernel>) -> Vec<f64> {
        (**self).ipc_many(kernels)
    }
    fn instructions(&self) -> &InstructionSet {
        (**self).instructions()
    }
    fn measurement_count(&self) -> usize {
        (**self).measurement_count()
    }
}

/// Measurer backed by the analytic optimal-scheduler bound.
#[derive(Debug, Clone)]
pub struct AnalyticMeasurer {
    mapping: Arc<DisjunctiveMapping>,
    noise: MeasurementNoise,
}

impl AnalyticMeasurer {
    /// Creates an exact analytic measurer.
    pub fn new(mapping: Arc<DisjunctiveMapping>) -> Self {
        AnalyticMeasurer { mapping, noise: MeasurementNoise::none() }
    }

    /// Creates an analytic measurer with the given noise model.
    pub fn with_noise(mapping: Arc<DisjunctiveMapping>, noise: MeasurementNoise) -> Self {
        AnalyticMeasurer { mapping, noise }
    }

    /// The underlying ground-truth mapping (for oracle baselines only).
    pub fn mapping(&self) -> &DisjunctiveMapping {
        &self.mapping
    }
}

impl Measurer for AnalyticMeasurer {
    fn ipc(&self, kernel: &Microkernel) -> f64 {
        let exact = throughput::ipc(&self.mapping, kernel);
        if self.noise.is_exact() {
            exact
        } else {
            self.noise.perturb(exact, MeasurementNoise::fingerprint(kernel))
        }
    }

    fn instructions(&self) -> &InstructionSet {
        self.mapping.instructions()
    }
}

/// Measurer backed by the cycle-level greedy simulator.
#[derive(Debug, Clone)]
pub struct SimulationMeasurer {
    mapping: Arc<DisjunctiveMapping>,
    config: SimulationConfig,
    noise: MeasurementNoise,
}

impl SimulationMeasurer {
    /// Creates a simulation-backed measurer with default settings.
    pub fn new(mapping: Arc<DisjunctiveMapping>) -> Self {
        SimulationMeasurer {
            mapping,
            config: SimulationConfig::default(),
            noise: MeasurementNoise::none(),
        }
    }

    /// Overrides the simulation window.
    #[must_use]
    pub fn with_config(mut self, config: SimulationConfig) -> Self {
        self.config = config;
        self
    }

    /// Adds measurement noise.
    #[must_use]
    pub fn with_noise(mut self, noise: MeasurementNoise) -> Self {
        self.noise = noise;
        self
    }
}

impl Measurer for SimulationMeasurer {
    fn ipc(&self, kernel: &Microkernel) -> f64 {
        let exact = simulate_ipc(&self.mapping, kernel, &self.config).ipc;
        if self.noise.is_exact() {
            exact
        } else {
            self.noise.perturb(exact, MeasurementNoise::fingerprint(kernel))
        }
    }

    fn instructions(&self) -> &InstructionSet {
        self.mapping.instructions()
    }
}

/// Selects which measurement back-end a harness (evaluation campaign,
/// example, bench) should construct.
///
/// The analytic bound is exact and fast; the simulation is the "native
/// hardware" stand-in of the reproduction: greedy dispatch, finite scheduler
/// window, non-pipelined units and front-end width all leave their trace in
/// the measured IPC, exactly the effects the port-only baselines ignore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendKind {
    /// Optimal-scheduler analytic bound ([`AnalyticMeasurer`]).
    Analytic,
    /// Cycle-level greedy simulation ([`SimulationMeasurer`]) with the given
    /// window configuration.
    Simulation(SimulationConfig),
}

impl Default for BackendKind {
    fn default() -> Self {
        BackendKind::Simulation(SimulationConfig::default())
    }
}

/// A measurer built from a [`BackendKind`]: either back-end behind one
/// concrete type, so harnesses can stay generic-free.
#[derive(Debug, Clone)]
pub enum BackendMeasurer {
    /// Analytic optimal-scheduler bound.
    Analytic(AnalyticMeasurer),
    /// Cycle-level greedy simulation.
    Simulation(SimulationMeasurer),
}

impl BackendMeasurer {
    /// Builds the measurer selected by `kind` for the given ground-truth
    /// mapping and noise model.
    pub fn new(
        kind: BackendKind,
        mapping: Arc<DisjunctiveMapping>,
        noise: MeasurementNoise,
    ) -> Self {
        match kind {
            BackendKind::Analytic => {
                BackendMeasurer::Analytic(AnalyticMeasurer::with_noise(mapping, noise))
            }
            BackendKind::Simulation(config) => BackendMeasurer::Simulation(
                SimulationMeasurer::new(mapping).with_config(config).with_noise(noise),
            ),
        }
    }
}

impl Measurer for BackendMeasurer {
    fn ipc(&self, kernel: &Microkernel) -> f64 {
        match self {
            BackendMeasurer::Analytic(m) => m.ipc(kernel),
            BackendMeasurer::Simulation(m) => m.ipc(kernel),
        }
    }

    fn instructions(&self) -> &InstructionSet {
        match self {
            BackendMeasurer::Analytic(m) => m.instructions(),
            BackendMeasurer::Simulation(m) => m.instructions(),
        }
    }
}

/// Number of independently locked shards of a [`MemoizingMeasurer`].
const MEMO_SHARDS: usize = 16;

/// One shard of a [`MemoizingMeasurer`]'s cache: the kernels and their
/// values in insertion order, indexed by their Fx hash.
#[derive(Debug, Default)]
struct MemoShard {
    /// [`KernelSet::hash_kernel`] → the first entry with that hash.  The
    /// keys are already well-mixed hashes, so the map hashes them with the
    /// one-round Fx hasher.
    index: HashMap<u64, u32, FxBuildHasher>,
    /// Entries whose hash collided with an earlier, different kernel;
    /// scanned linearly (empty in practice), as in [`KernelSet`].
    overflow: Vec<u32>,
    /// The distinct kernels, in insertion order.
    kernels: Vec<Microkernel>,
    /// Each kernel's measured IPC, same indexing.
    values: Vec<f64>,
}

impl MemoShard {
    /// The entry holding `kernel`, given the index's entry for its hash:
    /// that one, else a later one with the same hash.
    fn scan(&self, primary: u32, kernel: &Microkernel) -> Option<usize> {
        std::iter::once(primary)
            .chain(self.overflow.iter().copied())
            .map(|i| i as usize)
            .find(|&i| self.kernels[i] == *kernel)
    }

    /// The cached value of `kernel`, whose hash is `hash`.
    fn get(&self, hash: u64, kernel: &Microkernel) -> Option<f64> {
        let entry = self.scan(*self.index.get(&hash)?, kernel)?;
        Some(self.values[entry])
    }

    /// Caches `value` for `kernel` unless the kernel is already cached, and
    /// returns the cached value: the first value inserted wins.
    fn get_or_insert(&mut self, hash: u64, kernel: Microkernel, value: f64) -> f64 {
        let fresh = self.kernels.len() as u32;
        match self.index.entry(hash) {
            Entry::Vacant(e) => {
                e.insert(fresh);
            }
            Entry::Occupied(e) => {
                let primary = *e.get();
                if let Some(entry) = self.scan(primary, &kernel) {
                    return self.values[entry];
                }
                self.overflow.push(fresh);
            }
        }
        self.kernels.push(kernel);
        self.values.push(value);
        value
    }

    /// Makes room for `additional` more kernels.
    fn reserve(&mut self, additional: usize) {
        self.index.reserve(additional);
        self.kernels.reserve(additional);
        self.values.reserve(additional);
    }
}

/// Locks a shard; it is poisoned only if an insert panicked.
fn lock(shard: &Mutex<MemoShard>) -> MutexGuard<'_, MemoShard> {
    shard.lock().expect("a measurer panicked while caching")
}

/// Caches measurements of an inner measurer.
///
/// Palmed measures the same microkernels repeatedly across its phases
/// (quadratic benchmarks feed selection, LP1, LP2, ...); caching keeps the
/// reproduction fast while preserving the benchmark count semantics: the
/// measurement count only grows for *distinct* kernels, which matches the
/// paper's "generated microbenchmarks" statistic.
///
/// The cache is split into a fixed number of shards, each behind a `Mutex`,
/// so the wrapper stays [`Sync`] and the parallel measurement loops rarely
/// wait on each other.  A shard is dense: its kernels and their values sit
/// in two vectors in insertion order, and a `HashMap<u64, u32>` maps each
/// kernel's [`KernelSet::hash_kernel`] Fx hash to its entry.  A true 64-bit
/// collision follows [`KernelSet`]'s overflow rule: the index keeps the
/// first kernel with that hash, and every later, different kernel with the
/// same hash is listed in the shard's overflow vector, which lookups scan
/// by equality.  The hash is computed once per kernel and call: it picks
/// the shard (by bits 48–51, where an Fx hash mixes best), keys the index,
/// and in a batch also dedupes the batch.  Fx suits kernels, short runs of small integers, for which
/// SipHash is pure overhead.  Hashing here only indexes the cache: the
/// noise model's [`MeasurementNoise::fingerprint`] keeps its own SipHash,
/// which defines the measured values.
///
/// The lock is released while the inner measurer runs, so two threads may
/// measure the same kernel at once; the first value inserted wins and both
/// callers return it (measurers are deterministic, so the values agree
/// anyway).  [`ipc`](Measurer::ipc) takes its kernel's shard lock twice:
/// once to look up, once to insert a miss (cloning the kernel, which for a
/// campaign kernel of at most two instructions allocates nothing).
/// [`ipc_many`](Measurer::ipc_many) hashes every kernel of the batch once
/// and amortises the locks over the batch, in three passes:
///
/// 1. dedupe the batch ([`KernelSet::dedup_hashed`]), group its distinct
///    kernels by shard and look each group up under one lock;
/// 2. measure each distinct missing kernel once, with no lock held;
/// 3. insert each group's misses under one lock, after reserving room for
///    all of them, first value wins, moving the batch's own kernels into
///    the shard (no clone).
///
/// No lock is held while the inner measurer runs and at most one is held at
/// a time, so batches and single lookups from any number of threads never
/// deadlock, and the distinct-kernel count is the same whichever entry point
/// measured a kernel.
#[derive(Debug)]
pub struct MemoizingMeasurer<M> {
    inner: M,
    shards: [Mutex<MemoShard>; MEMO_SHARDS],
}

impl<M: Measurer> MemoizingMeasurer<M> {
    /// Wraps a measurer with a cache.
    pub fn new(inner: M) -> Self {
        MemoizingMeasurer { inner, shards: Default::default() }
    }

    /// Number of distinct kernels measured.
    pub fn distinct_kernels(&self) -> usize {
        self.shards.iter().map(|shard| lock(shard).kernels.len()).sum()
    }

    /// Consumes the wrapper and returns the inner measurer.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

/// Index of the shard caching kernels of hash `hash`, picked by its bits
/// 48–51: an Fx hash mixes best into its high bits.
fn shard_index(hash: u64) -> usize {
    (hash >> 48) as usize % MEMO_SHARDS
}

impl<M: Measurer> Measurer for MemoizingMeasurer<M> {
    fn ipc(&self, kernel: &Microkernel) -> f64 {
        let hash = KernelSet::hash_kernel(kernel);
        let shard = &self.shards[shard_index(hash)];
        if let Some(v) = lock(shard).get(hash, kernel) {
            return v;
        }
        let v = self.inner.ipc(kernel);
        lock(shard).get_or_insert(hash, kernel.clone(), v)
    }

    fn ipc_many(&self, mut kernels: Vec<Microkernel>) -> Vec<f64> {
        // Pass 1: hash every kernel once, dedupe the batch, group its
        // distinct kernels by shard and look each group up under one lock;
        // each group keeps its misses.
        let hashes: Vec<u64> = kernels.iter().map(KernelSet::hash_kernel).collect();
        let (distinct, slots) = KernelSet::dedup_hashed(hashes.iter().copied().zip(&kernels));
        let mut first = Vec::with_capacity(distinct.len());
        for (i, &d) in slots.iter().enumerate() {
            if d as usize == first.len() {
                first.push(i);
            }
        }
        let mut values = vec![f64::NAN; distinct.len()];
        let mut groups: [Vec<usize>; MEMO_SHARDS] = Default::default();
        for (d, &i) in first.iter().enumerate() {
            groups[shard_index(hashes[i])].push(d);
        }
        for (shard, group) in self.shards.iter().zip(&mut groups) {
            if group.is_empty() {
                continue;
            }
            let cache = lock(shard);
            group.retain(|&d| match cache.get(hashes[first[d]], distinct[d]) {
                Some(v) => {
                    values[d] = v;
                    false
                }
                None => true,
            });
        }

        // Pass 2: measure the misses with no lock held.
        for &d in groups.iter().flatten() {
            values[d] = self.inner.ipc(distinct[d]);
        }

        // Pass 3: insert each group under one lock, moving in the batch's
        // own kernel (its first occurrence); a value another thread inserted
        // meanwhile wins.
        for (shard, group) in self.shards.iter().zip(&groups) {
            if group.is_empty() {
                continue;
            }
            let mut cache = lock(shard);
            cache.reserve(group.len());
            for &d in group {
                let kernel = std::mem::take(&mut kernels[first[d]]);
                values[d] = cache.get_or_insert(hashes[first[d]], kernel, values[d]);
            }
        }
        slots.into_iter().map(|d| values[d as usize]).collect()
    }

    fn instructions(&self) -> &InstructionSet {
        self.inner.instructions()
    }

    fn measurement_count(&self) -> usize {
        self.distinct_kernels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn analytic_and_simulation_agree_on_simple_kernels() {
        let machine = presets::paper_ports016();
        let map = Arc::new(machine.mapping());
        let insts = map.instructions_arc();
        let analytic = AnalyticMeasurer::new(Arc::clone(&map));
        let simulated = SimulationMeasurer::new(Arc::clone(&map));
        let addss = insts.find("ADDSS").unwrap();
        let bsr = insts.find("BSR").unwrap();
        let k = Microkernel::pair(addss, 2, bsr, 1);
        let a = analytic.ipc(&k);
        let s = simulated.ipc(&k);
        assert!((a - 2.0).abs() < 1e-9);
        assert!((s - a).abs() < 0.1, "simulated {s} vs analytic {a}");
    }

    #[test]
    fn noise_changes_but_stays_close() {
        let machine = presets::paper_ports016();
        let map = Arc::new(machine.mapping());
        let insts = map.instructions_arc();
        let exact = AnalyticMeasurer::new(Arc::clone(&map));
        let noisy = AnalyticMeasurer::with_noise(Arc::clone(&map), MeasurementNoise::realistic(11));
        let addss = insts.find("ADDSS").unwrap();
        let k = Microkernel::single(addss).scaled(4);
        let e = exact.ipc(&k);
        let n = noisy.ipc(&k);
        assert!((e - n).abs() / e < 0.1);
        // determinism
        assert_eq!(noisy.ipc(&k), n);
    }

    #[test]
    fn memoizing_measurer_counts_distinct_kernels() {
        let machine = presets::paper_ports016();
        let map = Arc::new(machine.mapping());
        let insts = map.instructions_arc();
        let m = MemoizingMeasurer::new(AnalyticMeasurer::new(map));
        let addss = insts.find("ADDSS").unwrap();
        let bsr = insts.find("BSR").unwrap();
        let k1 = Microkernel::single(addss);
        let k2 = Microkernel::pair(addss, 1, bsr, 1);
        let _ = m.ipc(&k1);
        let _ = m.ipc(&k1);
        let _ = m.ipc(&k2);
        assert_eq!(m.distinct_kernels(), 2);
        assert_eq!(m.measurement_count(), 2);
    }

    /// A noisy analytic measurer on the small skl-sp-like inventory and
    /// `len` pair kernels over a few hundred distinct ones, each kernel
    /// recurring every 331 positions.
    fn repeating_kernels(len: usize) -> (AnalyticMeasurer, Vec<Microkernel>) {
        let preset = presets::skl_sp(&palmed_isa::InventoryConfig::small());
        let ids: Vec<_> = preset.instructions.ids().collect();
        let inner =
            AnalyticMeasurer::with_noise(preset.mapping_arc(), MeasurementNoise::realistic(5));
        let kernels = (0..len)
            .map(|i| {
                let j = i * 7919 % 331;
                let (a, b) = (ids[j % ids.len()], ids[j * 31 % ids.len()]);
                Microkernel::pair(a, 1 + (j % 3) as u32, b, 1)
            })
            .collect();
        (inner, kernels)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// An inner measurer that counts how often it measures each kernel.
    struct Counting<'a> {
        inner: &'a AnalyticMeasurer,
        calls: Mutex<HashMap<Microkernel, usize>>,
    }

    impl Measurer for Counting<'_> {
        fn ipc(&self, kernel: &Microkernel) -> f64 {
            *self.calls.lock().unwrap().entry(kernel.clone()).or_default() += 1;
            self.inner.ipc(kernel)
        }

        fn instructions(&self) -> &InstructionSet {
            self.inner.instructions()
        }
    }

    /// Measures every third kernel one by one, so a later batch of all of
    /// them mixes hits, misses and misses repeated inside the batch.
    fn warmed_batch<M: Measurer>(memo: &MemoizingMeasurer<M>, kernels: &[Microkernel]) {
        for kernel in kernels.iter().step_by(3) {
            memo.ipc(kernel);
        }
    }

    #[test]
    fn batches_return_the_per_kernel_values_on_hits_misses_and_repeats() {
        let (inner, batch) = repeating_kernels(600);
        let expected: Vec<u64> = batch.iter().map(|k| inner.ipc(k).to_bits()).collect();
        let distinct: std::collections::HashSet<&Microkernel> = batch.iter().collect();

        assert_eq!(bits(&inner.ipc_many(batch.clone())), expected, "the default ipc_many");

        let memo = MemoizingMeasurer::new(&inner);
        warmed_batch(&memo, &batch);
        let warmed: std::collections::HashSet<&Microkernel> = batch.iter().step_by(3).collect();
        assert!(warmed.len() < distinct.len(), "the batch must miss");
        let repeated_miss = batch
            .iter()
            .enumerate()
            .any(|(i, k)| !warmed.contains(k) && batch[i + 1..].contains(k));
        assert!(repeated_miss, "some missed kernel must recur inside the batch");

        assert_eq!(bits(&memo.ipc_many(batch.clone())), expected, "the memo's ipc_many");
        assert_eq!(memo.distinct_kernels(), distinct.len());
        // All hits now: the same values, nothing new cached.
        assert_eq!(bits(&memo.ipc_many(batch.clone())), expected);
        assert_eq!(memo.distinct_kernels(), distinct.len());
        assert!(memo.ipc_many(Vec::new()).is_empty());
    }

    #[test]
    fn batches_measure_each_distinct_missed_kernel_once() {
        let (inner, batch) = repeating_kernels(600);
        let distinct: std::collections::HashSet<&Microkernel> = batch.iter().collect();
        let counting = Counting { inner: &inner, calls: Mutex::default() };
        let memo = MemoizingMeasurer::new(&counting);
        warmed_batch(&memo, &batch);
        memo.ipc_many(batch.clone());
        memo.ipc_many(batch.clone());
        let calls = counting.calls.lock().unwrap();
        assert_eq!(calls.len(), distinct.len());
        assert!(calls.values().all(|&n| n == 1), "a kernel was measured twice");
    }

    #[test]
    fn parallel_memo_lookups_count_each_kernel_once_and_return_inner_values() {
        // 4,000 lookups over a few hundred distinct kernels, in an order that
        // spreads the repeats over both halves of the parallel map.
        let (inner, kernels) = repeating_kernels(4000);
        let distinct: std::collections::HashSet<&Microkernel> = kernels.iter().collect();
        assert!(distinct.len() < kernels.len() / 10, "the list must repeat heavily");
        let expected: Vec<u64> = kernels.iter().map(|k| inner.ipc(k).to_bits()).collect();

        let memo = MemoizingMeasurer::new(&inner);
        let got = palmed_par::par_map(&kernels, |k| memo.ipc(k));
        assert_eq!(memo.distinct_kernels(), distinct.len());
        assert_eq!(memo.measurement_count(), distinct.len());
        assert_eq!(bits(&got), expected);
        for (k, v) in kernels.iter().zip(got) {
            assert_eq!(memo.ipc(k).to_bits(), v.to_bits());
        }
        // Cached lookups measure nothing new.
        assert_eq!(memo.measurement_count(), distinct.len());

        // Per-kernel lookups and batches racing through the same kernels on
        // two threads.
        let memo = MemoizingMeasurer::new(&inner);
        let (per_kernel, batched) = std::thread::scope(|scope| {
            let per_kernel = scope.spawn(|| kernels.iter().map(|k| memo.ipc(k)).collect());
            let batched = scope.spawn(|| {
                kernels.chunks(97).flat_map(|chunk| memo.ipc_many(chunk.to_vec())).collect()
            });
            let join = |h: std::thread::ScopedJoinHandle<'_, Vec<f64>>| h.join().unwrap();
            (join(per_kernel), join(batched))
        });
        assert_eq!(memo.distinct_kernels(), distinct.len());
        assert_eq!(bits(&per_kernel), expected);
        assert_eq!(bits(&batched), expected);
    }

    #[test]
    fn measurer_is_object_safe_and_usable_by_reference() {
        let machine = presets::paper_ports016();
        let map = Arc::new(machine.mapping());
        let insts = map.instructions_arc();
        let analytic = AnalyticMeasurer::new(map);
        let as_dyn: &dyn Measurer = &analytic;
        let addss = insts.find("ADDSS").unwrap();
        assert!(as_dyn.ipc(&Microkernel::single(addss)) > 0.0);
        assert_eq!(as_dyn.ipc_many(vec![Microkernel::single(addss)]).len(), 1);
        fn generic<M: Measurer>(m: &M, k: &Microkernel) -> f64 {
            m.ipc(k)
        }
        assert!(generic(&&analytic, &Microkernel::single(addss)) > 0.0);
    }
}
