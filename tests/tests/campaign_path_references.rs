//! The campaign's per-kernel path against the layouts it replaced.
//!
//! Three test-only references keep the old implementations alive here, and
//! nowhere else, so every output of the allocation-free path can be checked
//! bit for bit:
//!
//! * [`VecKernel`], the flat sorted `Vec<(InstId, u32)>` that `Microkernel`
//!   was before it kept up to two pairs inline.  Its derived `Hash` is the
//!   old kernel's, so `KernelSet::hash_kernel` and
//!   `MeasurementNoise::fingerprint` (which defines every noisy measured
//!   value) must agree with it;
//! * [`MapMemo`], the `HashMap<Microkernel, f64>` memo that
//!   `MemoizingMeasurer` was before its shards became hash-indexed dense
//!   vectors;
//! * [`btree_kernel_load`], `DisjunctiveMapping::kernel_load` accumulating
//!   into a `BTreeMap` instead of a sorted vector.

use palmed_isa::{FxBuildHasher, FxLikeHasher, InstId, InstructionSet, KernelSet, Microkernel};
use palmed_machine::{
    presets, AnalyticMeasurer, DisjunctiveMapping, MeasurementNoise, Measurer, MemoizingMeasurer,
    PortSet,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, Mutex};

/// The flat-vector `Microkernel`: sorted by instruction id, every
/// multiplicity positive, `Eq`/`Hash`/`Ord` derived on the vector.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct VecKernel {
    counts: Vec<(InstId, u32)>,
}

impl VecKernel {
    fn from_counts(pairs: impl IntoIterator<Item = (InstId, u32)>) -> Self {
        let mut counts: Vec<(InstId, u32)> = pairs.into_iter().filter(|&(_, c)| c > 0).collect();
        counts.sort_unstable_by_key(|&(inst, _)| inst);
        counts.dedup_by(|cur, kept| {
            if cur.0 == kept.0 {
                kept.1 = kept.1.saturating_add(cur.1);
                true
            } else {
                false
            }
        });
        Self { counts }
    }

    fn add(&mut self, inst: InstId, count: u32) {
        if count > 0 {
            match self.counts.binary_search_by_key(&inst, |&(i, _)| i) {
                Ok(pos) => self.counts[pos].1 = self.counts[pos].1.saturating_add(count),
                Err(pos) => self.counts.insert(pos, (inst, count)),
            }
        }
    }

    fn merge(&mut self, other: &VecKernel) {
        for &(inst, count) in &other.counts {
            self.add(inst, count);
        }
    }

    fn scaled(&self, factor: u32) -> Self {
        if factor == 0 {
            return Self::default();
        }
        Self { counts: self.counts.iter().map(|&(i, c)| (i, c.saturating_mul(factor))).collect() }
    }

    /// The old `from_proportions`, plus whether it took the fallback.
    fn from_proportions(props: &[(InstId, f64)], tolerance: f64, max_total: u32) -> (Self, bool) {
        let props: Vec<(InstId, f64)> = props.iter().copied().filter(|&(_, p)| p > 0.0).collect();
        if props.is_empty() {
            return (Self::default(), false);
        }
        let min_prop = props.iter().map(|&(_, p)| p).fold(f64::INFINITY, f64::min);
        for scale_steps in 1..=max_total {
            let scale = scale_steps as f64 / min_prop;
            let mut ok = true;
            let mut total = 0u64;
            let mut counts = Vec::with_capacity(props.len());
            for &(inst, p) in &props {
                let ideal = p * scale;
                let rounded = ideal.round().max(1.0);
                if (rounded - ideal).abs() / ideal > tolerance {
                    ok = false;
                    break;
                }
                total += rounded as u64;
                counts.push((inst, rounded as u32));
            }
            if total > max_total as u64 {
                break;
            }
            if ok {
                return (Self::from_counts(counts), false);
            }
        }
        let scale = 1.0 / min_prop;
        let fallback = props.iter().map(|&(inst, p)| (inst, (p * scale).round().max(1.0) as u32));
        (Self::from_counts(fallback), true)
    }
}

/// Asserts that `kernel` is `reference` in every observable way.
fn assert_same(kernel: &Microkernel, reference: &VecKernel) {
    assert_eq!(kernel.as_slice(), reference.counts.as_slice());
    assert_eq!(kernel.iter().collect::<Vec<_>>(), reference.counts);
    assert_eq!(kernel.num_distinct(), reference.counts.len());
    assert_eq!(kernel.is_empty(), reference.counts.is_empty());
    let total: u32 = reference.counts.iter().map(|&(_, c)| c).sum();
    assert_eq!(kernel.total_instructions(), total);
    for id in 0..8 {
        let inst = InstId(id);
        let count = reference.counts.iter().find(|&&(i, _)| i == inst).map_or(0, |&(_, c)| c);
        assert_eq!(kernel.multiplicity(inst), count);
        assert_eq!(kernel.contains(inst), count > 0);
    }
    assert_eq!(
        KernelSet::hash_kernel(kernel),
        FxBuildHasher::default().hash_one(reference),
        "Fx hash of {kernel}"
    );
    assert_eq!(
        MeasurementNoise::fingerprint(kernel),
        MeasurementNoise::fingerprint(reference),
        "noise fingerprint of {kernel}"
    );
    assert_eq!(format!("{kernel:?}"), format!("Microkernel {{ counts: {:?} }}", reference.counts));
}

fn pairs(raw: &[(u32, u32)]) -> Vec<(InstId, u32)> {
    raw.iter().map(|&(i, c)| (InstId(i), c)).collect()
}

/// Builds a kernel with `add`, one pair at a time, as the corpus parser
/// and LPAUX's `completion_kernel` used to.
fn added(pairs: &[(InstId, u32)]) -> (Microkernel, VecKernel) {
    let (mut kernel, mut reference) = (Microkernel::new(), VecKernel::default());
    for &(inst, count) in pairs {
        kernel.add(inst, count);
        reference.add(inst, count);
        assert_same(&kernel, &reference);
    }
    (kernel, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every constructor and mutator agrees with the flat vector, for 0–5
    /// entries over a few instructions (so duplicates are common), zero
    /// counts included.
    #[test]
    fn microkernels_match_the_flat_vector(
        a in prop::collection::vec((0u32..6, 0u32..4), 0..6),
        b in prop::collection::vec((0u32..6, 0u32..4), 0..6),
        factor in 0u32..4,
    ) {
        let (a, b) = (pairs(&a), pairs(&b));
        let (ka, ra) = (Microkernel::from_counts(a.clone()), VecKernel::from_counts(a.clone()));
        let (kb, rb) = (Microkernel::from_counts(b.clone()), VecKernel::from_counts(b.clone()));
        assert_same(&ka, &ra);
        assert_same(&kb, &rb);
        assert_same(&a.iter().copied().collect::<Microkernel>(), &ra);

        // `add` one pair at a time crosses the 2 → 3 spill whenever a
        // third distinct instruction arrives; it must equal the bulk build.
        let (added_a, _) = added(&a);
        prop_assert_eq!(&added_a, &ka);
        let mut extended = kb.clone();
        extended.extend(a.iter().copied());
        let mut extended_ref = rb.clone();
        extended_ref.merge(&ra);
        assert_same(&extended, &extended_ref);

        // Multiset semantics: equality and order are the vector's.
        prop_assert_eq!(ka == kb, ra == rb);
        prop_assert_eq!(ka.cmp(&kb), ra.cmp(&rb));
        prop_assert_eq!(ka.partial_cmp(&kb), ra.partial_cmp(&rb));

        let mut merged = ka.clone();
        merged.merge(&kb);
        let mut merged_ref = ra.clone();
        merged_ref.merge(&rb);
        assert_same(&merged, &merged_ref);
        prop_assert_eq!(&merged, &Microkernel::from_counts(a.iter().chain(&b).copied()));

        assert_same(&ka.scaled(factor), &ra.scaled(factor));
        if let (Some(&(x, nx)), Some(&(y, ny))) = (a.first(), b.first()) {
            let mut pair_ref = VecKernel::from_counts([(x, nx)]);
            pair_ref.add(y, ny);
            assert_same(&Microkernel::pair(x, nx, y, ny), &pair_ref);
            assert_same(&Microkernel::single(x), &VecKernel::from_counts([(x, 1)]));
        }
    }
}

#[test]
fn from_proportions_matches_the_flat_vector_including_its_fallback() {
    let mut rng = proptest::test_runner::TestRng::for_case(0x6b65_726e);
    let mut fallbacks = 0;
    let mut spills = 0;
    for _ in 0..2_000 {
        let n = rng.usize_in(0, 5);
        let props: Vec<(InstId, f64)> = (0..n)
            .map(|_| {
                let inst = InstId(rng.usize_in(0, 6) as u32);
                // Zero and negative proportions are dropped; the rest span
                // IPC-like magnitudes, where small caps force the fallback.
                let p = match rng.usize_in(0, 9) {
                    0 => 0.0,
                    1 => -1.0,
                    _ => 0.04 + rng.next_f64() * 4.0,
                };
                (inst, p)
            })
            .collect();
        let tolerance = [0.0, 0.01, 0.05, 0.2][rng.usize_in(0, 3)];
        let max_total = rng.usize_in(1, 64) as u32;
        let kernel = Microkernel::from_proportions(props.iter().copied(), tolerance, max_total);
        let (reference, fell_back) = VecKernel::from_proportions(&props, tolerance, max_total);
        assert_same(&kernel, &reference);
        fallbacks += usize::from(fell_back);
        spills += usize::from(kernel.num_distinct() > 2);
    }
    assert!(fallbacks > 100, "the fallback rounding must be reached ({fallbacks} times)");
    assert!(spills > 100, "kernels past the inline capacity must be built ({spills} times)");
}

/// A deterministic inner measurer over arbitrary instruction ids: the value
/// is a function of the kernel's pairs, distinct for distinct kernels here.
struct Synthetic(InstructionSet);

impl Measurer for Synthetic {
    fn ipc(&self, kernel: &Microkernel) -> f64 {
        kernel
            .iter()
            .fold(0.5, |acc, (inst, count)| acc * 1.25 + inst.0 as f64 + count as f64 / 7.0)
    }

    fn instructions(&self) -> &InstructionSet {
        &self.0
    }
}

fn synthetic() -> Synthetic {
    Synthetic(InstructionSet::paper_example())
}

/// The `HashMap<Microkernel, f64>` memo: look up, measure a miss, insert
/// unless another value got there first.
struct MapMemo<M> {
    inner: M,
    cache: Mutex<HashMap<Microkernel, f64>>,
}

impl<M: Measurer> MapMemo<M> {
    fn new(inner: M) -> Self {
        MapMemo { inner, cache: Mutex::default() }
    }

    fn ipc(&self, kernel: &Microkernel) -> f64 {
        if let Some(&v) = self.cache.lock().unwrap().get(kernel) {
            return v;
        }
        let v = self.inner.ipc(kernel);
        *self.cache.lock().unwrap().entry(kernel.clone()).or_insert(v)
    }

    fn len(&self) -> usize {
        self.cache.lock().unwrap().len()
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Two different two-instruction kernels with the same 64-bit Fx hash.
///
/// An Fx round multiplies by an odd constant, a bijection of the state, so
/// `[(i, c), (LAST, x)]` hashes like `[(i', c'), (LAST, y)]` exactly when
/// the states before the last count's round differ only in the low 32 bits
/// that the counts `x` and `y` then cancel.  A birthday search over the
/// high 32 bits of those states finds such a pair among 2²⁰ candidates,
/// provided `i` and `c` are spread over their 32 bits: close values leave
/// the states too structured to meet.
fn colliding_kernels() -> (Microkernel, Microkernel) {
    const LAST: u32 = u32::MAX;
    let state = |inst: u32, count: u32| {
        let mut hasher = FxLikeHasher::default();
        hasher.write_usize(2);
        hasher.write_u32(inst);
        hasher.write_u32(count);
        hasher.write_u32(LAST);
        hasher.finish().rotate_left(5)
    };
    let mut seen: HashMap<u32, (u32, u32)> = HashMap::new();
    for n in 0..1024u32 {
        for m in 0..1024u32 {
            let (inst, count) = (n.wrapping_mul(0x9e37_79b9) >> 2, m.wrapping_mul(0x85eb_ca6b) | 1);
            let s = state(inst, count);
            if let Some(&(other_inst, other_count)) = seen.get(&((s >> 32) as u32)) {
                let low = (state(other_inst, other_count) ^ s) as u32;
                let x = if low == 1 { 2 } else { 1 };
                let a = Microkernel::pair(InstId(other_inst), other_count, InstId(LAST), x);
                let b = Microkernel::pair(InstId(inst), count, InstId(LAST), x ^ low);
                assert_ne!(a, b);
                assert_eq!(KernelSet::hash_kernel(&a), KernelSet::hash_kernel(&b), "{a} vs {b}");
                return (a, b);
            }
            seen.insert((s >> 32) as u32, (inst, count));
        }
    }
    panic!("no 64-bit Fx collision among the searched kernels");
}

#[test]
fn a_true_hash_collision_keeps_both_kernels() {
    let (a, b) = colliding_kernels();
    let inner = synthetic();
    let (va, vb) = (inner.ipc(&a), inner.ipc(&b));
    assert_ne!(va.to_bits(), vb.to_bits());

    // Per kernel: the second kernel lands in the overflow list.
    let memo = MemoizingMeasurer::new(&inner);
    assert_eq!(memo.ipc(&a).to_bits(), va.to_bits());
    assert_eq!(memo.ipc(&b).to_bits(), vb.to_bits());
    assert_eq!(memo.ipc(&a).to_bits(), va.to_bits());
    assert_eq!(memo.distinct_kernels(), 2);
    assert_eq!(bits(&memo.ipc_many(vec![b.clone(), a.clone(), b.clone()])), bits(&[vb, va, vb]));
    assert_eq!(memo.distinct_kernels(), 2);

    // In one batch: the dedup and the shard both keep them apart.
    let memo = MemoizingMeasurer::new(&inner);
    let batch = vec![a.clone(), b.clone(), a.clone(), b.clone()];
    assert_eq!(bits(&memo.ipc_many(batch)), bits(&[va, vb, va, vb]));
    assert_eq!(memo.distinct_kernels(), 2);
    assert_eq!(memo.ipc(&b).to_bits(), vb.to_bits());

    // The interner follows the same overflow rule.
    let mut set = KernelSet::new();
    let (ia, ib) = (set.intern(&a), set.intern(&b));
    assert_ne!(ia, ib);
    assert_eq!(set.lookup(&b), Some(ib));
    assert_eq!(KernelSet::dedup_refs([&a, &b, &a]).1, [0, 1, 0]);
}

/// A few hundred kernels of one to four instructions, each recurring, so
/// batches mix hits, misses and repeats inside the batch.
fn recurring_kernels(len: usize) -> Vec<Microkernel> {
    (0..len)
        .map(|i| {
            let j = (i * 7919 % 331) as u32;
            Microkernel::from_counts(
                (0..1 + j % 4).map(|k| (InstId(j * 3 + k * 11), 1 + (j + k) % 3)),
            )
        })
        .collect()
}

#[test]
fn the_dense_memo_returns_the_map_memos_values_bit_for_bit() {
    let kernels = recurring_kernels(3_000);
    let inner = synthetic();
    let memo = MemoizingMeasurer::new(&inner);
    let reference = MapMemo::new(&inner);
    let mut rng = proptest::test_runner::TestRng::for_case(0x6d65_6d6f);
    let mut at = 0;
    while at < kernels.len() {
        let len = rng.usize_in(1, 120).min(kernels.len() - at);
        let chunk = &kernels[at..at + len];
        at += len;
        let expected: Vec<f64> = chunk.iter().map(|k| reference.ipc(k)).collect();
        let got = if rng.usize_in(0, 2) == 0 {
            chunk.iter().map(|k| memo.ipc(k)).collect()
        } else {
            memo.ipc_many(chunk.to_vec())
        };
        assert_eq!(bits(&got), bits(&expected), "chunk ending at {at}");
        assert_eq!(memo.distinct_kernels(), reference.len());
        assert_eq!(memo.measurement_count(), reference.len());
    }
    // Everything is a hit now.
    assert_eq!(bits(&memo.ipc_many(kernels.clone())), bits(&memo.ipc_many(kernels.clone())));
    assert_eq!(memo.distinct_kernels(), reference.len());
    assert!(memo.ipc_many(Vec::new()).is_empty());
}

#[test]
fn per_kernel_lookups_racing_batches_agree_with_the_map_memo() {
    let kernels = recurring_kernels(4_000);
    let inner = synthetic();
    let reference = MapMemo::new(&inner);
    let expected: Vec<u64> = kernels.iter().map(|k| reference.ipc(k).to_bits()).collect();
    for round in 0..4 {
        let memo = MemoizingMeasurer::new(&inner);
        let barrier = std::sync::Barrier::new(2);
        let (per_kernel, batched) = std::thread::scope(|scope| {
            let per_kernel = scope.spawn(|| {
                barrier.wait();
                kernels.iter().map(|k| memo.ipc(k)).collect::<Vec<_>>()
            });
            let batched = scope.spawn(|| {
                barrier.wait();
                let size = 37 + round * 50;
                kernels.chunks(size).flat_map(|c| memo.ipc_many(c.to_vec())).collect::<Vec<_>>()
            });
            (per_kernel.join().unwrap(), batched.join().unwrap())
        });
        assert_eq!(bits(&per_kernel), expected);
        assert_eq!(bits(&batched), expected);
        assert_eq!(memo.distinct_kernels(), reference.len());
    }
}

/// `kernel_load` as it was: a `BTreeMap` from port set to occupancy.
fn btree_kernel_load(mapping: &DisjunctiveMapping, kernel: &Microkernel) -> Vec<(PortSet, f64)> {
    let mut by_ports: BTreeMap<PortSet, f64> = BTreeMap::new();
    for (inst, count) in kernel.iter() {
        for u in mapping.uops(inst) {
            *by_ports.entry(u.ports).or_insert(0.0) += count as f64 * u.inverse_throughput;
        }
    }
    by_ports.into_iter().collect()
}

#[test]
fn kernel_load_matches_the_btree_accumulation_on_every_preset() {
    let config = palmed_isa::InventoryConfig::small();
    let machines = [
        presets::skl_sp(&config),
        presets::zen1(&config),
        presets::paper_ports016(),
        presets::toy_two_port(),
    ];
    let mut rng = proptest::test_runner::TestRng::for_case(0x6c6f_6164);
    for preset in machines {
        let mapping: Arc<DisjunctiveMapping> = preset.mapping_arc();
        let ids: Vec<InstId> = preset.instructions.ids().collect();
        let analytic = AnalyticMeasurer::new(Arc::clone(&mapping));
        for _ in 0..500 {
            let n = rng.usize_in(1, 6);
            let kernel = Microkernel::from_counts(
                (0..n).map(|_| (ids[rng.usize_in(0, ids.len() - 1)], rng.usize_in(1, 9) as u32)),
            );
            let load = mapping.kernel_load(&kernel);
            let reference = btree_kernel_load(&mapping, &kernel);
            let as_bits =
                |l: &[(PortSet, f64)]| l.iter().map(|&(p, x)| (p, x.to_bits())).collect::<Vec<_>>();
            assert_eq!(
                as_bits(&load),
                as_bits(&reference),
                "{kernel} on {}",
                mapping.machine().name
            );
            assert!(analytic.ipc(&kernel) > 0.0);
        }
    }
}
