//! Microkernels: dependency-free multisets of instructions.
//!
//! A microkernel `K = I1^σ1 I2^σ2 … Im^σm` (Def. IV.1) is an infinite loop
//! repeating a finite multiset of instructions with no dependencies between
//! them.  Because there are no dependencies, the order of instructions does
//! not matter, so a multiset (here sorted `(instruction, count)` pairs) is
//! the right representation.  Palmed builds a handful of benchmark *shapes* from
//! instructions, all provided as constructors here:
//!
//! * `a` — a single instruction repeated,
//! * `aabb` — two instructions, each repeated proportionally to its own IPC,
//! * `a^M b` — M copies of `a` against one of `b` (M = 4 in the paper),
//! * `i i sat^L sat` — the LPAUX kernels combining an instruction with a
//!   saturating kernel.

use crate::inst::InstId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A multiset of instructions executed as an infinite dependency-free loop.
///
/// Multiplicities are integer repetition counts, exactly as in a concrete
/// generated benchmark body.  The paper rounds ideal (fractional, IPC-derived)
/// multiplicities to integers with a 5 % error budget;
/// [`Microkernel::from_proportions`] implements that rounding.
///
/// On real hardware the paper times each kernel as an assembly loop built by
/// three rules: **no dependencies** (destination registers rotate through a
/// pool, so no instance reads a register a nearby instance wrote),
/// **L1-resident memory accesses** (loads and stores hit a small scratch
/// buffer, rotating over a few cache lines) and **unrolling** (the body is
/// repeated enough times per iteration that the loop branch is negligible).
/// The measurers of `palmed-machine` model that loop directly from the
/// multiset, so no assembly is generated here.
///
/// Internally the multiset is a run of `(instruction, multiplicity)` pairs,
/// sorted by instruction id with strictly positive multiplicities, exposed
/// as one contiguous slice by [`as_slice`](Self::as_slice).  Up to two pairs
/// live inline in the 24-byte value; a third distinct instruction spills
/// the run to a heap vector.  Two is what pays off: the quadratic campaign
/// that opens the pipeline measures one `a`, `aabb` or `a^M b` kernel per
/// instruction or pair of instructions (most of the 418,381 kernels one
/// inference measures on the 1,444-instruction inventory), so nearly every
/// kernel is built, hashed, cached and dropped without touching the
/// allocator, while the rare larger kernel (LP1 enrichment, `K_sat`, a
/// served basic block) keeps the sorted vector.  `Eq`, `Hash` and `Ord` go
/// through the slice, so they are the multiset semantics whichever layout
/// holds the pairs, and a kernel hashes to the same bytes as a sorted `Vec`
/// of its pairs.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Microkernel {
    counts: Counts,
}

/// Number of `(instruction, multiplicity)` pairs a kernel holds inline.
const INLINE: usize = 2;

/// An unused inline slot: a multiplicity of 0 marks it.
const EMPTY_SLOT: (InstId, u32) = (InstId(0), 0);

/// The storage behind a [`Microkernel`].  The layout is canonical: a kernel
/// of at most [`INLINE`] distinct instructions is `Inline`, a larger one
/// `Heap`.
#[derive(Clone)]
enum Counts {
    /// Occupied slots first, sorted by instruction id; a multiplicity of 0
    /// marks an empty slot (every trailing one).
    Inline([(InstId, u32); INLINE]),
    /// More than [`INLINE`] pairs, sorted by instruction id.
    Heap(Vec<(InstId, u32)>),
}

impl Default for Counts {
    fn default() -> Self {
        Counts::Inline([EMPTY_SLOT; INLINE])
    }
}

// The inline pairs share the vector's 24 bytes (the enum tag hides in the
// vector's non-null pointer), so a kernel is no larger than the flat vector
// it replaces.
const _: () = assert!(std::mem::size_of::<Microkernel>() == 24);

impl Counts {
    /// The canonical storage of sorted, strictly positive pairs.
    fn from_sorted(pairs: Vec<(InstId, u32)>) -> Self {
        if pairs.len() > INLINE {
            return Counts::Heap(pairs);
        }
        let mut slots = [EMPTY_SLOT; INLINE];
        slots[..pairs.len()].copy_from_slice(&pairs);
        Counts::Inline(slots)
    }
}

/// Number of occupied slots of an inline kernel.
#[inline]
fn inline_len(slots: &[(InstId, u32); INLINE]) -> usize {
    slots.iter().filter(|&&(_, count)| count > 0).count()
}

/// Adds two multiplicities: saturates at `u32::MAX` in release builds (and
/// trips a debug assertion) instead of silently wrapping around.
#[inline]
fn add_counts(a: u32, b: u32) -> u32 {
    let sum = a.checked_add(b);
    debug_assert!(sum.is_some(), "multiplicity overflow adding {a} + {b}");
    sum.unwrap_or(u32::MAX)
}

impl Microkernel {
    /// The empty microkernel (useful as a building block; not benchmarkable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Kernel repeating a single instruction once per iteration.
    pub fn single(inst: InstId) -> Self {
        let mut k = Self::new();
        k.add(inst, 1);
        k
    }

    /// Kernel made of an explicit list of `(instruction, multiplicity)`
    /// pairs; zero multiplicities are ignored, duplicates are accumulated.
    ///
    /// Pairs over at most two distinct instructions are placed inline one by
    /// one.  The third distinct instruction moves everything into one vector
    /// sized for the whole input, which is then sorted and coalesced once.
    pub fn from_counts(pairs: impl IntoIterator<Item = (InstId, u32)>) -> Self {
        let mut pairs = pairs.into_iter();
        let mut kernel = Self::new();
        while let Some((inst, count)) = pairs.next() {
            if count == 0 || kernel.num_distinct() < INLINE || kernel.contains(inst) {
                kernel.add(inst, count);
                continue;
            }
            let mut counts = Vec::with_capacity(INLINE + 1 + pairs.size_hint().0);
            counts.extend_from_slice(kernel.as_slice());
            counts.push((inst, count));
            counts.extend(pairs.filter(|&(_, c)| c > 0));
            counts.sort_unstable_by_key(|&(inst, _)| inst);
            counts.dedup_by(|cur, kept| {
                if cur.0 == kept.0 {
                    kept.1 = add_counts(kept.1, cur.1);
                    true
                } else {
                    false
                }
            });
            return Self { counts: Counts::Heap(counts) };
        }
        kernel
    }

    /// The `a^na b^nb` pair-benchmark shape.
    pub fn pair(a: InstId, na: u32, b: InstId, nb: u32) -> Self {
        Self::from_counts([(a, na), (b, nb)])
    }

    /// Builds a kernel whose multiplicities approximate the given positive
    /// real proportions with at most `tolerance` relative error, using the
    /// smallest scaling factor that achieves it (capped at `max_total`
    /// instructions per iteration).
    ///
    /// This mirrors the paper's 5 % coefficient rounding: a benchmark `aabb`
    /// with `a = 0.06`, `b = 1` becomes `a^1 b^20` (paper, Sec. VI-A).
    ///
    /// Entries with a proportion of zero (or negative) are dropped.  The
    /// proportions are walked once per candidate scale (the iterator is
    /// cloned, never collected), and only the accepted rounding is built.
    pub fn from_proportions<I>(proportions: I, tolerance: f64, max_total: u32) -> Self
    where
        I: IntoIterator<Item = (InstId, f64)>,
        I::IntoIter: Clone,
    {
        let props = proportions.into_iter().filter(|&(_, p)| p > 0.0);
        if props.clone().next().is_none() {
            return Self::new();
        }
        let min_prop = props.clone().map(|(_, p)| p).fold(f64::INFINITY, f64::min);
        let rounded_at = |scale: f64| {
            Self::from_counts(
                props.clone().map(move |(inst, p)| (inst, (p * scale).round().max(1.0) as u32)),
            )
        };
        // Try increasing scales until every rounded count is within the
        // relative tolerance of the ideal value.
        for scale_steps in 1..=max_total {
            let scale = scale_steps as f64 / min_prop;
            let mut ok = true;
            let mut total = 0u64;
            for (_, p) in props.clone() {
                let ideal = p * scale;
                let rounded = ideal.round().max(1.0);
                if (rounded - ideal).abs() / ideal > tolerance {
                    ok = false;
                    break;
                }
                total += rounded as u64;
            }
            if total > max_total as u64 {
                break;
            }
            if ok {
                return rounded_at(scale);
            }
        }
        // Fall back to the coarsest rounding if the tolerance cannot be met
        // within the size cap.
        rounded_at(1.0 / min_prop)
    }

    /// Adds `count` repetitions of `inst` to the kernel.
    pub fn add(&mut self, inst: InstId, count: u32) {
        if count == 0 {
            return;
        }
        match &mut self.counts {
            Counts::Inline(slots) => {
                let len = inline_len(slots);
                match slots[..len].binary_search_by_key(&inst, |&(i, _)| i) {
                    Ok(pos) => slots[pos].1 = add_counts(slots[pos].1, count),
                    Err(pos) if len < INLINE => {
                        slots.copy_within(pos..len, pos + 1);
                        slots[pos] = (inst, count);
                    }
                    Err(pos) => {
                        let mut spilled = Vec::with_capacity(INLINE + 1);
                        spilled.extend_from_slice(slots);
                        spilled.insert(pos, (inst, count));
                        self.counts = Counts::Heap(spilled);
                    }
                }
            }
            Counts::Heap(counts) => match counts.binary_search_by_key(&inst, |&(i, _)| i) {
                Ok(pos) => counts[pos].1 = add_counts(counts[pos].1, count),
                Err(pos) => counts.insert(pos, (inst, count)),
            },
        }
    }

    /// Merges another kernel into this one (multiset union with addition).
    pub fn merge(&mut self, other: &Microkernel) {
        let (ours, theirs) = (self.as_slice(), other.as_slice());
        if theirs.is_empty() {
            return;
        }
        if ours.is_empty() {
            *self = other.clone();
            return;
        }
        // Merge-join of the two sorted slices.
        let mut merged = Vec::with_capacity(ours.len() + theirs.len());
        let (mut a, mut b) = (ours.iter().peekable(), theirs.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => match ia.cmp(&ib) {
                    std::cmp::Ordering::Less => {
                        merged.push((ia, ca));
                        a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((ib, cb));
                        b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push((ia, add_counts(ca, cb)));
                        a.next();
                        b.next();
                    }
                },
                (Some(_), None) => {
                    merged.extend(a.copied());
                    break;
                }
                (None, Some(_)) => {
                    merged.extend(b.copied());
                    break;
                }
                (None, None) => break,
            }
        }
        self.counts = Counts::from_sorted(merged);
    }

    /// Returns a new kernel equal to this one repeated `factor` times.
    ///
    /// Multiplicities that would overflow `u32` saturate at `u32::MAX` in
    /// release builds (and trip a debug assertion) instead of silently
    /// wrapping around.
    #[must_use]
    pub fn scaled(&self, factor: u32) -> Self {
        if factor == 0 {
            return Self::new();
        }
        let mut scaled = self.clone();
        let pairs = match &mut scaled.counts {
            Counts::Inline(slots) => &mut slots[..],
            Counts::Heap(counts) => &mut counts[..],
        };
        // An empty inline slot stays empty: 0 × factor is 0.
        for (inst, count) in pairs.iter_mut() {
            let product = count.checked_mul(factor);
            debug_assert!(
                product.is_some(),
                "multiplicity overflow scaling {count} copies of {inst} by {factor}"
            );
            *count = product.unwrap_or(u32::MAX);
        }
        scaled
    }

    /// Multiplicity of an instruction in the kernel (0 if absent).
    pub fn multiplicity(&self, inst: InstId) -> u32 {
        let counts = self.as_slice();
        match counts.binary_search_by_key(&inst, |&(i, _)| i) {
            Ok(pos) => counts[pos].1,
            Err(_) => 0,
        }
    }

    /// Number of *distinct* instructions.
    pub fn num_distinct(&self) -> usize {
        self.as_slice().len()
    }

    /// Total number of instructions executed per loop iteration, `|K|`.
    pub fn total_instructions(&self) -> u32 {
        self.as_slice().iter().map(|&(_, c)| c).sum()
    }

    /// True when the kernel contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// True when the kernel contains the given instruction.
    pub fn contains(&self, inst: InstId) -> bool {
        self.as_slice().binary_search_by_key(&inst, |&(i, _)| i).is_ok()
    }

    /// The `(instruction, multiplicity)` pairs as one contiguous slice,
    /// sorted by instruction id.  This is the zero-cost view hot loops
    /// (prediction microkernels, hashing, interning) should iterate.
    #[inline]
    pub fn as_slice(&self) -> &[(InstId, u32)] {
        match &self.counts {
            Counts::Inline(slots) => &slots[..inline_len(slots)],
            Counts::Heap(counts) => counts,
        }
    }

    /// Iterates over `(instruction, multiplicity)` pairs in instruction order.
    pub fn iter(&self) -> impl Iterator<Item = (InstId, u32)> + '_ {
        self.as_slice().iter().copied()
    }

    /// Iterates over the distinct instructions of the kernel.
    pub fn instructions(&self) -> impl Iterator<Item = InstId> + '_ {
        self.as_slice().iter().map(|&(i, _)| i)
    }

    /// Renders the kernel with instruction names resolved through `resolve`.
    pub fn display_with<'a>(
        &'a self,
        resolve: impl Fn(InstId) -> String + 'a,
    ) -> impl fmt::Display + 'a {
        struct D<'a, F>(&'a Microkernel, F);
        impl<F: Fn(InstId) -> String> fmt::Display for D<'_, F> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut first = true;
                for (inst, count) in self.0.iter() {
                    if !first {
                        write!(f, " ")?;
                    }
                    first = false;
                    if count == 1 {
                        write!(f, "{}", (self.1)(inst))?;
                    } else {
                        write!(f, "{}^{}", (self.1)(inst), count)?;
                    }
                }
                if first {
                    write!(f, "(empty)")?;
                }
                Ok(())
            }
        }
        D(self, resolve)
    }
}

impl fmt::Display for Microkernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|i| i.to_string()))
    }
}

impl fmt::Debug for Microkernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Microkernel").field("counts", &self.as_slice()).finish()
    }
}

impl PartialEq for Microkernel {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Microkernel {}

impl Hash for Microkernel {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for Microkernel {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Microkernel {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl FromIterator<(InstId, u32)> for Microkernel {
    fn from_iter<T: IntoIterator<Item = (InstId, u32)>>(iter: T) -> Self {
        Self::from_counts(iter)
    }
}

impl Extend<(InstId, u32)> for Microkernel {
    fn extend<T: IntoIterator<Item = (InstId, u32)>>(&mut self, iter: T) {
        for (inst, count) in iter {
            self.add(inst, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(n: u32) -> InstId {
        InstId(n)
    }

    #[test]
    fn single_and_pair_constructors() {
        let k = Microkernel::single(i(3));
        assert_eq!(k.total_instructions(), 1);
        assert_eq!(k.multiplicity(i(3)), 1);

        let p = Microkernel::pair(i(1), 2, i(2), 1);
        assert_eq!(p.total_instructions(), 3);
        assert_eq!(p.num_distinct(), 2);
        assert_eq!(p.multiplicity(i(1)), 2);
    }

    #[test]
    fn zero_counts_are_ignored() {
        let k = Microkernel::from_counts([(i(1), 0), (i(2), 5)]);
        assert!(!k.contains(i(1)));
        assert_eq!(k.multiplicity(i(2)), 5);
    }

    #[test]
    fn duplicates_accumulate() {
        let k = Microkernel::from_counts([(i(1), 2), (i(1), 3)]);
        assert_eq!(k.multiplicity(i(1)), 5);
    }

    #[test]
    fn multiset_equality_ignores_order() {
        let a = Microkernel::from_counts([(i(1), 2), (i(2), 1)]);
        let b = Microkernel::from_counts([(i(2), 1), (i(1), 2)]);
        assert_eq!(a, b);
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn merge_and_scale() {
        let mut a = Microkernel::pair(i(1), 1, i(2), 1);
        a.merge(&Microkernel::single(i(2)));
        assert_eq!(a.multiplicity(i(2)), 2);
        let s = a.scaled(3);
        assert_eq!(s.multiplicity(i(1)), 3);
        assert_eq!(s.multiplicity(i(2)), 6);
    }

    #[test]
    fn from_proportions_matches_paper_example() {
        // a = 0.06, b = 1 with 5% tolerance -> a^1 b^(~17) (paper says b^20
        // with slightly different rounding; the invariant is the ratio).
        let k = Microkernel::from_proportions([(i(1), 0.06), (i(2), 1.0)], 0.05, 200);
        assert!(k.multiplicity(i(1)) >= 1);
        let ratio = k.multiplicity(i(2)) as f64 / k.multiplicity(i(1)) as f64;
        assert!((ratio - 1.0 / 0.06).abs() / (1.0 / 0.06) < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn from_proportions_equal_weights() {
        let k = Microkernel::from_proportions([(i(1), 2.0), (i(2), 2.0)], 0.05, 100);
        assert_eq!(k.multiplicity(i(1)), k.multiplicity(i(2)));
        assert!(k.multiplicity(i(1)) >= 1);
    }

    #[test]
    fn from_proportions_drops_zeros_and_handles_empty() {
        let k = Microkernel::from_proportions([(i(1), 0.0)], 0.05, 100);
        assert!(k.is_empty());
    }

    #[test]
    fn display_is_readable() {
        let k = Microkernel::pair(i(1), 2, i(2), 1);
        assert_eq!(k.to_string(), "I1^2 I2");
        assert_eq!(Microkernel::new().to_string(), "(empty)");
    }

    #[test]
    fn as_slice_is_sorted_by_instruction() {
        let k = Microkernel::from_counts([(i(9), 1), (i(2), 3), (i(9), 1), (i(5), 2)]);
        assert_eq!(k.as_slice(), &[(i(2), 3), (i(5), 2), (i(9), 2)]);
        assert_eq!(k.iter().collect::<Vec<_>>(), k.as_slice());
    }

    #[test]
    fn merge_joins_sorted_runs() {
        let mut a = Microkernel::from_counts([(i(1), 1), (i(3), 2), (i(7), 1)]);
        a.merge(&Microkernel::from_counts([(i(0), 5), (i(3), 1), (i(9), 4)]));
        assert_eq!(a.as_slice(), &[(i(0), 5), (i(1), 1), (i(3), 3), (i(7), 1), (i(9), 4)]);
        let mut empty = Microkernel::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        a.merge(&Microkernel::new());
        assert_eq!(empty, a);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "multiplicity overflow"))]
    fn scaled_saturates_instead_of_wrapping() {
        let k = Microkernel::from_counts([(i(1), u32::MAX / 2 + 1)]);
        // Debug builds assert; release builds saturate rather than wrap to a
        // tiny (wrong) multiplicity.
        assert_eq!(k.scaled(4).multiplicity(i(1)), u32::MAX);
    }

    #[test]
    fn scaled_by_zero_is_empty() {
        let k = Microkernel::pair(i(1), 2, i(2), 1);
        assert!(k.scaled(0).is_empty());
    }

    #[test]
    fn collect_and_extend() {
        let k: Microkernel = vec![(i(1), 1), (i(2), 2)].into_iter().collect();
        assert_eq!(k.total_instructions(), 3);
        let mut k2 = k.clone();
        k2.extend([(i(3), 1)]);
        assert_eq!(k2.num_distinct(), 3);
    }
}
