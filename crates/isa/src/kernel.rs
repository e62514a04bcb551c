//! Microkernels: dependency-free multisets of instructions.
//!
//! A microkernel `K = I1^σ1 I2^σ2 … Im^σm` (Def. IV.1) is an infinite loop
//! repeating a finite multiset of instructions with no dependencies between
//! them.  Because there are no dependencies, the order of instructions does
//! not matter, so a multiset (here a sorted count map) is the right
//! representation.  Palmed builds a handful of benchmark *shapes* from
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
/// Internally the multiset is a flat vector of `(instruction, multiplicity)`
/// pairs, sorted by instruction id with strictly positive multiplicities —
/// kernels are tiny (a handful of distinct instructions), so a sorted vector
/// beats a tree map on every hot operation: hashing and equality walk one
/// contiguous slice, lookups are a branchless binary search, and iteration is
/// a pointer bump.  The derived `Eq`/`Hash`/`Ord` on the sorted vector are
/// exactly the multiset semantics the old `BTreeMap` representation had.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Microkernel {
    /// Sorted by instruction id; every multiplicity is > 0.
    counts: Vec<(InstId, u32)>,
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
    pub fn from_counts(pairs: impl IntoIterator<Item = (InstId, u32)>) -> Self {
        let mut counts: Vec<(InstId, u32)> = pairs.into_iter().filter(|&(_, c)| c > 0).collect();
        counts.sort_unstable_by_key(|&(inst, _)| inst);
        counts.dedup_by(|cur, kept| {
            if cur.0 == kept.0 {
                kept.1 = add_counts(kept.1, cur.1);
                true
            } else {
                false
            }
        });
        Self { counts }
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
    /// Entries with a proportion of zero (or negative) are dropped.
    pub fn from_proportions(
        proportions: impl IntoIterator<Item = (InstId, f64)>,
        tolerance: f64,
        max_total: u32,
    ) -> Self {
        let props: Vec<(InstId, f64)> = proportions.into_iter().filter(|&(_, p)| p > 0.0).collect();
        if props.is_empty() {
            return Self::new();
        }
        let min_prop = props.iter().map(|&(_, p)| p).fold(f64::INFINITY, f64::min);
        // Try increasing scales until every rounded count is within the
        // relative tolerance of the ideal value.
        let mut best: Option<Self> = None;
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
                best = Some(Self::from_counts(counts));
                break;
            }
        }
        best.unwrap_or_else(|| {
            // Fall back to the coarsest rounding if the tolerance cannot be
            // met within the size cap.
            let scale = 1.0 / min_prop;
            Self::from_counts(
                props.iter().map(|&(inst, p)| (inst, (p * scale).round().max(1.0) as u32)),
            )
        })
    }

    /// Adds `count` repetitions of `inst` to the kernel.
    pub fn add(&mut self, inst: InstId, count: u32) {
        if count > 0 {
            match self.counts.binary_search_by_key(&inst, |&(i, _)| i) {
                Ok(pos) => self.counts[pos].1 = add_counts(self.counts[pos].1, count),
                Err(pos) => self.counts.insert(pos, (inst, count)),
            }
        }
    }

    /// Merges another kernel into this one (multiset union with addition).
    pub fn merge(&mut self, other: &Microkernel) {
        if other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            self.counts.clone_from(&other.counts);
            return;
        }
        // Merge-join of the two sorted slices.
        let mut merged = Vec::with_capacity(self.counts.len() + other.counts.len());
        let (mut a, mut b) = (self.counts.iter().peekable(), other.counts.iter().peekable());
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
        self.counts = merged;
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
        let counts = self
            .counts
            .iter()
            .map(|&(inst, count)| {
                let scaled = count.checked_mul(factor);
                debug_assert!(
                    scaled.is_some(),
                    "multiplicity overflow scaling {count} copies of {inst} by {factor}"
                );
                (inst, scaled.unwrap_or(u32::MAX))
            })
            .collect();
        Self { counts }
    }

    /// Multiplicity of an instruction in the kernel (0 if absent).
    pub fn multiplicity(&self, inst: InstId) -> u32 {
        match self.counts.binary_search_by_key(&inst, |&(i, _)| i) {
            Ok(pos) => self.counts[pos].1,
            Err(_) => 0,
        }
    }

    /// Number of *distinct* instructions.
    pub fn num_distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total number of instructions executed per loop iteration, `|K|`.
    pub fn total_instructions(&self) -> u32 {
        self.counts.iter().map(|&(_, c)| c).sum()
    }

    /// True when the kernel contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// True when the kernel contains the given instruction.
    pub fn contains(&self, inst: InstId) -> bool {
        self.counts.binary_search_by_key(&inst, |&(i, _)| i).is_ok()
    }

    /// The `(instruction, multiplicity)` pairs as one contiguous slice,
    /// sorted by instruction id.  This is the zero-cost view hot loops
    /// (prediction microkernels, hashing, interning) should iterate.
    pub fn as_slice(&self) -> &[(InstId, u32)] {
        &self.counts
    }

    /// Iterates over `(instruction, multiplicity)` pairs in instruction order.
    pub fn iter(&self) -> impl Iterator<Item = (InstId, u32)> + '_ {
        self.counts.iter().copied()
    }

    /// Iterates over the distinct instructions of the kernel.
    pub fn instructions(&self) -> impl Iterator<Item = InstId> + '_ {
        self.counts.iter().map(|&(i, _)| i)
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
