//! Kernel interning: give every distinct microkernel one small id.
//!
//! Basic-block streams are massively redundant — the same hot loop body shows
//! up thousands of times — and a serving pipeline wants to pay hashing and
//! equality once per *distinct* kernel, not once per occurrence.
//! [`KernelSet`] is an insert-only interner: [`KernelSet::intern`] maps a
//! [`Microkernel`] to a dense [`KernelId`] (first-occurrence order), caching
//! the kernel's 64-bit hash so later lookups and re-interning never walk the
//! kernel again unless the hashes collide.
//!
//! The hasher is [`FxLikeHasher`], a multiply-xor hasher in the FxHash
//! family: kernels hash as short sequences of small integers, for which a
//! DoS-resistant SipHash is pure overhead (measured in the serve layer:
//! SipHash cost comparable to an entire IPC prediction).  Collisions only
//! cost an extra equality check.

use crate::kernel::Microkernel;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A multiply-xor hasher in the FxHash family: one round per written word.
///
/// Hash quality beyond "mixes all words" buys nothing here — hash users in
/// this workspace (interners, dedup tables) resolve collisions by equality.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxLikeHasher(u64);

impl FxLikeHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn round(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxLikeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.round(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.round(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.round(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.round(n as u64);
    }
}

/// `BuildHasher` for [`FxLikeHasher`], usable with `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxLikeHasher>;

/// Identifier of a distinct microkernel inside a [`KernelSet`], dense in
/// first-occurrence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub u32);

impl KernelId {
    /// Raw index into the owning kernel set.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// The collision scan of the interning scheme: ids land in the overflow
/// list only when their hash already belonged to a *different* kernel, so
/// the list is empty in practice and equality is the only check needed.
#[inline]
fn find_collision<K: std::borrow::Borrow<Microkernel>>(
    kernels: &[K],
    overflow: &[u32],
    kernel: &Microkernel,
) -> Option<u32> {
    overflow.iter().copied().find(|&i| kernels[i as usize].borrow() == kernel)
}

/// An insert-only interner of microkernels with cached 64-bit hashes.
///
/// # Sharing contract
///
/// The set is **insert-only**: kernels are never removed or reordered, so a
/// [`KernelId`], once handed out, resolves to the same kernel for the
/// lifetime of the set — and of every clone taken after the id was issued.
/// That is what makes an `Arc<KernelSet>` safe to share across consumers
/// (the serving layer's corpora and prepared batches do exactly this):
/// readers hold a snapshot whose ids are stable, and a writer that needs to
/// keep interning while the set is shared can clone-on-write knowing the
/// copy agrees with the original on every id both have seen.
#[derive(Debug, Clone, Default)]
pub struct KernelSet {
    /// The distinct kernels, indexed by [`KernelId`].
    kernels: Vec<Microkernel>,
    /// Cached [`KernelSet::hash_kernel`] of every kernel, same indexing.
    hashes: Vec<u64>,
    /// Hash → first id with that hash.  One flat slot instead of a bucket
    /// `Vec` per entry: buckets would mean one heap allocation per distinct
    /// kernel (and per clone of the set); true 64-bit collisions go to the
    /// shared `overflow` list instead.  Keys are already well-mixed hashes,
    /// so the map itself uses the cheap one-round hasher too.
    table: HashMap<u64, u32, FxBuildHasher>,
    /// Ids whose hash collided with an earlier, different kernel; scanned
    /// linearly (empty in practice).
    overflow: Vec<u32>,
}

impl KernelSet {
    /// An empty set.
    pub fn new() -> Self {
        KernelSet::default()
    }

    /// Number of distinct kernels interned.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// The 64-bit Fx hash of a kernel — the value cached per entry.
    pub fn hash_kernel(kernel: &Microkernel) -> u64 {
        let mut hasher = FxLikeHasher::default();
        kernel.hash(&mut hasher);
        hasher.finish()
    }

    /// Looks a kernel up without inserting it.
    pub fn lookup(&self, kernel: &Microkernel) -> Option<KernelId> {
        let hash = Self::hash_kernel(kernel);
        let primary = *self.table.get(&hash)?;
        if self.kernels[primary as usize] == *kernel {
            return Some(KernelId(primary));
        }
        find_collision(&self.kernels, &self.overflow, kernel).map(KernelId)
    }

    /// The shared interning core: finds the kernel by its hash, or registers
    /// the next fresh id in the index (primary slot or overflow list) and
    /// returns `Err` — the caller then pushes the kernel itself, which is
    /// what lets [`intern`](Self::intern) clone only on a miss while
    /// [`intern_owned`](Self::intern_owned) moves.
    fn locate_or_reserve(&mut self, hash: u64, kernel: &Microkernel) -> Result<u32, u32> {
        let id = self.kernels.len() as u32;
        match self.table.entry(hash) {
            // A vacant hash slot proves the kernel is new (equal kernels
            // hash equally).
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(id);
                Err(id)
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let primary = *e.get();
                if self.kernels[primary as usize] == *kernel {
                    return Ok(primary);
                }
                if let Some(i) = find_collision(&self.kernels, &self.overflow, kernel) {
                    return Ok(i);
                }
                self.overflow.push(id);
                Err(id)
            }
        }
    }

    /// Interns a kernel: returns the existing id when an equal kernel is
    /// already present, otherwise clones it in and returns the fresh id.
    pub fn intern(&mut self, kernel: &Microkernel) -> KernelId {
        let hash = Self::hash_kernel(kernel);
        match self.locate_or_reserve(hash, kernel) {
            Ok(existing) => KernelId(existing),
            Err(fresh) => {
                self.kernels.push(kernel.clone());
                self.hashes.push(hash);
                KernelId(fresh)
            }
        }
    }

    /// Interns an owned kernel without cloning when it is new.
    pub fn intern_owned(&mut self, kernel: Microkernel) -> KernelId {
        let hash = Self::hash_kernel(&kernel);
        match self.locate_or_reserve(hash, &kernel) {
            Ok(existing) => KernelId(existing),
            Err(fresh) => {
                self.kernels.push(kernel);
                self.hashes.push(hash);
                KernelId(fresh)
            }
        }
    }

    /// Dedupes a sequence of kernels *by reference*, without building a set:
    /// returns the distinct kernels in first-occurrence order plus, for every
    /// input position, the index of its kernel in that list.  Same hashing
    /// and collision handling as [`KernelSet::intern`], minus the clones —
    /// the one-shot batch path.
    pub fn dedup_refs<'k>(
        kernels: impl IntoIterator<Item = &'k Microkernel>,
    ) -> (Vec<&'k Microkernel>, Vec<u32>) {
        Self::dedup_hashed(kernels.into_iter().map(|kernel| (Self::hash_kernel(kernel), kernel)))
    }

    /// [`dedup_refs`](Self::dedup_refs) over kernels paired with their
    /// [`hash_kernel`](Self::hash_kernel) hashes, for a caller that keeps
    /// the hashes for later use and so hashes each kernel once.
    pub fn dedup_hashed<'k>(
        kernels: impl IntoIterator<Item = (u64, &'k Microkernel)>,
    ) -> (Vec<&'k Microkernel>, Vec<u32>) {
        let kernels = kernels.into_iter();
        let len = kernels.size_hint().0;
        let mut table: HashMap<u64, u32, FxBuildHasher> =
            HashMap::with_capacity_and_hasher(len, FxBuildHasher::default());
        let mut overflow: Vec<u32> = Vec::new();
        let mut distinct: Vec<&'k Microkernel> = Vec::with_capacity(len);
        let mut slots: Vec<u32> = Vec::with_capacity(len);
        for (hash, kernel) in kernels {
            debug_assert_eq!(hash, Self::hash_kernel(kernel), "a kernel paired with another hash");
            let id = distinct.len() as u32;
            let index = match table.entry(hash) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(id);
                    distinct.push(kernel);
                    id
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let primary = *e.get();
                    if distinct[primary as usize] == kernel {
                        primary
                    } else if let Some(i) = find_collision(&distinct, &overflow, kernel) {
                        i
                    } else {
                        overflow.push(id);
                        distinct.push(kernel);
                        id
                    }
                }
            };
            slots.push(index);
        }
        (distinct, slots)
    }

    /// The kernel behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this set.
    pub fn get(&self, id: KernelId) -> &Microkernel {
        &self.kernels[id.index()]
    }

    /// The cached hash of an interned kernel.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this set.
    pub fn hash_of(&self, id: KernelId) -> u64 {
        self.hashes[id.index()]
    }

    /// The distinct kernels as a slice, indexed by [`KernelId::index`] —
    /// first-occurrence order.
    pub fn as_slice(&self) -> &[Microkernel] {
        &self.kernels
    }

    /// Iterates over `(id, kernel)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (KernelId, &Microkernel)> {
        self.kernels.iter().enumerate().map(|(i, k)| (KernelId(i as u32), k))
    }
}

/// Two sets are equal when they interned the same kernels in the same order
/// (the table and hash cache are derived state).
impl PartialEq for KernelSet {
    fn eq(&self, other: &Self) -> bool {
        self.kernels == other.kernels
    }
}

impl Eq for KernelSet {}

impl<'k> FromIterator<&'k Microkernel> for KernelSet {
    fn from_iter<T: IntoIterator<Item = &'k Microkernel>>(iter: T) -> Self {
        let mut set = KernelSet::new();
        for kernel in iter {
            set.intern(kernel);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstId;

    fn k(pairs: &[(u32, u32)]) -> Microkernel {
        Microkernel::from_counts(pairs.iter().map(|&(i, c)| (InstId(i), c)))
    }

    #[test]
    fn interning_dedupes_and_preserves_first_occurrence_order() {
        let mut set = KernelSet::new();
        let a = set.intern(&k(&[(0, 1), (1, 2)]));
        let b = set.intern(&k(&[(2, 1)]));
        let a_again = set.intern(&k(&[(1, 2), (0, 1)])); // same multiset
        assert_eq!(a, KernelId(0));
        assert_eq!(b, KernelId(1));
        assert_eq!(a_again, a);
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(a), &k(&[(0, 1), (1, 2)]));
        assert_eq!(set.as_slice().len(), 2);
        assert_eq!(set.iter().map(|(id, _)| id).collect::<Vec<_>>(), [KernelId(0), KernelId(1)]);
    }

    #[test]
    fn cached_hashes_match_fresh_hashes() {
        let mut set = KernelSet::new();
        for n in 0..20u32 {
            let kernel = k(&[(n % 5, 1 + n), (n, 2)]);
            let id = set.intern(&kernel);
            assert_eq!(set.hash_of(id), KernelSet::hash_kernel(&kernel));
        }
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut set = KernelSet::new();
        assert_eq!(set.lookup(&k(&[(0, 1)])), None);
        let id = set.intern_owned(k(&[(0, 1)]));
        assert_eq!(set.lookup(&k(&[(0, 1)])), Some(id));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn equality_ignores_derived_state() {
        let mut a = KernelSet::new();
        a.intern(&k(&[(0, 1)]));
        a.lookup(&k(&[(1, 1)]));
        let b: KernelSet = [k(&[(0, 1)])].iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn fx_hasher_mixes_word_writes() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let a = k(&[(0, 1), (1, 2)]);
        let b = k(&[(0, 2), (1, 1)]);
        // Same multiset built in a different order must hash identically.
        let c = k(&[(1, 1), (0, 2)]);
        assert_eq!(build.hash_one(&a), build.hash_one(&a));
        assert_ne!(build.hash_one(&a), build.hash_one(&b));
        assert_eq!(build.hash_one(&b), build.hash_one(&c));
        // The byte-slice path is exercised too (e.g. str keys elsewhere).
        assert_ne!(build.hash_one("some string"), build.hash_one("some strinh"));
    }
}
