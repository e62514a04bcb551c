//! Kernel interning: give every distinct microkernel one small id.
//!
//! Basic-block streams are massively redundant — the same hot loop body shows
//! up thousands of times — and a serving pipeline wants to pay hashing and
//! equality once per *distinct* kernel, not once per occurrence.
//! [`KernelSet`] is an insert-only interner: [`KernelSet::intern`] maps a
//! [`Microkernel`] to a dense [`KernelId`] (first-occurrence order).  Callers
//! that already hold a kernel's hash (the measurement memo, a batch dedup)
//! pass it in through the `*_hashed` entry points, so each kernel is hashed
//! once per call.
//!
//! Every hash table of this kind in the workspace (instruction names,
//! interned kernels, the batch dedup, the measurement memo's shards) stays
//! exact under a true 64-bit collision through one rule, written once in
//! `HashIndex`: the first id keeps the hash's slot, and later distinct keys
//! with the same hash go to an overflow list scanned by equality.
//!
//! The hasher is [`FxLikeHasher`], a multiply-xor hasher in the FxHash
//! family: kernels hash as short sequences of small integers, for which a
//! DoS-resistant SipHash is pure overhead (measured in the serve layer:
//! SipHash cost comparable to an entire IPC prediction).  Collisions only
//! cost an extra equality check.

use crate::kernel::Microkernel;
use std::collections::hash_map::{Entry, HashMap};
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

/// A hash index with the workspace's one collision rule: the map from a
/// 64-bit hash to the first id filed under it, plus an overflow list of the
/// later ids whose keys are different but hash the same (a true 64-bit
/// collision, empty in practice).  The caller owns the keys, indexed by id,
/// and decides equality, so one index serves instruction names, interned
/// kernels and the measurement memo alike.
///
/// One flat slot per hash instead of a bucket `Vec`: buckets would mean one
/// heap allocation per key (and per clone).  Keys are already well-mixed
/// hashes, so the map itself uses the cheap one-round hasher.
///
/// `find`, `find_or_insert` and the [`KernelSet`] entry points over them
/// are `#[inline]`: the measurement memo in `palmed-machine` calls them
/// once per kernel, and left as calls they cost `palbench`'s
/// `train_analytic` about 3 % more CPU (2-core x86-64 container, paired
/// runs).
#[derive(Debug, Clone, Default)]
pub(crate) struct HashIndex {
    /// Hash → the first id filed under it.
    table: HashMap<u64, u32, FxBuildHasher>,
    /// Ids whose hash already belonged to a different key; scanned by
    /// equality.
    overflow: Vec<u32>,
}

impl HashIndex {
    /// An empty index with room for `capacity` hashes.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        HashIndex {
            table: HashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default()),
            overflow: Vec::new(),
        }
    }

    /// Makes room for `additional` more hashes.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.table.reserve(additional);
    }

    /// The id of the key hashing to `hash` that `is_equal` accepts.  An
    /// overflow id of another hash is never equal (equal keys hash
    /// equally), so the scan needs no hash check.
    #[inline]
    pub(crate) fn find(&self, hash: u64, mut is_equal: impl FnMut(u32) -> bool) -> Option<u32> {
        let first = *self.table.get(&hash)?;
        if is_equal(first) {
            return Some(first);
        }
        self.overflow.iter().copied().find(|&id| is_equal(id))
    }

    /// [`find`](Self::find), else files `fresh_id` for the key (in the
    /// table when the hash is new, else in the overflow list) and returns
    /// it: the key is new exactly when the result is `fresh_id`.
    #[inline]
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        fresh_id: u32,
        mut is_equal: impl FnMut(u32) -> bool,
    ) -> u32 {
        match self.table.entry(hash) {
            // A vacant slot proves the key is new (equal keys hash equally).
            Entry::Vacant(e) => {
                e.insert(fresh_id);
            }
            Entry::Occupied(e) => {
                let first = *e.get();
                if is_equal(first) {
                    return first;
                }
                if let Some(id) = self.overflow.iter().copied().find(|&id| is_equal(id)) {
                    return id;
                }
                self.overflow.push(fresh_id);
            }
        }
        fresh_id
    }
}

/// An insert-only interner of microkernels.
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
    /// [`KernelSet::hash_kernel`] → id.
    index: HashIndex,
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

    /// Makes room for `additional` more kernels.
    pub fn reserve(&mut self, additional: usize) {
        self.kernels.reserve(additional);
        self.index.reserve(additional);
    }

    /// The 64-bit Fx hash of a kernel, the key of the index.
    pub fn hash_kernel(kernel: &Microkernel) -> u64 {
        let mut hasher = FxLikeHasher::default();
        kernel.hash(&mut hasher);
        hasher.finish()
    }

    /// Looks a kernel up without inserting it.
    pub fn lookup(&self, kernel: &Microkernel) -> Option<KernelId> {
        self.lookup_hashed(Self::hash_kernel(kernel), kernel)
    }

    /// [`lookup`](Self::lookup) of a kernel whose
    /// [`hash_kernel`](Self::hash_kernel) hash the caller already has.
    #[inline]
    pub fn lookup_hashed(&self, hash: u64, kernel: &Microkernel) -> Option<KernelId> {
        debug_assert_eq!(hash, Self::hash_kernel(kernel), "a kernel paired with another hash");
        self.index.find(hash, |id| self.kernels[id as usize] == *kernel).map(KernelId)
    }

    /// The id `kernel` has or, when it is new, the id it is about to get
    /// (the caller pushes it): clone-on-miss and move interning share this.
    #[inline]
    fn locate(&mut self, hash: u64, kernel: &Microkernel) -> u32 {
        let kernels = &self.kernels;
        self.index.find_or_insert(hash, kernels.len() as u32, |id| kernels[id as usize] == *kernel)
    }

    /// Interns a kernel: returns the existing id when an equal kernel is
    /// already present, otherwise clones it in and returns the fresh id.
    pub fn intern(&mut self, kernel: &Microkernel) -> KernelId {
        let id = self.locate(Self::hash_kernel(kernel), kernel);
        if id as usize == self.kernels.len() {
            self.kernels.push(kernel.clone());
        }
        KernelId(id)
    }

    /// Interns an owned kernel without cloning when it is new.
    pub fn intern_owned(&mut self, kernel: Microkernel) -> KernelId {
        self.intern_hashed(Self::hash_kernel(&kernel), kernel)
    }

    /// [`intern_owned`](Self::intern_owned) of a kernel whose
    /// [`hash_kernel`](Self::hash_kernel) hash the caller already has.  The
    /// kernel is new exactly when the returned id is the set's former
    /// length.
    #[inline]
    pub fn intern_hashed(&mut self, hash: u64, kernel: Microkernel) -> KernelId {
        debug_assert_eq!(hash, Self::hash_kernel(&kernel), "a kernel paired with another hash");
        let id = self.locate(hash, &kernel);
        if id as usize == self.kernels.len() {
            self.kernels.push(kernel);
        }
        KernelId(id)
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
        let mut index = HashIndex::with_capacity(len);
        let mut distinct: Vec<&'k Microkernel> = Vec::with_capacity(len);
        let mut slots: Vec<u32> = Vec::with_capacity(len);
        for (hash, kernel) in kernels {
            debug_assert_eq!(hash, Self::hash_kernel(kernel), "a kernel paired with another hash");
            let fresh = distinct.len() as u32;
            let id = index.find_or_insert(hash, fresh, |id| distinct[id as usize] == kernel);
            if id == fresh {
                distinct.push(kernel);
            }
            slots.push(id);
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
/// (the index is derived state).
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
    fn hashed_entry_points_agree_with_the_plain_ones() {
        let mut set = KernelSet::new();
        for n in 0..20u32 {
            let kernel = k(&[(n % 5, 1 + n), (n, 2)]);
            let hash = KernelSet::hash_kernel(&kernel);
            assert_eq!(set.lookup_hashed(hash, &kernel), None);
            let id = set.intern_hashed(hash, kernel.clone());
            assert_eq!(id.index(), set.len() - 1, "a new kernel gets the next id");
            assert_eq!(set.intern_hashed(hash, kernel.clone()), id);
            assert_eq!(set.lookup_hashed(hash, &kernel), Some(id));
            assert_eq!(set.intern(&kernel), id);
        }
        assert_eq!(set.len(), 20);
    }

    /// Ids 0, 1 and 2 name the keys "a", "b" and "c", all filed under one
    /// injected hash.
    #[test]
    fn hash_index_keeps_colliding_keys_apart() {
        const HASH: u64 = 7;
        let keys = ["a", "b", "c"];
        let is = |key: &'static str| move |id: u32| keys[id as usize] == key;
        let mut index = HashIndex::default();
        for (fresh, &key) in keys.iter().enumerate() {
            assert_eq!(index.find_or_insert(HASH, fresh as u32, is(key)), fresh as u32);
        }
        // The first id keeps the slot; the later distinct keys overflow.
        assert_eq!(index.table.len(), 1);
        assert_eq!(index.table[&HASH], 0);
        assert_eq!(index.overflow, [1, 2]);
        for (id, &key) in keys.iter().enumerate() {
            assert_eq!(index.find(HASH, is(key)), Some(id as u32));
            // A repeat returns its existing id and files nothing.
            assert_eq!(index.find_or_insert(HASH, 3, is(key)), id as u32);
        }
        assert_eq!(index.overflow, [1, 2]);
        // An absent key under a used hash, and any key under an unused one.
        assert_eq!(index.find(HASH, is("d")), None);
        assert_eq!(index.find(HASH + 1, |_| true), None);
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
