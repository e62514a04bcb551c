//! Deterministic data parallelism for embarrassingly parallel loops.
//!
//! The measurement campaigns (per-benchmark IPC loops in `palmed-eval`, the
//! quadratic pair campaign in `palmed-core`) are pure fan-out work.  This
//! crate provides a `rayon`-shaped `par_map` built on `std::thread::scope` —
//! the build environment has no network access, so the real `rayon` cannot be
//! vendored; the API is kept drop-in so swapping it in later is a one-line
//! dependency change.
//!
//! Guarantees:
//!
//! * results are returned **in input order**, regardless of scheduling;
//! * the closure runs exactly once per item;
//! * with one available core (or tiny inputs) everything runs inline, so
//!   behaviour is identical on constrained machines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of worker threads used for a workload of `len` items.  The core
/// count is queried once per process: `available_parallelism` reads cgroup
/// and affinity state on every call, which would otherwise dominate small
/// inline loops.
fn thread_count(len: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores =
        *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    cores.min(len)
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Items are handed out dynamically (work stealing via a shared atomic
/// cursor) so uneven per-item cost does not serialise the loop.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_indexed(items, |_, item| f(item))
}

/// Like [`par_map`], but the closure also receives the item index.
pub fn par_map_indexed<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let threads = thread_count(items.len());
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    {
        // Hand each worker a disjoint set of result slots via a raw pointer;
        // the atomic cursor guarantees no index is claimed twice.
        struct SlotWriter<R>(*mut Option<R>);
        unsafe impl<R: Send> Send for SlotWriter<R> {}
        unsafe impl<R: Send> Sync for SlotWriter<R> {}
        let writer = SlotWriter(slots.as_mut_ptr());

        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cursor = &cursor;
                let f = &f;
                let writer = &writer;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let value = f(i, &items[i]);
                    // SAFETY: `i` is unique to this worker (fetch_add) and in
                    // bounds, so no two threads write the same slot and the
                    // parent only reads after the scope joins.
                    unsafe { writer.0.add(i).write(Some(value)) };
                });
            }
        });
    }
    slots.into_iter().map(|r| r.expect("every index visited")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn indexed_variant_sees_correct_indices() {
        let items = vec!["a"; 257];
        let out = par_map_indexed(&items, |i, _| i);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_workloads_complete() {
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            // Skewed cost: later items spin longer.
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(out, items);
    }
}
