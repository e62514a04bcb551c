//! Guard: while the obs layer is disabled (the default), instrumentation
//! does **no heap allocation** — call-site cells don't register their
//! metrics, events don't build field vectors, spans don't open rings.
//! Verified with a counting global allocator that counts per thread: the
//! window reads only the instrumented thread's count, so an allocation by
//! the test harness's own threads cannot fail it.  This is still a
//! single-test binary, because the global flag must stay off for the whole
//! process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, plus a per-thread count of allocations.
struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and never registers a teardown hook.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`, not `with`: an allocation during thread teardown must
        // not panic inside the allocator.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn disabled_instrumentation_allocates_nothing_and_registers_nothing() {
    // Pin the flag off explicitly so `enabled()` never consults the
    // environment (env access allocates) inside the measurement window.
    palmed_obs::set_enabled(false);

    let before = allocations();
    for i in 0..10_000u64 {
        palmed_obs::counter!("it.disabled.counter").inc();
        palmed_obs::counter!("it.disabled.counter").add(i);
        palmed_obs::gauge!("it.disabled.gauge").set(i as f64);
        palmed_obs::histogram!("it.disabled.histogram").record(i);
        let timer = palmed_obs::start_timer();
        palmed_obs::histogram!("it.disabled.histogram").record_elapsed(timer);
        palmed_obs::event!("it.disabled.event", i = i, label = "never built");
        let span = palmed_obs::span("it.disabled.section");
        assert!(span.elapsed_ns().is_none(), "a disabled span holds no clock stamp");
        drop(span);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "disabled instrumentation must not allocate");

    // Nothing registered either: the snapshot knows none of the names, and
    // no event reached any ring.
    let snapshot = palmed_obs::snapshot();
    assert_eq!(snapshot.counter("it.disabled.counter"), None);
    assert_eq!(snapshot.gauge("it.disabled.gauge"), None);
    assert!(snapshot.histogram("it.disabled.histogram").is_none());
    let (events, dropped) = palmed_obs::drain_events();
    assert!(events.is_empty(), "no event is buffered while disabled");
    assert_eq!(dropped, 0);
}
