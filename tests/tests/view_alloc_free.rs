//! Guard: taking a `ServedModel`'s batch predictor allocates nothing, for
//! either way in — a registered artifact compiled on the heap and the
//! arrays a `v2b` install copied — so the wire batcher can take one per
//! entry per round for free.  Serving a kernel through it with a warm
//! scratch buffer allocates nothing either.  Verified with a counting
//! global allocator, which is why this is a single-test binary: the
//! measurement window must not race another test's allocations.

use palmed_core::ConjunctiveMapping;
use palmed_isa::{InstId, InstructionSet, Microkernel};
use palmed_serve::{KernelLoad, ModelArtifact, ModelRegistry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn building_the_view_allocates_nothing_for_either_backing() {
    let mut mapping =
        ConjunctiveMapping::new(vec!["r0".into(), "r01".into(), "long-resource-name".into()]);
    mapping.set_usage(InstId(0), vec![0.25, 0.0, 1.0]);
    mapping.set_usage(InstId(2), vec![0.5, 1.0 / 3.0, 0.0]);
    let artifact = ModelArtifact::new("alloc", "test", InstructionSet::paper_example(), mapping);
    let registry = ModelRegistry::new();
    let registered = registry.register(artifact.clone());
    let swapped = registry.swap_bytes("alloc-v2b", artifact.render_v2()).unwrap();
    let compiled = registered.served().unwrap();
    let copied = swapped.served().unwrap();
    assert_eq!(compiled.model, copied.model, "both ways in serve the same arrays");

    let kernel = Microkernel::pair(InstId(0), 2, InstId(2), 1);
    let mut scratch = compiled.model.scratch();
    for served in [compiled, copied] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let mut total = 0.0;
        for _ in 0..1_000 {
            let batch = served.batch();
            total += batch.model().ipc_with(&kernel, &mut scratch).unwrap();
            total += batch.model().num_resources() as f64;
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(after - before, 0, "taking and serving a batch predictor must not allocate");
        assert!(total > 0.0);
    }
}
