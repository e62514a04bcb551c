//! Guard: taking a `ServedModel` view allocates nothing, for either
//! backing — the compiled arrays of a registered model and the retained
//! bytes of a `v2b` install — so the wire batcher can take one per entry per
//! round for free.  Serving a kernel through the view with a warm scratch
//! buffer allocates nothing either.  Verified with a counting global
//! allocator, which is why this is a single-test binary: the measurement
//! window must not race another test's allocations.

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
    let owned = registered.served().unwrap();
    let bytes = swapped.served().unwrap();
    assert!(owned.bytes().is_none() && bytes.bytes().is_some(), "one model per backing");

    let kernel = Microkernel::pair(InstId(0), 2, InstId(2), 1);
    let mut scratch = owned.view().scratch();
    for served in [owned, bytes] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let mut total = 0.0;
        for _ in 0..1_000 {
            let view = served.view();
            total += view.ipc_with(&kernel, &mut scratch).unwrap();
            total += view.num_resources() as f64;
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(after - before, 0, "taking and serving a view must not allocate");
        assert!(total > 0.0);
    }
    assert!(!bytes.artifact.mapping_ready(), "serving never rebuilt the mapping");
}
