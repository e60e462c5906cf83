//! Pins that a warm `estimate_design` makes as many heap allocations at
//! 64 lanes as at 1: the report shares the memoized stream list instead
//! of copying one entry per lane and stream, and the passes price the
//! lane subtree once whatever the lane count.
//!
//! This file holds exactly one test so no sibling test can allocate
//! concurrently through the process-global counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tytra_cost::EstimatorSession;
use tytra_device::stratix_v_gsd8;
use tytra_kernels::{EvalKernel, Hotspot, LavaMd};
use tytra_transform::Variant;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its caller's arguments straight to
// `System`, so `System`'s guarantees hold; the counter touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_estimates_allocate_the_same_at_every_lane_count() {
    let kernels: [(&str, Box<dyn EvalKernel>); 2] =
        [("hotspot", Box::new(Hotspot::default())), ("lavamd", Box::new(LavaMd::default()))];
    for (name, kernel) in kernels {
        let factory = kernel.variant_factory();
        let mut session = EstimatorSession::new(stratix_v_gsd8());
        let allocs: Vec<u64> = [1u64, 16, 64]
            .iter()
            .map(|&lanes| {
                let v = Variant { lanes, ..Variant::baseline() };
                let d = factory.design(&v).expect("legal variant");
                session.estimate_design(&d.patched()).expect("estimate");
                // The fewest over a few warm calls, so a stray allocation
                // on another thread cannot tip the comparison.
                (0..3)
                    .map(|_| {
                        let before = ALLOCS.load(Ordering::Relaxed);
                        let report = session.estimate_design(&d.patched()).expect("estimate");
                        let n = ALLOCS.load(Ordering::Relaxed) - before;
                        drop(report);
                        n
                    })
                    .min()
                    .expect("three calls")
            })
            .collect();
        assert!(
            allocs.iter().all(|&n| n == allocs[0]),
            "{name}: a warm estimate allocates {allocs:?} times at 1/16/64 lanes"
        );
    }
}
