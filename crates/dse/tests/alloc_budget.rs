//! Pins the steady-state allocation budget of the search's costing step:
//! once every factory base is lowered and every session memo is full,
//! costing a variant — `VariantFactory::design` (its name `String`) plus
//! `bound_design` (memoized arena reads, no clones) — makes at most one
//! heap allocation: the name.
//!
//! This file holds exactly one test so no sibling test can allocate
//! concurrently through the process-global counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tytra_cost::EstimatorSession;
use tytra_device::eval_small;
use tytra_ir::MemForm;
use tytra_kernels::{EvalKernel, Sor};
use tytra_transform::enumerate_variants;

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
fn steady_state_costing_allocates_at_most_one_block_per_variant() {
    let sor = Sor::cubic(16, 10);
    let factory = sor.variant_factory();
    let mut session = EstimatorSession::new(eval_small());
    // The warm sweep doubles as the filter: it keeps the variants the
    // bound pass accepts (seq-inner shapes are rejected), lowers every
    // base and fills every memo.
    let variants: Vec<_> = enumerate_variants(
        sor.geometry().size(),
        &[1, 2, 4, 8, 16, 32],
        &[1, 2],
        &[MemForm::A, MemForm::B],
    )
    .into_iter()
    .filter(|v| {
        let d = factory.design(v).expect("legal variant");
        session.bound_design(&d.patched()).is_ok()
    })
    .collect();
    assert!(!variants.is_empty());

    let before = ALLOCS.load(Ordering::Relaxed);
    for v in &variants {
        let d = factory.design(v).expect("legal variant");
        let _ = session.bound_design(&d.patched());
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        allocs <= variants.len() as u64,
        "{allocs} heap allocations over {} variants (budget: 1 per variant)",
        variants.len()
    );
}
