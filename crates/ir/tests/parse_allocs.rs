//! Pins the parser's allocation budget: the lexer's tokens borrow their
//! text from the source, so parsing allocates the token vector and the
//! strings and vectors the module keeps, and no string per token.
//! Parsing each shipped asset must allocate fewer than half as many
//! blocks as the source has tokens.
//!
//! This file holds exactly one test so no sibling test can allocate
//! concurrently through the process-global counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tytra_ir::parser::{lexer::lex, parse_unvalidated};

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
fn parsing_an_asset_allocates_under_half_a_block_per_token() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("assets directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tirl"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no assets under {dir}");
    let mut over = Vec::new();
    for path in &paths {
        let src = std::fs::read_to_string(path).expect("asset reads");
        let tokens = lex(&src).expect("asset lexes").len() as u64;
        // A first parse leaves nothing for the counted one to set up (the
        // flight recorder's per-thread lane, say).
        parse_unvalidated(&src).expect("asset parses");
        let before = ALLOCS.load(Ordering::Relaxed);
        let m = parse_unvalidated(&src);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        drop(m);
        if 2 * allocs >= tokens {
            over.push(format!("{}: {allocs} allocations for {tokens} tokens", path.display()));
        }
    }
    assert!(over.is_empty(), "over budget (half a block per token):\n{}", over.join("\n"));
}
