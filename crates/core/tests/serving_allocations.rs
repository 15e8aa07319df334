//! Allocation budget of the serving forward. `Rrre::infer_user_tower`,
//! `infer_item_tower` and `infer_heads` run the training forward's
//! definitions on the value evaluator, which allocates one buffer per op
//! that cannot reuse an operand's. This binary counts every heap allocation
//! the process makes (one test only, so no other test thread allocates
//! while it counts) and pins the count per call at the bench model's
//! shapes (k = 64, s_u = 11, s_i = 12), so a per-op cost creeping into the
//! serving path fails here.

use rrre_core::{Rrre, RrreConfig};
use rrre_testkit::FixtureSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by one call of `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    black_box(f());
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn serving_forward_stays_within_its_allocation_budget() {
    let spec = FixtureSpec::small();
    let (ds, corpus) = spec.corpus();
    let train: Vec<usize> = (0..ds.len()).collect();
    let cfg = RrreConfig { epochs: 1, seed: spec.seed, threads: 1, ..RrreConfig::default() };
    assert_eq!((cfg.k, cfg.s_u, cfg.s_i), (64, 11, 12), "the bench model's shapes");
    let model = Rrre::fit(&ds, &corpus, &train, cfg);
    assert!(model.has_frozen_cache());

    let r = &ds.reviews[0];
    let (user, item) = (r.user, r.item);
    let index = model.index();
    assert!(!index.user_reviews(user).is_empty() && !index.item_reviews(item).is_empty());

    let (x_u, y_i) = (model.infer_user_tower(user, item), model.infer_item_tower(user, item));
    let user_tower = allocations(|| model.infer_user_tower(user, item));
    let item_tower = allocations(|| model.infer_item_tower(user, item));
    let heads = allocations(|| model.infer_heads(user, item, &x_u, &y_i));
    assert!(
        user_tower <= 16 && item_tower <= 16 && heads <= 14,
        "allocations per call: user tower {user_tower} (≤ 16), item tower {item_tower} (≤ 16), heads {heads} (≤ 14)"
    );
}
