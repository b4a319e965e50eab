//! Allocation budget of the full reproduction.
//!
//! One `experiments::run_all()` — every table and figure in a fresh
//! process — is the unit the repository benchmark times end to end, and
//! allocator churn dominates its host cost once the prefetch workers
//! contend on a single malloc arena.  This binary counts every heap
//! allocation the run makes with a counting global allocator and fails
//! if the count regresses past the budget.  The count is deterministic
//! (same program, same inputs, same allocation sequence), so the gate
//! needs no wall clock.
//!
//! It is its own test binary holding exactly one test: the global
//! allocator counts every thread in the process, and the sweep engine's
//! memo is process-global, so `run_all` must start from a cold engine
//! with nothing else running.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use protolat_core::experiments;

/// Allocations one `run_all` may make.
const BUDGET: u64 = 64_600;

/// FNV-1a 64 of one `run_all` report: every table and figure, pinned
/// byte for byte.  The repository benchmark checks the same digest.
const REPORT_DIGEST: u64 = 0x516a_7857_230a_8a34;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn run_all_stays_within_allocation_budget() {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = experiments::run_all();
    let made = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(!out.is_empty());
    eprintln!("run_all: {made} heap allocations (budget {BUDGET})");
    assert!(
        made <= BUDGET,
        "run_all made {made} heap allocations, budget is {BUDGET}"
    );
    let digest = fnv1a(out.as_bytes());
    assert_eq!(
        digest, REPORT_DIGEST,
        "run_all report ({} bytes) digests to {digest:#018x}, pinned {REPORT_DIGEST:#018x}",
        out.len()
    );
}
