//! Allocation budget of the full reproduction.
//!
//! One `experiments::run_all()` — every table and figure in a fresh
//! process — is the unit the repository benchmark times end to end, and
//! allocator churn dominates its host cost once the prefetch workers
//! contend on a single malloc arena.  This binary counts every heap
//! allocation the run makes with a counting global allocator and fails
//! if the count regresses past the budget.  The count does not depend on
//! the clock (same program, same inputs; thread timing moves it by a
//! few allocations), so the gate needs no wall clock.
//!
//! It is its own test binary holding exactly one test: the global
//! allocator counts every thread in the process, and the sweep engine's
//! memo is process-global, so `run_all` must start from a cold engine
//! with nothing else running.

mod common;

use protolat_core::experiments;

/// Allocations one `run_all` may make.
const BUDGET: u64 = 30_823;

/// FNV-1a 64 of one `run_all` report: every table and figure, pinned
/// byte for byte.  The repository benchmark checks the same digest.
const REPORT_DIGEST: u64 = 0x516a_7857_230a_8a34;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn run_all_stays_within_allocation_budget() {
    let (made, out) = common::allocations(experiments::run_all);
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
