//! Heap bytes of validating and fingerprinting a recorded trace.
//!
//! `TraceStream::from_events` splits a log into per-lane logs, and
//! `TraceStream::fingerprint` streams the stream's canonical log into
//! FNV-1a one record at a time.  Neither should hold a second copy of
//! the log or of its encoding: on a 161k-event log either copy is
//! megabytes of fresh pages.  This binary counts the bytes each call
//! requests from a counting global allocator and fails past its bound;
//! the count is deterministic, so the gate needs no wall clock.
//!
//! It is its own test binary holding exactly one test: the global
//! allocator counts every thread in the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use netsim::{Fate, Ns};
use trace::TraceEvent;
use traffic::{record_traffic, FixedService, TraceStream, TrafficConfig};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// Counts the bytes requested: each allocation's size, and the growth
// of each reallocation (a shrink requests nothing).
//
// SAFETY: every method passes its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is an atomic
// and touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The heap bytes `f` requests, and its result.
fn bytes<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (BYTES.load(Ordering::Relaxed) - before, out)
}

/// Bytes `TraceStream::fingerprint` may request in total.
const FINGERPRINT_BUDGET: u64 = 64 << 10;

#[test]
fn validation_and_fingerprint_stay_within_byte_budgets() {
    // Four lanes of 20k messages under the repository benchmark's fault
    // mix: about 160k events.
    let cfg = TrafficConfig::open_loop(80_000, 20_000, 512)
        .with_workers(4)
        .with_shards(8, 24)
        .with_seed(0x7EA5)
        .with_faults(3_000, 1_500, 3_000, 1_500);
    let svc = |_| FixedService { cache_hit_ns: 9_000, chain_hit_ns: 11_000, miss_ns: 40_000 };
    let (_, events) = record_traffic(&cfg, svc).expect("recording run must drain");

    // What the stream's lane logs hold: a 16-byte tuple per arrival, a
    // `Fate` per fate and a 24-byte tuple per RTO firing.
    let lane_bytes: usize = events
        .iter()
        .map(|ev| match ev {
            TraceEvent::Arrival { .. } => size_of::<(Ns, u32)>(),
            TraceEvent::Fate { .. } => size_of::<Fate>(),
            TraceEvent::Rto(_) => size_of::<(Ns, u32, Ns)>(),
            TraceEvent::Config(_) | TraceEvent::Verdict(_) => 0,
        })
        .sum();
    // Arrivals and fates are sized before they fill (fates at each
    // lane's first fate, once its RTO firings are in): on this log
    // `from_events` requests 4,200 B more than the lane logs hold.
    let validate_budget = lane_bytes as u64 * 101 / 100;

    let (validated, stream) = bytes(|| TraceStream::from_events(&events));
    let stream = stream.expect("recorded log validates");
    let (hashed, fp) = bytes(|| stream.fingerprint());
    assert_eq!(fp, trace::fingerprint(&events));
    eprintln!(
        "{} events: from_events requested {validated} B (lane logs {lane_bytes} B, budget \
         {validate_budget} B); fingerprint requested {hashed} B (budget {FINGERPRINT_BUDGET} B)",
        events.len()
    );
    assert!(
        validated <= validate_budget,
        "from_events requested {validated} B, budget is {validate_budget} B"
    );
    assert!(
        hashed < FINGERPRINT_BUDGET,
        "fingerprint requested {hashed} B, budget is {FINGERPRINT_BUDGET} B"
    );
}
