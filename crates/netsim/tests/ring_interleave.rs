//! Loom-style interleaving suite for the dispatch plane's MPSC injector
//! ring — with no crates.io dependencies, three disciplines stand in
//! for a model checker:
//!
//! 1. **Exhaustive schedule enumeration**: every interleaving of
//!    producer/consumer *operations* on a tiny ring is driven from one
//!    thread and checked step-by-step against a `VecDeque` model —
//!    full/empty edges and wrap-around all visited.
//! 2. **Seeded random schedules**: long random operation schedules over
//!    larger rings, still model-checked.
//! 3. **Real-thread stress**: producers and consumers on real threads —
//!    the actual CAS-claim protocol under genuine contention, including
//!    concurrent stealing consumers.
//!
//! Invariants: no element lost, none duplicated, FIFO per producer, and
//! a full/empty report is never wrong for the model state.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use netsim::rng::SplitMix64;
use netsim::MpscRing;

// ---------------------------------------------------------------------
// 1. Exhaustive schedule enumeration (single thread, model-checked)
// ---------------------------------------------------------------------

#[test]
fn mpsc_exhaustive_two_producer_schedules() {
    // All 3^9 interleavings of {producer A push, producer B push, pop}
    // on a capacity-4 ring.  Single-threaded, so the ring must be
    // globally FIFO in schedule order; values are tagged with their
    // producer so per-producer order is also checked.
    let len = 9;
    let mut schedule = vec![0u8; len];
    let total = 3usize.pow(len as u32);
    for mut code in 0..total {
        for slot in schedule.iter_mut() {
            *slot = (code % 3) as u8;
            code /= 3;
        }
        let q = MpscRing::<u64>::new(4);
        let mut model: VecDeque<u64> = VecDeque::new();
        let (mut next_a, mut next_b) = (0u64, 0u64);
        let mut last_seen = [None::<u64>, None::<u64>];
        for &op in &schedule {
            match op {
                0 | 1 => {
                    let v = if op == 0 {
                        next_a
                    } else {
                        (1 << 32) | next_b
                    };
                    let ok = q.push(v).is_ok();
                    assert_eq!(ok, model.len() < 4, "push full/ok disagrees with model");
                    if ok {
                        model.push_back(v);
                        if op == 0 {
                            next_a += 1;
                        } else {
                            next_b += 1;
                        }
                    }
                }
                _ => {
                    let got = q.pop();
                    assert_eq!(got, model.pop_front(), "pop disagrees with model");
                    if let Some(v) = got {
                        let producer = (v >> 32) as usize;
                        let seq = v & 0xFFFF_FFFF;
                        assert!(
                            last_seen[producer].is_none_or(|prev| seq > prev),
                            "per-producer order broken"
                        );
                        last_seen[producer] = Some(seq);
                    }
                }
            }
            assert_eq!(q.is_empty(), model.is_empty());
        }
    }
}

// ---------------------------------------------------------------------
// 2. Seeded random schedules (single thread, model-checked)
// ---------------------------------------------------------------------

#[test]
fn mpsc_seeded_random_schedules() {
    for trial in 0..50u64 {
        let mut rng = SplitMix64::new(0xB1A5ED ^ trial);
        let capacity = 2usize << rng.range(0, 5); // 2..64 (Vyukov floor is 2)
        let q = MpscRing::<u64>::new(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for _ in 0..2_000 {
            if rng.bool() {
                let ok = q.push(next).is_ok();
                assert_eq!(ok, model.len() < capacity);
                if ok {
                    model.push_back(next);
                    next += 1;
                }
            } else {
                assert_eq!(q.pop(), model.pop_front());
            }
            assert_eq!(q.len(), model.len());
        }
    }
}

// ---------------------------------------------------------------------
// 3. Real-thread stress (actual memory-ordering protocols)
// ---------------------------------------------------------------------

#[test]
fn mpsc_many_producers_single_consumer_stress() {
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 10_000;
    let q = MpscRing::<u64>::new(256);
    thread::scope(|s| {
        for producer in 0..PRODUCERS {
            let q = &q;
            s.spawn(move || {
                for seq in 0..PER_PRODUCER {
                    let v = (producer << 32) | seq;
                    loop {
                        if q.push(v).is_ok() {
                            break;
                        }
                        thread::yield_now();
                    }
                }
            });
        }
        let mut last_seen = [None::<u64>; PRODUCERS as usize];
        let mut received = 0u64;
        while received < PRODUCERS * PER_PRODUCER {
            if let Some(v) = q.pop() {
                let (producer, seq) = ((v >> 32) as usize, v & 0xFFFF_FFFF);
                assert!(
                    last_seen[producer].is_none_or(|prev| seq == prev + 1),
                    "producer {producer} not FIFO: {seq} after {:?}",
                    last_seen[producer]
                );
                last_seen[producer] = Some(seq);
                received += 1;
            } else {
                thread::yield_now();
            }
        }
        assert!(q.pop().is_none(), "ring must be drained");
    });
}

#[test]
fn mpsc_concurrent_stealing_consumers_never_lose_or_duplicate() {
    // Two producers, two CAS-claiming consumers (one "owner", one
    // "thief" — exactly the work-stealing hand-off).  Union of claims
    // must be the exact produced multiset; each consumer's local view
    // must be per-producer increasing (claims happen in dequeue order).
    const PRODUCERS: u64 = 2;
    const PER_PRODUCER: u64 = 10_000;
    let q = MpscRing::<u64>::new(128);
    let done = AtomicBool::new(false);
    let mut views: Vec<Vec<u64>> = Vec::new();
    thread::scope(|s| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|producer| {
                let q = &q;
                s.spawn(move || {
                    for seq in 0..PER_PRODUCER {
                        let v = (producer << 32) | seq;
                        while q.push(v).is_err() {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (q, done) = (&q, &done);
                s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match q.pop() {
                            Some(v) => got.push(v),
                            // Re-check emptiness *after* observing done:
                            // everything pushed before the signal is
                            // still claimable, so drain then stop.
                            None if done.load(Ordering::Acquire) => match q.pop() {
                                Some(v) => got.push(v),
                                None => break,
                            },
                            None => thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
        for h in consumers {
            views.push(h.join().unwrap());
        }
    });
    // Per-consumer: per-producer sequences strictly increase.
    for view in &views {
        let mut last = [None::<u64>; PRODUCERS as usize];
        for &v in view {
            let (producer, seq) = ((v >> 32) as usize, v & 0xFFFF_FFFF);
            assert!(
                last[producer].is_none_or(|prev| seq > prev),
                "consumer view not per-producer increasing"
            );
            last[producer] = Some(seq);
        }
    }
    // Union: exactly the produced multiset — nothing lost, nothing
    // claimed twice.
    let mut all: Vec<u64> = views.concat();
    all.sort_unstable();
    let mut expect: Vec<u64> = (0..PRODUCERS)
        .flat_map(|p| (0..PER_PRODUCER).map(move |s| (p << 32) | s))
        .collect();
    expect.sort_unstable();
    assert_eq!(all, expect, "stealing lost or duplicated elements");
}
