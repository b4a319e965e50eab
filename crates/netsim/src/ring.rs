//! Lock-free bounded ring for the traffic dispatch plane.
//!
//! The serving loop's scaling story (nanoPU, Laminar) is that at
//! saturation the *hand-off* between pipeline stages — not the protocol
//! work itself — sets the tail.  This module provides the dispatch
//! plane's hand-off primitive, with zero crates.io dependencies:
//! [`MpscRing`], a bounded Vyukov-style sequence-stamped ring used as
//! each executor's *injector*: many producers (executors handing lanes
//! back) and one primary consumer.  Dequeue is CAS-based, so an idle
//! executor may *steal* from a peer's injector without extra machinery
//! — multi-consumer safety is part of the algorithm.
//!
//! The ring is power-of-two sized and allocation-free after
//! construction.  Correctness (no lost or duplicated element, FIFO per
//! producer) is exercised three ways in `netsim/tests/ring_interleave.rs`:
//! exhaustive small-capacity schedule enumeration, seeded random
//! schedules, and real-thread stress — the loom-style discipline with
//! the interleavings we can drive deterministically in-tree.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pads and aligns a value to a 128-byte boundary (two 64-byte lines —
/// adjacent-line prefetchers pull pairs), so neighbouring atomics never
/// false-share.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

/// One sequence-stamped MPSC slot.
struct MpscSlot<T> {
    /// Vyukov stamp: equals the slot's logical position when free for a
    /// producer at that position, position + 1 when filled for the
    /// consumer, and advances by `capacity` per lap.
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded multi-producer injector ring (Vyukov sequence-stamped).
/// The dispatch plane gives each executor one: executors push runnable
/// lane ids; the owner pops them — and because dequeue is CAS-claimed,
/// a *dry* peer can steal from this injector directly, which is the
/// work-stealing hand-off.
pub struct MpscRing<T> {
    mask: usize,
    buf: Box<[MpscSlot<T>]>,
    enqueue_pos: CachePadded<AtomicUsize>,
    dequeue_pos: CachePadded<AtomicUsize>,
}

unsafe impl<T: Send> Send for MpscRing<T> {}
unsafe impl<T: Send> Sync for MpscRing<T> {}

impl<T> Drop for MpscRing<T> {
    fn drop(&mut self) {
        // Sole owner: any slot whose stamp reads position + 1 holds a
        // live element.
        let deq = self.dequeue_pos.0.load(Ordering::Relaxed);
        let enq = self.enqueue_pos.0.load(Ordering::Relaxed);
        for pos in deq..enq {
            let slot = &self.buf[pos & self.mask];
            if slot.seq.load(Ordering::Relaxed) == pos + 1 {
                unsafe { (*slot.val.get()).assume_init_drop() };
            }
        }
    }
}

impl<T: Send> MpscRing<T> {
    /// `capacity` must be a power of two and at least 2: with a single
    /// slot the sequence stamps alias — a producer one lap ahead reads
    /// the *filled* stamp (`pos + 1`) as its own free stamp
    /// (`pos + capacity`) and would overwrite a live element.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two(), "ring capacity must be a power of two");
        assert!(capacity >= 2, "Vyukov stamps alias at capacity 1");
        MpscRing {
            mask: capacity - 1,
            buf: (0..capacity)
                .map(|i| MpscSlot { seq: AtomicUsize::new(i), val: UnsafeCell::new(MaybeUninit::uninit()) })
                .collect(),
            enqueue_pos: CachePadded(AtomicUsize::new(0)),
            dequeue_pos: CachePadded(AtomicUsize::new(0)),
        }
    }

    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Approximate occupancy (racy, for diagnostics only).
    pub fn len(&self) -> usize {
        let enq = self.enqueue_pos.0.load(Ordering::Relaxed);
        let deq = self.dequeue_pos.0.load(Ordering::Relaxed);
        enq.saturating_sub(deq)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push from any thread; returns the value back if the ring is full.
    pub fn push(&self, v: T) -> Result<(), T> {
        let mut pos = self.enqueue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // Slot free at our position: claim it.
                match self.enqueue_pos.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        unsafe { (*slot.val.get()).write(v) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(p) => pos = p,
                }
            } else if seq < pos {
                // A full lap behind: ring is full.
                return Err(v);
            } else {
                pos = self.enqueue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop from any thread (CAS-claimed, so stealing consumers are
    /// safe).  Returns `None` when empty.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos + 1 {
                // Filled at our position: claim it.
                match self.dequeue_pos.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let v = unsafe { (*slot.val.get()).assume_init_read() };
                        // Free the slot for the producer one lap ahead.
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(v);
                    }
                    Err(p) => pos = p,
                }
            } else if seq <= pos {
                // Not yet filled: empty at this position.
                return None;
            } else {
                pos = self.dequeue_pos.0.load(Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpsc_push_pop_fifo_single_thread() {
        let q = MpscRing::<u32>::new(8);
        for i in 0..8 {
            q.push(i).unwrap();
        }
        assert!(q.push(99).is_err());
        for i in 0..8 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn mpsc_wraps_and_refills() {
        let q = MpscRing::<usize>::new(4);
        for lap in 0..500usize {
            q.push(lap).unwrap();
            q.push(lap + 1_000_000).unwrap();
            assert_eq!(q.pop(), Some(lap));
            assert_eq!(q.pop(), Some(lap + 1_000_000));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn mpsc_drop_releases_live_elements() {
        use std::sync::atomic::AtomicU64;
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let q = MpscRing::<D>::new(8);
        for _ in 0..3 {
            assert!(q.push(D).is_ok());
        }
        assert!(q.pop().is_some()); // one dropped here
        drop(q); // two dropped here
        assert_eq!(DROPS.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn cache_padded_is_line_aligned() {
        assert!(std::mem::align_of::<CachePadded<AtomicUsize>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<AtomicUsize>>() >= 128);
    }
}
