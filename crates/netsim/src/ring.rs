//! Lock-free bounded rings for the traffic dispatch plane.
//!
//! The serving loop's scaling story (nanoPU, Laminar) is that at
//! saturation the *hand-off* between pipeline stages — not the protocol
//! work itself — sets the tail.  This module provides the two hand-off
//! primitives the dispatch plane is built from, with zero crates.io
//! dependencies:
//!
//! * [`spsc`] — a bounded single-producer/single-consumer ring.  The
//!   producer and consumer sides are separate owned handles
//!   ([`SpscProducer`] / [`SpscConsumer`]), each keeping a *cached* copy
//!   of the opposite index so the fast path touches only its own
//!   cache-line-padded atomic (the classic Lamport ring refinement:
//!   coherence traffic only when the cached view runs out).  Batch
//!   push/pop amortize one release/acquire pair over a whole slice.
//! * [`MpscRing`] — a bounded Vyukov-style sequence-stamped ring used
//!   as each executor's *injector*: many producers (executors handing
//!   lanes back) and one primary consumer.  Dequeue is CAS-based, so an
//!   idle executor may *steal* from a peer's injector without extra
//!   machinery — multi-consumer safety is part of the algorithm.
//!
//! Both rings are power-of-two sized and allocation-free after
//! construction.  Correctness (no lost or duplicated element, FIFO per
//! producer) is exercised three ways in `netsim/tests/ring_interleave.rs`:
//! exhaustive small-capacity schedule enumeration, seeded random
//! schedules, and real-thread stress — the loom-style discipline with
//! the interleavings we can drive deterministically in-tree.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads and aligns a value to a 128-byte boundary (two 64-byte lines —
/// adjacent-line prefetchers pull pairs), so neighbouring atomics never
/// false-share.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

/// Shared storage of one SPSC ring.
struct SpscShared<T> {
    mask: usize,
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the consumer will pop (written only by the consumer).
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will fill (written only by the producer).
    tail: CachePadded<AtomicUsize>,
}

// Safety: slots are only touched by the side that owns them per the
// head/tail protocol; the handles enforce unique producer and consumer.
unsafe impl<T: Send> Send for SpscShared<T> {}
unsafe impl<T: Send> Sync for SpscShared<T> {}

impl<T> Drop for SpscShared<T> {
    fn drop(&mut self) {
        // Sole owner at this point: plain loads are fine.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            unsafe { (*self.buf[i & self.mask].get()).assume_init_drop() };
        }
    }
}

/// Create a bounded SPSC ring of `capacity` slots (power of two).
/// Returns the two endpoint handles; each is `Send`, so either side
/// can migrate between threads.
pub fn spsc<T: Send>(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    assert!(capacity.is_power_of_two(), "ring capacity must be a power of two");
    let shared = Arc::new(SpscShared {
        mask: capacity - 1,
        buf: (0..capacity).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect(),
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        SpscProducer { shared: Arc::clone(&shared), tail: 0, head_cache: 0 },
        SpscConsumer { shared, head: 0, tail_cache: 0 },
    )
}

/// The producing endpoint.  `tail` is authoritative (only this handle
/// writes it); `head_cache` is refreshed from the shared atomic only
/// when the ring looks full.
pub struct SpscProducer<T> {
    shared: Arc<SpscShared<T>>,
    tail: usize,
    head_cache: usize,
}

impl<T: Send> SpscProducer<T> {
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Free slots, refreshing the cached consumer index if needed.
    pub fn free_space(&mut self) -> usize {
        let cap = self.capacity();
        if self.tail - self.head_cache == cap {
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
        }
        cap - (self.tail - self.head_cache)
    }

    /// Push one element; returns it back if the ring is full.
    pub fn push(&mut self, v: T) -> Result<(), T> {
        if self.free_space() == 0 {
            return Err(v);
        }
        unsafe { (*self.shared.buf[self.tail & self.shared.mask].get()).write(v) };
        self.tail += 1;
        self.shared.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Batch push: copies as many elements of `items` as fit and
    /// publishes them with a single release store.  Returns how many
    /// were taken (a prefix of `items`).
    pub fn push_slice(&mut self, items: &[T]) -> usize
    where
        T: Copy,
    {
        let n = self.free_space().min(items.len());
        for (i, &v) in items.iter().take(n).enumerate() {
            unsafe { (*self.shared.buf[(self.tail + i) & self.shared.mask].get()).write(v) };
        }
        if n > 0 {
            self.tail += n;
            self.shared.tail.0.store(self.tail, Ordering::Release);
        }
        n
    }
}

/// The consuming endpoint.  `head` is authoritative; `tail_cache` is
/// refreshed only when the ring looks empty.
pub struct SpscConsumer<T> {
    shared: Arc<SpscShared<T>>,
    head: usize,
    tail_cache: usize,
}

impl<T: Send> SpscConsumer<T> {
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// A detached occupancy probe on this ring (see [`SpscProbe`]).
    pub fn probe(&self) -> SpscProbe<T> {
        SpscProbe { shared: Arc::clone(&self.shared) }
    }

    /// Elements currently available, refreshing the cached producer
    /// index if the cached view is exhausted.
    pub fn available(&mut self) -> usize {
        if self.tail_cache == self.head {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
        }
        self.tail_cache - self.head
    }

    /// Pop one element.
    pub fn pop(&mut self) -> Option<T> {
        if self.available() == 0 {
            return None;
        }
        let v = unsafe { (*self.shared.buf[self.head & self.shared.mask].get()).assume_init_read() };
        self.head += 1;
        self.shared.head.0.store(self.head, Ordering::Release);
        Some(v)
    }

    /// Batch pop: moves up to `max` elements into `out`, releasing the
    /// slots with a single store.  Returns how many were moved.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let n = self.available().min(max);
        out.reserve(n);
        for i in 0..n {
            out.push(unsafe {
                (*self.shared.buf[(self.head + i) & self.shared.mask].get()).assume_init_read()
            });
        }
        if n > 0 {
            self.head += n;
            self.shared.head.0.store(self.head, Ordering::Release);
        }
        n
    }
}

/// A read-only occupancy probe on an SPSC ring, detached from the
/// consumer's cached-index fast path.  Any thread may hold one; it
/// reads both shared atomics directly, so a thread that does not own
/// the consumer can still ask whether input is waiting.
pub struct SpscProbe<T> {
    shared: Arc<SpscShared<T>>,
}

impl<T> Clone for SpscProbe<T> {
    fn clone(&self) -> Self {
        SpscProbe { shared: Arc::clone(&self.shared) }
    }
}

impl<T> SpscProbe<T> {
    /// Elements currently in the ring (racy snapshot).
    pub fn len(&self) -> usize {
        let tail = self.shared.tail.0.load(Ordering::Acquire);
        let head = self.shared.head.0.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

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
    fn spsc_push_pop_fifo() {
        let (mut p, mut c) = spsc::<u32>(8);
        for i in 0..8 {
            p.push(i).unwrap();
        }
        assert!(p.push(99).is_err(), "ring must report full");
        for i in 0..8 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn spsc_wraps_across_many_laps() {
        let (mut p, mut c) = spsc::<usize>(4);
        for lap in 0..1000usize {
            for i in 0..3 {
                p.push(lap * 3 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(c.pop(), Some(lap * 3 + i));
            }
        }
    }

    #[test]
    fn spsc_batch_push_pop() {
        let (mut p, mut c) = spsc::<u64>(16);
        let items: Vec<u64> = (0..40).collect();
        let mut popped = Vec::new();
        let mut offset = 0;
        while popped.len() < items.len() {
            offset += p.push_slice(&items[offset..]);
            c.pop_batch(&mut popped, 7);
        }
        assert_eq!(popped, items);
    }

    #[test]
    fn spsc_drops_undelivered_elements() {
        use std::sync::atomic::AtomicU64;
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut p, c) = spsc::<D>(8);
        for _ in 0..5 {
            assert!(p.push(D).is_ok());
        }
        drop(p);
        drop(c);
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }

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
    fn probe_tracks_occupancy_across_push_pop() {
        let (mut p, mut c) = spsc::<u8>(8);
        let probe = c.probe();
        assert!(probe.is_empty());
        for i in 0..5 {
            p.push(i).unwrap();
        }
        assert_eq!(probe.len(), 5);
        c.pop().unwrap();
        assert_eq!(probe.len(), 4);
        let probe2 = probe.clone();
        while c.pop().is_some() {}
        assert!(probe2.is_empty());
    }

    #[test]
    fn cache_padded_is_line_aligned() {
        assert!(std::mem::align_of::<CachePadded<AtomicUsize>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<AtomicUsize>>() >= 128);
    }
}
