//! A hierarchical timing-wheel event scheduler — the cache-conscious
//! replacement for the comparison-based heap in [`crate::engine`].
//!
//! The paper's lens is that latency lives in the memory system, and the
//! discrete-event engine under the traffic run loop is exactly the kind
//! of hot-path container it indicts: a binary heap pays O(log n)
//! pointer-chasing sifts for every arrival, delivery, RTO timer and
//! think-time wakeup.  [`Wheel`] replaces it with the classic
//! Varghese–Lauck hashed hierarchical wheel:
//!
//! * **Power-of-two slot wheels** — 11 levels of 64 slots (6 bits per
//!   level, 66 ≥ 64 bits), so the full `u64` nanosecond range files
//!   without an overflow list.  Level `l` slot `s` holds events whose
//!   deadline shares the filing anchor's digits above level `l` and has
//!   digit `s` at level `l`; an insert is a shift, a mask and a
//!   list push — O(1), no comparisons.
//! * **Slab event arena** — events live in a `Vec` of nodes linked by
//!   `u32` indices with a free list, so scheduling never allocates per
//!   event once the arena has grown to the high-water mark, and slot
//!   lists are index-linked rather than pointer-chased boxes.
//! * **Cascading on rollover** — when the wheel's internal cursor
//!   crosses a level-`l` slot boundary, that slot's events re-file at
//!   strictly lower levels (their remaining delta has fewer significant
//!   bits), so each event is touched at most once per level on its way
//!   down to an exact level-0 slot.
//! * **Batched delivery** — a matured level-0 slot (one exact
//!   timestamp) is drained into a reusable batch buffer and sorted by
//!   sequence number once, so dispatch stops interleaving with queue
//!   restructuring and FIFO stability at equal timestamps is exact.
//! * **O(1) cancellation** — [`Wheel::schedule_cancellable`] returns a
//!   generation-checked [`CancelToken`]; cancelling tombstones the slab
//!   node in place (the payload drops immediately) and the husk is
//!   reclaimed when its slot matures or cascades.  A superseded RTO
//!   timer costs a flag write instead of a delivered-and-ignored event.
//!
//! Semantics are bit-compatible with the reference heap
//! ([`crate::engine::reference`]): total order by `(time, seq)`, FIFO
//! stability for equal timestamps, `schedule_in` past-clamping and
//! saturation at `Ns::MAX`, and identical `run_until` Overrun
//! accounting.  The `sched_props` suite drives both engines through
//! seeded random schedule/cancel/run_until mixes and asserts the event
//! traces match exactly.

use crate::engine::Overrun;
use crate::Ns;

/// Bits per wheel level (64 slots).
pub const SLOT_BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Levels: 11 × 6 = 66 bits ≥ the full 64-bit nanosecond range.
pub const LEVELS: usize = 11;

const NIL: u32 = u32::MAX;

/// Handle to a cancellable scheduled event.  Generation-checked: a
/// token is dead once its event has been delivered or cancelled, and a
/// dead token can never alias a recycled arena slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancelToken {
    idx: u32,
    gen: u32,
}

/// One arena node: an event plus its intrusive slot-list link.
#[derive(Debug)]
struct Node<E> {
    at: Ns,
    seq: u64,
    next: u32,
    gen: u32,
    /// `None` marks a tombstone (cancelled, payload already dropped).
    payload: Option<E>,
}

/// The common scheduler interface, implemented by the timing wheel and
/// by the reference heap, so consumers (the traffic run loop, the
/// equivalence suites, the `engine` bench suite) can run generically over either.
pub trait EventQueue<E> {
    /// Engine-specific cancellation handle.
    type Token: Copy + std::fmt::Debug;

    /// Current simulation time.
    fn now(&self) -> Ns;
    /// Schedule `payload` at absolute time `at` (clamped to now).
    fn schedule(&mut self, at: Ns, payload: E);
    /// Schedule `payload` `delay` after now (saturating at `Ns::MAX`).
    fn schedule_in(&mut self, delay: Ns, payload: E);
    /// Schedule with a cancellation handle.
    fn schedule_cancellable(&mut self, at: Ns, payload: E) -> Self::Token;
    /// Cancel a pending event in O(1).  Returns `false` if the event
    /// was already delivered or cancelled.
    fn cancel(&mut self, token: Self::Token) -> bool;
    /// Pop the next event in `(time, seq)` order, advancing the clock.
    fn pop(&mut self) -> Option<(Ns, E)>;
    /// Time of the next pending event.  `&mut` because the wheel may
    /// cascade internally to locate it.
    fn peek_time(&mut self) -> Option<Ns>;
    /// Live (scheduled, uncancelled, undelivered) event count.
    fn pending(&self) -> usize;
    /// Total events popped over the engine's lifetime.
    fn processed(&self) -> u64;
    /// Advance the clock without an event.
    fn advance(&mut self, delta: Ns);
    /// Dispatch through `handler` until drained, a deadline pass, or an
    /// exhausted event budget (see [`crate::engine::Engine::run_until`]).
    fn run_until<F>(&mut self, deadline: Ns, max_events: u64, handler: F) -> Result<u64, Overrun>
    where
        F: FnMut(&mut Self, Ns, E),
        Self: Sized,
    {
        drive(self, deadline, max_events, handler)
    }
}

/// The shared `run_until` driver: identical Overrun accounting for
/// every [`EventQueue`] implementation.
pub(crate) fn drive<E, Q, F>(
    q: &mut Q,
    deadline: Ns,
    max_events: u64,
    mut handler: F,
) -> Result<u64, Overrun>
where
    Q: EventQueue<E>,
    F: FnMut(&mut Q, Ns, E),
{
    let start = q.processed();
    loop {
        let dispatched = q.processed() - start;
        let Some(next) = q.peek_time() else {
            return Ok(dispatched);
        };
        if next > deadline {
            return Err(Overrun::Deadline {
                deadline,
                now: q.now(),
                pending: q.pending(),
                processed: dispatched,
            });
        }
        if dispatched >= max_events {
            return Err(Overrun::EventBudget {
                budget: max_events,
                now: q.now(),
                pending: q.pending(),
            });
        }
        let (t, e) = q.pop().expect("peeked event must pop");
        handler(q, t, e);
    }
}

/// The hierarchical timing wheel.  See the module docs for the layout.
#[derive(Debug)]
pub struct Wheel<E> {
    slab: Vec<Node<E>>,
    free: u32,
    /// Slot-list heads, `head[level][slot]` (push-front; drain order is
    /// restored by the per-batch seq sort).
    head: Box<[[u32; SLOTS]; LEVELS]>,
    /// One occupancy bit per slot per level.
    occupied: [u64; LEVELS],
    /// Internal filing anchor: `cursor` ≤ every deadline still filed in
    /// the wheel.  Advances monotonically as slots mature.
    cursor: Ns,
    now: Ns,
    seq: u64,
    processed: u64,
    /// Scheduled events not yet delivered or cancelled (wheel + batch).
    live: usize,
    /// The matured slot being dispatched: arena indices sorted by
    /// `(at, seq)`.  Reused across drains.
    batch: Vec<u32>,
    batch_pos: usize,
}

impl<E> Default for Wheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Level at which a deadline files relative to `anchor`: the position
/// of their highest differing bit, divided into 6-bit digits.
#[inline]
fn level_of(at: Ns, anchor: Ns) -> usize {
    let x = at ^ anchor;
    if x == 0 {
        0
    } else {
        (63 - x.leading_zeros()) as usize / SLOT_BITS as usize
    }
}

impl<E> Wheel<E> {
    pub fn new() -> Self {
        Wheel {
            slab: Vec::new(),
            free: NIL,
            head: Box::new([[NIL; SLOTS]; LEVELS]),
            occupied: [0; LEVELS],
            cursor: 0,
            now: 0,
            seq: 0,
            processed: 0,
            live: 0,
            batch: Vec::new(),
            batch_pos: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Total events popped over the engine's lifetime.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Live (scheduled, uncancelled, undelivered) event count.
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Advance the clock without an event (e.g. processing time).
    pub fn advance(&mut self, delta: Ns) {
        self.now += delta;
    }

    /// High-water mark of the slab arena, in nodes — the allocation
    /// footprint the free list recycles.
    pub fn arena_capacity(&self) -> usize {
        self.slab.len()
    }

    fn alloc(&mut self, at: Ns, seq: u64, payload: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.slab[idx as usize];
            self.free = node.next;
            node.at = at;
            node.seq = seq;
            node.next = NIL;
            node.payload = Some(payload);
            idx
        } else {
            let idx = self.slab.len() as u32;
            assert!(idx != NIL, "slab arena overflow");
            self.slab.push(Node { at, seq, next: NIL, gen: 0, payload: Some(payload) });
            idx
        }
    }

    /// Return a node husk to the free list, bumping its generation so
    /// outstanding tokens die.
    fn release(&mut self, idx: u32) {
        let node = &mut self.slab[idx as usize];
        debug_assert!(node.payload.is_none());
        node.gen = node.gen.wrapping_add(1);
        node.next = self.free;
        self.free = idx;
    }

    /// File a node into its wheel slot relative to the cursor.
    fn file(&mut self, idx: u32) {
        let at = self.slab[idx as usize].at;
        debug_assert!(at >= self.cursor);
        let l = level_of(at, self.cursor);
        let s = ((at >> (SLOT_BITS * l as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slab[idx as usize].next = self.head[l][s];
        self.head[l][s] = idx;
        self.occupied[l] |= 1u64 << s;
    }

    fn insert(&mut self, at: Ns, payload: E) -> CancelToken {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let idx = self.alloc(at, seq, payload);
        self.live += 1;
        if at < self.cursor {
            // The wheel has already matured past this instant (a peek
            // drained ahead of a pop): the event joins the in-flight
            // batch at its `(at, seq)`-sorted position instead of a
            // slot the cursor will never revisit.
            let ins = self.batch[self.batch_pos..].partition_point(|&i| {
                let n = &self.slab[i as usize];
                (n.at, n.seq) < (at, seq)
            });
            self.batch.insert(self.batch_pos + ins, idx);
        } else {
            self.file(idx);
        }
        CancelToken { idx, gen: self.slab[idx as usize].gen }
    }

    /// Schedule `payload` at absolute time `at` (clamped to now).
    pub fn schedule(&mut self, at: Ns, payload: E) {
        self.insert(at, payload);
    }

    /// Schedule `payload` `delay` after now, saturating at `Ns::MAX`
    /// instead of wrapping.
    pub fn schedule_in(&mut self, delay: Ns, payload: E) {
        self.insert(self.now.saturating_add(delay), payload);
    }

    /// Schedule with a cancellation handle.
    pub fn schedule_cancellable(&mut self, at: Ns, payload: E) -> CancelToken {
        self.insert(at, payload)
    }

    /// Tombstone a pending event in O(1).  The payload drops now; the
    /// arena node is reclaimed when its slot matures or cascades.
    /// Returns `false` if the event was already delivered or cancelled.
    pub fn cancel(&mut self, token: CancelToken) -> bool {
        match self.slab.get_mut(token.idx as usize) {
            Some(node) if node.gen == token.gen && node.payload.is_some() => {
                node.payload = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Drain the next matured level-0 slot into the batch buffer.
    /// Returns `false` when no live event remains.
    fn refill_batch(&mut self) -> bool {
        self.batch.clear();
        self.batch_pos = 0;
        'refill: loop {
            if self.live == 0 {
                return false;
            }
            let mut l = 0;
            loop {
                if l == LEVELS {
                    // live > 0 guarantees an occupied slot somewhere.
                    unreachable!("live events but empty wheel");
                }
                let digit = ((self.cursor >> (SLOT_BITS * l as u32)) & (SLOTS as u64 - 1)) as u32;
                let mask = self.occupied[l] & (!0u64 << digit);
                if mask == 0 {
                    l += 1;
                    continue;
                }
                let s = mask.trailing_zeros() as usize;
                if l == 0 {
                    // A level-0 slot pins all 64 bits: one exact
                    // timestamp.  Advance the cursor to it and drain.
                    self.cursor = (self.cursor & !(SLOTS as u64 - 1)) | s as u64;
                    let mut n = self.head[0][s];
                    self.head[0][s] = NIL;
                    self.occupied[0] &= !(1u64 << s);
                    while n != NIL {
                        let next = self.slab[n as usize].next;
                        if self.slab[n as usize].payload.is_some() {
                            self.batch.push(n);
                        } else {
                            self.release(n);
                        }
                        n = next;
                    }
                    if self.batch.is_empty() {
                        // Tombstones only — keep scanning.
                        continue 'refill;
                    }
                    // Push-front filing scrambled arrival order; one
                    // sort per batch restores FIFO-by-seq exactly.
                    self.batch.sort_unstable_by_key(|&i| self.slab[i as usize].seq);
                    return true;
                }
                // Cascade: advance the cursor to the slot's range start
                // (no live deadline can precede it — all lower levels
                // and earlier slots are empty) and re-file its events,
                // which now land at strictly lower levels.
                let shift = SLOT_BITS * l as u32;
                let above = SLOT_BITS * (l as u32 + 1);
                let upper = if above >= 64 { 0 } else { !0u64 << above };
                self.cursor = (self.cursor & upper) | ((s as u64) << shift);
                let mut n = self.head[l][s];
                self.head[l][s] = NIL;
                self.occupied[l] &= !(1u64 << s);
                while n != NIL {
                    let next = self.slab[n as usize].next;
                    if self.slab[n as usize].payload.is_some() {
                        self.file(n);
                    } else {
                        self.release(n);
                    }
                    n = next;
                }
                continue 'refill;
            }
        }
    }

    /// Time of the next pending event, cascading as needed.
    pub fn peek_time(&mut self) -> Option<Ns> {
        loop {
            if self.batch_pos < self.batch.len() {
                let idx = self.batch[self.batch_pos];
                let node = &self.slab[idx as usize];
                if node.payload.is_some() {
                    return Some(node.at);
                }
                // Cancelled after draining into the batch.
                self.batch_pos += 1;
                self.release(idx);
                continue;
            }
            if !self.refill_batch() {
                return None;
            }
        }
    }

    /// Pop the next event in `(time, seq)` order, advancing the clock.
    pub fn pop(&mut self) -> Option<(Ns, E)> {
        loop {
            if self.batch_pos < self.batch.len() {
                let idx = self.batch[self.batch_pos];
                self.batch_pos += 1;
                let node = &mut self.slab[idx as usize];
                let at = node.at;
                let payload = node.payload.take();
                self.release(idx);
                if let Some(p) = payload {
                    self.live -= 1;
                    self.now = at;
                    self.processed += 1;
                    return Some((at, p));
                }
                continue;
            }
            if !self.refill_batch() {
                return None;
            }
        }
    }

    /// Dispatch events through `handler` until the queue drains,
    /// guarded by `deadline` and `max_events` — see
    /// [`crate::engine::reference::Engine::run_until`] for the contract
    /// both engines share.
    pub fn run_until<F>(&mut self, deadline: Ns, max_events: u64, handler: F) -> Result<u64, Overrun>
    where
        F: FnMut(&mut Self, Ns, E),
    {
        drive(self, deadline, max_events, handler)
    }
}

impl<E> EventQueue<E> for Wheel<E> {
    type Token = CancelToken;

    fn now(&self) -> Ns {
        Wheel::now(self)
    }
    fn schedule(&mut self, at: Ns, payload: E) {
        Wheel::schedule(self, at, payload)
    }
    fn schedule_in(&mut self, delay: Ns, payload: E) {
        Wheel::schedule_in(self, delay, payload)
    }
    fn schedule_cancellable(&mut self, at: Ns, payload: E) -> CancelToken {
        Wheel::schedule_cancellable(self, at, payload)
    }
    fn cancel(&mut self, token: CancelToken) -> bool {
        Wheel::cancel(self, token)
    }
    fn pop(&mut self) -> Option<(Ns, E)> {
        Wheel::pop(self)
    }
    fn peek_time(&mut self) -> Option<Ns> {
        Wheel::peek_time(self)
    }
    fn pending(&self) -> usize {
        Wheel::pending(self)
    }
    fn processed(&self) -> u64 {
        Wheel::processed(self)
    }
    fn advance(&mut self, delta: Ns) {
        Wheel::advance(self, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_cover_the_full_u64_range() {
        assert!(SLOT_BITS as usize * LEVELS >= 64);
        assert_eq!(level_of(0, 0), 0);
        assert_eq!(level_of(63, 0), 0);
        assert_eq!(level_of(64, 0), 1);
        assert_eq!(level_of(4095, 0), 1);
        assert_eq!(level_of(4096, 0), 2);
        assert_eq!(level_of(Ns::MAX, 0), 10);
    }

    #[test]
    fn slab_nodes_are_recycled() {
        let mut w: Wheel<u32> = Wheel::new();
        for round in 0..4 {
            for i in 0..100u64 {
                w.schedule(round * 1000 + i * 7, i as u32);
            }
            while w.pop().is_some() {}
        }
        assert!(
            w.arena_capacity() <= 101,
            "arena grew past the high-water mark: {}",
            w.arena_capacity()
        );
    }

    #[test]
    fn cancelled_tombstones_are_reclaimed_on_maturity() {
        let mut w: Wheel<u32> = Wheel::new();
        let toks: Vec<_> = (0..50).map(|i| w.schedule_cancellable(100 + i, i as u32)).collect();
        for t in &toks {
            assert!(w.cancel(*t));
        }
        assert_eq!(w.pending(), 0);
        assert_eq!(w.pop(), None);
        // Cancel after the fact is a no-op.
        assert!(!w.cancel(toks[0]));
    }

    #[test]
    fn schedule_below_cursor_after_peek_stays_ordered() {
        let mut w = Wheel::new();
        w.schedule(5, "a");
        assert_eq!(w.peek_time(), Some(5)); // drains slot 5 into the batch
        w.schedule(0, "b"); // clamps to now = 0, below the cursor
        assert_eq!(w.pop(), Some((0, "b")));
        assert_eq!(w.pop(), Some((5, "a")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn token_generations_do_not_alias_recycled_nodes() {
        let mut w: Wheel<u32> = Wheel::new();
        let tok = w.schedule_cancellable(10, 1);
        assert_eq!(w.pop(), Some((10, 1)));
        // The node is free; a new event may reuse it.
        let tok2 = w.schedule_cancellable(20, 2);
        assert!(!w.cancel(tok), "stale token must not cancel the new event");
        assert!(w.cancel(tok2));
        assert_eq!(w.pop(), None);
    }
}
