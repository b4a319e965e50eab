//! The 21064's 4-deep write buffer with write merging.
//!
//! The d-cache of the DEC 3000/600 is write-through and allocates on read
//! misses only, so *every* store leaves the CPU through this buffer.  Each
//! entry holds one 32-byte block; a store to a block that already has a
//! pending entry *merges* (free), otherwise it allocates a new entry.
//! Entries retire to the b-cache in FIFO order, each occupying the b-cache
//! for `retire_cycles`.  If a store arrives when all entries are full, the
//! CPU stalls until the oldest entry has retired.
//!
//! Following the paper's accounting: "a merged write is counted like a
//! cache-hit, whereas a write that caused a write to the b-cache is counted
//! as a cache-miss".

/// Result of presenting one store to the write buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOutcome {
    /// The store merged into a pending entry (counted as a hit).
    pub merged: bool,
    /// Cycles the CPU stalled because the buffer was full.
    pub stall: u64,
    /// A previously buffered block retired to the b-cache as part of this
    /// store being accepted (its address, so the b-cache can be accessed).
    pub retired: Option<u64>,
}

/// Write buffer model.
///
/// Time is tracked with a cycle cursor supplied by the caller (the memory
/// system's running stall-free clock approximation); retirement is modeled
/// as one entry per `retire_cycles` once the buffer is non-empty.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    entries: usize,
    block_bytes: u64,
    retire_cycles: u64,
    /// Pending block addresses, oldest first.
    pending: Vec<u64>,
    /// Cycle at which the oldest pending entry finishes retiring.
    next_retire_done: u64,
    /// Blocks drained to the b-cache (count).
    pub retired_blocks: u64,
}

impl WriteBuffer {
    pub fn new(entries: usize, block_bytes: u64, retire_cycles: u64) -> Self {
        assert!(entries > 0);
        assert!(block_bytes.is_power_of_two());
        WriteBuffer {
            entries,
            block_bytes,
            retire_cycles,
            pending: Vec::with_capacity(entries),
            next_retire_done: 0,
            retired_blocks: 0,
        }
    }

    fn block_addr(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes - 1)
    }

    /// Does a pending entry cover `addr`?  (Used for store→load
    /// forwarding approximations.)
    pub fn contains(&self, addr: u64) -> bool {
        let block = self.block_addr(addr);
        self.pending.contains(&block)
    }

    /// Nothing pending?  The hierarchy consults the drain clock only
    /// when this is false — the batched-drain fast path.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Retire the oldest entry if its drain time has passed by cycle
    /// `now`, returning its block address (one b-cache write).  The
    /// hierarchy loops this while it yields, allocation-free.
    ///
    /// Maintains the invariant `pending.is_empty() ⇒ next_retire_done
    /// == 0` (the seed reset the clock after every drain call; here the
    /// only transition to empty is popping the last entry).
    #[inline]
    pub fn pop_drained(&mut self, now: u64) -> Option<u64> {
        if self.pending.is_empty() || self.next_retire_done > now {
            return None;
        }
        let block = self.pending.remove(0);
        self.retired_blocks += 1;
        self.next_retire_done += self.retire_cycles;
        if self.pending.is_empty() {
            // Next arrival restarts the drain clock.
            self.next_retire_done = 0;
        }
        Some(block)
    }

    /// Present a store at cycle `now`.  Returns the outcome; the caller
    /// charges `stall` and issues b-cache writes for any retired blocks
    /// plus `retired`.
    pub fn store(&mut self, addr: u64, now: u64) -> StoreOutcome {
        let block = self.block_addr(addr);
        if self.pending.contains(&block) {
            return StoreOutcome { merged: true, stall: 0, retired: None };
        }
        let mut stall = 0;
        let mut retired = None;
        if self.pending.len() == self.entries {
            // Full: wait for the oldest entry to finish retiring.
            let done = self.next_retire_done.max(now + 1);
            stall = done - now;
            retired = Some(self.pending.remove(0));
            self.retired_blocks += 1;
            self.next_retire_done = done + self.retire_cycles;
        }
        if self.pending.is_empty() && self.next_retire_done == 0 {
            // Buffer was idle: start the drain clock for this entry.
            self.next_retire_done = now + self.retire_cycles;
        }
        self.pending.push(block);
        StoreOutcome { merged: false, stall, retired }
    }

    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    pub fn reset(&mut self) {
        self.pending.clear();
        self.next_retire_done = 0;
        self.retired_blocks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wb() -> WriteBuffer {
        WriteBuffer::new(4, 32, 10)
    }

    #[test]
    fn stores_to_same_block_merge() {
        let mut b = wb();
        let first = b.store(0x100, 0);
        assert!(!first.merged);
        let second = b.store(0x104, 0);
        assert!(second.merged);
        assert_eq!(second.stall, 0);
        assert_eq!(b.pending_len(), 1);
    }

    #[test]
    fn distinct_blocks_fill_entries() {
        let mut b = wb();
        for i in 0..4 {
            let o = b.store(i * 0x40, 0);
            assert!(!o.merged);
            assert_eq!(o.stall, 0);
        }
        assert_eq!(b.pending_len(), 4);
    }

    #[test]
    fn fifth_store_stalls_until_retire() {
        let mut b = wb();
        for i in 0..4 {
            b.store(i * 0x40, 0);
        }
        let o = b.store(0x1000, 0);
        assert!(!o.merged);
        assert!(o.stall > 0, "full buffer must stall");
        assert!(o.retired.is_some());
        assert_eq!(b.pending_len(), 4);
    }

    #[test]
    fn drain_empties_buffer_over_time() {
        let mut b = wb();
        b.store(0x0, 0);
        b.store(0x40, 0);
        let retired: Vec<u64> = std::iter::from_fn(|| b.pop_drained(100)).collect();
        assert_eq!(retired, vec![0x0, 0x40]);
        assert_eq!(b.pending_len(), 0);
        assert_eq!(b.retired_blocks, 2);
    }

    #[test]
    fn no_stall_when_drained_between_stores() {
        let mut b = wb();
        for i in 0..4 {
            b.store(i * 0x40, 0);
        }
        while b.pop_drained(1000).is_some() {}
        let o = b.store(0x1000, 1000);
        assert_eq!(o.stall, 0);
    }

    #[test]
    fn contains_reports_pending_blocks() {
        let mut b = wb();
        b.store(0x200, 0);
        assert!(b.contains(0x21c));
        assert!(!b.contains(0x240));
    }
}
