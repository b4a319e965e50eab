//! Pooled packet buffers: a cache-line-aligned arena with free-list
//! recycling and generation-checked handles.
//!
//! The wire data plane (`protocols::wire` + the traffic lanes) encodes
//! every message into real frame bytes; doing that with per-packet
//! `Vec` allocations would put the allocator on the hot path — exactly
//! the cost Laminar-style stacks design out.  [`BufPool`] preallocates
//! a slab of [`BUF_CAP`]-byte, 64-byte-aligned buffers and hands out
//! [`PktBuf`] handles; `free` pushes the slot back on a LIFO free list
//! (the most recently used buffer is the cache-warmest), so after the
//! pool's high-water mark is reached the steady state performs **zero**
//! heap allocations — [`PoolStats::grows`] counts the exceptions and
//! the wire bench asserts it stays 0.
//!
//! Handles carry a generation stamp, the same discipline as the timing
//! wheel's slab arena (`netsim::sched`): `alloc` and `free` both bump
//! the slot's generation, so it is odd exactly while the slot is handed
//! out and a handle matches only its own tenancy — a stale handle
//! (use-after-free) or a second `free` (double-free) is detected and
//! reported as a typed [`BufError`] instead of silently aliasing a
//! recycled buffer.

/// Capacity of every pooled buffer: one full Ethernet frame (MTU
/// payload + header + FCS) rounded up to a cache-line multiple.
pub const BUF_CAP: usize = 1536;

/// One pooled buffer's backing storage, aligned to a cache line so a
/// minimum frame spans exactly one line.
#[repr(align(64))]
#[derive(Clone)]
struct Block([u8; BUF_CAP]);

/// A generation-checked handle to one pooled buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PktBuf {
    idx: u32,
    gen: u32,
}

impl PktBuf {
    /// The arena slot this handle names.  A slot keeps its bytes across
    /// free and re-alloc (the pool never clears a buffer), so a caller
    /// that gets back the slot it just freed finds its last contents.
    #[inline]
    pub fn slot(self) -> usize {
        self.idx as usize
    }
}

/// Pool misuse, detected by the generation stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufError {
    /// The handle's slot index is beyond the arena.
    BadIndex(u32),
    /// The handle's generation does not match the slot (freed and
    /// possibly recycled since): use-after-free or double-free.
    StaleGeneration { idx: u32, handle_gen: u32, slot_gen: u32 },
}

impl std::fmt::Display for BufError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BufError::BadIndex(i) => write!(f, "buffer index {i} beyond pool"),
            BufError::StaleGeneration { idx, handle_gen, slot_gen } => write!(
                f,
                "stale buffer handle: slot {idx} generation {slot_gen}, handle {handle_gen}"
            ),
        }
    }
}

impl std::error::Error for BufError {}

/// Allocation counters, mergeable across lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out.
    pub allocs: u64,
    /// Buffers returned.
    pub frees: u64,
    /// Allocations served by recycling a previously freed slot.
    pub recycled: u64,
    /// Slab growths past the initial capacity — heap allocations after
    /// construction.  Zero in a healthy steady state.
    pub grows: u64,
    /// Maximum buffers simultaneously outstanding.
    pub high_water: u64,
}

impl PoolStats {
    /// Fraction of allocations served without touching fresh slots.
    pub fn recycle_rate(&self) -> f64 {
        if self.allocs == 0 {
            0.0
        } else {
            self.recycled as f64 / self.allocs as f64
        }
    }

    /// Accumulate another pool's counters (per-lane pools merge into
    /// the run report).
    pub fn merge(&mut self, other: &PoolStats) {
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.recycled += other.recycled;
        self.grows += other.grows;
        // High-water marks of disjoint pools add: the lanes' buffers
        // are simultaneously outstanding.
        self.high_water += other.high_water;
    }
}

/// The buffer pool: slab of aligned blocks + per-slot generations +
/// LIFO free list.
pub struct BufPool {
    blocks: Vec<Block>,
    /// Per-slot generation stamp, bumped on alloc and on free: odd
    /// while handed out, even while free.
    gens: Vec<u32>,
    /// Slots ready for reuse, most recently freed last.
    free: Vec<u32>,
    /// Slots never yet handed out, below this index all used.
    next_fresh: u32,
    in_use: u64,
    stats: PoolStats,
}

impl BufPool {
    /// A pool with `capacity` preallocated buffers.  Steady states
    /// within `capacity` outstanding buffers never allocate again.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pool needs at least one buffer");
        BufPool {
            blocks: vec![Block([0u8; BUF_CAP]); capacity],
            gens: vec![0; capacity],
            free: Vec::with_capacity(capacity),
            next_fresh: 0,
            in_use: 0,
            stats: PoolStats::default(),
        }
    }

    /// Number of slots in the arena (including free ones).
    pub fn capacity(&self) -> usize {
        self.blocks.len()
    }

    /// Buffers currently outstanding.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// The counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Hand out a buffer.  Prefers the most recently freed slot (cache
    /// warmth), then fresh slots, and only grows the slab when every
    /// slot is outstanding (counted in [`PoolStats::grows`]).
    #[inline]
    pub fn alloc(&mut self) -> PktBuf {
        self.stats.allocs += 1;
        let idx = if let Some(idx) = self.free.pop() {
            self.stats.recycled += 1;
            idx
        } else if (self.next_fresh as usize) < self.blocks.len() {
            let idx = self.next_fresh;
            self.next_fresh += 1;
            idx
        } else {
            self.stats.grows += 1;
            self.blocks.push(Block([0u8; BUF_CAP]));
            self.gens.push(0);
            self.next_fresh += 1;
            self.next_fresh - 1
        };
        let gen = &mut self.gens[idx as usize];
        *gen = gen.wrapping_add(1);
        self.in_use += 1;
        self.stats.high_water = self.stats.high_water.max(self.in_use);
        PktBuf { idx, gen: *gen }
    }

    #[inline]
    fn check(&self, h: PktBuf) -> Result<usize, BufError> {
        let i = h.idx as usize;
        if i >= self.blocks.len() {
            return Err(BufError::BadIndex(h.idx));
        }
        if self.gens[i] != h.gen {
            return Err(BufError::StaleGeneration {
                idx: h.idx,
                handle_gen: h.gen,
                slot_gen: self.gens[i],
            });
        }
        Ok(i)
    }

    /// Return a buffer to the pool.  Detects double-free and stale
    /// handles via the generation stamp.
    #[inline]
    pub fn free(&mut self, h: PktBuf) -> Result<(), BufError> {
        let i = self.check(h)?;
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.free.push(h.idx);
        self.in_use -= 1;
        self.stats.frees += 1;
        Ok(())
    }

    /// The buffer's bytes (full [`BUF_CAP`] capacity).
    #[inline]
    pub fn bytes(&self, h: PktBuf) -> Result<&[u8], BufError> {
        let i = self.check(h)?;
        Ok(&self.blocks[i].0)
    }

    /// The buffer's bytes, mutably.
    #[inline]
    pub fn bytes_mut(&mut self, h: PktBuf) -> Result<&mut [u8], BufError> {
        let i = self.check(h)?;
        Ok(&mut self.blocks[i].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_recycles_without_growth() {
        let mut pool = BufPool::new(4);
        for _ in 0..100 {
            let h = pool.alloc();
            pool.bytes_mut(h).unwrap()[0] = 0xAB;
            pool.free(h).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.allocs, 100);
        assert_eq!(s.frees, 100);
        assert_eq!(s.grows, 0, "steady state must not allocate");
        assert_eq!(s.high_water, 1);
        assert_eq!(s.recycled, 99, "all but the first alloc recycle");
        assert!(s.recycle_rate() > 0.98);
        assert_eq!(pool.in_use(), 0, "no leaked buffers");
    }

    #[test]
    fn double_free_is_detected() {
        let mut pool = BufPool::new(2);
        let h = pool.alloc();
        pool.free(h).unwrap();
        assert!(matches!(pool.free(h), Err(BufError::StaleGeneration { .. })));
    }

    #[test]
    fn stale_handle_rejected_after_recycle() {
        let mut pool = BufPool::new(2);
        let old = pool.alloc();
        pool.free(old).unwrap();
        let new = pool.alloc(); // recycles the same slot, new generation
        assert_eq!(new.idx, old.idx);
        assert!(pool.bytes(old).is_err(), "use-after-free must fail");
        assert!(pool.bytes(new).is_ok());
        assert!(matches!(pool.free(old), Err(BufError::StaleGeneration { .. })));
    }

    #[test]
    fn bad_index_rejected() {
        let pool = BufPool::new(1);
        let forged = PktBuf { idx: 99, gen: 0 };
        assert_eq!(pool.bytes(forged).unwrap_err(), BufError::BadIndex(99));
    }

    #[test]
    fn buffers_are_cache_line_aligned() {
        let mut pool = BufPool::new(8);
        let hs: Vec<PktBuf> = (0..8).map(|_| pool.alloc()).collect();
        for &h in &hs {
            let p = pool.bytes(h).unwrap().as_ptr() as usize;
            assert_eq!(p % 64, 0, "buffer not 64-byte aligned");
        }
        for h in hs {
            pool.free(h).unwrap();
        }
    }

    #[test]
    fn growth_beyond_capacity_is_counted() {
        let mut pool = BufPool::new(2);
        let a = pool.alloc();
        let b = pool.alloc();
        let c = pool.alloc(); // exceeds capacity: must grow
        assert_eq!(pool.stats().grows, 1);
        assert_eq!(pool.stats().high_water, 3);
        for h in [a, b, c] {
            pool.free(h).unwrap();
        }
        // Grown slot joins the free list like any other.
        let _ = pool.alloc();
        assert_eq!(pool.stats().grows, 1);
    }

    #[test]
    fn lifo_recycling_prefers_warmest() {
        let mut pool = BufPool::new(4);
        let a = pool.alloc();
        let b = pool.alloc();
        pool.free(a).unwrap();
        pool.free(b).unwrap();
        // b freed last => handed out first.
        assert_eq!(pool.alloc().idx, b.idx);
    }

    #[test]
    fn recycled_slot_keeps_its_bytes() {
        let mut pool = BufPool::new(2);
        let a = pool.alloc();
        pool.bytes_mut(a).unwrap()[..4].copy_from_slice(b"last");
        pool.free(a).unwrap();
        let b = pool.alloc();
        assert_eq!(
            (b.slot(), &pool.bytes(b).unwrap()[..4]),
            (a.slot(), &b"last"[..])
        );
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = PoolStats { allocs: 10, frees: 10, recycled: 8, grows: 0, high_water: 2 };
        let b = PoolStats { allocs: 5, frees: 4, recycled: 1, grows: 1, high_water: 3 };
        a.merge(&b);
        assert_eq!(a, PoolStats { allocs: 15, frees: 14, recycled: 9, grows: 1, high_water: 5 });
    }
}
