//! The DEC 3000/600 memory hierarchy: split L1s, write buffer, b-cache.
//!
//! The hierarchy consumes the same [`InstRecord`] stream as the CPU issue
//! model and produces memory stall cycles (the numerator of mCPI) plus the
//! per-cache statistics of the paper's Table 6:
//!
//! * **i-cache** — 8 KB direct-mapped, 32-byte blocks, accessed once per
//!   instruction; misses fill from the b-cache, optionally prefetching the
//!   next sequential block (i-stream prefetch, an extra b-cache access).
//! * **d-cache** — 8 KB direct-mapped, write-through, allocate on read
//!   miss only.  Table 6 reports the d-cache and write buffer *combined*:
//!   a merged write counts as a hit, a write that goes to the b-cache as a
//!   miss.
//! * **write buffer** — 4 entries of one block each with write merging.
//! * **b-cache** — 2 MB direct-mapped write-back.  The test kernel fits
//!   entirely in the b-cache, so with `bcache_cold_is_free` set (the
//!   default) a cold b-cache miss is charged as a hit for timing — only
//!   replacement (conflict) misses pay the main-memory stall, matching the
//!   paper's observation that all code executes out of the b-cache except
//!   in deliberately conflicting layouts.
//!
//! Building a hierarchy and cold-resetting it both cost O(tag pages
//! touched), not O(capacity): each cache allocates its tags in 4 KB
//! pages on first fill and a reset drops them (see [`crate::cache`]).
//! The 2 MB b-cache would otherwise write a 512 KB tag array per fresh
//! machine and per reset.
//!
//! ## The warm-window fetch fast path
//!
//! The common case on straight-line (and especially inlined) code is an
//! instruction that (a) fetches from the *same* 32-byte i-cache block as
//! the previous instruction, (b) has no data access, and (c) arrives
//! while the write buffer is empty.  For such an instruction the full
//! walk is provably a no-op beyond counter bumps:
//!
//! * the i-cache **must** hit — the previous fetch left the block
//!   resident, and nothing evicts it in between (prefetch fills the
//!   *next* block, which maps to a different set; loads fill the
//!   d-cache; drains touch only the b-cache);
//! * the ITLB **must** hit — a 32-byte block never straddles an 8 KB
//!   page, the page was touched by the previous fetch, and no other
//!   page has been translated since, so it is still resident *and*
//!   still the most recently used entry (stamp updates are skippable);
//! * there is no drain to run (empty buffer), no d-cache access, and no
//!   stall to charge.
//!
//! So [`MemorySystem::access`] bumps `instructions`, the i-cache access
//! count and the ITLB access count, clears the stream buffer on a taken
//! control transfer (a branch within the block), and returns — without
//! probing any cache.  The fast path requires a direct-mapped i-cache
//! (`ways == 1`): with associativity a hit would move LRU stamps, which
//! the skip would lose.  The paper's machine is direct-mapped, so the
//! fast path is always armed there.  Bit-exactness against the seed
//! walk is enforced by `tests/reference_equivalence.rs`.

use crate::cache::{Cache, CacheStats, Probe};
use crate::config::MemConfig;
use crate::inst::{InstRecord, MemOp};
use crate::tlb::Tlb;
use crate::writebuf::WriteBuffer;

/// Sentinel for "no previous fetch block" (forces the slow path).
const NO_BLOCK: u64 = u64::MAX;

/// The complete memory system.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemConfig,
    pub icache: Cache,
    pub dcache: Cache,
    pub bcache: Cache,
    pub write_buffer: WriteBuffer,
    /// Instruction TLB (None when disabled).
    pub itlb: Option<Tlb>,
    /// Stores presented (write-buffer accesses).
    store_accesses: u64,
    /// Stores that could not merge (counted as combined d/wb misses).
    store_misses: u64,
    /// Single-slot i-stream prefetch buffer: `(block, residual_stall)`
    /// for the block fetched ahead on the last i-cache miss.  A demand
    /// access that hits the stream buffer still counts as an i-cache
    /// miss (the block was not in the cache) but stalls only for the
    /// prefetch latency not yet covered by intervening execution — the
    /// 21064's sequential-stream behaviour the bipartite layout
    /// exploits.  Taken control transfers discard the buffer (the
    /// prefetched bandwidth is wasted, exactly the cost of i-cache gaps).
    stream_buffer: Option<(u64, u64)>,
    /// Accumulated memory stall cycles this window.
    stalls: u64,
    /// Instructions seen this window (for the write-buffer drain clock).
    instructions: u64,
    /// Block-aligned address of the previous instruction fetch
    /// ([`NO_BLOCK`] after a reset).
    last_fetch_block: u64,
    /// Precomputed `!(icache_block_bytes - 1)`.
    fetch_block_mask: u64,
    /// Fast path armed: the i-cache is direct-mapped.
    fetch_fast_ok: bool,
}

impl MemorySystem {
    pub fn new(config: MemConfig) -> Self {
        MemorySystem {
            config,
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            bcache: Cache::new(config.bcache),
            write_buffer: WriteBuffer::new(
                config.write_buffer_entries,
                config.dcache.block_bytes,
                config.writebuf_retire_cycles,
            ),
            itlb: (config.itlb_entries > 0)
                .then(|| Tlb::new(config.itlb_entries, config.page_bytes)),
            store_accesses: 0,
            store_misses: 0,
            stream_buffer: None,
            stalls: 0,
            instructions: 0,
            last_fetch_block: NO_BLOCK,
            fetch_block_mask: !(config.icache.block_bytes - 1),
            // Same-block ⇒ same-page needs pages no smaller than blocks
            // (both are powers of two, so the block then sits inside one
            // page); associativity would need LRU stamp updates on hits.
            fetch_fast_ok: config.icache.ways == 1
                && (config.itlb_entries == 0 || config.page_bytes >= config.icache.block_bytes),
        }
    }

    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// Memory stall cycles accumulated this window.
    pub fn stall_cycles(&self) -> u64 {
        self.stalls
    }

    /// Approximate current cycle (one issue cycle per instruction plus
    /// stalls) — drives the write-buffer drain clock.
    fn now(&self) -> u64 {
        self.instructions + self.stalls
    }

    /// Access the b-cache for a prefetch fill, returning the latency the
    /// stream buffer must cover (b-cache hit latency, or main-memory
    /// latency for steady-state conflict misses).
    fn bcache_fill_latency(&mut self, addr: u64) -> u64 {
        let (probe, revisit) = self.bcache.access_tracked(addr);
        let mut latency = self.config.bcache_stall;
        match probe {
            Probe::Hit => {}
            Probe::ReplacementMiss => latency += self.config.memory_stall,
            Probe::ColdMiss => {
                if revisit || !self.config.bcache_cold_is_free {
                    latency += self.config.memory_stall;
                }
            }
        }
        latency
    }

    /// Access the b-cache for an L1 fill or write-buffer retirement.
    /// Returns the stall to charge (0 for un-charged accesses like
    /// retirements and prefetches when `charge` is false).
    fn bcache_access(&mut self, addr: u64, charge: bool) -> u64 {
        let (probe, revisit) = self.bcache.access_tracked(addr);
        if !charge {
            return 0;
        }
        let mut stall = self.config.bcache_stall;
        match probe {
            Probe::Hit => {}
            Probe::ReplacementMiss => stall += self.config.memory_stall,
            Probe::ColdMiss => {
                // A "cold" miss in this window on a block the machine has
                // seen before is a steady-state conflict miss: it pays the
                // full memory latency.  True compulsory misses are free
                // when the kernel is known to fit in the b-cache.
                if revisit || !self.config.bcache_cold_is_free {
                    stall += self.config.memory_stall;
                }
            }
        }
        stall
    }

    /// Replay one instruction through the hierarchy.
    #[inline]
    pub fn access(&mut self, rec: &InstRecord) {
        let block = rec.pc & self.fetch_block_mask;
        if self.fetch_fast_ok
            && block == self.last_fetch_block
            && rec.mem.is_none()
            && self.write_buffer.is_empty()
        {
            // Warm-window fetch fast path (see module docs): guaranteed
            // i-cache and ITLB hits, nothing to drain, nothing to stall.
            self.instructions += 1;
            self.icache.stats.accesses += 1;
            if let Some(itlb) = &mut self.itlb {
                itlb.note_repeat_access();
            }
            if rec.class.is_taken_control() {
                self.stream_buffer = None;
            }
            return;
        }
        self.access_slow(rec, block);
    }

    /// The full hierarchy walk (seed-identical control flow, with the
    /// drain loop gated on a non-empty buffer and allocation-free).
    fn access_slow(&mut self, rec: &InstRecord, block: u64) {
        self.instructions += 1;
        self.last_fetch_block = block;

        // Retire write-buffer entries that have drained by now.  Only
        // consult the drain clock when something is actually pending —
        // `pending.is_empty() ⇒ next_retire_done == 0` makes the skip
        // exactly the seed's no-op call.
        if !self.write_buffer.is_empty() {
            let now = self.now();
            while let Some(retired) = self.write_buffer.pop_drained(now) {
                self.bcache_access(retired, false);
            }
        }

        // Instruction translation.
        if let Some(itlb) = &mut self.itlb {
            if !itlb.access(rec.pc) {
                self.stalls += self.config.itlb_miss_stall;
            }
        }

        // Instruction fetch.
        if self.icache.access(rec.pc).is_miss() {
            match self.stream_buffer {
                Some((b, residual)) if self.config.icache_prefetch && b == block => {
                    // Satisfied by the stream buffer: the b-cache access
                    // already happened at prefetch time; stall only for
                    // the latency not yet covered.
                    self.stream_buffer = None;
                    self.stalls += residual.max(1);
                }
                _ => {
                    let stall = self.bcache_access(rec.pc, true);
                    self.stalls += stall;
                }
            }
            if self.config.icache_prefetch {
                // Prefetch the next sequential block into the stream
                // buffer: a b-cache access (bandwidth); its latency can
                // be hidden by roughly one block's worth of execution.
                let next = block + self.config.icache.block_bytes;
                let already = matches!(self.stream_buffer, Some((b, _)) if b == next);
                if !self.icache.contains(next) && !already {
                    let latency = self.bcache_fill_latency(next);
                    self.stream_buffer = Some((
                        next,
                        latency.saturating_sub(self.config.prefetch_cover_cycles),
                    ));
                }
            }
        }

        // A taken control transfer redirects fetch: the prefetched block
        // is discarded (its b-cache bandwidth was wasted).
        if rec.class.is_taken_control() {
            self.stream_buffer = None;
        }

        // Data access.
        if let Some((op, addr)) = rec.mem {
            match op {
                MemOp::Read => {
                    // Loads that hit a pending write-buffer entry forward
                    // from the buffer (no d-cache fill, no stall).
                    if self.write_buffer.contains(addr) {
                        // Count as a d-cache access that hits.
                        self.dcache.stats.accesses += 1;
                    } else if self.dcache.access(addr).is_miss() {
                        let stall = self.bcache_access(addr, true);
                        self.stalls += stall;
                    }
                }
                MemOp::Write => {
                    self.store_accesses += 1;
                    // Write-through: update d-cache copy if present, but
                    // never allocate on a write miss.
                    let now = self.now();
                    let outcome = self.write_buffer.store(addr, now);
                    if !outcome.merged {
                        self.store_misses += 1;
                    }
                    self.stalls += outcome.stall;
                    if let Some(retired) = outcome.retired {
                        self.bcache_access(retired, false);
                    }
                }
            }
        }
    }

    /// The paper's combined d-cache/write-buffer statistics: loads through
    /// the d-cache plus stores through the write buffer.
    pub fn dcache_combined_stats(&self) -> CacheStats {
        CacheStats {
            accesses: self.dcache.stats.accesses + self.store_accesses,
            misses: self.dcache.stats.misses + self.store_misses,
            replacement_misses: self.dcache.stats.replacement_misses,
        }
    }

    /// Heap bytes held by the miss-taxonomy tracking across all caches —
    /// bounded by the image footprint, not by run count (the regression
    /// guarded by `tests/tracking_memory.rs`).
    pub fn tracking_bytes(&self) -> usize {
        self.icache.tracking_bytes()
            + self.dcache.tracking_bytes()
            + self.bcache.tracking_bytes()
    }

    /// Cold machine: invalidate all caches, clear all counters.
    pub fn reset(&mut self) {
        self.icache.reset();
        self.dcache.reset();
        self.bcache.reset();
        self.write_buffer.reset();
        if let Some(t) = &mut self.itlb {
            t.reset();
        }
        self.clear_counters();
    }

    /// Keep cache contents; clear statistics for a new window.
    pub fn reset_stats(&mut self) {
        self.icache.reset_stats();
        self.dcache.reset_stats();
        self.bcache.reset_stats();
        if let Some(t) = &mut self.itlb {
            t.reset_stats();
        }
        self.clear_counters();
    }

    fn clear_counters(&mut self) {
        self.stream_buffer = None;
        self.store_accesses = 0;
        self.store_misses = 0;
        self.stalls = 0;
        self.instructions = 0;
        // Force the next fetch through the slow path: after a full
        // reset the old block is no longer resident, and after a stats
        // reset the first access must re-probe so counters match the
        // seed walk exactly.
        self.last_fetch_block = NO_BLOCK;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;
    use crate::inst::InstRecord;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemConfig::dec3000_600())
    }

    #[test]
    fn icache_miss_stalls_and_hits_after() {
        let mut m = mem();
        m.access(&InstRecord::alu(0x1000));
        let first = m.stall_cycles();
        assert!(first > 0, "cold fetch must stall");
        m.access(&InstRecord::alu(0x1004));
        assert_eq!(m.stall_cycles(), first, "same block: no new stall");
    }

    #[test]
    fn fast_path_counts_fetches_and_tlb_accesses() {
        let mut m = mem();
        for i in 0..8u64 {
            m.access(&InstRecord::alu(0x1000 + i * 4));
        }
        assert_eq!(m.icache.stats.accesses, 8);
        assert_eq!(m.icache.stats.misses, 1, "one block, one cold miss");
        let tlb = m.itlb.as_ref().expect("itlb enabled").stats;
        assert_eq!(tlb.accesses, 8);
        assert_eq!(tlb.misses, 1);
    }

    #[test]
    fn prefetch_counts_bcache_access_without_stall() {
        let mut m = mem();
        m.access(&InstRecord::alu(0x1000));
        // b-cache saw the demand fill and the prefetch of block 0x1020.
        assert_eq!(m.bcache.stats.accesses, 2);
        // The prefetched block is in the stream buffer, not the cache:
        // a demand access to it counts as a miss but stalls only for the
        // residual fill latency.
        let stalls_before = m.stall_cycles();
        m.access(&InstRecord::alu(0x1020));
        assert_eq!(m.icache.stats.misses, 2, "stream-buffer hit still a miss");
        let residual = m.stall_cycles() - stalls_before;
        assert!(residual >= 1 && residual < m.config().bcache_stall + 1,
            "residual {residual} should be below a full b-cache stall");
    }

    #[test]
    fn load_miss_fills_dcache() {
        let mut m = mem();
        m.access(&InstRecord::load(0x1000, 0x8000));
        assert!(m.dcache.contains(0x8000));
        let s = m.dcache_combined_stats();
        assert_eq!(s.accesses, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn store_does_not_allocate_dcache() {
        let mut m = mem();
        m.access(&InstRecord::store(0x1000, 0x8000));
        assert!(!m.dcache.contains(0x8000), "write-through, no allocate");
        let s = m.dcache_combined_stats();
        assert_eq!(s.accesses, 1);
        assert_eq!(s.misses, 1, "non-merged store counts as a miss");
    }

    #[test]
    fn merged_store_counts_as_hit() {
        let mut m = mem();
        m.access(&InstRecord::store(0x1000, 0x8000));
        m.access(&InstRecord::store(0x1004, 0x8004));
        let s = m.dcache_combined_stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn load_after_store_forwards_from_write_buffer() {
        let mut m = mem();
        m.access(&InstRecord::store(0x1000, 0x8000));
        let stalls_before = m.stall_cycles();
        m.access(&InstRecord::load(0x1004, 0x8000));
        // Forwarded: no d-miss stall beyond the i-fetch already counted.
        assert_eq!(m.dcache.stats.misses, 0);
        let _ = stalls_before;
    }

    #[test]
    fn conflicting_code_blocks_cause_replacement_misses() {
        let mut m = mem();
        let icache_span = 8 * 1024;
        // Two code addresses exactly one i-cache size apart conflict.
        for _ in 0..4 {
            m.access(&InstRecord::alu(0x0));
            m.access(&InstRecord::alu(icache_span));
        }
        assert!(m.icache.stats.replacement_misses >= 6);
    }

    #[test]
    fn bcache_replacement_charges_memory_stall() {
        let mut m = mem();
        let bspan = 2 * 1024 * 1024u64;
        m.access(&InstRecord::alu(0x0));
        let one_fill = m.stall_cycles();
        m.reset();
        // Alternate between two blocks that conflict in BOTH i-cache and
        // b-cache: every access re-misses all the way to memory.
        m.access(&InstRecord::alu(0x0));
        m.access(&InstRecord::alu(bspan));
        m.access(&InstRecord::alu(0x0));
        let with_conflict = m.stall_cycles();
        assert!(
            with_conflict > 3 * one_fill,
            "b-cache conflicts must cost more than b-cache hits \
             ({with_conflict} vs 3*{one_fill})"
        );
    }

    #[test]
    fn stats_reset_preserves_warm_caches() {
        let mut m = mem();
        m.access(&InstRecord::load(0x1000, 0x8000));
        m.reset_stats();
        m.access(&InstRecord::load(0x1000, 0x8000));
        assert_eq!(m.dcache.stats.misses, 0);
        assert_eq!(m.icache.stats.misses, 0);
        assert_eq!(m.stall_cycles(), 0);
    }
}
