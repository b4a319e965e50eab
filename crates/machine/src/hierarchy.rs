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
//! ## One fetch probe per i-cache line
//!
//! An instruction that fetches from the *same* 32-byte i-cache block as
//! the previous instruction — 82–87 % of the protocol paths' dynamic
//! instructions — needs neither an i-cache nor an ITLB probe:
//!
//! * the i-cache **must** hit — the previous fetch left the block
//!   resident, and nothing but a fetch changes the i-cache (prefetch
//!   fills the stream buffer, not the cache; loads fill the d-cache;
//!   stores and drains touch only the write buffer and the b-cache);
//! * the ITLB **must** hit — a 32-byte block never straddles a page,
//!   the page was touched by the previous fetch, and no other page has
//!   been translated since (the data side has no TLB), so it is still
//!   resident *and* still the most recently used entry (stamp updates
//!   are skippable).
//!
//! This holds whatever the instruction does besides fetching, so
//! [`MemorySystem::access`] is three steps, each a helper of its own:
//! the write-buffer drain (skipped while the buffer is empty), the
//! fetch (a same-line fetch only bumps the i-cache and ITLB access
//! counts; a new line runs the ITLB, i-cache and stream-buffer walk),
//! and the data access of a load or store.  The skip requires a
//! direct-mapped i-cache (`ways == 1`): with associativity a hit would
//! move LRU stamps, which the skip would lose.  The paper's machine is
//! direct-mapped, so the skip is always armed there.
//!
//! ## Straight-line blocks
//!
//! [`MemorySystem::access_block`] takes a block body — consecutive pcs,
//! no taken control transfer — as its [`BlockShape`] plus the addresses
//! of its loads and stores, and visits only the body's *events*: the
//! first instruction of each i-cache line (computed from the first pc
//! and this hierarchy's own line size) and each load and store, merged
//! in program order.  Every other instruction fetches from the previous
//! instruction's line and has no data access, so it only advances the
//! drain clock: nothing in it reads the write buffer or the b-cache.
//! The write-buffer drains that fall due on one are applied at the
//! block's next event — or at its end — which retires the same entries
//! to the b-cache in the same order, because a drain's outcome depends
//! on the clock only through "has this entry's retire time passed" and
//! the clock only advances in between.  The same-line fetches are
//! counted at the end.  The walk needs the same-line skip; a hierarchy
//! without it (an associative i-cache) is stepped one record at a time
//! ([`crate::Machine::step_block`]).  Bit-exactness of both paths
//! against the seed walk is enforced by `tests/reference_equivalence.rs`,
//! the directed tests below and beside [`crate::Machine::step_block`],
//! and the fused-replay suites (`kcode`'s `fused_props`, `protolat-core`'s
//! `fused_equivalence`).

use crate::block::BlockShape;
use crate::cache::{Cache, CacheStats, Probe};
use crate::config::MemConfig;
use crate::inst::{InstClass, InstRecord, MemOp};
use crate::tlb::Tlb;
use crate::writebuf::WriteBuffer;

/// Sentinel for "no previous fetch block" (forces the full fetch walk).
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
    /// Same-line fetch skip armed: the i-cache is direct-mapped.
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
        self.instructions += 1;
        self.drain();
        self.fetch(rec.pc);
        // A taken control transfer redirects fetch: the prefetched block
        // is discarded (its b-cache bandwidth was wasted).
        if rec.class.is_taken_control() {
            self.stream_buffer = None;
        }
        if let Some((op, addr)) = rec.mem {
            self.data(op, addr);
        }
    }

    /// Can [`Self::access_block`] walk a block?  Its walk skips same-line
    /// fetches, which needs the same-line skip armed (a direct-mapped
    /// i-cache, pages no smaller than lines).
    #[inline]
    pub fn block_walk_ok(&self) -> bool {
        self.fetch_fast_ok
    }

    /// Replay a straight-line block, visiting only its events: the
    /// first instruction of each i-cache line it fetches from (a fetch
    /// probe) and its loads and stores (`data` holds their addresses in
    /// order), merged in program order.  Each event sets the drain clock
    /// to its own instruction count and drains before it; the drains
    /// that fall due on the instructions in between are applied at the
    /// next event, and the same-line fetches are counted at the end (see
    /// the module docs).  Equivalent to calling [`Self::access`] on each
    /// of the block's records in turn; requires [`Self::block_walk_ok`].
    pub fn access_block(&mut self, shape: BlockShape<'_>, data: &[u64]) {
        debug_assert!(self.fetch_fast_ok, "a block walk needs the same-line skip");
        let (pc, len) = (shape.pc(), shape.len() as u64);
        let line = self.config.icache.block_bytes;
        // Position of the first instruction past position `at` that
        // starts a line.
        let next_line = |at: u64| at + (line - ((pc + 4 * at) & (line - 1))) / 4;
        // The block's next line crossing: its first instruction when that
        // fetches from a new line, else the first instruction of the next
        // line.
        let mut cross = if pc & self.fetch_block_mask != self.last_fetch_block { 0 } else { next_line(0) };
        let (base, mut crossings) = (self.instructions, 0);
        let mut data = data.iter();
        for mark in shape.marks() {
            let op = match mark.class {
                InstClass::Load => MemOp::Read,
                InstClass::Store => MemOp::Write,
                _ => continue,
            };
            let at = mark.pos as u64;
            while cross < at {
                self.cross_line(base + cross + 1, pc + 4 * cross);
                (cross, crossings) = (next_line(cross), crossings + 1);
            }
            // A load or store that starts a line drains once, before
            // its fetch, as `access` does.
            if cross == at {
                self.cross_line(base + at + 1, pc + 4 * at);
                (cross, crossings) = (next_line(cross), crossings + 1);
            } else {
                self.instructions = base + at + 1;
                self.drain();
            }
            self.data(op, *data.next().expect("an address per load and store"));
        }
        while cross < len {
            self.cross_line(base + cross + 1, pc + 4 * cross);
            (cross, crossings) = (next_line(cross), crossings + 1);
        }
        self.instructions = base + len;
        let repeats = len - crossings;
        self.icache.stats.accesses += repeats;
        if let Some(itlb) = &mut self.itlb {
            itlb.note_repeat_accesses(repeats);
        }
        self.drain();
    }

    /// A line crossing: drain at instruction count `clock`, then fetch
    /// the new line at `pc`.
    #[inline]
    fn cross_line(&mut self, clock: u64, pc: u64) {
        self.instructions = clock;
        self.drain();
        self.fetch_line(pc, pc & self.fetch_block_mask);
    }

    /// Retire the write-buffer entries that have drained by now (one
    /// issue cycle per instruction plus stalls).  Consults the drain
    /// clock only while something is pending —
    /// `pending.is_empty() ⇒ next_retire_done == 0` makes the skip
    /// exactly the seed's no-op call.
    #[inline]
    fn drain(&mut self) {
        if !self.write_buffer.is_empty() {
            let now = self.now();
            while let Some(retired) = self.write_buffer.pop_drained(now) {
                self.bcache_access(retired, false);
            }
        }
    }

    /// Fetch the instruction at `pc`: a same-line fetch is a guaranteed
    /// i-cache and ITLB hit (see the module docs) and only counts.
    #[inline]
    fn fetch(&mut self, pc: u64) {
        let block = pc & self.fetch_block_mask;
        if self.fetch_fast_ok && block == self.last_fetch_block {
            self.icache.stats.accesses += 1;
            if let Some(itlb) = &mut self.itlb {
                itlb.note_repeat_accesses(1);
            }
        } else {
            self.fetch_line(pc, block);
        }
    }

    /// The full fetch walk for the first instruction of a line: ITLB,
    /// i-cache, stream buffer and i-stream prefetch.
    fn fetch_line(&mut self, pc: u64, block: u64) {
        self.last_fetch_block = block;

        // Instruction translation.
        if let Some(itlb) = &mut self.itlb {
            if !itlb.access(pc) {
                self.stalls += self.config.itlb_miss_stall;
            }
        }

        // Instruction fetch.
        if self.icache.access(pc).is_miss() {
            match self.stream_buffer {
                Some((b, residual)) if self.config.icache_prefetch && b == block => {
                    // Satisfied by the stream buffer: the b-cache access
                    // already happened at prefetch time; stall only for
                    // the latency not yet covered.
                    self.stream_buffer = None;
                    self.stalls += residual.max(1);
                }
                _ => {
                    let stall = self.bcache_access(pc, true);
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
    }

    /// The data access of a load or store.
    #[inline]
    fn data(&mut self, op: MemOp, addr: u64) {
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
        // Force the next fetch through the full walk: after a full
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
    use crate::block::ShapeTable;
    use crate::inst::InstRecord;
    use crate::reference;

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
        assert_eq!(m.stall_cycles(), stalls_before);
    }

    /// Run `trace` through the hierarchy one record at a time and through
    /// the seed model, comparing after every record; when the trace is a
    /// straight-line block, also through [`MemorySystem::access_block`],
    /// comparing at its end.  Returns the per-record hierarchy.
    fn assert_matches_seed(trace: &[InstRecord]) -> MemorySystem {
        let config = MemConfig::dec3000_600();
        let (mut each, mut seed) = (mem(), reference::MemorySystem::new(config));
        let same = |m: &MemorySystem, seed: &reference::MemorySystem, at: &str| {
            assert_eq!(m.stall_cycles(), seed.stall_cycles(), "{at}: stalls");
            assert_eq!(m.icache.stats, seed.icache.stats, "{at}: i-cache");
            assert_eq!(m.bcache.stats, seed.bcache.stats, "{at}: b-cache");
            assert_eq!(m.dcache_combined_stats(), seed.dcache_combined_stats(), "{at}: d-cache");
            assert_eq!(m.itlb.as_ref().map(|t| t.stats), seed.itlb.as_ref().map(|t| t.stats), "{at}: itlb");
            assert_eq!(m.write_buffer.pending_len(), seed.write_buffer.pending_len(), "{at}: pending");
            assert_eq!(m.write_buffer.retired_blocks, seed.write_buffer.retired_blocks, "{at}: retired");
        };
        for (i, rec) in trace.iter().enumerate() {
            each.access(rec);
            seed.access(rec);
            same(&each, &seed, &format!("record {i}"));
        }
        if !trace.iter().any(|r| r.class.is_taken_control()) {
            let mut table = ShapeTable::default();
            let id = table.push(trace[0].pc, trace.iter().map(|r| r.class));
            let shape = table.get(id);
            let data: Vec<u64> = trace.iter().filter_map(|r| r.mem.map(|(_, a)| a)).collect();
            let mut block = mem();
            block.access_block(shape, &data);
            same(&block, &seed, "block");
        }
        each
    }

    #[test]
    fn same_line_loads_and_stores_with_pending_writes_match_seed() {
        // One i-cache line: a store fills the write buffer, then loads
        // (a d-cache miss, a forwarded hit) and stores (a merge, a new
        // entry) fetch from the same line while entries are pending.
        let m = assert_matches_seed(&[
            InstRecord::store(0x1000, 0x8000),
            InstRecord::load(0x1004, 0x9000),
            InstRecord::alu(0x1008),
            InstRecord::store(0x100c, 0x8008),
            InstRecord::load(0x1010, 0x8010),
            InstRecord::store(0x1014, 0xa000),
            InstRecord::load(0x1018, 0x9008),
            InstRecord::alu(0x101c),
        ]);
        assert_eq!(m.icache.stats.accesses, 8);
        assert_eq!(m.icache.stats.misses, 1, "one line, one probe that misses");
        assert_eq!(m.itlb.as_ref().map(|t| (t.stats.accesses, t.stats.misses)), Some((8, 1)));
        assert_eq!(m.write_buffer.pending_len(), 2);
    }

    #[test]
    fn drain_due_on_a_same_line_instruction_matches_seed() {
        // Two stores, then ALU work long enough for both entries to
        // retire (10 cycles each), then a load of the first entry's
        // block.
        let mut trace = vec![InstRecord::store(0x2000, 0x8000), InstRecord::store(0x2004, 0x8040)];
        trace.extend((2..40).map(|i| InstRecord::alu(0x2000 + 4 * i)));
        trace.push(InstRecord::load(0x20a0, 0x8000));
        let m = assert_matches_seed(&trace);
        assert_eq!(m.write_buffer.retired_blocks, 2, "both entries drained");
        assert_eq!(m.dcache.stats.misses, 1, "the load finds its entry retired");
        // At least one entry falls due on an ALU instruction that
        // fetches from the previous instruction's line: a drain that
        // `access_block` defers.
        let mut walk = mem();
        let mut deferred = 0;
        for (i, rec) in trace.iter().enumerate() {
            let before = walk.write_buffer.retired_blocks;
            walk.access(rec);
            let same_line = i > 0 && trace[i - 1].pc & !31 == rec.pc & !31;
            if same_line && rec.mem.is_none() {
                deferred += walk.write_buffer.retired_blocks - before;
            }
        }
        assert!(deferred > 0);
    }

    #[test]
    fn taken_branch_inside_a_line_discards_the_stream_buffer() {
        // The miss on 0x3000 prefetches 0x3020 into the stream buffer;
        // a taken branch that stays in the line (a same-line fetch)
        // must still discard it, so 0x3020 then pays a full fill.
        let m = assert_matches_seed(&[
            InstRecord::alu(0x3000),
            InstRecord::branch_taken(0x3004),
            InstRecord::alu(0x3008),
            InstRecord::alu(0x3020),
        ]);
        // The same walk without the branch hits the stream buffer, so
        // the branch costs the prefetch's cover.
        let mut straight = mem();
        for pc in [0x3000, 0x3004, 0x3008, 0x3020] {
            straight.access(&InstRecord::alu(pc));
        }
        assert_eq!(m.icache.stats.misses, straight.icache.stats.misses);
        assert!(m.stall_cycles() > straight.stall_cycles());
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
