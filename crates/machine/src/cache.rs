//! Direct-mapped cache with the paper's miss taxonomy.
//!
//! The paper's Table 6 reports, per cache, the number of accesses, misses
//! and *replacement misses*.  A replacement miss is a miss on a block that
//! was resident earlier in the measured window but was evicted by a
//! conflicting block — exactly the misses that code placement can remove.
//! Everything else is a cold (first-reference) miss.
//!
//! ## Data-oriented layout
//!
//! The probe loop is the innermost loop of every simulated run, so the
//! implementation is flat:
//!
//! * Block tags live in `Tags`: 4 KB pages of `u64` allocated on first
//!   fill (`EMPTY` marks an invalid way — no `Option` discriminant in
//!   the hot compare).  The paper's 2 MB b-cache has 65 536 sets, 512 KB
//!   of tags in 128 pages, but a protocol roundtrip indexes under ten; a
//!   fresh cache allocates nothing until it fills, and a full
//!   [`Cache::reset`] drops the pages instead of rewriting every tag.
//!   Construction and reset cost O(tag pages touched), not O(capacity),
//!   and the pages are small heap blocks the allocator recycles, so in
//!   steady state a new machine reuses freed pages instead of faulting
//!   in fresh memory for its tags.
//! * The window/lifetime miss taxonomy lives in a chunked epoch-stamped
//!   [`BlockSet`] instead of two `HashSet<u64>`s: one flat lookup per
//!   miss classifies replacement-vs-cold *and* revisit-vs-compulsory,
//!   and [`Cache::reset_stats`] is O(1) — it bumps the window epoch
//!   rather than clearing and re-seeding a set.
//! * `ways == 1` (the only configuration the paper's DEC 3000/600 uses)
//!   takes a branch-light direct-mapped path: one shift, one mask, one
//!   tag compare, and *no* LRU clock or recency-stamp bookkeeping, since
//!   a one-way set never consults recency.
//!
//! Resident lines must count as "seen this window" (a conflict evicting
//! them and a later re-reference is a replacement miss even when the
//! first touch predates the window).  The seed re-inserted every
//! resident line at reset; here the window membership of a
//! resident-at-reset line is recovered lazily — `Cache::fill` marks
//! the victim's window bit at eviction time, which is the only moment
//! the distinction can become observable (a block is only classified
//! when it misses, and it can only miss after being evicted).  The
//! equivalence suite (`tests/reference_equivalence.rs`) checks this
//! bit-for-bit against the seed model in [`crate::reference`].

use crate::blockset::BlockSet;
use crate::config::CacheConfig;

/// Tag value marking an invalid (never filled) way.
const EMPTY: u64 = u64::MAX;

/// Tag slots per page: one 4 KB page of `u64` tags.
const PAGE_SLOTS: usize = 512;

/// Statistics for one cache over one measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses on blocks that were previously resident in this window.
    pub replacement_misses: u64,
}

impl CacheStats {
    pub fn hits(&self) -> u64 {
        self.accesses - self.misses
    }

    pub fn cold_misses(&self) -> u64 {
        self.misses - self.replacement_misses
    }

    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.replacement_misses += other.replacement_misses;
    }
}

/// Outcome of a single cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    Hit,
    /// First-reference miss in this measurement window.
    ColdMiss,
    /// The block was in the cache earlier in this window and was evicted.
    ReplacementMiss,
}

impl Probe {
    pub fn is_miss(self) -> bool {
        !matches!(self, Probe::Hit)
    }
}

/// Tag storage allocated a page at a time, on first fill.
///
/// Slot `s` lives at `pages[s / page_slots][s % page_slots]`; a page
/// that was never filled is an empty box and reads as all [`EMPTY`].
#[derive(Debug, Clone)]
struct Tags {
    pages: Vec<Box<[u64]>>,
    /// `log2(page_slots)`; a page holds `min(PAGE_SLOTS, slots)` tags.
    page_shift: u32,
    page_mask: usize,
}

impl Tags {
    fn new(slots: usize) -> Self {
        let page_slots = slots.min(PAGE_SLOTS);
        assert!(page_slots.is_power_of_two());
        Tags {
            pages: vec![Box::default(); slots / page_slots],
            page_shift: page_slots.trailing_zeros(),
            page_mask: page_slots - 1,
        }
    }

    #[inline]
    fn get(&self, slot: usize) -> u64 {
        self.pages[slot >> self.page_shift]
            .get(slot & self.page_mask)
            .copied()
            .unwrap_or(EMPTY)
    }

    /// Store `tag` in `slot`, returning the tag it replaces.
    #[inline]
    fn replace(&mut self, slot: usize, tag: u64) -> u64 {
        let page = &mut self.pages[slot >> self.page_shift];
        if page.is_empty() {
            *page = vec![EMPTY; self.page_mask + 1].into_boxed_slice();
        }
        std::mem::replace(&mut page[slot & self.page_mask], tag)
    }

    /// Every slot back to [`EMPTY`]: O(pages), no tag is rewritten.
    fn clear(&mut self) {
        self.pages.fill_with(Box::default);
    }

    /// The valid tags.
    fn valid(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.iter().flat_map(|p| p.iter().copied()).filter(|&t| t != EMPTY)
    }
}

/// A set-associative cache (direct-mapped when `ways == 1`) with LRU
/// replacement.
///
/// Slot `set * ways + w` of `lines` holds the block tag resident in way
/// `w` of `set` (or `EMPTY`); `lru[set * ways + w]` its recency stamp,
/// used only by the associative (`ways > 1`) path.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Precomputed `!(block_bytes - 1)`.
    block_mask: u64,
    /// Precomputed `log2(block_bytes)`.
    block_shift: u32,
    /// Precomputed `num_sets - 1` (sizes are powers of two).
    set_mask: u64,
    lines: Tags,
    lru: Vec<u64>,
    clock: u64,
    /// Window + lifetime block membership (the miss taxonomy).
    seen: BlockSet,
    pub stats: CacheStats,
}

impl Cache {
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            config,
            block_mask: !(config.block_bytes - 1),
            block_shift: config.block_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
            lines: Tags::new(config.num_blocks() as usize),
            // Direct-mapped caches never consult recency; skip the
            // allocation (the b-cache alone would zero 512 KB of stamps
            // per fresh machine).
            lru: if config.ways == 1 {
                Vec::new()
            } else {
                vec![0; config.num_blocks() as usize]
            },
            clock: 0,
            seen: BlockSet::new(config.block_bytes),
            stats: CacheStats::default(),
        }
    }

    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Block-aligned address of `addr`.
    #[inline]
    pub fn block_addr(&self, addr: u64) -> u64 {
        addr & self.block_mask
    }

    /// Set index of `addr`.
    #[inline]
    pub fn index(&self, addr: u64) -> usize {
        ((addr >> self.block_shift) & self.set_mask) as usize
    }

    /// Slot range of a set within `lines`/`lru`.
    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let ways = self.config.ways as usize;
        set * ways..(set + 1) * ways
    }

    /// The way holding `block` within its set, if resident.
    fn find_way(&self, set: usize, block: u64) -> Option<usize> {
        self.set_range(set).find(|&w| self.lines.get(w) == block)
    }

    /// Is the block containing `addr` resident?
    pub fn contains(&self, addr: u64) -> bool {
        let block = self.block_addr(addr);
        if self.config.ways == 1 {
            return self.lines.get(self.index(addr)) == block;
        }
        self.find_way(self.index(addr), block).is_some()
    }

    /// Probe and (on miss) fill.  Counts statistics.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Probe {
        self.access_tracked(addr).0
    }

    /// Probe and fill, also reporting whether the block had *ever* been
    /// referenced in this machine's lifetime (a steady-state revisit, as
    /// opposed to a compulsory first touch).
    #[inline]
    pub fn access_tracked(&mut self, addr: u64) -> (Probe, bool) {
        self.stats.accesses += 1;
        let block = addr & self.block_mask;
        if self.config.ways == 1 {
            // Direct-mapped fast path: no LRU clock, no stamp updates —
            // a one-way set never compares recency.
            let set = ((addr >> self.block_shift) & self.set_mask) as usize;
            if self.lines.get(set) == block {
                return (Probe::Hit, true);
            }
            self.stats.misses += 1;
            let victim = self.lines.replace(set, block);
            if victim != EMPTY {
                self.seen.mark_window(victim);
            }
            let m = self.seen.mark(block);
            let probe = if m.in_window {
                self.stats.replacement_misses += 1;
                Probe::ReplacementMiss
            } else {
                Probe::ColdMiss
            };
            return (probe, m.ever_seen);
        }
        self.access_tracked_assoc(addr, block)
    }

    /// The general set-associative path, bit-identical to the seed
    /// model's LRU behaviour (first empty way, else lowest stamp with
    /// ties broken by way order).
    fn access_tracked_assoc(&mut self, addr: u64, block: u64) -> (Probe, bool) {
        self.clock += 1;
        let set = self.index(addr);
        if let Some(w) = self.find_way(set, block) {
            self.lru[w] = self.clock;
            return (Probe::Hit, true);
        }
        self.stats.misses += 1;
        let m = self.seen.mark(block);
        let probe = if m.in_window {
            self.stats.replacement_misses += 1;
            Probe::ReplacementMiss
        } else {
            Probe::ColdMiss
        };
        self.fill(set, block);
        (probe, m.ever_seen)
    }

    /// Install `block` into `set`, evicting the LRU way (associative
    /// path; the direct-mapped path fills inline).
    fn fill(&mut self, set: usize, block: u64) {
        let mut victim = 0usize;
        let mut best = (u64::MAX, u64::MAX); // (occupied, stamp); empties win
        for w in self.set_range(set) {
            let key = if self.lines.get(w) == EMPTY { (0, 0) } else { (1, self.lru[w]) };
            if key < best {
                best = key;
                victim = w;
            }
        }
        let evicted = self.lines.replace(victim, block);
        if evicted != EMPTY {
            self.seen.mark_window(evicted);
        }
        self.lru[victim] = self.clock;
    }

    /// Invalidate contents and clear statistics.  Drops the tag pages:
    /// O(pages), not O(capacity).
    pub fn reset(&mut self) {
        self.lines.clear();
        self.lru.fill(0);
        self.clock = 0;
        self.seen.reset_all();
        self.reset_stats();
    }

    /// Clear statistics and the replacement-classification window while
    /// keeping cache contents (for warm measurement windows).  O(1): the
    /// window epoch advances; resident lines re-enter the window lazily
    /// when (and only when) they are evicted, which is the only event
    /// that can make their membership observable.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.seen.reset_window();
    }

    /// Number of distinct blocks referenced this window (including the
    /// lines resident when the window opened, as the seed counted them).
    /// Scans the tag pages, so this is for reporting, not the hot loop.
    pub fn footprint_blocks(&self) -> usize {
        // Marked blocks, plus resident lines not yet marked this window
        // (continuously resident since before the window opened — the
        // lazily-deferred part of the window set).
        let unmarked_resident = self
            .lines
            .valid()
            .filter(|&l| !self.seen.in_window(l))
            .count();
        self.seen.window_len() as usize + unmarked_resident
    }

    /// Heap bytes held by the miss-taxonomy tracking (bounded by the
    /// address footprint ever touched, not by how long the cache runs).
    pub fn tracking_bytes(&self) -> usize {
        self.seen.tracking_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 blocks of 32 bytes = 128-byte cache.
        Cache::new(CacheConfig::new(128, 32))
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.access(0x40), Probe::ColdMiss);
        assert_eq!(c.access(0x44), Probe::Hit); // same 32-byte block
        assert_eq!(c.access(0x60), Probe::ColdMiss); // next block
        assert_eq!(c.stats.accesses, 3);
        assert_eq!(c.stats.misses, 2);
        assert_eq!(c.stats.replacement_misses, 0);
    }

    #[test]
    fn conflicting_blocks_cause_replacement_misses() {
        let mut c = tiny();
        // 0x0 and 0x80 map to the same set in a 128-byte direct-mapped cache.
        assert_eq!(c.index(0x0), c.index(0x80));
        assert_eq!(c.access(0x0), Probe::ColdMiss);
        assert_eq!(c.access(0x80), Probe::ColdMiss);
        assert_eq!(c.access(0x0), Probe::ReplacementMiss);
        assert_eq!(c.access(0x80), Probe::ReplacementMiss);
        assert_eq!(c.stats.replacement_misses, 2);
    }

    #[test]
    fn non_conflicting_blocks_coexist() {
        let mut c = tiny();
        c.access(0x0);
        c.access(0x20);
        c.access(0x40);
        c.access(0x60);
        assert_eq!(c.access(0x0), Probe::Hit);
        assert_eq!(c.access(0x60), Probe::Hit);
    }

    #[test]
    fn reset_stats_keeps_contents_and_window_classification() {
        let mut c = tiny();
        c.access(0x0);
        c.reset_stats();
        assert_eq!(c.stats.accesses, 0);
        assert_eq!(c.access(0x0), Probe::Hit);
        // Evict 0x0 with 0x80, then re-reference: replacement even though
        // the first touch of 0x0 was before the stats reset.
        c.access(0x80);
        assert_eq!(c.access(0x0), Probe::ReplacementMiss);
    }

    #[test]
    fn full_reset_is_cold() {
        let mut c = tiny();
        c.access(0x0);
        c.reset();
        assert_eq!(c.access(0x0), Probe::ColdMiss);
    }

    #[test]
    fn two_way_cache_survives_pairwise_conflicts() {
        // Two blocks that alias in a direct-mapped cache coexist in a
        // 2-way set: the paper's "small associativity" remark.
        let mut dm = Cache::new(CacheConfig::new(128, 32));
        let mut w2 = Cache::new(CacheConfig::set_associative(128, 32, 2));
        for _ in 0..8 {
            dm.access(0x0);
            dm.access(0x80);
            w2.access(0x0);
            w2.access(0x100); // same set in the 2-way (2 sets of 2 ways)
        }
        assert!(dm.stats.replacement_misses >= 10);
        assert_eq!(w2.stats.replacement_misses, 0);
    }

    #[test]
    fn lru_evicts_least_recent_way() {
        // 1 set x 2 ways (64-byte cache, 32-byte blocks).
        let mut c = Cache::new(CacheConfig::set_associative(64, 32, 2));
        c.access(0x0);
        c.access(0x40);
        c.access(0x0); // refresh 0x0
        c.access(0x80); // must evict 0x40, not 0x0
        assert!(c.contains(0x0));
        assert!(!c.contains(0x40));
        assert!(c.contains(0x80));
    }

    #[test]
    fn associativity_preserves_capacity() {
        let mut c = Cache::new(CacheConfig::set_associative(128, 32, 4));
        for a in [0u64, 0x20, 0x40, 0x60] {
            c.access(a);
        }
        for a in [0u64, 0x20, 0x40, 0x60] {
            assert!(c.contains(a), "{a:#x} evicted from a non-full cache");
        }
    }

    #[test]
    fn footprint_counts_distinct_blocks() {
        let mut c = tiny();
        c.access(0x0);
        c.access(0x4);
        c.access(0x20);
        c.access(0x200);
        assert_eq!(c.footprint_blocks(), 3);
    }

    #[test]
    fn footprint_counts_resident_lines_after_stats_reset() {
        // The seed re-inserted resident lines into the window at reset;
        // the lazy scheme must report the same footprint even for lines
        // that are never touched again.
        let mut c = tiny();
        c.access(0x0);
        c.access(0x20);
        c.reset_stats();
        assert_eq!(c.footprint_blocks(), 2, "resident lines count");
        c.access(0x40);
        assert_eq!(c.footprint_blocks(), 3);
        // Evicting a resident-at-reset line keeps the count stable
        // (eviction moves it from the lazy part to the marked part).
        c.access(0x80); // conflicts with 0x0
        assert_eq!(c.footprint_blocks(), 4);
        assert_eq!(c.access(0x0), Probe::ReplacementMiss);
    }

    #[test]
    fn tag_pages_follow_the_sets_touched() {
        // The paper's 2 MB b-cache: 65 536 sets in 128 pages of tags.
        let mut c = Cache::new(CacheConfig::new(2 * 1024 * 1024, 32));
        let pages = |c: &Cache| c.lines.pages.iter().filter(|p| !p.is_empty()).count();
        assert_eq!(c.lines.pages.len(), 128);
        assert_eq!(pages(&c), 0, "a fresh cache holds no tags");
        c.access(0x0);
        c.access(0x20);
        c.access(0x10_0000); // set 32 768: another page
        assert_eq!(pages(&c), 2);
        assert!(c.contains(0x20) && !c.contains(0x40));
        c.reset();
        assert_eq!(pages(&c), 0, "a reset drops the pages");
        assert!(!c.contains(0x20));
        assert_eq!(c.access(0x20), Probe::ColdMiss);
    }

    #[test]
    fn tracking_memory_is_footprint_bounded() {
        let mut c = tiny();
        for round in 0..50 {
            for a in (0u64..0x4000).step_by(32) {
                c.access(a);
            }
            if round == 0 {
                c.reset_stats();
            }
        }
        let bytes = c.tracking_bytes();
        for _ in 0..50 {
            for a in (0u64..0x4000).step_by(32) {
                c.access(a);
            }
            c.reset_stats();
        }
        assert_eq!(c.tracking_bytes(), bytes, "windows must not grow tracking");
    }
}
