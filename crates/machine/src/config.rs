//! Machine parameterization.
//!
//! All sizes are bytes, all latencies CPU cycles.  The defaults describe
//! the DEC 3000/600 of the paper: 175 MHz 21064, 8 KB split direct-mapped
//! L1s with 32-byte blocks, 4-deep write buffer, 2 MB direct-mapped
//! write-back b-cache.


/// CPU issue-model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Clock frequency in MHz; used only to convert cycles to time.
    pub clock_mhz: u64,
    /// Maximum instructions issued per cycle.
    pub issue_width: u32,
    /// Pipeline bubble charged for a taken control transfer
    /// (branch-taken, call, return).
    pub taken_branch_penalty: u64,
    /// Extra cycles for an integer multiply beyond the base issue cycle.
    pub mul_extra_cycles: u64,
    /// Extra cycles charged per load for the load-use delay that the
    /// scheduler could not hide (architectural average, not per-dependence
    /// tracking).
    pub load_use_penalty_milli: u64,
}

impl CpuConfig {
    /// Alpha 21064 at 175 MHz.
    ///
    /// The 21064 is dual-issue but can pair only certain combinations
    /// (roughly: one memory/branch op with one integer op).  The
    /// `load_use_penalty_milli` of 500 charges half a cycle per load on
    /// average for exposed load-use latency (the 21064 d-stream latency is
    /// 3 cycles; compilers hide most but not all of it in pointer-chasing
    /// protocol code).
    pub fn alpha_21064() -> Self {
        CpuConfig {
            clock_mhz: 175,
            issue_width: 2,
            taken_branch_penalty: 4,
            mul_extra_cycles: 19,
            load_use_penalty_milli: 2500,
        }
    }
}

/// Parameters of one cache level.
///
/// The DEC 3000/600's caches are all direct-mapped (`ways = 1`) — the
/// very property the paper's layout techniques exploit.  Higher
/// associativity is supported for the "what if" ablation: with a 2-way
/// LRU i-cache most replacement misses disappear and the layout
/// techniques matter far less.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.  Must be a power of two.
    pub size_bytes: u64,
    /// Block (line) size in bytes.  Must be a power of two.
    pub block_bytes: u64,
    /// Associativity (1 = direct-mapped).  Must be a power of two.
    pub ways: u64,
}

impl CacheConfig {
    /// A direct-mapped cache (the 21064's organization).
    pub fn new(size_bytes: u64, block_bytes: u64) -> Self {
        Self::set_associative(size_bytes, block_bytes, 1)
    }

    /// An N-way set-associative cache with LRU replacement.
    pub fn set_associative(size_bytes: u64, block_bytes: u64, ways: u64) -> Self {
        assert!(size_bytes.is_power_of_two(), "cache size must be 2^n");
        assert!(block_bytes.is_power_of_two(), "block size must be 2^n");
        assert!(ways.is_power_of_two(), "ways must be 2^n");
        assert!(size_bytes >= block_bytes * ways);
        CacheConfig { size_bytes, block_bytes, ways }
    }

    /// Number of blocks the cache holds.
    pub fn num_blocks(&self) -> u64 {
        self.size_bytes / self.block_bytes
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.num_blocks() / self.ways
    }
}

/// Memory-hierarchy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    pub icache: CacheConfig,
    pub dcache: CacheConfig,
    pub bcache: CacheConfig,
    /// Write-buffer depth in entries (each entry holds one d-cache block).
    pub write_buffer_entries: usize,
    /// Cycles for an L1 miss serviced by the b-cache, *after* overlap with
    /// useful work (effective stall, not raw latency).  The raw b-cache
    /// access time on the DEC 3000/600 is ~10 cycles; the paper's own
    /// cross-check (Table 8) derives 5.6–17.5 effective cycles per
    /// b-cache access.
    pub bcache_stall: u64,
    /// Additional stall when the b-cache also misses and main memory must
    /// be accessed.
    pub memory_stall: u64,
    /// Cycles the b-cache is occupied retiring one write-buffer entry;
    /// determines how fast the write buffer drains and hence full-buffer
    /// stalls.
    pub writebuf_retire_cycles: u64,
    /// Whether an i-cache miss also prefetches the next sequential block
    /// (the 21064 has i-stream prefetch).  A prefetch counts as a b-cache
    /// access but is not charged as stall.
    pub icache_prefetch: bool,
    /// Cycles of prefetch latency hidden by execution of the preceding
    /// block when fetch stays sequential (the stream buffer's cover).
    pub prefetch_cover_cycles: u64,
    /// Instruction TLB: number of entries (0 disables the model).
    pub itlb_entries: usize,
    /// Page size for the ITLB.
    pub page_bytes: u64,
    /// Refill penalty per ITLB miss (PALcode handler).
    pub itlb_miss_stall: u64,
    /// Treat cold b-cache misses as hits for *timing* (they still count in
    /// the statistics).  This models the paper's steady-state claim that
    /// "the entire kernel fits into the b-cache": only blocks evicted by a
    /// conflict within the measured window pay the main-memory stall.
    pub bcache_cold_is_free: bool,
}

impl MemConfig {
    /// DEC 3000/600 memory system.
    pub fn dec3000_600() -> Self {
        MemConfig {
            icache: CacheConfig::new(8 * 1024, 32),
            dcache: CacheConfig::new(8 * 1024, 32),
            bcache: CacheConfig::new(2 * 1024 * 1024, 32),
            write_buffer_entries: 4,
            bcache_stall: 22,
            memory_stall: 30,
            writebuf_retire_cycles: 10,
            icache_prefetch: true,
            prefetch_cover_cycles: 12,
            itlb_entries: 32,
            page_bytes: 8192,
            itlb_miss_stall: 20,
            bcache_cold_is_free: true,
        }
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    pub cpu: CpuConfig,
    pub mem: MemConfig,
}

impl MachineConfig {
    /// The paper's experimental platform.
    pub fn dec3000_600() -> Self {
        MachineConfig {
            cpu: CpuConfig::alpha_21064(),
            mem: MemConfig::dec3000_600(),
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::dec3000_600()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dec3000_parameters_match_paper() {
        let c = MachineConfig::dec3000_600();
        assert_eq!(c.cpu.clock_mhz, 175);
        assert_eq!(c.mem.icache.size_bytes, 8 * 1024);
        assert_eq!(c.mem.icache.block_bytes, 32);
        // "a cache block holds 8 instructions"
        assert_eq!(c.mem.icache.block_bytes / 4, 8);
        assert_eq!(c.mem.dcache.size_bytes, 8 * 1024);
        assert_eq!(c.mem.bcache.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.mem.write_buffer_entries, 4);
    }

    #[test]
    fn block_counts() {
        let c = CacheConfig::new(8 * 1024, 32);
        assert_eq!(c.num_blocks(), 256);
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        CacheConfig::new(8 * 1024 + 1, 32);
    }
}
