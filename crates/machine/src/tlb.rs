//! Instruction TLB model.
//!
//! The paper credits cloning with improving "i-cache, TLB, and paging
//! behavior" — packing the path into a few pages keeps the ITLB quiet,
//! while the pessimal layout (functions strewn megabytes apart) touches
//! one page per function and thrashes it.
//!
//! Model: fully associative, LRU, 8 KB pages (the 21064's base page
//! size), with a fixed refill penalty (the 21064 handled TLB misses in
//! PALcode).

/// ITLB statistics for one measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    pub accesses: u64,
    pub misses: u64,
}

/// A fully associative, LRU translation buffer.
///
/// Instruction fetch hits the same page run after run, so the linear
/// scan keeps a memo of the last-hit slot and checks it first — on
/// straight-line code the 32-entry scan collapses to one compare.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: usize,
    page_bytes: u64,
    /// (page number, last-use stamp).
    slots: Vec<(u64, u64)>,
    /// Index of the most recently hit/filled slot.
    last: usize,
    clock: u64,
    pub stats: TlbStats,
}

impl Tlb {
    pub fn new(entries: usize, page_bytes: u64) -> Self {
        assert!(entries > 0);
        assert!(page_bytes.is_power_of_two());
        Tlb {
            entries,
            page_bytes,
            slots: Vec::with_capacity(entries),
            last: 0,
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// Translate `addr`; returns true on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        self.clock += 1;
        let page = addr / self.page_bytes;
        if let Some(slot) = self.slots.get_mut(self.last) {
            if slot.0 == page {
                slot.1 = self.clock;
                return true;
            }
        }
        if let Some(i) = self.slots.iter().position(|(p, _)| *p == page) {
            self.slots[i].1 = self.clock;
            self.last = i;
            return true;
        }
        self.stats.misses += 1;
        if self.slots.len() < self.entries {
            self.slots.push((page, self.clock));
            self.last = self.slots.len() - 1;
        } else {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("non-empty tlb");
            self.slots[victim] = (page, self.clock);
            self.last = victim;
        }
        false
    }

    /// Count `n` accesses that are known to hit the most recently used
    /// page: the hierarchy's same-line fetches (same i-cache block ⇒
    /// same page, and no other page was translated since — the data
    /// side has no TLB).  Skips the clock and stamp updates — the page
    /// already holds the newest stamp and no other stamp changes, so
    /// every future LRU comparison is unaffected.
    #[inline]
    pub fn note_repeat_accesses(&mut self, n: u64) {
        self.stats.accesses += n;
    }

    pub fn reset(&mut self) {
        self.slots.clear();
        self.last = 0;
        self.clock = 0;
        self.reset_stats();
    }

    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits_after_fill() {
        let mut t = Tlb::new(4, 8192);
        assert!(!t.access(0x0));
        assert!(t.access(0x1FFF));
        assert!(!t.access(0x2000), "next page misses");
        assert_eq!(t.stats.misses, 2);
    }

    #[test]
    fn lru_evicts_oldest_page() {
        let mut t = Tlb::new(2, 8192);
        t.access(0x0000); // page 0
        t.access(0x2000); // page 1
        t.access(0x0000); // refresh page 0
        t.access(0x4000); // page 2 evicts page 1
        assert!(t.access(0x0000), "page 0 retained");
        assert!(!t.access(0x2000), "page 1 evicted");
    }

    #[test]
    fn scattered_code_thrashes_small_tlb() {
        let mut t = Tlb::new(8, 8192);
        // 16 "functions" 2 MB apart, visited round-robin: every access
        // misses once warm.
        for _ in 0..4 {
            for k in 0..16u64 {
                t.access(k * 0x20_0000);
            }
        }
        assert_eq!(t.stats.misses as usize, 4 * 16);
    }

    #[test]
    fn packed_code_fits() {
        let mut t = Tlb::new(8, 8192);
        for _ in 0..4 {
            for k in 0..4u64 {
                t.access(k * 8192);
            }
        }
        assert_eq!(t.stats.misses, 4, "only compulsory misses");
    }
}
