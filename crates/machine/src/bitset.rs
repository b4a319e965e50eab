//! Compact address bitmaps.
//!
//! `PcBitmap` started life in `kcode` as a replacement for the
//! `HashSet<u64>`s the replayer used for fetch-utilization accounting
//! (one bit per instruction word / i-cache block over the image's
//! contiguous code extent).  The machine model's flat miss taxonomy
//! ([`crate::blockset::BlockSet`]) needs the same trick one layer down,
//! so the type lives here now; `kcode::bitset` re-exports it.

/// A bitmap over an address range, at a power-of-two byte granularity
/// (`shift = 2` tracks instruction words, `shift = 5` tracks 32-byte
/// i-cache blocks).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PcBitmap {
    base: u64,
    shift: u32,
    words: Vec<u64>,
}

impl PcBitmap {
    /// An empty bitmap covering `[base, end)`.  Addresses at or past
    /// `end` still work (the bitmap grows), they just cost a realloc.
    pub fn new(base: u64, end: u64, shift: u32) -> Self {
        let units = (end.saturating_sub(base) >> shift) + 1;
        PcBitmap { base, shift, words: vec![0; units.div_ceil(64) as usize] }
    }

    /// Instruction-granularity bitmap (one bit per 4-byte word).
    pub fn for_pcs(base: u64, end: u64) -> Self {
        Self::new(base, end, 2)
    }

    /// i-cache-block-granularity bitmap (one bit per 32-byte block).
    pub fn for_blocks(base: u64, end: u64) -> Self {
        Self::new(base, end, 5)
    }

    #[inline]
    fn index(&self, addr: u64) -> usize {
        debug_assert!(addr >= self.base, "addr {addr:#x} below bitmap base {:#x}", self.base);
        ((addr - self.base) >> self.shift) as usize
    }

    /// Mark the unit containing `addr`.
    #[inline]
    pub fn insert(&mut self, addr: u64) {
        let i = self.index(addr);
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (i % 64);
    }

    /// Mark every unit that overlaps `[start, end)`, a word at a time.
    pub fn insert_range(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let (lo, hi) = (self.index(start), self.index(end - 1));
        if hi / 64 >= self.words.len() {
            self.words.resize(hi / 64 + 1, 0);
        }
        for w in lo / 64..=hi / 64 {
            let from = if w == lo / 64 { lo % 64 } else { 0 };
            let to = if w == hi / 64 { hi % 64 } else { 63 };
            self.words[w] |= (u64::MAX >> (63 - (to - from))) << from;
        }
    }

    /// Is the unit containing `addr` marked?
    pub fn contains(&self, addr: u64) -> bool {
        if addr < self.base {
            return false;
        }
        let i = self.index(addr);
        self.words.get(i / 64).is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of marked units (the old `HashSet::len`).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// OR another bitmap in (Table 9 merges the out- and in-path sets).
    /// Both must share base and granularity.
    pub fn union_with(&mut self, other: &PcBitmap) {
        assert_eq!(self.base, other.base, "bitmap bases differ");
        assert_eq!(self.shift, other.shift, "bitmap granularities differ");
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Iterate marked addresses (unit base addresses).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let base = self.base;
        let shift = self.shift;
        self.words.iter().enumerate().flat_map(move |(wi, w)| {
            let mut w = *w;
            let mut out = Vec::new();
            while w != 0 {
                let b = w.trailing_zeros() as u64;
                out.push(base + (((wi as u64) * 64 + b) << shift));
                w &= w - 1;
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_len() {
        let mut m = PcBitmap::for_pcs(0x1000, 0x2000);
        assert!(m.is_empty());
        m.insert(0x1000);
        m.insert(0x1004);
        m.insert(0x1004); // idempotent
        m.insert(0x1ffc);
        assert_eq!(m.len(), 3);
        assert!(m.contains(0x1004));
        assert!(!m.contains(0x1008));
        assert!(!m.contains(0x0ffc));
    }

    #[test]
    fn block_granularity_merges_within_block() {
        let mut m = PcBitmap::for_blocks(0x1000, 0x2000);
        m.insert(0x1000);
        m.insert(0x101c); // same 32-byte block
        m.insert(0x1020); // next block
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn grows_past_declared_end() {
        let mut m = PcBitmap::for_pcs(0x1000, 0x1100);
        m.insert(0x9000);
        assert!(m.contains(0x9000));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn insert_range_matches_inserting_each_address() {
        // Ranges inside one word, across word boundaries, spanning
        // several words, growing the bitmap, and empty.
        for shift in [2, 5] {
            for (start, end) in
                [(0x1004, 0x1010), (0x10f8, 0x1108), (0x1000, 0x1a04), (0x1ff0, 0x2400), (0x1040, 0x1040)]
            {
                let (mut range, mut each) =
                    (PcBitmap::new(0x1000, 0x2000, shift), PcBitmap::new(0x1000, 0x2000, shift));
                range.insert_range(start, end);
                for pc in (start..end).step_by(4) {
                    each.insert(pc);
                }
                assert_eq!(range.iter().collect::<Vec<_>>(), each.iter().collect::<Vec<_>>());
                assert_eq!(range.len(), each.len(), "shift {shift}: [{start:#x}, {end:#x})");
            }
        }
    }

    #[test]
    fn union_matches_hashset_semantics() {
        let mut a = PcBitmap::for_pcs(0x1000, 0x2000);
        let mut b = PcBitmap::for_pcs(0x1000, 0x2000);
        a.insert(0x1000);
        a.insert(0x1010);
        b.insert(0x1010);
        b.insert(0x1ff0);
        b.insert(0x3000); // grown unit
        a.union_with(&b);
        assert_eq!(a.len(), 4);
        assert!(a.contains(0x3000));
    }

    #[test]
    fn iter_yields_unit_addresses() {
        let mut m = PcBitmap::for_blocks(0x1000, 0x2000);
        m.insert(0x1024);
        m.insert(0x1048);
        let got: Vec<u64> = m.iter().collect();
        assert_eq!(got, vec![0x1020, 0x1040]);
    }
}
