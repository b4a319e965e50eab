//! Flat block-membership tracking for the miss taxonomy.
//!
//! [`crate::cache::Cache`] classifies every miss against two sets: the
//! blocks referenced *this measurement window* (replacement vs. cold
//! miss) and the blocks referenced *ever in the machine's lifetime*
//! (steady-state revisit vs. compulsory first touch, which drives the
//! b-cache timing exception).  The seed implementation kept both as
//! `HashSet<u64>` — a hash probe per miss, an O(set) clear per window,
//! and allocation behaviour at the mercy of the hasher.
//!
//! `BlockSet` replaces them with flat bitmaps indexed by block number,
//! the same move `PcBitmap` ([`crate::bitset`]) made for the replayer's
//! fetch accounting.  Because the simulated address space has a handful
//! of widely separated regions (code at 0x0010_0000, data at
//! 0x0800_0000, stack below 0x0C00_0000), one contiguous bitmap would be
//! mostly zeros; instead the address space is carved into fixed
//! power-of-two *chunks* of blocks, created on first touch and kept
//! sorted, so a probe that misses its hint binary-searches for its
//! chunk.  Each chunk holds, inline in the sorted chunk vector (no
//! allocation of its own),
//!
//! * a *window* bitmap (one bit per block) tagged with the window epoch
//!   it belongs to.  Opening a new measurement window is one counter
//!   increment — O(1) instead of the seed's O(footprint)
//!   `HashSet::clear` + re-insert — and a chunk whose tag is older than
//!   the current epoch clears its window bits the first time the new
//!   window touches it;
//! * an *ever-seen* bitmap (one bit per block), cleared only by a full
//!   machine reset.
//!
//! Memory is therefore bounded by the distinct address extent the
//! machine ever touches (the image footprint), never by how many runs
//! or windows are replayed — the seed's lifetime `HashSet` rehashed and
//! reallocated as runs accumulated.

/// Blocks per chunk.  At 32-byte blocks one chunk spans 16 KB of
/// address space and costs 144 B (two 64 B bitmaps, its first block
/// and its window epoch).  A fresh machine (the sweep engine builds one
/// per timed host) zeroes every chunk it touches, so the size trades
/// zeroing against chunk count (a search step per doubling).  After one
/// cold TCP/IP BAD client roundtrip, whose pessimal layout scatters the
/// path over the code segment, the three caches hold about 10 KB of
/// chunks (a `u32` window stamp per block instead of the window bitmap
/// made that 119 KB, and 814 KB at 4096 blocks per chunk).
const CHUNK_BLOCKS: u64 = 1 << 9;

/// 64-bit words per chunk bitmap.
const WORDS: usize = (CHUNK_BLOCKS / 64) as usize;

/// Chunk-index hints, one per value of the chunk number's low bits.  A
/// cache miss marks its victim and then its block, which sit a multiple
/// of the cache size apart and so usually in different chunks; with one
/// hint per slot such alternations find both chunks without a search.
const HINTS: usize = 8;

/// Outcome of [`BlockSet::mark`]: membership *before* the mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// The block had already been referenced in the current window.
    pub in_window: bool,
    /// The block had been referenced at some point in the machine's
    /// lifetime (since the last full reset).
    pub ever_seen: bool,
}

#[derive(Debug, Clone)]
struct Chunk {
    /// First block number covered by this chunk.
    first_block: u64,
    /// The window epoch `window` belongs to; bits from an older epoch
    /// are stale and read as clear.
    epoch: u32,
    /// Current-window bitmap, one bit per block.
    window: [u64; WORDS],
    /// Ever-seen bitmap, one bit per block.
    ever: [u64; WORDS],
}

impl Chunk {
    fn new(first_block: u64, epoch: u32) -> Self {
        Chunk { first_block, epoch, window: [0; WORDS], ever: [0; WORDS] }
    }

    /// The window bitmap for `epoch`, clearing stale bits first.
    #[inline]
    fn window_at(&mut self, epoch: u32) -> &mut [u64; WORDS] {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.window = [0; WORDS];
        }
        &mut self.window
    }
}

/// Word index and bit mask of chunk offset `i`.
#[inline]
fn bit(i: usize) -> (usize, u64) {
    (i / 64, 1u64 << (i % 64))
}

/// Chunked flat membership over cache-block addresses.
#[derive(Debug, Clone)]
pub struct BlockSet {
    /// log2 of the block size in bytes.
    block_shift: u32,
    /// Current window epoch.  Monotone for the life of the set; wrapping
    /// would take 2^32 window resets on one machine, which no run comes
    /// near.
    epoch: u32,
    /// Distinct blocks marked in the current window.
    window_len: u64,
    /// Chunks, sorted by first block.
    chunks: Vec<Chunk>,
    /// Last chunk index found per chunk-number slot (see [`HINTS`]).
    hints: [u32; HINTS],
}

impl BlockSet {
    pub fn new(block_bytes: u64) -> Self {
        assert!(block_bytes.is_power_of_two());
        BlockSet {
            block_shift: block_bytes.trailing_zeros(),
            epoch: 0,
            window_len: 0,
            chunks: Vec::new(),
            hints: [0; HINTS],
        }
    }

    /// The chunk holding `block` and the block's offset in it, creating
    /// the chunk on first touch.
    #[inline]
    fn chunk_for(&mut self, block: u64) -> (&mut Chunk, usize) {
        let first = block & !(CHUNK_BLOCKS - 1);
        let slot = (block / CHUNK_BLOCKS) as usize % HINTS;
        let hint = self.hints[slot] as usize;
        // A hint may be stale after an insertion shifted the chunks; it
        // is only trusted when its chunk matches.
        let i = if self.chunks.get(hint).is_some_and(|c| c.first_block == first) {
            hint
        } else {
            let i = match self.chunks.binary_search_by_key(&first, |c| c.first_block) {
                Ok(i) => i,
                Err(i) => {
                    self.chunks.insert(i, Chunk::new(first, self.epoch));
                    i
                }
            };
            self.hints[slot] = i as u32;
            i
        };
        (&mut self.chunks[i], (block - first) as usize)
    }

    /// Mark the block containing `addr` as referenced (window and
    /// lifetime), returning its membership before the mark.
    #[inline]
    pub fn mark(&mut self, addr: u64) -> Mark {
        let epoch = self.epoch;
        let (chunk, i) = self.chunk_for(addr >> self.block_shift);
        let (w, bit) = bit(i);
        let window = chunk.window_at(epoch);
        let in_window = window[w] & bit != 0;
        window[w] |= bit;
        let ever_seen = chunk.ever[w] & bit != 0;
        chunk.ever[w] |= bit;
        self.window_len += u64::from(!in_window);
        Mark { in_window, ever_seen }
    }

    /// Mark the block containing `addr` as part of the current window
    /// only (used to seed a fresh window with the blocks still resident
    /// in the cache — they were necessarily marked ever-seen when they
    /// were filled).
    pub fn mark_window(&mut self, addr: u64) {
        let epoch = self.epoch;
        let (chunk, i) = self.chunk_for(addr >> self.block_shift);
        let (w, bit) = bit(i);
        let window = chunk.window_at(epoch);
        let in_window = window[w] & bit != 0;
        window[w] |= bit;
        self.window_len += u64::from(!in_window);
    }

    /// Is the block containing `addr` in the current window?
    pub fn in_window(&self, addr: u64) -> bool {
        let block = addr >> self.block_shift;
        let first = block & !(CHUNK_BLOCKS - 1);
        let (w, bit) = bit((block - first) as usize);
        self.chunks
            .binary_search_by_key(&first, |c| c.first_block)
            .is_ok_and(|i| {
                let c = &self.chunks[i];
                c.epoch == self.epoch && c.window[w] & bit != 0
            })
    }

    /// Number of distinct blocks marked in the current window.
    pub fn window_len(&self) -> u64 {
        self.window_len
    }

    /// Start a new measurement window: O(1), no memory is touched.
    pub fn reset_window(&mut self) {
        self.epoch += 1;
        self.window_len = 0;
    }

    /// Full reset: new window *and* forget lifetime membership.  Keeps
    /// the chunks (bounded by the footprint ever touched).
    pub fn reset_all(&mut self) {
        self.reset_window();
        for c in &mut self.chunks {
            c.ever = [0; WORDS];
        }
    }

    /// Heap bytes held by the tracking structures — the quantity the
    /// memory-bound regression test pins down.
    pub fn tracking_bytes(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<Chunk>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_reports_prior_membership() {
        let mut s = BlockSet::new(32);
        let m = s.mark(0x1000);
        assert!(!m.in_window);
        assert!(!m.ever_seen);
        let m = s.mark(0x1004); // same 32-byte block
        assert!(m.in_window);
        assert!(m.ever_seen);
        assert_eq!(s.window_len(), 1);
    }

    #[test]
    fn window_reset_is_o1_and_preserves_lifetime() {
        let mut s = BlockSet::new(32);
        s.mark(0x2000);
        s.reset_window();
        assert_eq!(s.window_len(), 0);
        assert!(!s.in_window(0x2000));
        let m = s.mark(0x2000);
        assert!(!m.in_window, "window membership cleared");
        assert!(m.ever_seen, "lifetime membership kept");
    }

    #[test]
    fn full_reset_forgets_lifetime() {
        let mut s = BlockSet::new(32);
        s.mark(0x2000);
        s.reset_all();
        let m = s.mark(0x2000);
        assert!(!m.in_window);
        assert!(!m.ever_seen);
    }

    #[test]
    fn far_apart_regions_get_separate_chunks() {
        let mut s = BlockSet::new(32);
        s.mark(0x0010_0000); // code
        s.mark(0x0800_0000); // data
        s.mark(0x0BFF_FFE0); // stack
        assert_eq!(s.chunks.len(), 3);
        assert_eq!(s.window_len(), 3);
        // Revisits stay in their chunks.
        assert!(s.mark(0x0800_0000).in_window);
        assert_eq!(s.chunks.len(), 3);
    }

    #[test]
    fn memory_is_bounded_by_footprint_not_windows() {
        let mut s = BlockSet::new(32);
        for _ in 0..1000 {
            for a in (0x1000u64..0x9000).step_by(32) {
                s.mark(a);
            }
            s.reset_window();
        }
        let bytes = s.tracking_bytes();
        for _ in 0..1000 {
            for a in (0x1000u64..0x9000).step_by(32) {
                s.mark(a);
            }
            s.reset_window();
        }
        assert_eq!(s.tracking_bytes(), bytes, "repeat windows must not grow memory");
    }

    #[test]
    fn many_scattered_chunks_keep_their_own_membership() {
        let mut s = BlockSet::new(32);
        let chunk_bytes = CHUNK_BLOCKS * 32;
        // One block in each of 100 chunks, three chunks apart, visited
        // in a scrambled order (37 is coprime to 100).
        let addrs: Vec<u64> = (0..100u64)
            .map(|i| 0x0010_0000 + (i * 37 % 100) * 3 * chunk_bytes + (i % 7) * 32)
            .collect();
        for &a in &addrs {
            assert_eq!(s.mark(a), Mark { in_window: false, ever_seen: false });
        }
        assert_eq!(s.chunks.len(), 100);
        assert_eq!(s.window_len(), 100);
        for &a in &addrs {
            assert!(s.in_window(a));
            assert!(!s.in_window(a + 32), "the next block was never marked");
            assert!(!s.in_window(a + chunk_bytes), "the next chunk was never touched");
        }

        s.reset_window();
        assert_eq!(s.window_len(), 0);
        assert!(addrs.iter().all(|&a| !s.in_window(a)));
        for &a in addrs.iter().rev() {
            assert_eq!(s.mark(a), Mark { in_window: false, ever_seen: true });
        }
        assert_eq!(s.window_len(), 100);

        s.reset_all();
        assert!(addrs.iter().all(|&a| !s.in_window(a)));
        for &a in &addrs {
            assert_eq!(s.mark(a), Mark { in_window: false, ever_seen: false });
        }
        assert_eq!(s.chunks.len(), 100, "resets keep the chunks");
    }

    #[test]
    fn mark_window_counts_once() {
        let mut s = BlockSet::new(32);
        s.mark_window(0x3000);
        s.mark_window(0x3000);
        assert_eq!(s.window_len(), 1);
        assert!(s.in_window(0x3000));
        // Window-only marks do not claim lifetime membership.
        assert!(!s.mark(0x3000).ever_seen);
    }
}
