//! Laid-out kernel images.
//!
//! An [`Image`] assigns every block of every function a concrete address.
//! Layout strategies ([`crate::layout`]) drive an [`ImageAssembler`],
//! which handles the per-function mechanics: hot blocks in source order,
//! cold blocks either inline (no outlining), at the end of the function
//! (outlining), or in a far cold region (cloned layouts, which share
//! outlined code with the originals), and merged path-inlined groups laid
//! in canonical execution order.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::datalayout::DataLayout;

use crate::ids::{BlockIdx, FuncId};
use crate::program::Program;
use crate::replay::ReplayPlan;
use crate::transform::inline::InlinePlan;
use crate::transform::outline::{needs_term_slot, split_hot_cold};

/// Behavioural knobs of an image, beyond pure placement.
#[derive(Debug, Clone)]
pub struct ImageConfig {
    /// Human-readable strategy name for reports.
    pub name: String,
    /// Outlining applied (cold blocks moved out of the mainline).
    pub outline: bool,
    /// Cloning-enabled call specialization: calls whose target is within
    /// `near_call_bytes` use a PC-relative branch (dropping the
    /// callee-address load) and skip the callee's GP-reload prologue
    /// instructions.
    pub specialize_calls: bool,
    /// Distance threshold for a "near" call.
    pub near_call_bytes: u64,
    /// Per-mille of ALU instructions removed from path-inlined function
    /// bodies by cross-call optimization (the compiler context the paper
    /// credits inlining with).
    pub inline_alu_shrink_permille: u32,
}

impl ImageConfig {
    pub fn plain(name: &str) -> Self {
        ImageConfig {
            name: name.to_string(),
            outline: false,
            specialize_calls: false,
            near_call_bytes: 1 << 20,
            inline_alu_shrink_permille: 160,
        }
    }

    pub fn with_outline(mut self, on: bool) -> Self {
        self.outline = on;
        self
    }

    pub fn with_specialization(mut self, on: bool) -> Self {
        self.specialize_calls = on;
        self
    }
}

/// Where each block of one function lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionPlacement {
    /// Address of each block, indexed by `BlockIdx`.
    pub block_addr: Vec<u64>,
    /// Laid length of each block in instructions (body + terminator slot
    /// if present).
    pub block_len: Vec<u32>,
    /// Whether a terminator slot exists at the end of each block.
    pub has_slot: Vec<bool>,
    /// True if this function is spliced into a merged path-inlined group:
    /// its entry/exit blocks are elided and calls into it vanish.
    pub inlined: bool,
    /// Index of the merged group this function belongs to (calls between
    /// functions of the *same* group are spliced away; calls across
    /// groups remain real calls).
    pub group: Option<usize>,
}

/// A fully laid-out program.
///
/// An image is not edited once assembled: its first replay derives a
/// replay plan from the placements and keeps it for every later replay
/// (see [`crate::replay`]).
#[derive(Debug, Clone)]
pub struct Image {
    pub program: Arc<Program>,
    pub config: ImageConfig,
    pub placements: Vec<FunctionPlacement>,
    pub data: DataLayout,
    pub inline_plan: InlinePlan,
    /// First address past the last placed code byte.
    pub code_end: u64,
    /// Built on the first replay rather than at assembly, so an image
    /// that is laid out but never replayed costs no plan.
    pub(crate) replay_plan: OnceLock<ReplayPlan>,
}

impl Image {
    /// Base address of kernel code.
    pub const CODE_BASE: u64 = 0x0010_0000;

    pub fn placement(&self, f: FuncId) -> &FunctionPlacement {
        &self.placements[f.0 as usize]
    }

    pub fn block_addr(&self, f: FuncId, b: BlockIdx) -> u64 {
        self.placement(f).block_addr[b.idx()]
    }

    /// The call-target address of a function (its entry block).
    pub fn entry_addr(&self, f: FuncId) -> u64 {
        let func = self.program.function(f);
        self.block_addr(f, func.entry)
    }

    /// Is `f` path-inlined in this image?
    pub fn is_inlined(&self, f: FuncId) -> bool {
        self.placement(f).inlined
    }

    /// Total laid size of the hot mainline of `funcs`, in instructions —
    /// the paper's Table 9 "Size" metric.
    pub fn mainline_size_insts(&self, funcs: &[FuncId]) -> u64 {
        funcs
            .iter()
            .map(|f| {
                let func = self.program.function(*f);
                let p = self.placement(*f);
                (0..func.blocks.len())
                    .filter(|i| !func.blocks[*i].cold)
                    .map(|i| p.block_len[i] as u64)
                    .sum::<u64>()
            })
            .sum()
    }
}

/// Address allocation abstraction: layout strategies provide cursors.
pub trait AddrCursor {
    /// Allocate `bytes` and return the start address.
    fn alloc(&mut self, bytes: u64) -> u64;
    /// Next address that would be returned (for distance estimation).
    fn peek(&self) -> u64;
}

/// Plain bump allocator.
#[derive(Debug, Clone)]
pub struct SeqCursor {
    pub next: u64,
}

impl SeqCursor {
    pub fn new(base: u64) -> Self {
        SeqCursor { next: base }
    }
}

impl AddrCursor for SeqCursor {
    fn alloc(&mut self, bytes: u64) -> u64 {
        let a = self.next;
        self.next += bytes;
        a
    }

    fn peek(&self) -> u64 {
        self.next
    }
}

/// A cursor constrained to a window of i-cache set indices — the
/// bipartite layout's partitions.  Addresses advance sequentially but
/// skip over the forbidden index range, leaving those cache sets to the
/// other partition.
#[derive(Debug, Clone)]
pub struct WindowCursor {
    next: u64,
    /// Cache size (the aliasing modulus).
    cache_bytes: u64,
    /// Allowed index window: `[lo, hi)` in bytes within the cache.
    lo: u64,
    hi: u64,
}

impl WindowCursor {
    pub fn new(base: u64, cache_bytes: u64, lo: u64, hi: u64) -> Self {
        assert!(lo < hi && hi <= cache_bytes);
        let mut c = WindowCursor { next: base, cache_bytes, lo, hi };
        c.skip_to_window();
        c
    }

    fn in_window(&self, addr: u64) -> bool {
        let idx = addr % self.cache_bytes;
        idx >= self.lo && idx < self.hi
    }

    fn skip_to_window(&mut self) {
        if !self.in_window(self.next) {
            let idx = self.next % self.cache_bytes;
            let base = self.next - idx;
            self.next = if idx < self.lo {
                base + self.lo
            } else {
                base + self.cache_bytes + self.lo
            };
        }
    }
}

impl AddrCursor for WindowCursor {
    fn alloc(&mut self, bytes: u64) -> u64 {
        self.skip_to_window();
        // If the block would spill past the window, start it at the next
        // window instance (a placement gap).
        let end_idx = (self.next % self.cache_bytes) + bytes;
        if end_idx > self.hi && bytes <= self.hi - self.lo {
            let idx = self.next % self.cache_bytes;
            self.next += self.cache_bytes - idx + self.lo;
        }
        let a = self.next;
        self.next += bytes;
        a
    }

    fn peek(&self) -> u64 {
        self.next
    }
}

/// Explicit per-function placement (micro-positioning, BAD): the strategy
/// dictates each function's start address.
#[derive(Debug, Clone)]
pub struct PinnedCursor {
    pub next: u64,
}

impl AddrCursor for PinnedCursor {
    fn alloc(&mut self, bytes: u64) -> u64 {
        let a = self.next;
        self.next += bytes;
        a
    }

    fn peek(&self) -> u64 {
        self.next
    }
}

/// Where a function's cold blocks go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdPolicy {
    /// No outlining: cold blocks stay inline in source order.
    Inline,
    /// Outlined to the end of the same function.
    EndOfFunction,
    /// Outlined to a shared far cold region.
    FarRegion,
}

/// Builds placements function by function.
pub struct ImageAssembler {
    program: Arc<Program>,
    config: ImageConfig,
    placements: Vec<Option<FunctionPlacement>>,
    cold_cursor: SeqCursor,
    inline_plan: InlinePlan,
    max_addr: u64,
}

impl ImageAssembler {
    /// Cold-region base: far from hot code, still cached normally.
    pub const COLD_BASE: u64 = 0x0040_0000;

    pub fn new(program: Arc<Program>, config: ImageConfig) -> Self {
        let n = program.functions().len();
        ImageAssembler {
            program,
            config,
            placements: vec![None; n],
            cold_cursor: SeqCursor::new(Self::COLD_BASE),
            inline_plan: InlinePlan::default(),
            max_addr: Image::CODE_BASE,
        }
    }

    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    pub fn config(&self) -> &ImageConfig {
        &self.config
    }

    fn note_addr(&mut self, end: u64) {
        self.max_addr = self.max_addr.max(end);
    }

    /// Place one function.  `cold` selects where its cold blocks go.
    pub fn place_function(
        &mut self,
        f: FuncId,
        cursor: &mut dyn AddrCursor,
        cold: ColdPolicy,
    ) {
        // A handle, not a deep copy: `func` borrows the program while
        // `self` stays free for the cursor bookkeeping below.
        let program = Arc::clone(&self.program);
        let func = program.function(f);
        let outline = !matches!(cold, ColdPolicy::Inline);
        let ool = |b: BlockIdx| outline && func.block(b).cold;

        let nblocks = func.blocks.len();
        let mut block_addr = vec![0u64; nblocks];
        let mut block_len = vec![0u32; nblocks];
        let mut has_slot = vec![false; nblocks];

        let order: Vec<BlockIdx> = match cold {
            ColdPolicy::Inline => (0..nblocks).map(|i| BlockIdx(i as u32)).collect(),
            _ => {
                let (hot, cold_blocks) = split_hot_cold(func);
                match cold {
                    ColdPolicy::EndOfFunction => {
                        hot.into_iter().chain(cold_blocks).collect()
                    }
                    _ => hot, // FarRegion: cold handled below
                }
            }
        };

        for b in order {
            let slot = needs_term_slot(func, b, &ool);
            let len = func.block(b).body.len() + slot as u32;
            let addr = cursor.alloc(len as u64 * 4);
            block_addr[b.idx()] = addr;
            block_len[b.idx()] = len;
            has_slot[b.idx()] = slot;
            self.note_addr(addr + len as u64 * 4);
        }

        if matches!(cold, ColdPolicy::FarRegion) {
            let (_, cold_blocks) = split_hot_cold(func);
            for b in cold_blocks {
                let slot = needs_term_slot(func, b, &ool);
                let len = func.block(b).body.len() + slot as u32;
                let addr = self.cold_cursor.alloc(len as u64 * 4);
                block_addr[b.idx()] = addr;
                block_len[b.idx()] = len;
                has_slot[b.idx()] = slot;
                self.note_addr(addr + len as u64 * 4);
            }
        }

        self.placements[f.0 as usize] = Some(FunctionPlacement {
            block_addr,
            block_len,
            has_slot,
            inlined: false,
            group: None,
        });
    }

    /// Place a merged path-inlined group: `order` blocks contiguously,
    /// entries/exits of member functions pinned to the first/last
    /// mainline address (they are never executed), cold blocks of member
    /// functions to the cold region.
    pub fn place_merged(
        &mut self,
        group: &crate::transform::inline::MergedGroup,
        cursor: &mut dyn AddrCursor,
    ) {
        use std::collections::HashSet;
        let funcs: HashSet<FuncId> = group.funcs.iter().copied().collect();

        // Initialize placements for all member functions.
        let mut work: HashMap<FuncId, FunctionPlacement> = HashMap::new();
        for &f in &funcs {
            let func = self.program.function(f);
            let n = func.blocks.len();
            work.insert(
                f,
                FunctionPlacement {
                    block_addr: vec![0; n],
                    block_len: vec![0; n],
                    has_slot: vec![false; n],
                    inlined: true,
                    group: Some(self.inline_plan.groups.len()),
                },
            );
        }

        // Mainline blocks in canonical order.  Inside a merged region,
        // outlining is always in effect (cold is far) and call sites to
        // fellow members lose their call instruction slot.
        let program = Arc::clone(&self.program);
        for &(f, b) in &group.order {
            let func = program.function(f);
            let ool = |bb: BlockIdx| func.block(bb).cold;
            let mut slot = needs_term_slot(func, b, &ool);
            let mut body_len = func.block(b).body.len();
            if let crate::func::BlockRole::CallSite = func.block(b).role {
                // Direct call to a fellow member: the call instruction
                // and the address load are gone.
                if let Some(Some(c)) = func.segments.iter().find_map(|s| match s.kind {
                    crate::func::SegKind::Call { site, callee } if site == b => Some(callee),
                    _ => None,
                }) {
                    if funcs.contains(&c) {
                        slot = false;
                        body_len = body_len.saturating_sub(1); // GOT load gone
                    }
                }
            }
            let len = body_len + slot as u32;
            let addr = cursor.alloc(len as u64 * 4);
            let p = work.get_mut(&f).unwrap();
            p.block_addr[b.idx()] = addr;
            p.block_len[b.idx()] = len;
            p.has_slot[b.idx()] = slot;
            self.note_addr(addr + len as u64 * 4);
        }

        // Cold blocks and entry/exit blocks: cold region (entries/exits
        // are elided at replay but keep a defined address).  Members are
        // visited in id order so the cold-cursor allocations — and thus
        // the image — never depend on HashSet iteration order.
        let mut members: Vec<FuncId> = funcs.iter().copied().collect();
        members.sort_unstable();
        for f in members {
            let func = program.function(f);
            let ool = |bb: BlockIdx| func.block(bb).cold;
            for (i, blk) in func.blocks.iter().enumerate() {
                let b = BlockIdx(i as u32);
                let placed = work[&f].block_len[i] != 0;
                if placed {
                    continue;
                }
                let slot = needs_term_slot(func, b, &ool);
                let len = blk.body.len() + slot as u32;
                let addr = self.cold_cursor.alloc(len as u64 * 4);
                let p = work.get_mut(&f).unwrap();
                p.block_addr[b.idx()] = addr;
                p.block_len[b.idx()] = len;
                p.has_slot[b.idx()] = slot;
                self.note_addr(addr + len as u64 * 4);
            }
        }

        for (f, p) in work {
            self.placements[f.0 as usize] = Some(p);
        }
        self.inline_plan.groups.push(group.clone());
    }

    /// Finish: any unplaced function is appended sequentially after the
    /// highest address used (they exist but are off-path).
    pub fn finish(mut self, data: DataLayout) -> Image {
        let mut tail = SeqCursor::new((self.max_addr + 63) & !63);
        let unplaced: Vec<FuncId> = self
            .placements
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| FuncId(i as u32))
            .collect();
        let cold = if self.config.outline {
            ColdPolicy::EndOfFunction
        } else {
            ColdPolicy::Inline
        };
        for f in unplaced {
            self.place_function(f, &mut tail, cold);
        }
        let code_end = self.max_addr.max(tail.peek()).max(self.cold_cursor.peek());
        Image {
            program: self.program,
            config: self.config,
            placements: self.placements.into_iter().map(Option::unwrap).collect(),
            data,
            inline_plan: self.inline_plan,
            code_end,
            replay_plan: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Body;
    use crate::func::{FrameSpec, FuncKind, Predict};
    use crate::program::ProgramBuilder;

    fn small_program() -> (Arc<Program>, FuncId, FuncId) {
        let mut pb = ProgramBuilder::new();
        let (fa, _) = pb.function("a", FuncKind::Path, FrameSpec::standard(), |fb| {
            fb.straight("w", Body::ops(20));
            fb.cond("err", Body::ops(2), Body::ops(40), Predict::False);
        });
        let (fb_, _) = pb.function("b", FuncKind::Library, FrameSpec::leaf(), |fb| {
            fb.straight("w", Body::ops(10));
        });
        (pb.build(), fa, fb_)
    }

    #[test]
    fn sequential_placement_is_contiguous_without_outline() {
        let (p, fa, _) = small_program();
        let mut asm = ImageAssembler::new(p.clone(), ImageConfig::plain("t"));
        let mut cur = SeqCursor::new(Image::CODE_BASE);
        asm.place_function(fa, &mut cur, ColdPolicy::Inline);
        let img = asm.finish(DataLayout::for_program(&p));
        let pl = img.placement(fa);
        // Source-order blocks are contiguous.
        for i in 0..pl.block_addr.len() - 1 {
            assert_eq!(
                pl.block_addr[i] + pl.block_len[i] as u64 * 4,
                pl.block_addr[i + 1],
                "block {i} not adjacent"
            );
        }
    }

    #[test]
    fn outlining_moves_cold_after_hot() {
        let (p, fa, _) = small_program();
        let mut asm = ImageAssembler::new(
            p.clone(),
            ImageConfig::plain("t").with_outline(true),
        );
        let mut cur = SeqCursor::new(Image::CODE_BASE);
        asm.place_function(fa, &mut cur, ColdPolicy::EndOfFunction);
        let img = asm.finish(DataLayout::for_program(&p));
        let func = img.program.function(fa);
        let pl = img.placement(fa);
        let cold_addr: Vec<u64> = func
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.cold)
            .map(|(i, _)| pl.block_addr[i])
            .collect();
        let max_hot = func
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.cold)
            .map(|(i, _)| pl.block_addr[i])
            .max()
            .unwrap();
        for c in cold_addr {
            assert!(c > max_hot, "cold block before hot end");
        }
    }

    #[test]
    fn far_region_sends_cold_away() {
        let (p, fa, _) = small_program();
        let mut asm = ImageAssembler::new(
            p.clone(),
            ImageConfig::plain("t").with_outline(true),
        );
        let mut cur = SeqCursor::new(Image::CODE_BASE);
        asm.place_function(fa, &mut cur, ColdPolicy::FarRegion);
        let img = asm.finish(DataLayout::for_program(&p));
        let func = img.program.function(fa);
        let pl = img.placement(fa);
        for (i, b) in func.blocks.iter().enumerate() {
            if b.cold {
                assert!(pl.block_addr[i] >= ImageAssembler::COLD_BASE);
            } else {
                assert!(pl.block_addr[i] < ImageAssembler::COLD_BASE);
            }
        }
    }

    #[test]
    fn unplaced_functions_get_addresses_at_finish() {
        let (p, fa, fb_) = small_program();
        let mut asm = ImageAssembler::new(p.clone(), ImageConfig::plain("t"));
        let mut cur = SeqCursor::new(Image::CODE_BASE);
        asm.place_function(fa, &mut cur, ColdPolicy::Inline);
        // fb_ not placed explicitly.
        let img = asm.finish(DataLayout::for_program(&p));
        assert!(img.entry_addr(fb_) >= Image::CODE_BASE);
        assert!(img.code_end > img.entry_addr(fb_));
    }

    #[test]
    fn window_cursor_stays_in_window() {
        let mut c = WindowCursor::new(0x100000, 8192, 6144, 8192);
        for _ in 0..100 {
            let a = c.alloc(256);
            let idx = a % 8192;
            assert!(
                (6144..8192).contains(&idx),
                "allocation at index {idx} outside window"
            );
        }
    }

    #[test]
    fn window_cursor_wraps_to_next_cache_frame() {
        let mut c = WindowCursor::new(0, 8192, 0, 1024);
        // Fill the 1 KB window; the next alloc must land one cache frame up.
        let first = c.alloc(1024);
        assert_eq!(first % 8192, 0);
        let second = c.alloc(512);
        assert_eq!(second % 8192, 0);
        assert_eq!(second, first + 8192);
    }

    #[test]
    fn mainline_size_smaller_with_outline() {
        let (p, fa, _) = small_program();

        let mk = |outline: bool, policy: ColdPolicy| {
            let mut asm = ImageAssembler::new(
                p.clone(),
                ImageConfig::plain("t").with_outline(outline),
            );
            let mut cur = SeqCursor::new(Image::CODE_BASE);
            asm.place_function(fa, &mut cur, policy);
            asm.finish(DataLayout::for_program(&p))
        };
        let plain = mk(false, ColdPolicy::Inline);
        let outlined = mk(true, ColdPolicy::EndOfFunction);
        // Mainline metric counts hot blocks only; identical hot-block
        // lengths modulo slot differences, so compare full vs hot sizes.
        let full: u64 = {
            let pl = plain.placement(fa);
            pl.block_len.iter().map(|l| *l as u64).sum()
        };
        let hot = outlined.mainline_size_insts(&[fa]);
        assert!(hot < full, "hot={hot} full={full}");
    }
}
