//! Trace replay: event stream × laid-out image → dynamic instruction
//! trace.
//!
//! [`Image::replay`] walks a recorded [`EventStream`] and, using the
//! image's block addresses, emits one [`InstRecord`] per dynamically
//! executed instruction.  Control-flow instructions are derived from
//! *layout adjacency*:
//!
//! * a conditional test's branch is **not taken** when the dynamically
//!   following block starts right after the branch, **taken** otherwise
//!   (this is how outlining converts jump-over-error-code into
//!   fall-through);
//! * a block whose layout reserved a jump slot emits the jump only when
//!   its dynamic successor is non-adjacent (otherwise the slot is dead
//!   padding — fetched but never executed, i.e. an i-cache gap);
//! * a transition with no slot and a non-adjacent successor emits a
//!   "virtual" jump re-using the predecessor's last instruction address
//!   (early returns and skipped never-entered loops).
//!
//! Call specialization (cloning) and path-inlining are applied here too:
//! near direct calls drop the callee-address load and skip the callee's
//! GP-reload prologue instructions; calls between two path-inlined
//! functions vanish entirely, along with the callee's prologue and
//! epilogue.

use std::fmt;

use alpha_machine::{BlockShape, InstClass, InstRecord, ShapeId, ShapeTable};

use crate::bitset::PcBitmap;
use crate::body::{DataRef, SlotClass};
use crate::datalayout::DataLayout;
use crate::events::{Ev, EventStream};
use crate::func::{BlockRole, SegKind};
use crate::ids::{BlockIdx, FuncId, SegId};
use crate::image::Image;
use crate::program::GOT_REGION;

/// Receives each replayed instruction as it is produced.
///
/// The streaming mode of [`Image::replay_into`] hands every instruction
/// to a sink instead of materializing a trace vector, so a simulator can
/// consume it while it is still in registers.  Block bodies arrive
/// whole through [`Self::emit_block`]: the body's shape, precomputed
/// once per image, plus the data addresses this replay resolved for its
/// loads and stores.  Control transfers arrive one by one through
/// [`Self::emit`].
pub trait InstSink {
    fn emit(&mut self, rec: InstRecord);

    /// Receive a block body: `shape`'s instructions, with `data` the
    /// addresses of its loads and stores in order.  The default emits
    /// each of [`BlockShape::records`] in turn — the one definition of
    /// what a block means — so a sink that overrides this must stay
    /// equivalent to that.
    #[inline]
    fn emit_block(&mut self, shape: BlockShape<'_>, data: &[u64]) {
        for rec in shape.records(data) {
            self.emit(rec);
        }
    }
}

/// Collecting sink: the classic materialized trace.
impl InstSink for Vec<InstRecord> {
    #[inline]
    fn emit(&mut self, rec: InstRecord) {
        self.push(rec);
    }
}

/// Discarding sink (replay for the side statistics only).
pub struct NullSink;

impl InstSink for NullSink {
    #[inline]
    fn emit(&mut self, _rec: InstRecord) {}

    #[inline]
    fn emit_block(&mut self, _shape: BlockShape<'_>, _data: &[u64]) {}
}

/// Fused replay→simulate: a machine consumes each instruction the
/// moment the replayer produces it, and each body as one block.
impl InstSink for alpha_machine::Machine {
    #[inline]
    fn emit(&mut self, rec: InstRecord) {
        self.step(&rec);
    }

    #[inline]
    fn emit_block(&mut self, shape: BlockShape<'_>, data: &[u64]) {
        self.step_block(shape, data);
    }
}

/// Why an event stream does not replay against an image.  `event` is
/// the index of the event that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// A segment event, `CallSite` or `Leave` with no activation open.
    NoActivation { event: usize },
    /// A segment the program does not define.
    UnknownSegment { event: usize, seg: SegId },
    /// A segment of `owner` replayed while `current` runs.
    OwnerMismatch { event: usize, seg: SegId, owner: FuncId, current: FuncId },
    /// A `kind` event on a segment of another kind.
    WrongSegmentKind { event: usize, seg: SegId, kind: &'static str },
    /// A `CallSite` while another call site waits for its `Enter`.
    CallPending { event: usize, seg: SegId },
    /// A call site whose static callee is not the function entered.
    CalleeMismatch { event: usize, seg: SegId, callee: FuncId, entered: FuncId },
    /// An `Enter` with no entry left in the stream's operand table.
    MissingOperands { event: usize },
    /// The stream ended with `open` activations still open.
    Unterminated { open: usize },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ReplayError::*;
        match *self {
            NoActivation { event } => write!(f, "event {event}: no activation is open"),
            UnknownSegment { event, seg } => write!(f, "event {event}: unknown segment {seg:?}"),
            OwnerMismatch { event, seg, owner, current } => write!(
                f,
                "event {event}: segment {seg:?} belongs to {owner:?} but the current function is {current:?}"
            ),
            WrongSegmentKind { event, seg, kind } => {
                write!(f, "event {event}: {kind} event on segment {seg:?} of another kind")
            }
            CallPending { event, seg } => {
                write!(f, "event {event}: CallSite {seg:?} while another call is pending")
            }
            CalleeMismatch { event, seg, callee, entered } => write!(
                f,
                "event {event}: call site {seg:?} statically targets {callee:?} but entered {entered:?}"
            ),
            MissingOperands { event } => write!(f, "event {event}: Enter without an operand entry"),
            Unterminated { open } => write!(f, "stream ended inside {open} activations"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Fetch-utilization statistics gathered during replay, trace or no
/// trace.  The address sets are compact bitmaps keyed off the image's
/// code extent (see [`PcBitmap`]).
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    /// Distinct i-cache blocks touched by instruction fetch.
    pub fetched_blocks: PcBitmap,
    /// Distinct instruction addresses executed.
    pub executed_pcs: PcBitmap,
    /// Dynamic instructions emitted.
    pub instructions: u64,
    /// Call instructions emitted.
    pub calls: u64,
    /// Taken control transfers emitted.
    pub taken: u64,
}

impl ReplayStats {
    fn for_image(image: &Image) -> Self {
        let base = Image::CODE_BASE;
        let end = image.code_end;
        ReplayStats {
            fetched_blocks: PcBitmap::for_blocks(base, end),
            executed_pcs: PcBitmap::for_pcs(base, end),
            instructions: 0,
            calls: 0,
            taken: 0,
        }
    }

    /// Record the fetch of the instruction at `pc`.
    #[inline]
    fn note_fetch(&mut self, pc: u64) {
        self.fetched_blocks.insert(pc & !31);
        self.executed_pcs.insert(pc);
    }

    /// Record the fetch of every instruction in `[start, end)`.
    fn note_fetches(&mut self, start: u64, end: u64) {
        self.fetched_blocks.insert_range(start, end);
        self.executed_pcs.insert_range(start, end);
    }

    /// Fraction of instruction slots in fetched i-cache blocks that were
    /// never executed — the paper's Table 9 "i-cache unused" metric.
    pub fn unused_fraction(&self, block_bytes: u64) -> f64 {
        let slots = self.fetched_blocks.len() as f64 * (block_bytes / 4) as f64;
        if slots == 0.0 {
            return 0.0;
        }
        1.0 - self.executed_pcs.len() as f64 / slots
    }

    /// Merge another replay's sets and counters in (Table 9 combines
    /// the out- and in-path of one roundtrip).
    pub fn merge(&mut self, other: &ReplayStats) {
        self.fetched_blocks.union_with(&other.fetched_blocks);
        self.executed_pcs.union_with(&other.executed_pcs);
        self.instructions += other.instructions;
        self.calls += other.calls;
        self.taken += other.taken;
    }
}

/// The replayed trace plus fetch-utilization statistics.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutput {
    /// The dynamic instruction trace.
    pub trace: Vec<InstRecord>,
    /// Side statistics (fetched blocks, executed PCs, call/taken counts).
    pub stats: ReplayStats,
}

impl ReplayOutput {
    /// See [`ReplayStats::unused_fraction`].
    pub fn unused_fraction(&self, block_bytes: u64) -> f64 {
        self.stats.unused_fraction(block_bytes)
    }

    pub fn len(&self) -> usize {
        self.trace.len()
    }

    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }
}

#[derive(Debug, Clone, Copy)]
enum Pend {
    /// Conditional branch at `slot`: class decided by adjacency.
    CondBranch { slot: u64 },
    /// Optional jump at `slot`: emitted only if non-adjacent.
    MaybeJump { slot: u64 },
}

#[derive(Debug)]
struct Activation<'a> {
    func: FuncId,
    /// Operand base addresses, borrowed from the `Enter` event.
    ops: &'a [u64],
    frame_base: u64,
    /// Where the caller resumes after this activation's callees return.
    resume_end: Option<u64>,
    /// Entered through an inlined splice (no prologue/epilogue).
    spliced: bool,
    /// Entered through a real call instruction (needs a return).
    via_call: bool,
}

/// Precomputed per-block emission plan: the block's shapes, its data
/// references, and the layout facts the terminator logic needs.
#[derive(Debug, Clone)]
struct BlockPlan {
    /// The block's address plus its body's *original* expanded length
    /// in bytes — the end address the terminator logic keys on (dropped
    /// slots do not move a block's successors).
    end: u64,
    loop_stride: u32,
    /// The body as laid out, with the image's inline-ALU shrink applied.
    shape: ShapeId,
    /// The one trimmed variant the image can emit of this block: an
    /// entry with its skippable prologue instructions dropped (a near
    /// call), or a call site with its callee-address load dropped (a
    /// near or spliced call).  `shape` when the image emits neither.
    variant: ShapeId,
    /// This block's data references in slot order:
    /// `ReplayPlan::refs[ref_start..ref_end]`.
    ref_start: u32,
    ref_end: u32,
    /// The references `variant` leaves out, as a range of indices into
    /// the block's references.
    variant_drop: (u16, u16),
}

/// The precomputed, image-derived half of replay, built once per
/// [`Image`] on its first replay and kept beside it for the image's
/// lifetime, so every later replay of the image starts for free.
///
/// The plan is flat: a few vectors for the whole program, however many
/// functions and blocks it has.
///
/// * `shapes` holds the [`BlockShape`] of every block and of every
///   block variant the image can emit (see [`BlockPlan::variant`]): its
///   pcs, pairing table and load/store/multiply positions;
/// * `refs` holds every block's data references back to back, in
///   function-then-block order;
/// * `blocks` holds one [`BlockPlan`] per block, in the same order, each
///   naming its shapes and its `refs` range;
/// * `func_first[f]` is the index in `blocks` of function `f`'s block
///   0, so block `b` of `f` is `blocks[func_first[f] + b]`.
///
/// The replay loop never allocates but for one buffer per replay that
/// holds a body's resolved data addresses: the expansion, the
/// inline-ALU drop and the pairing happen here, and activations borrow
/// their operands from the event stream.
#[derive(Debug, Clone)]
pub(crate) struct ReplayPlan {
    shapes: ShapeTable,
    refs: Vec<DataRef>,
    blocks: Vec<BlockPlan>,
    func_first: Vec<u32>,
    /// Most data references of any block (the resolve buffer's size).
    max_refs: usize,
}

impl ReplayPlan {
    /// Precompute the emission plan for `image`.
    fn new(image: &Image) -> Self {
        let functions = image.program.functions();
        let specialize = image.config.specialize_calls;
        // Does the image emit a trimmed variant of `block` of a function
        // with `skip` skippable prologue slots: an entry that a near call
        // enters past its prologue, or a call site whose near or spliced
        // call drops its callee-address load?
        let has_variant = |block: &crate::func::Block, skip: usize, inlined: bool| match block.role {
            BlockRole::Entry => skip > 0,
            BlockRole::CallSite => (specialize || inlined) && !block.body.loads.is_empty(),
            _ => false,
        };
        let (mut n_shapes, mut n_marks, mut n_refs) = (0, 0, 0);
        for (func, placement) in functions.iter().zip(&image.placements) {
            let skip = if specialize { func.frame.skippable as usize } else { 0 };
            for block in &func.blocks {
                let shapes = 1 + has_variant(block, skip, placement.inlined) as usize;
                let refs = block.body.loads.len() + block.body.stores.len();
                n_shapes += shapes;
                n_marks += shapes * (refs + block.body.mul as usize);
                n_refs += refs;
            }
        }
        let mut shapes = ShapeTable::with_capacity(n_shapes, n_marks);
        let mut refs = Vec::with_capacity(n_refs);
        let mut blocks = Vec::with_capacity(functions.iter().map(|f| f.blocks.len()).sum());
        let mut func_first = Vec::with_capacity(functions.len());
        let mut slots = Vec::new();
        let class = |s: &SlotClass| match s {
            SlotClass::Alu => InstClass::Alu,
            SlotClass::Mul => InstClass::Mul,
            SlotClass::Load(_) => InstClass::Load,
            SlotClass::Store(_) => InstClass::Store,
        };
        let is_data = |s: &SlotClass| matches!(s, SlotClass::Load(_) | SlotClass::Store(_));
        for (fi, func) in functions.iter().enumerate() {
            func_first.push(blocks.len() as u32);
            let placement = &image.placements[fi];
            // Cross-call optimization: shrink ALU work in inlined bodies.
            let shrink = if placement.inlined {
                image.config.inline_alu_shrink_permille
            } else {
                0
            };
            // A near call skips the callee's GP-reload prologue slots.
            let skip = if specialize { func.frame.skippable as usize } else { 0 };
            for (bi, block) in func.blocks.iter().enumerate() {
                slots.clear();
                block.body.expand_into(&mut slots);
                let drop_alu = (block.body.alu as u32 * shrink / 1000) as usize;
                if drop_alu > 0 {
                    // Drop the block's last `drop_alu` ALU slots, keeping
                    // the order of everything else.
                    let alu = slots.iter().filter(|s| matches!(s, SlotClass::Alu)).count();
                    let mut keep_alu = alu.saturating_sub(drop_alu);
                    slots.retain(|s| {
                        let drop = matches!(s, SlotClass::Alu) && keep_alu == 0;
                        keep_alu -= usize::from(matches!(s, SlotClass::Alu) && !drop);
                        !drop
                    });
                }
                let ref_start = refs.len() as u32;
                refs.extend(slots.iter().filter_map(|s| match *s {
                    SlotClass::Load(i) => Some(block.body.loads[i as usize]),
                    SlotClass::Store(i) => Some(block.body.stores[i as usize]),
                    _ => None,
                }));
                let addr = placement.block_addr[bi];
                let shape = shapes.push(addr, slots.iter().map(class));
                // The variant: `skip` leading slots dropped from an entry
                // block, or the last load (the callee-address load, after
                // the inline-ALU shrink: the drops target disjoint slot
                // classes and keep the order of what remains) from a call
                // site whose call can be near or spliced.
                let (variant, variant_drop) = if !has_variant(block, skip, placement.inlined) {
                    (shape, (0, 0))
                } else if block.role == BlockRole::Entry {
                    let dropped = skip.min(slots.len());
                    let dropped_refs = slots[..dropped].iter().filter(|s| is_data(s)).count() as u16;
                    let pc = addr + skip as u64 * 4;
                    (shapes.push(pc, slots[dropped..].iter().map(class)), (0, dropped_refs))
                } else {
                    let at = slots.iter().rposition(|s| matches!(s, SlotClass::Load(_))).expect("a load");
                    let r = slots[..at].iter().filter(|s| is_data(s)).count() as u16;
                    let kept = slots.iter().enumerate().filter(|&(k, _)| k != at);
                    (shapes.push(addr, kept.map(|(_, s)| class(s))), (r, r + 1))
                };
                blocks.push(BlockPlan {
                    end: addr + block.body.len() as u64 * 4,
                    loop_stride: block.loop_stride,
                    shape,
                    variant,
                    ref_start,
                    ref_end: refs.len() as u32,
                    variant_drop,
                });
            }
        }
        let max_refs = blocks.iter().map(|b| (b.ref_end - b.ref_start) as usize).max().unwrap_or(0);
        ReplayPlan { shapes, refs, blocks, func_first, max_refs }
    }

    #[inline]
    fn block(&self, f: FuncId, b: BlockIdx) -> &BlockPlan {
        &self.blocks[self.func_first[f.0 as usize] as usize + b.idx()]
    }

    #[inline]
    fn refs(&self, plan: &BlockPlan) -> &[DataRef] {
        &self.refs[plan.ref_start as usize..plan.ref_end as usize]
    }
}

/// Replay: each image builds its replay plan on its first replay and
/// reuses it for every later one.
impl Image {
    /// Replay one event stream into a materialized instruction trace.
    pub fn replay(&self, events: &EventStream) -> Result<ReplayOutput, ReplayError> {
        let mut trace = Vec::new();
        let stats = self.replay_into(events, &mut trace)?;
        Ok(ReplayOutput { trace, stats })
    }

    /// Streaming replay: hand each instruction to `sink` as it is
    /// produced, returning only the side statistics.  This is the fused
    /// replay→simulate path — no trace vector is ever allocated.
    pub fn replay_into<S: InstSink>(
        &self,
        events: &EventStream,
        sink: &mut S,
    ) -> Result<ReplayStats, ReplayError> {
        self.run_replay(events, sink, true)
    }

    /// [`Self::replay_into`] without the fetch-utilization side sets:
    /// returns only the dynamic instruction count.  Timing consumers
    /// that never read `fetched_blocks`/`executed_pcs` (the roundtrip
    /// timer, throughput loops, benchmarks) skip two bitmap inserts per
    /// instruction *and* the per-replay bitmap allocation, which for
    /// sparse layouts spans the whole multi-megabyte code extent.
    pub fn replay_into_lean<S: InstSink>(
        &self,
        events: &EventStream,
        sink: &mut S,
    ) -> Result<u64, ReplayError> {
        Ok(self.run_replay(events, sink, false)?.instructions)
    }

    fn run_replay<S: InstSink>(
        &self,
        events: &EventStream,
        sink: &mut S,
        track_sets: bool,
    ) -> Result<ReplayStats, ReplayError> {
        let stats = if track_sets {
            ReplayStats::for_image(self)
        } else {
            ReplayStats::default()
        };
        let mut st = ReplayState {
            image: self,
            plan: self.replay_plan.get_or_init(|| ReplayPlan::new(self)),
            sink,
            stats,
            track_sets,
            stack: Vec::new(),
            sp: self.data.stack_top(),
            prev_end: None,
            pending: None,
            pending_call: None,
            data: Vec::new(),
            event: 0,
        };
        st.data.reserve_exact(st.plan.max_refs);
        let mut operands = events.operands();
        for (i, &ev) in events.events.iter().enumerate() {
            st.event = i;
            st.step(ev, &mut operands)?;
        }
        if !st.stack.is_empty() {
            return Err(ReplayError::Unterminated { open: st.stack.len() });
        }
        Ok(st.stats)
    }
}

struct ReplayState<'a, S: InstSink> {
    image: &'a Image,
    plan: &'a ReplayPlan,
    sink: &'a mut S,
    stats: ReplayStats,
    /// Maintain the fetched-block/executed-pc bitmaps (false in the lean
    /// timing mode).
    track_sets: bool,
    stack: Vec<Activation<'a>>,
    sp: u64,
    prev_end: Option<u64>,
    pending: Option<Pend>,
    pending_call: Option<SegId>,
    /// A body's resolved data addresses, for [`InstSink::emit_block`].
    data: Vec<u64>,
    /// Index of the event being replayed (for errors).
    event: usize,
}

impl<'a, S: InstSink> ReplayState<'a, S> {
    #[inline]
    fn emit(&mut self, rec: InstRecord) {
        if rec.class.is_taken_control() {
            self.stats.taken += 1;
        }
        self.stats.instructions += 1;
        if self.track_sets {
            self.stats.note_fetch(rec.pc);
        }
        self.sink.emit(rec);
    }

    fn cur(&mut self) -> Result<&mut Activation<'a>, ReplayError> {
        let event = self.event;
        self.stack.last_mut().ok_or(ReplayError::NoActivation { event })
    }

    /// Resolve a data reference against the current activation's operand
    /// slots and frame base.
    fn resolve(&self, ops: &[u64], frame_base: u64, blk_salt: u64, r: DataRef) -> u64 {
        use DataRef::*;
        match r {
            Region(region, off) if region == GOT_REGION => {
                // Spread GOT entries: each call site loads its own slot.
                let base = self.image.data.addr(GOT_REGION, 0);
                base + ((blk_salt * 131 + off as u64) * 8) % 4096
            }
            Region(region, off) => self.image.data.addr(region, off),
            Operand(slot, off) => {
                let base = ops
                    .get(slot as usize)
                    .copied()
                    .unwrap_or(DataLayout::DATA_BASE);
                base + off as u64
            }
            Stack(off) => frame_base + off as u64,
        }
    }

    /// Handle the control transition into a block starting at `addr`.
    fn transition_to(&mut self, addr: u64) {
        if let Some(p) = self.pending.take() {
            match p {
                Pend::CondBranch { slot } => {
                    let class = if addr == slot + 4 {
                        InstClass::BranchNotTaken
                    } else {
                        InstClass::BranchTaken
                    };
                    self.emit(InstRecord::new(slot, class));
                }
                Pend::MaybeJump { slot } => {
                    if addr != slot + 4 {
                        self.emit(InstRecord::new(slot, InstClass::BranchTaken));
                    }
                }
            }
        } else if let Some(pe) = self.prev_end {
            if addr != pe {
                // Virtual jump: re-use the last slot's address.
                self.emit(InstRecord::new(pe.saturating_sub(4), InstClass::BranchTaken));
            }
        }
        self.prev_end = None;
    }

    /// Emit a block's body.  `skip` drops leading instructions (prologue
    /// specialization), `drop_got` removes the final GOT load (call
    /// specialization / inlining).  Returns the end address of the body.
    fn emit_body(&mut self, f: FuncId, b: BlockIdx, skip: u32, drop_got: bool) -> Result<u64, ReplayError> {
        self.emit_body_iter(f, b, skip, drop_got, 0)
    }

    /// Like [`Self::emit_body`], with a loop-iteration offset applied to
    /// `Operand` references (`iter * loop_stride` bytes — the loop walks
    /// its buffer).  Only the body's data references are resolved here;
    /// everything else about it is in its precomputed shape.
    fn emit_body_iter(
        &mut self,
        f: FuncId,
        b: BlockIdx,
        skip: u32,
        drop_got: bool,
        iter: u32,
    ) -> Result<u64, ReplayError> {
        let plan: &'a ReplayPlan = self.plan;
        let block = plan.block(f, b);
        let (ops, frame_base) = {
            let act = self.cur()?;
            (act.ops, act.frame_base)
        };
        // A skip or a GOT drop is the block's one variant (the plan
        // built it for exactly the blocks the image trims).
        let (shape, (lo, hi)) = if skip > 0 || drop_got {
            (block.variant, block.variant_drop)
        } else {
            (block.shape, (0, 0))
        };
        let iter_off = iter as u64 * block.loop_stride as u64;
        // Each call site's GOT load reads its own slot.
        let blk_salt = (f.0 as u64) << 16 | b.idx() as u64;
        self.data.clear();
        for (k, &r) in (0..).zip(plan.refs(block)) {
            if (lo..hi).contains(&k) {
                continue;
            }
            let mut a = self.resolve(ops, frame_base, blk_salt, r);
            if matches!(r, DataRef::Operand(..)) {
                a += iter_off;
            }
            self.data.push(a);
        }
        let shape = plan.shapes.get(shape);
        debug_assert!(
            skip == 0 || shape.pc() == plan.shapes.get(block.shape).pc() + 4 * skip as u64,
            "the plan has no prologue-skipped variant of this entry"
        );
        // Body instructions are never taken control transfers, so only
        // the instruction count moves.
        self.stats.instructions += shape.len() as u64;
        if self.track_sets {
            self.stats.note_fetches(shape.pc(), shape.pc() + 4 * shape.len() as u64);
        }
        self.sink.emit_block(shape, &self.data);
        Ok(block.end)
    }

    /// Visit a plain (non-call, non-entry/exit) block.
    fn visit_block(&mut self, f: FuncId, b: BlockIdx) -> Result<(), ReplayError> {
        let placement = self.image.placement(f);
        let addr = placement.block_addr[b.idx()];
        self.transition_to(addr);
        let body_end = self.emit_body(f, b, 0, false)?;
        let func = self.image.program.function(f);
        match func.block(b).role {
            BlockRole::CondTest => {
                self.pending = Some(Pend::CondBranch { slot: body_end });
                self.prev_end = Some(body_end + 4);
            }
            _ => {
                if placement.has_slot[b.idx()] {
                    self.pending = Some(Pend::MaybeJump { slot: body_end });
                    self.prev_end = Some(body_end + 4);
                } else {
                    self.pending = None;
                    self.prev_end = Some(body_end);
                }
            }
        }
        Ok(())
    }

    fn seg_of(&self, seg: SegId) -> Result<(FuncId, &'a SegKind), ReplayError> {
        let event = self.event;
        let (f, segment) =
            self.image.program.segment(seg).ok_or(ReplayError::UnknownSegment { event, seg })?;
        Ok((f, &segment.kind))
    }

    fn check_owner(&mut self, owner: FuncId, seg: SegId) -> Result<(), ReplayError> {
        let current = self.cur()?.func;
        if current != owner {
            return Err(ReplayError::OwnerMismatch { event: self.event, seg, owner, current });
        }
        Ok(())
    }

    fn wrong_kind(&self, seg: SegId, kind: &'static str) -> ReplayError {
        ReplayError::WrongSegmentKind { event: self.event, seg, kind }
    }

    /// Replay one event; an `Enter` takes the next operand slice.
    fn step(
        &mut self,
        ev: Ev,
        operands: &mut impl Iterator<Item = &'a [u64]>,
    ) -> Result<(), ReplayError> {
        match ev {
            Ev::CallSite { seg } => {
                if self.pending_call.is_some() {
                    return Err(ReplayError::CallPending { event: self.event, seg });
                }
                let (f, kind) = self.seg_of(seg)?;
                self.check_owner(f, seg)?;
                if !matches!(kind, SegKind::Call { .. }) {
                    return Err(self.wrong_kind(seg, "CallSite"));
                }
                self.pending_call = Some(seg);
                Ok(())
            }
            Ev::Enter { func } => {
                let ops = operands.next().ok_or(ReplayError::MissingOperands { event: self.event })?;
                self.enter(func, ops)
            }
            Ev::Leave => self.leave(),
            Ev::Straight { seg } => {
                let (f, kind) = self.seg_of(seg)?;
                self.check_owner(f, seg)?;
                match kind {
                    SegKind::Straight { block } => self.visit_block(f, *block),
                    SegKind::Checked { tests, .. } => {
                        // Error-free execution: each hot chunk's check
                        // branch resolves by adjacency (jump over the
                        // inline error block, or fall through when it is
                        // outlined).
                        for &t in tests {
                            self.visit_block(f, t)?;
                        }
                        Ok(())
                    }
                    _ => Err(self.wrong_kind(seg, "Straight")),
                }
            }
            Ev::Cond { seg, taken } => {
                let (f, kind) = self.seg_of(seg)?;
                self.check_owner(f, seg)?;
                match kind {
                    SegKind::Cond { test, then_blk, else_blk, .. } => {
                        self.visit_block(f, *test)?;
                        if taken {
                            self.visit_block(f, *then_blk)?;
                        } else if let Some(e) = else_blk {
                            self.visit_block(f, *e)?;
                        }
                        Ok(())
                    }
                    _ => Err(self.wrong_kind(seg, "Cond")),
                }
            }
            Ev::Loop { seg, iters } => {
                let (f, kind) = self.seg_of(seg)?;
                self.check_owner(f, seg)?;
                match kind {
                    SegKind::Loop { body, .. } => self.run_loop(f, *body, iters),
                    _ => Err(self.wrong_kind(seg, "Loop")),
                }
            }
        }
    }

    fn run_loop(&mut self, f: FuncId, body: BlockIdx, iters: u32) -> Result<(), ReplayError> {
        if iters == 0 {
            // Never entered: the guard jumped over the body.  Leave
            // prev_end untouched; the next block's adjacency check emits
            // the jump if the body physically intervenes.
            return Ok(());
        }
        let placement = self.image.placement(f);
        let addr = placement.block_addr[body.idx()];
        for i in 0..iters {
            self.transition_to(addr);
            let body_end = self.emit_body_iter(f, body, 0, false, i)?;
            let slot = body_end;
            if i + 1 < iters {
                // Backward branch taken.
                self.emit(InstRecord::new(slot, InstClass::BranchTaken));
                self.prev_end = None; // next iteration re-enters at addr
                self.pending = None;
            } else {
                // Final iteration: branch falls through.
                self.emit(InstRecord::new(slot, InstClass::BranchNotTaken));
                self.pending = None;
                self.prev_end = Some(slot + 4);
            }
        }
        Ok(())
    }

    fn enter(&mut self, func: FuncId, ops: &'a [u64]) -> Result<(), ReplayError> {
        let callee_inlined = self.image.placement(func).inlined;
        let frame_bytes = self.image.program.function(func).frame.frame_bytes as u64;

        // Process the pending call site, if any.
        let mut skip = 0u32;
        let mut via_splice = false;
        let mut via_real_call = false;
        if let Some(seg) = self.pending_call.take() {
            let (cf, kind) = self.seg_of(seg)?;
            let (site, static_callee) = match *kind {
                SegKind::Call { site, callee } => (site, callee),
                _ => unreachable!("validated at CallSite"),
            };
            if let Some(callee) = static_callee.filter(|&c| c != func) {
                return Err(ReplayError::CalleeMismatch { event: self.event, seg, callee, entered: func });
            }
            let caller_inlined = self.image.placement(cf).inlined;
            let placement = self.image.placement(cf);
            let site_addr = placement.block_addr[site.idx()];
            let site_len = placement.block_len[site.idx()];
            let site_end = site_addr + site_len as u64 * 4;

            let caller_group = self.image.placement(cf).group;
            let callee_group = self.image.placement(func).group;
            let splice = caller_inlined
                && callee_inlined
                && static_callee.is_some()
                && caller_group == callee_group;
            let near = !splice
                && self.image.config.specialize_calls
                && static_callee.is_some()
                && !callee_inlined
                && {
                    let entry = self.image.entry_addr(func);
                    site_addr.abs_diff(entry) <= self.image.config.near_call_bytes
                };

            self.transition_to(site_addr);
            let body_end = self.emit_body(cf, site, 0, splice || near)?;

            if splice {
                // No call instruction: execution flows into the spliced
                // callee code.
                via_splice = true;
                self.prev_end = Some(body_end);
                self.pending = None;
                if let Some(act) = self.stack.last_mut() {
                    act.resume_end = Some(body_end);
                }
            } else {
                via_real_call = true;
                let slot = body_end;
                self.stats.calls += 1;
                self.emit(InstRecord::call(slot));
                self.prev_end = None;
                self.pending = None;
                if let Some(act) = self.stack.last_mut() {
                    act.resume_end = Some(site_end);
                }
                if near {
                    skip = self.image.program.function(func).frame.skippable as u32;
                }
            }
        } else {
            // Root entry (interrupt, episode start): control arrives from
            // nowhere we model.
            self.pending = None;
            self.prev_end = None;
        }

        self.sp -= frame_bytes;
        self.stack.push(Activation {
            func,
            ops,
            frame_base: self.sp,
            resume_end: None,
            spliced: callee_inlined,
            via_call: via_real_call && callee_inlined,
        });

        if callee_inlined {
            // Spliced functions have no prologue.  If entered through a
            // real call (not a splice), execution starts at the first
            // mainline block; adjacency flows from there.
            if !via_splice {
                self.prev_end = None;
            }
        } else {
            // Visit the entry block (prologue) with optional skip.
            let f = func;
            let func_ref = self.image.program.function(f);
            let entry = func_ref.entry;
            let placement = self.image.placement(f);
            let addr = placement.block_addr[entry.idx()];
            self.transition_to(addr);
            let body_end = self.emit_body(f, entry, skip, false)?;
            self.pending = None;
            self.prev_end = Some(body_end + placement.has_slot[entry.idx()] as u64 * 4);
        }
        Ok(())
    }

    fn leave(&mut self) -> Result<(), ReplayError> {
        let act = self.stack.pop().ok_or(ReplayError::NoActivation { event: self.event })?;
        let frame_bytes = self.image.program.function(act.func).frame.frame_bytes as u64;
        self.sp += frame_bytes;

        if act.spliced {
            if act.via_call {
                // A real call into a merged function: its tail contains a
                // return instruction, after the last block it ran — or,
                // when it left before running any, at its call target.
                let at = match self.prev_end {
                    Some(pe) => pe.saturating_sub(4),
                    None => self.image.entry_addr(act.func),
                };
                self.emit(InstRecord::ret(at));
                self.pending = None;
                self.prev_end = None;
            }
            // Otherwise: spliced — control flows onward inside the
            // merged code; adjacency resumes from wherever we are.
        } else {
            // Visit the exit block: restores + ret.
            let f = act.func;
            let func = self.image.program.function(f);
            let exit = func.exit;
            let placement = self.image.placement(f);
            let addr = placement.block_addr[exit.idx()];
            // Push a temporary view so emit_body can resolve stack refs.
            self.stack.push(act);
            self.transition_to(addr);
            let body_end = self.emit_body(f, exit, 0, false)?;
            self.stack.pop();
            self.emit(InstRecord::ret(body_end));
            self.pending = None;
            self.prev_end = None;
        }

        // Control returns to the caller's resume point.
        if let Some(parent) = self.stack.last_mut() {
            if let Some(re) = parent.resume_end.take() {
                self.prev_end = Some(re);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Body;
    use crate::events::Recorder;
    use crate::func::{FrameSpec, FuncKind, Predict};
    use crate::image::ImageConfig;
    use crate::layout::{build_image, InlineSpec, LayoutRequest, LayoutStrategy};
    use crate::program::{Program, ProgramBuilder};
    use std::sync::Arc;

    struct Fx {
        program: Arc<Program>,
        leaf: FuncId,
        main: FuncId,
        s_leaf: SegId,
        s_work: SegId,
        s_err: SegId,
        s_call: SegId,
        s_loop: SegId,
    }

    fn fx() -> Fx {
        let mut pb = ProgramBuilder::new();
        let (leaf, s_leaf) = pb.function("leaf", FuncKind::Library, FrameSpec::leaf(), |fb| {
            fb.straight("w", Body::ops(6))
        });
        let (main, (s_work, s_err, s_call, s_loop)) =
            pb.function("main", FuncKind::Path, FrameSpec::standard(), |fb| {
                let w = fb.straight("work", Body::ops(12));
                let e = fb.cond("err", Body::ops(2), Body::ops(24), Predict::False);
                let c = fb.call("leafcall", leaf, Body::ops(2));
                let l = fb.loop_seg("copy", Body::ops(8), false);
                (w, e, c, l)
            });
        Fx { program: pb.build(), leaf, main, s_leaf, s_work, s_err, s_call, s_loop }
    }

    fn record(fxx: &Fx, err: bool, loops: u32) -> EventStream {
        let mut r = Recorder::new();
        r.enter_with(fxx.main, &[0x9000]);
        r.seg(fxx.s_work);
        r.cond(fxx.s_err, err);
        r.call(fxx.s_call, fxx.leaf);
        r.seg(fxx.s_leaf);
        r.leave();
        r.loop_iters(fxx.s_loop, loops);
        r.leave();
        r.take()
    }

    fn img(fxx: &Fx, outline: bool) -> Image {
        let ev = record(fxx, false, 0);
        build_image(
            &fxx.program,
            LayoutRequest::new(
                LayoutStrategy::Linear,
                ImageConfig::plain(if outline { "out" } else { "std" })
                    .with_outline(outline),
            ),
            &ev.events,
        )
    }

    fn count(out: &ReplayOutput, class: InstClass) -> usize {
        out.trace.iter().filter(|r| r.class == class).count()
    }

    #[test]
    fn happy_path_replays_and_balances() {
        let fxx = fx();
        let image = img(&fxx, false);
        let out = image.replay(&record(&fxx, false, 0)).unwrap();
        assert!(!out.is_empty());
        assert_eq!(count(&out, InstClass::Call), 1);
        assert_eq!(count(&out, InstClass::Ret), 2, "leaf + main returns");
    }

    #[test]
    fn outlining_removes_taken_branch_on_good_path() {
        let fxx = fx();
        let plain = img(&fxx, false);
        let outlined = img(&fxx, true);
        let ev = record(&fxx, false, 0);
        let t_plain = plain.replay(&ev).unwrap();
        let t_out = outlined.replay(&ev).unwrap();
        assert!(
            t_out.stats.taken < t_plain.stats.taken,
            "outlined taken={} plain taken={}",
            t_out.stats.taken,
            t_plain.stats.taken
        );
    }

    #[test]
    fn error_path_costs_more_when_outlined() {
        let fxx = fx();
        let outlined = img(&fxx, true);
        let good = outlined.replay(&record(&fxx, false, 0)).unwrap();
        let bad = outlined.replay(&record(&fxx, true, 0)).unwrap();
        // Error path executes the cold block plus extra jumps.
        assert!(bad.len() > good.len() + 20);
        assert!(bad.stats.taken > good.stats.taken);
    }

    #[test]
    fn loop_iterations_emit_backward_branches() {
        let fxx = fx();
        let image = img(&fxx, false);
        let out0 = image.replay(&record(&fxx, false, 0)).unwrap();
        let out3 = image.replay(&record(&fxx, false, 3)).unwrap();
        // 3 iterations: 8 body instructions each + 3 loop branches
        // (2 taken + 1 not-taken), plus possibly one adjacency jump
        // difference around the skipped/entered loop body.
        let delta = out3.len() as i64 - out0.len() as i64;
        assert!((26..=28).contains(&delta), "delta={delta}");
        assert_eq!(
            out3.trace.iter().filter(|r| r.class == InstClass::BranchNotTaken).count()
                - out0.trace.iter().filter(|r| r.class == InstClass::BranchNotTaken).count(),
            1
        );
    }

    #[test]
    fn stack_refs_resolve_below_stack_top() {
        let fxx = fx();
        let image = img(&fxx, false);
        let out = image.replay(&record(&fxx, false, 0)).unwrap();
        let stack_top = image.data.stack_top();
        let stack_accesses: Vec<u64> = out
            .trace
            .iter()
            .filter_map(|r| r.mem.map(|(_, a)| a))
            .filter(|a| *a > stack_top - 0x10000 && *a < stack_top)
            .collect();
        assert!(!stack_accesses.is_empty(), "prologue saves must hit the stack");
    }

    #[test]
    fn operands_resolve_to_supplied_bases() {
        // Three nested activations with their own operand bases, and an
        // operand-less activation between the first two: every operand
        // reference resolves against its own activation's base, also
        // after a callee returns.
        let mut pb = ProgramBuilder::new();
        let uses_op = || Body::ops(2).load_operand(0, 16, 2, 8).store_operand(0, 64, 1, 8);
        let (inner, s_inner) =
            pb.function("inner", FuncKind::Path, FrameSpec::leaf(), |fb| fb.straight("w", uses_op()));
        let (plain, s_plain) = pb.function("plain", FuncKind::Path, FrameSpec::leaf(), |fb| {
            fb.straight("w", Body::ops(4))
        });
        let (mid, (s_mid, c_inner, s_mid_after)) =
            pb.function("mid", FuncKind::Path, FrameSpec::standard(), |fb| {
                let w = fb.straight("w", uses_op());
                let c = fb.call("inner", inner, Body::ops(1));
                (w, c, fb.straight("after", uses_op()))
            });
        let (outer, (s_outer, c_plain, c_mid)) =
            pb.function("outer", FuncKind::Path, FrameSpec::standard(), |fb| {
                let w = fb.straight("w", uses_op());
                let cp = fb.call("plain", plain, Body::ops(1));
                (w, cp, fb.call("mid", mid, Body::ops(1)))
            });
        let program = pb.build();
        let mut r = Recorder::new();
        r.enter_with(outer, &[0xA0_0000]);
        r.seg(s_outer);
        r.call(c_plain, plain);
        r.seg(s_plain);
        r.leave();
        r.call_with(c_mid, mid, &[0xB0_0000]);
        r.seg(s_mid);
        r.call_with(c_inner, inner, &[0xC0_0000]);
        r.seg(s_inner);
        r.leave();
        r.seg(s_mid_after);
        r.leave();
        r.leave();
        let ev = r.take();
        let image = build_image(
            &program,
            LayoutRequest::new(LayoutStrategy::LinkOrder, ImageConfig::plain("t")),
            &[],
        );
        let out = image.replay(&ev).unwrap();
        let sym = crate::symbolize::Symbolizer::new(&image);
        let mut refs: std::collections::BTreeMap<FuncId, Vec<u64>> = Default::default();
        for rec in &out.trace {
            if let Some((_, a)) = rec.mem.filter(|&(_, a)| (0xA0_0000..0xD0_0000).contains(&a)) {
                refs.entry(sym.resolve(rec.pc).unwrap().func).or_default().push(a);
            }
        }
        refs.values_mut().for_each(|v| v.sort_unstable());
        let own = |base: u64| vec![base + 0x10, base + 0x18, base + 0x40];
        let mid_twice = [0x10, 0x10, 0x18, 0x18, 0x40, 0x40].map(|o| 0xB0_0000 + o).to_vec();
        let want = [(inner, own(0xC0_0000)), (mid, mid_twice), (outer, own(0xA0_0000))];
        assert_eq!(refs, want.into_iter().collect());
    }

    #[test]
    fn inlined_group_elides_call_overhead() {
        let mut pb = ProgramBuilder::new();
        let (inner, s_inner) = pb.function("inner", FuncKind::Path, FrameSpec::standard(), |fb| {
            fb.straight("w", Body::ops(10))
        });
        let (outer, (s_o, s_c)) =
            pb.function("outer", FuncKind::Path, FrameSpec::standard(), |fb| {
                let o = fb.straight("w", Body::ops(10));
                let c = fb.call("c", inner, Body::ops(2));
                (o, c)
            });
        let program = pb.build();
        let rec = || {
            let mut r = Recorder::new();
            r.enter(outer);
            r.seg(s_o);
            r.call(s_c, inner);
            r.seg(s_inner);
            r.leave();
            r.leave();
            r.take()
        };
        let ev = rec();

        let plain = build_image(
            &program,
            LayoutRequest::new(
                LayoutStrategy::Linear,
                ImageConfig::plain("plain").with_outline(true),
            ),
            &ev.events,
        );
        let pinned = build_image(
            &program,
            LayoutRequest::new(
                LayoutStrategy::Linear,
                ImageConfig::plain("pin").with_outline(true),
            )
            .with_inline(vec![InlineSpec {
                name: "merged".into(),
                funcs: vec![outer, inner],
            }]),
            &ev.events,
        );
        let t_plain = plain.replay(&ev).unwrap();
        let t_pin = pinned.replay(&ev).unwrap();
        assert_eq!(count(&t_pin, InstClass::Call), 0, "no call instructions left");
        assert_eq!(count(&t_pin, InstClass::Ret), 0);
        assert!(
            t_pin.len() + 10 < t_plain.len(),
            "inlining must remove call overhead: {} vs {}",
            t_pin.len(),
            t_plain.len()
        );
        assert!(t_pin.stats.taken < t_plain.stats.taken);
    }

    #[test]
    fn call_specialization_skips_prologue_and_got_load() {
        let fxx = fx();
        let ev = record(&fxx, false, 0);
        let base = build_image(
            &fxx.program,
            LayoutRequest::new(
                LayoutStrategy::Linear,
                ImageConfig::plain("clo").with_outline(true),
            ),
            &ev.events,
        );
        let spec = build_image(
            &fxx.program,
            LayoutRequest::new(
                LayoutStrategy::Linear,
                ImageConfig::plain("clo+spec")
                    .with_outline(true)
                    .with_specialization(true),
            ),
            &ev.events,
        );
        let t_base = base.replay(&ev).unwrap();
        let t_spec = spec.replay(&ev).unwrap();
        // GOT load + skippable prologue instruction(s) removed.
        assert!(
            t_spec.len() + 2 <= t_base.len(),
            "specialized {} vs base {}",
            t_spec.len(),
            t_base.len()
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let fxx = fx();
        let image = img(&fxx, true);
        let ev = record(&fxx, false, 2);
        let a = image.replay(&ev).unwrap();
        let b = image.replay(&ev).unwrap();
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn reused_and_cloned_plans_match_a_fresh_build() {
        let fxx = fx();
        let image = img(&fxx, true);
        let ev = record(&fxx, false, 3);
        let first = image.replay(&ev).unwrap();
        // The second replay reads the plan the first one built; a clone
        // carries that plan with it.
        let again = image.replay(&ev).unwrap();
        let cloned = image.clone().replay(&ev).unwrap();
        let fresh = img(&fxx, true).replay(&ev).unwrap();
        for out in [&first, &again, &cloned] {
            assert_eq!(out.trace, fresh.trace);
            assert_eq!(out.stats.instructions, fresh.stats.instructions);
        }
    }

    #[test]
    fn unused_fraction_drops_with_outlining() {
        let fxx = fx();
        let ev = record(&fxx, false, 0);
        let plain = img(&fxx, false);
        let outlined = img(&fxx, true);
        let u_plain =
            plain.replay(&ev).unwrap().unused_fraction(32);
        let u_out =
            outlined.replay(&ev).unwrap().unused_fraction(32);
        assert!(
            u_out < u_plain,
            "outlined unused {u_out:.3} must be below plain {u_plain:.3}"
        );
    }

    #[test]
    fn mismatched_segment_owner_is_an_error() {
        let fxx = fx();
        let image = img(&fxx, false);
        let mut r = Recorder::new();
        r.enter(fxx.main);
        r.seg(fxx.s_leaf); // belongs to leaf, not main
        r.leave();
        let err = image.replay(&r.take()).unwrap_err();
        let want = ReplayError::OwnerMismatch { event: 1, seg: fxx.s_leaf, owner: fxx.leaf, current: fxx.main };
        assert_eq!(err, want);
        assert!(err.to_string().starts_with("event 1: segment"), "{err}");
    }

    #[test]
    fn unbalanced_stream_is_an_error() {
        let fxx = fx();
        let image = img(&fxx, false);
        let mut r = Recorder::new();
        r.enter(fxx.main);
        let err = image.replay(r.stream()).unwrap_err();
        assert_eq!(err, ReplayError::Unterminated { open: 1 });
        assert_eq!(err.to_string(), "stream ended inside 1 activations");
    }
}
