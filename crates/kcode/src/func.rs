//! Functions, basic blocks and segments.
//!
//! A *segment* is the unit protocol code reports at run time ("I executed
//! the header-prediction test and it hit").  Each segment compiles to one
//! or more *basic blocks*; blocks are what layout strategies place in
//! memory and what the replayer turns into instructions.

use std::fmt::{self, Write as _};

use crate::body::Body;
use crate::ids::{BlockIdx, FuncId, SegId};

/// Static branch prediction annotation on a conditional segment —
/// the paper's compiler extension (`PREDICT_TRUE` / `PREDICT_FALSE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predict {
    /// No annotation: the compiler lays blocks out in source order and
    /// outlining leaves them alone.
    None,
    /// The condition is expected TRUE: the then-side is hot, the
    /// else-side (if any) is cold.
    True,
    /// The condition is expected FALSE (`PREDICT_FALSE`): the then-side
    /// is cold — the classic "error handling" annotation.
    False,
}

/// Function classification for the bipartite cloning layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncKind {
    /// Executed once per path invocation (protocol input/output
    /// functions).
    Path,
    /// Called repeatedly per path invocation (checksum, buffer
    /// management, map lookups...).
    Library,
}

/// The role of a block, determining how the replayer treats its
/// terminator and whether outlining may move it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockRole {
    /// Function prologue (entry).  Cloning specialization may skip its
    /// first instructions for near calls.
    Entry,
    /// Plain straight-line code.
    Straight,
    /// Ends with a conditional branch (one terminator slot always
    /// emitted).
    CondTest,
    /// The then-side of a conditional.
    CondThen,
    /// The else-side of a conditional.
    CondElse,
    /// A loop body; iterations branch back to the block start.
    LoopBody,
    /// A call site: body (argument setup, callee-address load) followed
    /// by the call instruction.
    CallSite,
    /// Function epilogue: restores followed by the return instruction.
    Exit,
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Byte range of this block's name in its function's name buffer
    /// (read it with [`Function::block_name`]).
    name: (u32, u32),
    pub body: Body,
    pub role: BlockRole,
    /// True if this block is statically predicted cold (outlining
    /// candidate).  Set from [`Predict`] annotations or explicitly for
    /// initialization code.
    pub cold: bool,
    /// For loop bodies: bytes each `DataRef::Operand` reference advances
    /// per iteration (the loop walks its buffer).
    pub loop_stride: u32,
}

impl Block {
    /// Instructions this block occupies in the layout: its body plus a
    /// reserved terminator slot where one is architecturally required.
    ///
    /// * `CondTest` blocks always contain their conditional branch.
    /// * `CallSite` blocks always contain their call instruction.
    /// * `Exit` blocks always contain their return instruction.
    /// * Other roles reserve one slot for a possible unconditional jump;
    ///   when control falls through, the slot is dead padding — exactly
    ///   the i-cache gap the paper describes (compilers emit the jump
    ///   unconditionally when the successor is not adjacent; after
    ///   layout we model the unused slot as fetched-but-not-executed).
    pub fn layout_len(&self) -> u32 {
        self.body.len() + 1
    }
}

/// What kind of segment, and which blocks implement it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegKind {
    /// Unconditional straight-line code: one block.
    Straight { block: BlockIdx },
    /// `if (c) { then } [else { else }]` — a test block plus one or two
    /// arm blocks.
    Cond {
        test: BlockIdx,
        then_blk: BlockIdx,
        else_blk: Option<BlockIdx>,
        predict: Predict,
    },
    /// A loop whose body executes a run-time-determined number of times.
    /// `entered_likely=false` marks loops (e.g. unrolled copy loops) that
    /// the latency-critical path never enters — outlining candidates.
    Loop { body: BlockIdx, entered_likely: bool },
    /// A call site.  `callee` is `None` for indirect calls (demux): the
    /// actual callee is whatever function the recorder enters next.
    Call { site: BlockIdx, callee: Option<FuncId> },
    /// Straight-line code interleaved with predicted-false error checks:
    /// the paper's characteristic shape ("up to 50% error
    /// checking/handling code").  Each hot chunk ends with a conditional
    /// branch guarding a small cold error block.  Reported at run time
    /// like a straight segment; the error arms never execute on the
    /// latency path but occupy layout space — the i-cache gaps outlining
    /// removes.
    Checked {
        tests: Vec<BlockIdx>,
        errs: Vec<BlockIdx>,
    },
}

/// A segment: the run-time reporting unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    pub id: SegId,
    pub kind: SegKind,
}

/// Prologue/epilogue shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpec {
    /// ALU instructions in the prologue (GP reload, SP adjust).
    pub prologue_alu: u16,
    /// Callee-saved registers stored in the prologue and reloaded in the
    /// epilogue.
    pub saves: u16,
    /// Stack frame size in bytes (for resolving `DataRef::Stack`).
    pub frame_bytes: u32,
    /// Prologue instructions a specialized (near, cloned) call may skip —
    /// the Alpha GP-reload idiom.
    pub skippable: u16,
}

impl FrameSpec {
    /// A standard non-leaf frame: GP reload + SP adjust, RA plus a few
    /// callee-saves.
    pub fn standard() -> Self {
        FrameSpec { prologue_alu: 3, saves: 3, frame_bytes: 64, skippable: 2 }
    }

    /// A leaf function: no saves, no frame.
    pub fn leaf() -> Self {
        FrameSpec { prologue_alu: 1, saves: 0, frame_bytes: 0, skippable: 1 }
    }

    /// A big frame for functions with many locals (TCP input...).
    pub fn heavy() -> Self {
        FrameSpec { prologue_alu: 4, saves: 6, frame_bytes: 160, skippable: 2 }
    }
}

/// Structural context of a block within its segment — drives the
/// terminator-slot rules (does this block statically need a jump?).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockCtx {
    /// Entry, exit, straight, test, loop, call — role alone decides.
    Plain,
    /// A then-arm whose conditional has an else-arm.
    ThenWithElse { else_blk: BlockIdx },
    /// A then-arm with no else.
    ThenNoElse,
    /// An else-arm.
    Else,
}

/// A function: blocks in source order plus the segment table.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub id: FuncId,
    pub name: String,
    pub kind: FuncKind,
    pub frame: FrameSpec,
    /// Blocks in *source order*: entry first, exit last.  Layout
    /// strategies may reorder (outlining) but indices stay stable.
    pub blocks: Vec<Block>,
    pub segments: Vec<Segment>,
    /// Entry block index (always 0) and exit block index.
    pub entry: BlockIdx,
    pub exit: BlockIdx,
    /// Per-block structural context, parallel to `blocks`.
    pub ctx: Vec<BlockCtx>,
    /// Every block's name, back to back: one buffer per function
    /// rather than one string per block.
    block_names: String,
}

impl Function {
    pub fn block(&self, idx: BlockIdx) -> &Block {
        &self.blocks[idx.idx()]
    }

    /// The name of block `idx`: `"<function>.<label>"`, where the label
    /// is the segment name the builder was given plus the block's part
    /// of it (`"f.check.test"` for the test block of `f`'s `check`
    /// condition, `"f.entry"` for its prologue).  Names are for
    /// symbolization and diagnostics; nothing in layout or replay reads
    /// them.
    pub fn block_name(&self, idx: BlockIdx) -> &str {
        let (start, end) = self.block(idx).name;
        &self.block_names[start as usize..end as usize]
    }

    pub fn block_ctx(&self, idx: BlockIdx) -> BlockCtx {
        self.ctx[idx.idx()]
    }

    pub fn segment(&self, id: SegId) -> Option<&Segment> {
        self.segments.iter().find(|s| s.id == id)
    }

    /// Total layout size in instructions (all blocks).
    pub fn size_insts(&self) -> u32 {
        self.blocks.iter().map(|b| b.layout_len()).sum()
    }

    /// Layout size of the hot (non-cold) blocks only.
    pub fn hot_size_insts(&self) -> u32 {
        self.blocks.iter().filter(|b| !b.cold).map(|b| b.layout_len()).sum()
    }

    /// Layout size of cold blocks.
    pub fn cold_size_insts(&self) -> u32 {
        self.size_insts() - self.hot_size_insts()
    }
}

/// Builds one function.  Obtained from
/// [`crate::program::ProgramBuilder::function`].
pub struct FunctionBuilder {
    pub(crate) id: FuncId,
    pub(crate) name: String,
    pub(crate) kind: FuncKind,
    pub(crate) frame: FrameSpec,
    pub(crate) blocks: Vec<Block>,
    pub(crate) segments: Vec<Segment>,
    pub(crate) next_seg: u32,
    /// The block names written so far, back to back.
    names: String,
}

/// Blocks and segments a builder makes room for up front: most
/// functions of the protocol stacks fit, so building one grows neither
/// vector.  The name buffer gets room for as many names of the function
/// name plus a short label.
const BLOCKS_RESERVED: usize = 16;
const SEGMENTS_RESERVED: usize = 8;
const LABEL_RESERVED: usize = 12;

impl FunctionBuilder {
    pub(crate) fn new(id: FuncId, name: &str, kind: FuncKind, frame: FrameSpec, seg_base: u32) -> Self {
        let mut fb = FunctionBuilder {
            id,
            name: name.to_string(),
            kind,
            frame,
            blocks: Vec::with_capacity(BLOCKS_RESERVED),
            segments: Vec::with_capacity(SEGMENTS_RESERVED),
            next_seg: seg_base,
            names: String::with_capacity(BLOCKS_RESERVED * (name.len() + LABEL_RESERVED)),
        };
        // Entry block: prologue.
        let mut body = Body::ops(frame.prologue_alu);
        body.stores.reserve_exact(frame.saves as usize);
        for i in 0..frame.saves {
            body.stores.push(crate::body::DataRef::Stack(i as u32 * 8));
        }
        fb.push_block(format_args!("entry"), body, BlockRole::Entry, false);
        fb
    }

    /// Append a block named `"<function>.<label>"`.
    fn push_block(&mut self, label: fmt::Arguments, body: Body, role: BlockRole, cold: bool) -> BlockIdx {
        let idx = BlockIdx(self.blocks.len() as u32);
        let start = self.names.len() as u32;
        write!(self.names, "{}.{label}", self.name).expect("writing to a String cannot fail");
        let name = (start, self.names.len() as u32);
        self.blocks.push(Block { name, body, role, cold, loop_stride: 0 });
        idx
    }

    fn alloc_seg(&mut self, kind: SegKind) -> SegId {
        let id = SegId(self.next_seg);
        self.next_seg += 1;
        self.segments.push(Segment { id, kind });
        id
    }

    /// A straight-line segment.
    pub fn straight(&mut self, name: &str, body: Body) -> SegId {
        let block = self.push_block(format_args!("{name}"), body, BlockRole::Straight, false);
        self.alloc_seg(SegKind::Straight { block })
    }

    /// A straight-line segment whose code is interleaved with
    /// `PREDICT_FALSE` error checks every ~14 instructions — the
    /// dominant shape of protocol code.  The hot body is split into
    /// chunks, each ending in a conditional branch to a small cold
    /// error-handling block.
    pub fn straight_checked(&mut self, name: &str, body: Body) -> SegId {
        let nchecks = (body.len() as usize / 28).max(1);
        let chunks = body.split(nchecks);
        let mut tests = Vec::with_capacity(nchecks);
        let mut errs = Vec::with_capacity(nchecks);
        for (i, chunk) in chunks.into_iter().enumerate() {
            let t = self.push_block(format_args!("{name}.hot{i}"), chunk, BlockRole::CondTest, false);
            let e = self.push_block(format_args!("{name}.err{i}"), Body::ops(8), BlockRole::CondThen, true);
            tests.push(t);
            errs.push(e);
        }
        self.alloc_seg(SegKind::Checked { tests, errs })
    }

    /// An `if` with no else.  `test` is the condition evaluation, `then`
    /// the guarded code.  With `Predict::False` the then-side is an
    /// outlining candidate.
    pub fn cond(&mut self, name: &str, test: Body, then: Body, predict: Predict) -> SegId {
        let test_blk = self.push_block(format_args!("{name}.test"), test, BlockRole::CondTest, false);
        let cold = matches!(predict, Predict::False);
        let then_blk = self.push_block(format_args!("{name}.then"), then, BlockRole::CondThen, cold);
        self.alloc_seg(SegKind::Cond { test: test_blk, then_blk, else_blk: None, predict })
    }

    /// An `if`/`else`.  With `Predict::True` the else-side is cold; with
    /// `Predict::False` the then-side is cold.
    pub fn cond_else(
        &mut self,
        name: &str,
        test: Body,
        then: Body,
        els: Body,
        predict: Predict,
    ) -> SegId {
        let test_blk = self.push_block(format_args!("{name}.test"), test, BlockRole::CondTest, false);
        let then_blk = self.push_block(
            format_args!("{name}.then"),
            then,
            BlockRole::CondThen,
            matches!(predict, Predict::False),
        );
        let else_blk = self.push_block(
            format_args!("{name}.else"),
            els,
            BlockRole::CondElse,
            matches!(predict, Predict::True),
        );
        self.alloc_seg(SegKind::Cond {
            test: test_blk,
            then_blk,
            else_blk: Some(else_blk),
            predict,
        })
    }

    /// A loop.  `entered_likely=false` marks the body cold (the unrolled
    /// data loop the latency path never enters).
    pub fn loop_seg(&mut self, name: &str, body: Body, entered_likely: bool) -> SegId {
        self.loop_seg_strided(name, body, entered_likely, 0)
    }

    /// A loop whose `Operand` references advance `stride` bytes per
    /// iteration (walking a buffer).
    pub fn loop_seg_strided(
        &mut self,
        name: &str,
        body: Body,
        entered_likely: bool,
        stride: u32,
    ) -> SegId {
        let blk = self.push_block(format_args!("{name}"), body, BlockRole::LoopBody, !entered_likely);
        self.blocks[blk.idx()].loop_stride = stride;
        self.alloc_seg(SegKind::Loop { body: blk, entered_likely })
    }

    /// A direct call site.  `setup` models argument marshalling; the
    /// callee-address load (Alpha: `ldq pv, ...(gp)`) and the call
    /// instruction are added on top.
    pub fn call(&mut self, name: &str, callee: FuncId, setup: Body) -> SegId {
        let mut body = setup;
        // Address load from the GOT — removed by call specialization.
        body.loads.push(crate::body::DataRef::Region(crate::program::GOT_REGION, 0));
        let site = self.push_block(format_args!("{name}.call"), body, BlockRole::CallSite, false);
        self.alloc_seg(SegKind::Call { site, callee: Some(callee) })
    }

    /// An indirect call site (demux through a function pointer): the
    /// callee is discovered at run time.
    pub fn call_indirect(&mut self, name: &str, setup: Body) -> SegId {
        let mut body = setup;
        body.loads.push(crate::body::DataRef::Region(crate::program::GOT_REGION, 8));
        let site = self.push_block(format_args!("{name}.icall"), body, BlockRole::CallSite, false);
        self.alloc_seg(SegKind::Call { site, callee: None })
    }

    /// Finish: appends the epilogue block and yields the function.
    pub(crate) fn finish(mut self) -> Function {
        let mut body = Body::ops(1); // SP restore
        body.loads.reserve_exact(self.frame.saves as usize);
        for i in 0..self.frame.saves {
            body.loads.push(crate::body::DataRef::Stack(i as u32 * 8));
        }
        let exit = self.push_block(format_args!("exit"), body, BlockRole::Exit, false);
        // Derive per-block structural context from the segment table.
        let mut ctx = vec![BlockCtx::Plain; self.blocks.len()];
        for seg in &self.segments {
            if let SegKind::Cond { then_blk, else_blk, .. } = &seg.kind {
                match else_blk {
                    Some(e) => {
                        ctx[then_blk.idx()] = BlockCtx::ThenWithElse { else_blk: *e };
                        ctx[e.idx()] = BlockCtx::Else;
                    }
                    None => ctx[then_blk.idx()] = BlockCtx::ThenNoElse,
                }
            }
        }
        Function {
            id: self.id,
            name: self.name,
            kind: self.kind,
            frame: self.frame,
            blocks: self.blocks,
            segments: self.segments,
            entry: BlockIdx(0),
            exit,
            ctx,
            block_names: self.names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_one() -> Function {
        let mut fb = FunctionBuilder::new(
            FuncId(0),
            "f",
            FuncKind::Path,
            FrameSpec::standard(),
            0,
        );
        fb.straight("a", Body::ops(10));
        fb.cond("check", Body::ops(2), Body::ops(30), Predict::False);
        fb.finish()
    }

    #[test]
    fn function_has_entry_and_exit() {
        let f = build_one();
        assert_eq!(f.entry, BlockIdx(0));
        assert_eq!(f.blocks[f.entry.idx()].role, BlockRole::Entry);
        assert_eq!(f.blocks[f.exit.idx()].role, BlockRole::Exit);
        assert_eq!(f.exit.idx(), f.blocks.len() - 1);
    }

    #[test]
    fn predict_false_marks_then_cold() {
        let f = build_one();
        let seg = &f.segments[1];
        match &seg.kind {
            SegKind::Cond { then_blk, .. } => {
                assert!(f.block(*then_blk).cold);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn hot_and_cold_sizes_partition_total() {
        let f = build_one();
        assert_eq!(f.hot_size_insts() + f.cold_size_insts(), f.size_insts());
        assert!(f.cold_size_insts() >= 30, "the 30-inst then block is cold");
    }

    #[test]
    fn cond_else_predict_true_marks_else_cold() {
        let mut fb = FunctionBuilder::new(
            FuncId(1),
            "g",
            FuncKind::Library,
            FrameSpec::leaf(),
            10,
        );
        fb.cond_else("sel", Body::ops(2), Body::ops(5), Body::ops(50), Predict::True);
        let f = fb.finish();
        match &f.segments[0].kind {
            SegKind::Cond { then_blk, else_blk, .. } => {
                assert!(!f.block(*then_blk).cold);
                assert!(f.block(else_blk.unwrap()).cold);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn seg_ids_are_sequential_from_base() {
        let mut fb = FunctionBuilder::new(
            FuncId(2),
            "h",
            FuncKind::Path,
            FrameSpec::leaf(),
            100,
        );
        let a = fb.straight("a", Body::ops(1));
        let b = fb.straight("b", Body::ops(1));
        assert_eq!(a, SegId(100));
        assert_eq!(b, SegId(101));
    }

    #[test]
    fn call_site_includes_address_load() {
        let mut fb = FunctionBuilder::new(
            FuncId(3),
            "caller",
            FuncKind::Path,
            FrameSpec::standard(),
            0,
        );
        let seg = fb.call("x", FuncId(9), Body::ops(2));
        let f = fb.finish();
        match &f.segment(seg).unwrap().kind {
            SegKind::Call { site, callee } => {
                assert_eq!(*callee, Some(FuncId(9)));
                assert_eq!(f.block(*site).body.loads.len(), 1);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn loop_not_entered_likely_is_cold() {
        let mut fb = FunctionBuilder::new(
            FuncId(4),
            "l",
            FuncKind::Library,
            FrameSpec::leaf(),
            0,
        );
        let seg = fb.loop_seg("copy8", Body::ops(16), false);
        let f = fb.finish();
        match &f.segment(seg).unwrap().kind {
            SegKind::Loop { body, .. } => assert!(f.block(*body).cold),
            _ => unreachable!(),
        }
    }
}
