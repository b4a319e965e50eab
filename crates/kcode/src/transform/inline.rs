//! Path-inlining: merge the latency-critical path into single functions.
//!
//! The paper collapses the TCP/IP stack into two large functions (input
//! and output processing) and the RPC stack similarly.  We reproduce that
//! by laying the blocks of the path functions contiguously in *canonical
//! execution order* — the order a recorded reference trace first visits
//! them.  That is what real inlining produces: the code of the common
//! path becomes one straight run of instructions, call overhead
//! (argument-address loads, call/return instructions, prologues,
//! epilogues) disappears, and the only jumps left are genuinely
//! conditional ones.
//!
//! The inbound side of a real system additionally requires a packet
//! classifier to establish that an incoming packet will really follow the
//! assumed path; that lives in [`crate::classifier`].

use std::collections::HashSet;

use crate::events::Ev;
use crate::func::BlockRole;
use crate::ids::{BlockIdx, FuncId, SegId};
use crate::program::Program;

/// A group of functions merged into one path-inlined unit.
#[derive(Debug, Clone)]
pub struct MergedGroup {
    /// Display name ("tcpip_input", ...).
    pub name: String,
    /// Functions whose bodies are spliced into the merged unit.
    pub funcs: HashSet<FuncId>,
    /// Blocks in merged layout order: canonical-path blocks first (in
    /// first-visit order), then unvisited hot blocks; cold blocks are
    /// *not* listed — they go to the cold region like any outlined code.
    pub order: Vec<(FuncId, BlockIdx)>,
}

/// A full inlining plan: the merged groups of an image (typically one for
/// the input path and one for the output path).
#[derive(Debug, Clone, Default)]
pub struct InlinePlan {
    pub groups: Vec<MergedGroup>,
}

impl InlinePlan {
    /// Is `f` inlined into some group?
    pub fn is_inlined(&self, f: FuncId) -> bool {
        self.groups.iter().any(|g| g.funcs.contains(&f))
    }

    /// All inlined functions.
    pub fn inlined_funcs(&self) -> HashSet<FuncId> {
        let mut s = HashSet::new();
        for g in &self.groups {
            s.extend(g.funcs.iter().copied());
        }
        s
    }

    /// Validate that no function appears in two groups.
    pub fn check_disjoint(&self) -> Result<(), String> {
        let mut seen: HashSet<FuncId> = HashSet::new();
        for g in &self.groups {
            for f in &g.funcs {
                if !seen.insert(*f) {
                    return Err(format!(
                        "function {f:?} inlined into more than one group (group {})",
                        g.name
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Compute the merged block order for `path_funcs` from a recorded
/// reference flow.
///
/// Blocks are listed in first-visit order.  Entry and exit blocks of
/// inlined functions are skipped (inlining removes prologues and
/// epilogues); call-site blocks whose callee is also inlined stay (their
/// argument setup survives) — the replayer drops the callee-address load
/// and the call instruction when it sees the callee is inlined.  Cold
/// blocks and unvisited hot blocks are appended at the end so rare
/// dynamic excursions still have addresses; cold blocks keep their cold
/// flag so layout strategies can banish them.
pub fn merged_block_order(
    program: &Program,
    flow: &[Ev],
    path_funcs: &HashSet<FuncId>,
) -> Vec<(FuncId, BlockIdx)> {
    let mut order: Vec<(FuncId, BlockIdx)> = Vec::new();
    let mut seen: HashSet<(FuncId, BlockIdx)> = HashSet::new();
    let mut stack: Vec<FuncId> = Vec::new();

    let push = |order: &mut Vec<(FuncId, BlockIdx)>,
                    seen: &mut HashSet<(FuncId, BlockIdx)>,
                    f: FuncId,
                    b: BlockIdx| {
        if seen.insert((f, b)) {
            order.push((f, b));
        }
    };

    let seg_blocks = |f: FuncId, seg: SegId, taken: Option<bool>, iters: Option<u32>| {
        let func = program.function(f);
        let mut out: Vec<BlockIdx> = Vec::new();
        if let Some(s) = func.segment(seg) {
            use crate::func::SegKind::*;
            match &s.kind {
                Straight { block } => out.push(*block),
                Cond { test, then_blk, else_blk, .. } => {
                    out.push(*test);
                    match taken {
                        Some(true) => out.push(*then_blk),
                        Some(false) => {
                            if let Some(e) = else_blk {
                                out.push(*e);
                            }
                        }
                        None => {}
                    }
                }
                Loop { body, .. } => {
                    if iters.unwrap_or(0) > 0 {
                        out.push(*body);
                    }
                }
                Call { site, .. } => out.push(*site),
                Checked { tests, .. } => out.extend(tests.iter().copied()),
            }
        }
        out
    };

    for ev in flow {
        match ev {
            Ev::Enter { func } => {
                stack.push(*func);
                // Entry blocks of inlined functions are elided; of
                // non-path functions we don't lay out here at all.
            }
            Ev::Leave => {
                stack.pop();
            }
            Ev::CallSite { seg } | Ev::Straight { seg } => {
                if let Some(&f) = stack.last() {
                    if path_funcs.contains(&f) {
                        for b in seg_blocks(f, *seg, None, None) {
                            push(&mut order, &mut seen, f, b);
                        }
                    }
                }
            }
            Ev::Cond { seg, taken } => {
                if let Some(&f) = stack.last() {
                    if path_funcs.contains(&f) {
                        for b in seg_blocks(f, *seg, Some(*taken), None) {
                            push(&mut order, &mut seen, f, b);
                        }
                    }
                }
            }
            Ev::Loop { seg, iters } => {
                if let Some(&f) = stack.last() {
                    if path_funcs.contains(&f) {
                        for b in seg_blocks(f, *seg, None, Some(*iters)) {
                            push(&mut order, &mut seen, f, b);
                        }
                    }
                }
            }
        }
    }

    // Append unvisited hot blocks (off-canonical arms) so they keep
    // addresses near the path; skip entries/exits (elided by inlining)
    // and cold blocks (the layout sends those to the cold region).
    // Iterate in id order: HashSet order is nondeterministic and block
    // addresses must be reproducible across runs.
    let mut ordered: Vec<FuncId> = path_funcs.iter().copied().collect();
    ordered.sort();
    for f in ordered {
        let func = program.function(f);
        for (i, b) in func.blocks.iter().enumerate() {
            let idx = BlockIdx(i as u32);
            if matches!(b.role, BlockRole::Entry | BlockRole::Exit) {
                continue;
            }
            if b.cold {
                continue;
            }
            push(&mut order, &mut seen, f, idx);
        }
    }

    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Body;
    use crate::events::Recorder;
    use crate::func::{FrameSpec, FuncKind, Predict};
    use crate::program::ProgramBuilder;

    struct TwoFn {
        program: std::sync::Arc<Program>,
        f_outer: FuncId,
        f_inner: FuncId,
        s_work: SegId,
        s_call: SegId,
        s_check: SegId,
        s_inner_work: SegId,
    }

    fn build() -> TwoFn {
        let mut pb = ProgramBuilder::new();
        let (f_inner, s_inner_work) =
            pb.function("inner", FuncKind::Path, FrameSpec::leaf(), |fb| {
                fb.straight("work", Body::ops(5))
            });
        let (f_outer, (s_work, s_call, s_check)) =
            pb.function("outer", FuncKind::Path, FrameSpec::standard(), |fb| {
                let w = fb.straight("work", Body::ops(10));
                let c = fb.call("do_inner", f_inner, Body::ops(2));
                let k = fb.cond("err", Body::ops(2), Body::ops(20), Predict::False);
                (w, c, k)
            });
        TwoFn {
            program: pb.build(),
            f_outer,
            f_inner,
            s_work,
            s_call,
            s_check,
            s_inner_work,
        }
    }

    fn canonical(t: &TwoFn) -> Vec<Ev> {
        let mut r = Recorder::new();
        r.enter(t.f_outer);
        r.seg(t.s_work);
        r.call(t.s_call, t.f_inner);
        r.seg(t.s_inner_work);
        r.leave();
        r.cond(t.s_check, false);
        r.leave();
        r.take().events
    }

    #[test]
    fn order_follows_execution_and_skips_entries() {
        let t = build();
        let ev = canonical(&t);
        let path: HashSet<FuncId> = [t.f_outer, t.f_inner].into_iter().collect();
        let order = merged_block_order(&t.program, &ev, &path);
        // No entry/exit blocks.
        for (f, b) in &order {
            let role = t.program.function(*f).block(*b).role;
            assert!(!matches!(role, BlockRole::Entry | BlockRole::Exit));
        }
        // outer.work before the call site, call site before inner.work,
        // inner.work before err.test (the post-call code).
        let pos = |f: FuncId, name_frag: &str| {
            order
                .iter()
                .position(|(pf, pb)| {
                    *pf == f && t.program.function(*pf).block_name(*pb).contains(name_frag)
                })
                .unwrap_or_else(|| panic!("{name_frag} not in order"))
        };
        assert!(pos(t.f_outer, "work") < pos(t.f_outer, "do_inner"));
        assert!(pos(t.f_outer, "do_inner") < pos(t.f_inner, "work"));
        assert!(pos(t.f_inner, "work") < pos(t.f_outer, "err.test"));
    }

    #[test]
    fn cold_blocks_excluded() {
        let t = build();
        let ev = canonical(&t);
        let path: HashSet<FuncId> = [t.f_outer, t.f_inner].into_iter().collect();
        let order = merged_block_order(&t.program, &ev, &path);
        for (f, b) in &order {
            assert!(!t.program.function(*f).block(*b).cold);
        }
    }

    #[test]
    fn non_path_functions_ignored() {
        let t = build();
        let ev = canonical(&t);
        let path: HashSet<FuncId> = [t.f_outer].into_iter().collect();
        let order = merged_block_order(&t.program, &ev, &path);
        for (f, _) in &order {
            assert_eq!(*f, t.f_outer);
        }
    }

    #[test]
    fn plan_disjointness_check() {
        let t = build();
        let g1 = MergedGroup {
            name: "a".into(),
            funcs: [t.f_outer].into_iter().collect(),
            order: vec![],
        };
        let g2 = MergedGroup {
            name: "b".into(),
            funcs: [t.f_outer].into_iter().collect(),
            order: vec![],
        };
        let plan = InlinePlan { groups: vec![g1.clone(), g2] };
        assert!(plan.check_disjoint().is_err());
        let ok = InlinePlan { groups: vec![g1] };
        assert!(ok.check_disjoint().is_ok());
        assert!(ok.is_inlined(t.f_outer));
        assert!(!ok.is_inlined(t.f_inner));
        let _ = (t.s_work, t.s_check, t.s_inner_work);
    }
}
