//! Layout strategies — the "cloning" technique.
//!
//! Cloning copies functions and relocates them.  What distinguishes the
//! paper's configurations is *where* the clones land:
//!
//! * [`LayoutStrategy::LinkOrder`] — no cloning: functions sit wherever
//!   the link order put them (registration order here).  This is the STD
//!   and OUT placement.
//! * [`LayoutStrategy::Linear`] — clones placed strictly in the order of
//!   first invocation ("closest-is-best" over everything).  The right
//!   choice when the whole path fits in the i-cache.
//! * [`LayoutStrategy::Bipartite`] — the paper's winner: the i-cache
//!   index space is split into a *path* partition and a *library*
//!   partition; path functions (executed once per path invocation) are
//!   laid sequentially in the path partition in first-call order, library
//!   functions (called repeatedly) in the library partition, so library
//!   code is never evicted by the once-through path stream.
//! * [`LayoutStrategy::MicroPosition`] — trace-driven greedy placement
//!   minimizing predicted conflict misses, at instruction granularity,
//!   accepting inter-function gaps.  Reduces replacement misses
//!   dramatically but scatters code (non-sequential fetch, wasted
//!   prefetch bandwidth) — the paper found it never beats bipartite
//!   end-to-end.
//! * [`LayoutStrategy::Bad`] — the pessimal clone placement: hot
//!   functions aliased onto the same i-cache sets *and* onto b-cache sets
//!   occupied by hot data.  Used to bound how bad an uncontrolled layout
//!   can get.
//!
//! Strategies read only the recorded control flow, so synthesis takes
//! the events as `&[Ev]` (`LinkOrder` reads none: callers pass `&[]`).
//!
//! Image construction is split in two so sweeps can cache the expensive
//! half: [`synthesize_layout`] does the trace-driven analysis (inline
//! group resolution, interleaving weights, partition sizing) and returns
//! a [`LayoutPlan`]; [`assemble_image`] turns a plan into a concrete
//! [`Image`] with cheap cursor arithmetic and needs no trace at all.
//! [`build_image`] composes the two for one-shot callers.

mod micro;
pub mod reference;

use std::collections::HashSet;

use crate::datalayout::DataLayout;
use crate::events::Ev;
use crate::func::FuncKind;
use crate::ids::FuncId;
use crate::image::{
    AddrCursor, ColdPolicy, Image, ImageAssembler, ImageConfig, PinnedCursor, SeqCursor,
    WindowCursor,
};
use crate::program::Program;
use crate::transform::inline::{merged_block_order, InlinePlan, MergedGroup};

pub use micro::micro_position;

/// Placement strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutStrategy {
    LinkOrder,
    Linear,
    Bipartite,
    MicroPosition,
    Bad,
}

/// Specification of one path-inlined group (name + member functions);
/// the block order is derived from the recorded flow.
#[derive(Debug, Clone)]
pub struct InlineSpec {
    pub name: String,
    pub funcs: Vec<FuncId>,
}

/// Everything needed to build an image apart from the recorded flow.
pub struct LayoutRequest {
    pub strategy: LayoutStrategy,
    pub config: ImageConfig,
    /// Path-inlining groups (PIN/ALL configurations).
    pub inline: Vec<InlineSpec>,
    /// i-cache size in bytes (the aliasing modulus for Bipartite/Bad).
    pub icache_bytes: u64,
    /// b-cache size in bytes (aliasing modulus for Bad).
    pub bcache_bytes: u64,
}

impl LayoutRequest {
    pub fn new(strategy: LayoutStrategy, config: ImageConfig) -> Self {
        LayoutRequest {
            strategy,
            config,
            inline: Vec::new(),
            icache_bytes: 8 * 1024,
            bcache_bytes: 2 * 1024 * 1024,
        }
    }

    pub fn with_inline(mut self, groups: Vec<InlineSpec>) -> Self {
        self.inline = groups;
        self
    }
}

/// First-invocation order of functions in a flow.
pub fn first_call_order(flow: &[Ev]) -> Vec<FuncId> {
    let mut seen = HashSet::new();
    let mut order = Vec::new();
    for ev in flow {
        if let Ev::Enter { func } = *ev {
            if seen.insert(func) {
                order.push(func);
            }
        }
    }
    order
}

/// Function-level activity sequence: which function is executing, in
/// order, including resumptions after returns.  Drives interleaving
/// weights for micro-positioning.
pub fn activity_sequence(flow: &[Ev]) -> Vec<FuncId> {
    // At most one element per event: size the output once.
    let mut stack: Vec<FuncId> = Vec::with_capacity(16);
    let mut seq = Vec::with_capacity(flow.len());
    for ev in flow {
        match *ev {
            Ev::Enter { func } => {
                stack.push(func);
                seq.push(func);
            }
            Ev::Leave => {
                stack.pop();
                if let Some(&top) = stack.last() {
                    seq.push(top);
                }
            }
            _ => {}
        }
    }
    seq
}

/// The synthesized half of a layout: everything a trace was needed for,
/// reduced to plain placement directives.  Plans are cheap to keep and
/// reuse — `protolat-core`'s SweepEngine memoizes one per configuration
/// and assembles images from it on demand.
#[derive(Debug, Clone)]
pub struct LayoutPlan {
    pub strategy: LayoutStrategy,
    /// Resolved path-inlined groups (block order already derived from
    /// the recorded flow).
    pub groups: Vec<MergedGroup>,
    pub directive: Directive,
}

/// Placement directive: how [`assemble_image`] lays the non-inlined
/// functions.  Every variant is position-explicit — no trace needed.
#[derive(Debug, Clone)]
pub enum Directive {
    /// LinkOrder / Linear: merged groups then functions from one
    /// sequential cursor; `gaps[i]` bytes are skipped before `order[i]`
    /// (LinkOrder's pseudo-random scatter; all zero for Linear).
    Ordered { order: Vec<FuncId>, gaps: Vec<u64> },
    /// Bipartite: the i-cache index space splits at `split`; functions
    /// flagged `true` allocate from the library window above it.
    Bipartite { order: Vec<(FuncId, bool)>, split: u64 },
    /// MicroPosition: merged groups sequential, each function pinned at
    /// its conflict-minimizing address.
    Pinned(Vec<(FuncId, u64)>),
    /// Bad: merged groups and functions pinned at pairwise-aliasing
    /// addresses (one b-cache frame apart, i-cache index 0).
    Aliased { merged_base: u64, placements: Vec<(FuncId, u64)> },
}

/// Run the trace-driven half of layout over the recorded `flow`:
/// resolve inline groups and decide where everything goes.
pub fn synthesize_layout(
    program: &std::sync::Arc<Program>,
    req: &LayoutRequest,
    flow: &[Ev],
) -> LayoutPlan {
    // Resolve inline groups against the flow.
    let plan: InlinePlan = if req.inline.is_empty() {
        InlinePlan::default()
    } else {
        let groups = req
            .inline
            .iter()
            .map(|spec| {
                let funcs: HashSet<FuncId> = spec.funcs.iter().copied().collect();
                MergedGroup {
                    name: spec.name.clone(),
                    funcs: funcs.clone(),
                    order: merged_block_order(program, flow, &funcs),
                }
            })
            .collect();
        let plan = InlinePlan { groups };
        plan.check_disjoint().expect("inline groups must be disjoint");
        plan
    };
    let inlined = plan.inlined_funcs();

    let directive = match req.strategy {
        LayoutStrategy::LinkOrder => {
            // The real kernel links dozens of unrelated protocols and
            // subsystems between the functions of the measured path: in
            // link order, path functions are scattered, not packed.
            // Deterministic pseudo-random gaps model that interleaved
            // unrelated code — the source of the replacement misses that
            // cloning removes.
            let order: Vec<FuncId> = all_funcs(program)
                .into_iter()
                .filter(|f| !inlined.contains(f))
                .collect();
            let gaps = order
                .iter()
                .map(|f| (f.0 as u64).wrapping_mul(0x9E37_79B9).rotate_left(11) % 48 * 64)
                .collect();
            Directive::Ordered { order, gaps }
        }
        LayoutStrategy::Linear => {
            let order: Vec<FuncId> = ordered_funcs(program, flow)
                .into_iter()
                .filter(|f| !inlined.contains(f))
                .collect();
            let gaps = vec![0; order.len()];
            Directive::Ordered { order, gaps }
        }
        LayoutStrategy::Bipartite => {
            let order = first_call_order(flow);
            // Only library code with real temporal locality — called
            // more than once per path invocation — earns a slot in the
            // protected partition; single-use library functions behave
            // like path code and placing them in the library window
            // would only compress the path partition further.
            let mut call_counts: std::collections::HashMap<FuncId, u32> =
                std::collections::HashMap::new();
            for ev in flow {
                if let Ev::Enter { func } = *ev {
                    *call_counts.entry(func).or_insert(0) += 1;
                }
            }
            let is_lib = |f: FuncId| {
                program.function(f).kind == FuncKind::Library
                    && call_counts.get(&f).copied().unwrap_or(0) >= 1
            };
            let lib_bytes: u64 = order
                .iter()
                .filter(|f| is_lib(**f))
                .filter(|f| !inlined.contains(*f))
                .map(|f| {
                    crate::transform::outline::hot_laid_size(
                        program.function(*f),
                        req.config.outline,
                    ) as u64
                        * 4
                })
                .sum();
            let lib_bytes = (lib_bytes.div_ceil(512) * 512).min(req.icache_bytes / 2).max(512);
            let split = req.icache_bytes - lib_bytes;
            let order: Vec<(FuncId, bool)> = ordered_funcs(program, flow)
                .into_iter()
                .filter(|f| !inlined.contains(f))
                .map(|f| (f, is_lib(f)))
                .collect();
            Directive::Bipartite { order, split }
        }
        LayoutStrategy::MicroPosition => {
            Directive::Pinned(micro_position(program, flow, req, &inlined))
        }
        LayoutStrategy::Bad => {
            let order = ordered_funcs(program, flow);
            // Base chosen to alias, in the b-cache, with the data segment
            // (DATA_BASE % bcache == 0), so hot code evicts hot data.
            let bad_base = {
                let b = DataLayout::DATA_BASE + 8 * req.bcache_bytes;
                debug_assert_eq!(b % req.bcache_bytes, DataLayout::DATA_BASE % req.bcache_bytes);
                b
            };
            // Every hot function starts at i-cache index 0 of its own
            // b-cache frame: all of them alias pairwise in the i-cache
            // and in the b-cache.
            let placements = order
                .iter()
                .enumerate()
                .filter(|(_, f)| !inlined.contains(f))
                .map(|(k, f)| (*f, bad_base + (k as u64 + 1) * req.bcache_bytes))
                .collect();
            Directive::Aliased { merged_base: bad_base, placements }
        }
    };

    LayoutPlan { strategy: req.strategy, groups: plan.groups, directive }
}

/// Turn a [`LayoutPlan`] into a concrete image.  Pure cursor arithmetic
/// with no flow, so memoized plans can be assembled without
/// re-recording a trace.
pub fn assemble_image(
    program: &std::sync::Arc<Program>,
    req: &LayoutRequest,
    plan: &LayoutPlan,
) -> Image {
    let data = DataLayout::for_program(program);
    let mut asm = ImageAssembler::new(program.clone(), req.config.clone());

    let cloned = plan.strategy != LayoutStrategy::LinkOrder;
    let policy = if !req.config.outline {
        ColdPolicy::Inline
    } else if cloned {
        ColdPolicy::FarRegion
    } else {
        ColdPolicy::EndOfFunction
    };

    match &plan.directive {
        Directive::Ordered { order, gaps } => {
            let mut cur = SeqCursor::new(Image::CODE_BASE);
            for g in &plan.groups {
                asm.place_merged(g, &mut cur);
            }
            for (f, gap) in order.iter().zip(gaps) {
                cur.next += gap;
                asm.place_function(*f, &mut cur, policy);
            }
        }
        Directive::Bipartite { order, split } => {
            let mut path_cur =
                WindowCursor::new(Image::CODE_BASE, req.icache_bytes, 0, *split);
            let mut lib_cur = WindowCursor::new(
                Image::CODE_BASE,
                req.icache_bytes,
                *split,
                req.icache_bytes,
            );
            for g in &plan.groups {
                asm.place_merged(g, &mut path_cur);
            }
            for &(f, lib) in order {
                let cur: &mut dyn AddrCursor =
                    if lib { &mut lib_cur } else { &mut path_cur };
                asm.place_function(f, cur, policy);
            }
        }
        Directive::Pinned(placements) => {
            let mut cur = SeqCursor::new(Image::CODE_BASE);
            for g in &plan.groups {
                asm.place_merged(g, &mut cur);
            }
            for &(f, addr) in placements {
                let mut pin = PinnedCursor { next: addr };
                asm.place_function(f, &mut pin, policy);
            }
        }
        Directive::Aliased { merged_base, placements } => {
            let mut merged_cur = PinnedCursor { next: *merged_base };
            for g in &plan.groups {
                asm.place_merged(g, &mut merged_cur);
            }
            for &(f, addr) in placements {
                let mut pin = PinnedCursor { next: addr };
                asm.place_function(f, &mut pin, policy);
            }
        }
    }

    asm.finish(data)
}

/// Build an image per the request over the recorded `flow`
/// (synthesize, then assemble).
pub fn build_image(program: &std::sync::Arc<Program>, req: LayoutRequest, flow: &[Ev]) -> Image {
    let plan = synthesize_layout(program, &req, flow);
    assemble_image(program, &req, &plan)
}

fn all_funcs(program: &Program) -> Vec<FuncId> {
    (0..program.functions().len() as u32).map(FuncId).collect()
}

/// First-call order followed by never-called functions in id order.
pub fn ordered_funcs(program: &Program, flow: &[Ev]) -> Vec<FuncId> {
    let mut order = first_call_order(flow);
    let seen: HashSet<FuncId> = order.iter().copied().collect();
    for f in all_funcs(program) {
        if !seen.contains(&f) {
            order.push(f);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Body;
    use crate::events::Recorder;
    use crate::func::FrameSpec;
    use crate::ids::SegId;
    use crate::program::ProgramBuilder;
    use std::sync::Arc;

    struct Fixture {
        program: Arc<Program>,
        path_a: FuncId,
        path_b: FuncId,
        lib: FuncId,
        segs: Vec<SegId>,
    }

    fn fixture() -> Fixture {
        let mut pb = ProgramBuilder::new();
        let (lib, s_lib) = pb.function("lib", FuncKind::Library, FrameSpec::leaf(), |fb| {
            fb.straight("w", Body::ops(30))
        });
        let (path_b, s_b) = pb.function("pb", FuncKind::Path, FrameSpec::standard(), |fb| {
            fb.straight("w", Body::ops(200))
        });
        let (path_a, (s_a, s_call_lib, s_call_b)) =
            pb.function("pa", FuncKind::Path, FrameSpec::standard(), |fb| {
                let a = fb.straight("w", Body::ops(100));
                let cl = fb.call("lib", lib, Body::ops(1));
                let cb = fb.call("b", path_b, Body::ops(1));
                (a, cl, cb)
            });
        Fixture {
            program: pb.build(),
            path_a,
            path_b,
            lib,
            segs: vec![s_a, s_call_lib, s_call_b, s_lib, s_b],
        }
    }

    fn trace(fx: &Fixture) -> Vec<Ev> {
        let mut r = Recorder::new();
        r.enter(fx.path_a);
        r.seg(fx.segs[0]);
        r.call(fx.segs[1], fx.lib);
        r.seg(fx.segs[3]);
        r.leave();
        r.call(fx.segs[2], fx.path_b);
        r.seg(fx.segs[4]);
        r.leave();
        r.leave();
        r.take().events
    }

    #[test]
    fn first_call_order_dedups() {
        let fx = fixture();
        let ev = trace(&fx);
        assert_eq!(first_call_order(&ev), vec![fx.path_a, fx.lib, fx.path_b]);
    }

    #[test]
    fn activity_sequence_includes_resumptions() {
        let fx = fixture();
        let ev = trace(&fx);
        let seq = activity_sequence(&ev);
        assert_eq!(
            seq,
            vec![fx.path_a, fx.lib, fx.path_a, fx.path_b, fx.path_a]
        );
    }

    #[test]
    fn linear_layout_orders_by_first_call() {
        let fx = fixture();
        let ev = trace(&fx);
        let img = build_image(
            &fx.program,
            LayoutRequest::new(LayoutStrategy::Linear, ImageConfig::plain("lin")),
            &ev,
        );
        assert!(img.entry_addr(fx.path_a) < img.entry_addr(fx.lib));
        assert!(img.entry_addr(fx.lib) < img.entry_addr(fx.path_b));
    }

    #[test]
    fn bipartite_separates_library_index_range() {
        let fx = fixture();
        let ev = trace(&fx);
        let img = build_image(
            &fx.program,
            LayoutRequest::new(
                LayoutStrategy::Bipartite,
                ImageConfig::plain("clo").with_outline(true),
            ),
            &ev,
        );
        let icache = 8 * 1024u64;
        let lib_idx = img.entry_addr(fx.lib) % icache;
        let pa_idx = img.entry_addr(fx.path_a) % icache;
        let pb_idx = img.entry_addr(fx.path_b) % icache;
        assert!(lib_idx > pa_idx.max(pb_idx), "library sits in the high partition");
    }

    #[test]
    fn bad_layout_aliases_functions() {
        let fx = fixture();
        let ev = trace(&fx);
        let img = build_image(
            &fx.program,
            LayoutRequest::new(
                LayoutStrategy::Bad,
                ImageConfig::plain("bad").with_outline(true),
            ),
            &ev,
        );
        let icache = 8 * 1024u64;
        let a = img.entry_addr(fx.path_a) % icache;
        let b = img.entry_addr(fx.path_b) % icache;
        let l = img.entry_addr(fx.lib) % icache;
        assert_eq!(a, b);
        assert_eq!(a, l);
        // And they alias in the b-cache too.
        let bc = 2 * 1024 * 1024u64;
        assert_eq!(
            img.entry_addr(fx.path_a) % bc,
            img.entry_addr(fx.path_b) % bc
        );
    }

    #[test]
    fn link_order_ignores_trace() {
        let fx = fixture();
        let img = build_image(
            &fx.program,
            LayoutRequest::new(LayoutStrategy::LinkOrder, ImageConfig::plain("std")),
            &[],
        );
        // Registration order: lib, path_b, path_a.
        assert!(img.entry_addr(fx.lib) < img.entry_addr(fx.path_b));
        assert!(img.entry_addr(fx.path_b) < img.entry_addr(fx.path_a));
    }

    #[test]
    fn inline_groups_merge_path_functions() {
        let fx = fixture();
        let ev = trace(&fx);
        let img = build_image(
            &fx.program,
            LayoutRequest::new(
                LayoutStrategy::Linear,
                ImageConfig::plain("pin").with_outline(true),
            )
            .with_inline(vec![InlineSpec {
                name: "merged".into(),
                funcs: vec![fx.path_a, fx.path_b],
            }]),
            &ev,
        );
        assert!(img.is_inlined(fx.path_a));
        assert!(img.is_inlined(fx.path_b));
        assert!(!img.is_inlined(fx.lib));
    }

    #[test]
    fn micro_position_produces_disjoint_hot_code() {
        let fx = fixture();
        let ev = trace(&fx);
        let img = build_image(
            &fx.program,
            LayoutRequest::new(
                LayoutStrategy::MicroPosition,
                ImageConfig::plain("mic").with_outline(true),
            ),
            &ev,
        );
        // Entry addresses must be distinct and hot code must not overlap.
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for f in [fx.path_a, fx.path_b, fx.lib] {
            let func = img.program.function(f);
            let p = img.placement(f);
            for (i, b) in func.blocks.iter().enumerate() {
                if !b.cold {
                    ranges.push((
                        p.block_addr[i],
                        p.block_addr[i] + p.block_len[i] as u64 * 4,
                    ));
                }
            }
        }
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping placements {w:?}");
        }
    }

    #[test]
    fn assemble_from_plan_equals_build_image() {
        // synthesize + assemble must reproduce build_image exactly, for
        // every strategy.
        let fx = fixture();
        let ev = trace(&fx);
        let cases = [
            (LayoutStrategy::LinkOrder, false),
            (LayoutStrategy::Linear, true),
            (LayoutStrategy::Bipartite, true),
            (LayoutStrategy::MicroPosition, true),
            (LayoutStrategy::Bad, true),
        ];
        for (strategy, outline) in cases {
            let mk_req = || {
                LayoutRequest::new(
                    strategy,
                    ImageConfig::plain("eq").with_outline(outline),
                )
            };
            let direct = build_image(&fx.program, mk_req(), &ev);
            let plan = synthesize_layout(&fx.program, &mk_req(), &ev);
            let assembled = assemble_image(&fx.program, &mk_req(), &plan);
            assert_eq!(
                direct.placements, assembled.placements,
                "{strategy:?}: plan assembly diverged from build_image"
            );
            assert_eq!(direct.code_end, assembled.code_end, "{strategy:?}");
        }
    }
}
