//! Property tests over the code model: randomly generated programs and
//! event streams must replay cleanly and consistently under every
//! layout strategy.
//!
//! The inputs are drawn from a seeded SplitMix64 stream, so every run
//! exercises the same 64 cases per property — deterministic, offline,
//! and reproducible from the seed alone.

use std::sync::Arc;

use alpha_machine::InstClass;
use kcode::events::Recorder;
use kcode::func::{FrameSpec, FuncKind};
use kcode::layout::{build_image, LayoutRequest, LayoutStrategy};
use kcode::program::ProgramBuilder;
use kcode::{Body, EventStream, FuncId, Image, ImageConfig, Predict, Program, SegId};
use netsim::rng::SplitMix64;

const CASES: u64 = 64;

/// A compact description of one generated function.
#[derive(Debug, Clone)]
struct GenFunc {
    kind: FuncKind,
    /// (segment shape, size): 0=straight, 1=checked, 2=cond, 3=loop.
    segs: Vec<(u8, u16)>,
}

/// 1..6 functions, each 1..6 segments of (shape 0..4, size 1..60).
fn gen_funcs(rng: &mut SplitMix64) -> Vec<GenFunc> {
    let nfuncs = rng.range(1, 6);
    (0..nfuncs)
        .map(|_| {
            let kind = if rng.bool() { FuncKind::Library } else { FuncKind::Path };
            let nsegs = rng.range(1, 6);
            let segs = (0..nsegs)
                .map(|_| (rng.below(4) as u8, 1 + rng.below(59) as u16))
                .collect();
            GenFunc { kind, segs }
        })
        .collect()
}

/// 1..8 branch outcomes.
fn gen_outcomes(rng: &mut SplitMix64) -> Vec<bool> {
    let n = rng.range(1, 8);
    (0..n).map(|_| rng.bool()).collect()
}

#[derive(Debug, Clone)]
struct Built {
    program: Arc<Program>,
    funcs: Vec<FuncId>,
    segs: Vec<Vec<(u8, SegId)>>,
    calls: Vec<Vec<SegId>>, // call sites from each function to the next
}

fn build(gen: &[GenFunc]) -> Built {
    let mut pb = ProgramBuilder::new();
    let mut funcs = Vec::new();
    let mut segs = Vec::new();
    let mut calls = Vec::new();
    let mut prev: Option<FuncId> = None;
    // Register bottom-up so call targets exist.
    for (i, g) in gen.iter().enumerate().rev() {
        let callee = prev;
        let (f, (ss, cs)) = pb.function(
            &format!("f{i}"),
            g.kind,
            FrameSpec::standard(),
            |fb| {
                let mut ss = Vec::new();
                let mut cs = Vec::new();
                for (j, (shape, size)) in g.segs.iter().enumerate() {
                    let id = match shape % 4 {
                        0 => fb.straight(&format!("s{j}"), Body::ops(*size)),
                        1 => fb.straight_checked(&format!("s{j}"), Body::ops(*size)),
                        2 => fb.cond(
                            &format!("s{j}"),
                            Body::ops(4),
                            Body::ops(*size),
                            Predict::False,
                        ),
                        _ => fb.loop_seg(&format!("s{j}"), Body::ops((*size).max(1)), true),
                    };
                    ss.push((shape % 4, id));
                }
                if let Some(c) = callee {
                    cs.push(fb.call("down", c, Body::ops(2)));
                }
                (ss, cs)
            },
        );
        funcs.push(f);
        segs.push(ss);
        calls.push(cs);
        prev = Some(f);
    }
    funcs.reverse();
    segs.reverse();
    calls.reverse();
    Built { program: pb.build(), funcs, segs, calls }
}

/// Record a top-to-bottom walk with the given branch outcomes.
fn record(b: &Built, outcomes: &[bool], iters: u32) -> EventStream {
    fn walk(
        b: &Built,
        i: usize,
        rec: &mut Recorder,
        outcomes: &[bool],
        iters: u32,
        oi: &mut usize,
    ) {
        for (shape, id) in &b.segs[i] {
            match shape {
                0 | 1 => rec.seg(*id),
                2 => {
                    let t = outcomes[*oi % outcomes.len()];
                    *oi += 1;
                    rec.cond(*id, t);
                }
                _ => rec.loop_iters(*id, iters),
            }
        }
        if let Some(site) = b.calls[i].first() {
            rec.call(*site, b.funcs[i + 1]);
            walk(b, i + 1, rec, outcomes, iters, oi);
            rec.leave();
        }
    }
    let mut rec = Recorder::new();
    rec.enter(b.funcs[0]);
    let mut oi = 0;
    walk(b, 0, &mut rec, outcomes, iters, &mut oi);
    rec.leave();
    rec.take()
}

fn image(b: &Built, strat: LayoutStrategy, canonical: &EventStream, outline: bool) -> Image {
    build_image(
        &b.program,
        LayoutRequest::new(strat, ImageConfig::plain("p").with_outline(outline)),
        &canonical.events,
    )
}

#[test]
fn replay_succeeds_under_every_layout() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5EED_0001 ^ (case << 8));
        let gen = gen_funcs(&mut rng);
        let outcomes = gen_outcomes(&mut rng);
        let iters = rng.below(5) as u32;
        let outline = rng.bool();

        let b = build(&gen);
        let ev = record(&b, &outcomes, iters);
        assert!(ev.check_balanced().is_ok(), "case {case}: unbalanced stream");
        for strat in [
            LayoutStrategy::LinkOrder,
            LayoutStrategy::Linear,
            LayoutStrategy::Bipartite,
            LayoutStrategy::MicroPosition,
            LayoutStrategy::Bad,
        ] {
            let img = image(&b, strat, &ev, outline);
            let out = img.replay(&ev);
            assert!(out.is_ok(), "case {case} {strat:?}: {:?}", out.err());
            let out = out.unwrap();
            assert!(!out.is_empty(), "case {case} {strat:?}: empty trace");
            // Replay is deterministic.
            let again = img.replay(&ev).unwrap();
            assert_eq!(out.trace, again.trace, "case {case} {strat:?}");
        }
    }
}

#[test]
fn non_control_work_is_layout_invariant() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5EED_0002 ^ (case << 8));
        let gen = gen_funcs(&mut rng);
        let outcomes = gen_outcomes(&mut rng);
        let iters = rng.below(5) as u32;

        let b = build(&gen);
        let ev = record(&b, &outcomes, iters);
        let count_work = |img: &Image| {
            img
                .replay(&ev)
                .unwrap()
                .trace
                .iter()
                .filter(|r| {
                    !matches!(
                        r.class,
                        InstClass::BranchTaken
                            | InstClass::BranchNotTaken
                            | InstClass::Call
                            | InstClass::Ret
                    )
                })
                .count()
        };
        // Without specialization or inlining, the layout may only change
        // control-flow instructions, never the computational work.
        let a = count_work(&image(&b, LayoutStrategy::LinkOrder, &ev, true));
        let c = count_work(&image(&b, LayoutStrategy::Bipartite, &ev, true));
        let d = count_work(&image(&b, LayoutStrategy::Bad, &ev, true));
        assert_eq!(a, c, "case {case}: LinkOrder vs Bipartite");
        assert_eq!(a, d, "case {case}: LinkOrder vs Bad");
    }
}

#[test]
fn calls_and_returns_balance() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5EED_0003 ^ (case << 8));
        let gen = gen_funcs(&mut rng);
        let outcomes = gen_outcomes(&mut rng);

        let b = build(&gen);
        let ev = record(&b, &outcomes, 1);
        let img = image(&b, LayoutStrategy::Linear, &ev, true);
        let out = img.replay(&ev).unwrap();
        let calls = out.trace.iter().filter(|r| r.class == InstClass::Call).count();
        let rets = out.trace.iter().filter(|r| r.class == InstClass::Ret).count();
        // Every call returns; the root activation adds one unpaired ret.
        assert_eq!(calls + 1, rets, "case {case}: calls {calls} rets {rets}");
    }
}

#[test]
fn executed_pcs_lie_within_placed_blocks() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5EED_0004 ^ (case << 8));
        let gen = gen_funcs(&mut rng);
        let outcomes = gen_outcomes(&mut rng);

        let b = build(&gen);
        let ev = record(&b, &outcomes, 2);
        let img = image(&b, LayoutStrategy::Bipartite, &ev, true);
        let out = img.replay(&ev).unwrap();
        // Collect every placed byte range.
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for fi in 0..img.program.functions().len() {
            let f = FuncId(fi as u32);
            let p = img.placement(f);
            for i in 0..p.block_addr.len() {
                ranges.push((
                    p.block_addr[i],
                    p.block_addr[i] + p.block_len[i] as u64 * 4,
                ));
            }
        }
        for rec in &out.trace {
            assert!(
                ranges.iter().any(|(s, e)| rec.pc >= *s && rec.pc < *e),
                "case {case}: pc {:#x} outside every placed block",
                rec.pc
            );
        }
    }
}
