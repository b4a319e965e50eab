//! Equivalence of the data-oriented micro-positioner against the seed
//! greedy (`layout::reference`).
//!
//! The optimized placer replaced the weight `HashMap`, the per-offset
//! occupancy re-walks and the linear interval scan with dense/differential
//! structures; the placements must remain *bit-identical*.  96 seeded
//! SplitMix64 cases drive both implementations over randomly-shaped
//! programs (a hub function making repeated randomized calls, optional
//! second-level nesting, random inlined subsets, varying i-cache sizes)
//! and assert exact `Vec<(FuncId, u64)>` equality.

use std::collections::HashSet;
use std::sync::Arc;

use kcode::events::Recorder;
use kcode::func::{FrameSpec, FuncKind};
use kcode::layout::{micro_position, reference, LayoutRequest, LayoutStrategy};
use kcode::program::ProgramBuilder;
use kcode::{Body, Ev, FuncId, ImageConfig, Program, SegId};
use netsim::rng::SplitMix64;

const CASES: u64 = 96;

struct Hub {
    program: Arc<Program>,
    root: FuncId,
    root_seg: SegId,
    /// Per leaf: (func, work seg, root's call seg, optional (sub call seg)).
    leaves: Vec<(FuncId, SegId, SegId, Option<SegId>)>,
    sub: FuncId,
    sub_seg: SegId,
}

/// A hub program: `root` calls 2..8 leaves; some leaves can call a shared
/// library `sub`.  Leaf body sizes vary so hot-set spans differ.
fn gen_hub(rng: &mut SplitMix64) -> Hub {
    let nleaves = rng.range(2, 8);
    let leaf_shapes: Vec<(bool, u16, bool)> = (0..nleaves)
        .map(|_| (rng.bool(), 8 + rng.below(180) as u16, rng.bool()))
        .collect();

    let mut pb = ProgramBuilder::new();
    let (sub, sub_seg) = pb.function("sub", FuncKind::Library, FrameSpec::leaf(), |fb| {
        fb.straight("w", Body::ops(24))
    });
    let mut leaf_funcs = Vec::new();
    for (i, (lib, size, calls_sub)) in leaf_shapes.iter().enumerate() {
        let kind = if *lib { FuncKind::Library } else { FuncKind::Path };
        let (f, (s, cs)) = pb.function(&format!("leaf{i}"), kind, FrameSpec::standard(), |fb| {
            let s = fb.straight("w", Body::ops(*size));
            let cs = calls_sub.then(|| fb.call("sub", sub, Body::ops(1)));
            (s, cs)
        });
        leaf_funcs.push((f, s, cs));
    }
    let (root, (root_seg, call_segs)) =
        pb.function("root", FuncKind::Path, FrameSpec::standard(), |fb| {
            let s = fb.straight("w", Body::ops(40));
            let calls: Vec<SegId> = leaf_funcs
                .iter()
                .enumerate()
                .map(|(i, (f, _, _))| fb.call(&format!("c{i}"), *f, Body::ops(1)))
                .collect();
            (s, calls)
        });
    let leaves = leaf_funcs
        .iter()
        .zip(&call_segs)
        .map(|(&(f, s, cs), &call)| (f, s, call, cs))
        .collect();
    Hub { program: pb.build(), root, root_seg, leaves, sub, sub_seg }
}

/// Record `root` making 10..60 randomized calls; leaves with a sub call
/// site take it on a coin flip, producing depth-3 interleavings.
fn record_hub(hub: &Hub, rng: &mut SplitMix64) -> Vec<Ev> {
    let mut rec = Recorder::new();
    rec.enter(hub.root);
    rec.seg(hub.root_seg);
    let ncalls = rng.range(10, 60);
    for _ in 0..ncalls {
        let (f, s, call, cs) = hub.leaves[rng.below(hub.leaves.len() as u64) as usize];
        rec.call(call, f);
        rec.seg(s);
        if let Some(cs) = cs {
            if rng.bool() {
                rec.call(cs, hub.sub);
                rec.seg(hub.sub_seg);
                rec.leave();
            }
        }
        rec.leave();
    }
    rec.leave();
    rec.take().events
}

/// A random subset of the leaves, sometimes empty — `micro_position`
/// must skip these without disturbing the rest.
fn gen_inlined(hub: &Hub, rng: &mut SplitMix64) -> HashSet<FuncId> {
    let mut set = HashSet::new();
    if rng.bool() {
        for &(f, ..) in &hub.leaves {
            if rng.below(4) == 0 {
                set.insert(f);
            }
        }
    }
    set
}

#[test]
fn optimized_micro_position_matches_reference() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x1A70_0005 ^ (case << 8));
        let hub = gen_hub(&mut rng);
        let ev = record_hub(&hub, &mut rng);
        let inlined = gen_inlined(&hub, &mut rng);
        let outline = rng.bool();
        let icache = [4 * 1024u64, 8 * 1024, 16 * 1024][rng.below(3) as usize];

        let mut req = LayoutRequest::new(
            LayoutStrategy::MicroPosition,
            ImageConfig::plain("eq").with_outline(outline),
        );
        req.icache_bytes = icache;

        let opt = micro_position(&hub.program, &ev, &req, &inlined);
        let seed = reference::micro_position(&hub.program, &ev, &req, &inlined);
        assert_eq!(
            opt, seed,
            "case {case}: optimized placements diverge from reference \
             (outline={outline}, icache={icache}, inlined={})",
            inlined.len()
        );
    }
}

#[test]
fn reference_trace_shapes_match_too() {
    // The chain-style traces of layout_props (every function activated
    // once, deep nesting) exercise the zero-weight degenerate paths.
    for case in 0..32 {
        let mut rng = SplitMix64::new(0x1A70_0006 ^ (case << 8));
        let n = rng.range(2, 9);
        let mut pb = ProgramBuilder::new();
        let mut made: Vec<(FuncId, SegId, Option<SegId>)> = Vec::new();
        let mut prev: Option<FuncId> = None;
        for i in (0..n).rev() {
            let callee = prev;
            let size = 8 + rng.below(120) as u16;
            let (f, (s, c)) =
                pb.function(&format!("f{i}"), FuncKind::Path, FrameSpec::standard(), |fb| {
                    let s = fb.straight("w", Body::ops(size));
                    let c = callee.map(|cc| fb.call("down", cc, Body::ops(2)));
                    (s, c)
                });
            made.push((f, s, c));
            prev = Some(f);
        }
        made.reverse();
        let program = pb.build();

        let mut rec = Recorder::new();
        rec.enter(made[0].0);
        rec.seg(made[0].1);
        for i in 1..n {
            rec.call(made[i - 1].2.unwrap(), made[i].0);
            rec.seg(made[i].1);
        }
        for _ in 0..n {
            rec.leave();
        }
        let ev = rec.take().events;

        let req = LayoutRequest::new(
            LayoutStrategy::MicroPosition,
            ImageConfig::plain("eq").with_outline(rng.bool()),
        );
        let none = HashSet::new();
        let opt = micro_position(&program, &ev, &req, &none);
        let seed = reference::micro_position(&program, &ev, &req, &none);
        assert_eq!(opt, seed, "case {case}: chain trace diverges");
    }
}
