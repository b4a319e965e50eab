//! Property tests over the layout engine: placements never overlap, and
//! the strategies keep their defining invariants on arbitrary programs.
//!
//! Inputs come from a seeded SplitMix64 stream: 48 deterministic cases
//! per property, reproducible from the seed alone.

use std::sync::Arc;

use kcode::events::Recorder;
use kcode::func::{FrameSpec, FuncKind};
use kcode::layout::{build_image, micro_position, LayoutRequest, LayoutStrategy};
use kcode::program::ProgramBuilder;
use kcode::transform::outline::hot_laid_size;
use kcode::{Body, Ev, FuncId, Image, ImageConfig, Program, SegId};
use netsim::rng::SplitMix64;

const CASES: u64 = 48;

/// 2..8 functions of (library?, 8..120 ops).
fn gen_sizes(rng: &mut SplitMix64) -> Vec<(bool, u16)> {
    let n = rng.range(2, 8);
    (0..n)
        .map(|_| (rng.bool(), 8 + rng.below(112) as u16))
        .collect()
}

fn build_chain(sizes: &[(bool, u16)]) -> (Arc<Program>, Vec<FuncId>, Vec<SegId>, Vec<SegId>) {
    let mut pb = ProgramBuilder::new();
    let mut funcs = Vec::new();
    let mut segs = Vec::new();
    let mut calls = Vec::new();
    let mut prev: Option<FuncId> = None;
    for (i, (lib, size)) in sizes.iter().enumerate().rev() {
        let callee = prev;
        let kind = if *lib { FuncKind::Library } else { FuncKind::Path };
        let (f, (s, c)) = pb.function(&format!("f{i}"), kind, FrameSpec::standard(), |fb| {
            let s = fb.straight_checked("w", Body::ops(*size));
            let c = callee.map(|cc| fb.call("down", cc, Body::ops(2)));
            (s, c)
        });
        funcs.push(f);
        segs.push(s);
        if let Some(c) = c {
            calls.push(c);
        }
        prev = Some(f);
    }
    funcs.reverse();
    segs.reverse();
    calls.reverse();
    (pb.build(), funcs, segs, calls)
}

fn record_walk(
    funcs: &[FuncId],
    segs: &[SegId],
    calls: &[SegId],
) -> Vec<Ev> {
    let mut rec = Recorder::new();
    rec.enter(funcs[0]);
    rec.seg(segs[0]);
    for i in 1..funcs.len() {
        rec.call(calls[i - 1], funcs[i]);
        rec.seg(segs[i]);
    }
    for _ in 1..funcs.len() {
        rec.leave();
    }
    rec.leave();
    rec.take().events
}

/// All placed block spans of an image, as (start, end) byte ranges.
fn spans(image: &Image) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for fi in 0..image.program.functions().len() {
        let f = FuncId(fi as u32);
        let p = image.placement(f);
        for i in 0..p.block_addr.len() {
            if p.block_len[i] > 0 {
                out.push((p.block_addr[i], p.block_addr[i] + p.block_len[i] as u64 * 4));
            }
        }
    }
    out.sort_unstable();
    out
}

#[test]
fn no_layout_overlaps_blocks() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x1A70_0001 ^ (case << 8));
        let sizes = gen_sizes(&mut rng);
        let outline = rng.bool();

        let (program, funcs, segs, calls) = build_chain(&sizes);
        let ev = record_walk(&funcs, &segs, &calls);
        for strat in [
            LayoutStrategy::LinkOrder,
            LayoutStrategy::Linear,
            LayoutStrategy::Bipartite,
            LayoutStrategy::MicroPosition,
            LayoutStrategy::Bad,
        ] {
            let image = build_image(
                &program,
                LayoutRequest::new(strat, ImageConfig::plain("p").with_outline(outline)),
                &ev,
            );
            let sp = spans(&image);
            for w in sp.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "case {case} {strat:?}: blocks overlap: {:x?} vs {:x?}",
                    w[0],
                    w[1]
                );
            }
            assert!(image.code_end >= sp.last().map(|(_, e)| *e).unwrap_or(0));
        }
    }
}

#[test]
fn linear_layout_orders_by_first_call() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x1A70_0002 ^ (case << 8));
        let sizes = gen_sizes(&mut rng);

        let (program, funcs, segs, calls) = build_chain(&sizes);
        let ev = record_walk(&funcs, &segs, &calls);
        let image = build_image(
            &program,
            LayoutRequest::new(LayoutStrategy::Linear, ImageConfig::plain("lin")),
            &ev,
        );
        for w in funcs.windows(2) {
            assert!(
                image.entry_addr(w[0]) < image.entry_addr(w[1]),
                "case {case}: call order must be address order"
            );
        }
    }
}

#[test]
fn bad_layout_aliases_every_hot_function() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x1A70_0003 ^ (case << 8));
        let sizes = gen_sizes(&mut rng);

        let (program, funcs, segs, calls) = build_chain(&sizes);
        let ev = record_walk(&funcs, &segs, &calls);
        let image = build_image(
            &program,
            LayoutRequest::new(
                LayoutStrategy::Bad,
                ImageConfig::plain("bad").with_outline(true),
            ),
            &ev,
        );
        let icache = 8 * 1024u64;
        let idx0 = image.entry_addr(funcs[0]) % icache;
        for f in &funcs[1..] {
            assert_eq!(image.entry_addr(*f) % icache, idx0, "case {case}");
        }
    }
}

#[test]
fn micro_position_is_rerun_invariant() {
    // Placements must be a pure function of (program, trace, request):
    // no HashMap/HashSet iteration order may leak into the output.
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x1A70_0007 ^ (case << 8));
        let sizes = gen_sizes(&mut rng);
        let outline = rng.bool();

        let (program, funcs, segs, calls) = build_chain(&sizes);
        // Several episodes of the same walk: consecutive activations of
        // every function with the whole chain in between, so the
        // interleaving weights are dense and non-trivial.
        let mut events = Vec::new();
        for _ in 0..3 {
            events.extend(record_walk(&funcs, &segs, &calls));
        }
        let ev = events;

        let req = LayoutRequest::new(
            LayoutStrategy::MicroPosition,
            ImageConfig::plain("rr").with_outline(outline),
        );
        let none = std::collections::HashSet::new();
        let first = micro_position(&program, &ev, &req, &none);
        for _ in 0..3 {
            let again = micro_position(&program, &ev, &req, &none);
            assert_eq!(first, again, "case {case}: re-run changed placements");
        }
    }
}

#[test]
fn zero_weight_ties_go_to_the_lowest_address() {
    // Every function runs once as its own top-level episode, so no
    // function ever has two activity entries (a nested walk would:
    // callers resume after returns) and all interleaving weights are
    // zero.  Every candidate offset then costs the same — the tie-break
    // must pick offset 0, and the address search the lowest free cache
    // frame, so placements stack one i-cache frame apart in order.
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x1A70_0008 ^ (case << 8));
        let sizes = gen_sizes(&mut rng);

        let (program, funcs, segs, _calls) = build_chain(&sizes);
        let mut rec = Recorder::new();
        for (f, s) in funcs.iter().zip(&segs) {
            rec.enter(*f);
            rec.seg(*s);
            rec.leave();
        }
        let ev = rec.take().events;
        let req = LayoutRequest::new(
            LayoutStrategy::MicroPosition,
            ImageConfig::plain("tie").with_outline(true),
        );
        let none = std::collections::HashSet::new();
        let placements = micro_position(&program, &ev, &req, &none);

        let icache = req.icache_bytes;
        for (k, (f, addr)) in placements.iter().enumerate() {
            assert_eq!(
                addr % icache,
                0,
                "case {case}: {f:?} must sit at the lowest (zero) offset"
            );
            assert_eq!(
                *addr,
                Image::CODE_BASE + k as u64 * icache,
                "case {case}: {f:?} must take the lowest free frame"
            );
        }
    }
}

#[test]
fn interleaved_functions_pack_offsets_cumulatively() {
    // root alternates calls to a and b: every pair has positive weight,
    // so a's first zero-cost offset is exactly root's hot span, and b's
    // is root's plus a's — the lowest-offset tie-break packs the cache.
    let mut pb = ProgramBuilder::new();
    let (fa, sa) = pb.function("a", FuncKind::Library, FrameSpec::leaf(), |fb| {
        fb.straight("w", Body::ops(90))
    });
    let (fb_, sb) = pb.function("b", FuncKind::Library, FrameSpec::leaf(), |fb| {
        fb.straight("w", Body::ops(150))
    });
    let (root, (sr, ca, cb)) =
        pb.function("root", FuncKind::Path, FrameSpec::standard(), |fb| {
            let s = fb.straight("w", Body::ops(60));
            let ca = fb.call("a", fa, Body::ops(1));
            let cb = fb.call("b", fb_, Body::ops(1));
            (s, ca, cb)
        });
    let program = pb.build();

    let mut rec = Recorder::new();
    rec.enter(root);
    rec.seg(sr);
    for _ in 0..8 {
        rec.call(ca, fa);
        rec.seg(sa);
        rec.leave();
        rec.call(cb, fb_);
        rec.seg(sb);
        rec.leave();
    }
    rec.leave();
    let ev = rec.take().events;

    let req = LayoutRequest::new(
        LayoutStrategy::MicroPosition,
        ImageConfig::plain("pack").with_outline(true),
    );
    let none = std::collections::HashSet::new();
    let placements = micro_position(&program, &ev, &req, &none);

    let block = 32u64;
    let nsets = |f: FuncId| {
        ((hot_laid_size(program.function(f), true) as u64 * 4).div_ceil(block)).max(1)
    };
    let offsets: std::collections::HashMap<FuncId, u64> = placements
        .iter()
        .map(|(f, addr)| (*f, (addr % req.icache_bytes) / block))
        .collect();
    assert_eq!(offsets[&root], 0, "first placed function starts the packing");
    assert_eq!(offsets[&fa], nsets(root), "a packs right above root");
    assert_eq!(offsets[&fb_], nsets(root) + nsets(fa), "b packs above a");
}

#[test]
fn bipartite_keeps_library_out_of_the_path_window() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x1A70_0004 ^ (case << 8));
        // The invariant only bites on mixed chains; redraw until the
        // sample has both kinds (proptest's prop_assume did the same).
        let sizes = loop {
            let s = gen_sizes(&mut rng);
            if s.iter().any(|(lib, _)| *lib) && s.iter().any(|(lib, _)| !*lib) {
                break s;
            }
        };

        let (program, funcs, segs, calls) = build_chain(&sizes);
        let ev = record_walk(&funcs, &segs, &calls);
        let image = build_image(
            &program,
            LayoutRequest::new(
                LayoutStrategy::Bipartite,
                ImageConfig::plain("bip").with_outline(true),
            ),
            &ev,
        );
        let icache = 8 * 1024u64;
        // Every library entry index is above every path entry index.
        let max_path = funcs
            .iter()
            .filter(|f| program.function(**f).kind == FuncKind::Path)
            .map(|f| image.entry_addr(*f) % icache)
            .max();
        let min_lib = funcs
            .iter()
            .filter(|f| program.function(**f).kind == FuncKind::Library)
            .map(|f| image.entry_addr(*f) % icache)
            .min();
        if let (Some(p), Some(l)) = (max_path, min_lib) {
            assert!(l > p, "case {case}: library index {l} must sit above path max {p}");
        }
    }
}
