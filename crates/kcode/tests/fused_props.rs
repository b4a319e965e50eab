//! Property suite: replaying straight into a machine (the fused path,
//! where each block body arrives whole through `InstSink::emit_block`:
//! its precomputed shape and its resolved data addresses) gives the
//! same report as simulating the materialized trace one record at a
//! time, on random programs.
//!
//! The programs exercise every way the replayer trims or repeats a
//! body, each a block variant of its own in the replay plan: call
//! specialization (a skipped prologue and a dropped GOT load),
//! path-inlined groups (spliced calls that drop the GOT load, a real
//! call into a group, and the inline-ALU shrink), loop iterations with
//! strided operand walks, and bodies that span many i-cache lines.
//! Each case runs on the paper's machine, on a tiny hierarchy where
//! line crossings, misses and write-buffer drains fall inside blocks
//! all the time, and on a 2-way i-cache, which steps each block's
//! records one at a time.
//!
//! The inputs are drawn from a seeded SplitMix64 stream, so every run
//! exercises the same cases.

use alpha_machine::config::{CacheConfig, MachineConfig};
use alpha_machine::{reference, InstClass, Machine};
use kcode::events::Recorder;
use kcode::func::{FrameSpec, FuncKind};
use kcode::layout::{build_image, InlineSpec, LayoutRequest, LayoutStrategy};
use kcode::program::ProgramBuilder;
use kcode::{Body, DataRef, EventStream, FuncId, Image, ImageConfig, Predict, SegId};
use netsim::rng::SplitMix64;

const CASES: u64 = 48;

/// A body of up to 120 instructions: ALU work, an occasional multiply,
/// and loads and stores over the operand buffer and the stack frame.
fn body(rng: &mut SplitMix64) -> Body {
    let mut b = Body::ops(1 + rng.below(100) as u16)
        .load_operand(0, rng.below(64) as u32 * 8, rng.below(8) as u16, 8)
        .store_operand(0, 0x200 + rng.below(64) as u32 * 8, rng.below(5) as u16, 8)
        .with_loads(&[DataRef::Stack(rng.below(8) as u32 * 8)])
        .with_stores(&[DataRef::Stack(rng.below(8) as u32 * 8)]);
    if rng.below(4) == 0 {
        b = b.with_mul(1);
    }
    b
}

/// A call chain `f0 → f1 → …`: each function runs a few random
/// segments, then calls the next.  Returns the program's functions and,
/// per function, its segments `(shape, id)` and its call site.
struct Chain {
    program: std::sync::Arc<kcode::Program>,
    funcs: Vec<FuncId>,
    segs: Vec<Vec<(u8, SegId)>>,
    calls: Vec<Option<SegId>>,
}

fn chain(rng: &mut SplitMix64) -> Chain {
    let n = rng.range(2, 6);
    let mut pb = ProgramBuilder::new();
    let (mut funcs, mut segs, mut calls) = (Vec::new(), Vec::new(), Vec::new());
    let mut callee: Option<FuncId> = None;
    // Register bottom-up so call targets exist.
    for i in (0..n).rev() {
        let kind = if rng.bool() {
            FuncKind::Library
        } else {
            FuncKind::Path
        };
        let shapes: Vec<u8> = (0..rng.range(1, 5)).map(|_| rng.below(4) as u8).collect();
        let bodies: Vec<(Body, Body)> = shapes.iter().map(|_| (body(rng), body(rng))).collect();
        let stride = 8 * rng.below(4) as u32;
        let (f, (ss, cs)) = pb.function(&format!("f{i}"), kind, FrameSpec::standard(), |fb| {
            let ss: Vec<(u8, SegId)> = shapes
                .iter()
                .zip(bodies)
                .enumerate()
                .map(|(j, (&shape, (a, b)))| {
                    let name = format!("s{j}");
                    let id = match shape {
                        0 => fb.straight(&name, a),
                        1 => fb.straight_checked(&name, a),
                        2 => fb.cond(&name, a, b, Predict::False),
                        _ => fb.loop_seg_strided(&name, a, true, stride),
                    };
                    (shape, id)
                })
                .collect();
            let cs = callee.map(|c| fb.call("down", c, Body::ops(2)));
            (ss, cs)
        });
        funcs.push(f);
        segs.push(ss);
        calls.push(cs);
        callee = Some(f);
    }
    funcs.reverse();
    segs.reverse();
    calls.reverse();
    Chain {
        program: pb.build(),
        funcs,
        segs,
        calls,
    }
}

/// Walk the chain top to bottom with random branch outcomes and loop
/// trip counts (zero included).
fn record(c: &Chain, rng: &mut SplitMix64) -> EventStream {
    let mut rec = Recorder::new();
    rec.enter_with(c.funcs[0], &[0x0800_4000]);
    for i in 0..c.funcs.len() {
        for &(shape, id) in &c.segs[i] {
            match shape {
                0 | 1 => rec.seg(id),
                2 => {
                    rec.cond(id, rng.bool());
                }
                _ => rec.loop_iters(id, rng.below(5) as u32),
            }
        }
        if let Some(site) = c.calls[i] {
            rec.call_with(site, c.funcs[i + 1], &[0x0800_8000 + i as u64 * 0x100]);
        }
    }
    for _ in &c.funcs {
        rec.leave();
    }
    rec.take()
}

/// The machines each case runs on.
fn configs() -> [MachineConfig; 3] {
    let paper = MachineConfig::dec3000_600();
    let mut tiny = paper;
    tiny.mem.icache = CacheConfig::new(256, 32);
    tiny.mem.dcache = CacheConfig::new(256, 32);
    tiny.mem.bcache = CacheConfig::new(4096, 32);
    tiny.mem.write_buffer_entries = 2;
    tiny.mem.writebuf_retire_cycles = 3;
    tiny.mem.itlb_entries = 4;
    tiny.mem.page_bytes = 64;
    let mut two_way = paper;
    two_way.mem.icache = CacheConfig::set_associative(1024, 32, 2);
    [paper, tiny, two_way]
}

/// Fused vs materialized vs the seed model, cold then warm.
fn assert_fused_matches(case: u64, label: &str, image: &Image, ev: &EventStream) {
    let trace = image.replay(ev).expect("replays cleanly").trace;
    for config in configs() {
        let mut fused = Machine::new(config);
        let mut stepped = Machine::new(config);
        let mut seed = reference::Machine::new(config);
        for pass in ["cold", "warm"] {
            fused.reset_stats();
            let n = image
                .replay_into_lean(ev, &mut fused)
                .expect("replays cleanly");
            assert_eq!(
                n,
                trace.len() as u64,
                "case {case} {label}: instruction count"
            );
            let want = stepped.run(&trace);
            assert_eq!(
                fused.report(n),
                want,
                "case {case} {label} {pass}: fused vs stepped"
            );
            assert_eq!(
                seed.run(&trace),
                want,
                "case {case} {label} {pass}: seed vs stepped"
            );
            assert_eq!(
                fused.mem.write_buffer.pending_len(),
                stepped.mem.write_buffer.pending_len(),
                "case {case} {label} {pass}: write-buffer occupancy"
            );
        }
    }
}

#[test]
fn fused_replay_matches_stepped_trace_on_random_programs() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5EED_00F5 ^ (case << 8));
        let c = chain(&mut rng);
        let ev = record(&c, &mut rng);
        let outline = rng.bool();
        // An inline group: either the whole chain (every call spliced)
        // or a tail of it (a real call into the group).
        let from = if rng.bool() { 0 } else { 1 };
        let group = c.funcs[from..].to_vec();

        let plain = ImageConfig::plain("p").with_outline(outline);
        let images = [
            (
                "linear",
                LayoutRequest::new(LayoutStrategy::Linear, plain.clone()),
            ),
            (
                "specialized",
                LayoutRequest::new(
                    LayoutStrategy::Linear,
                    plain.clone().with_specialization(true),
                ),
            ),
            (
                "inlined",
                LayoutRequest::new(
                    LayoutStrategy::Linear,
                    plain.clone().with_specialization(true),
                )
                .with_inline(vec![InlineSpec {
                    name: "g".into(),
                    funcs: group,
                }]),
            ),
            ("bad", LayoutRequest::new(LayoutStrategy::Bad, plain)),
        ];
        for (label, req) in images {
            let image = build_image(&c.program, req, &ev.events);
            assert_fused_matches(case, label, &image, &ev);
        }
    }
}

/// A real call into an inline group that leaves before any of its
/// blocks ran (its only segment is a loop that runs no iteration): the
/// return lands inside the callee's placed code, so both replay modes
/// accept it and agree.
#[test]
fn real_call_into_an_inline_group_that_runs_nothing_returns_inside_it() {
    let mut pb = ProgramBuilder::new();
    let (f1, l) = pb.function("f1", FuncKind::Path, FrameSpec::standard(), |fb| {
        fb.loop_seg("l", Body::ops(4), true)
    });
    let (f0, call) = pb.function("f0", FuncKind::Path, FrameSpec::standard(), |fb| {
        fb.call("down", f1, Body::ops(2))
    });
    let program = pb.build();
    let mut rec = Recorder::new();
    rec.enter_with(f0, &[0x0800_4000]);
    rec.call_with(call, f1, &[0x0800_8000]);
    rec.loop_iters(l, 0);
    rec.leave();
    rec.leave();
    let ev = rec.take();
    let req = LayoutRequest::new(LayoutStrategy::Linear, ImageConfig::plain("p"))
        .with_inline(vec![InlineSpec { name: "g".into(), funcs: vec![f1] }]);
    let image = build_image(&program, req, &ev.events);
    assert!(image.is_inlined(f1));

    let out = image.replay(&ev).expect("the materialized replay accepts the return");
    let returns: Vec<u64> =
        out.trace.iter().filter(|r| r.class == InstClass::Ret).map(|r| r.pc).collect();
    assert_eq!(returns.len(), 2, "f1's return and f0's");
    assert_eq!(returns[0], image.entry_addr(f1), "f1 returns from its call target");
    assert!(out.trace.iter().all(|r| r.pc != 0), "no record at pc 0");

    let mut lean = Vec::new();
    let n = image.replay_into_lean(&ev, &mut lean).expect("the lean replay accepts it too");
    assert_eq!(n, out.trace.len() as u64);
    assert_eq!(lean, out.trace, "both modes emit the same records");
    assert_fused_matches(0, "empty inline callee", &image, &ev);
}
