//! Layout synthesis: the data-oriented micro-positioner (dense
//! triangular weights, differential offset scoring, sorted interval
//! set) against the seed greedy kept as `layout::reference`, plus the
//! SweepEngine's parallel memoized 12-cell synthesis.
//!
//! * **micro** — one `micro_position` call on each stack's canonical
//!   trace, optimized vs reference (placements checked equal first).
//!   The RPC stack is the paper's many-small-functions worst case.
//! * **cells** — synthesizing all 12 experiment layouts (6 versions x
//!   2 stacks): serial direct calls vs the engine's parallel map
//!   (functional runs prewarmed out of both timings).
//! * **memo** — layout-cache traffic of a full canonical sweep: the
//!   hit rate shows how often drivers reuse a synthesized plan.

use std::collections::HashSet;
use std::sync::Arc;

use kcode::layout::{micro_position, reference, LayoutRequest, LayoutStrategy};
use kcode::{Ev, Program};
use protocols::StackOptions;
use protolat_core::sweep::{grid, par_map, StackRun, SweepEngine};

use crate::{Bound, Clock, Ctx, JsonReport, Outcome, Samples};

/// Time optimized and reference micro-positioning on one stack into
/// `host`; returns the best-of speedup.
fn micro(
    ctx: &Ctx,
    host: &mut JsonReport,
    label: &str,
    program: &Arc<Program>,
    flow: &[Ev],
) -> f64 {
    let req = LayoutRequest::new(
        LayoutStrategy::MicroPosition,
        kcode::ImageConfig::plain("bench").with_outline(true),
    );
    let none = HashSet::new();
    let opt = micro_position(program, flow, &req, &none);
    let seed = reference::micro_position(program, flow, &req, &none);
    assert_eq!(
        opt, seed,
        "{label}: optimized placements diverge from reference"
    );
    let opt = Samples::time_ms(ctx.reps(30), || {
        micro_position(program, flow, &req, &none)
    });
    let seed = Samples::time_ms(ctx.reps(10), || {
        reference::micro_position(program, flow, &req, &none)
    });
    let speedup = seed.min() / opt.min();
    host.samples(format!("{label}_micro_opt_ms"), &opt)
        .samples(format!("{label}_micro_ref_ms"), &seed)
        .field(
            format!("{label}_micro_speedup"),
            format_args!("{speedup:.3}"),
        );
    speedup
}

pub fn run(ctx: &Ctx) -> Outcome {
    let opts = StackOptions::improved();
    let mut out = Outcome::new("layout");

    // The engine whose functional runs feed the micro timings also
    // runs the serial 12-cell synthesis; the parallel side gets its own
    // engine, prewarmed the same way.
    let serial_eng = SweepEngine::new();
    let tcp = serial_eng.tcpip(opts, 2);
    let rpc = serial_eng.rpc(opts, 2);
    micro(
        ctx,
        &mut out.host,
        "tcpip",
        &tcp.run.world.program,
        tcp.flow().events(),
    );
    let rpc_speedup = micro(
        ctx,
        &mut out.host,
        "rpc",
        &rpc.run.world.program,
        rpc.flow().events(),
    );

    let cells_serial = Samples::time_ms(1, || {
        for (stack, v) in grid() {
            serial_eng.layout(stack, opts, 2, v);
        }
    });
    let par_eng = SweepEngine::new();
    par_eng.tcpip(opts, 2);
    par_eng.rpc(opts, 2);
    let cells_parallel = Samples::time_ms(1, || {
        par_map(&grid(), |&(stack, v)| par_eng.layout(stack, opts, 2, v))
    });

    // Memoization hit rate over a full canonical sweep.
    let sweep_eng = SweepEngine::new();
    sweep_eng.sweep(opts, 2);
    let (layout_requests, layout_computed) = sweep_eng.layout_stats();
    let layout_hit_rate = 1.0 - layout_computed as f64 / layout_requests as f64;

    out.model
        .field("layout_requests", layout_requests)
        .field("layout_computed", layout_computed)
        .field("layout_hit_rate", format_args!("{layout_hit_rate:.3}"));
    out.host
        .samples("cells_serial_ms", &cells_serial)
        .samples("cells_parallel_ms", &cells_parallel);
    out.gate(
        Clock::Host,
        "rpc_micro_speedup",
        rpc_speedup,
        Bound::AtLeast(2.0),
    );
    out
}
