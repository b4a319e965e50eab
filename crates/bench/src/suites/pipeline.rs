//! End-to-end pipeline: the experiment workload computed the pre-engine
//! way (every consumer rebuilds world, functional run, image and replay
//! from scratch) vs through the memoized parallel [`SweepEngine`], plus
//! per-stage costs of the measurement pipeline (functional run, image
//! build, materialized vs fused replay).
//!
//! The two replay stages time one TCP/IP STD roundtrip each way.  The
//! fused path (`time_roundtrip_with`) replays each of the three
//! episodes twice, once for the warm-up pass and once for the measured
//! pass, and stores nothing.  The materialized path
//! (`time_roundtrip_materialized`, two `time_host_materialized` calls)
//! replays each episode once into a trace and steps the stored trace
//! twice.  So the `replay_fused_ms` gate asks whether fusion beats
//! storage: whether a second replay streamed into the machine costs
//! less than writing one trace and reading it back.
//!
//! The workload models what `experiments::run_all` demands: three
//! drivers (Tables 4, 7 and 8) each consume the full 6-version x 2-stack
//! roundtrip-timing sweep, and two drivers (Tables 6 and 8) each consume
//! the full cold-cache sweep.  Before the engine, each driver recomputed
//! every cell; the engine computes each cell once and serves the rest
//! from the cache.

use protocols::StackOptions;
use protolat_core::config::Version;
use protolat_core::harness::ping_pong;
use protolat_core::sweep::{grid, SweepEngine};
use protolat_core::timing::{
    cold_client_stats, time_roundtrip_materialized, time_roundtrip_with, UNTRACED_PER_HOP_US,
};
use protolat_core::world::{TcpIp, World};

use crate::{Bound, Clock, Ctx, Outcome, Samples};

/// How many experiment drivers consume each sweep (see module docs).
const TIMING_CONSUMERS: usize = 3;
const COLD_CONSUMERS: usize = 2;

/// One pre-engine sweep pass: every (stack, version) cell builds its own
/// world, functional run and images before timing it — each through a
/// fresh engine, which shares nothing with any other cell.
fn fresh_timing_sweep(opts: StackOptions) {
    for (stack, v) in grid() {
        std::hint::black_box(SweepEngine::new().timing(stack, opts, 2, v));
    }
}

/// One pre-engine cold-cache sweep pass.
fn fresh_cold_sweep(opts: StackOptions) {
    for (stack, v) in grid() {
        let eng = SweepEngine::new();
        let img = eng.image(stack, opts, 2, v);
        std::hint::black_box(cold_client_stats(eng.run(stack, opts, 2).episodes(), &img));
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let opts = StackOptions::improved();

    // Per-stage costs of one TCP/IP STD cell.
    let functional_run =
        Samples::time_ms(ctx.reps(3), || ping_pong(World::<TcpIp>::build(opts), 2));
    let run = ping_pong(World::<TcpIp>::build(opts), 2);
    let flow = run.episodes.client_flow();
    let image_build = Samples::time_ms(ctx.reps(3), || {
        Version::Std.build(&run.world, &flow)
    });
    let img = Version::Std.build(&run.world, &flow);
    let f_tx = run.world.lance_model.f_tx;
    let replay_materialized = Samples::time_ms(ctx.reps(5), || {
        time_roundtrip_materialized(&run.episodes, &img, &img, f_tx, UNTRACED_PER_HOP_US)
    });
    let replay_fused = Samples::time_ms(ctx.reps(5), || {
        time_roundtrip_with(&run.episodes, &img, &img, f_tx, UNTRACED_PER_HOP_US)
    });

    // The experiment workload, fresh per consumer, then through the
    // memoized parallel engine (one sample each: the engine is only
    // cold once).
    let fresh_serial = Samples::time_ms(1, || {
        for _ in 0..TIMING_CONSUMERS {
            fresh_timing_sweep(opts);
        }
        for _ in 0..COLD_CONSUMERS {
            fresh_cold_sweep(opts);
        }
    });
    let eng = SweepEngine::new();
    let mut rows = 0;
    let memoized_parallel = Samples::time_ms(1, || {
        rows = eng.sweep(opts, 2).len(); // every cell, in parallel
        for _ in 0..TIMING_CONSUMERS {
            for (stack, v) in grid() {
                std::hint::black_box(eng.timing(stack, opts, 2, v));
            }
        }
        for _ in 0..COLD_CONSUMERS {
            for (stack, v) in grid() {
                std::hint::black_box(eng.cold_stats(stack, opts, 2, v));
            }
        }
    });
    let counters = eng.counters();
    let speedup = fresh_serial.min() / memoized_parallel.min();

    let mut out = Outcome::new("pipeline");
    out.model
        .field("timing_consumers", TIMING_CONSUMERS)
        .field("cold_consumers", COLD_CONSUMERS)
        .field("rows", rows)
        .field(
            "counters",
            format_args!(
                "{{\"runs\": {}, \"images\": {}, \"timings\": {}, \"cold_stats\": {}}}",
                counters.runs, counters.images, counters.timings, counters.cold_stats
            ),
        );
    out.host
        .samples("fresh_serial_ms", &fresh_serial)
        .samples("memoized_parallel_ms", &memoized_parallel)
        .field("speedup", format_args!("{speedup:.3}"))
        .samples("functional_run_ms", &functional_run)
        .samples("image_build_ms", &image_build)
        .samples("replay_materialized_ms", &replay_materialized)
        .samples("replay_fused_ms", &replay_fused);
    out.gate(Clock::Host, "speedup", speedup, Bound::AtLeast(2.0));
    out.gate(
        Clock::Host,
        "replay_fused_ms",
        replay_fused.min(),
        Bound::AtMost(replay_materialized.min()),
    );
    out
}
