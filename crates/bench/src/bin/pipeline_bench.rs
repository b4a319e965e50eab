//! End-to-end pipeline benchmark: the experiment workload computed the
//! pre-engine way (every consumer rebuilds world, functional run, image
//! and replay from scratch) vs through the memoized parallel
//! [`SweepEngine`], plus per-stage costs of the measurement pipeline
//! (functional run, image build, materialized vs fused replay).
//!
//! The workload models what `experiments::run_all` actually demands:
//! three drivers (Tables 4, 7 and 8) each consume the full 6-version x
//! 2-stack roundtrip-timing sweep, and two drivers (Tables 6 and 8)
//! each consume the full cold-cache sweep.  Before the engine, each
//! driver recomputed every cell; the engine computes each cell once and
//! serves the rest from the cache.
//!
//! Writes `BENCH_pipeline.json` for `scripts/bench_smoke.sh`.

use std::time::Instant;

use protolat_bench::harness::JsonReport;
use protolat_core::config::{StackKind, Version};
use protolat_core::harness::{run_rpc, run_tcpip};
use protolat_core::sweep::SweepEngine;
use protolat_core::timing::{
    cold_client_stats, time_roundtrip_materialized, time_roundtrip_with,
    RPC_UNTRACED_PER_HOP_US, UNTRACED_PER_HOP_US,
};
use protolat_core::world::{RpcWorld, TcpIpWorld};
use protocols::StackOptions;

/// How many experiment drivers consume each sweep (see module docs).
const TIMING_CONSUMERS: usize = 3;
const COLD_CONSUMERS: usize = 2;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Best-of-`reps` wall-clock milliseconds for `f`.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(ms(t));
    }
    best
}

/// One pre-engine sweep pass: every (stack, version) cell builds its own
/// world, functional run and image before timing it.
fn fresh_timing_sweep(opts: StackOptions) {
    for v in Version::all() {
        let run = run_tcpip(TcpIpWorld::build(opts), 2);
        let canonical = run.episodes.client_trace();
        let img = v.build_tcpip(&run.world, &canonical);
        std::hint::black_box(time_roundtrip_with(
            &run.episodes,
            &img,
            &img,
            run.world.lance_model.f_tx,
            UNTRACED_PER_HOP_US,
        ));
    }
    for v in Version::all() {
        let run = run_rpc(RpcWorld::build(opts), 2);
        let canonical = run.episodes.client_trace();
        let img = v.build_rpc(&run.world, &canonical);
        let server = Version::All.build_rpc(&run.world, &canonical);
        std::hint::black_box(time_roundtrip_with(
            &run.episodes,
            &img,
            &server,
            run.world.lance_model.f_tx,
            RPC_UNTRACED_PER_HOP_US,
        ));
    }
}

/// One pre-engine cold-cache sweep pass.
fn fresh_cold_sweep(opts: StackOptions) {
    for v in Version::all() {
        let run = run_tcpip(TcpIpWorld::build(opts), 2);
        let canonical = run.episodes.client_trace();
        let img = v.build_tcpip(&run.world, &canonical);
        std::hint::black_box(cold_client_stats(&run.episodes, &img));
    }
    for v in Version::all() {
        let run = run_rpc(RpcWorld::build(opts), 2);
        let canonical = run.episodes.client_trace();
        let img = v.build_rpc(&run.world, &canonical);
        std::hint::black_box(cold_client_stats(&run.episodes, &img));
    }
}

fn main() {
    let opts = StackOptions::improved();

    // --- per-stage costs (one TCP/IP STD cell) -------------------------
    let functional_run_ms = time_ms(3, || run_tcpip(TcpIpWorld::build(opts), 2));
    let run = run_tcpip(TcpIpWorld::build(opts), 2);
    let canonical = run.episodes.client_trace();
    let image_build_ms = time_ms(3, || Version::Std.build_tcpip(&run.world, &canonical));
    let img = Version::Std.build_tcpip(&run.world, &canonical);
    let f_tx = run.world.lance_model.f_tx;
    let replay_materialized_ms = time_ms(5, || {
        time_roundtrip_materialized(&run.episodes, &img, &img, f_tx, UNTRACED_PER_HOP_US)
    });
    let replay_fused_ms = time_ms(5, || {
        time_roundtrip_with(&run.episodes, &img, &img, f_tx, UNTRACED_PER_HOP_US)
    });

    // --- the experiment workload: fresh per consumer -------------------
    let t = Instant::now();
    for _ in 0..TIMING_CONSUMERS {
        fresh_timing_sweep(opts);
    }
    for _ in 0..COLD_CONSUMERS {
        fresh_cold_sweep(opts);
    }
    let fresh_serial_ms = ms(t);

    // --- the same workload through the memoized parallel engine --------
    let eng = SweepEngine::new();
    let t = Instant::now();
    let rows = eng.sweep(opts, 2); // every cell, in parallel
    for _ in 0..TIMING_CONSUMERS {
        for stack in [StackKind::TcpIp, StackKind::Rpc] {
            for v in Version::all() {
                std::hint::black_box(eng.timing(stack, opts, 2, v));
            }
        }
    }
    for _ in 0..COLD_CONSUMERS {
        for stack in [StackKind::TcpIp, StackKind::Rpc] {
            for v in Version::all() {
                std::hint::black_box(eng.cold_stats(stack, opts, 2, v));
            }
        }
    }
    let memoized_parallel_ms = ms(t);
    let counters = eng.counters();
    let speedup = fresh_serial_ms / memoized_parallel_ms;

    println!("pipeline stage costs (TCP/IP STD cell):");
    println!("  functional run        {functional_run_ms:>9.2} ms");
    println!("  image build           {image_build_ms:>9.2} ms");
    println!("  replay (materialized) {replay_materialized_ms:>9.2} ms");
    println!("  replay (fused)        {replay_fused_ms:>9.2} ms");
    println!();
    println!(
        "experiment workload ({TIMING_CONSUMERS} timing consumers + {COLD_CONSUMERS} \
         cold-cache consumers of the {}-row sweep):",
        rows.len()
    );
    println!("  fresh serial          {fresh_serial_ms:>9.2} ms");
    println!("  memoized parallel     {memoized_parallel_ms:>9.2} ms");
    println!("  speedup               {speedup:>9.2} x");
    println!(
        "  engine computed: {} runs, {} images, {} timings, {} cold-stats \
         (each cell exactly once)",
        counters.runs, counters.images, counters.timings, counters.cold_stats
    );

    let mut report = JsonReport::new("pipeline");
    report
        .field("timing_consumers", TIMING_CONSUMERS)
        .field("cold_consumers", COLD_CONSUMERS)
        .field("fresh_serial_ms", format_args!("{fresh_serial_ms:.3}"))
        .field("memoized_parallel_ms", format_args!("{memoized_parallel_ms:.3}"))
        .field("speedup", format_args!("{speedup:.3}"))
        .field("rows", rows.len())
        .field(
            "counters",
            format_args!(
                "{{\"runs\": {}, \"images\": {}, \"timings\": {}, \"cold_stats\": {}}}",
                counters.runs, counters.images, counters.timings, counters.cold_stats
            ),
        )
        .field(
            "stages",
            format_args!(
                "{{\n    \"functional_run_ms\": {functional_run_ms:.3},\n    \
                 \"image_build_ms\": {image_build_ms:.3},\n    \
                 \"replay_materialized_ms\": {replay_materialized_ms:.3},\n    \
                 \"replay_fused_ms\": {replay_fused_ms:.3}\n  }}"
            ),
        );
    report.write("BENCH_pipeline.json");

    assert!(
        speedup >= 2.0,
        "memoized engine must beat per-consumer recomputation at least 2x (got {speedup:.2}x)"
    );
    assert!(
        replay_fused_ms <= replay_materialized_ms,
        "fused streaming replay must not lose to the materialized pipeline \
         (fused {replay_fused_ms:.3} ms vs materialized {replay_materialized_ms:.3} ms)"
    );
}
