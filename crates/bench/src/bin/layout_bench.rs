//! Layout-synthesis benchmark: the data-oriented micro-positioner
//! (dense triangular weights, differential offset scoring, sorted
//! interval set) against the seed greedy kept as `layout::reference`,
//! plus the SweepEngine's parallel memoized 12-cell synthesis.
//!
//! Three measurements:
//!
//! * **micro** — one `micro_position` call on each stack's canonical
//!   trace, optimized vs reference (placements sanity-checked equal).
//!   The RPC stack is the paper's many-small-functions worst case; the
//!   bench asserts the optimized placer is at least 2x faster there.
//! * **cells** — synthesizing all 12 experiment layouts (6 versions x
//!   2 stacks): serial direct calls vs the engine's parallel map
//!   (functional runs prewarmed out of both timings).
//! * **memo** — layout-cache traffic of a full canonical sweep: the
//!   hit rate shows how often drivers reuse a synthesized plan.
//!
//! Writes `BENCH_layout.json`; `scripts/bench_smoke.sh` checks the
//! contract.

use std::collections::HashSet;
use std::time::Instant;

use protolat_bench::harness::JsonReport;
use protolat_bench::{RpcCtx, TcpCtx};
use kcode::layout::{micro_position, reference, LayoutRequest, LayoutStrategy};
use protolat_core::sweep::{grid, par_map, SweepEngine};
use protocols::StackOptions;

/// Best-of-`reps` seconds for one invocation of `f`.
fn best_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

struct MicroCell {
    label: String,
    opt_ms: f64,
    ref_ms: f64,
}

fn measure_micro(
    label: &str,
    program: &std::sync::Arc<kcode::Program>,
    canonical: &kcode::EventStream,
) -> MicroCell {
    let req = LayoutRequest::new(
        LayoutStrategy::MicroPosition,
        kcode::ImageConfig::plain("bench").with_outline(true),
    );
    let none = HashSet::new();

    // Sanity: both placers agree before either is timed.
    let opt = micro_position(program, canonical, &req, &none);
    let seed = reference::micro_position(program, canonical, &req, &none);
    assert_eq!(opt, seed, "{label}: optimized placements diverge from reference");

    let opt_ms = best_secs(30, || micro_position(program, canonical, &req, &none)) * 1e3;
    let ref_ms =
        best_secs(10, || reference::micro_position(program, canonical, &req, &none)) * 1e3;
    MicroCell { label: label.to_string(), opt_ms, ref_ms }
}

fn main() {
    let opts = StackOptions::improved();
    let tcp = TcpCtx::new();
    let rpc = RpcCtx::new();

    let tcp_micro = measure_micro("tcpip", &tcp.world.program, &tcp.canonical);
    let rpc_micro = measure_micro("rpc", &rpc.world.program, &rpc.canonical);

    // 12-cell synthesis: serial direct calls vs the engine's parallel
    // map.  Both engines get their functional runs prewarmed so
    // only layout synthesis is on the clock.
    let serial_eng = SweepEngine::new();
    serial_eng.tcpip(opts, 2);
    serial_eng.rpc(opts, 2);
    let t = Instant::now();
    for (stack, v) in grid() {
        serial_eng.layout(stack, opts, 2, v);
    }
    let cells_serial_ms = t.elapsed().as_secs_f64() * 1e3;

    let par_eng = SweepEngine::new();
    par_eng.tcpip(opts, 2);
    par_eng.rpc(opts, 2);
    let t = Instant::now();
    par_map(&grid(), |&(stack, v)| par_eng.layout(stack, opts, 2, v));
    let cells_parallel_ms = t.elapsed().as_secs_f64() * 1e3;

    // Memoization hit rate over a full canonical sweep.
    let sweep_eng = SweepEngine::new();
    sweep_eng.sweep(opts, 2);
    let (layout_requests, layout_computed) = sweep_eng.layout_stats();
    let layout_hit_rate = 1.0 - layout_computed as f64 / layout_requests as f64;

    let tcp_speedup = tcp_micro.ref_ms / tcp_micro.opt_ms;
    let rpc_speedup = rpc_micro.ref_ms / rpc_micro.opt_ms;

    println!("layout synthesis (best-of, ms):");
    println!("  {:<8} {:>10} {:>10} {:>9}", "stack", "optimized", "reference", "speedup");
    for c in [&tcp_micro, &rpc_micro] {
        println!(
            "  {:<8} {:>10.3} {:>10.3} {:>8.2}x",
            c.label,
            c.opt_ms,
            c.ref_ms,
            c.ref_ms / c.opt_ms
        );
    }
    println!("  12-cell synthesis serial:   {cells_serial_ms:>8.2} ms");
    println!("  12-cell synthesis parallel: {cells_parallel_ms:>8.2} ms");
    println!(
        "  sweep layout memo: {layout_requests} requests, {layout_computed} computed \
         ({:.0}% hit rate)",
        layout_hit_rate * 100.0
    );

    let mut report = JsonReport::new("layout");
    report
        .field("tcpip_micro_opt_ms", format_args!("{:.4}", tcp_micro.opt_ms))
        .field("tcpip_micro_ref_ms", format_args!("{:.4}", tcp_micro.ref_ms))
        .field("tcpip_micro_speedup", format_args!("{tcp_speedup:.3}"))
        .field("rpc_micro_opt_ms", format_args!("{:.4}", rpc_micro.opt_ms))
        .field("rpc_micro_ref_ms", format_args!("{:.4}", rpc_micro.ref_ms))
        .field("rpc_micro_speedup", format_args!("{rpc_speedup:.3}"))
        .field("cells_serial_ms", format_args!("{cells_serial_ms:.3}"))
        .field("cells_parallel_ms", format_args!("{cells_parallel_ms:.3}"))
        .field("layout_requests", layout_requests)
        .field("layout_computed", layout_computed)
        .field("layout_hit_rate", format_args!("{layout_hit_rate:.3}"));
    report.write("BENCH_layout.json");

    assert!(
        rpc_speedup >= 2.0,
        "optimized micro-positioning must be >= 2x the reference on the RPC stack \
         (got {rpc_speedup:.2}x)"
    );
}
