//! Online re-layout benchmark: the adaptive profile-guided loop
//! against static layouts under phase-shifting workloads.
//!
//! Every other bench measures a *fixed* layout; this one measures the
//! `traffic::adapt` loop end to end.  Two seeded phase schedules shift
//! the workload's locality structure mid-run:
//!
//! * **mix** — Zipf θ=0.9 → adversarial conflict cycle → Zipf θ=1.1;
//! * **theta** — Zipf skew rotation 0.9 → 0.0 (uniform) → 1.2.
//!
//! The ADAPTIVE run starts on the pessimal BAD layout with {BAD, STD,
//! ALL} in its candidate pool; per phase, its settle-excluded steady
//! p99 is compared against every static candidate run under the same
//! schedule.  Acceptance:
//!
//! * per phase, ADAPTIVE's steady p99 is within 5% of the best static
//!   candidate's (it re-converges after every shift);
//! * per phase, ADAPTIVE strictly beats static BAD (it never loses to
//!   the layout it started on);
//! * `stride = 0` (sampling off) reproduces the static run bit for bit;
//! * a single-candidate pool with sampling *on* also reproduces the
//!   static run bit for bit — the profiler adds zero simulated
//!   overhead, so its only cost is wall clock, which is measured and
//!   printed (JSON carries exclusively deterministic modelled values;
//!   `scripts/bench_smoke.sh` drives the `ADAPT_SMOKE=1` reduced run
//!   twice and `cmp`s the files).
//!
//! Writes `BENCH_adapt.json` (override with `BENCH_ADAPT_PATH`).

use std::time::Instant;

use protolat_bench::harness::JsonReport;
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::{AdaptSpec, SweepEngine};
use protocols::StackOptions;
use traffic::{
    run_adaptive, run_traffic, AdaptConfig, Candidate, Phase, PhasePlan, ReplayService,
    StreamKind, TrafficConfig,
};

const WORKERS: u32 = 4;
const SESSIONS_PER_WORKER: u32 = 512;
const RATE_MPS: u64 = 2_000;

/// The static candidate pool the adaptive loop draws from (and the
/// statics it is scored against).  BAD first: it is the initial layout.
const POOL: [Version; 3] = [Version::Bad, Version::Std, Version::All];

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// A three-phase schedule over the run: two fixed-length phases and a
/// trailing "rest of the run" phase, all sharing one settle window.
fn schedule(specs: [(StreamKind, u32); 3], phase_ns: u64, settle_ns: u64) -> PhasePlan {
    let phase = |i: usize| Phase {
        stream: specs[i].0,
        milli_theta: specs[i].1,
        duration_ns: if i == 2 { 0 } else { phase_ns },
        settle_ns,
    };
    PhasePlan::new(&[phase(0), phase(1), phase(2)])
}

fn main() {
    let smoke = std::env::var("ADAPT_SMOKE").is_ok_and(|v| v == "1");
    let out_path = std::env::var("BENCH_ADAPT_PATH").unwrap_or_else(|_| "BENCH_adapt.json".into());
    let messages_per_worker: u32 = if smoke { 4_000 } else { 20_000 };

    // Total simulated time is messages/rate; phases split it in three,
    // with the settle window sized so every phase has re-profiled,
    // swapped (sample period + relayout latency ≪ settle) and drained
    // the transition before its steady histogram opens.
    let total_ns = messages_per_worker as u64 * 1_000_000_000 / RATE_MPS;
    let phase_ns = total_ns / 3;
    let settle_ns = phase_ns * 3 / 5;

    let adapt = AdaptConfig {
        stride: 8,
        window: 48,
        min_dwell_ns: 200_000_000,
        relayout_latency_ns: 50_000_000,
    };

    let base = TrafficConfig::open_loop(RATE_MPS, messages_per_worker, SESSIONS_PER_WORKER)
        .with_workers(WORKERS)
        .with_shards(8, 24)
        .with_theta(900)
        .with_seed(0x7EA5)
        .with_faults(3_000, 1_500, 3_000, 1_500);

    let schedules: [(&str, PhasePlan); 2] = [
        (
            "mix",
            schedule(
                [
                    (StreamKind::Zipf, 900),
                    (StreamKind::Conflict { slots: 8, cycle: 6 }, 900),
                    (StreamKind::Zipf, 1_100),
                ],
                phase_ns,
                settle_ns,
            ),
        ),
        (
            "theta",
            schedule(
                [(StreamKind::Zipf, 900), (StreamKind::Zipf, 0), (StreamKind::Zipf, 1_200)],
                phase_ns,
                settle_ns,
            ),
        ),
    ];

    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let stack = StackKind::TcpIp;

    println!(
        "adaptive re-layout: tcpip, {} workers x {} msgs, {} sessions/worker, \
         3 phases x {:.1}s (settle {:.1}s), stride {} window {}, relayout {} ms{}",
        WORKERS,
        messages_per_worker,
        SESSIONS_PER_WORKER,
        phase_ns as f64 / 1e9,
        settle_ns as f64 / 1e9,
        adapt.stride,
        adapt.window,
        adapt.relayout_latency_ns / 1_000_000,
        if smoke { " [smoke]" } else { "" },
    );

    let mut report = JsonReport::new("adapt");
    report
        .field("workers", WORKERS)
        .field("messages_per_worker", messages_per_worker)
        .field("sessions_per_worker", SESSIONS_PER_WORKER)
        .field("rate_mps", RATE_MPS)
        .field("phases", 3)
        .field("phase_ms", phase_ns / 1_000_000)
        .field("settle_ms", settle_ns / 1_000_000)
        .field("stride", adapt.stride)
        .field("window", adapt.window)
        .field("min_dwell_ms", adapt.min_dwell_ns / 1_000_000)
        .field("relayout_latency_ms", adapt.relayout_latency_ns / 1_000_000)
        .field("smoke", smoke);

    let mut converged_within_5pct = true;
    let mut never_loses_to_bad = true;

    for (name, plan) in &schedules {
        let cfg = base.with_phases(*plan);
        let spec =
            AdaptSpec::new(cfg, adapt, Version::Bad).with_candidates(&POOL);
        let out = eng.adapt(stack, opts, 2, spec);
        let statics: Vec<_> =
            POOL.iter().map(|&v| (v, eng.traffic(stack, opts, 2, v, cfg))).collect();

        assert!(
            out.adapt.counters.swaps_applied >= 1,
            "{name}: the loop never moved off the BAD initial layout"
        );
        let first = out.adapt.swaps.iter().find(|s| !s.noop).expect("an applied swap");
        assert_eq!(first.from, "BAD", "{name}: first applied swap must leave the initial layout");

        println!("\nschedule {name}: {} swaps applied, {} noop, {} windows, {} samples",
            out.adapt.counters.swaps_applied,
            out.adapt.counters.swaps_noop,
            out.adapt.counters.windows,
            out.adapt.counters.samples,
        );
        for s in out.adapt.swaps.iter().filter(|s| !s.noop) {
            println!("  lane {} @ {:.2}s: {} -> {}", s.lane, s.at as f64 / 1e9, s.from, s.to);
        }
        println!(
            "  {:<7} {:>14} {:>16} {:>6} {:>14} {:>8}",
            "phase", "adaptive p99", "best static p99", "best", "BAD p99", "ratio"
        );

        report
            .field(format!("{name}_samples"), out.adapt.counters.samples)
            .field(format!("{name}_windows"), out.adapt.counters.windows)
            .field(format!("{name}_requests"), out.adapt.counters.requests)
            .field(format!("{name}_swaps_applied"), out.adapt.counters.swaps_applied)
            .field(format!("{name}_swaps_noop"), out.adapt.counters.swaps_noop)
            .field(format!("{name}_memo_invalidations"), out.report.service.invalidations);

        for p in 0..3 {
            let adaptive_p99 = out.report.phase_steady[p].p99();
            let (best_v, best_p99) = statics
                .iter()
                .map(|(v, r)| (*v, r.phase_steady[p].p99()))
                .min_by_key(|&(_, p99)| p99)
                .expect("static pool non-empty");
            let bad_p99 = statics
                .iter()
                .find(|(v, _)| *v == Version::Bad)
                .map(|(_, r)| r.phase_steady[p].p99())
                .expect("BAD in pool");
            let ratio = adaptive_p99 as f64 / best_p99 as f64;
            println!(
                "  {:<7} {:>11.1} µs {:>13.1} µs {:>6} {:>11.1} µs {:>8.4}",
                p,
                us(adaptive_p99),
                us(best_p99),
                best_v.name(),
                us(bad_p99),
                ratio,
            );
            converged_within_5pct &= ratio <= 1.05;
            never_loses_to_bad &= adaptive_p99 < bad_p99;

            report.field(
                format!("{name}_p{p}_adaptive_p99_us"),
                format_args!("{:.3}", us(adaptive_p99)),
            );
            report.field(
                format!("{name}_p{p}_best_static_p99_us"),
                format_args!("{:.3}", us(best_p99)),
            );
            report.text(format!("{name}_p{p}_best_static"), best_v.name().to_lowercase());
            report.field(format!("{name}_p{p}_bad_p99_us"), format_args!("{:.3}", us(bad_p99)));
            report.field(format!("{name}_p{p}_ratio"), format_args!("{ratio:.4}"));
        }
    }

    // --- sampling-off passthrough: stride 0 must not change a bit -----
    let cfg = base.with_phases(schedules[0].1);
    let off =
        AdaptSpec::new(cfg, AdaptConfig { stride: 0, ..adapt }, Version::Std).with_candidates(&POOL);
    let off_out = eng.adapt(stack, opts, 2, off);
    let fixed = eng.traffic(stack, opts, 2, Version::Std, cfg);
    let stride_zero_bit_identical = off_out.report == *fixed;
    assert!(
        stride_zero_bit_identical,
        "stride 0 must be a bit-identical passthrough to the static service"
    );
    println!("\nsampling-off probe: stride 0 reproduced static STD bit-for-bit");

    // --- sampling-on, single candidate: zero *simulated* overhead -----
    // The profiler samples and the worker scores, but every verdict
    // names the already-active layout, so serving is untouched.
    let solo = AdaptSpec::new(cfg, adapt, Version::Std).with_candidates(&[Version::Std]);
    let solo_out = eng.adapt(stack, opts, 2, solo);
    let single_candidate_bit_identical = solo_out.report == *fixed;
    assert!(
        single_candidate_bit_identical,
        "sampling must not perturb the simulation: single-candidate run diverged"
    );
    assert!(solo_out.adapt.counters.samples > 0, "the solo probe must actually sample");
    assert_eq!(solo_out.adapt.counters.swaps_applied, 0, "nothing to swap to");
    println!("sampling-on probe: single-candidate run reproduced static STD bit-for-bit");

    // --- wall-clock overhead of the sampling path (stdout only: wall
    // clock is not deterministic, the JSON contract is) ----------------
    let img = eng.image(stack, opts, 2, Version::Std);
    let episode = eng.tcpip(opts, 2).run.episodes.server_turn.clone();
    let best_secs = |f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let static_secs = best_secs(&mut || {
        run_traffic(&cfg, |_| ReplayService::new(&img, &episode)).expect("must drain");
    });
    let sampled_secs = best_secs(&mut || {
        let candidates = [Candidate::new("STD", std::sync::Arc::clone(&img))];
        run_adaptive(&cfg, &adapt, &episode, &candidates, 0).expect("must drain");
    });
    let overhead_pct = (sampled_secs / static_secs - 1.0) * 100.0;
    println!(
        "sampling wall-clock overhead: static {:.1} ms, sampled {:.1} ms ({overhead_pct:+.1}%)",
        static_secs * 1e3,
        sampled_secs * 1e3,
    );

    // --- acceptance ---------------------------------------------------
    report
        .field("converged_within_5pct", converged_within_5pct)
        .field("never_loses_to_bad", never_loses_to_bad)
        .field("stride_zero_bit_identical", stride_zero_bit_identical)
        .field("single_candidate_bit_identical", single_candidate_bit_identical);
    report.write(&out_path);

    assert!(
        converged_within_5pct,
        "adaptive steady p99 drifted more than 5% above the per-phase best static layout"
    );
    assert!(
        never_loses_to_bad,
        "adaptive steady p99 failed to strictly beat static BAD in some phase"
    );
}
