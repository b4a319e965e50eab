//! Online re-layout: the adaptive profile-guided loop against static
//! layouts under phase-shifting workloads.
//!
//! Two seeded phase schedules shift the workload's locality structure
//! mid-run:
//!
//! * **mix** — Zipf θ=0.9 → adversarial conflict cycle → Zipf θ=1.1;
//! * **theta** — Zipf skew rotation 0.9 → 0.0 (uniform) → 1.2.
//!
//! The adaptive run starts on the pessimal BAD layout with {BAD, STD,
//! ALL} in its candidate pool; per phase, its settle-excluded steady
//! p99 is compared against every static candidate under the same
//! schedule.  `stride = 0` (sampling off) and a single-candidate pool
//! with sampling on must both reproduce the static run bit for bit, so
//! the profiler's only cost is wall clock, which the host section
//! times.

use protocols::StackOptions;
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::{AdaptSpec, SweepEngine};
use traffic::{
    run_adaptive, run_traffic, AdaptConfig, Candidate, Phase, PhasePlan, ReplayService, StreamKind,
};

use crate::{episodes, serving, us, Bound, Clock, Ctx, Outcome, Samples};
use crate::{RATE_MPS, SESSIONS_PER_WORKER, WORKERS};

/// The static candidate pool the adaptive loop draws from (and the
/// statics it is scored against).  BAD first: it is the initial layout.
const POOL: [Version; 3] = [Version::Bad, Version::Std, Version::All];

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

pub fn run(ctx: &Ctx) -> Outcome {
    let messages = ctx.messages();
    // Phases split the simulated run in three, with the settle window
    // sized so every phase has re-profiled, swapped (sample period +
    // relayout latency ≪ settle) and drained the transition before its
    // steady histogram opens.
    let total_ns = messages as u64 * 1_000_000_000 / RATE_MPS;
    let phase_ns = total_ns / 3;
    let settle_ns = phase_ns * 3 / 5;
    let adapt = AdaptConfig {
        stride: 8,
        window: 48,
        min_dwell_ns: 200_000_000,
        relayout_latency_ns: 50_000_000,
    };
    let base = serving(messages);
    let conflict = StreamKind::Conflict { slots: 8, cycle: 6 };
    let schedules = [
        (
            "mix",
            [
                (StreamKind::Zipf, 900),
                (conflict, 900),
                (StreamKind::Zipf, 1_100),
            ],
        ),
        (
            "theta",
            [
                (StreamKind::Zipf, 900),
                (StreamKind::Zipf, 0),
                (StreamKind::Zipf, 1_200),
            ],
        ),
    ]
    .map(|(name, specs)| (name, schedule(specs, phase_ns, settle_ns)));

    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let stack = StackKind::TcpIp;

    let mut out = Outcome::new("adapt");
    out.model
        .field("workers", WORKERS)
        .field("messages_per_worker", messages)
        .field("sessions_per_worker", SESSIONS_PER_WORKER)
        .field("rate_mps", RATE_MPS)
        .field("phases", 3)
        .field("phase_ms", phase_ns / 1_000_000)
        .field("settle_ms", settle_ns / 1_000_000)
        .field("stride", adapt.stride)
        .field("window", adapt.window)
        .field("min_dwell_ms", adapt.min_dwell_ns / 1_000_000)
        .field("relayout_latency_ms", adapt.relayout_latency_ns / 1_000_000)
        .field("smoke", ctx.smoke);

    let mut max_ratio = 0.0f64;
    let mut never_loses_to_bad = true;
    for (name, plan) in &schedules {
        let cfg = base.with_phases(*plan);
        let run = eng.adapt(
            stack,
            opts,
            2,
            AdaptSpec::new(cfg, adapt, Version::Bad).with_candidates(&POOL),
        );
        let statics: Vec<_> = POOL
            .iter()
            .map(|&v| (v, eng.traffic(stack, opts, 2, v, cfg)))
            .collect();
        let c = &run.adapt.counters;
        let first_applied = run.adapt.swaps.iter().find(|s| !s.noop);
        out.check(
            format!("{name}_leaves_bad_first"),
            c.swaps_applied >= 1 && first_applied.is_some_and(|s| s.from == "BAD"),
        );
        out.model
            .field(format!("{name}_samples"), c.samples)
            .field(format!("{name}_windows"), c.windows)
            .field(format!("{name}_requests"), c.requests)
            .field(format!("{name}_swaps_applied"), c.swaps_applied)
            .field(format!("{name}_swaps_noop"), c.swaps_noop)
            .field(
                format!("{name}_memo_invalidations"),
                run.report.service.invalidations,
            );

        for p in 0..3 {
            let adaptive_p99 = run.report.phase_steady[p].p99();
            let (best_v, best_p99) = statics
                .iter()
                .map(|(v, r)| (*v, r.phase_steady[p].p99()))
                .min_by_key(|&(_, p99)| p99)
                .expect("static pool non-empty");
            let bad_p99 = statics[0].1.phase_steady[p].p99();
            let ratio = adaptive_p99 as f64 / best_p99 as f64;
            max_ratio = max_ratio.max(ratio);
            never_loses_to_bad &= adaptive_p99 < bad_p99;
            out.model
                .field(
                    format!("{name}_p{p}_adaptive_p99_us"),
                    format_args!("{:.3}", us(adaptive_p99)),
                )
                .field(
                    format!("{name}_p{p}_best_static_p99_us"),
                    format_args!("{:.3}", us(best_p99)),
                )
                .text(
                    format!("{name}_p{p}_best_static"),
                    best_v.name().to_lowercase(),
                )
                .field(
                    format!("{name}_p{p}_bad_p99_us"),
                    format_args!("{:.3}", us(bad_p99)),
                )
                .field(format!("{name}_p{p}_ratio"), format_args!("{ratio:.4}"));
        }
    }

    // Sampling off must not change a bit; nor must sampling on with a
    // single candidate, where every verdict names the active layout.
    let cfg = base.with_phases(schedules[0].1);
    let fixed = eng.traffic(stack, opts, 2, Version::Std, cfg);
    let off = AdaptSpec::new(cfg, AdaptConfig { stride: 0, ..adapt }, Version::Std)
        .with_candidates(&POOL);
    let stride_zero_bit_identical = eng.adapt(stack, opts, 2, off).report == *fixed;
    let solo = eng.adapt(
        stack,
        opts,
        2,
        AdaptSpec::new(cfg, adapt, Version::Std).with_candidates(&[Version::Std]),
    );
    let single_candidate_bit_identical = solo.report == *fixed;
    assert!(
        solo.adapt.counters.samples > 0,
        "the solo probe must actually sample"
    );
    assert_eq!(solo.adapt.counters.swaps_applied, 0, "nothing to swap to");

    // Wall-clock cost of the sampling path.
    let img = eng.image(stack, opts, 2, Version::Std);
    let episode = episodes(eng, stack).server_turn;
    let static_ms = Samples::time_ms(ctx.reps(3), || {
        run_traffic(&cfg, |_| ReplayService::new(&img, &episode)).expect("must drain")
    });
    let candidates = [Candidate::new("STD", img.clone())];
    let sampled_ms = Samples::time_ms(ctx.reps(3), || {
        run_adaptive(&cfg, &adapt, &episode, &candidates, 0).expect("must drain")
    });

    let converged_within_5pct = max_ratio <= 1.05;
    out.model
        .field("converged_within_5pct", converged_within_5pct)
        .field("never_loses_to_bad", never_loses_to_bad)
        .field("stride_zero_bit_identical", stride_zero_bit_identical)
        .field(
            "single_candidate_bit_identical",
            single_candidate_bit_identical,
        );
    out.host
        .samples("static_ms", &static_ms)
        .samples("sampled_ms", &sampled_ms)
        .field(
            "sampling_overhead_pct",
            format_args!("{:.2}", (sampled_ms.min() / static_ms.min() - 1.0) * 100.0),
        );
    out.gate(
        Clock::Model,
        "max_phase_ratio",
        max_ratio,
        Bound::AtMost(1.05),
    );
    out.check("never_loses_to_bad", never_loses_to_bad);
    out.check("stride_zero_bit_identical", stride_zero_bit_identical);
    out.check(
        "single_candidate_bit_identical",
        single_candidate_bit_identical,
    );
    out
}
