//! Replay→simulate throughput: the data-oriented hot loop (lean
//! streaming replay fused into the flat-taxonomy machine model) against
//! the seed pipeline (materialized trace with full fetch-set statistics,
//! simulated on the scalar `reference` model kept in-tree).
//!
//! Instructions per second over one full roundtrip (client-out,
//! client-in, server-turn) for STD and ALL images of both stacks:
//!
//! * **fresh** — each iteration builds a cold machine, the sweep
//!   engine's per-cell cost (the image builds its replay plan on its
//!   first replay, so no iteration pays for one);
//! * **warm** — the machine persists, counters reset per pass, the
//!   roundtrip timer's steady-state cost;
//! * **null warm** — the lean replay alone, into a [`NullSink`], so the
//!   fused warm cost splits into replay and machine.

use alpha_machine::{reference, Machine};
use kcode::{Image, NullSink};
use protocols::StackOptions;
use protolat_core::config::{StackKind, Version};
use protolat_core::harness::RoundtripEpisodes;
use protolat_core::sweep::SweepEngine;

use crate::{episodes, stack_key, Bound, Clock, Ctx, Outcome, Samples};

/// Dynamic instructions in one roundtrip of `image`: a lean replay of
/// each episode into a [`NullSink`].
fn roundtrip_insts(episodes: &RoundtripEpisodes, image: &Image) -> u64 {
    [
        &episodes.client_out,
        &episodes.client_in,
        &episodes.server_turn,
    ]
    .into_iter()
    .map(|ep| {
        image.replay_into_lean(ep, &mut NullSink)
            .expect("episode must replay cleanly")
    })
    .sum()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let eng = SweepEngine::global();
    let mut out = Outcome::new("replay");
    let (mut min_fresh_speedup, mut min_warm_speedup) = (f64::INFINITY, f64::INFINITY);
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        let episodes = episodes(eng, stack);
        let eps = [
            &episodes.client_out,
            &episodes.client_in,
            &episodes.server_turn,
        ];
        for v in [Version::Std, Version::All] {
            let image = &*eng.image(stack, StackOptions::improved(), 2, v);
            let label = format!("{}_{}", stack_key(stack), v.name().to_lowercase());
            let insts = roundtrip_insts(&episodes, image);

            // Optimized stack, fresh: a cold machine per iteration.
            let fused_fresh = Samples::time_ms(ctx.reps(15), || {
                let mut m = Machine::dec3000_600();
                for ep in eps {
                    image.replay_into_lean(ep, &mut m)
                        .expect("episode must replay cleanly");
                }
                m.mem.stall_cycles()
            });
            // Optimized stack, warm: a persistent machine.
            let mut m = Machine::dec3000_600();
            let fused_warm = Samples::time_ms(ctx.reps(30), || {
                m.reset_stats();
                for ep in eps {
                    image.replay_into_lean(ep, &mut m)
                        .expect("episode must replay cleanly");
                }
                m.mem.stall_cycles()
            });
            // Replay alone, warm: the plan is built, nothing simulates.
            let null_warm = Samples::time_ms(ctx.reps(30), || roundtrip_insts(&episodes, image));
            // Seed pipeline, fresh: materialized trace with full
            // fetch-set statistics on the scalar reference model.
            let materialized_fresh = Samples::time_ms(ctx.reps(15), || {
                let mut m = reference::Machine::dec3000_600();
                for ep in eps {
                    m.run_accumulate(&image.replay(ep).expect("episode must replay cleanly").trace);
                }
                m.mem.stall_cycles()
            });
            // Seed pipeline, warm.
            let mut m_ref = reference::Machine::dec3000_600();
            let materialized_warm = Samples::time_ms(ctx.reps(30), || {
                m_ref.reset_stats();
                for ep in eps {
                    m_ref.run_accumulate(
                        &image.replay(ep).expect("episode must replay cleanly").trace,
                    );
                }
                m_ref.mem.stall_cycles()
            });

            // Best-of throughput: instructions over the fastest sample.
            min_fresh_speedup = min_fresh_speedup.min(materialized_fresh.min() / fused_fresh.min());
            min_warm_speedup = min_warm_speedup.min(materialized_warm.min() / fused_warm.min());
            let ips = |s: &Samples| s.map(|ms| insts as f64 * 1e3 / ms);
            out.model.field(format!("{label}_insts"), insts);
            out.host
                .samples(format!("{label}_fused_fresh_ips"), &ips(&fused_fresh))
                .samples(format!("{label}_fused_warm_ips"), &ips(&fused_warm))
                .samples(format!("{label}_null_warm_ips"), &ips(&null_warm))
                .samples(
                    format!("{label}_materialized_fresh_ips"),
                    &ips(&materialized_fresh),
                )
                .samples(
                    format!("{label}_materialized_warm_ips"),
                    &ips(&materialized_warm),
                );
        }
    }
    out.host
        .field("min_fresh_speedup", format_args!("{min_fresh_speedup:.3}"))
        .field("min_warm_speedup", format_args!("{min_warm_speedup:.3}"));
    out.gate(
        Clock::Host,
        "min_fresh_speedup",
        min_fresh_speedup,
        Bound::AtLeast(2.0),
    );
    out
}
