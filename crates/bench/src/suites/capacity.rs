//! Load-ramp capacity: throughput-vs-p99 curves and the saturation knee
//! of every (stack, layout) cell.
//!
//! The traffic suite measures every cell at one offered rate far below
//! saturation, where layout quality shows up only as latency.  This
//! suite climbs a geometric offered-rate ladder per cell and finds the
//! *knee*: the first rate where p99 exceeds the latency SLO (1 ms) or
//! achieved throughput falls below 97% of offered.  The rungs below the
//! knee define the cell's max sustainable rate — layout quality
//! expressed as *capacity*.

use protocols::StackOptions;
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::{CapacityRamp, SweepEngine};
use traffic::runloop::reference;
use traffic::ReplayService;

use crate::{episodes, serving, stack_key, us, Bound, Clock, Ctx, Outcome, Samples};
use crate::{RATE_MPS, SESSIONS_PER_WORKER, WORKERS};

/// The seed sweep's aggregate throughput plateau (all 12 cells pinned
/// at the offered rate); the dispatch-plane floor is 2×.
const SEED_PLATEAU_MPS: f64 = 7_953.0;

pub fn run(ctx: &Ctx) -> Outcome {
    let messages = ctx.messages();
    let ramp = CapacityRamp::new(serving(messages), RATE_MPS);
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();

    let mut rows = Vec::new();
    let sweep = Samples::time_ms(1, || rows = eng.capacity_sweep(opts, 2, ramp));

    // Curve shape: the ladder stops at its knee and climbs strictly.
    for (stack, version, curve) in &rows {
        let cell = format!("{}/{}", stack_key(*stack), version.name());
        assert!(
            curve.knee_offered_mps.is_some(),
            "{cell}: ladder topped out without finding a knee — raise max_rungs"
        );
        for w in curve.points.windows(2) {
            assert!(
                w[1].offered_mps > w[0].offered_mps,
                "{cell}: offered rate not increasing"
            );
        }
        for p in &curve.points[..curve.points.len() - 1] {
            assert!(!p.violated, "{cell}: non-terminal rung marked as violating");
        }
    }

    // Each bisection-refined knee lies in its bracketing rungs
    // (last good rung, ladder knee], and every probe strictly inside.
    let refined_knees_bracketed = rows.iter().all(|(_, _, curve)| {
        let ladder_knee = curve.knee_offered_mps.expect("knee asserted above");
        let last_good = curve
            .points
            .iter()
            .rev()
            .find(|p| !p.violated)
            .map(|p| p.offered_mps);
        match (last_good, curve.refined_knee_mps) {
            (Some(lo), Some(refined)) => {
                lo < refined
                    && refined <= ladder_knee
                    && curve
                        .refined
                        .iter()
                        .all(|p| p.offered_mps > lo && p.offered_mps < ladder_knee)
            }
            (None, refined) => refined.is_none(),
            (Some(_), None) => false,
        }
    });

    // The dispatch plane against the seed FIFO at the seed rate, and a
    // memo-cold engine against a memoized curve.
    let seed_cfg = ramp.rung_config(RATE_MPS);
    let img = eng.image(StackKind::TcpIp, opts, 2, Version::Std);
    let episode = episodes(eng, StackKind::TcpIp).server_turn;
    let fifo = reference::run_traffic(&seed_cfg, |_| ReplayService::new(&img, &episode))
        .expect("reference run must drain");
    let seed_rate_bit_identical =
        *eng.traffic(StackKind::TcpIp, opts, 2, Version::Std, seed_cfg) == fifo;
    let cached = eng.capacity(StackKind::TcpIp, opts, 2, Version::All, ramp);
    let recomputed = SweepEngine::new().capacity(StackKind::TcpIp, opts, 2, Version::All, ramp);

    let best = rows
        .iter()
        .max_by(|a, b| a.2.max_sustainable_mps.total_cmp(&b.2.max_sustainable_mps))
        .expect("rows non-empty");
    let best_mps = best.2.max_sustainable_mps;

    let mut out = Outcome::new("capacity");
    let m = &mut out.model;
    m.field("workers", WORKERS)
        .field("messages_per_worker", messages)
        .field("sessions_per_worker", SESSIONS_PER_WORKER)
        .field("start_rate_mps", ramp.start_rate_mps)
        .text(
            "growth",
            format_args!("{}x/{}", ramp.growth_num, ramp.growth_den),
        )
        .field("max_rungs", ramp.max_rungs)
        .field(
            "slo_p99_us",
            format_args!("{:.1}", ramp.slo_p99_ns as f64 / 1e3),
        )
        .field("min_achieved_ppt", ramp.min_achieved_ppt)
        .field("smoke", ctx.smoke);
    for (stack, version, curve) in &rows {
        let k = format!("{}_{}", stack_key(*stack), version.name().to_lowercase());
        let knee = curve.knee_offered_mps.expect("knee asserted above");
        let points: Vec<String> = curve
            .points
            .iter()
            .map(|p| {
                format!(
                    "    {{\"offered_mps\": {}, \"achieved_mps\": {:.1}, \"p50_us\": {:.3}, \
                     \"p99_us\": {:.3}, \"p999_us\": {:.3}, \"violated\": {}}}",
                    p.offered_mps,
                    p.achieved_mps,
                    us(p.p50_ns),
                    us(p.p99_ns),
                    us(p.p999_ns),
                    p.violated,
                )
            })
            .collect();
        m.field(format!("{k}_knee_mps"), knee)
            .field(
                format!("{k}_max_sustainable_mps"),
                format_args!("{:.1}", curve.max_sustainable_mps),
            )
            .field(
                format!("{k}_refined_knee_mps"),
                curve.refined_knee_mps.unwrap_or(knee),
            )
            .field(
                format!("{k}_curve"),
                format_args!("[\n{}\n  ]", points.join(",\n")),
            );
    }
    m.text(
        "best_cell",
        format_args!("{}_{}", stack_key(best.0), best.1.name().to_lowercase()),
    )
    .field("best_max_sustainable_mps", format_args!("{best_mps:.1}"))
    .field("seed_plateau_mps", format_args!("{SEED_PLATEAU_MPS:.1}"))
    .field("seed_rate_bit_identical", seed_rate_bit_identical);
    out.host.samples("sweep_ms", &sweep);

    out.check("refined_knees_bracketed", refined_knees_bracketed);
    // Layout quality as capacity: ALL must not knee below BAD.
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        let knee = |v: Version| {
            rows.iter()
                .find(|(s, ver, _)| *s == stack && *ver == v)
                .and_then(|(_, _, c)| c.knee_offered_mps)
                .expect("knee present") as f64
        };
        let name = format!("{}_all_knee_mps", stack_key(stack));
        out.gate(
            Clock::Model,
            name,
            knee(Version::All),
            Bound::AtLeast(knee(Version::Bad)),
        );
    }
    out.check("seed_rate_bit_identical", seed_rate_bit_identical);
    out.check("memo_cold_bit_identical", recomputed == cached);
    out.gate(
        Clock::Model,
        "best_max_sustainable_mps",
        best_mps,
        Bound::AtLeast(2.0 * SEED_PLATEAU_MPS),
    );
    out
}
