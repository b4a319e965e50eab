//! Traffic serving: tail latency and throughput of every (stack, layout)
//! cell under sustained open-loop traffic, plus the multi-worker
//! scaling probe.
//!
//! Per cell, each worker replays its messages' server-turn episodes
//! through the machine model under that cell's layout (cold on session
//! miss, warm on hit), so the paper's per-message layout savings show
//! up where a serving system feels them: in the p99/p99.9 of the
//! latency distribution under queueing and faults.
//!
//! The worker-scaling probe is a closed-loop, think-time-zero run: each
//! worker's clients keep its server saturated, so *simulated* serving
//! throughput scales with the worker count — the single-host
//! partitioning claim, measured in simulation time and therefore
//! deterministic.

use protocols::StackOptions;
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::SweepEngine;
use traffic::{run_traffic, ReplayService, TrafficConfig, WirePath};

use crate::{episodes, serving, stack_key, us, Bound, Clock, Ctx, Outcome, Samples};
use crate::{RATE_MPS, SESSIONS_PER_WORKER, WORKERS};

pub fn run(ctx: &Ctx) -> Outcome {
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let messages = ctx.messages();
    // Serve through the zero-copy byte plane: every message is encoded
    // to real TCP/IP bytes in a pooled buffer and demuxed back, and the
    // injector's wire-shape fates (truncate, malform, fragment) are
    // parsed to their typed decode errors.
    let cfg = serving(messages)
        .with_wire(WirePath::ZeroCopy)
        .with_wire_faults(800, 500, 700);

    let mut rows = Vec::new();
    let sweep = Samples::time_ms(1, || rows = eng.traffic_sweep(opts, 2, cfg));

    // An identical fresh run must reproduce the memoized report bit for
    // bit.
    let img = eng.image(StackKind::TcpIp, opts, 2, Version::Std);
    let episode = episodes(eng, StackKind::TcpIp).server_turn;
    let rerun = run_traffic(&cfg, |_| ReplayService::new(&img, &episode))
        .expect("serving scenario must drain");
    let rerun_bit_identical = *eng.traffic(StackKind::TcpIp, opts, 2, Version::Std, cfg) == rerun;

    // Closed loop, zero think time: simulated throughput vs workers.
    let probe = |workers: u32| {
        let cfg = TrafficConfig::closed_loop(16, 0, 8_000, SESSIONS_PER_WORKER)
            .with_workers(workers)
            .with_shards(8, 24)
            .with_theta(900)
            .with_seed(0x5CA1E);
        run_traffic(&cfg, |_| ReplayService::new(&img, &episode))
            .expect("closed loop must drain")
            .msgs_per_sec()
    };
    let (single_mps, multi_mps) = (probe(1), probe(WORKERS));
    let worker_speedup = multi_mps / single_mps;

    // Arrival timestamps are drawn simulated times, so host scheduling
    // cannot defer an arrival; if the dispatch plane or the histogram's
    // completion accounting lost or stalled messages, achieved
    // throughput would fall below the offered rate even at this
    // sub-knee operating point.
    let offered_mps = (RATE_MPS * WORKERS as u64) as f64;
    let min_achieved_mps = rows
        .iter()
        .map(|(_, _, r)| r.msgs_per_sec())
        .fold(f64::INFINITY, f64::min);

    let mut out = Outcome::new("traffic");
    let m = &mut out.model;
    m.field("workers", WORKERS)
        .field("messages_per_worker", messages)
        .field("sessions_per_worker", SESSIONS_PER_WORKER)
        .field("rate_mps", RATE_MPS)
        .field("offered_mps", format_args!("{offered_mps:.1}"))
        .field("min_achieved_mps", format_args!("{min_achieved_mps:.1}"));
    for (stack, version, r) in &rows {
        let k = format!("{}_{}", stack_key(*stack), version.name().to_lowercase());
        let t = &r.table;
        let miss_rate = if t.lookups == 0 {
            0.0
        } else {
            t.misses as f64 / t.lookups as f64
        };
        m.field(
            format!("{k}_p50_us"),
            format_args!("{:.3}", us(r.hist.p50())),
        )
        .field(
            format!("{k}_p99_us"),
            format_args!("{:.3}", us(r.hist.p99())),
        )
        .field(
            format!("{k}_p999_us"),
            format_args!("{:.3}", us(r.hist.p999())),
        )
        .field(format!("{k}_mps"), format_args!("{:.1}", r.msgs_per_sec()))
        // Session-table demux behaviour, so address-cache policy
        // wins show up here too.
        .field(
            format!("{k}_table_hit_rate"),
            format_args!("{:.6}", t.hit_rate()),
        )
        .field(
            format!("{k}_cache_hit_rate"),
            format_args!("{:.6}", t.cache_hit_rate()),
        )
        .field(format!("{k}_miss_rate"), format_args!("{miss_rate:.6}"))
        .field(format!("{k}_evictions"), t.evictions)
        // Anomaly provenance: exactly the nondeterministic decisions
        // a recorded trace captures, so a replay must reproduce them.
        .field(format!("{k}_drops"), r.faults.dropped)
        .field(format!("{k}_corruptions"), r.faults.corrupted)
        .field(format!("{k}_reorders"), r.faults.reordered)
        .field(format!("{k}_duplicates"), r.faults.duplicated)
        .field(format!("{k}_rto_fires"), r.retransmits)
        // Typed decode errors from real byte-level parses.
        .field(format!("{k}_truncations"), r.wire.truncated)
        .field(format!("{k}_malforms"), r.wire.malformed)
        .field(format!("{k}_fragments"), r.wire.fragmented)
        .field(format!("{k}_bad_fcs"), r.wire.bad_fcs)
        // Replay-service memo: simulation the steady-state memo
        // eliminated, the limit-cycle detector's classification, and
        // invalidations (0 for static cells; the adapt suite drives
        // them).
        .field(
            format!("{k}_memo_hit_rate"),
            format_args!("{:.6}", r.service.memo_hit_rate()),
        )
        .field(format!("{k}_memo_invalidations"), r.service.invalidations);
        for (p, n) in r.service.period_detections.iter().enumerate() {
            m.field(format!("{k}_memo_period_p{}", p + 1), n);
        }
    }
    m.field("single_worker_mps", format_args!("{single_mps:.1}"))
        .field("multi_worker_mps", format_args!("{multi_mps:.1}"))
        .field("worker_speedup", format_args!("{worker_speedup:.3}"));
    out.host.samples("sweep_ms", &sweep);

    out.check("rerun_bit_identical", rerun_bit_identical);
    out.gate(
        Clock::Model,
        "min_achieved_mps",
        min_achieved_mps,
        Bound::AtLeast(0.97 * offered_mps),
    );
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        let p99 = |v: Version| {
            rows.iter()
                .find(|(s, ver, _)| *s == stack && *ver == v)
                .map(|(_, _, r)| us(r.hist.p99()))
                .expect("cell present")
        };
        let name = format!("{}_all_p99_us", stack_key(stack));
        out.gate(
            Clock::Model,
            name,
            p99(Version::All),
            Bound::Below(p99(Version::Bad)),
        );
    }
    out.gate(
        Clock::Model,
        "worker_speedup",
        worker_speedup,
        Bound::AtLeast(2.0),
    );
    out
}
