//! Record/replay: the capture subsystem's three contracts, measured on
//! the 12-cell serving grid.
//!
//! 1. **Replay is bit-identical.**  Every cell's recorded trace,
//!    replayed through [`TraceStream`], must reproduce the recording
//!    run's full report — also re-sliced to other executor counts,
//!    through the sweep engine's memoized replay stage, and for an
//!    adaptive run whose recorded verdicts the replay re-derives live.
//! 2. **The codecs are dense and interchangeable.**  Bytes/event for the
//!    binary and JSON encodings of the same logs, plus a write→read
//!    round trip of both file formats.
//! 3. **Recording is near-free.**  The capture tap appends a few small
//!    copies per message to per-lane buffers; a recorded pass over the
//!    grid must cost within 10% of the identical live pass.

use std::time::Instant;

use protocols::StackOptions;
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::{grid, SweepEngine};
use trace::{encode, fingerprint, read_events, write_events, Format};
use traffic::{
    record_adaptive, record_traffic, replay_adaptive, replay_traffic, run_traffic, AdaptConfig,
    Candidate, Phase, PhasePlan, ReplayService, StreamKind, TraceStream,
};

use crate::{episodes, ms, serving, Bound, Clock, Ctx, Outcome, Samples, RATE_MPS, WORKERS};

/// The executor counts the re-slice probe replays under — the claim
/// must hold for every count, so two is enough to show the trace
/// carries no executor-dependent state.
const EXECUTORS: [u32; 2] = [1, 3];

pub fn run(ctx: &Ctx) -> Outcome {
    let messages = ctx.messages();
    let cfg = serving(messages);
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();

    // Resolve every cell's image and episode up front so the timed
    // passes measure serving (live vs recording), not pipeline stages.
    let cells: Vec<_> = grid()
        .into_iter()
        .map(|(stack, v)| {
            (
                stack,
                v,
                eng.image(stack, opts, 2, v),
                episodes(eng, stack).server_turn,
            )
        })
        .collect();

    // Record every cell and replay it, directly and through the engine.
    let (mut all_identical, mut total_events, mut bin_bytes, mut json_bytes) = (true, 0, 0, 0);
    let mut probe = None;
    for (stack, version, img, episode) in &cells {
        let (live, events) = record_traffic(&cfg, |_| ReplayService::new(img, episode))
            .expect("serving scenario must drain");
        total_events += events.len();
        bin_bytes += encode(&events, Format::Binary).len();
        json_bytes += encode(&events, Format::Json).len();
        let stream = TraceStream::from_events(&events).expect("recorded log must validate");
        let replayed = replay_traffic(&stream, |_| ReplayService::new(img, episode))
            .expect("recorded trace must replay");
        all_identical &= replayed == live;
        all_identical &= *eng.replay_trace(*stack, opts, 2, *version, &stream) == live;
        if (*stack, *version) == (StackKind::TcpIp, Version::All) {
            probe = Some((events, live));
        }
    }

    // Executor re-slice of the representative cell.
    let (probe_events, probe_live) = probe.expect("tcpip/ALL is on the grid");
    let probe_img = eng.image(StackKind::TcpIp, opts, 2, Version::All);
    let probe_episode = episodes(eng, StackKind::TcpIp).server_turn;
    let executors_identical = EXECUTORS.iter().all(|&ex| {
        let stream = TraceStream::from_events(&probe_events)
            .expect("recorded log must validate")
            .with_executors(ex);
        replay_traffic(&stream, |_| ReplayService::new(&probe_img, &probe_episode))
            .expect("recorded trace must replay")
            == probe_live
    });

    // Both file codecs round-trip the probe log.
    let fp = fingerprint(&probe_events);
    let files_roundtrip = ["trace", "json"].iter().all(|ext| {
        let path =
            std::env::temp_dir().join(format!("protolat-bench-{}.{ext}", std::process::id()));
        write_events(&path, &probe_events).expect("trace artifact must write");
        let back = read_events(&path).expect("trace artifact must read back");
        std::fs::remove_file(&path).expect("remove trace artifact");
        fingerprint(&back) == fp
    });

    // A phase-shifting adaptive run is recorded (verdicts included) and
    // replayed: arrivals and fates come from the log while the
    // profiler, re-layout scorer and hot swaps run live, so matching
    // swap timelines show the adaptation is deterministic given the
    // replayed inputs.
    let total_ns = messages as u64 * 1_000_000_000 / RATE_MPS;
    let phase = |stream: StreamKind, theta: u32, last: bool| Phase {
        stream,
        milli_theta: theta,
        duration_ns: if last { 0 } else { total_ns / 3 },
        settle_ns: total_ns / 5,
    };
    let plan = PhasePlan::new(&[
        phase(StreamKind::Zipf, 900, false),
        phase(StreamKind::Conflict { slots: 8, cycle: 6 }, 900, false),
        phase(StreamKind::Zipf, 1_100, true),
    ]);
    let adapt_cfg = cfg.with_phases(plan);
    let adapt = AdaptConfig {
        stride: 8,
        window: 48,
        min_dwell_ns: total_ns / 20,
        relayout_latency_ns: total_ns / 40,
    };
    let candidates: Vec<Candidate> = [Version::Bad, Version::Std, Version::All]
        .iter()
        .map(|&v| Candidate::new(v.name(), eng.image(StackKind::TcpIp, opts, 2, v)))
        .collect();
    let (a_live, a_report, a_events) =
        record_adaptive(&adapt_cfg, &adapt, &probe_episode, &candidates, 0)
            .expect("adaptive scenario must drain");
    let a_stream = TraceStream::from_events(&a_events).expect("adaptive log must validate");
    let adapt_verdicts_match = replay_adaptive(&a_stream, &adapt, &probe_episode, &candidates, 0)
        .inspect_err(|e| eprintln!("adaptive replay failed: {e}"))
        .is_ok_and(|(r_live, r_report)| r_live == a_live && r_report.swaps == a_report.swaps);

    // Record overhead: alternating full-grid passes, live then record.
    let pass = |record: bool| {
        let t = Instant::now();
        for (_, _, img, episode) in &cells {
            let make = |_| ReplayService::new(img, episode);
            if record {
                record_traffic(&cfg, make).expect("must drain");
            } else {
                run_traffic(&cfg, make).expect("must drain");
            }
        }
        ms(t)
    };
    let (mut live_ms, mut record_ms) = (Vec::new(), Vec::new());
    for _ in 0..ctx.reps(3) {
        live_ms.push(pass(false));
        record_ms.push(pass(true));
    }
    let (live, record) = (Samples::new(live_ms), Samples::new(record_ms));
    let overhead_pct = (record.min() / live.min() - 1.0) * 100.0;

    let mut out = Outcome::new("trace");
    out.model
        .field("smoke", u32::from(ctx.smoke))
        .field("workers", WORKERS)
        .field("messages_per_worker", messages)
        .field("rate_mps", RATE_MPS)
        .field("cells", cells.len())
        .field(
            "events_per_cell",
            format_args!("{:.1}", total_events as f64 / cells.len() as f64),
        )
        .field(
            "bytes_per_event_binary",
            format_args!("{:.2}", bin_bytes as f64 / total_events as f64),
        )
        .field(
            "bytes_per_event_json",
            format_args!("{:.2}", json_bytes as f64 / total_events as f64),
        )
        .field("replay_bit_identical", u32::from(all_identical))
        .text("executor_probe", format_args!("{EXECUTORS:?}"))
        .field("executor_bit_identical", u32::from(executors_identical))
        .field("file_roundtrip_ok", u32::from(files_roundtrip))
        .text("file_fingerprint", format_args!("{fp:#018x}"))
        .field("adapt_swaps", a_report.swaps.len())
        .field("adapt_verdicts_match", u32::from(adapt_verdicts_match));
    out.host
        .samples("live_ms", &live)
        .samples("record_ms", &record)
        .field("record_overhead_pct", format_args!("{overhead_pct:.2}"));
    out.check("replay_bit_identical", all_identical);
    out.check("executor_bit_identical", executors_identical);
    out.check("file_roundtrip_ok", files_roundtrip);
    out.gate(
        Clock::Model,
        "adapt_swaps",
        a_report.swaps.len() as f64,
        Bound::AtLeast(1.0),
    );
    out.check("adapt_verdicts_match", adapt_verdicts_match);
    out.gate(
        Clock::Host,
        "record_overhead_pct",
        overhead_pct,
        Bound::AtMost(10.0),
    );
    out
}
