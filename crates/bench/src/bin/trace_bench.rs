//! Record/replay trace benchmark: the capture subsystem's three
//! contracts, measured on the canonical 12-cell serving grid.
//!
//! 1. **Recording is near-free.**  The capture tap appends three small
//!    copies per message (arrival, fate, RTO if fired) to per-lane
//!    buffers; a recorded run must cost within 10% of the identical
//!    live run (min-of-3 over the whole grid, gated in full mode).
//! 2. **Replay is bit-identical.**  Every cell's recorded trace,
//!    replayed through [`TraceStream`], must reproduce the recording
//!    run's full report — and stay bit-identical when the stream is
//!    re-sliced to different executor counts, and when it goes through
//!    the sweep engine's memoized replay stage, and for an adaptive
//!    run whose recorded verdicts the replay re-derives live.
//! 3. **The codecs are dense and interchangeable.**  Bytes/event for
//!    the binary and JSON encodings of the same logs, plus a
//!    write→read round trip of both file formats under `target/`.
//!
//! Writes `BENCH_trace.json` (override with `BENCH_TRACE_PATH`).
//! `scripts/bench_smoke.sh` drives the `TRACE_SMOKE=1` reduced run,
//! which omits the wall-clock fields so two runs emit identical bytes.

use std::path::Path;
use std::time::Instant;

use protolat_bench::harness::JsonReport;
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::SweepEngine;
use protocols::StackOptions;
use trace::{encode, fingerprint, read_events, write_events, Format};
use traffic::{
    record_adaptive, record_traffic, replay_adaptive, replay_traffic, run_traffic, AdaptConfig,
    Candidate, Phase, PhasePlan, ReplayService, StreamKind, TraceStream, TrafficConfig,
};

const WORKERS: u32 = 4;
const SESSIONS_PER_WORKER: u32 = 512;
const RATE_MPS: u64 = 2_000;
/// The executor counts the re-slice probe replays under — the
/// bit-identity claim must hold for every count, so two is enough to
/// prove the trace carries no executor-dependent state.
const EXECUTORS: [u32; 2] = [1, 3];

fn stack_key(stack: StackKind) -> &'static str {
    match stack {
        StackKind::TcpIp => "tcpip",
        StackKind::Rpc => "rpc",
    }
}

fn main() {
    let smoke = std::env::var("TRACE_SMOKE").is_ok_and(|v| v == "1");
    let out_path = std::env::var("BENCH_TRACE_PATH").unwrap_or_else(|_| "BENCH_trace.json".into());
    let messages_per_worker: u32 = if smoke { 2_000 } else { 20_000 };

    let cfg = TrafficConfig::open_loop(RATE_MPS, messages_per_worker, SESSIONS_PER_WORKER)
        .with_workers(WORKERS)
        .with_shards(8, 24)
        .with_theta(900)
        .with_seed(0x7EA5)
        .with_faults(3_000, 1_500, 3_000, 1_500);

    let eng = SweepEngine::global();
    let opts = StackOptions::improved();

    println!(
        "trace record/replay: {} workers x {} msgs, open loop {} msg/s/worker{}",
        WORKERS,
        messages_per_worker,
        RATE_MPS,
        if smoke { " [smoke]" } else { "" },
    );

    // Resolve every cell's image and episode up front so the timed
    // passes measure serving (live vs recording), not pipeline stages.
    let mut cells = Vec::new();
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        let episode = match stack {
            StackKind::TcpIp => eng.tcpip(opts, 2).run.episodes.server_turn.clone(),
            StackKind::Rpc => eng.rpc(opts, 2).run.episodes.server_turn.clone(),
        };
        for version in Version::all() {
            let img = eng.image(stack, opts, 2, version);
            cells.push((stack, version, img, episode.clone()));
        }
    }

    // --- bit-identity: record every cell, replay through TraceStream ---
    let mut all_identical = true;
    let mut total_events = 0u64;
    let mut bin_bytes = 0u64;
    let mut json_bytes = 0u64;
    let mut probe_events = None;
    for (stack, version, img, episode) in &cells {
        let (live, events) = record_traffic(&cfg, |_| ReplayService::new(img, episode))
            .expect("serving scenario must drain");
        total_events += events.len() as u64;
        bin_bytes += encode(&events, Format::Binary).len() as u64;
        json_bytes += encode(&events, Format::Json).len() as u64;

        let stream = TraceStream::from_events(&events).expect("recorded log must validate");
        let replayed = replay_traffic(&stream, |_| ReplayService::new(img, episode))
            .expect("recorded trace must replay");
        if replayed != live {
            all_identical = false;
            println!("DIVERGED: {}/{}", stack_key(*stack), version.name());
        }
        // The engine's memoized replay stage must agree with the
        // direct replay (and with the live run).
        let staged = eng.replay_trace(*stack, opts, 2, *version, &stream);
        if *staged != live {
            all_identical = false;
            println!("STAGE DIVERGED: {}/{}", stack_key(*stack), version.name());
        }
        if *stack == StackKind::TcpIp && *version == Version::All {
            probe_events = Some((events, live));
        }
    }
    println!(
        "bit-identity: 12/12 cells recorded, replayed {}",
        if all_identical { "bit-identical" } else { "WITH DIVERGENCE" }
    );

    // --- executor re-slice probe on the representative cell ------------
    let (probe_events, probe_live) = probe_events.expect("tcpip/ALL is on the grid");
    let probe_img = eng.image(StackKind::TcpIp, opts, 2, Version::All);
    let probe_episode = eng.tcpip(opts, 2).run.episodes.server_turn.clone();
    let mut executors_identical = true;
    for ex in EXECUTORS {
        let stream = TraceStream::from_events(&probe_events)
            .expect("recorded log must validate")
            .with_executors(ex);
        let replayed = replay_traffic(&stream, |_| ReplayService::new(&probe_img, &probe_episode))
            .expect("recorded trace must replay");
        if replayed != probe_live {
            executors_identical = false;
            println!("DIVERGED at {ex} executors");
        }
    }
    println!(
        "executor re-slice: replay at {:?} executors {}",
        EXECUTORS,
        if executors_identical { "bit-identical" } else { "DIVERGED" }
    );

    // --- file round trip: both codecs through target/ ------------------
    let fp = fingerprint(&probe_events);
    let mut files_roundtrip = true;
    std::fs::create_dir_all("target").expect("target dir");
    for name in ["target/trace_bench.trace", "target/trace_bench.json"] {
        let path = Path::new(name);
        write_events(path, &probe_events).expect("trace artifact must write");
        let back = read_events(path).expect("trace artifact must read back");
        if fingerprint(&back) != fp {
            files_roundtrip = false;
            println!("ROUND TRIP FAILED: {name}");
        }
    }
    println!("file round trip: .trace and .json reproduce fingerprint {fp:#018x}");

    // --- adaptive verdict probe ----------------------------------------
    // A phase-shifting adaptive run is recorded (verdicts included) and
    // replayed: arrivals/fates come from the log while the profiler,
    // re-layout worker and hot swaps run live, so matching swap
    // timelines prove the adaptation machinery is itself deterministic
    // given the replayed inputs.
    let total_ns = messages_per_worker as u64 * 1_000_000_000 / RATE_MPS;
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
    let pool = [Version::Bad, Version::Std, Version::All];
    let candidates: Vec<Candidate> = pool
        .iter()
        .map(|&v| Candidate::new(v.name(), eng.image(StackKind::TcpIp, opts, 2, v)))
        .collect();
    let (a_live, a_report, a_events) =
        record_adaptive(&adapt_cfg, &adapt, &probe_episode, &candidates, 0)
            .expect("adaptive scenario must drain");
    let a_stream = TraceStream::from_events(&a_events).expect("adaptive log must validate");
    let adapt_verdicts_match =
        match replay_adaptive(&a_stream, &adapt, &probe_episode, &candidates, 0) {
            Ok((r_live, r_report)) => r_live == a_live && r_report.swaps == a_report.swaps,
            Err(e) => {
                println!("ADAPTIVE REPLAY FAILED: {e}");
                false
            }
        };
    println!(
        "adaptive verdicts: {} swaps recorded, replay {}",
        a_report.swaps.len(),
        if adapt_verdicts_match { "matched" } else { "DIVERGED" }
    );

    // --- record overhead: min-of-3 full-grid passes, live vs record ----
    let live_pass = || {
        let t = Instant::now();
        for (_, _, img, episode) in &cells {
            run_traffic(&cfg, |_| ReplayService::new(img, episode)).expect("must drain");
        }
        t.elapsed().as_secs_f64()
    };
    let record_pass = || {
        let t = Instant::now();
        for (_, _, img, episode) in &cells {
            record_traffic(&cfg, |_| ReplayService::new(img, episode)).expect("must drain");
        }
        t.elapsed().as_secs_f64()
    };
    let (mut live_s, mut record_s) = (f64::INFINITY, f64::INFINITY);
    let passes = if smoke { 1 } else { 3 };
    for _ in 0..passes {
        live_s = live_s.min(live_pass());
        record_s = record_s.min(record_pass());
    }
    let overhead_pct = (record_s / live_s - 1.0) * 100.0;
    println!(
        "record overhead: live {:.1} ms, recording {:.1} ms ({overhead_pct:+.1}%) over {} cells x{passes}",
        live_s * 1e3,
        record_s * 1e3,
        cells.len(),
    );

    // --- JSON ----------------------------------------------------------
    let events_per_cell = total_events as f64 / cells.len() as f64;
    let mut report = JsonReport::new("trace");
    report
        .field("smoke", u32::from(smoke))
        .field("workers", WORKERS)
        .field("messages_per_worker", messages_per_worker)
        .field("rate_mps", RATE_MPS)
        .field("cells", cells.len())
        .field("events_per_cell", format_args!("{events_per_cell:.1}"))
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
        .field("adapt_swaps", a_report.swaps.len())
        .field("adapt_verdicts_match", u32::from(adapt_verdicts_match));
    if !smoke {
        // Wall-clock fields only in full mode: the smoke contract is
        // byte-reproducible across runs (bench_smoke.sh cmp-probes it).
        report
            .field("live_ms", format_args!("{:.1}", live_s * 1e3))
            .field("record_ms", format_args!("{:.1}", record_s * 1e3))
            .field("record_overhead_pct", format_args!("{overhead_pct:.2}"));
    }
    report.write(&out_path);

    // --- acceptance ----------------------------------------------------
    assert!(all_identical, "every recorded cell must replay bit-identically");
    assert!(executors_identical, "replay must be executor-invariant");
    assert!(files_roundtrip, "both trace codecs must round-trip through files");
    assert!(!a_report.swaps.is_empty(), "the adaptive probe must actually swap");
    assert!(adapt_verdicts_match, "adaptive replay must re-derive the recorded verdicts");
    if !smoke {
        assert!(
            overhead_pct <= 10.0,
            "recording must cost <= 10% over live serving, measured {overhead_pct:.2}%"
        );
    }
}
