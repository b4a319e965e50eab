//! Traffic-serving benchmark: tail latency and throughput of every
//! (stack, layout) cell under sustained open-loop traffic, plus the
//! multi-worker scaling probe.
//!
//! Per cell, each worker replays its messages' server-turn episodes
//! through the machine model under that cell's layout (cold on session
//! miss, warm on hit), so the paper's per-message layout savings show
//! up where a serving system feels them: in the p99/p99.9 of the
//! latency distribution under queueing and faults.
//!
//! The worker-scaling probe is a closed-loop, think-time-zero run: each
//! worker's clients keep its server saturated, so *simulated* serving
//! throughput (messages per simulated second) scales with the worker
//! count — the single-host-partitioning claim, measured in simulation
//! time and therefore deterministic.
//!
//! Writes `BENCH_traffic.json` for `scripts/bench_smoke.sh`.

use protolat_bench::harness::JsonReport;
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::SweepEngine;
use protocols::StackOptions;
use traffic::{run_traffic, ReplayService, TrafficConfig, TrafficReport, WirePath};

/// The serving scenario every cell is measured under.
const WORKERS: u32 = 4;
const MESSAGES_PER_WORKER: u32 = 20_000;
const SESSIONS_PER_WORKER: u32 = 512;
const RATE_MPS: u64 = 2_000;

fn serving_cfg() -> TrafficConfig {
    TrafficConfig::open_loop(RATE_MPS, MESSAGES_PER_WORKER, SESSIONS_PER_WORKER)
        .with_workers(WORKERS)
        .with_shards(8, 24)
        .with_theta(900)
        .with_seed(0x7EA5)
        .with_faults(3_000, 1_500, 3_000, 1_500)
        // Serve through the zero-copy byte plane: every message is
        // encoded to real TCP/IP bytes in a pooled buffer and demuxed
        // back, and the injector's wire-shape fates (truncate, malform,
        // fragment) are genuinely parsed to their typed decode errors.
        .with_wire(WirePath::ZeroCopy)
        .with_wire_faults(800, 500, 700)
}

fn stack_key(stack: StackKind) -> &'static str {
    match stack {
        StackKind::TcpIp => "tcpip",
        StackKind::Rpc => "rpc",
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn main() {
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let cfg = serving_cfg();

    // --- the 12-cell serving sweep (parallel map, memoized) -----------
    let rows = eng.traffic_sweep(opts, 2, cfg);

    println!(
        "traffic serving: {} workers x {} msgs, {} sessions/worker, open loop {} msg/s/worker",
        WORKERS, MESSAGES_PER_WORKER, SESSIONS_PER_WORKER, RATE_MPS
    );
    println!(
        "{:<6} {:<5} {:>9} {:>9} {:>10} {:>10} {:>9} {:>8}",
        "stack", "ver", "p50 µs", "p99 µs", "p99.9 µs", "max µs", "msg/s", "hit%"
    );
    let mut cells = Vec::new();
    for (stack, version, r) in &rows {
        println!(
            "{:<6} {:<5} {:>9.1} {:>9.1} {:>10.1} {:>10.1} {:>9.0} {:>7.1}%",
            stack_key(*stack),
            version.name(),
            us(r.hist.p50()),
            us(r.hist.p99()),
            us(r.hist.p999()),
            us(r.hist.max()),
            r.msgs_per_sec(),
            r.table.hit_rate() * 100.0
        );
        cells.push((*stack, *version, r.clone()));
    }

    // --- determinism probe: an identical fresh run must reproduce the
    // memoized report bit for bit ------------------------------------
    let probe_cell = eng.traffic(StackKind::TcpIp, opts, 2, Version::Std, cfg);
    let img = eng.image(StackKind::TcpIp, opts, 2, Version::Std);
    let episode = eng.tcpip(opts, 2).run.episodes.server_turn.clone();
    let rerun = run_traffic(&cfg, |_| ReplayService::new(&img, &episode))
        .expect("serving scenario must drain");
    assert_eq!(
        *probe_cell, rerun,
        "a fixed (seed, workers) run must be bit-reproducible"
    );
    println!("\ndeterminism probe: rerun of tcpip/STD reproduced bit-for-bit");

    // --- worker scaling probe (closed loop, zero think time) -----------
    let probe = |workers: u32| -> TrafficReport {
        let cfg = TrafficConfig::closed_loop(16, 0, 8_000, SESSIONS_PER_WORKER)
            .with_workers(workers)
            .with_shards(8, 24)
            .with_theta(900)
            .with_seed(0x5CA1E);
        run_traffic(&cfg, |_| ReplayService::new(&img, &episode))
            .expect("closed loop must drain")
    };
    // --- offered vs achieved: arrival generation must keep up ----------
    // Arrival timestamps are drawn simulated times, so host-side
    // scheduling cannot defer an arrival — but if the dispatch plane
    // (or the histogram's completion accounting) lost or stalled
    // messages, achieved simulated throughput would fall below the
    // offered rate even at this sub-knee operating point.  At the seed
    // rate every cell must serve what was offered.
    let offered_mps = (RATE_MPS * WORKERS as u64) as f64;
    let min_achieved_mps = cells
        .iter()
        .map(|(_, _, r)| r.msgs_per_sec())
        .fold(f64::INFINITY, f64::min);
    println!(
        "offered vs achieved: {:.0} msg/s offered/cell, min achieved {:.1} msg/s ({:.1}%)",
        offered_mps,
        min_achieved_mps,
        100.0 * min_achieved_mps / offered_mps
    );
    for (stack, version, r) in &cells {
        let achieved = r.msgs_per_sec();
        assert!(
            achieved >= 0.97 * offered_mps,
            "{}/{}: achieved {achieved:.1} msg/s < 97% of the {offered_mps:.0} msg/s offered — \
             arrival generation, not service, limited the run",
            stack_key(*stack),
            version.name()
        );
    }

    let single = probe(1);
    let multi = probe(WORKERS);
    let single_mps = single.msgs_per_sec();
    let multi_mps = multi.msgs_per_sec();
    let worker_speedup = multi_mps / single_mps;
    println!(
        "worker scaling (closed loop, saturated): 1 worker {:.0} msg/s, {} workers {:.0} msg/s, {:.2}x",
        single_mps, WORKERS, multi_mps, worker_speedup
    );

    // --- JSON ----------------------------------------------------------
    let mut report = JsonReport::new("traffic");
    report
        .field("workers", WORKERS)
        .field("messages_per_worker", MESSAGES_PER_WORKER)
        .field("sessions_per_worker", SESSIONS_PER_WORKER)
        .field("rate_mps", RATE_MPS)
        .field("offered_mps", format_args!("{offered_mps:.1}"))
        .field("min_achieved_mps", format_args!("{min_achieved_mps:.1}"));
    for (stack, version, r) in &cells {
        let k = format!("{}_{}", stack_key(*stack), version.name().to_lowercase());
        report.field(format!("{k}_p50_us"), format_args!("{:.3}", us(r.hist.p50())));
        report.field(format!("{k}_p99_us"), format_args!("{:.3}", us(r.hist.p99())));
        report.field(format!("{k}_p999_us"), format_args!("{:.3}", us(r.hist.p999())));
        report.field(format!("{k}_mps"), format_args!("{:.1}", r.msgs_per_sec()));
        // Session-table demux behaviour per cell, so address-cache
        // policy wins are visible in this contract too.
        report.field(format!("{k}_table_hit_rate"), format_args!("{:.6}", r.table.hit_rate()));
        report.field(
            format!("{k}_cache_hit_rate"),
            format_args!("{:.6}", r.table.cache_hit_rate()),
        );
        report.field(format!("{k}_miss_rate"), format_args!("{:.6}", {
            let t = &r.table;
            if t.lookups == 0 { 0.0 } else { t.misses as f64 / t.lookups as f64 }
        }));
        report.field(format!("{k}_evictions"), r.table.evictions);
        // Anomaly provenance per cell: how many messages each injected
        // fault fate claimed and how many RTO timers fired — exactly
        // the nondeterministic decisions a recorded trace captures, so
        // a replayed run must reproduce these counters bit-for-bit.
        report.field(format!("{k}_drops"), r.faults.dropped);
        report.field(format!("{k}_corruptions"), r.faults.corrupted);
        report.field(format!("{k}_reorders"), r.faults.reordered);
        report.field(format!("{k}_duplicates"), r.faults.duplicated);
        report.field(format!("{k}_rto_fires"), r.retransmits);
        // Wire-plane anomaly provenance: each counter is a typed decode
        // error from a real byte-level parse of the shaped frame (runt,
        // bad version nibble, unreassemblable fragment, FCS mismatch).
        report.field(format!("{k}_truncations"), r.wire.truncated);
        report.field(format!("{k}_malforms"), r.wire.malformed);
        report.field(format!("{k}_fragments"), r.wire.fragmented);
        report.field(format!("{k}_bad_fcs"), r.wire.bad_fcs);
        // Replay-service memo behaviour per cell: how much simulation
        // the steady-state memo eliminated, how the limit-cycle
        // detector classified each lane's warm cost sequence, and how
        // many times the memo was invalidated (always 0 for these
        // static cells — the adaptive loop in BENCH_adapt.json is what
        // drives it).
        report.field(
            format!("{k}_memo_hit_rate"),
            format_args!("{:.6}", r.service.memo_hit_rate()),
        );
        report.field(format!("{k}_memo_invalidations"), r.service.invalidations);
        for (p, n) in r.service.period_detections.iter().enumerate() {
            report.field(format!("{k}_memo_period_p{}", p + 1), n);
        }
    }
    report
        .field("single_worker_mps", format_args!("{single_mps:.1}"))
        .field("multi_worker_mps", format_args!("{multi_mps:.1}"))
        .field("worker_speedup", format_args!("{worker_speedup:.3}"));
    report.write("BENCH_traffic.json");

    // --- acceptance ----------------------------------------------------
    let p99 = |stack: StackKind, v: Version| {
        cells
            .iter()
            .find(|(s, ver, _)| *s == stack && *ver == v)
            .map(|(_, _, r)| r.hist.p99())
            .expect("cell present")
    };
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        let (bad, all) = (p99(stack, Version::Bad), p99(stack, Version::All));
        assert!(
            all < bad,
            "{}: ALL p99 ({:.1} µs) must beat BAD p99 ({:.1} µs) under load",
            stack_key(stack),
            us(all),
            us(bad)
        );
    }
    assert!(
        worker_speedup >= 2.0,
        "partitioned serving must scale: {WORKERS} workers gave only {worker_speedup:.2}x \
         the single-worker simulated throughput"
    );
}
