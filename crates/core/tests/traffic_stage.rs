//! The sweep engine's traffic stage: memoization, memo-vs-simulation
//! equivalence of the replay service, and the layout ordering the
//! serving tail must preserve.
//!
//! Sizes are kept small — tier-1 runs these in debug mode.

use std::sync::Arc;

use alpha_machine::MachineConfig;
use netsim::cycles_to_ns;
use netsim::rng::SplitMix64;
use protocols::StackOptions;
use protolat_core::{StackKind, SweepEngine, Version};
use traffic::{run_traffic, DepthCosts, ReplayService, Service, TraceStream, TrafficConfig};
use xkernel::map::LookupKind;

fn small_cfg() -> TrafficConfig {
    TrafficConfig::open_loop(2_000, 400, 48)
        .with_workers(2)
        .with_shards(4, 16)
        .with_seed(0x7A)
        .with_faults(3_000, 1_500, 3_000, 1_500)
}

#[test]
fn traffic_stage_is_memoized() {
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    let cfg = small_cfg();
    let a = eng.traffic(StackKind::TcpIp, opts, 2, Version::Std, cfg);
    let b = eng.traffic(StackKind::TcpIp, opts, 2, Version::Std, cfg);
    assert!(Arc::ptr_eq(&a, &b), "second request must hit the cache");
    assert_eq!(eng.counters().traffics, 1);

    // A different scenario is a different cell.
    let c = eng.traffic(StackKind::TcpIp, opts, 2, Version::Std, cfg.with_seed(0x7B));
    assert!(!Arc::ptr_eq(&a, &c));
    assert_eq!(eng.counters().traffics, 2);
}

#[test]
fn memoized_service_matches_pure_simulation() {
    // The replay service's steady-state memo must not change a single
    // recorded latency: a run whose workers always simulate and a run
    // whose workers use the memo fast path must agree on everything
    // except the service counters that record how results were obtained.
    // STD's warm cost goes flat (period-1 fixed point); PIN's oscillates
    // between two values forever, exercising the limit-cycle detector.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let cfg = TrafficConfig::open_loop(2_000, 250, 32)
        .with_workers(2)
        .with_shards(4, 12)
        .with_seed(5)
        .with_faults(4_000, 2_000, 4_000, 2_000);
    let episode = eng.tcpip(opts, 2).run.episodes.server_turn.clone();
    for version in [Version::Std, Version::Pin] {
        let img = eng.image(StackKind::TcpIp, opts, 2, version);

        let memoized = run_traffic(&cfg, |_| ReplayService::new(&img, &episode)).unwrap();
        let simulated =
            run_traffic(&cfg, |_| ReplayService::new(&img, &episode).without_memoization())
                .unwrap();

        assert_eq!(memoized.hist, simulated.hist, "{version:?}: latencies must be identical");
        assert_eq!(memoized.completed, simulated.completed);
        assert_eq!(memoized.sim_ns, simulated.sim_ns);
        assert_eq!(memoized.retransmits, simulated.retransmits);
        assert_eq!(memoized.duplicates_served, simulated.duplicates_served);
        assert_eq!(memoized.faults, simulated.faults);
        assert_eq!(memoized.table, simulated.table);

        // And the memo must actually have kicked in: far fewer replays
        // simulated than messages served.
        assert_eq!(simulated.service.fast_path_serves, 0);
        assert!(
            memoized.service.simulated_replays * 4 < simulated.service.simulated_replays,
            "{version:?}: memo must eliminate most simulation: {} vs {}",
            memoized.service.simulated_replays,
            simulated.service.simulated_replays
        );
        assert!(memoized.service.fast_path_serves > 0);
    }
}

#[test]
fn replay_service_charges_the_depth_its_lookups_imply() {
    // A miss restarts at depth 0 and every other lookup goes one replay
    // deeper: from a fresh service's first serve on, each charge must be
    // the cost table's entry at exactly that depth.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let episode = eng.tcpip(opts, 2).run.episodes.server_turn.clone();
    let img = eng.image(StackKind::TcpIp, opts, 2, Version::Pin);
    let mhz = MachineConfig::dec3000_600().cpu.clock_mhz;
    let mut table = DepthCosts::new(&img);
    let mut svc = ReplayService::new(&img, &episode);
    let mut rng = SplitMix64::new(0xDE7);
    let mut depth = 0;
    for now in 0..200 {
        let kind = if now == 0 || rng.next_u64().is_multiple_of(5) {
            LookupKind::Miss
        } else {
            LookupKind::CacheHit
        };
        depth = if kind == LookupKind::Miss { 0 } else { depth + 1 };
        let want = cycles_to_ns(table.cost(&episode, depth), mhz);
        assert_eq!(svc.serve(kind, now), want, "serve {now} at depth {depth}");
    }
}

#[test]
fn depth_costs_do_not_depend_on_query_order() {
    // The adaptive loop's shared scorer memoizes each verdict by profile
    // fingerprint, whichever lane asks first, and every lane asks its
    // depths in a different order.  That is sound only if a cost table
    // answers each depth the same whatever it was asked before: read in
    // ascending order, at seeded random depths, and deepest-first.
    // 3070 is the representative of the deepest profile bucket.
    const DEEPEST: usize = 3070;
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let episode = eng.tcpip(opts, 2).run.episodes.server_turn.clone();
    for version in [Version::Std, Version::Pin, Version::Bad] {
        let img = eng.image(StackKind::TcpIp, opts, 2, version);
        let mut ascending = DepthCosts::new(&img);
        let want: Vec<u64> = (0..=DEEPEST).map(|d| ascending.cost(&episode, d)).collect();

        let mut random = DepthCosts::new(&img);
        let mut rng = SplitMix64::new(0x0D3E ^ version as u64);
        for _ in 0..200 {
            let d = rng.below(DEEPEST as u64 + 1) as usize;
            assert_eq!(random.cost(&episode, d), want[d], "{version:?}: random read at depth {d}");
        }

        let mut deepest_first = DepthCosts::new(&img);
        for d in (0..=DEEPEST).rev() {
            let got = deepest_first.cost(&episode, d);
            assert_eq!(got, want[d], "{version:?}: depth {d} read deepest-first");
        }
    }
}

#[test]
fn memoized_service_serves_in_lockstep_and_learns_each_depth_once() {
    // Driven side by side through identical seeded lookup sequences,
    // with hot invalidations at random points, the per-depth cost table
    // and the live-simulation oracle must return the same cost on every
    // serve, and the table must simulate each depth exactly once per
    // invalidation epoch.  STD settles flat, PIN into a period-2 cycle,
    // BAD is the worst-case layout.
    const SERVES: u64 = 300;
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let episode = eng.tcpip(opts, 2).run.episodes.server_turn.clone();
    for version in [Version::Std, Version::Pin, Version::Bad] {
        let img = eng.image(StackKind::TcpIp, opts, 2, version);
        for miss_pct in [0u64, 30, 90] {
            let mut rng = SplitMix64::new(0x10C5 ^ miss_pct);
            let mut memo = ReplayService::new(&img, &episode);
            let mut oracle = ReplayService::new(&img, &episode).without_memoization();
            let mut learned = 0;
            for now in 0..SERVES {
                let r = rng.next_u64();
                if r.is_multiple_of(64) {
                    learned += memo.costs().memo().len() as u64;
                    memo.invalidate();
                    oracle.invalidate();
                }
                // A lane's session table starts empty, so its first
                // lookup always misses.
                let kind = if now == 0 || (r >> 8) % 100 < miss_pct {
                    LookupKind::Miss
                } else if (r >> 16) & 1 == 0 {
                    LookupKind::CacheHit
                } else {
                    LookupKind::ChainHit
                };
                assert_eq!(
                    memo.serve(kind, now),
                    oracle.serve(kind, now),
                    "{version:?} at {miss_pct}% misses: serve {now} diverged"
                );
            }
            learned += memo.costs().memo().len() as u64;

            let s = memo.stats();
            assert!(s.invalidations > 0, "{version:?}/{miss_pct}%: no invalidation exercised");
            assert_eq!(s.invalidations, oracle.stats().invalidations);
            assert_eq!(s.fast_path_serves + s.simulated_replays, SERVES);
            assert_eq!(s.simulated_replays, learned, "{version:?}/{miss_pct}%: depth re-simulated");
            assert_eq!(oracle.stats().simulated_replays, SERVES);
        }
    }
}

#[test]
fn traffic_stage_is_deterministic_across_engines() {
    // Same cell computed by two independent engines (cold caches both
    // times) must produce identical reports — the stage is a pure
    // function of its key.
    let opts = StackOptions::improved();
    let cfg = small_cfg();
    let a = SweepEngine::new().traffic(StackKind::TcpIp, opts, 2, Version::All, cfg);
    let b = SweepEngine::new().traffic(StackKind::TcpIp, opts, 2, Version::All, cfg);
    assert_eq!(*a, *b);
}

#[test]
fn traffic_stage_agrees_across_schedulers() {
    // The default timing-wheel engine and the reference binary heap
    // must produce bit-identical reports for every (stack, version)
    // traffic cell — here at test scale on both scenario kinds.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let closed = TrafficConfig::closed_loop(6, 5_000, 300, 32)
        .with_workers(2)
        .with_shards(4, 16)
        .with_seed(0x51)
        .with_faults(3_000, 1_500, 3_000, 1_500);
    for cfg in [small_cfg(), closed] {
        for stack in [StackKind::TcpIp, StackKind::Rpc] {
            for version in [Version::Bad, Version::All] {
                let wheel = eng.traffic(stack, opts, 2, version, cfg);
                let heap = eng.traffic_reference(stack, opts, 2, version, cfg);
                assert_eq!(
                    *wheel, heap,
                    "{stack:?}/{version:?}: schedulers diverged"
                );
            }
        }
    }
}

#[test]
fn replay_stage_is_memoized_and_bit_identical() {
    // Record a cell with the capture tap on, then replay the trace
    // through the engine's replay stage: the replayed report must be
    // bit-identical to both the recording run and the memoized live
    // traffic stage, and re-replaying the same fingerprint — even
    // re-sliced to a different executor count — must hit the cache.
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    let cfg = small_cfg();
    let (recorded, events) =
        eng.traffic_recorded(StackKind::TcpIp, opts, 2, Version::All, cfg);
    assert_eq!(eng.counters().replays, 0, "recording is not a replay");

    let stream = TraceStream::from_events(&events).expect("recorded log must validate");
    let a = eng.replay_trace(StackKind::TcpIp, opts, 2, Version::All, &stream);
    assert_eq!(*a, recorded, "replay must reproduce the recording run");
    assert_eq!(*a, *eng.traffic(StackKind::TcpIp, opts, 2, Version::All, cfg));

    let b = eng.replay_trace(StackKind::TcpIp, opts, 2, Version::All, &stream);
    assert!(Arc::ptr_eq(&a, &b), "second replay must hit the cache");

    // Replay is executor-invariant, so a re-sliced stream keeps its
    // fingerprint and shares the memo cell.
    let resliced = TraceStream::from_events(&events).unwrap().with_executors(3);
    let c = eng.replay_trace(StackKind::TcpIp, opts, 2, Version::All, &resliced);
    assert!(Arc::ptr_eq(&a, &c), "re-sliced replay must share the cell");
    assert_eq!(eng.counters().replays, 1);

    // A different cell (layout) replays the same trace independently —
    // arrivals and fates are layout-invariant, so it must not diverge.
    let bad = eng.replay_trace(StackKind::TcpIp, opts, 2, Version::Bad, &stream);
    assert_eq!(bad.faults, recorded.faults, "fate sequence rides the trace");
    assert_eq!(eng.counters().replays, 2);
}

#[test]
fn all_layout_beats_bad_in_the_serving_tail() {
    // The acceptance ordering, at test scale: the ALL layout's p99 must
    // beat BAD's on both stacks under identical traffic.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let cfg = small_cfg();
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        let bad = eng.traffic(stack, opts, 2, Version::Bad, cfg);
        let all = eng.traffic(stack, opts, 2, Version::All, cfg);
        assert!(
            all.hist.p99() < bad.hist.p99(),
            "{stack:?}: ALL p99 {} must beat BAD p99 {}",
            all.hist.p99(),
            bad.hist.p99()
        );
        assert_eq!(all.completed, bad.completed, "same offered load");
        assert_eq!(
            all.faults, bad.faults,
            "{stack:?}: fate sequences must be layout-independent"
        );
    }
}
