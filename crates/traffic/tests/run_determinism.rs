//! Run-loop behaviour with a mock service: bit-reproducibility for a
//! fixed seed and worker count, workload accounting, fault handling,
//! and the misbehaving-scenario guard.

use netsim::Overrun;
use traffic::{run_traffic, run_traffic_reference, FixedService, TrafficConfig, TrafficReport};

fn svc(_worker: u32) -> FixedService {
    FixedService { cache_hit_ns: 9_000, chain_hit_ns: 11_000, miss_ns: 40_000 }
}

fn run(cfg: &TrafficConfig) -> TrafficReport {
    run_traffic(cfg, svc).expect("well-behaved scenario")
}

#[test]
fn open_loop_run_is_bit_reproducible() {
    let cfg = TrafficConfig::open_loop(20_000, 2_000, 64)
        .with_workers(4)
        .with_seed(0xAB)
        .with_faults(3_000, 1_500, 3_000, 1_500);
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a, b, "same seed and worker count must reproduce exactly");
    assert_eq!(a.completed, 4 * 2_000);
    assert_eq!(a.workers, 4);
}

#[test]
fn closed_loop_run_is_bit_reproducible() {
    let cfg = TrafficConfig::closed_loop(8, 5_000, 1_000, 32)
        .with_workers(2)
        .with_seed(7);
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a, b);
    assert_eq!(a.completed, 2 * 1_000);
}

#[test]
fn different_seeds_give_different_runs() {
    let base = TrafficConfig::open_loop(20_000, 1_000, 64).with_workers(2);
    let a = run(&base.with_seed(1));
    let b = run(&base.with_seed(2));
    assert_ne!(a.hist, b.hist, "seed must steer the workload");
}

#[test]
fn worker_count_changes_the_run_but_stays_deterministic() {
    let base = TrafficConfig::open_loop(20_000, 1_000, 64).with_seed(5);
    let one = run(&base.with_workers(1));
    let four = run(&base.with_workers(4));
    assert_eq!(one.completed, 1_000);
    assert_eq!(four.completed, 4_000);
    assert_eq!(run(&base.with_workers(4)), four);
}

#[test]
fn fault_free_run_has_clean_accounting() {
    let cfg = TrafficConfig::open_loop(20_000, 2_000, 64).with_workers(2).with_seed(3);
    let r = run(&cfg);
    assert_eq!(r.retransmits, 0);
    assert_eq!(r.duplicates_served, 0);
    assert_eq!(r.faults.dropped + r.faults.corrupted + r.faults.reordered + r.faults.duplicated, 0);
    // Every message demuxes exactly once.
    assert_eq!(r.table.lookups, r.completed);
    assert_eq!(r.faults.seen, r.completed);
    // Zipf skew keeps hot sessions on the shard caches.
    assert!(
        r.table.cache_hits > r.completed / 4,
        "expected a hot fast path, got {} cache hits / {} msgs",
        r.table.cache_hits,
        r.completed
    );
    assert!(r.hist.p50() > 0 && r.hist.p999() >= r.hist.p50());
    assert!(r.msgs_per_sec() > 0.0);
}

#[test]
fn faults_surface_in_counters_and_tail() {
    let base = TrafficConfig::open_loop(20_000, 4_000, 64).with_workers(2).with_seed(11);
    let clean = run(&base);
    let faulty = run(&base.with_faults(5_000, 2_500, 5_000, 2_500));
    assert!(faulty.retransmits > 0, "drops must retransmit");
    assert!(faulty.duplicates_served > 0, "duplicates must burn service time");
    assert!(faulty.faults.reordered > 0);
    assert_eq!(faulty.completed, clean.completed, "faults delay, not lose, messages");
    // A 2 ms RTO against ~tens-of-µs service times pushes the extreme
    // tail out by orders of magnitude.
    assert!(
        faulty.hist.max() > clean.hist.max(),
        "retransmit latency must stretch the tail: faulty max {} vs clean max {}",
        faulty.hist.max(),
        clean.hist.max()
    );
}

#[test]
fn session_churn_evicts_and_recolds() {
    // More sessions than table capacity with mild skew: evictions must
    // occur and misses must exceed the session count (re-cold sessions).
    let cfg = TrafficConfig::open_loop(20_000, 4_000, 512)
        .with_workers(1)
        .with_shards(4, 8) // 32 resident sessions max
        .with_theta(200)
        .with_seed(13);
    let r = run(&cfg);
    assert!(r.table.evictions > 0, "512 sessions cannot fit 32 slots");
    assert!(r.table.misses > 512, "evicted sessions must re-miss");
    assert_eq!(r.table.insertions, r.table.misses, "every miss faults state in");
}

#[test]
fn wheel_and_reference_heap_produce_identical_reports() {
    // The timing wheel is the default engine; the seed binary heap is
    // kept as `netsim::engine::reference`.  Across both scenario kinds
    // with the full fault mix they must agree bit for bit.
    let open = TrafficConfig::open_loop(20_000, 2_000, 64)
        .with_workers(2)
        .with_seed(0xAB)
        .with_faults(3_000, 1_500, 3_000, 1_500);
    assert_eq!(
        run_traffic(&open, svc).unwrap(),
        run_traffic_reference(&open, svc).unwrap(),
        "open-loop reports diverged between wheel and reference heap"
    );
    let closed = TrafficConfig::closed_loop(8, 5_000, 1_000, 32)
        .with_workers(2)
        .with_seed(7)
        .with_faults(3_000, 1_500, 3_000, 1_500);
    assert_eq!(
        run_traffic(&closed, svc).unwrap(),
        run_traffic_reference(&closed, svc).unwrap(),
        "closed-loop reports diverged between wheel and reference heap"
    );
}

#[test]
fn hundred_percent_drop_trips_the_event_budget_guard() {
    // Every arrival retransmits forever: the run must terminate with the
    // engine's event-budget diagnostic, not hang.
    let cfg = TrafficConfig::open_loop(20_000, 100, 16)
        .with_workers(2)
        .with_faults(1_000_000, 0, 0, 0);
    match run_traffic(&cfg, svc) {
        Err(Overrun::EventBudget { budget, pending, .. }) => {
            assert!(budget >= 1 << 16);
            assert!(pending > 0);
        }
        other => panic!("expected event-budget overrun, got {other:?}"),
    }
}

#[test]
fn overrun_is_the_lowest_failing_lanes_for_every_executor_count() {
    // All four lanes retransmit forever and blow the event budget.
    // Which lane trips first on the wall clock depends on scheduling;
    // the reported error must not: the lowest lane's wins, as in the
    // reference runners.
    let cfg = TrafficConfig::open_loop(20_000, 100, 16)
        .with_workers(4)
        .with_faults(1_000_000, 0, 0, 0);
    let want = run_traffic_reference(&cfg, svc).expect_err("100% drop must overrun");
    assert!(
        matches!(want, Overrun::EventBudget { now: 1_312_617_810, pending: 100, .. }),
        "reference overrun moved: {want:?}"
    );
    for executors in [0, 1, 2, 3, 4] {
        for _ in 0..2 {
            let got = run_traffic(&cfg.with_executors(executors), svc);
            assert_eq!(got.err(), Some(want), "executors {executors}");
        }
    }
}

#[test]
fn queueing_tail_grows_with_offered_load() {
    // Open loop at light vs near-saturation load: p99 must degrade as
    // utilisation approaches 1 even though per-message cost is fixed.
    let light = run(&TrafficConfig::open_loop(5_000, 4_000, 64).with_seed(17));
    let heavy = run(&TrafficConfig::open_loop(90_000, 4_000, 64).with_seed(17));
    assert!(
        heavy.hist.p99() > 2 * light.hist.p99(),
        "queueing must show in the tail: heavy p99 {} vs light p99 {}",
        heavy.hist.p99(),
        light.hist.p99()
    );
}
