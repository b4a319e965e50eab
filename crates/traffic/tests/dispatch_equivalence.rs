//! The dispatch plane's seeded bit-identity suite.
//!
//! `run_traffic` executes lanes on the dispatch plane (self-driving
//! lanes, each run to completion by one of `executors` threads drawing
//! from one shared work queue); `runloop::reference` is the seed
//! per-lane FIFO.  For every configuration and every executor count
//! the merged reports must be bit-identical — the executor count only
//! decides *which thread* runs a lane and *when*, so it can never leak
//! into *what* the lane computes.

use traffic::runloop::reference;
use traffic::{run_traffic, run_traffic_reference, FixedService, TrafficConfig, TrafficReport};

fn svc(_worker: u32) -> FixedService {
    FixedService { cache_hit_ns: 9_000, chain_hit_ns: 11_000, miss_ns: 40_000 }
}

/// Dispatch report for `cfg` pinned to `executors` threads.
fn dispatch(cfg: &TrafficConfig, executors: u32) -> TrafficReport {
    run_traffic(&cfg.with_executors(executors), svc).expect("dispatch run")
}

fn assert_all_executor_counts_match(cfg: &TrafficConfig) {
    let fifo_wheel = reference::run_traffic(cfg, svc).expect("reference wheel run");
    let fifo_heap = run_traffic_reference(cfg, svc).expect("reference heap run");
    assert_eq!(fifo_wheel, fifo_heap, "seed FIFO must agree across schedulers");
    for executors in [0, 1, 2, 3, cfg.workers] {
        let got = dispatch(cfg, executors);
        assert_eq!(
            got, fifo_wheel,
            "dispatch plane with {executors} executors diverged from the seed FIFO"
        );
    }
}

#[test]
fn open_loop_with_faults_is_bit_identical_for_every_executor_count() {
    let cfg = TrafficConfig::open_loop(50_000, 4_000, 256)
        .with_workers(4)
        .with_seed(0xD15B_A7C4)
        .with_theta(900)
        .with_faults(4_000, 2_000, 3_000, 2_000);
    assert_all_executor_counts_match(&cfg);
}

#[test]
fn saturated_open_loop_is_bit_identical() {
    // Offered rate far above the ~25 µs/message service capacity:
    // queues grow without bound, so every lane's arrival draws run far
    // ahead of its served work and the arrival/event merge is
    // exercised hard.
    let cfg = TrafficConfig::open_loop(400_000, 3_000, 128)
        .with_workers(3)
        .with_seed(0x5A7E)
        .with_faults(2_000, 1_000, 1_000, 1_000);
    assert_all_executor_counts_match(&cfg);
}

#[test]
fn closed_loop_is_bit_identical_for_every_executor_count() {
    let cfg = TrafficConfig::closed_loop(12, 40_000, 3_000, 192)
        .with_workers(4)
        .with_seed(0xC105ED)
        .with_faults(3_000, 1_500, 3_000, 1_500);
    assert_all_executor_counts_match(&cfg);
}

#[test]
fn single_lane_matches_reference() {
    let cfg = TrafficConfig::open_loop(30_000, 5_000, 64).with_seed(77).with_faults(5_000, 0, 0, 5_000);
    assert_all_executor_counts_match(&cfg);
}

#[test]
fn more_lanes_than_executors_forces_stealing_and_stays_identical() {
    // 8 lanes on 2 executors: each thread runs several lanes one after
    // another, in an order that depends on which thread finishes first.
    let cfg = TrafficConfig::open_loop(80_000, 2_500, 96)
        .with_workers(8)
        .with_seed(0xBEE5)
        .with_faults(2_500, 1_000, 2_000, 1_000);
    let fifo = reference::run_traffic(&cfg, svc).expect("reference run");
    assert_eq!(dispatch(&cfg, 2), fifo);
}

#[test]
fn dispatch_is_bit_reproducible_across_runs() {
    let cfg = TrafficConfig::open_loop(60_000, 3_000, 128)
        .with_workers(4)
        .with_executors(3)
        .with_seed(0xF00D)
        .with_faults(3_000, 1_500, 3_000, 1_500);
    let a = run_traffic(&cfg, svc).expect("first run");
    let b = run_traffic(&cfg, svc).expect("second run");
    assert_eq!(a, b, "thread scheduling leaked into the report");
}

#[test]
fn zero_message_open_loop_terminates_empty() {
    let cfg = TrafficConfig::open_loop(10_000, 0, 16).with_workers(2);
    let r = run_traffic(&cfg, svc).expect("empty run");
    assert_eq!(r.completed, 0);
    assert_eq!(r, reference::run_traffic(&cfg, svc).expect("reference empty run"));
}
