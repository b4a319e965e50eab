//! Adaptive-loop integration: seeded determinism of phase-shifting
//! workloads (including executor-count and reference-runloop
//! invariance), the sampling-off and single-candidate passthrough
//! contracts, and the hot-swap no-op rule — a forced epoch transition
//! onto the already-active layout must leave the run bit-identical.
//!
//! The replay fixtures use a tiny two-function kcode program so these
//! tests stay fast in debug mode; the full-stack behaviour is covered
//! by the core crate's `adapt_stage` suite and the `adapt` bench suite.

use std::sync::Arc;

use kcode::func::{FrameSpec, FuncKind};
use kcode::layout::{build_image, LayoutRequest};
use kcode::{
    Body, EventStream, Image, ImageConfig, LayoutStrategy, Program, ProgramBuilder, Recorder,
};
use traffic::{
    run_adaptive, run_traffic, run_traffic_reference, AdaptConfig, AdaptReport, AdaptiveService,
    Candidate, FixedService, Phase, PhasePlan, ReplayService, StreamKind, TrafficConfig,
    TrafficReport,
};

fn svc(_worker: u32) -> FixedService {
    FixedService { cache_hit_ns: 9_000, chain_hit_ns: 11_000, miss_ns: 40_000 }
}

/// A three-phase schedule spanning the 100 ms of simulated time the
/// open-loop configurations below run for.
fn shifting_plan() -> PhasePlan {
    PhasePlan::new(&[
        Phase {
            stream: StreamKind::Zipf,
            milli_theta: 900,
            duration_ns: 33_000_000,
            settle_ns: 8_000_000,
        },
        Phase {
            stream: StreamKind::Conflict { slots: 4, cycle: 3 },
            milli_theta: 900,
            duration_ns: 33_000_000,
            settle_ns: 8_000_000,
        },
        Phase { stream: StreamKind::Zipf, milli_theta: 1_100, duration_ns: 0, settle_ns: 8_000_000 },
    ])
}

fn phased_cfg() -> TrafficConfig {
    TrafficConfig::open_loop(20_000, 2_000, 64)
        .with_workers(4)
        .with_seed(0xAB)
        .with_faults(3_000, 1_500, 3_000, 1_500)
        .with_phases(shifting_plan())
}

/// Two-function replay fixture: root does some work, calls a leaf.
fn fixture() -> (Arc<Program>, EventStream) {
    let mut pb = ProgramBuilder::new();
    let (inner, s_inner) = pb.function("leaf", FuncKind::Library, FrameSpec::leaf(), |fb| {
        fb.straight("w", Body::ops(10))
    });
    let (outer, (s_head, s_call)) =
        pb.function("root", FuncKind::Path, FrameSpec::standard(), |fb| {
            (fb.straight("head", Body::ops(12)), fb.call("c", inner, Body::ops(2)))
        });
    let program = pb.build();
    let mut r = Recorder::new();
    r.enter(outer);
    r.seg(s_head);
    r.call(s_call, inner);
    r.seg(s_inner);
    r.leave();
    r.leave();
    (program, r.take())
}

fn fixture_image(program: &Arc<Program>, ev: &EventStream, strategy: LayoutStrategy) -> Arc<Image> {
    Arc::new(build_image(program, LayoutRequest::new(strategy, ImageConfig::plain("t")), &ev.events))
}

/// Everything except the per-phase histogram vectors (which only exist
/// on the phased side of an equivalence by construction).
fn assert_same_serving(a: &TrafficReport, b: &TrafficReport) {
    assert_eq!(a.hist, b.hist);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.sim_ns, b.sim_ns);
    assert_eq!(a.retransmits, b.retransmits);
    assert_eq!(a.duplicates_served, b.duplicates_served);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.table, b.table);
    assert_eq!(a.service, b.service);
}

#[test]
fn phased_run_is_reproducible_and_executor_invariant() {
    let cfg = phased_cfg();
    let base = run_traffic(&cfg, svc).expect("phased scenario must drain");
    assert_eq!(base.phase_hists.len(), 3, "one full histogram per phase");
    assert_eq!(base.phase_steady.len(), 3);
    let recorded: u64 = base.phase_hists.iter().map(|h| h.count()).sum();
    assert_eq!(recorded, base.completed, "every completion lands in exactly one phase");
    for (i, (full, steady)) in base.phase_hists.iter().zip(&base.phase_steady).enumerate() {
        assert!(steady.count() > 0, "phase {i} steady window must see traffic");
        assert!(steady.count() < full.count(), "phase {i} settle window must exclude births");
    }

    // Same seed, same schedule: bit-identical regardless of how many
    // executor threads drive the lanes, and across a rerun.
    assert_eq!(run_traffic(&cfg, svc).unwrap(), base);
    for executors in [1, 2, 4] {
        assert_eq!(
            run_traffic(&cfg.with_executors(executors), svc).unwrap(),
            base,
            "{executors} executors changed a phased run"
        );
    }
    // The seed per-lane FIFO runloop agrees bit for bit too.
    assert_eq!(run_traffic_reference(&cfg, svc).unwrap(), base);
}

#[test]
fn phase_seed_steers_the_workload() {
    let a = run_traffic(&phased_cfg().with_seed(1), svc).unwrap();
    let b = run_traffic(&phased_cfg().with_seed(2), svc).unwrap();
    assert_ne!(a.hist, b.hist, "seed must steer the phased workload");
}

#[test]
fn single_phase_plan_matches_the_plain_stream() {
    // A one-phase plan that restates the base configuration's stream
    // and skew must consume the RNG identically to a run without any
    // plan: phasing is free until a schedule actually shifts something.
    let base = TrafficConfig::open_loop(20_000, 2_000, 64)
        .with_workers(2)
        .with_seed(9)
        .with_faults(3_000, 1_500, 3_000, 1_500);
    let plan = PhasePlan::new(&[Phase {
        stream: StreamKind::Zipf,
        milli_theta: 900,
        duration_ns: 0,
        settle_ns: 0,
    }]);
    let plain = run_traffic(&base, svc).unwrap();
    let phased = run_traffic(&base.with_phases(plan), svc).unwrap();
    assert_same_serving(&plain, &phased);
    assert!(plain.phase_hists.is_empty());
    assert_eq!(phased.phase_hists.len(), 1);
    assert_eq!(phased.phase_hists[0], plain.hist);
}

#[test]
fn stride_zero_adaptive_is_bit_identical_to_static() {
    let (program, episode) = fixture();
    let img = fixture_image(&program, &episode, LayoutStrategy::MicroPosition);
    let alt = fixture_image(&program, &episode, LayoutStrategy::Linear);
    let cfg = TrafficConfig::open_loop(20_000, 800, 32).with_workers(2).with_seed(5);
    let adapt = AdaptConfig { stride: 0, ..AdaptConfig::default() };
    let candidates =
        [Candidate::new("A", Arc::clone(&img)), Candidate::new("B", Arc::clone(&alt))];
    let (report, adapt_report) =
        run_adaptive(&cfg, &adapt, &episode, &candidates, 0).expect("must drain");
    let fixed = run_traffic(&cfg, |_| ReplayService::new(&img, &episode)).unwrap();
    assert_eq!(report, fixed, "sampling off: the adaptive wrapper must vanish");
    assert_eq!(adapt_report, AdaptReport::default(), "no samples, no requests, no swaps");
}

#[test]
fn forced_self_swap_is_a_bit_identical_noop() {
    // The test hook drives the full epoch-transition path (pending swap
    // staged, applied at the boundary serve) with a verdict naming the
    // active candidate: by the no-op rule nothing may change — no
    // service invalidation, no histogram movement, nothing.
    let (program, episode) = fixture();
    let img = fixture_image(&program, &episode, LayoutStrategy::MicroPosition);
    let cfg = TrafficConfig::open_loop(20_000, 2_000, 64).with_workers(2).with_seed(0xF0);
    let adapt = AdaptConfig { stride: 4, window: 8, ..AdaptConfig::default() };
    let cands = [Candidate::new("A", Arc::clone(&img))];
    let swapped = run_traffic(&cfg, |lane| {
        let mut s = AdaptiveService::new(lane, &cands, 0, &episode, adapt, None);
        s.force_self_swap_at(40_000_000);
        s
    })
    .unwrap();
    let fixed = run_traffic(&cfg, |_| ReplayService::new(&img, &episode)).unwrap();
    assert_eq!(swapped, fixed, "a self-swap must be invisible in the report");
    assert_eq!(swapped.service.invalidations, 0, "no-op swaps never restart the memo");
}

#[test]
fn adaptive_run_is_deterministic_across_executors() {
    // The full loop — phased workload, sampling, shared verdicts,
    // applied swaps — must be a pure function of the configuration:
    // identical across reruns and across executor-thread counts.  BAD
    // aliases both functions onto one i-cache set, so GOOD out-scores
    // it and the verdicts really move lanes.
    let (program, episode) = fixture();
    let good = fixture_image(&program, &episode, LayoutStrategy::MicroPosition);
    let bad = fixture_image(&program, &episode, LayoutStrategy::Bad);
    let cfg = TrafficConfig::open_loop(20_000, 2_000, 64)
        .with_workers(2)
        .with_seed(0x11)
        .with_phases(shifting_plan());
    let adapt = AdaptConfig {
        stride: 4,
        window: 8,
        min_dwell_ns: 10_000_000,
        relayout_latency_ns: 5_000_000,
    };
    let run = |executors: u32| {
        let candidates =
            [Candidate::new("BAD", Arc::clone(&bad)), Candidate::new("GOOD", Arc::clone(&good))];
        run_adaptive(&cfg.with_executors(executors), &adapt, &episode, &candidates, 0)
            .expect("must drain")
    };
    let base = run(0);
    assert!(base.1.counters.samples > 0, "the loop must engage at this scale");
    assert!(base.1.counters.swaps_applied >= 1, "the verdicts must move off BAD");
    assert_eq!(run(0), base, "rerun must reproduce exactly");
    for executors in [1, 2] {
        assert_eq!(run(executors), base, "{executors} executors changed the adaptive run");
    }
}
