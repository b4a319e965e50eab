//! The sweep engine's adaptive re-layout stage: memoization, the
//! stride-0 passthrough contract, determinism of the full loop, a
//! golden pin of one real-stack swap timeline, and the headline
//! behaviour — an adaptive run started on a pessimal layout swaps
//! itself onto a better one.
//!
//! Sizes are kept small — tier-1 runs these in debug mode.

use std::sync::Arc;

use protocols::StackOptions;
use protolat_core::{AdaptSpec, StackKind, SweepEngine, Version, VersionSet};
use traffic::{AdaptConfig, AdaptCounters, SwapEvent, TrafficConfig};

fn small_cfg() -> TrafficConfig {
    TrafficConfig::open_loop(2_000, 400, 48)
        .with_workers(2)
        .with_shards(4, 16)
        .with_seed(0x7A)
        .with_faults(3_000, 1_500, 3_000, 1_500)
}

/// An adapt tuning that reacts quickly at test scale.
fn eager_adapt() -> AdaptConfig {
    AdaptConfig { stride: 2, window: 16, min_dwell_ns: 1_000_000, relayout_latency_ns: 1_000_000 }
}

#[test]
fn version_set_is_ordered_and_exact() {
    let set = VersionSet::of(&[Version::All, Version::Bad]);
    assert_eq!(set.len(), 2);
    assert!(!set.is_empty());
    assert!(set.contains(Version::Bad) && set.contains(Version::All));
    assert!(!set.contains(Version::Std));
    // Members come back in canonical Table-4 order, not insertion order.
    assert_eq!(set.members(), vec![Version::Bad, Version::All]);
    assert_eq!(VersionSet::all().len(), 6);
}

#[test]
fn adapt_stage_is_memoized() {
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    let spec = AdaptSpec::new(small_cfg(), eager_adapt(), Version::Bad)
        .with_candidates(&[Version::Bad, Version::All]);
    let a = eng.adapt(StackKind::TcpIp, opts, 2, spec);
    let b = eng.adapt(StackKind::TcpIp, opts, 2, spec);
    assert!(Arc::ptr_eq(&a, &b), "second request must hit the cache");
    assert_eq!(eng.counters().adapts, 1);

    // A different tuning is a different cell.
    let mut other = spec;
    other.adapt.stride = 4;
    let c = eng.adapt(StackKind::TcpIp, opts, 2, other);
    assert!(!Arc::ptr_eq(&a, &c));
    assert_eq!(eng.counters().adapts, 2);
}

#[test]
fn stride_zero_is_a_bit_identical_passthrough() {
    // With sampling off the adaptive wrapper must vanish: the whole
    // report — latencies, counters, service statistics — equals the
    // plain traffic stage on the initial layout, and the adaptation
    // timeline is empty.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let cfg = small_cfg();
    let spec = AdaptSpec::new(cfg, AdaptConfig { stride: 0, ..eager_adapt() }, Version::Std);
    let adaptive = eng.adapt(StackKind::TcpIp, opts, 2, spec);
    let fixed = eng.traffic(StackKind::TcpIp, opts, 2, Version::Std, cfg);
    assert_eq!(adaptive.report, *fixed, "stride 0 must not change a bit");
    assert_eq!(adaptive.adapt.counters.samples, 0);
    assert_eq!(adaptive.adapt.counters.requests, 0);
    assert!(adaptive.adapt.swaps.is_empty());
    assert_eq!(adaptive.adapt.worker.responses, 0);
}

#[test]
fn adapt_stage_is_deterministic_across_engines() {
    // Same spec computed by two independent engines (cold caches) must
    // produce identical outcomes — serving report, swap timeline and
    // worker statistics alike.
    let opts = StackOptions::improved();
    let spec = AdaptSpec::new(small_cfg(), eager_adapt(), Version::Bad)
        .with_candidates(&[Version::Bad, Version::All]);
    let a = SweepEngine::new().adapt(StackKind::TcpIp, opts, 2, spec);
    let b = SweepEngine::new().adapt(StackKind::TcpIp, opts, 2, spec);
    assert_eq!(*a, *b);
}

#[test]
fn adaptive_run_swaps_off_a_pessimal_layout() {
    // Started on BAD with ALL in the pool, the loop must profile, post
    // a request, and hot-swap onto ALL — invalidating the incoming
    // service — and must not end up with a worse tail than static BAD.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let cfg = small_cfg();
    let spec = AdaptSpec::new(cfg, eager_adapt(), Version::Bad)
        .with_candidates(&[Version::Bad, Version::All]);
    let out = eng.adapt(StackKind::TcpIp, opts, 2, spec);

    assert!(out.adapt.counters.samples > 0, "profiler must sample");
    assert!(out.adapt.counters.windows > 0, "windows must close");
    assert!(out.adapt.counters.requests >= 1, "first window departs from the empty baseline");
    assert_eq!(out.adapt.worker.responses, out.adapt.counters.requests);
    assert!(out.adapt.counters.swaps_applied >= 1, "the verdict must move off BAD");
    let first = out.adapt.swaps.iter().find(|s| !s.noop).expect("an applied swap");
    assert_eq!(first.from, "BAD");
    assert_eq!(first.to, "ALL", "ALL must out-score BAD on every depth mix");
    assert!(
        out.report.service.invalidations >= 1,
        "a real swap restarts the incoming service cold"
    );

    let bad = eng.traffic(StackKind::TcpIp, opts, 2, Version::Bad, cfg);
    assert_eq!(out.report.completed, bad.completed, "same offered load");
    assert!(
        out.report.hist.p99() <= bad.hist.p99(),
        "adaptive p99 {} must not lose to static BAD {}",
        out.report.hist.p99(),
        bad.hist.p99()
    );
}

/// The golden TCP/IP timeline: `(lane, at_ns, from, to, trigger_fp)`.
/// A verdict whose `to` equals its `from` is a no-op swap.
const GOLDEN_TCPIP_SWAPS: [(u32, u64, &str, &str, u64); 24] = [
    (0, 23_837_843, "BAD", "ALL", 13268203831036102904),
    (0, 36_792_979, "ALL", "ALL", 5943825726367455764),
    (0, 49_021_714, "ALL", "ALL", 16076440794555148903),
    (0, 65_677_418, "ALL", "ALL", 9256495616740765810),
    (0, 82_861_173, "ALL", "ALL", 1032129663498140676),
    (0, 93_707_054, "ALL", "ALL", 11941419900819425107),
    (0, 113_430_642, "ALL", "ALL", 447614341674045079),
    (0, 127_730_935, "ALL", "ALL", 7017183802755312207),
    (0, 143_861_583, "ALL", "ALL", 3908657755658629720),
    (0, 157_521_282, "ALL", "ALL", 13436452378591944303),
    (0, 172_516_975, "ALL", "ALL", 1070822300263684977),
    (0, 189_235_555, "ALL", "ALL", 6218739702470369882),
    (1, 16_588_664, "BAD", "ALL", 10610638472705856975),
    (1, 34_062_771, "ALL", "ALL", 17525581969952264392),
    (1, 46_557_267, "ALL", "ALL", 6323171712095689322),
    (1, 57_727_129, "ALL", "ALL", 12232146773747757069),
    (1, 76_405_512, "ALL", "ALL", 1899172360021684526),
    (1, 93_872_312, "ALL", "ALL", 17820992666435277800),
    (1, 109_797_582, "ALL", "ALL", 9960674812485731028),
    (1, 124_654_640, "ALL", "ALL", 14856132920841927963),
    (1, 136_128_550, "ALL", "ALL", 14081245040168310950),
    (1, 155_944_948, "ALL", "ALL", 13764179889356068109),
    (1, 172_890_123, "ALL", "ALL", 2499626695441648292),
    (1, 191_312_830, "ALL", "ALL", 16739380097337338203),
];

#[test]
fn golden_tcpip_adapt_cell_is_pinned() {
    // One real-stack cell pinned end to end: lane counters, every swap
    // event and the tail.  The values were recorded when the worker
    // still raced a micro-positioned plan re-synthesized per profile
    // against the pool; that plan lost all 24 verdicts, so scoring the
    // static pool alone must reproduce the run exactly.
    let opts = StackOptions::improved();
    let spec = AdaptSpec::new(small_cfg(), eager_adapt(), Version::Bad)
        .with_candidates(&[Version::Bad, Version::Std, Version::All]);
    let out = SweepEngine::new().adapt(StackKind::TcpIp, opts, 2, spec);

    assert_eq!(
        out.adapt.counters,
        AdaptCounters { samples: 401, windows: 24, requests: 24, swaps_applied: 2, swaps_noop: 22 }
    );
    assert_eq!((out.adapt.worker.responses, out.adapt.worker.fp_memo_hits), (24, 0));
    let golden: Vec<SwapEvent> = GOLDEN_TCPIP_SWAPS
        .iter()
        .map(|&(lane, at, from, to, trigger_fp)| SwapEvent {
            lane,
            at,
            from: from.into(),
            to: to.into(),
            trigger_fp,
            noop: from == to,
        })
        .collect();
    assert_eq!(out.adapt.swaps, golden);
    assert_eq!(out.report.completed, 800);
    assert_eq!(out.report.hist.p50(), 65_536);
    assert_eq!(out.report.hist.p99(), 245_760);
}
