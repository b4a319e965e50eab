//! The wire data plane's bit-identity suite.
//!
//! Three representations of the same run exist: descriptor-only (no
//! bytes), zero-copy pooled buffers, and the copy-and-materialize
//! reference codec.  The wire layer adds no modelled nanoseconds and
//! consumes no RNG draws of its own, so for any configuration all
//! three must produce the identical latency report — and both wire
//! paths must agree on every decode-outcome counter.  On top of that,
//! wire mode must preserve the dispatch plane's executor-count
//! invariance and the record/replay contract.

use traffic::runloop::reference;
use traffic::{
    config_from_record, config_to_record, record_traffic, replay_traffic, run_traffic,
    run_traffic_reference, FixedService, TraceStream, TrafficConfig, TrafficReport, WirePath,
    WireStats,
};

fn svc(_worker: u32) -> FixedService {
    FixedService { cache_hit_ns: 9_000, chain_hit_ns: 11_000, miss_ns: 40_000 }
}

/// A workload exercising every fate the injector can draw: the four
/// descriptor-era faults plus the three wire-shape ones.
fn faulty_cfg() -> TrafficConfig {
    TrafficConfig::open_loop(60_000, 3_000, 192)
        .with_workers(3)
        .with_seed(0x7713_0E21)
        .with_theta(900)
        .with_faults(4_000, 3_000, 2_500, 2_000)
        .with_wire_faults(3_000, 2_000, 2_500)
}

/// The report minus the byte-path counters (those legitimately differ
/// between descriptor and wire modes).
fn sans_wire(mut r: TrafficReport) -> TrafficReport {
    r.wire = WireStats::default();
    r
}

#[test]
fn wire_paths_reproduce_the_descriptor_report_bit_for_bit() {
    let base = faulty_cfg();
    let descriptor = reference::run_traffic(&base, svc).expect("descriptor run");
    let zero_copy =
        reference::run_traffic(&base.with_wire(WirePath::ZeroCopy), svc).expect("zero-copy run");
    let reference_codec =
        reference::run_traffic(&base.with_wire(WirePath::Reference), svc).expect("reference run");

    assert_eq!(
        sans_wire(zero_copy.clone()),
        descriptor,
        "encoding through real bytes changed the latency report"
    );
    assert_eq!(
        sans_wire(reference_codec.clone()),
        descriptor,
        "the copying codec changed the latency report"
    );

    // Both wire paths saw the same frames and reached the same decode
    // verdicts; only the pool counters differ (the reference path
    // allocates fresh copies by design).
    assert_eq!(
        zero_copy.wire.decode_counters(),
        reference_codec.wire.decode_counters(),
        "zero-copy and reference codecs diverged on decode outcomes"
    );
    assert_eq!(reference_codec.wire.pool, Default::default());

    // The run really went through the byte plane.
    let w = &zero_copy.wire;
    assert!(w.encoded > 0 && w.demuxed > 0, "no frames took the wire path");
    assert!(w.payload_bytes >= 16 * w.demuxed, "demuxed frames carry the 16-byte payload");
    assert!(
        w.bad_fcs > 0 && w.truncated > 0 && w.malformed > 0 && w.fragmented > 0,
        "fault mix should produce every anomaly class: {w:?}"
    );
    // Every fate-level wire anomaly was confirmed by a real parse.
    assert_eq!(w.truncated, zero_copy.faults.truncated);
    assert_eq!(w.malformed, zero_copy.faults.malformed);
    assert_eq!(w.fragmented, zero_copy.faults.fragmented);
    assert_eq!(w.bad_fcs, zero_copy.faults.corrupted);

    // Pooled buffers recycle; the steady state never allocates.
    assert_eq!(w.pool.grows, 0, "pool grew mid-run: {:?}", w.pool);
    assert_eq!(w.pool.allocs, w.encoded, "one pooled buffer per encoded frame");
    assert_eq!(w.pool.frees, w.pool.allocs, "every buffer returned");
    assert!(w.pool.recycle_rate() > 0.99, "steady state must recycle: {:?}", w.pool);
}

#[test]
fn dispatch_plane_stays_executor_invariant_in_wire_mode() {
    for path in [WirePath::ZeroCopy, WirePath::Reference] {
        let cfg = faulty_cfg().with_wire(path);
        let fifo_wheel = reference::run_traffic(&cfg, svc).expect("reference wheel run");
        let fifo_heap = run_traffic_reference(&cfg, svc).expect("reference heap run");
        assert_eq!(fifo_wheel, fifo_heap, "seed FIFO disagrees across schedulers ({path:?})");
        for executors in [1, 2, 3] {
            let got = run_traffic(&cfg.with_executors(executors), svc).expect("dispatch run");
            assert_eq!(
                got, fifo_wheel,
                "dispatch plane with {executors} executors diverged in {path:?} mode"
            );
        }
    }
}

#[test]
fn closed_loop_wire_mode_matches_descriptor() {
    let base = TrafficConfig::closed_loop(8, 30_000, 2_000, 128)
        .with_workers(2)
        .with_seed(0xC10C)
        .with_faults(3_000, 2_000, 1_500, 1_000)
        .with_wire_faults(2_000, 1_500, 1_000);
    let descriptor = reference::run_traffic(&base, svc).expect("descriptor run");
    let zero_copy =
        reference::run_traffic(&base.with_wire(WirePath::ZeroCopy), svc).expect("zero-copy run");
    assert_eq!(sans_wire(zero_copy), descriptor);
}

#[test]
fn record_and_replay_work_in_wire_mode() {
    let cfg = faulty_cfg().with_wire(WirePath::ZeroCopy);
    let (recorded, events) = record_traffic(&cfg, svc).expect("recording run");
    let stream = TraceStream::from_events(&events).expect("recorded log validates");
    assert_eq!(stream.config(), cfg, "config survives the trace round trip");
    let replayed = replay_traffic(&stream, svc).expect("replay run");
    assert_eq!(
        replayed, recorded,
        "replay must reproduce the recording bit-for-bit, wire counters included"
    );
}

#[test]
fn config_record_round_trips_wire_fields() {
    for path in [WirePath::Descriptor, WirePath::ZeroCopy, WirePath::Reference] {
        let cfg = faulty_cfg().with_wire(path);
        let rec = config_to_record(&cfg);
        assert_eq!(rec.wire_kind, path.code());
        assert_eq!(
            (rec.truncate_ppm, rec.malform_ppm, rec.fragment_ppm),
            (cfg.truncate_ppm, cfg.malform_ppm, cfg.fragment_ppm)
        );
        assert_eq!(config_from_record(&rec).expect("valid record"), cfg);
    }
    let mut rec = config_to_record(&faulty_cfg());
    rec.wire_kind = 9;
    assert!(config_from_record(&rec).is_err(), "unknown wire code must be rejected");
}

#[test]
fn wire_counters_obey_the_accounting_law() {
    // Every send is one encode and one pooled buffer; every intact fate
    // is one clean demux of the 16-byte payload; every other fate is one
    // typed decode verdict of its own class — on every plane, executor
    // count and trace direction.
    fn check(label: &str, r: &TrafficReport) {
        let (w, f) = (&r.wire, &r.faults);
        let lost = f.dropped + f.corrupted + f.truncated + f.malformed + f.fragmented;
        assert_eq!(w.encoded, f.seen, "{label}: one frame per send");
        assert_eq!(
            w.demuxed,
            f.seen - lost,
            "{label}: delivered + reordered + duplicated"
        );
        assert_eq!(w.bad_fcs, f.corrupted, "{label}");
        assert_eq!(
            (w.truncated, w.malformed, w.fragmented),
            (f.truncated, f.malformed, f.fragmented),
            "{label}"
        );
        assert_eq!(
            (w.pool.allocs, w.pool.frees),
            (w.encoded, w.encoded),
            "{label}"
        );
        assert_eq!(w.pool.grows, 0, "{label}");
        assert_eq!(w.payload_bytes, 16 * w.demuxed, "{label}");
        assert!(
            w.bad_fcs > 0 && w.truncated > 0 && w.malformed > 0 && w.fragmented > 0,
            "{label}: the fault mix must reach every class: {w:?}"
        );
    }
    let cfg = faulty_cfg().with_wire(WirePath::ZeroCopy);
    let reference = run_traffic_reference(&cfg, svc).expect("reference heap run");
    check("run_traffic_reference", &reference);
    for executors in [1, 2] {
        let cfg = cfg.with_executors(executors);
        let live = run_traffic(&cfg, svc).expect("dispatch run");
        check(&format!("live, {executors} executors"), &live);
        let (recorded, events) = record_traffic(&cfg, svc).expect("recording run");
        check(&format!("recorded, {executors} executors"), &recorded);
        let stream = TraceStream::from_events(&events).expect("recorded log validates");
        let replayed = replay_traffic(&stream, svc).expect("replay run");
        check(&format!("replayed, {executors} executors"), &replayed);
        assert_eq!(
            (&live, &recorded),
            (&reference, &replayed),
            "{executors} executors"
        );
    }
}
