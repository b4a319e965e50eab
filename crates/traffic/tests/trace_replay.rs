//! Record/replay integration: a captured run replays bit-identically
//! (full and per-phase histograms, session-table stats, fault-fate
//! counters) through every execution plane and executor count, the
//! trace itself is plane- and executor-invariant, both codecs round-
//! trip through disk, tampered traces surface typed divergence, and
//! adaptive runs validate their recorded verdict timeline.

use std::sync::Arc;

use kcode::func::{FrameSpec, FuncKind};
use kcode::layout::{build_image, LayoutRequest};
use kcode::{
    Body, EventStream, Image, ImageConfig, LayoutStrategy, Program, ProgramBuilder, Recorder,
};
use netsim::Fate;
use trace::{read_events, write_events, Format, TraceEvent, TraceWriter};
use traffic::{
    config_from_record, config_to_record, record_adaptive, record_traffic,
    record_traffic_reference, replay_adaptive, replay_traffic, replay_traffic_reference,
    run_traffic, AdaptConfig, Candidate, FixedService, Phase, PhasePlan, PolicyKind, ReplayError,
    ReplayService, StreamKind, TraceStream, TrafficConfig, DUPLICATE_DELAY_NS,
};

fn svc(_worker: u32) -> FixedService {
    FixedService { cache_hit_ns: 9_000, chain_hit_ns: 11_000, miss_ns: 40_000 }
}

/// Fault-heavy phased open-loop configuration: exercises every event
/// kind (arrivals, all four fates, RTO firings, phase switches).
fn hostile_cfg() -> TrafficConfig {
    TrafficConfig::open_loop(20_000, 2_000, 64)
        .with_workers(4)
        .with_seed(0x7EA5)
        .with_faults(3_000, 1_500, 3_000, 1_500)
        .with_policy(PolicyKind::TwoWayLru { sets: 4 })
        .with_phases(PhasePlan::new(&[
            Phase {
                stream: StreamKind::Zipf,
                milli_theta: 900,
                duration_ns: 50_000_000,
                settle_ns: 8_000_000,
            },
            Phase {
                stream: StreamKind::Train { milli_cont: 800 },
                milli_theta: 1_100,
                duration_ns: 0,
                settle_ns: 8_000_000,
            },
        ]))
}

#[test]
fn record_matches_live_and_replay_is_bit_identical_across_executors() {
    let cfg = hostile_cfg();
    let live = run_traffic(&cfg, svc).expect("live run must drain");
    let (recorded, events) = record_traffic(&cfg, svc).expect("recording run must drain");
    assert_eq!(recorded, live, "recording must not perturb the run");
    assert!(matches!(events[0], TraceEvent::Config(_)), "config leads the log");

    // The acceptance gate: replay through the trace-driven workload
    // source equals the live run bit for bit, for multiple executor
    // counts and on the reference plane.
    for executors in [1u32, 3] {
        let stream = TraceStream::from_events(&events).unwrap().with_executors(executors);
        let replayed = replay_traffic(&stream, svc).expect("replay must not diverge");
        assert_eq!(replayed, live, "replay with {executors} executors diverged");
    }
    let stream = TraceStream::from_events(&events).unwrap();
    let replayed = replay_traffic_reference(&stream, svc).expect("reference replay");
    assert_eq!(replayed, live, "reference-plane replay diverged");
}

#[test]
fn trace_is_plane_and_executor_invariant() {
    let cfg = hostile_cfg();
    let (_, via_dispatch) = record_traffic(&cfg, svc).unwrap();
    let (_, via_one_exec) = record_traffic(&cfg.with_executors(1), svc).unwrap();
    let (_, via_reference) = record_traffic_reference(&cfg, svc).unwrap();
    // Executor count is recorded as provenance, so logs from different
    // executor counts differ only in the config record.
    assert_eq!(via_dispatch[1..], via_one_exec[1..], "executor count leaked into the trace");
    assert_eq!(via_dispatch, via_reference, "execution plane leaked into the trace");
}

#[test]
fn closed_loop_record_replay_round_trips() {
    let cfg = TrafficConfig::closed_loop(16, 50_000, 1_500, 48)
        .with_workers(3)
        .with_seed(0xC10)
        .with_faults(4_000, 2_000, 4_000, 2_000);
    let live = run_traffic(&cfg, svc).unwrap();
    let (recorded, events) = record_traffic(&cfg, svc).unwrap();
    assert_eq!(recorded, live);
    for executors in [1u32, 2] {
        let stream = TraceStream::from_events(&events).unwrap().with_executors(executors);
        assert_eq!(replay_traffic(&stream, svc).unwrap(), live);
    }
    // Closed loop feeds arrivals through the request path; the trace
    // must still carry the full quota per lane.
    let arrivals = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Arrival { .. }))
        .count();
    assert_eq!(arrivals as u32, cfg.messages_per_worker * cfg.workers);
}

#[test]
fn trace_files_replay_through_both_codecs() {
    let cfg = hostile_cfg();
    let live = run_traffic(&cfg, svc).unwrap();
    let (_, events) = record_traffic(&cfg, svc).unwrap();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    for name in [format!("protolat_replay_{pid}.trace"), format!("protolat_replay_{pid}.json")] {
        let path = dir.join(name);
        write_events(&path, &events).expect("trace file write");
        let stream = TraceStream::load(&path).expect("trace file load");
        assert_eq!(stream.config(), cfg, "config did not survive the file round trip");
        assert_eq!(
            stream.fingerprint(),
            trace::fingerprint(&events),
            "fingerprint changed across the file round trip"
        );
        assert_eq!(replay_traffic(&stream, svc).unwrap(), live);
        assert_eq!(read_events(&path).unwrap(), events);
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn config_record_round_trips() {
    let cfgs = [
        hostile_cfg(),
        TrafficConfig::closed_loop(8, 100_000, 500, 32)
            .with_workers(2)
            .with_shard_budget(16, 4_096)
            .with_policy(PolicyKind::Random { slots: 8 })
            .with_stream(StreamKind::Conflict { slots: 4, cycle: 3 }),
        TrafficConfig::open_loop(5_000, 100, 16),
    ];
    for cfg in cfgs {
        let rec = config_to_record(&cfg);
        let back = config_from_record(&rec).expect("well-formed record");
        assert_eq!(back, cfg, "config did not survive the wire record");
    }
}

#[test]
fn tampered_fate_is_typed_divergence() {
    let cfg = hostile_cfg();
    let (_, mut events) = record_traffic(&cfg, svc).unwrap();
    // Flip the first delivered fate to a drop: the replayed run then
    // takes the retransmission path, and its RTO firing has no
    // counterpart in the trace.
    let slot = events
        .iter_mut()
        .find(|e| matches!(e, TraceEvent::Fate { fate: Fate::Delivered, .. }))
        .expect("a delivered fate exists");
    if let TraceEvent::Fate { fate, .. } = slot {
        *fate = Fate::Dropped;
    }
    let stream = TraceStream::from_events(&events).expect("counts are still structurally valid");
    match replay_traffic(&stream, svc) {
        Err(ReplayError::Diverged(msg)) => {
            assert!(msg.starts_with("lane "), "divergence names the lane: {msg}");
        }
        other => panic!("tampered fate must diverge, got {other:?}", other = other.err()),
    }
}

#[test]
fn structurally_broken_traces_are_rejected() {
    let cfg = hostile_cfg();
    let (_, events) = record_traffic(&cfg, svc).unwrap();

    // No leading config.
    assert!(TraceStream::from_events(&events[1..]).is_err());
    // Empty log.
    assert!(TraceStream::from_events(&[]).is_err());
    // An event's lane beyond the worker count.
    let mut bad = events.clone();
    if let Some(TraceEvent::Fate { lane, .. }) =
        bad.iter_mut().find(|e| matches!(e, TraceEvent::Fate { .. }))
    {
        *lane = 99;
    }
    assert!(TraceStream::from_events(&bad).is_err());
    // A missing arrival breaks the per-lane quota.
    let mut short = events.clone();
    let idx = short.iter().position(|e| matches!(e, TraceEvent::Arrival { .. })).unwrap();
    short.remove(idx);
    assert!(TraceStream::from_events(&short).is_err());
    // The original is, of course, fine.
    assert!(TraceStream::from_events(&events).is_ok());
}

#[test]
fn corrupt_config_sizes_are_typed_errors() {
    // Each mutation names a size the session table or a demux cache
    // asserts on at construction; the config record must reject it
    // before a lane thread is spawned.
    let cfg = TrafficConfig::open_loop(5_000, 50, 16).with_workers(2);
    let (_, events) = record_traffic(&cfg, svc).unwrap();
    // (what, policy kind code, policy size, entries per shard); the
    // recorded config has no byte budget.
    let cases = [
        ("non-power-of-two direct-mapped slots", 1, 6, 16),
        ("non-power-of-two LRU sets", 2, 3, 16),
        ("zero FIFO slots", 3, 0, 16),
        ("zero random slots", 4, 0, 16),
        ("zero shard capacity without a byte budget", 0, 0, 0),
    ];
    for (what, kind, param, capacity) in cases {
        let mut bad = events.clone();
        let TraceEvent::Config(rec) = &mut bad[0] else { panic!("config leads the log") };
        (rec.policy_kind, rec.policy_param, rec.shard_capacity) = (kind, param, capacity);
        assert!(
            matches!(config_from_record(rec), Err(trace::TraceError::Invalid { .. })),
            "{what}: record must be rejected"
        );
        assert!(TraceStream::from_events(&bad).is_err(), "{what}: trace must be rejected");
    }
    // A byte budget makes a zero entry capacity legitimate.
    let budgeted = TrafficConfig::open_loop(5_000, 50, 16).with_shard_budget(4, 4_096);
    let mut rec = config_to_record(&budgeted);
    rec.shard_capacity = 0;
    assert!(config_from_record(&rec).is_ok());
}

#[test]
fn corrupt_fault_probabilities_are_typed_errors() {
    // The fault injector asserts each probability lies in [0, 1]; a
    // recorded ppm above one million must be rejected as a typed error
    // before any lane is built.
    let cfg = TrafficConfig::open_loop(5_000, 50, 16).with_workers(2);
    let (_, events) = record_traffic(&cfg, svc).unwrap();
    type Field = fn(&mut trace::ConfigRecord) -> &mut u32;
    let fields: [(&str, Field); 7] = [
        ("drop", |r| &mut r.drop_ppm),
        ("corrupt", |r| &mut r.corrupt_ppm),
        ("reorder", |r| &mut r.reorder_ppm),
        ("duplicate", |r| &mut r.duplicate_ppm),
        ("truncate", |r| &mut r.truncate_ppm),
        ("malform", |r| &mut r.malform_ppm),
        ("fragment", |r| &mut r.fragment_ppm),
    ];
    for (what, field) in fields {
        let mut bad = events.clone();
        let TraceEvent::Config(rec) = &mut bad[0] else { panic!("config leads the log") };
        *field(rec) = 1_000_000;
        assert!(config_from_record(rec).is_ok(), "{what}: certainty is a valid probability");
        *field(rec) = 2_000_000;
        assert!(
            matches!(config_from_record(rec), Err(trace::TraceError::Invalid { .. })),
            "{what}: record must be rejected"
        );
        assert!(TraceStream::from_events(&bad).is_err(), "{what}: trace must be rejected");
    }
}

#[test]
fn hostile_config_sizes_are_typed_errors() {
    // Each mutation sizes something a run allocates before it handles a
    // message (the lane vector, the Zipf CDF, the session tables, the
    // closed-loop clients) at tens to hundreds of gigabytes; the record
    // must be rejected as a typed error instead of aborting the process.
    let cfg = TrafficConfig::open_loop(5_000, 50, 16).with_workers(2);
    let (_, events) = record_traffic(&cfg, svc).unwrap();
    type Mutation = fn(&mut trace::ConfigRecord);
    let cases: [(&str, Mutation); 6] = [
        ("u32::MAX workers", |r| r.workers = u32::MAX),
        ("2^31 shards", |r| r.shards = 1 << 31),
        ("u32::MAX sessions", |r| r.sessions = u32::MAX),
        ("u32::MAX entries per shard", |r| r.shard_capacity = u32::MAX),
        ("2^31 direct-mapped slots", |r| (r.policy_kind, r.policy_param) = (1, 1 << 31)),
        ("u32::MAX closed-loop clients", |r| {
            (r.scenario_kind, r.scenario_a) = (1, u64::from(u32::MAX))
        }),
    ];
    for (what, mutate) in cases {
        let mut bad = events.clone();
        let TraceEvent::Config(rec) = &mut bad[0] else { panic!("config leads the log") };
        mutate(rec);
        assert!(
            matches!(config_from_record(rec), Err(trace::TraceError::Invalid { .. })),
            "{what}: record must be rejected"
        );
        assert!(
            matches!(TraceStream::from_events(&bad), Err(trace::TraceError::Invalid { .. })),
            "{what}: trace must be rejected"
        );
    }
    // A quota the log does not back is a typed error too, and the
    // validator's lane pre-sizing must not reserve it (2^32 arrivals
    // per lane would be 64 GB).
    let mut bad = events.clone();
    let TraceEvent::Config(rec) = &mut bad[0] else { panic!("config leads the log") };
    rec.messages_per_worker = u32::MAX;
    assert!(config_from_record(rec).is_ok(), "a large quota is a valid config");
    assert!(
        matches!(TraceStream::from_events(&bad), Err(trace::TraceError::Invalid { .. })),
        "a quota the log does not back must be rejected"
    );
}

/// A hand-built replay trace on which every merge decision is a tie:
/// arrivals land on multiples of `DUPLICATE_DELAY_NS` and every fate
/// is `Duplicated`, so each duplicate copy's redelivery falls exactly
/// on the lane's next arrival.
fn all_ties_trace(workers: u32, messages: u32) -> Vec<TraceEvent> {
    let sessions = 24;
    let cfg = TrafficConfig::open_loop(30_000, messages, sessions)
        .with_workers(workers)
        .with_seed(0x71E5);
    let mut events = vec![TraceEvent::Config(Box::new(config_to_record(&cfg)))];
    for lane in 0..workers {
        events.extend((0..messages).map(|i| TraceEvent::Arrival {
            lane,
            at: (i as u64 + 1) * DUPLICATE_DELAY_NS,
            session: (i * 7 + lane) % sessions,
        }));
        events.extend((0..messages).map(|_| TraceEvent::Fate { lane, fate: Fate::Duplicated }));
    }
    events
}

#[test]
fn arrivals_win_ties_with_engine_events() {
    for (workers, executor_counts) in [(2u32, &[1u32, 2, 3][..]), (8, &[2][..])] {
        let events = all_ties_trace(workers, 600);
        let stream = TraceStream::from_events(&events).expect("hand-built trace is well formed");
        let want = replay_traffic_reference(&stream, svc).expect("reference replay");
        assert_eq!(want.completed, 600 * workers as u64);
        for &executors in executor_counts {
            let stream = TraceStream::from_events(&events).unwrap().with_executors(executors);
            let got = replay_traffic(&stream, svc).expect("dispatch replay");
            assert_eq!(
                got, want,
                "{workers} lanes on {executors} executors broke the arrivals-win-ties rule"
            );
        }
    }
}

#[test]
fn plain_replay_rejects_adaptive_traces() {
    let (program, episode) = fixture();
    let img = fixture_image(&program, &episode, LayoutStrategy::MicroPosition);
    let bad = fixture_image(&program, &episode, LayoutStrategy::Bad);
    let cfg = adaptive_cfg();
    let adapt = engaged_adapt();
    let candidates =
        [Candidate::new("BAD", Arc::clone(&bad)), Candidate::new("GOOD", Arc::clone(&img))];
    let (_, areport, events) = record_adaptive(&cfg, &adapt, &episode, &candidates, 0)
        .expect("adaptive recording must drain");
    assert!(areport.counters.swaps_applied >= 1, "fixture must actually swap");
    let stream = TraceStream::from_events(&events).unwrap();
    assert!(stream.has_verdicts());
    assert_eq!(stream.verdicts().len(), areport.swaps.len());
    match replay_traffic(&stream, |_| ReplayService::new(&img, &episode)) {
        Err(ReplayError::Trace(_)) => {}
        other => panic!("verdict-carrying trace must be rejected, got {:?}", other.err()),
    }
}

#[test]
fn adaptive_record_replay_validates_verdicts() {
    let (program, episode) = fixture();
    let good = fixture_image(&program, &episode, LayoutStrategy::MicroPosition);
    let bad = fixture_image(&program, &episode, LayoutStrategy::Bad);
    let cfg = adaptive_cfg();
    let adapt = engaged_adapt();
    let run = |initial: usize| {
        let candidates =
            [Candidate::new("BAD", Arc::clone(&bad)), Candidate::new("GOOD", Arc::clone(&good))];
        (candidates, initial)
    };
    let (candidates, initial) = run(0);
    let (report, areport, events) = record_adaptive(&cfg, &adapt, &episode, &candidates, initial)
        .expect("adaptive recording must drain");
    assert!(areport.counters.swaps_applied >= 1, "fixture must engage the adapt loop");

    for executors in [1u32, 3] {
        let stream = TraceStream::from_events(&events).unwrap().with_executors(executors);
        let (candidates, initial) = run(0);
        let (replayed, replay_adapt) =
            replay_adaptive(&stream, &adapt, &episode, &candidates, initial)
                .expect("adaptive replay must match the recorded verdicts");
        assert_eq!(replayed, report, "adaptive replay report diverged ({executors} executors)");
        assert_eq!(replay_adapt.swaps, areport.swaps);
        assert_eq!(replay_adapt.counters, areport.counters);
    }

    // A different initial candidate produces a different swap timeline:
    // the verdict validation must catch it as divergence.
    let stream = TraceStream::from_events(&events).unwrap();
    let (candidates, _) = run(0);
    match replay_adaptive(&stream, &adapt, &episode, &candidates, 1) {
        Err(ReplayError::Diverged(_)) => {}
        Ok(_) => panic!("verdicts from a different initial candidate must not validate"),
        Err(e) => panic!("expected verdict divergence, got {e}"),
    }
}

/// The three recorded logs the fingerprint tests run on: the hostile
/// open-loop capture, a closed-loop capture and an adaptive capture
/// (the only kind that carries verdicts).
fn recorded_logs() -> Vec<(&'static str, Vec<TraceEvent>)> {
    let (_, open) = record_traffic(&hostile_cfg(), svc).unwrap();
    let closed_cfg = TrafficConfig::closed_loop(16, 50_000, 1_500, 48)
        .with_workers(3)
        .with_seed(0xC10)
        .with_faults(4_000, 2_000, 4_000, 2_000);
    let (_, closed) = record_traffic(&closed_cfg, svc).unwrap();
    let (program, episode) = fixture();
    let good = fixture_image(&program, &episode, LayoutStrategy::MicroPosition);
    let bad = fixture_image(&program, &episode, LayoutStrategy::Bad);
    let candidates = [Candidate::new("BAD", bad), Candidate::new("GOOD", good)];
    let (_, areport, adaptive) =
        record_adaptive(&adaptive_cfg(), &engaged_adapt(), &episode, &candidates, 0).unwrap();
    assert!(!areport.swaps.is_empty(), "the adaptive log must carry verdicts");
    vec![("open loop", open), ("closed loop", closed), ("adaptive", adaptive)]
}

/// Lane of a non-config event.
fn lane_of(ev: &TraceEvent) -> u32 {
    match ev {
        TraceEvent::Arrival { lane, .. } | TraceEvent::Fate { lane, .. } => *lane,
        TraceEvent::Rto(r) => r.lane,
        TraceEvent::Verdict(v) => v.lane,
        TraceEvent::Config(_) => panic!("config has no lane"),
    }
}

/// Rank of an event kind in a lane's capture order.
fn kind_rank(ev: &TraceEvent) -> u8 {
    match ev {
        TraceEvent::Config(_) => 0,
        TraceEvent::Arrival { .. } => 1,
        TraceEvent::Rto(_) => 2,
        TraceEvent::Fate { .. } => 3,
        TraceEvent::Verdict(_) => 4,
    }
}

#[test]
fn recorded_logs_are_in_capture_order() {
    // Config, then each lane in index order grouped as arrivals, RTO
    // firings, fates, then the verdicts: the order the stream's
    // fingerprint regenerates.  The key must never decrease.
    let logs = recorded_logs();
    for (what, events) in &logs {
        let key = |ev: &TraceEvent| match ev {
            TraceEvent::Config(_) => (0, 0, 0),
            TraceEvent::Verdict(_) => (2, 0, 0),
            _ => (1, lane_of(ev), kind_rank(ev)),
        };
        assert!(
            events.windows(2).all(|w| key(&w[0]) <= key(&w[1])),
            "{what}: recorded log is out of capture order"
        );
    }
    let (what, faulty) = &logs[0];
    assert!(faulty.iter().any(|e| matches!(e, TraceEvent::Rto(_))), "{what}: no RTO firing");
}

#[test]
fn stream_fingerprint_is_the_recorded_logs_through_both_codecs() {
    for (what, events) in recorded_logs() {
        let want = trace::fingerprint(&events);
        for fmt in [Format::Binary, Format::Json] {
            let decoded = trace::decode(&trace::encode(&events, fmt), fmt).unwrap();
            let stream = TraceStream::from_events(&decoded).unwrap();
            assert_eq!(stream.fingerprint(), want, "{what} via {fmt:?}");
            // Re-slicing leaves the fingerprint alone, whether or not it
            // was computed before.
            assert_eq!(stream.clone().with_executors(3).fingerprint(), want, "{what}: re-sliced");
            let fresh = TraceStream::from_events(&decoded).unwrap().with_executors(1);
            assert_eq!(fresh.fingerprint(), want, "{what}: re-sliced before hashing");
            assert!(fresh == stream, "{what}: re-sliced stream must compare equal");
        }
    }
}

#[test]
fn interleaved_log_fingerprints_as_its_capture_order() {
    // Deal the events round-robin across lanes and kinds, each
    // (lane, kind) group keeping its order: replay reads the same
    // lanes, so the stream is the same and so is its fingerprint.
    let (_, events) = record_traffic(&hostile_cfg(), svc).unwrap();
    let mut seen = std::collections::HashMap::new();
    let mut dealt: Vec<(usize, TraceEvent)> = events[1..]
        .iter()
        .map(|ev| {
            let n = seen.entry((lane_of(ev), kind_rank(ev))).or_insert(0);
            *n += 1;
            (*n, ev.clone())
        })
        .collect();
    dealt.sort_by_key(|&(n, _)| n);
    let mut shuffled = vec![events[0].clone()];
    shuffled.extend(dealt.into_iter().map(|(_, ev)| ev));
    assert_ne!(shuffled, events, "the deal must reorder the log");
    assert_ne!(trace::fingerprint(&shuffled), trace::fingerprint(&events));

    let canonical = TraceStream::from_events(&events).unwrap();
    let interleaved = TraceStream::from_events(&shuffled).unwrap();
    assert!(interleaved == canonical, "an interleaved log is the same stream");
    assert_eq!(interleaved.fingerprint(), trace::fingerprint(&events));
    let live = run_traffic(&hostile_cfg(), svc).unwrap();
    assert_eq!(replay_traffic(&interleaved, svc).unwrap(), live);
}

#[test]
fn one_pass_encode_matches_the_writer_on_a_recorded_log() {
    let (_, events) = record_traffic(&hostile_cfg(), svc).unwrap();
    let bytes = trace::encode(&events, Format::Binary);
    let mut w = TraceWriter::new(Vec::new(), Format::Binary).unwrap();
    for ev in &events {
        w.write(ev).unwrap();
    }
    assert_eq!(bytes, w.finish().unwrap(), "one-pass encode differs from the writer");
    assert_eq!(bytes.capacity(), bytes.len(), "the reservation is not exact");
}

// ------------------------------------------------------ adaptive fixture

/// Two-function replay fixture (same shape as `tests/adapt.rs`).
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

/// Phased configuration at a scale where the adapt loop demonstrably
/// swaps off the aliased `LayoutStrategy::Bad` image (mirrors
/// `tests/adapt.rs`).
fn adaptive_cfg() -> TrafficConfig {
    TrafficConfig::open_loop(20_000, 2_000, 64)
        .with_workers(2)
        .with_seed(0x11)
        .with_phases(PhasePlan::new(&[
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
            Phase {
                stream: StreamKind::Zipf,
                milli_theta: 1_100,
                duration_ns: 0,
                settle_ns: 8_000_000,
            },
        ]))
}

fn engaged_adapt() -> AdaptConfig {
    AdaptConfig {
        stride: 4,
        window: 8,
        min_dwell_ns: 10_000_000,
        relayout_latency_ns: 5_000_000,
    }
}
