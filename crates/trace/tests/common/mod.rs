//! Seeded random event-log generator shared by the round-trip and
//! corrupt-input suites.

use netsim::rng::SplitMix64;
use netsim::Fate;
use trace::{ConfigRecord, PhaseRec, StreamRec, TraceEvent, MAX_PHASES};

fn gen_stream(rng: &mut SplitMix64) -> StreamRec {
    StreamRec {
        kind: rng.below(4) as u8,
        a: rng.below(1 << 20) as u32,
        b: rng.below(1 << 20) as u32,
    }
}

pub fn gen_config(rng: &mut SplitMix64) -> ConfigRecord {
    let n_phases = rng.below(MAX_PHASES as u64 + 1) as u32;
    // Slots past n_phases stay Default: codecs do not encode them, so
    // equality after a round trip requires them to be canonical.
    let mut phases = [PhaseRec::default(); MAX_PHASES];
    for slot in phases.iter_mut().take(n_phases as usize) {
        *slot = PhaseRec {
            stream: gen_stream(rng),
            milli_theta: rng.below(2000) as u32,
            duration_ns: rng.next_u64() >> 20,
            settle_ns: rng.next_u64() >> 24,
        };
    }
    ConfigRecord {
        scenario_kind: rng.below(2) as u8,
        scenario_a: rng.next_u64() >> 32,
        scenario_b: rng.next_u64() >> 32,
        messages_per_worker: rng.below(1 << 20) as u32,
        sessions: rng.below(1 << 16) as u32,
        shards: 1 + rng.below(64) as u32,
        shard_capacity: rng.below(1 << 12) as u32,
        shard_budget_bytes: rng.below(1 << 24) as u32,
        milli_theta: rng.below(2000) as u32,
        workers: 1 + rng.below(16) as u32,
        executors: 1 + rng.below(16) as u32,
        seed: rng.next_u64(),
        drop_ppm: rng.below(100_000) as u32,
        corrupt_ppm: rng.below(100_000) as u32,
        reorder_ppm: rng.below(100_000) as u32,
        duplicate_ppm: rng.below(100_000) as u32,
        wire_kind: rng.below(3) as u8,
        truncate_ppm: rng.below(100_000) as u32,
        malform_ppm: rng.below(100_000) as u32,
        fragment_ppm: rng.below(100_000) as u32,
        policy_kind: rng.below(5) as u8,
        policy_param: rng.below(1 << 10) as u32,
        stream: gen_stream(rng),
        n_phases,
        phases,
    }
}

/// Layout names as they appear in adapt verdicts, plus hostile ones
/// that exercise JSON string escaping.
const LAYOUTS: [&str; 6] =
    ["base", "outlined", "clone:tcp/4", "path\"quoted\"", "back\\slash", "multi\nline\ttabbed"];

pub fn gen_event(rng: &mut SplitMix64) -> TraceEvent {
    match rng.below(4) {
        0 => TraceEvent::Arrival {
            lane: rng.below(16) as u32,
            at: rng.next_u64() >> 16,
            session: rng.below(1 << 16) as u32,
        },
        1 => TraceEvent::Fate {
            lane: rng.below(16) as u32,
            fate: Fate::from_code(rng.below(8) as u8).unwrap(),
        },
        2 => TraceEvent::Rto(Box::new(trace::RtoRec {
            lane: rng.below(16) as u32,
            at: rng.next_u64() >> 16,
            session: rng.below(1 << 16) as u32,
            born: rng.next_u64() >> 16,
        })),
        _ => TraceEvent::Verdict(Box::new(trace::VerdictRec {
            lane: rng.below(16) as u32,
            at: rng.next_u64() >> 16,
            trigger_fp: rng.next_u64(),
            from: LAYOUTS[rng.below(LAYOUTS.len() as u64) as usize].to_string(),
            to: LAYOUTS[rng.below(LAYOUTS.len() as u64) as usize].to_string(),
            noop: rng.bool(),
        })),
    }
}

/// A well-formed log: one config record followed by `n` random events.
pub fn gen_log(seed: u64, n: usize) -> Vec<TraceEvent> {
    let mut rng = SplitMix64::new(seed);
    let mut log = Vec::with_capacity(n + 1);
    log.push(TraceEvent::Config(Box::new(gen_config(&mut rng))));
    for _ in 0..n {
        log.push(gen_event(&mut rng));
    }
    log
}
