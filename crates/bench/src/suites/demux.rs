//! Demux locality: the address-cache policy × reference-stream matrix of
//! the Jain destination-cache study, measured end to end through the
//! serving pipeline.
//!
//! The paper's x-kernel demultiplexer fixes a one-entry cache in front
//! of the hash walk; DEC-TR-592 shows the right policy depends on the
//! reference stream's locality structure.  This suite runs the
//! tcpip/ALL cell under every (policy, stream) pair and records each
//! cell's address-cache hit rate, modelled mean demux cost and p99.
//! Faults are off: retransmissions would re-reference sessions on the
//! fault RNG's schedule and blur the stream's locality structure.
//!
//! The host section times the raw table lookup itself per policy on a
//! hot Zipf loop — the zero-cost check for the monomorphized dispatch.

use std::time::Instant;

use netsim::rng::SplitMix64;
use protocols::StackOptions;
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::{DemuxCell, DemuxSpec, SweepEngine};
use traffic::runloop::reference;
use traffic::{
    buckets_for_capacity, DemuxKey, PolicyKind, ReplayService, SessionTable, StreamKind, Zipf,
};

use crate::{episodes, ms, serving, Ctx, Outcome, Samples};
use crate::{RATE_MPS, SESSIONS_PER_WORKER, WORKERS};

/// Shards per worker table.
const SHARDS: u32 = 8;
/// Address-cache capacity of the multi-entry policies.
const SLOTS: u32 = 8;
/// Conflict-cycle length: defeats every set-indexed policy of ≤ SLOTS
/// slots and the one-entry cache, while fitting FIFO/random.
const CYCLE: u32 = 6;

const POLICIES: [PolicyKind; 5] = [
    PolicyKind::OneEntry,
    PolicyKind::DirectMapped { slots: SLOTS },
    PolicyKind::TwoWayLru { sets: SLOTS / 2 },
    PolicyKind::Fifo { slots: SLOTS },
    PolicyKind::Random { slots: SLOTS },
];

const STREAMS: [StreamKind; 4] = [
    StreamKind::Zipf,
    StreamKind::StackDepth { milli_p: 800 },
    StreamKind::Train { milli_cont: 950 },
    StreamKind::Conflict {
        slots: SLOTS,
        cycle: CYCLE,
    },
];

/// Wall-clock ns per lookup of `policy` over `laps` hot Zipf lookups on
/// a fully resident table.
fn raw_lookup_ns(policy: PolicyKind, laps: u64) -> f64 {
    let zipf = Zipf::new(SESSIONS_PER_WORKER as usize, 900);
    let capacity = SESSIONS_PER_WORKER as usize;
    let mut table: SessionTable<u32> = SessionTable::with_policy(
        SHARDS as usize,
        capacity,
        buckets_for_capacity(capacity),
        policy,
        0x7EA5,
    );
    let mut rng = SplitMix64::new(0xD1CE);
    for id in 0..SESSIONS_PER_WORKER {
        table.insert(DemuxKey::for_session(id as u64), id);
    }
    let keys: Vec<DemuxKey> = (0..laps)
        .map(|_| DemuxKey::for_session(zipf.sample(&mut rng) as u64))
        .collect();
    let start = Instant::now();
    let mut sink = 0u64;
    for k in &keys {
        if let (Some(v), _) = table.lookup(k) {
            sink = sink.wrapping_add(v as u64);
        }
    }
    std::hint::black_box(sink);
    ms(start) * 1e6 / laps as f64
}

pub fn run(ctx: &Ctx) -> Outcome {
    let messages = ctx.messages();
    let base = serving(messages).with_faults(0, 0, 0, 0);
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let (stack, version) = (StackKind::TcpIp, Version::All);

    let specs = DemuxSpec::cross(base, &POLICIES, &STREAMS);
    let rows = eng.demux_matrix(stack, opts, 2, version, &specs);
    let cell = |policy: PolicyKind, stream: StreamKind| -> &DemuxCell {
        rows.iter()
            .find(|(spec, _)| spec.policy == policy && spec.stream == stream)
            .map(|(_, c)| c)
            .expect("matrix cell present")
    };

    // The address cache is only filled from chain hits and invalidated
    // on eviction, so which bindings are resident — hence every miss —
    // is identical across policies; a policy can only move hits between
    // the cache and the chain.
    let policy_invariant = STREAMS.iter().all(|&stream| {
        let seed = cell(PolicyKind::OneEntry, stream);
        POLICIES[1..].iter().all(|&policy| {
            let c = cell(policy, stream);
            (c.lookups, c.misses, c.evictions) == (seed.lookups, seed.misses, seed.evictions)
        })
    });

    // The best policy on the adversarial stream against the seed.
    let adversarial = STREAMS[3];
    let (winner_spec, winner_conflict) = rows
        .iter()
        .filter(|(spec, _)| spec.stream == adversarial)
        .max_by(|a, b| a.1.cache_hit_rate.total_cmp(&b.1.cache_hit_rate))
        .expect("conflict column present");
    let winner = winner_spec.policy;
    let seed_conflict = cell(PolicyKind::OneEntry, adversarial);
    let winner_beats_seed_adversarial = winner_conflict.cache_hit_rate
        >= seed_conflict.cache_hit_rate + 0.30
        && winner_conflict.lookup_ns < seed_conflict.lookup_ns;
    let zipf_not_slower = cell(winner, StreamKind::Zipf).lookup_ns
        <= cell(PolicyKind::OneEntry, StreamKind::Zipf).lookup_ns;

    // The dispatch plane against the seed FIFO on a stateful stream,
    // and a memo-cold engine against the memoized winner cell.
    let probe = DemuxSpec {
        base,
        policy: winner,
        stream: adversarial,
    };
    let img = eng.image(stack, opts, 2, version);
    let episode = episodes(eng, stack).server_turn;
    let fifo = reference::run_traffic(&probe.config(), |_| ReplayService::new(&img, &episode))
        .expect("reference run must drain");
    let dispatch_bit_identical = *eng.traffic(stack, opts, 2, version, probe.config()) == fifo;
    let bit_repro = SweepEngine::new().demux(stack, opts, 2, version, probe) == *winner_conflict;

    let mut out = Outcome::new("demux");
    let m = &mut out.model;
    m.field("workers", WORKERS)
        .field("messages_per_worker", messages)
        .field("sessions_per_worker", SESSIONS_PER_WORKER)
        .field("rate_mps", RATE_MPS)
        .field("policies", POLICIES.len())
        .field("streams", STREAMS.len())
        .field("slots", SLOTS)
        .field("conflict_cycle", CYCLE)
        .field("smoke", ctx.smoke);
    for (spec, c) in &rows {
        let k = format!("{}_{}", spec.policy.name(), spec.stream.name());
        m.field(
            format!("{k}_cache_hit_rate"),
            format_args!("{:.6}", c.cache_hit_rate),
        )
        .field(format!("{k}_lookup_ns"), format_args!("{:.3}", c.lookup_ns))
        .field(
            format!("{k}_p99_us"),
            format_args!("{:.3}", c.p99_ns as f64 / 1e3),
        );
    }
    m.text("winner_policy", winner.name())
        .field(
            "winner_conflict_cache_hit_rate",
            format_args!("{:.6}", winner_conflict.cache_hit_rate),
        )
        .field(
            "seed_conflict_cache_hit_rate",
            format_args!("{:.6}", seed_conflict.cache_hit_rate),
        )
        .field(
            "winner_beats_seed_adversarial",
            winner_beats_seed_adversarial,
        )
        .field("zipf_not_slower", zipf_not_slower)
        .field("bit_repro", bit_repro);
    for policy in POLICIES {
        let ns = Samples::new(vec![raw_lookup_ns(policy, 1_000_000)]);
        out.host
            .samples(format!("{}_raw_lookup_ns", policy.name()), &ns);
    }

    out.check("policy_invariant_misses", policy_invariant);
    out.check(
        "winner_beats_seed_adversarial",
        winner_beats_seed_adversarial,
    );
    out.check("zipf_not_slower", zipf_not_slower);
    out.check("dispatch_bit_identical", dispatch_bit_identical);
    out.check("bit_repro", bit_repro);
    out
}
