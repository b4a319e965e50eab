//! Event scheduler: the hierarchical timing wheel (`netsim::sched`, the
//! default engine) against the reference binary heap
//! (`netsim::engine::reference`), at 128k pending events and end to end
//! through the 12-cell traffic-serving sweep.
//!
//! * **fill+drain** — schedule 131 072 events at seeded random offsets,
//!   then pop them all.  The heap pays O(log n) sift-down per pop with
//!   tuple comparisons; the wheel files in O(1) and drains matured
//!   slots in batches.
//! * **churn** — steady state at 131 072 pending: pop one, schedule
//!   one, 256k times, with a cancellable timer armed and cancelled
//!   every fourth op (the RTO pattern the traffic loop runs).
//! * **traffic e2e** — the 12-cell serving sweep on each engine, both
//!   sides driving the seed per-lane FIFO (`runloop::reference`) so the
//!   scheduler is the only variable.  Reports must be bit-identical.

use std::time::Instant;

use netsim::engine::reference;
use netsim::rng::SplitMix64;
use netsim::{Engine, EventQueue};
use protocols::StackOptions;
use protolat_core::sweep::{grid, par_map, SweepEngine};
use traffic::runloop::reference as seed_fifo;
use traffic::{run_traffic_reference, ReplayService, TrafficConfig};

use crate::{episodes, ms, serving, Bound, Clock, Ctx, Outcome, Samples};

/// Pending-event population (the floor is "≥ 2x at ≥ 64k pending").
const PENDING: usize = 131_072;
/// Steady-state operations in the churn measurement.
const CHURN_OPS: usize = 262_144;
/// Timing rounds per measurement; gates read the minimum.
const ROUNDS: usize = 3;
const MESSAGES_PER_WORKER: u32 = 60_000;

/// Seeded delay offsets, drawn outside the timed region so the RNG's
/// cost doesn't dilute the engine comparison.
fn delays(seed: u64, n: usize, bits: u32) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| 1 + rng.below(1 << bits)).collect()
}

/// Schedule `PENDING` seeded events, then drain them all.  Returns
/// (elapsed ms, digest of the delivery sequence) so the two engines can
/// be checked for identical behaviour.
fn fill_drain<Q: EventQueue<u64> + Default>(seed: u64) -> (f64, u64) {
    let mut q = Q::default();
    let ds = delays(seed, PENDING, 24);
    let start = Instant::now();
    for (i, d) in ds.iter().enumerate() {
        q.schedule(q.now() + d, i as u64);
    }
    let mut digest = 0u64;
    while let Some((t, v)) = q.pop() {
        digest = digest.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t ^ (v << 1);
    }
    let elapsed = ms(start);
    assert_eq!(q.pending(), 0);
    (elapsed, digest)
}

/// Fill to `PENDING`, then run pop-one/schedule-one steady state with a
/// cancellable timer armed and cancelled every fourth operation.
fn churn<Q: EventQueue<u64> + Default>(seed: u64) -> (f64, u64) {
    let mut q = Q::default();
    for (i, d) in delays(seed, PENDING, 24).iter().enumerate() {
        q.schedule(*d, i as u64);
    }
    let ds = delays(seed ^ 0xC0FFEE, CHURN_OPS, 24);
    let rto = delays(seed ^ 0xBADDAD, CHURN_OPS, 20);
    let start = Instant::now();
    let mut digest = 0u64;
    for i in 0..CHURN_OPS {
        let (t, v) = q.pop().expect("population stays constant");
        digest = digest.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t ^ (v << 1);
        q.schedule(q.now() + ds[i], (PENDING + i) as u64);
        if i % 4 == 0 {
            let tok = q.schedule_cancellable(q.now() + rto[i], u64::MAX);
            assert!(q.cancel(tok));
        }
    }
    let elapsed = ms(start);
    assert_eq!(q.pending(), PENDING);
    (elapsed, digest)
}

/// Wheel and heap samples, one round of each per seed; the two
/// engines must deliver the same sequence every round.
fn rounds(
    rounds: usize,
    seed: u64,
    wheel: fn(u64) -> (f64, u64),
    heap: fn(u64) -> (f64, u64),
    what: &str,
) -> (Samples, Samples) {
    let (mut w, mut h) = (Vec::new(), Vec::new());
    for round in 0..rounds as u64 {
        let (wms, wd) = wheel(seed + round);
        let (hms, hd) = heap(seed + round);
        assert_eq!(wd, hd, "{what} delivery sequences diverged");
        w.push(wms);
        h.push(hms);
    }
    (Samples::new(w), Samples::new(h))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (fd_wheel, fd_heap) = rounds(
        ctx.reps(ROUNDS),
        0xF111_0000,
        fill_drain::<Engine<u64>>,
        fill_drain::<reference::Engine<u64>>,
        "fill+drain",
    );
    let fd_speedup = fd_heap.min() / fd_wheel.min();
    let (churn_wheel, churn_heap) = rounds(
        ctx.reps(ROUNDS),
        0xE9E1_0000,
        churn::<Engine<u64>>,
        churn::<reference::Engine<u64>>,
        "churn",
    );
    let churn_speedup = churn_heap.min() / churn_wheel.min();

    // Steady state by design: 128 sessions fit shard residency (8×24
    // slots), so after first touch every message rides the service
    // memo and the per-message cost is demux + histogram + scheduler —
    // the regime where the event queue is on the critical path.
    let cfg = TrafficConfig {
        sessions: 128,
        ..serving(MESSAGES_PER_WORKER)
    };
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    // Build every cell's image first so the timed region measures the
    // serving loop, not image construction.
    let prepared = par_map(&grid(), |&(stack, version)| {
        (
            eng.image(stack, opts, 2, version),
            episodes(eng, stack).server_turn,
        )
    });
    let run_cells = |use_heap: bool| {
        let start = Instant::now();
        let reports: Vec<_> = prepared
            .iter()
            .map(|(img, episode)| {
                if use_heap {
                    run_traffic_reference(&cfg, |_| ReplayService::new(img, episode))
                } else {
                    seed_fifo::run_traffic(&cfg, |_| ReplayService::new(img, episode))
                }
                .expect("serving scenario must drain")
            })
            .collect();
        (ms(start), reports)
    };
    let (mut wheel_ms, mut heap_ms) = (Vec::new(), Vec::new());
    let mut identical = true;
    for _ in 0..ctx.reps(2) {
        let (wms, wheel) = run_cells(false);
        let (hms, heap) = run_cells(true);
        wheel_ms.push(wms);
        heap_ms.push(hms);
        identical &= wheel == heap;
    }
    let (traffic_wheel, traffic_heap) = (Samples::new(wheel_ms), Samples::new(heap_ms));
    let traffic_speedup = traffic_heap.min() / traffic_wheel.min();

    let mut out = Outcome::new("engine");
    out.model
        .field("pending_events", PENDING)
        .field("churn_ops", CHURN_OPS)
        .field("traffic_cells", prepared.len())
        .field("traffic_bit_identical", identical);
    out.host
        .samples("fill_drain_wheel_ms", &fd_wheel)
        .samples("fill_drain_heap_ms", &fd_heap)
        .field("fill_drain_speedup", format_args!("{fd_speedup:.3}"))
        .samples("churn_wheel_ms", &churn_wheel)
        .samples("churn_heap_ms", &churn_heap)
        .field("churn_speedup", format_args!("{churn_speedup:.3}"))
        .samples("traffic_wheel_ms", &traffic_wheel)
        .samples("traffic_heap_ms", &traffic_heap)
        .field("traffic_speedup", format_args!("{traffic_speedup:.3}"));
    out.check("traffic_bit_identical", identical);
    out.gate(
        Clock::Host,
        "fill_drain_speedup",
        fd_speedup,
        Bound::AtLeast(2.0),
    );
    out.gate(
        Clock::Host,
        "traffic_speedup",
        traffic_speedup,
        Bound::AtLeast(1.1),
    );
    out
}
