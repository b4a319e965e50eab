//! Per-layer probes the traced `serve` run times directly: the session
//! table, the latency histogram, the wire codec and the event wheel,
//! each fed the workload's own shape (its Zipf session stream, its
//! frame specs, its queue depths).  Each probe reports the median of
//! [`REPS`] repetitions in nanoseconds per operation.

use std::hint::black_box;
use std::time::Instant;

use netsim::rng::SplitMix64;
use netsim::{BufPool, Wheel};
use protocols::wire::{demux_frame, encode_frame, PktSpec};
use traffic::{buckets_for_capacity, DemuxKey, LatencyHistogram, PolicyKind, SessionTable, Zipf};

use crate::stats::median;

const REPS: usize = 5;

/// Operations per repetition: one lane's worth of the workload.
const OPS: usize = 20_000;

fn median_ns_per_op(ops: usize, mut rep: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            rep();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// The lane's session keys in reference order: Zipf(θ) ranks over the
/// lane's sessions, mapped to the lane's disjoint global ids.
fn session_keys(
    seed: u64,
    lane: u32,
    lanes: u32,
    sessions: u32,
    milli_theta: u32,
) -> Vec<DemuxKey> {
    let zipf = Zipf::new(sessions as usize, milli_theta);
    let mut rng = SplitMix64::new(seed ^ ((u64::from(lane) + 1) << 32));
    (0..OPS)
        .map(|_| {
            DemuxKey::for_session(zipf.sample(&mut rng) as u64 * u64::from(lanes) + u64::from(lane))
        })
        .collect()
}

/// `SessionTable::lookup` (plus `insert` on a miss) over the stream,
/// on a table shaped like a serving lane's.
pub fn session_lookup_ns(cfg: &traffic::TrafficConfig) -> f64 {
    let keys = session_keys(cfg.seed, 0, cfg.workers, cfg.sessions, cfg.milli_theta);
    let capacity = cfg.effective_shard_capacity();
    median_ns_per_op(keys.len(), || {
        let mut table = SessionTable::with_policy(
            cfg.shards as usize,
            capacity,
            buckets_for_capacity(capacity),
            PolicyKind::OneEntry,
            cfg.seed,
        );
        for (i, key) in keys.iter().enumerate() {
            if black_box(table.lookup(key)).0.is_none() {
                table.insert(*key, i as u32);
            }
        }
        black_box(table.stats());
    })
}

/// `LatencyHistogram::record` of one lane's latencies per lane, then
/// the cross-lane `merge`, per recorded sample.  Latencies are
/// exponential around `mean_ns` (the base rung's mean).
pub fn hist_record_ns(seed: u64, lanes: u32, mean_ns: f64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let samples: Vec<u64> = (0..OPS)
        .map(|_| (-(1.0 - rng.next_f64()).ln() * mean_ns.max(1.0)) as u64 + 1)
        .collect();
    median_ns_per_op(samples.len() * lanes as usize, || {
        let mut pooled = LatencyHistogram::new();
        for _ in 0..lanes {
            let mut h = LatencyHistogram::new();
            for &v in &samples {
                h.record(black_box(v));
            }
            pooled.merge(&h);
        }
        black_box(pooled.p99());
    })
}

/// `wire::encode_frame` + `wire::demux_frame` in a `BufPool` slot, on
/// the frame specs the serving lane builds for its session stream.
pub fn wire_frame_ns(cfg: &traffic::TrafficConfig) -> Result<f64, String> {
    let keys = session_keys(cfg.seed, 0, cfg.workers, cfg.sessions, cfg.milli_theta);
    let specs: Vec<PktSpec> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| PktSpec {
            src_ip: k.src_ip,
            dst_ip: k.dst_ip,
            src_port: k.src_port,
            dst_port: k.dst_port,
            seq: i as u32,
            ident: k.src_ip as u16,
            ..PktSpec::default()
        })
        .collect();
    let payload = [0x5Au8; 16];
    let mut pool = BufPool::new(2);
    let mut failure = None;
    let ns = median_ns_per_op(specs.len(), || {
        for spec in &specs {
            let h = pool.alloc();
            let len = match pool.bytes_mut(h) {
                Ok(buf) => encode_frame(buf, spec, &payload),
                Err(e) => {
                    failure = Some(format!("pool: {e:?}"));
                    0
                }
            };
            match pool.bytes(h).map(|b| demux_frame(&b[..len])) {
                Ok(Ok(d)) => {
                    black_box(d);
                }
                other => failure = Some(format!("intact frame failed demux: {other:?}")),
            }
            if let Err(e) = pool.free(h) {
                failure = Some(format!("pool free: {e:?}"));
            }
        }
    });
    let grows = pool.stats().grows;
    match failure {
        Some(e) => Err(e),
        None if grows > 0 => Err(format!("wire probe pool grew {grows} times")),
        None => Ok(ns),
    }
}

/// The event wheel holding `depth` pending events: each operation pops
/// the earliest and schedules its successor an exponential gap later
/// (mean `depth` × 100 µs of simulated time, so the horizon grows with
/// the queue), the run loop's hold pattern.
pub fn sched_event_ns(seed: u64, depth: usize) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let gaps: Vec<u64> = (0..OPS)
        .map(|_| (-(1.0 - rng.next_f64()).ln() * 100_000.0) as u64 * depth as u64 + 1)
        .collect();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut wheel: Wheel<u32> = Wheel::new();
            for (i, &g) in gaps.iter().cycle().take(depth.max(1)).enumerate() {
                wheel.schedule(g, i as u32);
            }
            let t = Instant::now();
            for &g in &gaps {
                let (at, ev) = wheel.pop().expect("the wheel holds `depth` events");
                wheel.schedule(at + g, black_box(ev));
            }
            t.elapsed().as_nanos() as f64 / gaps.len() as f64
        })
        .collect();
    median(&samples)
}
