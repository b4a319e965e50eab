//! `record_replay`: every cell at the serving base rung through the
//! full record/replay cycle in memory — record, encode, decode,
//! validate, replay.  One cell's cycle is one unit.

use std::time::Instant;

use trace::{Format, TraceEvent};
use traffic::{
    record_traffic, replay_traffic, ReplayService, TraceStream, TrafficConfig, TrafficReport,
};

use crate::host::HostRef;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::paper::MIN_UNITS;
use crate::serve::{base_cfg, check_report, pass_seed, pooled_percentiles};
use crate::setup::{self, cell_name, Cell, Rounds};
use crate::spans::Tracer;
use crate::stats::fnv1a;
use crate::{check_golden, Golden};

/// What one cycle produced, for the checks made after its timer stops.
struct Cycle {
    live: TrafficReport,
    events: Vec<TraceEvent>,
    bytes: Vec<u8>,
    decoded: Vec<TraceEvent>,
    fingerprint: u64,
    replayed: TrafficReport,
}

fn cycle(cell: &Cell, cfg: &TrafficConfig, tr: &mut Tracer) -> Result<(Cycle, f64), String> {
    let name = cell_name(cell.stack, cell.version);
    let make = |_lane| ReplayService::new(&cell.image, &cell.episode);
    let t = Instant::now();
    let (live, events) = tr
        .span("traffic.record", || record_traffic(cfg, make))
        .map_err(|e| format!("{name}: recording overran its event budget: {e:?}"))?;
    let bytes = tr.span("trace.encode", || trace::encode(&events, Format::Binary));
    let decoded = tr
        .span("trace.decode", || trace::decode(&bytes, Format::Binary))
        .map_err(|e| format!("{name}: decode failed: {e}"))?;
    let stream = tr
        .span("traffic.validate", || TraceStream::from_events(&decoded))
        .map_err(|e| format!("{name}: trace rejected: {e}"))?;
    let replayed = tr
        .span("traffic.replay", || replay_traffic(&stream, make))
        .map_err(|e| format!("{name}: replay failed: {e:?}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let fingerprint = stream.fingerprint();
    Ok((
        Cycle {
            live,
            events,
            bytes,
            decoded,
            fingerprint,
            replayed,
        },
        ms,
    ))
}

/// The cycle's artifacts agree with each other.
fn check_cycle(cell: &Cell, c: &Cycle) -> Result<(), String> {
    let name = cell_name(cell.stack, cell.version);
    check_report(cell, &c.live, None)?;
    if c.replayed != c.live {
        return Err(format!("{name}: replayed report differs from the live one"));
    }
    if c.decoded != c.events {
        return Err(format!(
            "{name}: decoded events differ from the recorded ones"
        ));
    }
    let digest = fnv1a(&c.bytes);
    if c.fingerprint != digest {
        return Err(format!(
            "{name}: stream fingerprint {:016x} != encoded {digest:016x}",
            c.fingerprint
        ));
    }
    Ok(())
}

pub fn run(seed: u64, seconds: u64, traced: bool, golden: Option<&Golden>) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(traced);
    let mut rounds = Rounds::default();
    let mut host = HostRef::default();
    let setup = rounds.round(&mut tr);
    host.sample();
    let (rtt, mcpi) = setup::mean_rtt_us(&setup.engine, &mut tr);
    out.set("model_rtt_us", rtt);

    let mut off = Tracer::new(false);
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_units = Vec::new();
    let mut live: Vec<TrafficReport> = Vec::new();
    let (mut bytes, mut events, mut msgs) = (0usize, 0usize, 0u64);
    let mut unit = 1;
    let start = Instant::now();
    // An untraced run needs MIN_UNITS units for its p90; a traced one
    // reports no percentiles.
    let min_units = if traced { 1 } else { MIN_UNITS };
    let mut pass = 0;
    'passes: while plain_ms.len() < min_units || start.elapsed().as_secs() < seconds {
        for (i, cell) in setup.cells.iter().enumerate() {
            let cfg = base_cfg(pass_seed(seed, pass), i);
            let c = cycle(cell, &cfg, &mut off);
            drop(rounds.round(&mut tr));
            host.sample();
            let (c, ms) = match c {
                Ok(c) => c,
                Err(e) => {
                    out.check(Err(e));
                    break 'passes;
                }
            };
            plain_ms.push(ms);
            let mut verdict = check_cycle(cell, &c);
            msgs += 2 * c.live.completed;
            if traced {
                tr.set_unit(unit);
                traced_units.push(unit);
                unit += 1;
                match cycle(cell, &cfg, &mut tr) {
                    Ok((t, ms)) => {
                        traced_ms.push(ms);
                        if verdict.is_ok() && t.bytes != c.bytes {
                            verdict = Err(format!(
                                "{}: traced cycle differs",
                                cell_name(cell.stack, cell.version)
                            ));
                        }
                    }
                    Err(e) => verdict = Err(e),
                }
            }
            out.check(verdict);
            if pass == 0 {
                bytes += c.bytes.len();
                events += c.events.len();
                live.push(c.live);
            }
        }
        pass += 1;
    }
    if live.len() < setup.cells.len() {
        out.set("ok_ratio", 0.0);
        return (out, tr);
    }

    out.check(rounds.check());
    let (p50, p99, p999) = pooled_percentiles(&live);
    let completed: u64 = live.iter().map(|r| r.completed).sum();
    let bytes_per_msg = bytes as f64 / completed as f64;
    if let Some(g) = golden {
        out.check(check_golden(
            "record_replay",
            &[
                ("p50_ns", p50 as f64, g.p50_ns),
                ("p99_ns", p99 as f64, g.p99_ns),
                ("p999_ns", p999 as f64, g.p999_ns),
                ("bytes_per_msg", bytes_per_msg, g.bytes_per_msg),
            ],
        ));
    }
    out.set("model_p50_us", p50 as f64 / 1e3);
    out.set("model_p99_us", p99 as f64 / 1e3);
    out.set("model_p999_us", p999 as f64 / 1e3);
    out.set("trace_bytes_per_msg", bytes_per_msg);
    if !traced {
        // Each unit simulates its messages twice: recording and replaying.
        out.set_host_times(&host, rounds.median_s(), &plain_ms, Some(msgs));
    }
    out.set("peak_rss_mb", peak_rss_mb());

    if traced {
        let own = tr.mean_self_ms(&traced_units);
        for (span, metric) in [
            ("traffic.record", "traffic.record_ms"),
            ("trace.encode", "trace.encode_ms"),
            ("trace.decode", "trace.decode_ms"),
            ("traffic.validate", "traffic.validate_ms"),
            ("traffic.replay", "traffic.replay_ms"),
        ] {
            out.set(metric, own.get(span).copied().unwrap_or(0.0));
        }
        out.set("trace.events", events as f64 / live.len() as f64);
        out.set("trace.bytes_per_event", bytes as f64 / events as f64);
        setup::set_layers(&mut out, &tr, &rounds, &setup, mcpi);
        out.set_tracing(&host, &plain_ms, &traced_ms, traced_units.len());
    }
    out.set("ok_ratio", out.ok_ratio());
    (out, tr)
}
