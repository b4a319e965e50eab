//! `serve`: the 12-cell grid served open-loop (modeled Poisson
//! arrivals) up a fixed ×2 per-lane rate ladder, then each cell's knee
//! bisected by the `CapacityRamp` rule.  One `run_traffic` call is one
//! unit; units run one at a time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use netsim::Ns;
use protocols::StackOptions;
use protolat_core::{CapacityRamp, SweepEngine};
use traffic::{
    run_traffic, LatencyHistogram, ReplayService, Service, ServiceStats, TrafficConfig,
    TrafficReport, WirePath,
};
use xkernel::map::LookupKind;

use crate::host::HostRef;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::setup::{self, cell_name, Cell, Rounds, WARMUP};
use crate::spans::Tracer;
use crate::stats::{bisect_knee, violates_slo};
use crate::{check_golden, probes, Golden};

pub const LANES: u32 = 4;
pub const MSGS_PER_LANE: u32 = 20_000;
pub const SESSIONS_PER_LANE: u32 = 512;
/// Per-lane offered rate of the ladder's base rung, msg/s.
pub const BASE_RATE: u64 = 2_000;

/// The serving scenario of grid cell `cell` at the base rung.  Each
/// cell draws its traffic from its own seed, derived from the run's, so
/// a run samples twelve independent traffic instances rather than one
/// instance's luck (how long the service memo takes to settle, say)
/// repeated in every cell.
pub fn base_cfg(seed: u64, cell: usize) -> TrafficConfig {
    let seed = seed ^ (cell as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    TrafficConfig::open_loop(BASE_RATE, MSGS_PER_LANE, SESSIONS_PER_LANE)
        .with_workers(LANES)
        .with_shards(8, 24)
        .with_theta(900)
        .with_seed(seed)
        .with_faults(3_000, 1_500, 3_000, 1_500)
        .with_wire(WirePath::ZeroCopy)
        .with_wire_faults(800, 500, 700)
        .with_executors(executors())
}

/// The seed of a run's `pass`-th pass over its schedule.  Each pass
/// serves fresh traffic, so a run's unit times average over several
/// traffic instances; the first pass uses the run's seed itself, and
/// the modeled metrics come from it.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_add((pass as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Executor threads per run: one per core, never more than the lanes.
pub fn executors() -> u32 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
    cores.clamp(1, LANES)
}

/// `Service::serve` timed call by call; totals land in the run's
/// counters when the lane drops its service.
struct TimedService<'a, S: Service> {
    inner: S,
    ns: u64,
    calls: u64,
    total_ns: &'a AtomicU64,
    total_calls: &'a AtomicU64,
}

impl<S: Service> Service for TimedService<'_, S> {
    fn serve(&mut self, kind: LookupKind, now: Ns) -> Ns {
        let t = Instant::now();
        let ns = self.inner.serve(kind, now);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        ns
    }

    fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }
}

impl<S: Service> Drop for TimedService<'_, S> {
    fn drop(&mut self) {
        self.total_ns.fetch_add(self.ns, Ordering::Relaxed);
        self.total_calls.fetch_add(self.calls, Ordering::Relaxed);
    }
}

/// One `run_traffic` call on `cell`.  Traced, it runs under a
/// `traffic.run` span with the lanes' summed service time, divided by
/// the executor count (its share of the run's wall time), as an
/// aggregated `traffic.service` child; returns the report, the unit's
/// milliseconds and the serve calls made.
pub fn serve_unit(
    cell: &Cell,
    cfg: &TrafficConfig,
    tr: &mut Tracer,
) -> Result<(TrafficReport, f64, u64), String> {
    let make = |_lane| ReplayService::new(&cell.image, &cell.episode);
    let t = Instant::now();
    let (report, serves) = if tr.on() {
        let (ns, calls) = (AtomicU64::new(0), AtomicU64::new(0));
        let open = tr.begin("traffic.run");
        let report = run_traffic(cfg, |lane| TimedService {
            inner: make(lane),
            ns: 0,
            calls: 0,
            total_ns: &ns,
            total_calls: &calls,
        });
        let share = ns.load(Ordering::Relaxed) / u64::from(cfg.executors.max(1));
        tr.add_child(&open, "traffic.service", share);
        tr.end(open);
        (report, calls.load(Ordering::Relaxed))
    } else {
        (run_traffic(cfg, make), 0)
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let report = report.map_err(|e| {
        format!(
            "{}: event budget overrun: {e:?}",
            cell_name(cell.stack, cell.version)
        )
    })?;
    Ok((report, ms, serves))
}

/// A unit's report against the scenario's accounting laws; a base-rung
/// unit (`offered_mps` given) must also achieve 97% of its offered rate.
pub fn check_report(
    cell: &Cell,
    r: &TrafficReport,
    offered_mps: Option<u64>,
) -> Result<(), String> {
    let name = cell_name(cell.stack, cell.version);
    let offered = u64::from(LANES * MSGS_PER_LANE);
    if r.completed != offered {
        return Err(format!(
            "{name}: completed {} of {offered} offered",
            r.completed
        ));
    }
    if r.hist.count() != r.completed {
        return Err(format!(
            "{name}: histogram holds {} of {} completed",
            r.hist.count(),
            r.completed
        ));
    }
    if r.wire.pool.grows != 0 {
        return Err(format!(
            "{name}: packet pool grew {} times",
            r.wire.pool.grows
        ));
    }
    if r.service.simulated_replays == 0 {
        return Err(format!(
            "{name}: no replay simulated — the unit did no machine-model work"
        ));
    }
    if let Some(rate) = offered_mps {
        if r.msgs_per_sec() * 1000.0 < rate as f64 * 970.0 {
            return Err(format!(
                "{name}: base rung achieved {:.1} of {rate} msg/s",
                r.msgs_per_sec()
            ));
        }
    }
    Ok(())
}

/// Everything one pass over the schedule produced.
struct Pass {
    /// Each cell's ramp over its own base scenario.
    ramps: Vec<CapacityRamp>,
    /// Every unit's report in schedule order — the ladder rung by
    /// rung, 12 cells each, then the bisection probes — kept for the
    /// first pass only, so the benchmark's own memory does not grow
    /// with the passes a run makes and move `peak_rss_mb`.
    reports: Vec<TrafficReport>,
    keep_reports: bool,
    /// Messages completed by the pass's units.
    completed: u64,
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    traced_units: Vec<u32>,
    serves: u64,
    /// Ladder rungs run; the last is the first every cell violates.
    rungs: usize,
    /// Refined knee per cell, aggregate msg/s.
    knees: Vec<u64>,
    probes: u32,
}

impl Pass {
    fn rung(&self, k: usize) -> &[TrafficReport] {
        &self.reports[k * 12..(k + 1) * 12]
    }
}

struct Runner<'a> {
    cells: &'a [Cell],
    seed: u64,
    next_unit: u32,
    rounds: Rounds,
    host: HostRef,
}

impl Runner<'_> {
    /// One unit: untraced, and in a traced run once more traced right
    /// after (the overhead pairs neighbours); the traced report must
    /// equal the untraced one.
    fn unit(
        &mut self,
        pass: &mut Pass,
        c: usize,
        rate: u64,
        tr: &mut Tracer,
        out: &mut Outcome,
    ) -> Option<TrafficReport> {
        let cell = &self.cells[c];
        let cfg = pass.ramps[c].rung_config(rate);
        let mut off = Tracer::new(false);
        let r = match serve_unit(cell, &cfg, &mut off) {
            Ok((r, ms, _)) => {
                pass.plain_ms.push(ms);
                r
            }
            Err(e) => {
                out.check(Err(e));
                return None;
            }
        };
        let base_rung = (rate == BASE_RATE).then_some(rate * u64::from(LANES));
        let mut verdict = check_report(cell, &r, base_rung);
        if tr.on() {
            tr.set_unit(self.next_unit);
            pass.traced_units.push(self.next_unit);
            self.next_unit += 1;
            match serve_unit(cell, &cfg, tr) {
                Ok((t, ms, serves)) => {
                    pass.traced_ms.push(ms);
                    pass.serves += serves;
                    if verdict.is_ok() && t != r {
                        verdict = Err(format!(
                            "{}: traced unit differs",
                            cell_name(cell.stack, cell.version)
                        ));
                    }
                }
                Err(e) => verdict = Err(e),
            }
        }
        out.check(verdict);
        drop(self.rounds.round(tr));
        self.host.sample();
        pass.completed += r.completed;
        if pass.keep_reports {
            pass.reports.push(r.clone());
        }
        Some(r)
    }

    /// The ladder up to the first rung every cell violates, then five
    /// bisection probes per cell.
    fn pass(&mut self, index: usize, tr: &mut Tracer, out: &mut Outcome) -> Option<Pass> {
        let seed = pass_seed(self.seed, index);
        let mut pass = Pass {
            ramps: (0..self.cells.len())
                .map(|c| CapacityRamp::new(base_cfg(seed, c), BASE_RATE))
                .collect(),
            reports: Vec::new(),
            keep_reports: index == 0,
            completed: 0,
            plain_ms: Vec::new(),
            traced_ms: Vec::new(),
            traced_units: Vec::new(),
            serves: 0,
            rungs: 0,
            knees: Vec::new(),
            probes: 0,
        };
        let violated = |ramp: &CapacityRamp, r: &TrafficReport, rate: u64| {
            violates_slo(ramp, r, rate * u64::from(LANES))
        };
        let rates = pass.ramps[0].rates();
        let cells = self.cells;
        // The first violating rung of each cell.
        let mut first: Vec<Option<usize>> = vec![None; cells.len()];
        for (k, &rate) in rates.iter().enumerate() {
            for (c, knee_rung) in first.iter_mut().enumerate() {
                let r = self.unit(&mut pass, c, rate, tr, out)?;
                if knee_rung.is_none() && violated(&pass.ramps[c], &r, rate) {
                    *knee_rung = Some(k);
                }
            }
            pass.rungs = k + 1;
            if first.iter().all(Option::is_some) {
                break;
            }
        }
        for (c, cell) in cells.iter().enumerate() {
            let k = match first[c] {
                Some(k) if k > 0 => k,
                Some(_) => {
                    out.check(Err(format!(
                        "{}: the base rung breaks the SLO",
                        cell_name(cell.stack, cell.version)
                    )));
                    return None;
                }
                None => {
                    out.check(Err(format!(
                        "{}: no rung of the ladder breaks the SLO",
                        cell_name(cell.stack, cell.version)
                    )));
                    return None;
                }
            };
            let mut failed = false;
            let ramp = pass.ramps[c];
            let (knee, probes) =
                bisect_knee(rates[k - 1], rates[k], ramp.bisect_iters, |rate| match self
                    .unit(&mut pass, c, rate, tr, out)
                {
                    Some(r) => violated(&ramp, &r, rate),
                    None => {
                        failed = true;
                        true
                    }
                });
            if failed {
                return None;
            }
            pass.probes += probes;
            pass.knees.push(knee * u64::from(LANES));
        }
        Some(pass)
    }
}

/// Pool the base-rung histograms of the 12 cells: `(p50, p99, p999)` in ns.
pub fn pooled_percentiles(reports: &[TrafficReport]) -> (u64, u64, u64) {
    let mut h = LatencyHistogram::new();
    for r in reports {
        h.merge(&r.hist);
    }
    (h.p50(), h.p99(), h.p999())
}

/// Little's law: messages in flight per lane at `rate` per lane.
fn depth(reports: &[TrafficReport], rate: u64) -> usize {
    let mean_ns = reports.iter().map(|r| r.hist.mean()).sum::<f64>() / reports.len().max(1) as f64;
    ((mean_ns * rate as f64 / 1e9).ceil() as usize).max(1)
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

    let mut runner = Runner {
        cells: &setup.cells,
        seed,
        next_unit: 1,
        rounds,
        host,
    };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs() < seconds {
        match runner.pass(passes.len(), &mut tr, &mut out) {
            Some(p) => passes.push(p),
            None => break,
        }
    }
    let Some(first) = passes.first() else {
        out.set("ok_ratio", 0.0);
        return (out, tr);
    };

    // Once per run: a 1-executor rerun of one cell is bit-identical,
    // and a fresh engine's `capacity` stage finds this run's knee.
    let pick = (seed % 12) as usize;
    let cell = &setup.cells[pick];
    let mut off = Tracer::new(false);
    out.check(
        serve_unit(cell, &base_cfg(seed, pick).with_executors(1), &mut off).and_then(
            |(r, _, _)| {
                if r == first.rung(0)[pick] {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: 1-executor rerun differs",
                        cell_name(cell.stack, cell.version)
                    ))
                }
            },
        ),
    );
    let curve = SweepEngine::new().capacity(
        cell.stack,
        StackOptions::improved(),
        WARMUP,
        cell.version,
        first.ramps[pick],
    );
    out.check(if curve.refined_knee_mps == Some(first.knees[pick]) {
        Ok(())
    } else {
        Err(format!(
            "{}: knee {} but SweepEngine::capacity finds {:?}",
            cell_name(cell.stack, cell.version),
            first.knees[pick],
            curve.refined_knee_mps
        ))
    });

    out.check(runner.rounds.check());
    let (p50, p99, p999) = pooled_percentiles(first.rung(0));
    let knee = first.knees.iter().sum::<u64>() as f64 / first.knees.len() as f64;
    if let Some(g) = golden {
        out.check(check_golden(
            "serve",
            &[
                ("p50_ns", p50 as f64, g.p50_ns),
                ("p99_ns", p99 as f64, g.p99_ns),
                ("p999_ns", p999 as f64, g.p999_ns),
                ("knee_mps", knee, g.knee_mps),
            ],
        ));
    }
    out.set("model_p50_us", p50 as f64 / 1e3);
    out.set("model_p99_us", p99 as f64 / 1e3);
    out.set("model_p999_us", p999 as f64 / 1e3);
    out.set("model_knee_mps", knee);

    let plain: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.plain_ms.iter().copied())
        .collect();
    if !traced {
        let completed: u64 = passes.iter().map(|p| p.completed).sum();
        let setup_s = runner.rounds.median_s();
        out.set_host_times(&runner.host, setup_s, &plain, Some(completed));
    }
    out.set("peak_rss_mb", peak_rss_mb());

    if traced {
        let traced_ms: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.traced_ms.iter().copied())
            .collect();
        let units: Vec<u32> = passes
            .iter()
            .flat_map(|p| p.traced_units.iter().copied())
            .collect();
        let serves: u64 = passes.iter().map(|p| p.serves).sum();
        set_layers(&mut out, &tr, first, &units, serves, &base_cfg(seed, 0));
        setup::set_layers(&mut out, &tr, &runner.rounds, &setup, mcpi);
        out.set_tracing(&runner.host, &plain, &traced_ms, units.len());
    }
    out.set("ok_ratio", out.ok_ratio());
    (out, tr)
}

/// The traced run's per-layer metrics: timed self time per unit from
/// the spans, counters per unit from the reports, and the probes.
fn set_layers(
    out: &mut Outcome,
    tr: &Tracer,
    first: &Pass,
    units: &[u32],
    serves: u64,
    base: &TrafficConfig,
) {
    let own = tr.mean_self_ms(units);
    let run_ms = own.get("traffic.run").copied().unwrap_or(0.0);
    let service_ms = own.get("traffic.service").copied().unwrap_or(0.0);
    out.set("traffic.run_ms", run_ms + service_ms);
    out.set("traffic.service_ms", service_ms);
    out.set("traffic.loop_ms", run_ms);
    let n = units.len().max(1) as f64;
    out.set("traffic.serves", serves as f64 / n);

    // Counters are a pure function of the schedule: read them off the
    // first pass's reports.
    let reports = &first.reports;
    let per_unit = |v: u64| v as f64 / reports.len().max(1) as f64;
    let (mut svc, mut table, mut faults) = (
        ServiceStats::default(),
        traffic::TableStats::default(),
        netsim::FaultStats::default(),
    );
    let mut wire = traffic::WireStats::default();
    let (mut retransmits, mut duplicates) = (0, 0);
    for r in reports {
        svc.merge(&r.service);
        table.merge(&r.table);
        faults.merge(&r.faults);
        wire.merge(&r.wire);
        retransmits += r.retransmits;
        duplicates += r.duplicates_served;
    }
    out.set("traffic.memo_hit_rate", svc.memo_hit_rate());
    out.set("traffic.simulated_replays", per_unit(svc.simulated_replays));
    out.set("traffic.lookups", per_unit(table.lookups));
    out.set("traffic.table_hit_rate", table.hit_rate());
    out.set("traffic.cache_hit_rate", table.cache_hit_rate());
    out.set("traffic.evictions", per_unit(table.evictions));
    out.set("traffic.retransmits", per_unit(retransmits));
    out.set("traffic.duplicates_served", per_unit(duplicates));
    out.set("traffic.knee_probes", f64::from(first.probes));
    out.set("protocols.wire_encoded", per_unit(wire.encoded));
    out.set(
        "protocols.wire_demux_yield",
        wire.demuxed as f64 / wire.encoded.max(1) as f64,
    );
    out.set(
        "protocols.wire_decode_errors",
        per_unit(wire.bad_fcs + wire.truncated + wire.malformed + wire.fragmented),
    );
    out.set("netsim.pool_allocs", per_unit(wire.pool.allocs));
    out.set("netsim.pool_grows", wire.pool.grows as f64);
    out.set("netsim.pool_recycle_rate", wire.pool.recycle_rate());
    out.set(
        "netsim.fault_fates",
        per_unit(
            faults.dropped
                + faults.corrupted
                + faults.reordered
                + faults.duplicated
                + faults.truncated
                + faults.malformed
                + faults.fragmented,
        ),
    );

    out.set("traffic.session_lookup_ns", probes::session_lookup_ns(base));
    let base_mean = first.rung(0).iter().map(|r| r.hist.mean()).sum::<f64>() / 12.0;
    out.set(
        "traffic.hist_record_ns",
        probes::hist_record_ns(base.seed, LANES, base_mean),
    );
    match probes::wire_frame_ns(base) {
        Ok(ns) => out.set("protocols.wire_frame_ns", ns),
        Err(e) => out.check(Err(e)),
    }
    let top = first.rungs - 1;
    let base_depth = depth(first.rung(0), BASE_RATE);
    let top_depth = depth(first.rung(top), BASE_RATE << top);
    out.set(
        "netsim.sched_event_ns",
        probes::sched_event_ns(base.seed, base_depth),
    );
    out.set(
        "netsim.sched_event_top_ns",
        probes::sched_event_ns(base.seed, top_depth),
    );
}
