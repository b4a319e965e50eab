//! Metric declarations and the result line.
//!
//! Modeled-clock metrics carry `sim_` units: they are simulated Alpha
//! 21064 time or rate, deterministic for a seed, not host measurements.

use std::collections::BTreeMap;

use crate::host::{HostRef, NOMINAL_MS};
use crate::stats::{median, percentile, valid_metric_name};

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("host_msgs_per_s", "msg/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("model_p50_us", "sim_us"),
    ("model_p99_us", "sim_us"),
    ("model_p999_us", "sim_us"),
    ("model_knee_mps", "sim_msg/s"),
    ("model_rtt_us", "sim_us"),
    ("trace_bytes_per_msg", "B/msg"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.units", "count"),
    ("bench.tracing_overhead_pct", "%"),
    ("bench.host_ref_ms", "ms"),
    ("core.functional_ms", "ms"),
    ("core.engine_computed", "count"),
    ("kcode.layout_ms", "ms"),
    ("kcode.image_ms", "ms"),
    ("kcode.replay_stats_ms", "ms"),
    ("kcode.insts_replayed", "count"),
    ("machine.timing_ms", "ms"),
    ("machine.cold_ms", "ms"),
    ("machine.sim_mips", "Minst/s"),
    ("machine.mcpi", "cycles/inst"),
    ("machine.icache_misses", "count"),
    ("traffic.run_ms", "ms"),
    ("traffic.service_ms", "ms"),
    ("traffic.loop_ms", "ms"),
    ("traffic.serves", "count"),
    ("traffic.memo_hit_rate", "ratio"),
    ("traffic.simulated_replays", "count"),
    ("traffic.session_lookup_ns", "ns"),
    ("traffic.hist_record_ns", "ns"),
    ("traffic.lookups", "count"),
    ("traffic.table_hit_rate", "ratio"),
    ("traffic.cache_hit_rate", "ratio"),
    ("traffic.evictions", "count"),
    ("traffic.retransmits", "count"),
    ("traffic.duplicates_served", "count"),
    ("traffic.knee_probes", "count"),
    ("traffic.record_ms", "ms"),
    ("traffic.validate_ms", "ms"),
    ("traffic.replay_ms", "ms"),
    ("protocols.wire_frame_ns", "ns"),
    ("protocols.wire_encoded", "count"),
    ("protocols.wire_demux_yield", "ratio"),
    ("protocols.wire_decode_errors", "count"),
    ("netsim.sched_event_ns", "ns"),
    ("netsim.sched_event_top_ns", "ns"),
    ("netsim.pool_allocs", "count"),
    ("netsim.pool_grows", "count"),
    ("netsim.pool_recycle_rate", "ratio"),
    ("netsim.fault_fates", "count"),
    ("trace.encode_ms", "ms"),
    ("trace.decode_ms", "ms"),
    ("trace.events", "count"),
    ("trace.bytes_per_event", "B"),
];

/// The value a workload reports for an end-to-end metric it does not
/// measure (say, `model_knee_mps` on `paper`): every metric must be
/// present and non-zero, and a constant never moves a comparison.
pub const NOT_MEASURED: f64 = 1.0;

/// One run's outcome.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    /// Why each failed unit or check failed.
    failures: Vec<String>,
    /// Lines printed with the metrics, for the reader only.
    notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one attempted unit or check; `Err` marks it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The host-clock end-to-end metrics, read at the reference speed:
    /// set-up seconds, per-unit milliseconds (the percentile rule
    /// applies) and simulated messages per host second (`None` where
    /// the workload has no messages).  The figures as measured are
    /// noted beside them.
    pub fn set_host_times(
        &mut self,
        host: &HostRef,
        setup_s: f64,
        unit_ms: &[f64],
        msgs: Option<u64>,
    ) {
        let scale = host.scale();
        self.note(format!(
            "host reference {:.3} ms (nominal {NOMINAL_MS} ms): host times below are scaled by {scale:.4}",
            host.median_ms()
        ));
        self.set("setup_s", setup_s * scale);
        self.note(format!("setup_s as measured = {setup_s} s"));
        for (name, q) in [("unit_ms_p50", 0.5), ("unit_ms_p90", 0.9)] {
            let v = percentile(unit_ms, q).unwrap_or_else(|| {
                self.check(Err(format!(
                    "{name}: fewer than 10 of {} units beyond it",
                    unit_ms.len()
                )));
                median(unit_ms)
            });
            self.set(name, v * scale);
            self.note(format!("{name} as measured = {v} ms"));
        }
        if let Some(msgs) = msgs {
            let rate = msgs as f64 / (unit_ms.iter().sum::<f64>() / 1e3);
            self.set("host_msgs_per_s", rate / scale);
            self.note(format!("host_msgs_per_s as measured = {rate} msg/s"));
        }
    }

    /// Units and checks that passed, over those attempted.
    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// `bench.units`, `bench.host_ref_ms` and
    /// `bench.tracing_overhead_pct`: the traced units' median time over
    /// the untraced units' median.
    pub fn set_tracing(
        &mut self,
        host: &HostRef,
        plain_ms: &[f64],
        traced_ms: &[f64],
        units: usize,
    ) {
        self.set("bench.units", units as f64);
        self.set("bench.host_ref_ms", host.median_ms());
        self.set(
            "bench.tracing_overhead_pct",
            (median(traced_ms) / median(plain_ms) - 1.0) * 100.0,
        );
    }

    /// The metrics of the requested kind, in declaration order; an
    /// end-to-end metric the workload does not measure reads
    /// [`NOT_MEASURED`], a per-layer one 0.
    fn metrics(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let (table, missing) = if traced {
            (PER_LAYER, 0.0)
        } else {
            (END_TO_END, NOT_MEASURED)
        };
        table
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    unit,
                    self.values.get(name).copied().unwrap_or(missing),
                )
            })
            .collect()
    }

    /// Print every metric by name and unit, then the result object as
    /// the last line of standard output.
    pub fn print(&mut self, workload: &str, traced: bool) {
        let metrics = self.metrics(traced);
        for &(name, _, v) in &metrics {
            if !valid_metric_name(name) || !v.is_finite() {
                self.failed += 1;
                self.attempted += 1;
                self.failures.push(format!("metric {name} is invalid: {v}"));
            }
        }
        for why in &self.failures {
            println!("FAILED: {why}");
        }
        for line in &self.notes {
            println!("[{workload}] {line}");
        }
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "[{workload}] fail_ratio = {fail_ratio} ({} of {} failed)",
            self.failed, self.attempted
        );
        for &(name, unit, v) in &metrics {
            println!("[{workload}] {name} = {v} {unit}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|&(name, unit, v)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
