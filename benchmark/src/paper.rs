//! `paper`: one full reproduction of every table and figure
//! (`experiments::run_all`, what `repro` prints) per unit.  Each unit
//! runs in a fresh child process, so the process-global sweep-engine
//! memo starts empty and the unit really recomputes everything.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use protocols::StackOptions;
use protolat_core::experiments::{run_all, table1};
use protolat_core::{StackKind, SweepEngine, Version};

use crate::host::HostRef;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::setup::{grid, mean_rtt_us, Rounds, WARMUP};
use crate::spans::Tracer;
use crate::stats::fnv1a;

/// FNV-1a digest of `run_all`'s output at the commit that defined the
/// benchmark: any change to a reproduced number fails the unit.
pub const GOLDEN_DIGEST: u64 = 0x516a_7857_230a_8a34;

/// Fewest units a run makes, so the p90 has ten units beyond it.
pub const MIN_UNITS: usize = 100;

/// What one child process reports.
#[derive(Default)]
struct UnitReport {
    ns: u64,
    digest: u64,
    rtt_bits: u64,
    computed: u64,
    rss_mb: f64,
    counts: BTreeMap<String, f64>,
    spans: String,
}

fn parse_unit(stdout: &str) -> Result<UnitReport, String> {
    let mut r = UnitReport::default();
    for line in stdout.lines() {
        let (key, rest) = line.split_once('\t').unwrap_or((line, ""));
        let num = || {
            rest.parse::<u64>()
                .map_err(|e| format!("bad child line {line:?}: {e}"))
        };
        match key {
            "unit_ns" => r.ns = num()?,
            "digest" => {
                r.digest = u64::from_str_radix(rest, 16).map_err(|e| format!("bad digest: {e}"))?
            }
            "rtt_bits" => r.rtt_bits = num()?,
            "computed" => r.computed = num()?,
            "rss_mb" => r.rss_mb = rest.parse().map_err(|e| format!("bad rss: {e}"))?,
            "count" => {
                let (name, v) = rest.split_once('\t').ok_or("bad count line")?;
                r.counts.insert(
                    name.to_string(),
                    v.parse().map_err(|e| format!("bad count: {e}"))?,
                );
            }
            "span" => {
                r.spans.push_str(rest);
                r.spans.push('\n');
            }
            _ => return Err(format!("unexpected child line {line:?}")),
        }
    }
    if r.ns == 0 {
        return Err("child reported no unit time".into());
    }
    Ok(r)
}

/// How a unit's child process reproduces the paper.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// `run_all` as `repro` runs it: its prefetch fans out over the
    /// host's cores.  The end-to-end metrics time these.
    Plain,
    /// The stages `run_all` prefetches called one by one first, then
    /// `run_all` renders: the traced schedule with the tracer off.
    Serial,
    /// [`Mode::Serial`] with each stage under its layer's span, so each
    /// layer's share is its own span and the only difference from a
    /// serial unit is the spans' cost.
    Traced,
}

impl Mode {
    fn arg(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Serial => "serial",
            Mode::Traced => "traced",
        }
    }

    pub fn parse(arg: &str) -> Result<Mode, String> {
        match arg {
            "plain" => Ok(Mode::Plain),
            "serial" => Ok(Mode::Serial),
            "traced" => Ok(Mode::Traced),
            _ => Err(format!(
                "--paper-unit takes plain, serial or traced, not {arg:?}"
            )),
        }
    }
}

/// The child side of one unit: reproduce everything in this fresh
/// process and report on standard output.
pub fn child(mode: Mode) {
    let engine = SweepEngine::global();
    let mut tr = Tracer::new(mode == Mode::Traced);
    let mut counts: BTreeMap<&str, f64> = BTreeMap::new();
    let t = Instant::now();
    let text = if mode == Mode::Plain {
        run_all()
    } else {
        traced_stages(engine, &mut tr, &mut counts);
        tr.span("core.experiments", run_all)
    };
    let ns = t.elapsed().as_nanos() as u64;
    let c = engine.counters();
    let computed = c.runs
        + c.layouts
        + c.images
        + c.timings
        + c.cold_stats
        + c.replay_stats
        + c.traffics
        + c.capacities
        + c.demuxes
        + c.adapts
        + c.replays;
    println!("unit_ns\t{ns}");
    println!("digest\t{:016x}", fnv1a(text.as_bytes()));
    let (rtt, _) = mean_rtt_us(engine, &mut Tracer::new(false));
    println!("rtt_bits\t{}", rtt.to_bits());
    println!("computed\t{computed}");
    println!("rss_mb\t{}", peak_rss_mb());
    for (name, v) in counts {
        println!("count\t{name}\t{v}");
    }
    for line in tr.render().lines() {
        // The unit column is re-assigned by the parent.
        println!("span\t{line}");
    }
}

/// Call every stage `run_all`'s prefetch computes, stage by stage, each
/// under its layer's span, so the caller's `run_all` finds them
/// memoized and only renders.
fn traced_stages(engine: &SweepEngine, tr: &mut Tracer, counts: &mut BTreeMap<&'static str, f64>) {
    type Key = (StackKind, StackOptions, usize, Version);
    let improved = StackOptions::improved();
    let original = StackOptions::original();
    let canonical: Vec<Key> = grid()
        .into_iter()
        .map(|(s, v)| (s, improved, WARMUP, v))
        .collect();
    let mut timings: Vec<Key> = Vec::new();
    for &(s, _, _, v) in &canonical {
        timings.extend((1..=5).map(|w| (s, improved, w, v)));
    }
    timings.push((StackKind::TcpIp, original, WARMUP, Version::Std));
    let mut replays: Vec<Key> = Vec::new();
    for v in [Version::Std, Version::Out] {
        for s in [StackKind::TcpIp, StackKind::Rpc] {
            replays.push((s, improved, WARMUP, v));
        }
    }
    replays.push((StackKind::TcpIp, original, WARMUP, Version::Std));
    for toggle in table1::single_toggle_options() {
        replays.push((StackKind::TcpIp, toggle, WARMUP, Version::Std));
    }
    // Images every stage reads: RPC timings also need the ALL server.
    let mut images: Vec<Key> = Vec::new();
    for &(s, o, w, v) in timings.iter().chain(&canonical).chain(&replays) {
        for key in [(s, o, w, v), (s, o, w, Version::All)] {
            if (key.3 == v || s == StackKind::Rpc) && !images.contains(&key) {
                images.push(key);
            }
        }
    }
    let mut runs: Vec<(StackKind, StackOptions, usize)> = Vec::new();
    for &(s, o, w, _) in &images {
        if !runs.contains(&(s, o, w)) {
            runs.push((s, o, w));
        }
    }
    for &(s, o, w) in &runs {
        tr.span("core.functional", || match s {
            StackKind::TcpIp => drop(engine.tcpip(o, w)),
            StackKind::Rpc => drop(engine.rpc(o, w)),
        });
    }
    for &(s, o, w, v) in &images {
        tr.span("kcode.layout", || engine.layout(s, o, w, v));
        tr.span("kcode.image", || engine.image(s, o, w, v));
    }
    let mut insts = 0u64;
    for &(s, o, w, v) in &timings {
        let t = tr.span("machine.timing", || engine.timing(s, o, w, v));
        insts += t.client_out.instructions + t.server_turn.instructions + t.client_in.instructions;
    }
    counts.insert("machine.timing_insts", insts as f64);
    let mut misses = 0u64;
    for &(s, o, w, v) in &canonical {
        misses += tr
            .span("machine.cold", || engine.cold_stats(s, o, w, v))
            .icache
            .misses;
    }
    counts.insert("machine.icache_misses", misses as f64);
    let mut replayed = 0u64;
    for &(s, o, w, v) in &replays {
        replayed += tr
            .span("kcode.replay_stats", || {
                engine.client_replay_stats(s, o, w, v)
            })
            .instructions;
    }
    counts.insert("kcode.insts_replayed", replayed as f64);
    let mcpi: f64 = canonical
        .iter()
        .map(|&(s, o, w, v)| engine.timing(s, o, w, v).client.mcpi())
        .sum::<f64>()
        / 12.0;
    counts.insert("machine.mcpi", mcpi);
}

/// Run one unit in a fresh child process.
fn spawn_unit(mode: Mode) -> Result<UnitReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--paper-unit", mode.arg()])
        .output()
        .map_err(|e| format!("cannot start unit process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "unit process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
                .lines()
                .last()
                .unwrap_or("")
        ));
    }
    parse_unit(&String::from_utf8_lossy(&out.stdout))
}

pub fn run(seconds: u64, traced: bool) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(traced);
    let mut rounds = Rounds::default();
    let mut host = HostRef::default();
    let setup = rounds.round(&mut tr);
    host.sample();
    let (rtt, _) = mean_rtt_us(&setup.engine, &mut Tracer::new(false));
    out.set("model_rtt_us", rtt);

    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut rss: f64 = 0.0;
    let mut computed = None;
    let mut counts: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut traced_units = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while i < MIN_UNITS || start.elapsed().as_secs() < seconds {
        // A traced run alternates serial and traced units, so the
        // tracing overhead compares neighbours that differ only in the
        // spans.
        let mode = match (traced, i % 2) {
            (false, _) => Mode::Plain,
            (true, 0) => Mode::Serial,
            (true, _) => Mode::Traced,
        };
        let trace_unit = mode == Mode::Traced;
        let unit = 1 + i as u32;
        i += 1;
        let r = spawn_unit(mode);
        drop(rounds.round(&mut tr));
        host.sample();
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                out.check(Err(e));
                continue;
            }
        };
        let mut verdict = Ok(());
        if r.digest != GOLDEN_DIGEST {
            verdict = Err(format!(
                "paper digest {:016x} != golden {GOLDEN_DIGEST:016x}",
                r.digest
            ));
        } else if r.rtt_bits != rtt.to_bits() {
            verdict = Err(format!(
                "unit rtt {} != set-up rtt {rtt}",
                f64::from_bits(r.rtt_bits)
            ));
        } else if r.computed == 0 || computed.is_some_and(|c| c != r.computed) {
            verdict = Err(format!(
                "unit computed {} stages, expected {computed:?}",
                r.computed
            ));
        }
        computed.get_or_insert(r.computed);
        out.check(verdict);
        rss = rss.max(r.rss_mb);
        let ms = r.ns as f64 / 1e6;
        if trace_unit {
            traced_ms.push(ms);
            traced_units.push(unit);
            tr.set_unit(unit);
            match Tracer::parse(&r.spans) {
                Ok(spans) => tr.import(spans),
                Err(e) => out.check(Err(e)),
            }
            for (k, v) in r.counts {
                counts.entry(k).or_default().push(v);
            }
            counts
                .entry("core.engine_computed".into())
                .or_default()
                .push(r.computed as f64);
        } else {
            untraced_ms.push(ms);
        }
    }

    out.check(rounds.check());
    if !traced {
        out.set_host_times(&host, rounds.median_s(), &untraced_ms, None);
    }
    out.set("peak_rss_mb", rss.max(peak_rss_mb()));
    out.set("ok_ratio", out.ok_ratio());
    if traced {
        let own = tr.mean_self_ms(&traced_units);
        for (layer, metric) in [
            ("core.functional", "core.functional_ms"),
            ("kcode.layout", "kcode.layout_ms"),
            ("kcode.image", "kcode.image_ms"),
            ("kcode.replay_stats", "kcode.replay_stats_ms"),
            ("machine.timing", "machine.timing_ms"),
            ("machine.cold", "machine.cold_ms"),
        ] {
            out.set(metric, own.get(layer).copied().unwrap_or(0.0));
        }
        let mean = |k: &str| {
            counts
                .get(k)
                .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
        };
        for k in [
            "core.engine_computed",
            "kcode.insts_replayed",
            "machine.mcpi",
            "machine.icache_misses",
        ] {
            out.set(k, mean(k));
        }
        let timing_ms = own.get("machine.timing").copied().unwrap_or(0.0);
        if timing_ms > 0.0 {
            out.set(
                "machine.sim_mips",
                mean("machine.timing_insts") / (timing_ms * 1e3),
            );
        }
        out.set_tracing(&host, &untraced_ms, &traced_ms, traced_units.len());
    }
    (out, tr)
}
