//! One bench driver for the whole repository.
//!
//! Each suite under [`suites`] is one function from a [`Ctx`] to an
//! [`Outcome`] with three parts, kept apart the way the paper keeps its
//! simulated counts apart from its measured latencies:
//!
//! * `model` — every deterministic field: simulated latencies, counts,
//!   rates and bit-identity probes.  Two runs render the same bytes, so
//!   the committed `BENCH_<suite>.json` holds exactly this section.
//! * `host` — wall-clock fields, each from one [`Samples`] that keeps
//!   every sample and reports median/min/max.
//! * named [`Gate`]s over those values.
//!
//! [`run`] evaluates every gate of every suite it runs and never stops
//! at the first failure; `src/bin/bench.rs` is its command line.

#![forbid(unsafe_code)]

pub mod harness;
pub mod suites;

use std::path::Path;
use std::time::Instant;

pub use harness::{JsonReport, Samples};
use protocols::StackOptions;
use protolat_core::config::StackKind;
use protolat_core::harness::RoundtripEpisodes;
use protolat_core::sweep::SweepEngine;
use traffic::TrafficConfig;

/// How a suite runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    /// Reduced sizes and one sample per wall-clock measurement; only
    /// the `model` section is written and host-clock gates are skipped.
    pub smoke: bool,
}

impl Ctx {
    /// Samples to take of a measurement that takes `n` in a full run.
    pub fn reps(&self, n: usize) -> usize {
        if self.smoke {
            1
        } else {
            n
        }
    }

    /// Messages per worker of the serving scenario.
    pub fn messages(&self) -> u32 {
        if self.smoke {
            4_000
        } else {
            20_000
        }
    }
}

/// Workers of the serving scenario.
pub const WORKERS: u32 = 4;
/// Sessions per worker of the serving scenario.
pub const SESSIONS_PER_WORKER: u32 = 512;
/// Offered rate per worker of the serving scenario, msg/s.
pub const RATE_MPS: u64 = 2_000;

/// The serving scenario the traffic, engine, capacity, demux, adapt and
/// trace suites measure: [`WORKERS`] × [`SESSIONS_PER_WORKER`] sessions
/// open loop at [`RATE_MPS`] per worker, Zipf θ = 0.9, seed `0x7EA5`,
/// and 0.3 % drops, 0.15 % corruptions, 0.3 % reorders and 0.15 %
/// duplicates.
pub fn serving(messages_per_worker: u32) -> TrafficConfig {
    TrafficConfig::open_loop(RATE_MPS, messages_per_worker, SESSIONS_PER_WORKER)
        .with_workers(WORKERS)
        .with_shards(8, 24)
        .with_theta(900)
        .with_seed(0x7EA5)
        .with_faults(3_000, 1_500, 3_000, 1_500)
}

/// One stack's roundtrip episodes under the improved options at warm-up
/// 2, from `eng`'s memoized functional run.
pub fn episodes(eng: &SweepEngine, stack: StackKind) -> RoundtripEpisodes {
    eng.run(stack, StackOptions::improved(), 2).episodes().clone()
}

/// The key prefix of a stack in bench fields.
pub fn stack_key(stack: StackKind) -> &'static str {
    match stack {
        StackKind::TcpIp => "tcpip",
        StackKind::Rpc => "rpc",
    }
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Which clock a gate's value comes from.  A smoke run skips
/// host-clock gates: its sizes are too small to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Model,
    Host,
}

/// A gate's predicate and bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `value >= bound`.
    AtLeast(f64),
    /// `value <= bound`.
    AtMost(f64),
    /// `value < bound`.
    Below(f64),
    /// `value > bound`.
    Above(f64),
    /// `value == bound`.
    Exactly(f64),
    /// A probe that held (value 1) or not (value 0).
    Holds,
}

/// One named check over a suite's values.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub clock: Clock,
    pub value: f64,
    pub bound: Bound,
}

impl Gate {
    pub fn passes(&self) -> bool {
        let v = self.value;
        match self.bound {
            Bound::AtLeast(b) => v >= b,
            Bound::AtMost(b) => v <= b,
            Bound::Below(b) => v < b,
            Bound::Above(b) => v > b,
            Bound::Exactly(b) => v == b,
            Bound::Holds => v == 1.0,
        }
    }

    /// Whether the gate counts as failed; a smoke run skips host-clock
    /// gates.
    pub fn fails(&self, smoke: bool) -> bool {
        !(self.passes() || smoke && self.clock == Clock::Host)
    }

    /// `PASS`/`FAIL`/`SKIP`, the name, and `value vs bound`.
    pub fn verdict(&self, suite: &str, smoke: bool) -> String {
        // Six decimals, trailing zeros dropped: 0.999901 must not read
        // as 1.000 next to a bound of 0.99.
        let num = |x: f64| {
            let s = format!("{x:.6}");
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        };
        let tag = if self.fails(smoke) {
            "FAIL"
        } else if self.passes() {
            "PASS"
        } else {
            "SKIP"
        };
        let (value, bound) = match self.bound {
            Bound::AtLeast(b) => (num(self.value), format!(">= {}", num(b))),
            Bound::AtMost(b) => (num(self.value), format!("<= {}", num(b))),
            Bound::Below(b) => (num(self.value), format!("< {}", num(b))),
            Bound::Above(b) => (num(self.value), format!("> {}", num(b))),
            Bound::Exactly(b) => (num(self.value), format!("== {}", num(b))),
            Bound::Holds => ((self.value == 1.0).to_string(), "true".to_string()),
        };
        format!("{tag}  {suite}/{}  {value} vs {bound}", self.name)
    }
}

/// What one suite run produced.
#[derive(Debug)]
pub struct Outcome {
    pub model: JsonReport,
    pub host: JsonReport,
    pub gates: Vec<Gate>,
}

impl Outcome {
    pub fn new(suite: &str) -> Self {
        Outcome {
            model: JsonReport::new(suite),
            host: JsonReport::new(suite),
            gates: Vec::new(),
        }
    }

    pub fn gate(&mut self, clock: Clock, name: impl Into<String>, value: f64, bound: Bound) {
        self.gates.push(Gate {
            name: name.into(),
            clock,
            value,
            bound,
        });
    }

    /// A model-clock probe that must hold.
    pub fn check(&mut self, name: impl Into<String>, holds: bool) {
        self.gate(Clock::Model, name, f64::from(u8::from(holds)), Bound::Holds);
    }
}

/// A named suite.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    pub name: &'static str,
    pub run: fn(&Ctx) -> Outcome,
}

/// Run `suites` in order.  Each writes its `model` to
/// `model_dir/BENCH_<suite>.json`; a full run also prints its `host`
/// section and writes it to `host_dir/<suite>.host.json`.  Every gate's
/// verdict is printed, and a suite that panics counts as one failure.
/// Returns the number of failures.
pub fn run(suites: &[Suite], ctx: Ctx, model_dir: &Path, host_dir: &Path) -> usize {
    let dirs = if ctx.smoke {
        vec![model_dir]
    } else {
        vec![model_dir, host_dir]
    };
    for dir in dirs {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    let mut failures = 0;
    for suite in suites {
        let t = Instant::now();
        let outcome = match std::panic::catch_unwind(|| (suite.run)(&ctx)) {
            Ok(outcome) => outcome,
            Err(_) => {
                println!("FAIL  {}  panicked", suite.name);
                failures += 1;
                continue;
            }
        };
        println!("== {} ({:.1} s)", suite.name, t.elapsed().as_secs_f64());
        outcome
            .model
            .write(&model_dir.join(format!("BENCH_{}.json", suite.name)));
        if !ctx.smoke {
            let mut host = outcome.host;
            host.field(
                "cpus",
                std::thread::available_parallelism().map_or(0, |n| n.get()),
            );
            print!("{}", host.render());
            host.write(&host_dir.join(format!("{}.host.json", suite.name)));
        }
        for gate in &outcome.gates {
            println!("{}", gate.verdict(suite.name, ctx.smoke));
            failures += usize::from(gate.fails(ctx.smoke));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(_: &Ctx) -> Outcome {
        let mut out = Outcome::new("fake");
        out.model.field("answer", 42);
        out.gate(Clock::Model, "floor", 1.5, Bound::AtLeast(2.0));
        out.check("probe", false);
        out.gate(Clock::Host, "ceiling", 3.0, Bound::AtMost(10.0));
        out
    }

    #[test]
    fn a_run_reports_every_gate_and_counts_each_failure() {
        let gates = fake(&Ctx::default()).gates;
        let lines: Vec<String> = gates.iter().map(|g| g.verdict("fake", false)).collect();
        assert_eq!(
            lines,
            [
                "FAIL  fake/floor  1.5 vs >= 2",
                "FAIL  fake/probe  false vs true",
                "PASS  fake/ceiling  3 vs <= 10",
            ]
        );

        let dir = std::env::temp_dir().join(format!("protolat-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let suites = [
            Suite {
                name: "fake",
                run: fake,
            },
            Suite {
                name: "fake2",
                run: fake,
            },
        ];
        assert_eq!(run(&suites, Ctx::default(), &dir, &dir), 4);
        let model = std::fs::read_to_string(dir.join("BENCH_fake.json")).unwrap();
        assert_eq!(model, "{\n  \"bench\": \"fake\",\n  \"answer\": 42\n}\n");
        assert!(dir.join("fake2.host.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_smoke_run_skips_host_gates_and_a_panic_is_a_failure() {
        let host_fail = |_: &Ctx| {
            let mut out = Outcome::new("h");
            out.gate(Clock::Host, "speedup", 1.0, Bound::AtLeast(2.0));
            out
        };
        let g = &host_fail(&Ctx::default()).gates[0];
        assert_eq!(g.verdict("h", true), "SKIP  h/speedup  1 vs >= 2");
        assert_eq!(g.verdict("h", false), "FAIL  h/speedup  1 vs >= 2");

        let dir = std::env::temp_dir().join(format!("protolat-bench-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let smoke = Ctx { smoke: true };
        assert_eq!(
            run(
                &[Suite {
                    name: "h",
                    run: host_fail
                }],
                smoke,
                &dir,
                &dir
            ),
            0
        );
        assert!(!dir.join("h.host.json").exists());
        let boom = Suite {
            name: "boom",
            run: |_| panic!("suite bug"),
        };
        assert_eq!(
            run(
                &[
                    boom,
                    Suite {
                        name: "h",
                        run: host_fail
                    }
                ],
                smoke,
                &dir,
                &dir
            ),
            1
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_suite_model_is_byte_stable_and_holds_no_host_field() {
        let ctx = Ctx { smoke: true };
        let (a, b) = ((suites::replay::run)(&ctx), (suites::replay::run)(&ctx));
        let model = a.model.render();
        assert_eq!(model, b.model.render());
        assert!(model.contains("\"tcpip_std_insts\": "));
        let host = a.host.render();
        for line in host
            .lines()
            .filter(|l| l.contains("\": ") && !l.contains("\"bench\""))
        {
            let key = line.trim().split("\": ").next().unwrap();
            assert!(
                !model.contains(key),
                "host field {key} leaked into the model"
            );
        }
        assert!(host.contains("_fused_fresh_ips"));
    }
}
