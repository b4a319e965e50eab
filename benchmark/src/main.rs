//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper|serve|record_replay|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric by name and unit, then, as the last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced).  See
//! `benchmark/README.md` for the workloads and metrics.

mod host;
mod metrics;
mod paper;
mod probes;
mod record_replay;
mod serve;
mod setup;
mod spans;
mod stats;

use std::path::PathBuf;

use metrics::Outcome;
use spans::Tracer;

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 0x7EA5;

/// Modeled values the default seed must reproduce exactly.
pub struct Golden {
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub p999_ns: f64,
    pub knee_mps: f64,
    pub bytes_per_msg: f64,
}

pub const GOLDEN: Golden = Golden {
    p50_ns: 69_632.0,
    p99_ns: 335_872.0,
    p999_ns: 2_097_152.0,
    knee_mps: 50_500.0,
    bytes_per_msg: 31.256_887_5,
};

/// Compare `(what, measured, golden)` triples exactly.
pub fn check_golden(workload: &str, items: &[(&str, f64, f64)]) -> Result<(), String> {
    let off: Vec<String> = items
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("{what} {got} (golden {want})"))
        .collect();
    if off.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{workload} at the default seed: {}",
            off.join(", ")
        ))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = parse_u64(&value()?)?,
            "--seconds" => args.seconds = parse_u64(&value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--paper-unit" => {
                // A `paper` unit's child process.
                paper::child(paper::Mode::parse(&value()?)?);
                std::process::exit(0);
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !["paper", "serve", "record_replay", "all"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be paper, serve, record_replay or all, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn run_workload(workload: &str, args: &Args) -> (Outcome, Tracer) {
    let golden = (args.seed == DEFAULT_SEED).then_some(&GOLDEN);
    match workload {
        "paper" => paper::run(args.seconds, args.trace),
        "serve" => serve::run(args.seed, args.seconds, args.trace, golden),
        _ => record_replay::run(args.seed, args.seconds, args.trace, golden),
    }
}

/// Fix glibc's heap layout, so `peak_rss_mb` measures what the program
/// holds rather than where the allocator happened to leave it: one
/// arena (per-thread arenas scatter the executors' allocations), and a
/// fixed mmap threshold (the adaptive one moves multi-megabyte buffers
/// between mmap and the heap depending on what was freed before).
/// Each moved the peak by over 10 % between runs of the same work.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_malloc_layout() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets allocator parameters; it is called
    // before this process starts a thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_malloc_layout() {}

fn main() {
    fix_malloc_layout();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => vec!["paper", "serve", "record_replay"],
        w => vec![w],
    };
    for workload in workloads {
        let (mut out, tr) = run_workload(workload, &args);
        if args.trace {
            out.check(tr.check());
            let path =
                PathBuf::from(".bench_spans").join(format!("{workload}-seed{}.tsv", args.seed));
            out.check(
                tr.write(&path)
                    .map_err(|e| format!("cannot write {}: {e}", path.display())),
            );
        }
        out.print(workload, args.trace);
    }
}
