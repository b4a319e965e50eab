//! `bench [SUITE…] [--smoke] [--out DIR]`: run the named bench suites
//! (all of them by default), print every gate's verdict, and exit
//! non-zero if any gate failed.
//!
//! Each suite writes its deterministic `model` section to
//! `DIR/BENCH_<suite>.json` (default: the current directory).  A full
//! run also prints its `host` section and writes it to
//! `target/bench/<suite>.host.json`; `--smoke` runs the reduced sizes,
//! writes the model only and skips host-clock gates.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use protolat_bench::{run, suites, Ctx};

fn usage() -> ExitCode {
    let names: Vec<&str> = suites::ALL.iter().map(|s| s.name).collect();
    eprintln!(
        "usage: bench [SUITE…] [--smoke] [--out DIR]\nsuites: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut ctx = Ctx::default();
    let mut out = PathBuf::from(".");
    let mut chosen = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => ctx.smoke = true,
            "--out" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => return usage(),
            },
            name => match suites::ALL.iter().find(|s| s.name == name) {
                Some(suite) => chosen.push(*suite),
                None => return usage(),
            },
        }
    }
    if chosen.is_empty() {
        chosen = suites::ALL.to_vec();
    }
    let failures = run(&chosen, ctx, &out, Path::new("target/bench"));
    println!("bench: {failures} failure(s)");
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
