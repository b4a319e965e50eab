//! Experiment drivers: one per table/figure of the paper.
//!
//! Every driver returns a structured result plus a rendered plain-text
//! table; the `repro` binary runs them all and prints the full report
//! that `EXPERIMENTS.md` records.

pub mod figure1;
pub mod future;
pub mod figure2;
pub mod latency;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod table9;
pub mod throughput;

use std::sync::OnceLock;

use crate::config::{StackKind, Version};
use crate::sweep::{grid, par_map, SweepEngine};
use protocols::StackOptions;

/// Warm the global sweep engine for everything `run_all` needs, in
/// parallel: the 6-version × 2-stack sweep at every warm-up depth
/// Table 4 samples (whose warm-up passes are the cold cache statistics
/// of Tables 6/8), the replay statistics of Tables 1/9, and the
/// option-toggle runs of Table 1.  Each artifact is computed once; the
/// tables then read from the cache.  The throughput and future drivers
/// memoize nothing of their own, so they run as the first (and longest)
/// jobs and hand back their results.
fn prefetch_all() -> (throughput::Throughput, future::Future) {
    let eng = SweepEngine::global();
    let improved = StackOptions::improved();
    let original = StackOptions::original();
    let (throughput, future) = (OnceLock::new(), OnceLock::new());
    let mut jobs: Vec<Box<dyn Fn() + Sync + '_>> = vec![
        Box::new(|| drop(throughput.set(throughput::run()))),
        Box::new(|| drop(future.set(future::run()))),
    ];
    for (stack, v) in grid() {
        // Layout plans first: every image at every warm-up depth
        // assembles from these 12 synthesized placements.
        jobs.push(Box::new(move || drop(eng.layout(stack, improved, 2, v))));
        for w in 1..=5 {
            jobs.push(Box::new(move || drop(eng.timing(stack, improved, w, v))));
        }
    }
    // Tables 1 and 9 share the replay statistics of the STD/OUT images.
    for v in [Version::Std, Version::Out] {
        for stack in [StackKind::TcpIp, StackKind::Rpc] {
            jobs.push(Box::new(move || drop(eng.client_replay_stats(stack, improved, 2, v))));
        }
    }
    // Table 1's nine option sets (improved, original, seven toggles) and
    // Table 2's original-options timing.
    let (tcp, std_v) = (StackKind::TcpIp, Version::Std);
    jobs.push(Box::new(move || drop(eng.client_replay_stats(tcp, original, 2, std_v))));
    jobs.push(Box::new(move || drop(eng.timing(tcp, original, 2, std_v))));
    for toggle in table1::single_toggle_options() {
        jobs.push(Box::new(move || drop(eng.client_replay_stats(tcp, toggle, 2, std_v))));
    }
    par_map(&jobs, |job| job());
    drop(jobs);
    (
        throughput.into_inner().expect("the throughput job ran"),
        future.into_inner().expect("the future job ran"),
    )
}

/// Run every experiment and render the full report.
pub fn run_all() -> String {
    let (throughput, future) = prefetch_all();
    let mut out = String::new();
    out.push_str(&figure1::run().render());
    out.push('\n');
    out.push_str(&table1::run().render());
    out.push('\n');
    out.push_str(&table2::run().render());
    out.push('\n');
    out.push_str(&table3::run().render());
    out.push('\n');
    let t4 = table4::run();
    out.push_str(&t4.render());
    out.push('\n');
    out.push_str(&t4.render_adjusted()); // Table 5
    out.push('\n');
    out.push_str(&table6::run().render());
    out.push('\n');
    out.push_str(&table7::run().render());
    out.push('\n');
    out.push_str(&table8::run().render());
    out.push('\n');
    out.push_str(&table9::run().render());
    out.push('\n');
    out.push_str(&figure2::run().render());
    out.push('\n');
    out.push_str(&throughput.render());
    out.push('\n');
    out.push_str(&future.render());
    out
}
