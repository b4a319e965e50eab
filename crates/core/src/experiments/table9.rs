//! Table 9 — outlining effectiveness: the fraction of instruction slots
//! in fetched i-cache blocks that are never executed, and the static
//! size of the latency-critical path before and after outlining.
//!
//! Paper: TCP/IP 21% → 15% unused, 5841 → 3856 instructions;
//! RPC 22% → 16%, 5085 → 3641.

use std::collections::HashSet;

use crate::config::{StackKind, Version};
use crate::report::Table;
use crate::sweep::SweepEngine;
use kcode::events::Ev;
use kcode::transform::outline::{hot_laid_size, laid_size};
use kcode::FuncId;
use protocols::StackOptions;

#[derive(Debug, Clone)]
pub struct StackRow {
    pub stack: &'static str,
    pub unused_without: f64,
    pub size_without: u64,
    pub unused_with: f64,
    pub size_with: u64,
}

#[derive(Debug, Clone)]
pub struct Table9 {
    pub rows: Vec<StackRow>,
}

fn funcs_on_path(flow: &[Ev]) -> HashSet<FuncId> {
    flow.iter()
        .filter_map(|e| match *e {
            Ev::Enter { func } => Some(func),
            _ => None,
        })
        .collect()
}

fn measure(stack: StackKind, name: &'static str) -> StackRow {
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let run = eng.run(stack, opts, 2);
    let program = run.program();
    let path = funcs_on_path(run.flow().events());

    // The replayed out+in fetch/execute sets (merged bitmaps) come
    // memoized from the engine — Table 1 shares the same artifacts.
    let unused = |v: Version| eng.client_replay_stats(stack, opts, 2, v).unused_fraction(32);

    let size_without: u64 = path
        .iter()
        .map(|f| laid_size(program.function(*f), false) as u64)
        .sum();
    let size_with: u64 = path
        .iter()
        .map(|f| hot_laid_size(program.function(*f), true) as u64)
        .sum();

    StackRow {
        stack: name,
        unused_without: unused(Version::Std),
        size_without,
        unused_with: unused(Version::Out),
        size_with,
    }
}

pub fn run() -> Table9 {
    let rows = [(StackKind::TcpIp, "TCP/IP"), (StackKind::Rpc, "RPC")]
        .into_iter()
        .map(|(stack, name)| measure(stack, name))
        .collect();
    Table9 { rows }
}

impl Table9 {
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 9: Outlining Effectiveness",
            &[
                "Stack",
                "unused w/o [%]",
                "Size w/o",
                "unused w/ [%]",
                "Size w/",
                "outlined [%]",
            ],
        );
        for r in &self.rows {
            t.row(&[
                r.stack.to_string(),
                format!("{:.0}", r.unused_without * 100.0),
                r.size_without.to_string(),
                format!("{:.0}", r.unused_with * 100.0),
                r.size_with.to_string(),
                format!(
                    "{:.0}",
                    (1.0 - r.size_with as f64 / r.size_without as f64) * 100.0
                ),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outlining_reduces_unused_fraction() {
        let t = run();
        for r in &t.rows {
            assert!(
                r.unused_with < r.unused_without,
                "{}: {:.2} -> {:.2}",
                r.stack,
                r.unused_without,
                r.unused_with
            );
            // Paper regime: ~21% before, ~15% after.
            assert!(
                (0.08..0.40).contains(&r.unused_without),
                "{} unused w/o {:.2}",
                r.stack,
                r.unused_without
            );
            assert!(
                (0.04..0.30).contains(&r.unused_with),
                "{} unused w/ {:.2}",
                r.stack,
                r.unused_with
            );
        }
    }

    #[test]
    fn a_large_fraction_of_the_path_outlines() {
        let t = run();
        for r in &t.rows {
            let outlined = 1.0 - r.size_with as f64 / r.size_without as f64;
            // Paper: 34% (TCP/IP), 28% (RPC).
            assert!(
                (0.15..0.50).contains(&outlined),
                "{}: outlined fraction {:.2}",
                r.stack,
                outlined
            );
        }
    }

    #[test]
    fn static_sizes_in_paper_regime() {
        let t = run();
        for r in &t.rows {
            assert!(
                (3000..9000).contains(&r.size_without),
                "{} static size {}",
                r.stack,
                r.size_without
            );
            assert!(r.size_with < r.size_without);
        }
    }
}
