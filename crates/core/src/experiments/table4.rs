//! Tables 4 and 5 — end-to-end roundtrip latency of the six versions,
//! raw and adjusted for the network controller.
//!
//! The paper reports mean ± σ over repeated runs; our simulation is
//! deterministic for a fixed warm-up, so σ is taken over samples with
//! different warm-up depths (which perturb map caches and window
//! state exactly the way repeated real runs would).

use crate::config::Version;
use crate::report::{f1, Table};
use crate::sweep::{grid, SweepEngine};
use protocols::StackOptions;

/// Paper values for the Δ% comparison column.
pub fn paper_e2e(stack_is_tcp: bool, v: Version) -> f64 {
    match (stack_is_tcp, v) {
        (true, Version::Bad) => 498.8,
        (true, Version::Std) => 351.0,
        (true, Version::Out) => 336.1,
        (true, Version::Clo) => 325.5,
        (true, Version::Pin) => 317.1,
        (true, Version::All) => 310.8,
        (false, Version::Bad) => 457.1,
        (false, Version::Std) => 399.2,
        (false, Version::Out) => 394.6,
        (false, Version::Clo) => 383.1,
        (false, Version::Pin) => 367.3,
        (false, Version::All) => 365.5,
    }
}

#[derive(Debug, Clone)]
pub struct VersionRow {
    pub version: Version,
    pub mean_us: f64,
    pub sigma_us: f64,
}

#[derive(Debug, Clone)]
pub struct Table4 {
    pub tcpip: Vec<VersionRow>,
    pub rpc: Vec<VersionRow>,
}

fn stats(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n.max(1.0);
    (mean, var.sqrt())
}

pub fn run() -> Table4 {
    // Ten samples in the paper; we take five warm-up depths.  All
    // sixty (stack, version, warmup) timings are memoized — `run_all`
    // times them in parallel before any table reads them, and the
    // warmup-2 ones are shared with Tables 2, 3, 7 and 8.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let mut tcpip: Vec<VersionRow> = grid()
        .into_iter()
        .map(|(stack, version)| {
            let samples: Vec<f64> =
                (1..=5).map(|w| eng.timing(stack, opts, w, version).e2e_us).collect();
            let (mean_us, sigma_us) = stats(&samples);
            VersionRow { version, mean_us, sigma_us }
        })
        .collect();
    let rpc = tcpip.split_off(Version::all().len());
    Table4 { tcpip, rpc }
}

impl Table4 {
    fn fastest(rows: &[VersionRow]) -> f64 {
        rows.iter().map(|r| r.mean_us).fold(f64::INFINITY, f64::min)
    }

    pub fn render(&self) -> String {
        self.render_with(0.0, "Table 4: End-to-end Roundtrip Latency")
    }

    /// Table 5: the same data minus 2 × 105 µs of controller overhead.
    pub fn render_adjusted(&self) -> String {
        self.render_with(
            210.0,
            "Table 5: End-to-end Roundtrip Latency Adjusted for Network Controller",
        )
    }

    fn render_with(&self, subtract: f64, title: &str) -> String {
        let mut t = Table::new(
            title,
            &[
                "Version",
                "TCP/IP T [us]",
                "+/-",
                "D%",
                "paper",
                "RPC T [us]",
                "+/-",
                "D%",
                "paper",
            ],
        );
        let tcp_best = Self::fastest(&self.tcpip) - subtract;
        let rpc_best = Self::fastest(&self.rpc) - subtract;
        for (a, b) in self.tcpip.iter().zip(&self.rpc) {
            let ta = a.mean_us - subtract;
            let tb = b.mean_us - subtract;
            t.row(&[
                a.version.name().to_string(),
                f1(ta),
                f1(a.sigma_us),
                format!("+{:.1}", (ta / tcp_best - 1.0) * 100.0),
                f1(paper_e2e(true, a.version) - subtract),
                f1(tb),
                f1(b.sigma_us),
                format!("+{:.1}", (tb / rpc_best - 1.0) * 100.0),
                f1(paper_e2e(false, b.version) - subtract),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orderings_match_paper() {
        let t = run();
        for rows in [&t.tcpip, &t.rpc] {
            let by = |v: Version| rows.iter().find(|r| r.version == v).unwrap().mean_us;
            // The headline orderings.
            assert!(by(Version::Bad) > by(Version::Std) + 30.0, "BAD >> STD");
            assert!(by(Version::Std) > by(Version::Out), "outlining helps");
            assert!(by(Version::Out) > by(Version::All), "ALL beats OUT");
            assert!(
                by(Version::All) <= by(Version::Std) - 10.0,
                "ALL well below STD"
            );
        }
    }

    #[test]
    fn bad_slowdown_factor_matches() {
        let t = run();
        let by = |rows: &[VersionRow], v: Version| {
            rows.iter().find(|r| r.version == v).unwrap().mean_us
        };
        // Paper: BAD is 60.5% (TCP) / 25.1% (RPC) above ALL.
        let tcp_slow = by(&t.tcpip, Version::Bad) / by(&t.tcpip, Version::All);
        let rpc_slow = by(&t.rpc, Version::Bad) / by(&t.rpc, Version::All);
        assert!((1.3..2.1).contains(&tcp_slow), "TCP BAD/ALL {tcp_slow:.2}");
        assert!((1.1..1.6).contains(&rpc_slow), "RPC BAD/ALL {rpc_slow:.2}");
        assert!(tcp_slow > rpc_slow, "BAD hurts TCP more, as in the paper");
    }

    #[test]
    fn sigma_is_small() {
        let t = run();
        for r in t.tcpip.iter().chain(&t.rpc) {
            assert!(
                r.sigma_us < 8.0,
                "{} sigma {:.2} too noisy",
                r.version.name(),
                r.sigma_us
            );
        }
    }
}
