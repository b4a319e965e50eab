//! Set-up shared by the workloads: a fresh sweep engine's functional
//! runs and the twelve laid-out images, built many times over a run so
//! set-up time is a median.

use std::sync::Arc;
use std::time::Instant;

use kcode::events::EventStream;
use kcode::Image;
use protocols::StackOptions;
use protolat_core::{StackKind, SweepEngine, Version};

use crate::spans::Tracer;
use crate::stats::median;

/// Warm-up depth of the canonical functional runs (the paper's tables
/// read warm-up 2).
pub const WARMUP: usize = 2;

/// The 12-cell grid in `(stack, version)` order.
pub fn grid() -> Vec<(StackKind, Version)> {
    [StackKind::TcpIp, StackKind::Rpc]
        .into_iter()
        .flat_map(|s| Version::all().map(|v| (s, v)))
        .collect()
}

pub fn cell_name(stack: StackKind, version: Version) -> String {
    let s = match stack {
        StackKind::TcpIp => "tcpip",
        StackKind::Rpc => "rpc",
    };
    format!("{s}/{}", version.name())
}

/// One serving cell: its laid-out image and the server-turn episode a
/// `ReplayService` replays per message.
pub struct Cell {
    pub stack: StackKind,
    pub version: Version,
    pub image: Arc<Image>,
    pub episode: EventStream,
}

pub struct Setup {
    pub engine: SweepEngine,
    pub cells: Vec<Cell>,
}

/// Build a fresh engine's functional runs, layouts and images, each
/// public call under its layer's span.
pub fn build(tr: &mut Tracer) -> Setup {
    let engine = SweepEngine::new();
    let opts = StackOptions::improved();
    let tcp = tr.span("core.functional", || engine.tcpip(opts, WARMUP));
    let rpc = tr.span("core.functional", || engine.rpc(opts, WARMUP));
    let cells = grid()
        .into_iter()
        .map(|(stack, version)| {
            tr.span("kcode.layout", || {
                engine.layout(stack, opts, WARMUP, version)
            });
            let image = tr.span("kcode.image", || engine.image(stack, opts, WARMUP, version));
            let episode = match stack {
                StackKind::TcpIp => tcp.run.episodes.server_turn.clone(),
                StackKind::Rpc => rpc.run.episodes.server_turn.clone(),
            };
            Cell {
                stack,
                version,
                image,
                episode,
            }
        })
        .collect();
    Setup { engine, cells }
}

/// Tracer unit of the one-off work after the first set-up round (the
/// warm timings behind `model_rtt_us`); timed units count from 1.
pub const RUN_UNIT: u32 = 0;

/// Set-up rounds are tagged in the tracer from here up, apart from the
/// units.
const ROUND_BASE: u32 = 1 << 30;

/// Repeated set-up rounds.  The first comes before any unit and serves
/// the run; one more follows every unit, so `setup_s` is a median over
/// rounds spread across the whole run rather than over one moment of a
/// shared host.
#[derive(Default)]
pub struct Rounds {
    secs: Vec<f64>,
    /// The first round whose engine did not compute its stages.
    stale: Option<String>,
}

impl Rounds {
    /// Build and time one fresh set-up.
    pub fn round(&mut self, tr: &mut Tracer) -> Setup {
        let unit = tr.unit();
        tr.set_unit(ROUND_BASE + self.secs.len() as u32);
        let t = Instant::now();
        let setup = build(tr);
        self.secs.push(t.elapsed().as_secs_f64());
        tr.set_unit(unit);
        if let Err(e) = check_fresh(&setup) {
            self.stale.get_or_insert(e);
        }
        setup
    }

    /// Every round did its work rather than reading a memo.
    pub fn check(&self) -> Result<(), String> {
        self.stale.clone().map_or(Ok(()), Err)
    }

    pub fn median_s(&self) -> f64 {
        median(&self.secs)
    }

    fn units(&self) -> std::ops::Range<u32> {
        ROUND_BASE..ROUND_BASE + self.secs.len() as u32
    }
}

/// Check a set-up did its work rather than reading a memo: one
/// functional run per stack and one layout and image per cell.
fn check_fresh(setup: &Setup) -> Result<(), String> {
    let c = setup.engine.counters();
    if (c.runs, c.layouts, c.images) == (2, 12, 12) {
        Ok(())
    } else {
        Err(format!(
            "set-up engine computed {c:?}, expected 2 runs / 12 layouts / 12 images"
        ))
    }
}

/// Mean warm roundtrip latency over the 12 cells, µs (modeled clock),
/// plus the client reports' mean mCPI.
pub fn mean_rtt_us(engine: &SweepEngine, tr: &mut Tracer) -> (f64, f64) {
    let opts = StackOptions::improved();
    let cells = grid();
    let mut rtt = 0.0;
    let mut mcpi = 0.0;
    for &(stack, version) in &cells {
        let t = tr.span("machine.timing", || {
            engine.timing(stack, opts, WARMUP, version)
        });
        rtt += t.e2e_us;
        mcpi += t.client.mcpi();
    }
    let n = cells.len() as f64;
    (rtt / n, mcpi / n)
}

/// The set-up layers' per-layer metrics for the serving workloads: each
/// layer's self time in the median set-up round, the one-off warm
/// timings behind `model_rtt_us`, and the stages the last set-up's
/// engine computed.
pub fn set_layers(
    out: &mut crate::metrics::Outcome,
    tr: &Tracer,
    rounds: &Rounds,
    setup: &Setup,
    mcpi: f64,
) {
    let rounds: Vec<_> = rounds.units().map(|u| tr.mean_self_ms(&[u])).collect();
    for (span, metric) in [
        ("core.functional", "core.functional_ms"),
        ("kcode.layout", "kcode.layout_ms"),
        ("kcode.image", "kcode.image_ms"),
    ] {
        let per_round: Vec<f64> = rounds
            .iter()
            .map(|r| r.get(span).copied().unwrap_or(0.0))
            .collect();
        out.set(metric, median(&per_round));
    }
    let run = tr.mean_self_ms(&[RUN_UNIT]);
    out.set(
        "machine.timing_ms",
        run.get("machine.timing").copied().unwrap_or(0.0),
    );
    out.set("machine.mcpi", mcpi);
    let c = setup.engine.counters();
    out.set(
        "core.engine_computed",
        (c.runs + c.layouts + c.images + c.timings) as f64,
    );
}
