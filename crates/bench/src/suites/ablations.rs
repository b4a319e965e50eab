//! Ablations of the paper's techniques and of the modelled hardware,
//! each reduced to the numbers it reports.  Every field is a simulator
//! output, so this suite is model-only; the claims it illustrates that
//! EXPERIMENTS.md states as bounds are tier-1 tests in
//! `crates/core/tests/claims.rs`.
//!
//! * **associativity** — a 2-way LRU i-cache rescues BAD's deliberately
//!   aliased functions but not STD/ALL, whose path is bigger than the
//!   cache and sweeps it cyclically (the worst case for LRU);
//! * **classifier** — the real packet classifier's cost on ALL (the
//!   paper reports a zero-overhead classifier and notes real ones cost
//!   1–4 µs per packet);
//! * **header prediction** — §2.3: on bi-directional traffic the
//!   predictor adds instructions rather than saving them;
//! * **layouts** — the five placement strategies head to head (§3.2);
//! * **map cache** — the one-entry map cache pays off only for packet
//!   trains (§2.2.3);
//! * **outline × clone** — outlining's chief value is enabling cloning;
//! * **write buffer** — store bursts stall below the 21064's 4-deep
//!   write-merging buffer;
//! * **map traversal** — §2.2.1: traversal cost ≈ the non-empty-bucket
//!   fraction of a full scan.

use alpha_machine::config::CacheConfig;
use alpha_machine::{InstRecord, Machine, MachineConfig};
use kcode::layout::{build_image, LayoutRequest, LayoutStrategy};
use kcode::ImageConfig;
use protocols::StackOptions;
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::{StackRun, SweepEngine};
use protolat_core::timing::{cold_client_stats, replay_trace, time_host, time_roundtrip};
use xkernel::map::{LookupKind, Map};

use crate::{episodes, Ctx, JsonReport, Outcome};

fn associativity(m: &mut JsonReport, eng: &SweepEngine) {
    let eps = episodes(eng, StackKind::TcpIp);
    for v in [Version::Std, Version::Bad, Version::All] {
        let img = eng.image(StackKind::TcpIp, StackOptions::improved(), 2, v);
        let client = [&eps.client_out, &eps.client_in];
        for ways in [1u64, 2, 4] {
            let mut cfg = MachineConfig::dec3000_600();
            cfg.mem.icache = CacheConfig::set_associative(8 * 1024, 32, ways);
            let (_, [(r, _)]) = time_host(&cfg, &img, &client, [(&client, &[])]);
            let k = format!("assoc_{}_{ways}way", v.name().to_lowercase());
            m.field(format!("{k}_mcpi"), format_args!("{:.2}", r.mcpi()))
                .field(format!("{k}_icache_repl"), r.icache.replacement_misses);
        }
    }
}

fn classifier(m: &mut JsonReport, eng: &SweepEngine) {
    let e2e = |classifier_enabled: bool| {
        let opts = StackOptions {
            classifier_enabled,
            ..StackOptions::improved()
        };
        let run = &eng.tcpip(opts, 2).run;
        let img = eng.image(StackKind::TcpIp, opts, 2, Version::All);
        time_roundtrip(&run.episodes, &img, &img, run.world.lance_model.f_tx).e2e_us
    };
    let (off, on) = (e2e(false), e2e(true));
    m.field("classifier_off_e2e_us", format_args!("{off:.1}"))
        .field("classifier_on_e2e_us", format_args!("{on:.1}"))
        .field("classifier_cost_us", format_args!("{:.1}", on - off));
}

fn header_prediction(m: &mut JsonReport, eng: &SweepEngine) {
    let insts = |header_prediction: bool| {
        let opts = StackOptions {
            header_prediction,
            ..StackOptions::improved()
        };
        let eps = &eng.tcpip(opts, 2).run.episodes;
        let img = eng.image(StackKind::TcpIp, opts, 2, Version::Std);
        replay_trace(&img, &eps.client_in).len() + replay_trace(&img, &eps.client_out).len()
    };
    let (without, with) = (insts(false), insts(true));
    m.field("hdr_pred_without_insts", without)
        .field("hdr_pred_with_insts", with)
        .field("hdr_pred_overhead_insts", with as i64 - without as i64);
}

/// One TCP/IP image of `strategy` with the given outlining and
/// specialization, built against the client flow.
fn tcpip_image(
    eng: &SweepEngine,
    strategy: LayoutStrategy,
    name: &str,
    outline: bool,
    specialize: bool,
) -> kcode::Image {
    let shared = eng.tcpip(StackOptions::improved(), 2);
    build_image(
        &shared.run.world.program,
        LayoutRequest::new(
            strategy,
            ImageConfig::plain(name)
                .with_outline(outline)
                .with_specialization(specialize),
        ),
        shared.flow().events(),
    )
}

fn layouts(m: &mut JsonReport, eng: &SweepEngine) {
    let shared = eng.tcpip(StackOptions::improved(), 2);
    let (eps, f_tx) = (&shared.run.episodes, shared.run.world.lance_model.f_tx);
    for (name, strategy) in [
        ("link_order", LayoutStrategy::LinkOrder),
        ("linear", LayoutStrategy::Linear),
        ("bipartite", LayoutStrategy::Bipartite),
        ("micro_position", LayoutStrategy::MicroPosition),
        ("pessimal", LayoutStrategy::Bad),
    ] {
        let img = tcpip_image(eng, strategy, name, true, true);
        let t = time_roundtrip(eps, &img, &img, f_tx);
        m.field(
            format!("layout_{name}_e2e_us"),
            format_args!("{:.1}", t.e2e_us),
        )
        .field(
            format!("layout_{name}_mcpi"),
            format_args!("{:.2}", t.client.mcpi()),
        )
        .field(
            format!("layout_{name}_icache_repl"),
            cold_client_stats(eps, &img).icache.replacement_misses,
        );
    }
}

fn map_cache(m: &mut JsonReport) {
    // Alternate between k connections: k = 1 always hits the one-entry
    // cache, larger k always misses.
    for k in [1u64, 2, 4, 8] {
        let mut map: Map<u64, u64> = Map::new(64);
        for i in 0..k {
            map.bind(i, i, i);
        }
        let n = 1000;
        let hits = (0..n)
            .filter(|i| map.lookup(i % k, &(i % k)).1 == LookupKind::CacheHit)
            .count();
        m.field(
            format!("map_cache_{k}conn_hit_pct"),
            format_args!("{:.0}", hits as f64 / n as f64 * 100.0),
        );
    }
}

fn outline_clone(m: &mut JsonReport, eng: &SweepEngine) {
    let shared = eng.tcpip(StackOptions::improved(), 2);
    let e2e = |outline: bool, clone: bool| {
        let strategy = if clone {
            LayoutStrategy::Bipartite
        } else {
            LayoutStrategy::LinkOrder
        };
        let img = tcpip_image(eng, strategy, "cell", outline, clone);
        time_roundtrip(
            &shared.run.episodes,
            &img,
            &img,
            shared.run.world.lance_model.f_tx,
        )
        .e2e_us
    };
    let (plain, cloned, outlined, both) = (
        e2e(false, false),
        e2e(false, true),
        e2e(true, false),
        e2e(true, true),
    );
    m.field("outline_clone_plain_e2e_us", format_args!("{plain:.1}"))
        .field("outline_clone_clone_e2e_us", format_args!("{cloned:.1}"))
        .field(
            "outline_clone_outline_e2e_us",
            format_args!("{outlined:.1}"),
        )
        .field("outline_clone_both_e2e_us", format_args!("{both:.1}"))
        .field(
            "clone_gain_without_outline_us",
            format_args!("{:.1}", plain - cloned),
        )
        .field(
            "clone_gain_with_outline_us",
            format_args!("{:.1}", outlined - both),
        );
}

fn write_buffer(m: &mut JsonReport) {
    // Alternating compute/store with poor merge locality: each store
    // goes to a different cache block.
    let trace: Vec<InstRecord> = (0..512u64)
        .flat_map(|i| {
            [
                InstRecord::alu(0x1000 + i * 4),
                InstRecord::store(0x2000 + i * 4, 0x80000 + i * 64),
            ]
        })
        .collect();
    for depth in [1usize, 2, 4, 8] {
        let mut cfg = MachineConfig::dec3000_600();
        cfg.mem.write_buffer_entries = depth;
        let mut machine = Machine::new(cfg);
        machine.run_accumulate(&trace); // warm
        m.field(
            format!("write_buffer_depth{depth}_mcpi"),
            format_args!("{:.2}", machine.run(&trace).mcpi()),
        );
    }
}

fn map_traversal(m: &mut JsonReport) {
    const N: usize = 1024;
    for pct in [5usize, 10, 25, 50, 100] {
        let mut map: Map<u64, u64> = Map::new(N);
        for k in 0..(N * pct / 100) as u64 {
            map.bind(k, k, k);
        }
        let visited = map.for_each(|_, _| {});
        m.field(format!("map_traversal_{pct}pct_visited"), visited)
            .field(
                format!("map_traversal_{pct}pct_speedup"),
                format_args!("{:.1}", N as f64 / visited as f64),
            );
    }
}

pub fn run(_: &Ctx) -> Outcome {
    let eng = SweepEngine::global();
    let mut out = Outcome::new("ablations");
    let m = &mut out.model;
    associativity(m, eng);
    classifier(m, eng);
    header_prediction(m, eng);
    layouts(m, eng);
    map_cache(m);
    outline_clone(m, eng);
    write_buffer(m);
    map_traversal(m);
    out
}

#[cfg(test)]
mod tests {
    /// The suite's model section is the committed `BENCH_ablations.json`
    /// byte for byte; the suite takes the same sizes under `--smoke`.
    #[test]
    fn model_matches_the_committed_file() {
        let model = super::run(&crate::Ctx::default()).model.render();
        assert_eq!(model, include_str!("../../../../BENCH_ablations.json"));
    }
}
