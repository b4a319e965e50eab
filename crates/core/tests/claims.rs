//! EXPERIMENTS.md's claims as tier-1 tests: one test per check, named
//! after its row, with the bound the row states.

use alpha_machine::config::CacheConfig;
use alpha_machine::{InstRecord, Machine, MachineConfig};
use kcode::layout::{build_image, LayoutRequest, LayoutStrategy};
use kcode::ImageConfig;
use protocols::StackOptions;
use protolat_core::config::{StackKind, Version};
use protolat_core::harness::ping_pong;
use protolat_core::sweep::{StackRun, SweepEngine};
use protolat_core::timing::{cold_client_stats, replay_trace, time_host, time_roundtrip};
use protolat_core::world::{TcpIp, World};

/// Client instructions per TCP/IP STD roundtrip (out + in).
fn roundtrip_insts(header_prediction: bool) -> usize {
    let opts = StackOptions {
        header_prediction,
        ..StackOptions::improved()
    };
    let run = ping_pong(World::<TcpIp>::build(opts), 2);
    let img = Version::Std.build(&run.world, &run.episodes.client_flow());
    replay_trace(&img, &run.episodes.client_in).len()
        + replay_trace(&img, &run.episodes.client_out).len()
}

/// Row "Header prediction costs 'less than a dozen' extra instructions
/// on bi-directional traffic": request-response traffic defeats the
/// predictor, so it adds instructions instead of saving them.
#[test]
fn header_prediction_adds_instructions_on_bidirectional_traffic() {
    let (without, with) = (roundtrip_insts(false), roundtrip_insts(true));
    assert!(
        with > without,
        "with prediction {with} vs without {without}"
    );
}

/// Same row: the overhead stays small.
#[test]
fn header_prediction_adds_fewer_than_40_instructions() {
    let (without, with) = (roundtrip_insts(false), roundtrip_insts(true));
    assert!(
        with - without < 40,
        "prediction overhead {} instructions",
        with - without
    );
}

/// Steady-state mCPI of a store burst with poor merge locality (each
/// store to a different cache block) under a `depth`-entry write buffer.
fn store_burst_mcpi(depth: usize) -> f64 {
    let trace: Vec<InstRecord> = (0..512u64)
        .flat_map(|i| {
            [
                InstRecord::alu(0x1000 + i * 4),
                InstRecord::store(0x2000 + i * 4, 0x80000 + i * 64),
            ]
        })
        .collect();
    let mut cfg = MachineConfig::dec3000_600();
    cfg.mem.write_buffer_entries = depth;
    let mut m = Machine::new(cfg);
    m.run_accumulate(&trace); // warm
    m.run(&trace).mcpi()
}

/// Row "write buffer — store bursts stall sharply below the 21064's
/// 4-deep buffer": a deeper buffer is never slower.
#[test]
fn write_buffer_1_deep_is_no_faster_than_4_deep() {
    let (d1, d4) = (store_burst_mcpi(1), store_burst_mcpi(4));
    assert!(d1 >= d4, "1-deep mCPI {d1:.2} vs 4-deep {d4:.2}");
}

/// Warm client mCPI of TCP/IP `version` under a `ways`-way LRU i-cache
/// of the 21064's size, measured as the `ablations` suite's
/// `associativity` does.
fn assoc_mcpi(version: Version, ways: u64) -> f64 {
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let eps = &eng.tcpip(opts, 2).run.episodes;
    let img = eng.image(StackKind::TcpIp, opts, 2, version);
    let client = [&eps.client_out, &eps.client_in];
    let mut cfg = MachineConfig::dec3000_600();
    cfg.mem.icache = CacheConfig::set_associative(8 * 1024, 32, ways);
    time_host(&cfg, &img, &client, [(&client, &[])]).1[0].0.mcpi()
}

/// Row "associativity": a 2-way LRU i-cache rescues BAD's aliased
/// functions (mCPI 4.89 → 3.69) but not STD or ALL, whose path sweeps
/// the cache cyclically (1.77 → 1.82, 1.36 → 1.39).
#[test]
fn two_way_lru_rescues_bad_but_not_std_or_all() {
    let (one, two) = (assoc_mcpi(Version::Bad, 1), assoc_mcpi(Version::Bad, 2));
    assert!(two < one, "BAD: 2-way mCPI {two:.2} vs 1-way {one:.2}");
    for version in [Version::Std, Version::All] {
        let (one, two) = (assoc_mcpi(version, 1), assoc_mcpi(version, 2));
        assert!(two >= one, "{version:?}: 2-way mCPI {two:.2} vs 1-way {one:.2}");
    }
}

/// One TCP/IP image of `strategy` with the given outlining and
/// specialization, built against the client flow, and its
/// end-to-end roundtrip latency in µs.
fn tcpip_layout(strategy: LayoutStrategy, outline: bool, specialize: bool) -> (kcode::Image, f64) {
    let shared = SweepEngine::global().tcpip(StackOptions::improved(), 2);
    let img = build_image(
        &shared.run.world.program,
        LayoutRequest::new(
            strategy,
            ImageConfig::plain("claim").with_outline(outline).with_specialization(specialize),
        ),
        shared.flow().events(),
    );
    let f_tx = shared.run.world.lance_model.f_tx;
    let e2e = time_roundtrip(&shared.run.episodes, &img, &img, f_tx).e2e_us;
    (img, e2e)
}

/// Row "micro-positioning minimizes replacement misses but never beats
/// bipartite e2e": 3 vs 4 cold replacement misses, yet 334.1 vs
/// 331.6 µs.
#[test]
fn micro_positioning_has_fewer_replacement_misses_than_bipartite_yet_is_slower() {
    let eps = &SweepEngine::global().tcpip(StackOptions::improved(), 2).run.episodes;
    let repl = |img: &kcode::Image| cold_client_stats(eps, img).icache.replacement_misses;
    let (micro, micro_us) = tcpip_layout(LayoutStrategy::MicroPosition, true, true);
    let (bip, bip_us) = tcpip_layout(LayoutStrategy::Bipartite, true, true);
    assert!(repl(&micro) < repl(&bip), "repl misses {} vs {}", repl(&micro), repl(&bip));
    assert!(micro_us > bip_us, "e2e {micro_us:.1} vs {bip_us:.1} µs");
}

/// Row "outline × clone", a documented deviation: the paper finds
/// outlining useful chiefly as an enabler of cloning, but on this
/// model cloning gains less after outlining (0.7 µs) than without it
/// (6.3 µs).
#[test]
fn cloning_gains_less_after_outlining_on_this_model() {
    let e2e = |outline: bool, clone: bool| {
        let strategy = if clone { LayoutStrategy::Bipartite } else { LayoutStrategy::LinkOrder };
        tcpip_layout(strategy, outline, clone).1
    };
    let without = e2e(false, false) - e2e(false, true);
    let with = e2e(true, false) - e2e(true, true);
    assert!(0.0 < with && with < without, "clone gain {with:.1} µs with outlining, {without:.1} without");
}

/// Row `classifier_*`: the real packet classifier costs 0.4 µs per
/// roundtrip on TCP/IP ALL (324.6 → 325.0 µs), under the paper's floor
/// of 1 µs per packet.
#[test]
fn classifier_costs_less_than_a_microsecond_per_roundtrip_on_all() {
    let eng = SweepEngine::global();
    let e2e = |classifier_enabled: bool| {
        let opts = StackOptions { classifier_enabled, ..StackOptions::improved() };
        let run = &eng.tcpip(opts, 2).run;
        let img = eng.image(StackKind::TcpIp, opts, 2, Version::All);
        time_roundtrip(&run.episodes, &img, &img, run.world.lance_model.f_tx).e2e_us
    };
    let cost = e2e(true) - e2e(false);
    assert!(0.0 < cost && cost < 1.0, "classifier cost {cost:.2} µs per roundtrip");
}
