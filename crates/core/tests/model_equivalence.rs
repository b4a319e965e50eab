//! Acceptance suite: the data-oriented machine model reproduces the
//! seed scalar model bit-for-bit on the paper's actual workloads — all
//! six layout versions of both protocol stacks, under both the Table 6
//! methodology (cold caches, one traced roundtrip) and the Table 7
//! methodology (warm measurement window after a warm-up pass).
//!
//! The machine crate's `reference_equivalence` property suite covers
//! randomized traces and configurations; this suite pins the real
//! protocol episodes, so any divergence in stall cycles, per-cache
//! accesses/misses/replacement misses, or combined d-cache/write-buffer
//! statistics would change a published table and fail here.

use alpha_machine::{reference, InstRecord, Machine, RunReport};
use protolat_core::config::Version;
use protolat_core::harness::{ping_pong, RoundtripEpisodes};
use protolat_core::timing::replay_trace;
use protolat_core::world::{Rpc, TcpIp, World};
use kcode::Image;
use protocols::StackOptions;

/// The three episode traces of one roundtrip, materialized once.
fn roundtrip_traces(episodes: &RoundtripEpisodes, image: &Image) -> Vec<Vec<InstRecord>> {
    vec![
        replay_trace(image, &episodes.client_out),
        replay_trace(image, &episodes.client_in),
        replay_trace(image, &episodes.server_turn),
    ]
}

/// Run the Table 6 + Table 7 methodology on both models and compare
/// every per-episode report, cold and warm.
fn assert_models_agree(label: &str, traces: &[Vec<InstRecord>]) {
    let mut opt = Machine::dec3000_600();
    let mut refm = reference::Machine::dec3000_600();

    // Table 6: cold caches, statistics over the roundtrip.
    let mut cold_o: Vec<RunReport> = Vec::new();
    let mut cold_r: Vec<RunReport> = Vec::new();
    for t in traces {
        cold_o.push(opt.run(t));
        cold_r.push(refm.run(t));
    }
    assert_eq!(cold_o, cold_r, "{label}: cold (Table 6) reports diverge");

    // Table 7: warm window — caches keep their contents, counters reset.
    opt.reset_stats();
    refm.reset_stats();
    for t in traces {
        let warm_o = opt.run(t);
        let warm_r = refm.run(t);
        assert_eq!(warm_o, warm_r, "{label}: warm (Table 7) reports diverge");
    }
}

#[test]
fn tcpip_all_versions_match_reference_model() {
    let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
    let canonical = run.episodes.client_trace();
    for v in Version::all() {
        let img = v.build(&run.world, &canonical);
        let traces = roundtrip_traces(&run.episodes, &img);
        assert_models_agree(&format!("tcpip/{}", v.name()), &traces);
    }
}

#[test]
fn rpc_all_versions_match_reference_model() {
    let run = ping_pong(World::<Rpc>::build(StackOptions::improved()), 2);
    let canonical = run.episodes.client_trace();
    for v in Version::all() {
        let img = v.build(&run.world, &canonical);
        let traces = roundtrip_traces(&run.episodes, &img);
        assert_models_agree(&format!("rpc/{}", v.name()), &traces);
    }
}
