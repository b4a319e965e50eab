//! Acceptance suite: `time_host`, the fused replay→simulate primitive
//! every timing goes through, equals its per-record twin
//! `time_host_materialized` on `Machine` and on the seed
//! `reference::Machine`, bit for bit, on the paper's real workloads.
//!
//! `time_host` streams each episode's replay straight into a fresh
//! machine — block bodies through `InstSink::emit_block`, the transmit
//! boundary through `BoundaryMachineSink` — and never builds a trace;
//! the twin replays each episode into a vector once and steps it one
//! record at a time.  All three are called with the same arguments, on
//! every one of the 12 cells (both stacks × six versions), in these
//! shapes:
//!
//! * `time_client`'s (warm-up out+in, then out with its transmit
//!   boundary and in) and `time_server`'s;
//! * the Table 6 then Table 7 methodology on one machine
//!   (`*_all_versions_match_reference_model`): no warm-up, each of the
//!   three episodes measured cold in a window of its own, then all three
//!   again warm;
//! * out+in as one window tracking the out path's transmit ranges, so
//!   the boundary falls inside the window's first episode;
//! * `time_client`'s with the measured episodes cloned to other
//!   addresses: the twin's by-address dedupe is only a saving.
//!
//! The one-window out+in shape of the memory-wall sweep and the
//! associativity ablation is also checked on the 266 MHz low-cost
//! machine and a 2-way LRU i-cache, on STD, BAD and ALL of both stacks.
//!
//! Both sides share one replay, so a fault in how replay resolves data
//! addresses passes every comparison above; the resolved `(pc,
//! direction, address)` of every load and store is pinned on its own.

use alpha_machine::config::CacheConfig;
use alpha_machine::{reference, Machine, MachineConfig, MemOp, RunReport};
use kcode::events::EventStream;
use kcode::{Image, TraceFingerprint};
use protocols::StackOptions;
use protolat_core::config::{StackKind, Version};
use protolat_core::experiments::future::lowcost_266;
use protolat_core::harness::RoundtripEpisodes;
use protolat_core::sweep::SweepEngine;
use protolat_core::timing::{func_ranges, time_host, time_host_materialized, Window};

/// `time_host` and its twin on both per-record machines, called with the
/// same arguments, must agree; returns the common result.
fn assert_twins<const N: usize>(
    label: &str,
    cfg: &MachineConfig,
    image: &Image,
    warm: &[&EventStream],
    windows: [Window<'_>; N],
) -> (RunReport, [(RunReport, u64); N]) {
    let fused = time_host(cfg, image, warm, windows);
    let stepped = time_host_materialized::<Machine, N>(cfg, image, warm, windows);
    assert_eq!(fused, stepped, "{label}: vs Machine");
    let seed = time_host_materialized::<reference::Machine, N>(cfg, image, warm, windows);
    assert_eq!(fused, seed, "{label}: vs reference");
    fused
}

/// Call `f` on each of `versions`' cells of `stack`: its label, the
/// episodes, the image and the transmit function's address ranges.
fn for_each_cell(
    stack: StackKind,
    versions: &[Version],
    mut f: impl FnMut(&str, &RoundtripEpisodes, &Image, &[(u64, u64)]),
) {
    let (eng, opts) = (SweepEngine::global(), StackOptions::improved());
    let run = eng.run(stack, opts, 2);
    for &v in versions {
        let image = eng.image(stack, opts, 2, v);
        let tx_ranges = func_ranges(&image, run.f_tx());
        f(&format!("{stack:?}/{}", v.name()), run.episodes(), &image, &tx_ranges);
    }
}

fn assert_paper_shapes_match(stack: StackKind) {
    let dec = MachineConfig::dec3000_600();
    for_each_cell(stack, &Version::all(), |label, eps, image, tx| {
        let (out, inn, server) = (&eps.client_out, &eps.client_in, &eps.server_turn);
        let client = [(&[out][..], tx), (&[inn][..], &[][..])];
        assert_twins(&format!("{label} client"), &dec, image, &[out, inn], client);
        assert_twins(&format!("{label} server"), &dec, image, &[server], [(&[server], tx)]);
    });
}

/// The Table 6 then Table 7 methodology on one machine: no warm-up, each
/// episode measured cold in a window of its own, then all three warm.
fn assert_cold_then_warm_match(stack: StackKind) {
    let dec = MachineConfig::dec3000_600();
    for_each_cell(stack, &Version::all(), |label, eps, image, _| {
        let (o, i, s): (&[_], &[_], &[_]) =
            (&[&eps.client_out], &[&eps.client_in], &[&eps.server_turn]);
        let cold_then_warm = [(o, &[][..]), (i, &[]), (s, &[]), (o, &[]), (i, &[]), (s, &[])];
        assert_twins(&format!("{label} cold then warm"), &dec, image, &[], cold_then_warm);
    });
}

#[test]
fn tcpip_fused_timings_match_materialized_and_reference() {
    assert_paper_shapes_match(StackKind::TcpIp);
}

#[test]
fn rpc_fused_timings_match_materialized_and_reference() {
    assert_paper_shapes_match(StackKind::Rpc);
}

#[test]
fn tcpip_all_versions_match_reference_model() {
    assert_cold_then_warm_match(StackKind::TcpIp);
}

#[test]
fn rpc_all_versions_match_reference_model() {
    assert_cold_then_warm_match(StackKind::Rpc);
}

#[test]
fn one_window_tracks_the_transmit_boundary_inside_its_first_episode() {
    let dec = MachineConfig::dec3000_600();
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        for_each_cell(stack, &Version::all(), |label, eps, image, tx| {
            let client = [&eps.client_out, &eps.client_in];
            let (_, [(_, pre)]) = assert_twins(label, &dec, image, &client, [(&client, tx)]);
            // The in path never transmits, so the boundary is the out
            // path's, where `time_client` takes it.
            let (_, [(_, out_pre), _]) =
                time_host(&dec, image, &client, [(&client[..1], tx), (&client[1..], &[])]);
            assert_eq!(pre, out_pre, "{label}: boundary inside the out path");
        });
    }
}

#[test]
fn cloned_episodes_time_like_shared_ones() {
    let dec = MachineConfig::dec3000_600();
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        for_each_cell(stack, &Version::all(), |label, eps, image, tx| {
            let (out, inn) = (&eps.client_out, &eps.client_in);
            let (out2, inn2) = (out.clone(), inn.clone());
            let warm = [out, inn];
            let cloned = [(&[&out2][..], tx), (&[&inn2][..], &[][..])];
            assert_twins(&format!("{label} cloned"), &dec, image, &warm, cloned);
        });
    }
}

/// `time_host` with the client's out+in as one warm window on each
/// non-default machine.
fn assert_one_window_matches(stack: StackKind) {
    let mut two_way = MachineConfig::dec3000_600();
    two_way.mem.icache = CacheConfig::set_associative(8 * 1024, 32, 2);
    let versions = [Version::Std, Version::Bad, Version::All];
    for_each_cell(stack, &versions, |label, eps, image, _| {
        let client = [&eps.client_out, &eps.client_in];
        for (machine, cfg) in [("low-cost 266 MHz", lowcost_266()), ("2-way i-cache", two_way)] {
            assert_twins(&format!("{label} on {machine}"), &cfg, image, &client, [(&client, &[])]);
        }
    });
}

#[test]
fn tcpip_one_window_timings_match_on_other_machines() {
    assert_one_window_matches(StackKind::TcpIp);
}

#[test]
fn rpc_one_window_timings_match_on_other_machines() {
    assert_one_window_matches(StackKind::Rpc);
}

/// FNV-1a (through `kcode::fingerprint`) of the `(pc, direction,
/// address)` of every load and store an episode's replay resolves.
fn data_digest(image: &Image, ep: &EventStream) -> u64 {
    let mut fp = TraceFingerprint::new();
    for rec in image.replay(ep).expect("episode must replay cleanly").trace {
        if let Some((op, addr)) = rec.mem {
            fp.push(rec.pc);
            fp.push(matches!(op, MemOp::Write) as u64);
            fp.push(addr);
        }
    }
    fp.finish()
}

/// Every modeled output is blind to some data-address faults (operands
/// resolved against the wrong activation still land on warm lines), so
/// the resolved addresses themselves are pinned: each stack's three
/// episodes on ALL.
#[test]
fn resolved_data_addresses_are_pinned() {
    let want = [
        (StackKind::TcpIp, [0xf75e_2a5f_b4fd_816e, 0xcddc_8358_cfe1_8a15, 0x9a12_3634_1f8c_334d]),
        (StackKind::Rpc, [0x04ac_68e5_46a3_1f1f, 0x596a_f6ee_7878_6fbb, 0xe269_e0bc_7ef2_57fb]),
    ];
    for (stack, digests) in want {
        for_each_cell(stack, &[Version::All], |label, eps, image, _| {
            let got = [&eps.client_out, &eps.client_in, &eps.server_turn].map(|ep| data_digest(image, ep));
            assert_eq!(got, digests, "{label}: client out, client in, server turn");
        });
    }
}
