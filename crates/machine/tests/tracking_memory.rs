//! Regression: miss-taxonomy tracking memory is bounded by the image
//! footprint, not by how many runs or windows a sweep replays.
//!
//! The seed kept lifetime "ever seen" membership in a `HashSet<u64>`
//! per cache; across long sweeps those sets (and their rehashing) grew
//! with accumulated references.  `BlockSet` keeps two 64-byte bitmaps
//! (window and lifetime) per chunk of 512 blocks (16 KB of address
//! space at 32-byte blocks), created on first touch and never again —
//! `MemorySystem::tracking_bytes()` must be flat once the footprint has
//! been touched, no matter how many warm windows follow, and small on a
//! fresh machine, which zeroes every chunk it touches.

use alpha_machine::inst::InstRecord;
use alpha_machine::Machine;
use protocols::StackOptions;
use protolat_core::config::Version;
use protolat_core::harness::ping_pong;
use protolat_core::world::{TcpIp, World};

/// A trace shaped like one protocol episode: code walk plus data/stack
/// traffic, the same regions every run (a sweep replays one image).
fn episode(seq: u64) -> Vec<InstRecord> {
    let code = 0x0010_0000u64;
    let data = 0x0800_0000u64;
    let stack = 0x0C00_0000u64;
    let mut out = Vec::new();
    for f in 0..24u64 {
        let base = code + f * 0x980; // ~2.4 KB functions, i-cache overlap
        out.push(InstRecord::call(base));
        for i in 0..40 {
            let pc = base + 4 + i * 4;
            match i % 10 {
                3 => out.push(InstRecord::load(pc, data + ((seq + f * 7 + i) % 512) * 8)),
                6 => out.push(InstRecord::store(pc, stack - ((f + i) % 128) * 8)),
                9 => out.push(InstRecord::branch_taken(pc)),
                _ => out.push(InstRecord::alu(pc)),
            }
        }
        out.push(InstRecord::ret(base + 4 + 40 * 4));
    }
    out
}

#[test]
fn long_sweep_does_not_grow_tracking_memory() {
    let mut m = Machine::dec3000_600();
    // Touch the full footprint once (cold run allocates the chunks).
    m.run(&episode(0));
    let settled = m.mem.tracking_bytes();
    assert!(settled > 0, "tracking storage should exist after a run");

    // A long sweep: many measurement windows over the same image, with
    // periodic cold restarts (exactly what SweepEngine does per config).
    for round in 0..400u64 {
        if round % 50 == 0 {
            m.reset();
        }
        m.run(&episode(round));
        assert_eq!(
            m.mem.tracking_bytes(),
            settled,
            "tracking memory grew at round {round}"
        );
    }
}

#[test]
fn cold_bad_roundtrip_tracks_a_small_footprint() {
    // The pessimal layout scatters the path over the code segment, so
    // a fresh machine's first BAD client roundtrip touches more chunks
    // than the other versions' (TCP/IP: about 10 KB).  With a `u32`
    // window stamp per block it held 119 KB, and 814 KB with
    // 4096-block chunks as well.
    let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
    let img = Version::Bad.build(&run.world, &run.episodes.client_flow());
    let mut m = Machine::dec3000_600();
    for ep in [&run.episodes.client_out, &run.episodes.client_in] {
        img.replay_into_lean(ep, &mut m)
            .expect("episode must replay cleanly");
    }
    let bytes = m.mem.tracking_bytes();
    assert!(
        bytes <= 16 * 1024,
        "a cold BAD roundtrip tracks {bytes} bytes"
    );
}
