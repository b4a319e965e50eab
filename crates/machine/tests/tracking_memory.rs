//! Regression: miss-taxonomy tracking memory is bounded by the image
//! footprint, not by how many runs or windows a sweep replays.
//!
//! The seed kept lifetime "ever seen" membership in a `HashSet<u64>`
//! per cache; across long sweeps those sets (and their rehashing) grew
//! with accumulated references.  The chunked epoch-stamped `BlockSet`
//! allocates per chunk of 4096 blocks (128 KB of address space at
//! 32-byte blocks) on first touch and never again —
//! `MemorySystem::tracking_bytes()` must be flat once the footprint has
//! been touched, no matter how many warm windows follow.

use alpha_machine::inst::InstRecord;
use alpha_machine::Machine;

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
