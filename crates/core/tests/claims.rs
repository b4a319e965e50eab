//! EXPERIMENTS.md's claims as tier-1 tests: one test per check, named
//! after its row, with the bound the row states.

use alpha_machine::{InstRecord, Machine, MachineConfig};
use protocols::StackOptions;
use protolat_core::config::Version;
use protolat_core::harness::run_tcpip;
use protolat_core::timing::replay_trace;
use protolat_core::world::TcpIpWorld;

/// Client instructions per TCP/IP STD roundtrip (out + in).
fn roundtrip_insts(header_prediction: bool) -> usize {
    let opts = StackOptions {
        header_prediction,
        ..StackOptions::improved()
    };
    let run = run_tcpip(TcpIpWorld::build(opts), 2);
    let img = Version::Std.build_tcpip(&run.world, &run.episodes.client_trace());
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
