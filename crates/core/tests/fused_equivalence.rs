//! Acceptance suite: the fused replay→simulate path every timing takes
//! reproduces the materialized path bit for bit on the paper's real
//! workloads.
//!
//! `time_client` and `time_server` stream each episode's replay straight
//! into a fresh machine — body runs through `InstSink::emit_run`, the
//! transmit boundary through `BoundaryMachineSink` — and never build a
//! trace.  Here every one of the 12 cells (both stacks × six versions)
//! replays each episode into a vector instead and runs it one record at
//! a time through both `Machine` and the seed `reference::Machine`,
//! with the same warm-up, window resets and transmit boundary.  The
//! cold report (Table 6), each warm report (Table 7) and each boundary
//! cycle count must agree across all three.
//!
//! `time_host` on other machines is checked in the one-window out+in
//! shape of the memory-wall sweep and the associativity ablation: the
//! 266 MHz low-cost machine and a 2-way LRU i-cache, on STD, BAD and
//! ALL of both stacks.

use alpha_machine::config::CacheConfig;
use alpha_machine::{reference, InstRecord, Machine, MachineConfig, RunReport};
use kcode::{FuncId, Image};
use protocols::StackOptions;
use protolat_core::config::Version;
use protolat_core::harness::{ping_pong, RoundtripEpisodes};
use protolat_core::experiments::future::lowcost_266;
use protolat_core::timing::{
    boundary_after_last, replay_trace, time_client, time_host, time_server,
};
use protolat_core::world::{Rpc, TcpIp, World};

/// The per-record machines the fused path must match.
trait Stepper {
    fn accumulate(&mut self, trace: &[InstRecord]);
    fn reset_window(&mut self);
    fn cycles(&self) -> u64;
    fn report_of(&self, instructions: u64) -> RunReport;
}

impl Stepper for Machine {
    fn accumulate(&mut self, trace: &[InstRecord]) {
        self.run_accumulate(trace);
    }
    fn reset_window(&mut self) {
        self.reset_stats();
    }
    fn cycles(&self) -> u64 {
        self.cpu.cycles() + self.mem.stall_cycles()
    }
    fn report_of(&self, instructions: u64) -> RunReport {
        self.report(instructions)
    }
}

impl Stepper for reference::Machine {
    fn accumulate(&mut self, trace: &[InstRecord]) {
        self.run_accumulate(trace);
    }
    fn reset_window(&mut self) {
        self.reset_stats();
    }
    fn cycles(&self) -> u64 {
        self.cpu.cycles() + self.mem.stall_cycles()
    }
    fn report_of(&self, instructions: u64) -> RunReport {
        self.report(instructions)
    }
}

/// One host timed the materialized way: a cold pass over every episode,
/// then each episode measured warm with its transmit boundary.  Returns
/// the cold report and each episode's (warm report, boundary cycles).
fn time_host_materialized<M: Stepper>(
    m: &mut M,
    traces: &[(Vec<InstRecord>, usize)],
) -> (RunReport, Vec<(RunReport, u64)>) {
    for (t, _) in traces {
        m.accumulate(t);
    }
    let cold = m.report_of(traces.iter().map(|(t, _)| t.len() as u64).sum());
    let warm = traces
        .iter()
        .map(|(t, boundary)| {
            m.reset_window();
            m.accumulate(&t[..*boundary]);
            let pre = m.cycles();
            m.accumulate(&t[*boundary..]);
            (m.report_of(t.len() as u64), pre)
        })
        .collect();
    (cold, warm)
}

fn assert_cell_matches(label: &str, episodes: &RoundtripEpisodes, image: &Image, f_tx: FuncId) {
    let traced = |ep, tracks_tx: bool| {
        let t = replay_trace(image, ep);
        let b = if tracks_tx {
            boundary_after_last(&t, image, f_tx)
        } else {
            t.len()
        };
        (t, b)
    };
    let client = [
        traced(&episodes.client_out, true),
        traced(&episodes.client_in, false),
    ];
    let server = [traced(&episodes.server_turn, true)];

    let ((out, inn, out_pre), cold) =
        time_client(image, &episodes.client_out, &episodes.client_in, f_tx);
    let (server_turn, server_pre) = time_server(image, &episodes.server_turn, f_tx);
    let fused_client = [(out, out_pre), (inn, 0)];
    let fused_server = vec![(server_turn, server_pre)];

    let check = |model: &str,
                 (c_cold, c_warm): (RunReport, Vec<(RunReport, u64)>),
                 s_warm: Vec<(RunReport, u64)>| {
        assert_eq!(cold, c_cold, "{label} vs {model}: cold client report");
        assert_eq!(
            fused_client[0], c_warm[0],
            "{label} vs {model}: client out (report, boundary)"
        );
        // The client-in episode's boundary is unused and untracked.
        assert_eq!(
            fused_client[1].0, c_warm[1].0,
            "{label} vs {model}: client in"
        );
        assert_eq!(
            fused_server, s_warm,
            "{label} vs {model}: server turn (report, boundary)"
        );
    };
    check(
        "Machine",
        time_host_materialized(&mut Machine::dec3000_600(), &client),
        time_host_materialized(&mut Machine::dec3000_600(), &server).1,
    );
    check(
        "reference",
        time_host_materialized(&mut reference::Machine::dec3000_600(), &client),
        time_host_materialized(&mut reference::Machine::dec3000_600(), &server).1,
    );
}

#[test]
fn tcpip_fused_timings_match_materialized_and_reference() {
    let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
    let canonical = run.episodes.client_trace();
    for v in Version::all() {
        let img = v.build(&run.world, &canonical);
        let label = format!("tcpip/{}", v.name());
        assert_cell_matches(&label, &run.episodes, &img, run.world.lance_model.f_tx);
    }
}

#[test]
fn rpc_fused_timings_match_materialized_and_reference() {
    let run = ping_pong(World::<Rpc>::build(StackOptions::improved()), 2);
    let canonical = run.episodes.client_trace();
    for v in Version::all() {
        let img = v.build(&run.world, &canonical);
        let label = format!("rpc/{}", v.name());
        assert_cell_matches(&label, &run.episodes, &img, run.world.lance_model.f_tx);
    }
}

/// `time_host` with the client's out+in as one warm window on each
/// non-default machine, against the concatenated trace stepped one
/// record at a time through `Machine` and `reference::Machine`.
fn assert_one_window_matches(label: &str, episodes: &RoundtripEpisodes, image: &Image) {
    let mut trace = replay_trace(image, &episodes.client_out);
    trace.extend(replay_trace(image, &episodes.client_in));
    // No transmit ranges: the window's boundary is its end.
    let boundary = trace.len();
    let traces = [(trace, boundary)];
    let mut two_way = MachineConfig::dec3000_600();
    two_way.mem.icache = CacheConfig::set_associative(8 * 1024, 32, 2);
    let client = [&episodes.client_out, &episodes.client_in];
    for (machine, cfg) in [("low-cost 266 MHz", lowcost_266()), ("2-way i-cache", two_way)] {
        let (cold, [warm]) = time_host(&cfg, image, &client, [(&client, &[])]);
        let fused = (cold, vec![warm]);
        assert_eq!(
            fused,
            time_host_materialized(&mut Machine::new(cfg), &traces),
            "{label} on {machine} vs Machine"
        );
        assert_eq!(
            fused,
            time_host_materialized(&mut reference::Machine::new(cfg), &traces),
            "{label} on {machine} vs reference"
        );
    }
}

#[test]
fn tcpip_one_window_timings_match_on_other_machines() {
    let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
    let canonical = run.episodes.client_trace();
    for v in [Version::Std, Version::Bad, Version::All] {
        let img = v.build(&run.world, &canonical);
        assert_one_window_matches(&format!("tcpip/{}", v.name()), &run.episodes, &img);
    }
}

#[test]
fn rpc_one_window_timings_match_on_other_machines() {
    let run = ping_pong(World::<Rpc>::build(StackOptions::improved()), 2);
    let canonical = run.episodes.client_trace();
    for v in [Version::Std, Version::Bad, Version::All] {
        let img = v.build(&run.world, &canonical);
        assert_one_window_matches(&format!("rpc/{}", v.name()), &run.episodes, &img);
    }
}
