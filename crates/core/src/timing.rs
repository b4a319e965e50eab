//! The warm-then-measure primitive and end-to-end latency composition.
//!
//! Every modeled processing time and cache statistic comes from one
//! primitive, [`time_host`], the paper's method for Tables 6 and 7: a
//! fresh machine of any configuration replays a warm-up from empty
//! caches (its report is Table 6's cold, trace-driven run), then each
//! measurement window clears the counters, keeping cache contents, and
//! replays its episodes, so steady-state conflict misses (the BAD
//! layout's recurring evictions) are charged and compulsory ones are
//! not.  Replay streams straight into the machine.  A window is one
//! [`Machine::reset_stats`], which also clears the CPU's pending
//! load-use and the stream buffer, so the window shape is part of the
//! measurement: [`time_client`] measures out and in apart; the
//! memory-wall sweep, the throughput guard and the associativity
//! ablation measure out+in as one window.
//!
//! A roundtrip decomposes exactly as on the testbed:
//!
//! ```text
//! e2e = pre-tx(client out) + controller+wire (105 µs)
//!     + pre-tx(server turn) + controller+wire (105 µs)
//!     + client in + untraced interrupt/context-switch constants
//! ```
//!
//! *pre-tx* is the processing up to the instant the frame is handed to
//! the LANCE controller, read off the window's cycle count at the
//! transmit boundary; everything after that (message refresh, ring
//! maintenance, interrupt epilogue) overlaps network I/O — the paper's
//! observation that the §2.2.2 refresh saving does not show up in
//! end-to-end latency.
//!
//! The two hosts are separate machines that share no state, so a timed
//! roundtrip is a client half ([`time_client`], which also returns the
//! client's cold statistics from its warm-up) composed with a server
//! half ([`time_server`]) by [`compose_roundtrip`]; the sweep engine
//! shares one server half among every client timed against it.

use alpha_machine::{reference, BlockShape, InstRecord, Machine, MachineConfig, RunReport};
use kcode::events::EventStream;
use kcode::{FuncId, Image, InstSink};

use crate::harness::RoundtripEpisodes;

/// Untraced per-receive work: interrupt dispatch before the traced
/// handler plus the context switch to the shepherd thread.  The paper's
/// traces "cover all protocol processing code except for the network
/// driver interrupt handling and context switching".
pub const UNTRACED_PER_HOP_US: f64 = 6.0;

/// Extra untraced cost per hop for the RPC stack: the blocking-call
/// semantics force a full thread block + scheduler pass + context
/// switch on the client and a shepherd dispatch on the server, which
/// the tracing could not capture.
pub const RPC_UNTRACED_PER_HOP_US: f64 = 58.0;

/// Controller + wire time per one-way minimum frame (measured 105 µs on
/// the DEC 3000/600's LANCE).
pub const CONTROLLER_WIRE_US: f64 = 105.0;

/// Traced processing that overlaps network I/O, per side, beyond the
/// post-transmit suffix excluded structurally.  The paper's own numbers
/// imply it: client-side Tp is ≈90 µs (STD) while the processing
/// visible in end-to-end latency is (351−210)/2 ≈ 70 µs per side —
/// late-output bookkeeping (retransmit queue, timers, stack unwinding)
/// and DMA-concurrent early-input dispatch hide under the controller's
/// 105 µs.
pub const OVERLAP_PER_SIDE_US: f64 = 13.0;

/// One timed roundtrip.
#[derive(Debug, Clone)]
pub struct RoundtripTiming {
    /// Warm per-episode reports.
    pub client_out: RunReport,
    pub server_turn: RunReport,
    pub client_in: RunReport,
    /// Merged client-side report (out + in): the paper's traced client
    /// processing (Table 7's Tp, length, mCPI, iCPI).
    pub client: RunReport,
    /// Pre-transmit portions, µs.
    pub client_out_pre_us: f64,
    pub server_pre_us: f64,
    /// End-to-end roundtrip latency, µs.
    pub e2e_us: f64,
}

impl RoundtripTiming {
    /// Client-side processing time (the traced code), µs.
    pub fn tp_us(&self) -> f64 {
        self.client.time_us()
    }
}

/// Replay an episode into an instruction trace.
pub fn replay_trace(image: &Image, ep: &EventStream) -> Vec<InstRecord> {
    image.replay(ep).expect("episode must replay cleanly").trace
}

/// The laid-out address ranges of `func`'s non-empty blocks.
pub fn func_ranges(image: &Image, func: FuncId) -> Vec<(u64, u64)> {
    let placement = image.placement(func);
    let fdef = image.program.function(func);
    (0..fdef.blocks.len())
        .filter_map(|i| {
            let a = placement.block_addr[i];
            let l = placement.block_len[i] as u64 * 4;
            (l > 0).then_some((a, a + l))
        })
        .collect()
}

/// Streaming sink that simulates each instruction as it is replayed and
/// snapshots the cycle counter after every instruction belonging to the
/// transmit function.  When replay finishes, the last snapshot is the
/// cycle count at the transmit boundary, without ever materializing the
/// trace [`time_host_materialized`] finds it in.
struct BoundaryMachineSink<'m> {
    m: &'m mut Machine,
    tx_ranges: &'m [(u64, u64)],
    /// Envelope of `tx_ranges`: almost every pc falls outside it, so two
    /// compares reject the common case before the per-range scan.
    env_lo: u64,
    env_hi: u64,
    pre_cycles: Option<u64>,
}

impl<'m> BoundaryMachineSink<'m> {
    fn new(m: &'m mut Machine, tx_ranges: &'m [(u64, u64)]) -> Self {
        let env_lo = tx_ranges.iter().map(|r| r.0).min().unwrap_or(u64::MAX);
        let env_hi = tx_ranges.iter().map(|r| r.1).max().unwrap_or(0);
        BoundaryMachineSink { m, tx_ranges, env_lo, env_hi, pre_cycles: None }
    }
}

impl InstSink for BoundaryMachineSink<'_> {
    #[inline]
    fn emit(&mut self, rec: InstRecord) {
        self.m.step(&rec);
        if rec.pc >= self.env_lo
            && rec.pc < self.env_hi
            && self.tx_ranges.iter().any(|&(a, b)| rec.pc >= a && rec.pc < b)
        {
            self.pre_cycles = Some(self.m.cycles());
        }
    }

    /// A block's pcs are consecutive, so one envelope check rejects the
    /// common case and the block takes the machine's block path; a block
    /// that reaches a transmit range is stepped one record at a time, so
    /// the snapshot lands after its last transmit instruction.
    #[inline]
    fn emit_block(&mut self, shape: BlockShape<'_>, data: &[u64]) {
        let (first, end) = (shape.pc(), shape.pc() + 4 * shape.len() as u64);
        let in_tx = end > self.env_lo
            && first < self.env_hi
            && self.tx_ranges.iter().any(|&(a, b)| a.max(first) < b.min(end));
        if in_tx {
            for rec in shape.records(data) {
                self.emit(rec);
            }
        } else {
            self.m.step_block(shape, data);
        }
    }
}

/// The client half of a timed roundtrip: the out- and in-path reports
/// and the out-path's cycle count at the transmit boundary.
pub type ClientHalf = (RunReport, RunReport, u64);

/// The server half of a timed roundtrip: the server-turn report and its
/// cycle count at the transmit boundary.
pub type ServerHalf = (RunReport, u64);

/// One measurement window of [`time_host`]: the episodes it replays
/// and the transmit address ranges whose boundary it tracks.
pub type Window<'a> = (&'a [&'a EventStream], &'a [(u64, u64)]);

/// Replay one episode into `sink`, returning its instruction count.
fn replay_episode(image: &Image, ep: &EventStream, sink: &mut impl InstSink) -> u64 {
    image.replay_into_lean(ep, sink).expect("episode must replay cleanly")
}

/// Warm-then-measure on a fresh `cfg` machine: stream `warm` through it
/// from empty caches and report that pass (the cold report), then for
/// each window clear the counters, stream the window's episodes and
/// report them.  Each window also returns its cycle count just after
/// the last instruction inside its transmit ranges, or its total cycles
/// when none runs (so empty ranges give the total).
pub fn time_host<const N: usize>(
    cfg: &MachineConfig,
    image: &Image,
    warm: &[&EventStream],
    windows: [Window<'_>; N],
) -> (RunReport, [(RunReport, u64); N]) {
    let mut m = Machine::new(*cfg);
    let instructions = warm.iter().map(|ep| replay_episode(image, ep, &mut m)).sum();
    let cold = m.report(instructions);
    let measured = windows.map(|(episodes, tx_ranges)| {
        m.reset_stats();
        let mut sink = BoundaryMachineSink::new(&mut m, tx_ranges);
        let instructions = episodes.iter().map(|ep| replay_episode(image, ep, &mut sink)).sum();
        let pre_cycles = sink.pre_cycles.unwrap_or_else(|| m.cycles());
        (m.report(instructions), pre_cycles)
    });
    (cold, measured)
}

/// A machine [`time_host_materialized`] steps one record at a time:
/// [`Machine`] or the seed [`reference::Machine`].
pub trait PerRecordMachine {
    fn new(cfg: MachineConfig) -> Self;
    fn run_accumulate(&mut self, trace: &[InstRecord]);
    fn reset_stats(&mut self);
    /// Cycles so far: issue cycles plus memory stalls.
    fn cycles(&self) -> u64;
    fn report(&self, instructions: u64) -> RunReport;
}

macro_rules! per_record_machine {
    ($($m:ty),*) => {$(
        impl PerRecordMachine for $m {
            fn new(cfg: MachineConfig) -> Self { <$m>::new(cfg) }
            fn run_accumulate(&mut self, trace: &[InstRecord]) { <$m>::run_accumulate(self, trace) }
            fn reset_stats(&mut self) { <$m>::reset_stats(self) }
            fn cycles(&self) -> u64 { self.cpu.cycles() + self.mem.stall_cycles() }
            fn report(&self, instructions: u64) -> RunReport { <$m>::report(self, instructions) }
        }
    )*};
}
per_record_machine!(Machine, reference::Machine);

/// [`time_host`]'s per-record twin, the paper's trace-driven method:
/// same arguments, same result.  Each distinct episode (by
/// address) is replayed into a trace once, so a window that re-measures
/// a warm-up episode reuses its trace; the traces are then stepped one
/// record at a time through a fresh `M`, the same passes and windows.
pub fn time_host_materialized<M: PerRecordMachine, const N: usize>(
    cfg: &MachineConfig,
    image: &Image,
    warm: &[&EventStream],
    windows: [Window<'_>; N],
) -> (RunReport, [(RunReport, u64); N]) {
    let mut traces: Vec<(&EventStream, Vec<InstRecord>)> = Vec::new();
    for &ep in warm.iter().chain(windows.iter().flat_map(|w| w.0)) {
        if !traces.iter().any(|t| std::ptr::eq(t.0, ep)) {
            traces.push((ep, replay_trace(image, ep)));
        }
    }
    // Step `episodes`, returning their instruction count and boundary cycles.
    let step = |m: &mut M, episodes: &[&EventStream], tx_ranges: &[(u64, u64)]| {
        let (mut instructions, mut pre_cycles) = (0, None);
        for &ep in episodes {
            let t = &traces.iter().find(|t| std::ptr::eq(t.0, ep)).expect("replayed above").1;
            let in_tx = |r: &InstRecord| tx_ranges.iter().any(|&(a, b)| (a..b).contains(&r.pc));
            let split = t.iter().rposition(in_tx).map_or(0, |i| i + 1);
            m.run_accumulate(&t[..split]);
            pre_cycles = (split > 0).then(|| m.cycles()).or(pre_cycles);
            m.run_accumulate(&t[split..]);
            instructions += t.len() as u64;
        }
        (instructions, pre_cycles.unwrap_or_else(|| m.cycles()))
    };
    let mut m = M::new(*cfg);
    let (instructions, _) = step(&mut m, warm, &[]);
    let cold = m.report(instructions);
    let measured = windows.map(|(episodes, tx_ranges)| {
        m.reset_stats();
        let (instructions, pre_cycles) = step(&mut m, episodes, tx_ranges);
        (m.report(instructions), pre_cycles)
    });
    (cold, measured)
}

/// The client half: `client_out` then `client_in` against `image`,
/// plus the client's cold statistics (the report of the timing's
/// warm-up pass, equal to [`cold_client_stats`]).
pub fn time_client(
    image: &Image,
    client_out: &EventStream,
    client_in: &EventStream,
    f_tx: FuncId,
) -> (ClientHalf, RunReport) {
    // The client-in episode's pre-transmit time is unused, so it tracks
    // no transmit ranges.
    let tx_ranges = func_ranges(image, f_tx);
    let (cold, [(out, out_pre_cycles), (inn, _)]) = time_host(
        &MachineConfig::dec3000_600(),
        image,
        &[client_out, client_in],
        [(&[client_out], &tx_ranges), (&[client_in], &[])],
    );
    ((out, inn, out_pre_cycles), cold)
}

/// The server half: `server_turn` against `image`.
pub fn time_server(image: &Image, server_turn: &EventStream, f_tx: FuncId) -> ServerHalf {
    let (turn, tx_ranges) = ([server_turn], func_ranges(image, f_tx));
    let (_, [half]) = time_host(&MachineConfig::dec3000_600(), image, &turn, [(&turn, &tx_ranges)]);
    half
}

/// Time one roundtrip: client episodes against `client_image`, server
/// turn against `server_image` (normally the same version for TCP/IP;
/// always ALL for the RPC server per the paper's methodology).
pub fn time_roundtrip(
    episodes: &RoundtripEpisodes,
    client_image: &Image,
    server_image: &Image,
    f_tx: FuncId,
) -> RoundtripTiming {
    time_roundtrip_with(episodes, client_image, server_image, f_tx, UNTRACED_PER_HOP_US)
}

/// [`time_roundtrip`] with an explicit untraced-per-hop constant (the
/// RPC stack uses [`RPC_UNTRACED_PER_HOP_US`]).
pub fn time_roundtrip_with(
    episodes: &RoundtripEpisodes,
    client_image: &Image,
    server_image: &Image,
    f_tx: FuncId,
    untraced_us: f64,
) -> RoundtripTiming {
    let (client, _) = time_client(client_image, &episodes.client_out, &episodes.client_in, f_tx);
    let server = time_server(server_image, &episodes.server_turn, f_tx);
    compose_roundtrip(client, server, untraced_us)
}

/// [`time_roundtrip_with`] through [`time_host_materialized`] (each
/// episode replayed once, its trace stepped twice): the sweep engine's
/// reference and the `pipeline` bench suite's materialized stage.
pub fn time_roundtrip_materialized(
    episodes: &RoundtripEpisodes,
    client_image: &Image,
    server_image: &Image,
    f_tx: FuncId,
    untraced_us: f64,
) -> RoundtripTiming {
    let cfg = MachineConfig::dec3000_600();
    let client = [&episodes.client_out, &episodes.client_in];
    let tx_ranges = func_ranges(client_image, f_tx);
    let windows = [(&client[..1], &tx_ranges[..]), (&client[1..], &[][..])];
    let (_, [(out, out_pre_cycles), (inn, _)]) =
        time_host_materialized::<Machine, 2>(&cfg, client_image, &client, windows);
    let (turn, tx_ranges) = ([&episodes.server_turn], func_ranges(server_image, f_tx));
    let (_, [server]) =
        time_host_materialized::<Machine, 1>(&cfg, server_image, &turn, [(&turn, &tx_ranges)]);
    compose_roundtrip((out, inn, out_pre_cycles), server, untraced_us)
}

/// Assemble the end-to-end latency from a client half and a server half
/// (shared by the fused path, the sweep engine's memoized halves and the
/// materialized path, so the composition arithmetic cannot drift).
pub fn compose_roundtrip(
    (client_out, client_in, out_pre_cycles): ClientHalf,
    (server_turn, server_pre_cycles): ServerHalf,
    untraced_us: f64,
) -> RoundtripTiming {
    assert_eq!(
        server_turn.clock_mhz, client_out.clock_mhz,
        "client and server halves timed at different clocks"
    );
    let clock = client_out.clock_mhz as f64;
    let mut client = client_out;
    client.merge(&client_in);

    let client_out_pre_us = out_pre_cycles as f64 / clock;
    let server_pre_us = server_pre_cycles as f64 / clock;
    let e2e_us = (client_out_pre_us - OVERLAP_PER_SIDE_US).max(0.0)
        + CONTROLLER_WIRE_US
        + untraced_us
        + (server_pre_us - OVERLAP_PER_SIDE_US).max(0.0)
        + CONTROLLER_WIRE_US
        + untraced_us
        + client_in.time_us();

    RoundtripTiming {
        client_out,
        server_turn,
        client_in,
        client,
        client_out_pre_us,
        server_pre_us,
        e2e_us,
    }
}

/// Cold, trace-driven client-side cache statistics — the methodology of
/// the paper's Table 6 (one traced roundtrip through a cache simulator
/// with empty caches): the warm-up pass of [`time_client`] alone.
pub fn cold_client_stats(episodes: &RoundtripEpisodes, image: &Image) -> RunReport {
    let warm = [&episodes.client_out, &episodes.client_in];
    time_host(&MachineConfig::dec3000_600(), image, &warm, []).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Version;
    use crate::harness::ping_pong;
    use crate::world::{TcpIp, World};
    use protocols::StackOptions;
    use kcode::Ev;

    fn setup() -> (crate::harness::Run<TcpIp>, Vec<Ev>) {
        let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
        let flow = run.episodes.client_flow();
        (run, flow)
    }

    #[test]
    fn std_roundtrip_times_in_paper_range() {
        let (run, flow) = setup();
        let img = Version::Std.build(&run.world, &flow);
        let t = time_roundtrip(
            &run.episodes,
            &img,
            &img,
            run.world.lance_model.f_tx,
        );
        // Paper: STD TCP/IP is 351 µs end-to-end, Tp ≈ 90 µs.  Accept a
        // generous band — exact calibration is checked by EXPERIMENTS.md.
        assert!(
            (320.0..420.0).contains(&t.e2e_us),
            "STD e2e {:.1} µs out of range",
            t.e2e_us
        );
        assert!((60.0..110.0).contains(&t.tp_us()), "Tp {:.1}", t.tp_us());
        assert!(t.client.mcpi() > 1.0, "memory must matter");
    }

    #[test]
    fn bad_is_slower_than_all() {
        let (run, flow) = setup();
        let f_tx = run.world.lance_model.f_tx;
        let bad = Version::Bad.build(&run.world, &flow);
        let all = Version::All.build(&run.world, &flow);
        let t_bad = time_roundtrip(&run.episodes, &bad, &bad, f_tx);
        let t_all = time_roundtrip(&run.episodes, &all, &all, f_tx);
        assert!(
            t_bad.e2e_us > t_all.e2e_us + 30.0,
            "BAD {:.1} must be well above ALL {:.1}",
            t_bad.e2e_us,
            t_all.e2e_us
        );
        assert!(t_bad.client.mcpi() > 2.0 * t_all.client.mcpi());
    }

    #[test]
    fn version_ordering_matches_paper() {
        let (run, flow) = setup();
        let f_tx = run.world.lance_model.f_tx;
        let mut last = f64::INFINITY;
        for v in Version::all() {
            let img = v.build(&run.world, &flow);
            let t = time_roundtrip(&run.episodes, &img, &img, f_tx);
            // Near-monotone: PIN/CLO and ALL/PIN may swap by a couple of
            // microseconds (the paper itself calls some of these gaps
            // "meager" and within measurement uncertainty).
            assert!(
                t.e2e_us < last + 2.5,
                "{} at {:.1} µs breaks ordering (prev {:.1})",
                v.name(),
                t.e2e_us,
                last
            );
            last = t.e2e_us;
        }
    }

    #[test]
    fn cold_stats_have_paper_shape() {
        let (run, flow) = setup();
        let img = Version::Std.build(&run.world, &flow);
        let r = cold_client_stats(&run.episodes, &img);
        // i-cache accesses = dynamic instructions.
        assert_eq!(r.icache.accesses, r.instructions);
        // The paper's STD client trace is 4750 instructions; ours must
        // land nearby.
        assert!(
            (4200..5600).contains(&r.instructions),
            "trace length {}",
            r.instructions
        );
        // d-cache accesses are a substantial fraction of instructions.
        let dfrac = r.dcache.accesses as f64 / r.instructions as f64;
        assert!((0.15..0.6).contains(&dfrac), "d-access fraction {dfrac:.2}");
    }

    /// 24 records at consecutive pcs from 0x1000: loads and stores
    /// among ALU work.
    fn straight_records() -> Vec<InstRecord> {
        (0..24u64)
            .map(|i| match i % 5 {
                2 => InstRecord::load(0x1000 + 4 * i, 0x8000 + 64 * i),
                4 => InstRecord::store(0x1000 + 4 * i, 0x9000 + 64 * i),
                _ => InstRecord::alu(0x1000 + 4 * i),
            })
            .collect()
    }

    /// Emit `recs` (consecutive pcs) into `sink` as one block.
    fn emit_as_block(sink: &mut BoundaryMachineSink<'_>, recs: &[InstRecord]) {
        let mut table = alpha_machine::ShapeTable::default();
        let id = table.push(recs[0].pc, recs.iter().map(|r| r.class));
        let shape = table.get(id);
        let data: Vec<u64> = recs.iter().filter_map(|r| r.mem.map(|(_, a)| a)).collect();
        sink.emit_block(shape, &data);
    }

    #[test]
    fn boundary_sink_splits_runs_after_the_last_transmit_instruction() {
        // Blocks that end inside, straddle, start inside and miss the
        // transmit range must snapshot the same cycle count as the same
        // records emitted one at a time.
        let recs = straight_records();
        for tx in [(0x1010, 0x1020), (0x0f00, 0x1004), (0x105c, 0x2000), (0x2000, 0x2100)] {
            let tx = [tx];
            let (mut a, mut b) = (Machine::dec3000_600(), Machine::dec3000_600());
            let mut blocks = BoundaryMachineSink::new(&mut a, &tx);
            emit_as_block(&mut blocks, &recs[..7]);
            emit_as_block(&mut blocks, &recs[7..]);
            let mut each = BoundaryMachineSink::new(&mut b, &tx);
            for &r in &recs {
                each.emit(r);
            }
            assert_eq!(blocks.pre_cycles, each.pre_cycles, "tx {tx:?}");
            assert_eq!(a.report(24), b.report(24), "tx {tx:?}");
        }
    }

    #[test]
    fn last_transmit_instruction_mid_block_snapshots_there() {
        // Two transmit ranges, the later one ending at record 13 of a
        // 24-record block: the snapshot is the cycle count just after
        // record 13, not at the block's end, and the block still ends
        // where the record-by-record walk does.
        let recs = straight_records();
        let tx = [(0x1008, 0x1010), (0x1020, 0x1038)];
        let mut m = Machine::dec3000_600();
        let mut sink = BoundaryMachineSink::new(&mut m, &tx);
        emit_as_block(&mut sink, &recs);
        let pre = sink.pre_cycles.expect("the block transmits");
        let mut each = Machine::dec3000_600();
        each.run_accumulate(&recs[..14]);
        assert_eq!(pre, each.cycles(), "snapshot after the last transmit instruction");
        each.run_accumulate(&recs[14..]);
        assert!(pre < each.cycles(), "the block runs on past the snapshot");
        assert_eq!(m.report(24), each.report(24));
    }

    #[test]
    fn compose_converts_cycles_at_the_halves_clock() {
        let (run, flow) = setup();
        let img = Version::Std.build(&run.world, &flow);
        let (eps, cfg) = (&run.episodes, crate::experiments::future::lowcost_266());
        let tx_ranges = func_ranges(&img, run.world.lance_model.f_tx);
        let (out, inn) = (&eps.client_out, &eps.client_in);
        let (_, [(out, out_pre), (inn, _)]) =
            time_host(&cfg, &img, &[out, inn], [(&[out], &tx_ranges), (&[inn], &[])]);
        let server = &eps.server_turn;
        let (_, [(server, server_pre)]) =
            time_host(&cfg, &img, &[server], [(&[server], &tx_ranges)]);
        let t = compose_roundtrip((out, inn, out_pre), (server, server_pre), UNTRACED_PER_HOP_US);
        assert_eq!(t.client_out_pre_us.to_bits(), (out_pre as f64 / 266.0).to_bits());
        assert_eq!(t.server_pre_us.to_bits(), (server_pre as f64 / 266.0).to_bits());
    }

    #[test]
    #[should_panic(expected = "different clocks")]
    fn compose_rejects_halves_from_different_clocks() {
        let dec = Machine::dec3000_600().report(0);
        let low = Machine::new(crate::experiments::future::lowcost_266()).report(0);
        compose_roundtrip((low, low, 0), (dec, 0), UNTRACED_PER_HOP_US);
    }

    #[test]
    fn boundary_splits_at_transmit() {
        let (run, flow) = setup();
        let img = Version::Std.build(&run.world, &flow);
        let trace = replay_trace(&img, &run.episodes.client_out);
        let tx = func_ranges(&img, run.world.lance_model.f_tx);
        let in_tx = |r: &InstRecord| tx.iter().any(|&(a, e)| (a..e).contains(&r.pc));
        let b = trace.iter().rposition(in_tx).expect("the out path transmits") + 1;
        assert!(b > trace.len() / 3, "transmit near the end of the out path");
        assert!(b <= trace.len());
    }
}
