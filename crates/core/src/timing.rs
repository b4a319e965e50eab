//! Episode replay and end-to-end latency composition.
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
//! the LANCE controller; everything after that (message refresh, ring
//! maintenance, interrupt epilogue) overlaps network I/O — the paper's
//! observation that the §2.2.2 refresh saving does not show up in
//! end-to-end latency.
//!
//! Timing runs are *warm*: each host's fresh machine replays the
//! roundtrip twice and the second pass is measured, so steady-state
//! conflict misses (the BAD layout's recurring evictions) are charged
//! while compulsory first-run misses are not.  The first pass runs the
//! full machine from empty caches, which is exactly the paper's cold,
//! trace-driven run of Table 6, so [`time_client`] returns its report
//! as the client's cold statistics and the sweep engine never replays a
//! cell a third time for them.
//!
//! The two hosts are separate machines that share no state, so a timed
//! roundtrip is a client half ([`time_client`]) composed with a server
//! half ([`time_server`]) by [`compose_roundtrip`]; the sweep engine
//! shares one server half among every client timed against it.

use alpha_machine::{InstRecord, Machine, RunReport};
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

/// Index just past the last instruction belonging to `func` in `trace`
/// (the transmit boundary when `func` is the driver's transmit
/// function).  Returns `trace.len()` if the function never appears.
pub fn boundary_after_last(trace: &[InstRecord], image: &Image, func: FuncId) -> usize {
    let placement = image.placement(func);
    let fdef = image.program.function(func);
    let in_func = |pc: u64| -> bool {
        (0..fdef.blocks.len()).any(|i| {
            let a = placement.block_addr[i];
            let l = placement.block_len[i] as u64 * 4;
            pc >= a && pc < a + l
        })
    };
    match trace.iter().rposition(|r| in_func(r.pc)) {
        Some(i) => i + 1,
        None => trace.len(),
    }
}

/// Run `trace` on a machine and report, also returning the cycle count
/// at `boundary`.
fn run_with_boundary(m: &mut Machine, trace: &[InstRecord], boundary: usize) -> (RunReport, u64) {
    m.reset_stats();
    let b = boundary.min(trace.len());
    m.run_accumulate(&trace[..b]);
    let pre_cycles = m.cpu.cycles() + m.mem.stall_cycles();
    m.run_accumulate(&trace[b..]);
    (m.report(trace.len() as u64), pre_cycles)
}

/// The laid-out address ranges of `func`'s blocks — the streaming
/// equivalent of [`boundary_after_last`]'s membership test.
pub(crate) fn func_ranges(image: &Image, func: FuncId) -> Vec<(u64, u64)> {
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
/// cycle count at [`boundary_after_last`] — without ever materializing
/// the trace that function indexes into.
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

    /// Snapshot the cycle counter: the boundary is after the
    /// instruction just simulated.
    fn snapshot(&mut self) {
        self.pre_cycles = Some(self.m.cpu.cycles() + self.m.mem.stall_cycles());
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
            self.snapshot();
        }
    }

    /// A run's pcs are consecutive, so one envelope check rejects the
    /// common case; a run that reaches a transmit range is split after
    /// its last instruction inside one, where the snapshot is taken.
    #[inline]
    fn emit_run(&mut self, run: &[InstRecord]) {
        let (Some(first), Some(last)) = (run.first(), run.last()) else {
            return;
        };
        if last.pc < self.env_lo || first.pc >= self.env_hi {
            self.m.step_run(run);
            return;
        }
        // The last pc of the run inside any range: each range clips
        // the run to [max(a, first), min(b, last + 4)).
        let last_tx = self
            .tx_ranges
            .iter()
            .filter(|&&(a, b)| a.max(first.pc) < b.min(last.pc + 4))
            .map(|&(_, b)| b.min(last.pc + 4) - 4)
            .max();
        match last_tx {
            Some(pc) => {
                let split = ((pc - first.pc) / 4 + 1) as usize;
                self.m.step_run(&run[..split]);
                self.snapshot();
                self.m.step_run(&run[split..]);
            }
            None => self.m.step_run(run),
        }
    }
}

/// Measured streaming pass over one episode: reset counters, fuse
/// replay into the machine, report.  Returns the report and the cycle
/// count at the transmit boundary (total cycles when the transmit
/// function never appears, matching `boundary = trace.len()`).
fn measured_episode(
    image: &Image,
    ep: &EventStream,
    m: &mut Machine,
    tx_ranges: &[(u64, u64)],
) -> (RunReport, u64) {
    m.reset_stats();
    let mut sink = BoundaryMachineSink::new(m, tx_ranges);
    let instructions = image
        .replay_into_lean(ep, &mut sink)
        .expect("episode must replay cleanly");
    let pre_cycles = sink.pre_cycles;
    let pre_cycles = pre_cycles.unwrap_or_else(|| m.cpu.cycles() + m.mem.stall_cycles());
    (m.report(instructions), pre_cycles)
}

/// The client half of a timed roundtrip: the out- and in-path reports
/// and the out-path's cycle count at the transmit boundary.
pub type ClientHalf = (RunReport, RunReport, u64);

/// The server half of a timed roundtrip: the server-turn report and its
/// cycle count at the transmit boundary.
pub type ServerHalf = (RunReport, u64);

/// Stream `episodes` through `m` in order and report the whole pass.
/// On a fresh machine this is the cold run: the warm-up pass of a
/// timing and the cold statistics of Table 6 in one.
fn cold_pass<'e>(
    image: &Image,
    m: &mut Machine,
    episodes: impl IntoIterator<Item = &'e EventStream>,
) -> RunReport {
    let instructions = episodes
        .into_iter()
        .map(|ep| image.replay_into_lean(ep, m).expect("episode must replay cleanly"))
        .sum();
    m.report(instructions)
}

/// Time one host's episodes warm on its own fresh machine: run them all
/// once cold, then measure each in turn, tracking the transmit boundary
/// over the address ranges paired with each episode.  Returns the cold
/// pass's report beside the measured halves.
fn time_host<const N: usize>(
    image: &Image,
    episodes: [(&EventStream, &[(u64, u64)]); N],
) -> (RunReport, [(RunReport, u64); N]) {
    let mut m = Machine::dec3000_600();
    let cold = cold_pass(image, &mut m, episodes.map(|(ep, _)| ep));
    let warm = episodes.map(|(ep, tx_ranges)| measured_episode(image, ep, &mut m, tx_ranges));
    (cold, warm)
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
    let (cold, [(out, out_pre_cycles), (inn, _)]) =
        time_host(image, [(client_out, &tx_ranges), (client_in, &[])]);
    ((out, inn, out_pre_cycles), cold)
}

/// The server half: `server_turn` against `image`.
pub fn time_server(image: &Image, server_turn: &EventStream, f_tx: FuncId) -> ServerHalf {
    let tx_ranges = func_ranges(image, f_tx);
    let (_, [half]) = time_host(image, [(server_turn, &tx_ranges)]);
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
///
/// Fused streaming implementation: both the warm-up and the measured
/// pass feed the replay's instruction stream straight into the
/// machine models — no trace vector is ever allocated.  Produces
/// bit-identical results to [`time_roundtrip_materialized`] (asserted
/// by the `fused_matches_materialized` test).
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

/// Reference implementation of [`time_roundtrip_with`] over
/// materialized trace vectors — the pre-fusion pipeline, kept for the
/// streaming-equivalence test and the bench harness's stage-cost
/// comparison.
pub fn time_roundtrip_materialized(
    episodes: &RoundtripEpisodes,
    client_image: &Image,
    server_image: &Image,
    f_tx: FuncId,
    untraced_us: f64,
) -> RoundtripTiming {
    let out_trace = replay_trace(client_image, &episodes.client_out);
    let in_trace = replay_trace(client_image, &episodes.client_in);
    let server_trace = replay_trace(server_image, &episodes.server_turn);

    let mut client_m = Machine::dec3000_600();
    let mut server_m = Machine::dec3000_600();

    let out_boundary = boundary_after_last(&out_trace, client_image, f_tx);
    let server_boundary = boundary_after_last(&server_trace, server_image, f_tx);

    // Warm-up pass.
    client_m.run_accumulate(&out_trace);
    client_m.run_accumulate(&in_trace);
    server_m.run_accumulate(&server_trace);

    // Measured pass.
    let (client_out, out_pre_cycles) =
        run_with_boundary(&mut client_m, &out_trace, out_boundary);
    let (client_in, _) = run_with_boundary(&mut client_m, &in_trace, in_trace.len());
    let server = run_with_boundary(&mut server_m, &server_trace, server_boundary);

    compose_roundtrip((client_out, client_in, out_pre_cycles), server, untraced_us)
}

/// Assemble the end-to-end latency from a client half and a server half
/// (shared by the fused path, the sweep engine's memoized halves and the
/// materialized path, so the composition arithmetic cannot drift).
pub fn compose_roundtrip(
    (client_out, client_in, out_pre_cycles): ClientHalf,
    (server_turn, server_pre_cycles): ServerHalf,
    untraced_us: f64,
) -> RoundtripTiming {
    let clock = alpha_machine::MachineConfig::dec3000_600().cpu.clock_mhz as f64;
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
    let episodes = [&episodes.client_out, &episodes.client_in];
    cold_pass(image, &mut Machine::dec3000_600(), episodes)
}

/// Materialized-Vec reference for [`cold_client_stats`], kept for the
/// streaming-equivalence test.
pub fn cold_client_stats_materialized(episodes: &RoundtripEpisodes, image: &Image) -> RunReport {
    let out_trace = replay_trace(image, &episodes.client_out);
    let in_trace = replay_trace(image, &episodes.client_in);
    let mut m = Machine::dec3000_600();
    m.reset();
    m.run_accumulate(&out_trace);
    m.run_accumulate(&in_trace);
    m.report((out_trace.len() + in_trace.len()) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Version;
    use crate::harness::run_tcpip;
    use crate::world::TcpIpWorld;
    use protocols::StackOptions;

    fn setup() -> (crate::harness::TcpIpRun, EventStream) {
        let run = run_tcpip(TcpIpWorld::build(StackOptions::improved()), 2);
        let canonical = run.episodes.client_trace();
        (run, canonical)
    }

    #[test]
    fn std_roundtrip_times_in_paper_range() {
        let (run, canonical) = setup();
        let img = Version::Std.build_tcpip(&run.world, &canonical);
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
        let (run, canonical) = setup();
        let f_tx = run.world.lance_model.f_tx;
        let bad = Version::Bad.build_tcpip(&run.world, &canonical);
        let all = Version::All.build_tcpip(&run.world, &canonical);
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
        let (run, canonical) = setup();
        let f_tx = run.world.lance_model.f_tx;
        let mut last = f64::INFINITY;
        for v in Version::all() {
            let img = v.build_tcpip(&run.world, &canonical);
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
        let (run, canonical) = setup();
        let img = Version::Std.build_tcpip(&run.world, &canonical);
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

    #[test]
    fn fused_matches_materialized() {
        // Acceptance: the fused streaming replay→simulate path must be
        // bit-identical to the materialized-Vec pipeline — same mCPI,
        // iCPI and cache statistics, same pre-transmit split.
        let (run, canonical) = setup();
        let f_tx = run.world.lance_model.f_tx;
        for v in [Version::Bad, Version::Std, Version::All] {
            let img = v.build_tcpip(&run.world, &canonical);
            let fused =
                time_roundtrip_with(&run.episodes, &img, &img, f_tx, UNTRACED_PER_HOP_US);
            let refr = time_roundtrip_materialized(
                &run.episodes,
                &img,
                &img,
                f_tx,
                UNTRACED_PER_HOP_US,
            );
            assert_eq!(fused.client_out, refr.client_out, "{} client_out", v.name());
            assert_eq!(fused.client_in, refr.client_in, "{} client_in", v.name());
            assert_eq!(fused.server_turn, refr.server_turn, "{} server", v.name());
            assert_eq!(fused.client, refr.client, "{} merged client", v.name());
            assert_eq!(
                fused.client_out_pre_us.to_bits(),
                refr.client_out_pre_us.to_bits(),
                "{} out pre-us",
                v.name()
            );
            assert_eq!(
                fused.server_pre_us.to_bits(),
                refr.server_pre_us.to_bits(),
                "{} server pre-us",
                v.name()
            );
            assert_eq!(fused.e2e_us.to_bits(), refr.e2e_us.to_bits(), "{} e2e", v.name());

            let cold = cold_client_stats(&run.episodes, &img);
            let cold_ref = cold_client_stats_materialized(&run.episodes, &img);
            assert_eq!(cold, cold_ref, "{} cold stats", v.name());
        }
    }

    #[test]
    fn boundary_sink_splits_runs_after_the_last_transmit_instruction() {
        // Runs that end inside, straddle, start inside and miss the
        // transmit range must snapshot the same cycle count as the same
        // records emitted one at a time.
        let run: Vec<InstRecord> = (0..24u64)
            .map(|i| match i % 5 {
                2 => InstRecord::load(0x1000 + 4 * i, 0x8000 + 64 * i),
                4 => InstRecord::store(0x1000 + 4 * i, 0x9000 + 64 * i),
                _ => InstRecord::alu(0x1000 + 4 * i),
            })
            .collect();
        for tx in [(0x1010, 0x1020), (0x0f00, 0x1004), (0x105c, 0x2000), (0x2000, 0x2100)] {
            let tx = [tx];
            let (mut a, mut b) = (Machine::dec3000_600(), Machine::dec3000_600());
            let mut runs = BoundaryMachineSink::new(&mut a, &tx);
            runs.emit_run(&run[..7]);
            runs.emit_run(&run[7..]);
            let mut each = BoundaryMachineSink::new(&mut b, &tx);
            for &r in &run {
                each.emit(r);
            }
            assert_eq!(runs.pre_cycles, each.pre_cycles, "tx {tx:?}");
            assert_eq!(a.report(24), b.report(24), "tx {tx:?}");
        }
    }

    #[test]
    fn boundary_splits_at_transmit() {
        let (run, canonical) = setup();
        let img = Version::Std.build_tcpip(&run.world, &canonical);
        let trace = replay_trace(&img, &run.episodes.client_out);
        let b = boundary_after_last(&trace, &img, run.world.lance_model.f_tx);
        assert!(b > trace.len() / 3, "transmit near the end of the out path");
        assert!(b <= trace.len());
    }
}
