//! # alpha-machine
//!
//! An architectural *timing* model of the machine used in Mosberger et al.,
//! "Analysis of Techniques to Improve Protocol Processing Latency" (1996):
//! a DEC 3000/600 workstation built around the 175 MHz Alpha 21064.
//!
//! The model is trace driven.  A client (normally the `kcode` execution
//! recorder) produces a sequence of [`InstRecord`]s — one per dynamically
//! executed instruction, carrying the instruction's address, its class, and
//! an optional data-memory access.  The [`Machine`] replays the trace
//! through two coupled models:
//!
//! * a **CPU issue model** ([`cpu::Cpu`]) that charges base issue cycles,
//!   dual-issue pairing, taken-branch penalties and long-latency integer
//!   operations.  Its output is the *instruction CPI* (iCPI) — the CPI the
//!   code would achieve on a perfect memory system.
//! * a **memory hierarchy model** ([`hierarchy::MemorySystem`]) with split
//!   8 KB direct-mapped i- and d-caches (32-byte blocks), a 4-deep
//!   write-merging write buffer, a 2 MB direct-mapped write-back
//!   board-level cache (b-cache) and main memory.  Its output is the
//!   *memory CPI* (mCPI) — the average number of cycles an instruction
//!   stalls waiting for the memory system — plus the per-cache access,
//!   miss and replacement-miss statistics of the paper's Table 6.
//!
//! Total `CPI = iCPI + mCPI`, exactly the decomposition of the paper's
//! Section 4.4.2.
//!
//! The model is deliberately *architectural*, not cycle-exact RTL: the
//! parameters in [`MachineConfig`] were calibrated so that the simulated
//! protocol stacks land in the paper's measured ranges (iCPI ≈ 1.5–1.8,
//! mCPI ≈ 0.8 for the best layouts up to ≈ 4.7 for pessimal ones), and the
//! *relative* effects of code layout — which is what the paper is about —
//! are produced by the same mechanisms the real hardware exhibits
//! (conflict misses in direct-mapped caches, wasted fetch bandwidth from
//! i-cache gaps, pipeline bubbles on taken branches).

#![forbid(unsafe_code)]

pub mod bitset;
pub mod blockset;
pub mod cache;
pub mod config;
pub mod cpu;
pub mod hierarchy;
pub mod inst;
pub mod reference;
pub mod report;
pub mod tlb;
pub mod writebuf;

pub use bitset::PcBitmap;
pub use cache::{Cache, CacheStats};
pub use config::MachineConfig;
pub use cpu::Cpu;
pub use hierarchy::MemorySystem;
pub use inst::{InstClass, InstRecord, MemOp};
pub use report::RunReport;

/// A complete machine: CPU issue model plus memory hierarchy.
///
/// The machine is replayed against instruction traces.  State (cache
/// contents) persists across [`Machine::run`] calls so steady-state
/// behaviour can be measured by running a warm-up trace first; call
/// [`Machine::reset`] for a cold machine, or
/// [`Machine::reset_stats`] to clear counters while keeping cache
/// contents (used for warm timing runs).  Construction and a full reset
/// both cost O(cache tag pages touched), not O(capacity), so building a
/// fresh machine per cell or resetting one per cold replay is cheap.
#[derive(Debug, Clone)]
pub struct Machine {
    pub config: MachineConfig,
    pub cpu: Cpu,
    pub mem: MemorySystem,
}

impl Machine {
    /// Build a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let cpu = Cpu::new(config.cpu);
        let mem = MemorySystem::new(config.mem);
        Machine { config, cpu, mem }
    }

    /// A machine configured as the paper's DEC 3000/600.
    pub fn dec3000_600() -> Self {
        Machine::new(MachineConfig::dec3000_600())
    }

    /// Process one instruction: issue it on the CPU model and run its
    /// fetch/data accesses through the memory hierarchy.  This is the
    /// streaming entry point — a replayer can feed records here as it
    /// produces them, with no intermediate trace vector.
    #[inline]
    pub fn step(&mut self, rec: &InstRecord) {
        self.cpu.issue(rec);
        self.mem.access(rec);
    }

    /// Process a straight-line run: instructions at consecutive pcs
    /// (each 4 bytes past the last) with no taken control transfer, as
    /// a replayer emits a block body.  The CPU and the memory system
    /// never read each other's state, so each takes the whole run in a
    /// loop of its own ([`Cpu::issue_run`], [`MemorySystem::access_run`],
    /// which probes fetch once per i-cache line).  Equivalent to
    /// stepping each record in turn.
    pub fn step_run(&mut self, run: &[InstRecord]) {
        debug_assert!(
            run.windows(2).all(|w| w[1].pc == w[0].pc + 4 && !w[0].class.is_taken_control()),
            "not a straight-line run"
        );
        self.cpu.issue_run(run);
        self.mem.access_run(run);
    }

    /// Replay a trace and return the timing/statistics report.
    ///
    /// Caches stay warm afterwards; statistics accumulate into the report
    /// for this run only.
    pub fn run(&mut self, trace: &[InstRecord]) -> RunReport {
        self.cpu.reset_stats();
        self.mem.reset_stats();
        self.run_accumulate(trace);
        self.report(trace.len() as u64)
    }

    /// Replay a trace *without* resetting statistics first, accumulating
    /// into the current counters.  Useful when a logical trace is fed in
    /// pieces.
    pub fn run_accumulate(&mut self, trace: &[InstRecord]) {
        for rec in trace {
            self.step(rec);
        }
    }

    /// Produce a report from the current counters, for a trace of
    /// `instructions` dynamic instructions.
    pub fn report(&self, instructions: u64) -> RunReport {
        RunReport::new(
            instructions,
            self.cpu.cycles(),
            self.mem.stall_cycles(),
            self.mem.icache.stats,
            self.mem.dcache_combined_stats(),
            self.mem.bcache.stats,
            self.mem.itlb.as_ref().map(|t| t.stats).unwrap_or_default(),
            self.config.cpu.clock_mhz,
        )
    }

    /// Fully cold machine: caches invalidated, counters cleared.
    pub fn reset(&mut self) {
        self.cpu.reset_stats();
        self.mem.reset();
    }

    /// Clear counters but keep cache contents (warm restart).
    pub fn reset_stats(&mut self) {
        self.cpu.reset_stats();
        self.mem.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_trace(n: u64, base: u64) -> Vec<InstRecord> {
        (0..n)
            .map(|i| InstRecord::alu(base + i * 4))
            .collect()
    }

    #[test]
    fn machine_runs_sequential_code() {
        let mut m = Machine::dec3000_600();
        let report = m.run(&seq_trace(1000, 0x1000));
        assert_eq!(report.instructions, 1000);
        assert!(report.cycles() > 0);
        assert!(report.icpi() > 0.0);
        // Sequential straight-line code misses once per 8-instruction
        // block; the stream buffer removes the stall but not the miss.
        assert_eq!(report.icache.misses, 1000 / 8);
    }

    #[test]
    fn warm_rerun_has_no_icache_misses_for_small_loop() {
        let mut m = Machine::dec3000_600();
        let trace = seq_trace(512, 0x2000); // 2 KB of code, fits in 8 KB i-cache
        m.run(&trace);
        let warm = m.run(&trace);
        assert_eq!(warm.icache.misses, 0, "code should be resident");
        assert!(warm.mcpi() < 0.05);
    }

    #[test]
    fn reset_makes_machine_cold_again() {
        let mut m = Machine::dec3000_600();
        let trace = seq_trace(512, 0x2000);
        m.run(&trace);
        m.reset();
        let cold = m.run(&trace);
        assert_eq!(cold.icache.misses, 512 / 8);
    }

    #[test]
    fn cpi_decomposes_into_icpi_plus_mcpi() {
        let mut m = Machine::dec3000_600();
        let report = m.run(&seq_trace(4000, 0));
        let cpi = report.cpi();
        assert!((cpi - (report.icpi() + report.mcpi())).abs() < 1e-9);
    }
}
