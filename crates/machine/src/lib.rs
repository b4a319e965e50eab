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
pub mod block;
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
pub use block::{BlockShape, ShapeId, ShapeTable};
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
    /// streaming entry point for control transfers and for any record
    /// outside a block — a replayer can feed records here as it
    /// produces them, with no intermediate trace vector.
    #[inline]
    pub fn step(&mut self, rec: &InstRecord) {
        self.cpu.issue(rec);
        self.mem.access(rec);
    }

    /// Process a straight-line block: `shape`'s instructions with `data`
    /// the addresses of its loads and stores, in order.  The CPU and the
    /// memory system never read each other's state, so each takes the
    /// whole block at once: the CPU charges it in O(1) from its pairing
    /// table ([`Cpu::issue_block`]) and the memory system visits only
    /// its line crossings and data accesses
    /// ([`MemorySystem::access_block`]).  A hierarchy without the
    /// same-line skip steps the block's records one at a time.  Either
    /// way, equivalent to [`Self::step`] on each of
    /// [`BlockShape::records`] in turn.
    #[inline]
    pub fn step_block(&mut self, shape: BlockShape<'_>, data: &[u64]) {
        if !self.mem.block_walk_ok() {
            for rec in shape.records(data) {
                self.step(&rec);
            }
            return;
        }
        self.cpu.issue_block(shape);
        self.mem.access_block(shape, data);
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

    /// Step `prefix` record by record on two machines, then the block
    /// at `pc` of `classes` (with `data` its loads' and stores'
    /// addresses) through [`Machine::step_block`] on one and its
    /// materialized records on the other, then the same probe records
    /// on both (they pair with whatever the block left pending and read
    /// the write buffer), comparing after the block and after the probe.
    /// Returns the write-buffer entries the block retired.
    fn assert_block_matches(
        label: &str,
        config: MachineConfig,
        prefix: &[InstRecord],
        pc: u64,
        classes: &[InstClass],
        data: &[u64],
    ) -> u64 {
        let mut table = ShapeTable::default();
        let id = table.push(pc, classes.iter().copied());
        let shape = table.get(id);
        let (mut blocks, mut records) = (Machine::new(config), Machine::new(config));
        blocks.run_accumulate(prefix);
        records.run_accumulate(prefix);
        let retired_before = records.mem.write_buffer.retired_blocks;
        blocks.step_block(shape, data);
        records.run_accumulate(&shape.records(data).collect::<Vec<_>>());
        let retired = records.mem.write_buffer.retired_blocks - retired_before;
        let end = pc + 4 * classes.len() as u64;
        let probe = [
            InstRecord::alu(end),
            InstRecord::load(end + 4, data.first().copied().unwrap_or(0x8000)),
            InstRecord::branch_not_taken(end + 8),
            InstRecord::mul(end + 12),
        ];
        for at in ["block", "probe"] {
            let n = (prefix.len() + classes.len()) as u64;
            assert_eq!(blocks.report(n), records.report(n), "{label}: after the {at}");
            let milli = |m: &Machine| m.cpu.icpi().to_bits();
            assert_eq!(milli(&blocks), milli(&records), "{label}: {at}: milli-cycles");
            let wb = |m: &Machine| (m.mem.write_buffer.pending_len(), m.mem.write_buffer.retired_blocks);
            assert_eq!(wb(&blocks), wb(&records), "{label}: {at}: write buffer");
            blocks.run_accumulate(&probe);
            records.run_accumulate(&probe);
        }
        retired
    }

    /// A 40-instruction body: loads and stores over a few data lines,
    /// two multiplies, and ALU work in stretches of one to three.
    fn mixed_block(first: InstClass) -> (Vec<InstClass>, Vec<u64>) {
        use InstClass::*;
        let mut classes = vec![first];
        classes.extend([Alu, Load, Alu, Alu, Store, Mul, Load, Load, Alu, Store, Store, Alu]);
        classes.extend([Alu, Alu, Load, Alu, Store, Alu, Mul, Alu, Load, Alu, Alu, Alu, Store]);
        classes.extend([Load, Alu, Store, Alu, Alu, Load, Store, Alu, Alu, Load, Alu, Alu, Alu, Store]);
        let data = classes
            .iter()
            .filter(|c| c.is_mem())
            .enumerate()
            .map(|(i, _)| 0x8_0000 + (i as u64 % 5) * 0x48 + (i as u64 / 5) * 0x2000)
            .collect();
        (classes, data)
    }

    #[test]
    fn step_block_matches_its_records_from_every_pair_state() {
        // One record that leaves each entry pair state: none (a taken
        // branch empties the pair buffer), an integer op, a memory op,
        // a branch.
        let entries: [fn(u64) -> InstRecord; 4] = [
            InstRecord::branch_taken,
            InstRecord::alu,
            |pc| InstRecord::load(pc, 0x9_0000),
            InstRecord::branch_not_taken,
        ];
        for width in [1, 2] {
            for line in [16, 32, 64] {
                let mut config = MachineConfig::dec3000_600();
                config.cpu.issue_width = width;
                config.mem.icache.block_bytes = line;
                for (e, entry) in entries.iter().enumerate() {
                    for first in [InstClass::Alu, InstClass::Mul, InstClass::Load, InstClass::Store] {
                        let (classes, data) = mixed_block(first);
                        // The block starts mid-line on the prefix's line,
                        // and on a new line.
                        for pc in [0x1_0008, 0x1_0100] {
                            let label = format!("width {width}, {line} B lines, entry {e}, {first:?} at {pc:#x}");
                            assert_block_matches(&label, config, &[entry(0x1_0004)], pc, &classes, &data);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn step_block_matches_with_drains_falling_inside_it() {
        // Four stores to distinct lines fill the write buffer just
        // before the block, so its entries retire (10 cycles apart)
        // while the block runs, on ALU stretches as well as on events.
        for line in [16, 32, 64] {
            let mut config = MachineConfig::dec3000_600();
            config.mem.icache.block_bytes = line;
            let prefix: Vec<InstRecord> =
                (0..4).map(|i| InstRecord::store(0x1_0000 + 4 * i, 0xa_0000 + 0x100 * i)).collect();
            let (classes, data) = mixed_block(InstClass::Alu);
            for pc in [0x1_0010, 0x1_0044] {
                let label = format!("{line} B lines at {pc:#x}");
                let retired = assert_block_matches(&label, config, &prefix, pc, &classes, &data);
                assert!(retired >= 4, "{label}: only {retired} drains in the block");
            }
        }
    }

    #[test]
    fn step_block_matches_on_edge_shapes() {
        let config = MachineConfig::dec3000_600();
        let prefix = [InstRecord::store(0x1_0000, 0xa_0000), InstRecord::alu(0x1_0004)];
        // Empty, one multiply, ALU only across lines, and on a 2-way
        // i-cache, which steps the block's records one at a time.
        assert_block_matches("empty", config, &prefix, 0x1_0008, &[], &[]);
        assert_block_matches("multiply", config, &prefix, 0x1_0008, &[InstClass::Mul], &[]);
        assert_block_matches("ALU only", config, &prefix, 0x1_0008, &[InstClass::Alu; 70], &[]);
        let mut two_way = config;
        two_way.mem.icache = config::CacheConfig::set_associative(8 * 1024, 32, 2);
        let (classes, data) = mixed_block(InstClass::Load);
        assert_block_matches("2-way i-cache", two_way, &prefix, 0x1_0008, &classes, &data);
    }

    #[test]
    fn cpi_decomposes_into_icpi_plus_mcpi() {
        let mut m = Machine::dec3000_600();
        let report = m.run(&seq_trace(4000, 0));
        let cpi = report.cpi();
        assert!((cpi - (report.icpi() + report.mcpi())).abs() < 1e-9);
    }
}
