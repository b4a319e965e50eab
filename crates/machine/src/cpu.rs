//! The 21064 issue model — the source of iCPI.
//!
//! The 21064 is a dual-issue in-order machine with restrictive pairing
//! rules: roughly, an integer ALU operation can issue alongside a memory
//! operation or a branch, but two instructions of the same kind cannot
//! pair.  We model this with a greedy pairing pass over the dynamic
//! instruction stream plus three penalty sources the paper calls out:
//!
//! * **taken control transfers** — the CPU simulator used by the paper
//!   "adds a fixed penalty for each taken branch"; outlining lowers iCPI
//!   almost entirely through this term (fewer taken jumps on the hot
//!   path).
//! * **integer multiply** — ~19 extra cycles on the 21064.  Integer
//!   *divide* does not exist as an instruction at all; it is a software
//!   routine, so it appears in traces as a called function (with its own
//!   i-cache footprint) rather than as a penalty here.
//! * **exposed load-use latency** — an architectural average charged per
//!   load (`load_use_penalty_milli` thousandths of a cycle).

use crate::block::BlockShape;
use crate::config::CpuConfig;
use crate::inst::{InstClass, InstRecord};

/// Pairing kinds for the dual-issue model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    IntOp,
    MemOp,
    Branch,
}

fn slot_of(class: InstClass) -> Slot {
    match class {
        InstClass::Alu | InstClass::Mul | InstClass::Nop => Slot::IntOp,
        InstClass::Load | InstClass::Store => Slot::MemOp,
        InstClass::BranchTaken
        | InstClass::BranchNotTaken
        | InstClass::Call
        | InstClass::Ret => Slot::Branch,
    }
}

/// Can `a` and `b` issue in the same cycle?
fn can_pair(a: Slot, b: Slot) -> bool {
    // One integer op can pair with a memory op or a branch; two of the
    // same kind, or mem+branch, cannot (the 21064 has a single load/store
    // port and a single branch unit fed by the integer pipeline).
    matches!(
        (a, b),
        (Slot::IntOp, Slot::MemOp)
            | (Slot::MemOp, Slot::IntOp)
            | (Slot::IntOp, Slot::Branch)
            | (Slot::Branch, Slot::IntOp)
    )
}

/// Index of a pair state in a [`Pairing`] table.
fn state_index(pending: Option<Slot>) -> usize {
    match pending {
        None => 0,
        Some(Slot::IntOp) => 1,
        Some(Slot::MemOp) => 2,
        Some(Slot::Branch) => 3,
    }
}

/// A block's dual-issue outcome from one entry pair state: the new
/// issue cycles it takes and the pair state it leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PairStep {
    cycles: u16,
    exit: Option<Slot>,
}

/// A block's [`PairStep`] for each entry pair state (`Cpu::pending`:
/// none, an integer op, a memory op or a branch waiting for a partner).
pub(crate) type Pairing = [PairStep; 4];

/// Dual issue of one instruction of `class` with `pending` waiting for
/// a partner: whether it starts a new issue cycle, and what waits for a
/// partner after it.
#[inline]
fn pair(pending: Option<Slot>, class: InstClass) -> (bool, Option<Slot>) {
    let slot = slot_of(class);
    let (new_cycle, next) = match pending {
        // Dual-issued with the previous instruction: no new base cycle.
        Some(prev) if can_pair(prev, slot) => (false, None),
        // The previous instruction issued alone (or none waits): this
        // one starts a new cycle and waits for a partner.
        _ => (true, Some(slot)),
    };
    // A multiply occupies the pipe, and a taken control transfer's fetch
    // redirect empties the pair buffer.
    let next = if class == InstClass::Mul || class.is_taken_control() { None } else { next };
    (new_cycle, next)
}

/// Tabulate the dual-issue pairing of a straight-line block of
/// `classes` from each entry pair state, with the same [`pair`] step
/// as [`Cpu::issue`] so the table cannot drift from the pairing rules.
/// The four walks run in lockstep until their pair states agree — after
/// an instruction or two — and one walk serves all four from there.
/// Penalties are left out: [`Cpu::issue_block`] adds them from the
/// block's counts.
pub(crate) fn pairing(mut classes: impl Iterator<Item = InstClass>) -> Pairing {
    let mut states = [None, Some(Slot::IntOp), Some(Slot::MemOp), Some(Slot::Branch)];
    let mut cycles = [0u16; 4];
    let mut agreed = false;
    for class in classes.by_ref() {
        for (state, cycles) in states.iter_mut().zip(&mut cycles) {
            let (new_cycle, next) = pair(*state, class);
            *cycles += new_cycle as u16;
            *state = next;
        }
        agreed = states.iter().all(|&s| s == states[0]);
        if agreed {
            break;
        }
    }
    let mut shared = 0;
    if agreed {
        for class in classes {
            let (new_cycle, next) = pair(states[0], class);
            shared += new_cycle as u16;
            states = [next; 4];
        }
    }
    std::array::from_fn(|k| PairStep { cycles: cycles[k] + shared, exit: states[k] })
}

/// The CPU issue model.  Feed it instructions in order; read out cycles.
#[derive(Debug, Clone)]
pub struct Cpu {
    config: CpuConfig,
    /// Issue cycles consumed (the iCPI numerator), in milli-cycles to keep
    /// the fractional load-use penalty exact.
    milli_cycles: u64,
    instructions: u64,
    taken_branches: u64,
    /// Class of an instruction waiting for a pairing partner.
    pending: Option<Slot>,
}

impl Cpu {
    pub fn new(config: CpuConfig) -> Self {
        Cpu {
            config,
            milli_cycles: 0,
            instructions: 0,
            taken_branches: 0,
            pending: None,
        }
    }

    pub fn config(&self) -> CpuConfig {
        self.config
    }

    /// Issue one instruction.
    #[inline]
    pub fn issue(&mut self, rec: &InstRecord) {
        self.instructions += 1;
        if self.config.issue_width >= 2 {
            let (new_cycle, pending) = pair(self.pending, rec.class);
            self.milli_cycles += new_cycle as u64 * 1000;
            self.pending = pending;
        } else {
            self.milli_cycles += 1000;
        }

        // Penalties.
        match rec.class {
            InstClass::Mul => {
                self.milli_cycles += self.config.mul_extra_cycles * 1000;
            }
            InstClass::Load => {
                self.milli_cycles += self.config.load_use_penalty_milli;
            }
            c if c.is_taken_control() => {
                self.taken_branches += 1;
                self.milli_cycles += self.config.taken_branch_penalty * 1000;
            }
            _ => {}
        }
    }

    /// Issue a straight-line block in O(1): its base cycles from the
    /// pairing table for the current pair state, plus its multiply and
    /// load-use penalties — at `issue_width` 1, one cycle per
    /// instruction instead.  Equivalent to [`Self::issue`] on each of
    /// its records in turn (a block holds no control transfer).
    #[inline]
    pub fn issue_block(&mut self, shape: BlockShape<'_>) {
        let (len, loads, muls) = shape.counts();
        self.instructions += len as u64;
        let base = if self.config.issue_width >= 2 {
            let step = shape.pairing()[state_index(self.pending)];
            self.pending = step.exit;
            step.cycles as u32
        } else {
            len
        };
        self.milli_cycles += base as u64 * 1000
            + muls as u64 * self.config.mul_extra_cycles * 1000
            + loads as u64 * self.config.load_use_penalty_milli;
    }

    /// Issue cycles consumed so far (rounded up).
    pub fn cycles(&self) -> u64 {
        self.milli_cycles.div_ceil(1000)
    }

    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    pub fn taken_branches(&self) -> u64 {
        self.taken_branches
    }

    /// Instruction CPI so far.
    pub fn icpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.milli_cycles as f64 / 1000.0 / self.instructions as f64
        }
    }

    pub fn reset_stats(&mut self) {
        self.milli_cycles = 0;
        self.instructions = 0;
        self.taken_branches = 0;
        self.pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;
    use crate::inst::InstRecord;

    fn cpu() -> Cpu {
        Cpu::new(CpuConfig::alpha_21064())
    }

    #[test]
    fn alu_mem_pairs_dual_issue() {
        let mut c = cpu();
        // alu; load; alu; load — pairs perfectly: 2 cycles + load penalties.
        c.issue(&InstRecord::alu(0));
        c.issue(&InstRecord::load(4, 0x100));
        c.issue(&InstRecord::alu(8));
        c.issue(&InstRecord::load(12, 0x100));
        // 2 base cycles + 2 * 2.5 load-use = 7.0
        assert_eq!(c.cycles(), 7);
        assert!((c.icpi() - 1.75).abs() < 1e-9);
    }

    #[test]
    fn two_alus_cannot_pair() {
        let mut c = cpu();
        c.issue(&InstRecord::alu(0));
        c.issue(&InstRecord::alu(4));
        assert_eq!(c.cycles(), 2);
    }

    #[test]
    fn two_loads_cannot_pair() {
        let mut c = cpu();
        c.issue(&InstRecord::load(0, 0x0));
        c.issue(&InstRecord::load(4, 0x20));
        // 2 base + 2*2.5 load-use
        assert_eq!(c.cycles(), 7);
    }

    #[test]
    fn taken_branch_charges_penalty() {
        let mut c = cpu();
        c.issue(&InstRecord::branch_taken(0));
        assert_eq!(c.cycles(), 1 + 4);
        assert_eq!(c.taken_branches(), 1);
    }

    #[test]
    fn not_taken_branch_is_cheap() {
        let mut c = cpu();
        c.issue(&InstRecord::branch_not_taken(0));
        assert_eq!(c.cycles(), 1);
        assert_eq!(c.taken_branches(), 0);
    }

    #[test]
    fn multiply_is_expensive() {
        let mut c = cpu();
        c.issue(&InstRecord::mul(0));
        assert_eq!(c.cycles(), 20);
    }

    #[test]
    fn branch_redirect_prevents_pairing_across_it() {
        let mut c = cpu();
        c.issue(&InstRecord::branch_taken(0));
        c.issue(&InstRecord::alu(100));
        c.issue(&InstRecord::load(104, 0x0));
        // branch: 1+4; alu+load pair: 1 (+2.5 load use) => 8.5 -> 9
        assert_eq!(c.cycles(), 9);
    }

    #[test]
    fn fewer_taken_branches_means_lower_icpi() {
        // The mechanism by which outlining improves iCPI.
        let mut hot_path_with_jumps = cpu();
        let mut straightline = cpu();
        for i in 0..100u64 {
            hot_path_with_jumps.issue(&InstRecord::alu(i * 8));
            hot_path_with_jumps.issue(&InstRecord::branch_taken(i * 8 + 4));
            straightline.issue(&InstRecord::alu(i * 8));
            straightline.issue(&InstRecord::branch_not_taken(i * 8 + 4));
        }
        assert!(hot_path_with_jumps.icpi() > straightline.icpi() + 1.0);
    }

    #[test]
    fn single_issue_config_never_pairs() {
        let mut cfg = CpuConfig::alpha_21064();
        cfg.issue_width = 1;
        let mut c = Cpu::new(cfg);
        c.issue(&InstRecord::alu(0));
        c.issue(&InstRecord::load(4, 0));
        // 2 base + 2.5
        assert_eq!(c.cycles(), 5);
    }

    #[test]
    fn reset_clears_counters() {
        let mut c = cpu();
        c.issue(&InstRecord::alu(0));
        c.reset_stats();
        assert_eq!(c.cycles(), 0);
        assert_eq!(c.instructions(), 0);
    }
}
