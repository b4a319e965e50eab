//! Per-message service models.
//!
//! A [`Service`] turns one demultiplexed message into server processing
//! time.  The real model is [`ReplayService`]: every message replays the
//! server-turn kcode episode through a machine-model instance (caches,
//! dual issue, write buffer) under the layout configuration being
//! measured — a session-table **miss** resets the machine (the paper's
//! cold-cache methodology: new connection state paged in), a **hit**
//! replays warm.
//!
//! Replaying a fixed episode on a deterministic machine makes the cycle
//! count a pure function of replays-since-reset ("depth").  [`DepthCosts`]
//! exploits that: it learns each depth's cost exactly once, by replaying
//! on a *frontier* machine that is always `memo.len()` replays past its
//! reset, until the tail settles into a repeating cycle (the caches have
//! reached a fixed point or a short limit cycle — some layouts leave one
//! line alternating between two sets, so the warm cost oscillates with
//! period 2 forever rather than going flat).  Every other serve is table
//! arithmetic — no simulation at all.  The same table scores candidates
//! for the adaptive re-layout loop's verdicts ([`crate::adapt`]).  The
//! memoized service and the live-simulation oracle
//! ([`ReplayService::without_memoization`]) produce identical latencies
//! serve for serve; `protolat-core`'s traffic-stage tests are the
//! validation.  [`ReplayService::invalidate`] supports hot layout swaps:
//! it discards the learned table and forces a cold restart, exactly what
//! a code-image change does to a real i-cache.

use alpha_machine::Machine;
use kcode::events::EventStream;
use kcode::Image;
use netsim::{cycles_to_ns, Ns};
use xkernel::map::LookupKind;

/// Longest per-depth cost cycle the memo will recognise as steady
/// state.  Period 1 is the classic flat fixed point; period 2 is the
/// alternating-line pattern some pinned layouts produce.
pub const MAX_PERIOD: usize = 4;

/// Find the steady-state limit cycle in a learned per-depth cost table:
/// the last `2p` entries each match the entry `p` before them — three
/// full periods of a `p`-cycle (for `p = 1`, the classic
/// three-equal-costs rule).  Returns `(base, period)` such that a depth
/// `d >= base` costs `memo[base + (d - base) % period]`.
pub fn detect_cycle(memo: &[u64]) -> Option<(usize, usize)> {
    let n = memo.len();
    for p in 1..=MAX_PERIOD {
        if n >= 3 * p && (n - 2 * p..n).all(|i| memo[i] == memo[i - p]) {
            return Some((n - p, p));
        }
    }
    None
}

/// Counters a service exposes to the traffic report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Messages served by simulating a replay: without memoization every
    /// message; memoized, one per depth learned per invalidation epoch.
    pub simulated_replays: u64,
    /// Messages answered from an already-learned depth (a memo entry or
    /// the detected limit cycle), with no simulation.
    pub fast_path_serves: u64,
    /// Memo invalidations (hot layout swaps / phase changes).
    pub invalidations: u64,
    /// Limit-cycle detections by period: `period_detections[p - 1]`
    /// counts stabilizations with period `p`.  Re-learning after an
    /// invalidation detects (and counts) again.
    pub period_detections: [u64; MAX_PERIOD],
}

impl ServiceStats {
    pub fn merge(&mut self, other: &ServiceStats) {
        self.simulated_replays += other.simulated_replays;
        self.fast_path_serves += other.fast_path_serves;
        self.invalidations += other.invalidations;
        for (d, s) in self.period_detections.iter_mut().zip(&other.period_detections) {
            *d += s;
        }
    }

    /// Fraction of serves answered from the learned cost table.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.simulated_replays + self.fast_path_serves;
        if total == 0 {
            0.0
        } else {
            self.fast_path_serves as f64 / total as f64
        }
    }
}

/// One message's worth of server processing.
pub trait Service {
    /// Service time for a message whose session lookup took `kind`
    /// (miss means the session state is cold), starting service at
    /// simulated instant `now` (arrival or queue-drain time, whichever
    /// is later).  `now` is deterministic simulation time — adaptive
    /// services key epoch transitions off it, fixed services ignore it.
    fn serve(&mut self, kind: LookupKind, now: Ns) -> Ns;

    fn stats(&self) -> ServiceStats {
        ServiceStats::default()
    }
}

/// A constant-time service for tests and calibration: no machine model,
/// just fixed costs per lookup class.
#[derive(Debug, Clone, Copy)]
pub struct FixedService {
    pub cache_hit_ns: Ns,
    pub chain_hit_ns: Ns,
    pub miss_ns: Ns,
}

impl FixedService {
    /// Same cost regardless of lookup class.
    pub fn uniform(ns: Ns) -> Self {
        FixedService { cache_hit_ns: ns, chain_hit_ns: ns, miss_ns: ns }
    }
}

impl Service for FixedService {
    fn serve(&mut self, kind: LookupKind, _now: Ns) -> Ns {
        match kind {
            LookupKind::CacheHit => self.cache_hit_ns,
            LookupKind::ChainHit => self.chain_hit_ns,
            LookupKind::Miss => self.miss_ns,
        }
    }
}

/// Cycle cost of one replay of `episode` on `machine` in its current
/// state.
fn replay_cycles(image: &Image, episode: &EventStream, machine: &mut Machine) -> u64 {
    let before = machine.cpu.cycles() + machine.mem.stall_cycles();
    image
        .replay_into_lean(episode, machine)
        .expect("episode must replay cleanly");
    machine.cpu.cycles() + machine.mem.stall_cycles() - before
}

/// Per-depth replay cost table for one image: `cost(episode, d)` is the
/// cycle cost of the `d`-th replay after a cold reset.  Each depth is
/// simulated once per invalidation epoch, on a frontier machine that has
/// replayed exactly `memo.len()` times since its reset; once the learned
/// tail repeats ([`detect_cycle`]) deeper depths are extrapolated and
/// simulation stops.
pub struct DepthCosts<'a> {
    image: &'a Image,
    frontier: Machine,
    /// `memo[d]` = cycle cost of the replay at depth `d`.
    memo: Vec<u64>,
    /// Once set as `(base, period)`, a depth `d >= base` costs
    /// `memo[base + (d - base) % period]`.
    stable: Option<(usize, usize)>,
}

impl<'a> DepthCosts<'a> {
    pub fn new(image: &'a Image) -> Self {
        DepthCosts { image, frontier: Machine::dec3000_600(), memo: Vec::new(), stable: None }
    }

    /// Learned per-depth cycle costs of the current epoch.
    pub fn memo(&self) -> &[u64] {
        &self.memo
    }

    /// Whether [`cost`](Self::cost) answers `depth` without simulating.
    fn knows(&self, depth: usize) -> bool {
        depth < self.memo.len() || self.stable.is_some()
    }

    /// Cycle cost of a replay `depth` replays past a cold start,
    /// simulating the frontier forward to `depth` if it is not yet
    /// learned.
    pub fn cost(&mut self, episode: &EventStream, depth: usize) -> u64 {
        while !self.knows(depth) {
            self.memo.push(replay_cycles(self.image, episode, &mut self.frontier));
            self.stable = detect_cycle(&self.memo);
        }
        match self.stable {
            Some((base, period)) if depth >= base => self.memo[base + (depth - base) % period],
            _ => self.memo[depth],
        }
    }

    /// Forget every learned depth and reset the frontier cold: the image
    /// the costs were learned on has been swapped out.
    fn invalidate(&mut self) {
        self.memo.clear();
        self.stable = None;
        self.frontier.reset();
    }
}

/// The machine-model service: replays a server-turn episode per message
/// against a laid-out image.
pub struct ReplayService<'a> {
    costs: DepthCosts<'a>,
    episode: &'a EventStream,
    clock_mhz: u64,
    /// The live-simulation oracle's machine, set by
    /// [`without_memoization`](Self::without_memoization): it replays
    /// every serve and the cost table is never consulted.
    live: Option<Machine>,
    /// Set by [`invalidate`](Self::invalidate): the next non-miss serve
    /// is charged cold (machine reset, depth 0).  A miss does not
    /// consume it, so a hit right after a post-invalidation miss is cold
    /// too.
    fresh: bool,
    /// Replays since the last machine reset.
    depth: usize,
    stats: ServiceStats,
}

impl<'a> ReplayService<'a> {
    pub fn new(image: &'a Image, episode: &'a EventStream) -> Self {
        ReplayService {
            costs: DepthCosts::new(image),
            episode,
            clock_mhz: alpha_machine::MachineConfig::dec3000_600().cpu.clock_mhz,
            live: None,
            fresh: false,
            depth: 0,
            stats: ServiceStats::default(),
        }
    }

    /// Disable the cost table: every message simulates on a live
    /// machine.  The reference mode the memoized service is validated
    /// against.
    pub fn without_memoization(mut self) -> Self {
        self.live = Some(Machine::dec3000_600());
        self
    }

    /// The per-depth cost table the memoized service serves from.
    pub fn costs(&self) -> &DepthCosts<'a> {
        &self.costs
    }

    /// Declare the learned steady state void — the layout image the
    /// machine's caches were warmed on has been swapped out (or the
    /// workload phase changed).  The cost table clears, and the next
    /// serve begins from a cold machine whatever its lookup kind says.
    pub fn invalidate(&mut self) {
        self.costs.invalidate();
        self.fresh = true;
        self.stats.invalidations += 1;
    }
}

impl Service for ReplayService<'_> {
    fn serve(&mut self, kind: LookupKind, _now: Ns) -> Ns {
        let miss = kind == LookupKind::Miss || std::mem::take(&mut self.fresh);
        if miss {
            self.depth = 0;
        } else {
            self.depth += 1;
        }

        let cycles = match &mut self.live {
            Some(machine) => {
                if miss {
                    machine.reset();
                }
                self.stats.simulated_replays += 1;
                replay_cycles(self.costs.image, self.episode, machine)
            }
            None if self.costs.knows(self.depth) => {
                self.stats.fast_path_serves += 1;
                self.costs.cost(self.episode, self.depth)
            }
            None => {
                // Depths are reached one serve at a time from a cold
                // start, so an unknown depth is exactly the frontier:
                // one simulation.
                debug_assert_eq!(self.depth, self.costs.memo.len());
                self.stats.simulated_replays += 1;
                let cycles = self.costs.cost(self.episode, self.depth);
                if let Some((_, period)) = self.costs.stable {
                    self.stats.period_detections[period - 1] += 1;
                }
                cycles
            }
        };
        cycles_to_ns(cycles, self.clock_mhz)
    }

    fn stats(&self) -> ServiceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_service_costs_by_lookup_class() {
        let mut s = FixedService { cache_hit_ns: 1, chain_hit_ns: 2, miss_ns: 3 };
        assert_eq!(s.serve(LookupKind::CacheHit, 0), 1);
        assert_eq!(s.serve(LookupKind::ChainHit, 0), 2);
        assert_eq!(s.serve(LookupKind::Miss, 0), 3);
        assert_eq!(s.stats(), ServiceStats::default());
    }

    #[test]
    fn uniform_is_uniform() {
        let mut s = FixedService::uniform(50);
        for k in [LookupKind::CacheHit, LookupKind::ChainHit, LookupKind::Miss] {
            assert_eq!(s.serve(k, 7), 50);
        }
    }

    #[test]
    fn detect_cycle_finds_flat_and_periodic_tails() {
        // Too short / no repetition: nothing detected.
        assert_eq!(detect_cycle(&[5, 4]), None);
        assert_eq!(detect_cycle(&[5, 4, 3, 2, 1]), None);
        // Three equal tail entries: flat fixed point at the first of
        // the final period.
        assert_eq!(detect_cycle(&[9, 3, 3, 3]), Some((3, 1)));
        // Alternating tail: period 2 once three full periods repeat.
        assert_eq!(detect_cycle(&[9, 7, 4, 5, 4, 5, 4, 5]), Some((6, 2)));
        // A period-4 cycle (not reducible to shorter periods).
        let mut v = vec![100];
        for _ in 0..3 {
            v.extend_from_slice(&[8, 6, 7, 5]);
        }
        assert_eq!(detect_cycle(&v), Some((9, 4)));
    }

    #[test]
    fn merge_sums_all_counters() {
        let mut a = ServiceStats {
            simulated_replays: 3,
            fast_path_serves: 7,
            invalidations: 1,
            period_detections: [1, 0, 0, 2],
        };
        let b = ServiceStats {
            simulated_replays: 2,
            fast_path_serves: 8,
            invalidations: 4,
            period_detections: [0, 5, 0, 1],
        };
        a.merge(&b);
        assert_eq!(a.simulated_replays, 5);
        assert_eq!(a.fast_path_serves, 15);
        assert_eq!(a.invalidations, 5);
        assert_eq!(a.period_detections, [1, 5, 0, 3]);
        assert!((a.memo_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ServiceStats::default().memo_hit_rate(), 0.0);
    }
}
