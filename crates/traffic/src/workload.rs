//! Scenario-driven workload generation.
//!
//! Two arrival disciplines, both fully seeded so a run is a pure
//! function of its configuration:
//!
//! * **Open loop** — Poisson arrivals (exponential inter-arrival gaps)
//!   at a fixed offered rate, independent of service progress.  This is
//!   the discipline that exposes queueing tails: arrivals do not slow
//!   down when the server falls behind.
//! * **Closed loop** — N clients, each with at most one request in
//!   flight; a client issues its next request `think_ns` after the
//!   previous response.  Throughput self-limits to the service
//!   capacity, which is what makes it the right probe for worker
//!   scaling.
//!
//! Destination/session selection is Zipf-skewed (Jain's
//! destination-address-locality observation: real traffic concentrates
//! on few hot destinations), with the skew exponent in milli-units so
//! workload configurations stay `Eq + Hash` for memoization.

use std::sync::Arc;

use netsim::rng::SplitMix64;
use netsim::Ns;

/// Arrival discipline.  Integer-only fields so configurations can key
/// memo caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Poisson arrivals at `rate_mps` messages/second per worker.
    OpenLoop { rate_mps: u64 },
    /// `clients` closed-loop clients per worker, each thinking
    /// `think_ns` between response and next request.
    ClosedLoop { clients: u32, think_ns: u64 },
}

/// One exponential inter-arrival gap for a Poisson process of
/// `rate_mps` messages per second, in nanoseconds.
#[inline]
pub fn exp_gap_ns(rng: &mut SplitMix64, rate_mps: u64) -> Ns {
    debug_assert!(rate_mps > 0);
    let u = rng.next_f64(); // in [0, 1)
    let mean_ns = 1e9 / rate_mps as f64;
    (-(1.0 - u).ln() * mean_ns).ceil() as Ns
}

/// A Zipf(θ) sampler over ranks `0..n` (rank 0 hottest), sampled by
/// binary search over the precomputed CDF.  θ = `milli_theta / 1000`;
/// θ = 0 degenerates to uniform.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, milli_theta: u32) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let theta = milli_theta as f64 / 1000.0;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Sample a rank in `0..n`.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Which locality structure the per-lane reference stream exhibits.
/// Integer-only fields so stream configurations stay `Eq + Hash` for
/// memoization, mirroring [`Scenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Independent Zipf(θ) draws — the seed stream, bit-identical RNG
    /// consumption (exactly one uniform draw per arrival).
    Zipf,
    /// LRU-stack-depth controlled: each reference names the session at
    /// a geometrically distributed depth of the lane's LRU stack
    /// (P(depth = d) ∝ p^d with p = `milli_p / 1000`), then moves it to
    /// the front.  Jain's stack-depth characterization of destination
    /// locality: small p → tight temporal locality, p → 1 → uniform.
    StackDepth { milli_p: u32 },
    /// Jain's packet-train model: a train picks a Zipf destination and
    /// keeps re-referencing it; each subsequent arrival continues the
    /// train with probability `milli_cont / 1000`, else a new train
    /// starts on a fresh Zipf draw.  High continuation favours even a
    /// one-entry cache; the *inter*-train locality is what larger
    /// policies capture.
    Train { milli_cont: u32 },
    /// Adversarial conflict stream: cycles through `cycle` sessions
    /// whose demux-key hashes collide in both shard space and the
    /// `slots`-slot address-cache index space — the classic pattern
    /// that defeats one-entry and direct-mapped caches while fully
    /// associative policies of ≥ `cycle` entries hold it resident.
    Conflict { slots: u32, cycle: u32 },
}

impl StreamKind {
    /// Stable snake_case name for bench JSON keys.
    pub fn name(&self) -> &'static str {
        match self {
            StreamKind::Zipf => "zipf",
            StreamKind::StackDepth { .. } => "stack_depth",
            StreamKind::Train { .. } => "train",
            StreamKind::Conflict { .. } => "conflict",
        }
    }
}

/// A stateful per-lane reference stream: maps the lane's seeded RNG to
/// a sequence of session ranks in `0..sessions` with the locality
/// structure of its [`StreamKind`].  Deterministic: the emitted
/// sequence is a pure function of (kind, sessions, RNG state).
#[derive(Debug, Clone)]
pub struct RefStream {
    kind: StreamKind,
    zipf: Arc<Zipf>,
    /// LRU stack for [`StreamKind::StackDepth`] (front = most recent).
    stack: Vec<u32>,
    /// Current train destination for [`StreamKind::Train`].
    train_dest: u32,
    train_live: bool,
    /// Precomputed colliding ranks for [`StreamKind::Conflict`].
    cycle: Vec<u32>,
    pos: usize,
}

impl RefStream {
    /// A stream over the ranks of `zipf` (`0..zipf.n()`).  For
    /// [`StreamKind::Conflict`], `cycle_ranks` supplies the colliding
    /// rank set (see `session::conflict_cycle`); other kinds ignore it.
    pub fn new(kind: StreamKind, zipf: Arc<Zipf>, cycle_ranks: Vec<u32>) -> Self {
        let stack = match kind {
            StreamKind::StackDepth { .. } => (0..zipf.n() as u32).collect(),
            _ => Vec::new(),
        };
        let cycle = match kind {
            StreamKind::Conflict { .. } => {
                assert!(cycle_ranks.len() >= 2, "conflict stream needs ≥ 2 colliding ranks");
                cycle_ranks
            }
            _ => Vec::new(),
        };
        RefStream { kind, zipf, stack, train_dest: 0, train_live: false, cycle, pos: 0 }
    }

    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    /// Next session rank.  RNG consumption per kind: Zipf = 1 draw
    /// (bit-identical to the seed path), StackDepth = 1 draw, Train =
    /// 1–2 draws, Conflict = 0 draws.
    #[inline]
    pub fn next(&mut self, rng: &mut SplitMix64) -> u32 {
        match self.kind {
            StreamKind::Zipf => self.zipf.sample(rng) as u32,
            StreamKind::StackDepth { milli_p } => {
                let p = (milli_p as f64 / 1000.0).clamp(0.001, 0.999);
                let u = rng.next_f64();
                // Geometric stack depth: P(d) ∝ p^d.
                let depth = ((1.0 - u).ln() / p.ln()) as usize;
                let depth = depth.min(self.stack.len() - 1);
                let dest = self.stack.remove(depth);
                self.stack.insert(0, dest);
                dest
            }
            StreamKind::Train { milli_cont } => {
                if self.train_live && rng.chance(milli_cont as f64 / 1000.0) {
                    self.train_dest
                } else {
                    self.train_dest = self.zipf.sample(rng) as u32;
                    self.train_live = true;
                    self.train_dest
                }
            }
            StreamKind::Conflict { .. } => {
                let dest = self.cycle[self.pos];
                self.pos = (self.pos + 1) % self.cycle.len();
                dest
            }
        }
    }
}

/// One segment of a phase-shifting workload: a locality structure plus
/// its Zipf skew, held for `duration_ns` of simulated time.  All-integer
/// fields so phased configurations stay `Copy + Eq + Hash` and can key
/// memo caches like everything else in
/// [`TrafficConfig`](crate::TrafficConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Phase {
    /// Locality structure of the reference stream during this phase.
    pub stream: StreamKind,
    /// Zipf skew θ × 1000 for this phase's session selection.
    pub milli_theta: u32,
    /// Simulated length of the phase; 0 means "until the run ends" and
    /// is only legal on the final phase.
    pub duration_ns: u64,
    /// Settle window at the head of the phase: completions *born*
    /// within it are excluded from the phase's steady-state histogram
    /// (they measure the transition, not the converged regime).
    pub settle_ns: u64,
}

/// Maximum phases in a [`PhasePlan`] — fixed so the plan stays `Copy`.
pub const MAX_PHASES: usize = 4;

/// A fixed-capacity schedule of up to [`MAX_PHASES`] workload phases,
/// laid end to end from simulated time 0.  The empty plan means "no
/// phase shifting": the run draws from the base configuration's single
/// stream, bit-identically to a build without this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhasePlan {
    phases: [Option<Phase>; MAX_PHASES],
}

impl Default for PhasePlan {
    fn default() -> Self {
        Self::none()
    }
}

impl PhasePlan {
    /// The empty plan (no phase shifting).
    pub const fn none() -> Self {
        PhasePlan { phases: [None; MAX_PHASES] }
    }

    /// A plan running `phases` back to back.  Every phase except the
    /// last needs a positive duration; a trailing 0 means "rest of the
    /// run".
    pub fn new(phases: &[Phase]) -> Self {
        assert!(phases.len() <= MAX_PHASES, "at most {MAX_PHASES} phases");
        for (i, p) in phases.iter().enumerate() {
            assert!(
                p.duration_ns > 0 || i + 1 == phases.len(),
                "phase {i} has zero duration but is not last"
            );
        }
        let mut slots = [None; MAX_PHASES];
        for (slot, p) in slots.iter_mut().zip(phases) {
            *slot = Some(*p);
        }
        PhasePlan { phases: slots }
    }

    pub fn is_empty(&self) -> bool {
        self.phases[0].is_none()
    }

    pub fn len(&self) -> usize {
        self.phases.iter().take_while(|p| p.is_some()).count()
    }

    /// The phases in schedule order.
    pub fn iter(&self) -> impl Iterator<Item = &Phase> {
        self.phases.iter().map_while(|p| p.as_ref())
    }

    /// Absolute start instant of each phase (`starts()[0] == 0`).
    pub fn starts(&self) -> Vec<Ns> {
        let mut starts = Vec::with_capacity(self.len());
        let mut t: Ns = 0;
        for p in self.iter() {
            starts.push(t);
            t = t.saturating_add(p.duration_ns);
        }
        starts
    }

    /// Index of the phase containing instant `t` (times past the last
    /// boundary belong to the last phase, whatever its duration says).
    pub fn phase_at(&self, t: Ns) -> usize {
        let starts = self.starts();
        starts.partition_point(|&s| s <= t).saturating_sub(1)
    }
}

/// A sequence of [`RefStream`]s switched by simulated time: the stream
/// a draw comes from is selected by the arrival instant against the
/// plan's phase boundaries.  Draw instants within a lane are
/// non-decreasing (engines pop in time order, generators advance a
/// clock), so a monotone cursor suffices — and every execution plane
/// runs this identical code, preserving the bit-identity argument.
///
/// A single-phase stream (the empty plan) delegates straight to its one
/// [`RefStream`], consuming the RNG identically to a build without
/// phasing.
#[derive(Debug, Clone)]
pub struct PhasedStream {
    streams: Vec<RefStream>,
    /// Absolute start instant of each stream; `starts[0] == 0`.
    starts: Vec<Ns>,
    cur: usize,
}

impl PhasedStream {
    /// The degenerate single-phase stream (no shifting).
    pub fn single(stream: RefStream) -> Self {
        PhasedStream { streams: vec![stream], starts: vec![0], cur: 0 }
    }

    /// A stream per phase, switched at the given start instants
    /// (`starts[0]` must be 0, instants strictly increasing).
    pub fn new(streams: Vec<RefStream>, starts: Vec<Ns>) -> Self {
        assert_eq!(streams.len(), starts.len());
        assert!(!streams.is_empty(), "need at least one phase");
        assert_eq!(starts[0], 0, "first phase must start at 0");
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "phase starts must increase");
        PhasedStream { streams, starts, cur: 0 }
    }

    /// Locality kind of the phase active at the cursor.
    pub fn kind(&self) -> StreamKind {
        self.streams[self.cur].kind()
    }

    /// Next session rank for an arrival at instant `t`.  RNG consumption
    /// is exactly the active phase's [`RefStream::next`]; phase state
    /// (LRU stacks, trains, conflict cursors) is per-phase and survives
    /// across a phase's own draws only.
    #[inline]
    pub fn next(&mut self, t: Ns, rng: &mut SplitMix64) -> u32 {
        while self.cur + 1 < self.starts.len() && t >= self.starts[self.cur + 1] {
            self.cur += 1;
        }
        self.streams[self.cur].next(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_seeded_deterministic() {
        let z = Zipf::new(100, 900);
        let run = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..200).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn zipf_skew_concentrates_on_hot_ranks() {
        let z = Zipf::new(1000, 990);
        let mut rng = SplitMix64::new(11);
        let mut hot = 0usize;
        let total = 10_000;
        for _ in 0..total {
            if z.sample(&mut rng) < 10 {
                hot += 1;
            }
        }
        // With θ≈1 over 1000 ranks, the top-10 take ≈39% of the mass.
        let frac = hot as f64 / total as f64;
        assert!(frac > 0.3, "hot fraction {frac}");
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let z = Zipf::new(10, 0);
        let mut rng = SplitMix64::new(3);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "uniform bucket count {c}");
        }
    }

    #[test]
    fn exp_gap_matches_rate() {
        let mut rng = SplitMix64::new(17);
        let rate = 10_000u64; // mean gap 100 µs
        let n = 20_000;
        let total: u128 = (0..n).map(|_| exp_gap_ns(&mut rng, rate) as u128).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 100_000.0).abs() < 4_000.0, "mean gap {mean}");
    }

    #[test]
    fn zipf_stream_matches_raw_sampler_bit_for_bit() {
        // StreamKind::Zipf must consume the RNG exactly like the seed
        // path (one draw per arrival) and emit the same ranks.
        let z = Arc::new(Zipf::new(256, 900));
        let mut s = RefStream::new(StreamKind::Zipf, Arc::clone(&z), Vec::new());
        let mut r1 = SplitMix64::new(77);
        let mut r2 = SplitMix64::new(77);
        for _ in 0..500 {
            assert_eq!(s.next(&mut r1) as usize, z.sample(&mut r2));
        }
        assert_eq!(r1.next_u64(), r2.next_u64(), "RNG streams diverged");
    }

    #[test]
    fn stack_depth_stream_stays_in_range_and_reuses_hot() {
        let z = Arc::new(Zipf::new(64, 0));
        let mut s = RefStream::new(StreamKind::StackDepth { milli_p: 300 }, z, Vec::new());
        let mut rng = SplitMix64::new(9);
        let mut repeats = 0u32;
        let mut last = u32::MAX;
        for _ in 0..2000 {
            let d = s.next(&mut rng);
            assert!(d < 64);
            if d == last {
                repeats += 1;
            }
            last = d;
        }
        // p = 0.3 → immediate re-reference (depth 0) dominates.
        assert!(repeats > 800, "only {repeats}/2000 immediate repeats");
    }

    #[test]
    fn train_stream_runs_in_trains() {
        let z = Arc::new(Zipf::new(64, 0));
        let mut s = RefStream::new(StreamKind::Train { milli_cont: 900 }, z, Vec::new());
        let mut rng = SplitMix64::new(4);
        let refs: Vec<u32> = (0..3000).map(|_| s.next(&mut rng)).collect();
        let same: usize = refs.windows(2).filter(|w| w[0] == w[1]).count();
        // 0.9 continuation → long trains; uniform draws alone would
        // repeat ~1.6% of the time.
        let frac = same as f64 / (refs.len() - 1) as f64;
        assert!(frac > 0.8, "train continuation fraction {frac}");
    }

    #[test]
    fn conflict_stream_cycles_without_rng() {
        let z = Arc::new(Zipf::new(64, 0));
        let mut s = RefStream::new(
            StreamKind::Conflict { slots: 8, cycle: 3 },
            z,
            vec![5, 9, 21],
        );
        let mut rng = SplitMix64::new(1);
        let before = rng.next_u64();
        let mut rng = SplitMix64::new(1);
        let out: Vec<u32> = (0..7).map(|_| s.next(&mut rng)).collect();
        assert_eq!(out, vec![5, 9, 21, 5, 9, 21, 5]);
        assert_eq!(rng.next_u64(), before, "conflict stream must not touch the RNG");
    }

    #[test]
    fn phase_plan_starts_and_lookup() {
        let p = |dur: u64| Phase {
            stream: StreamKind::Zipf,
            milli_theta: 900,
            duration_ns: dur,
            settle_ns: 10,
        };
        let plan = PhasePlan::new(&[p(100), p(50), p(0)]);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.starts(), vec![0, 100, 150]);
        assert_eq!(plan.phase_at(0), 0);
        assert_eq!(plan.phase_at(99), 0);
        assert_eq!(plan.phase_at(100), 1);
        assert_eq!(plan.phase_at(149), 1);
        assert_eq!(plan.phase_at(150), 2);
        assert_eq!(plan.phase_at(u64::MAX), 2);
        assert!(PhasePlan::none().is_empty());
        assert_eq!(PhasePlan::none().len(), 0);
        assert_eq!(PhasePlan::default(), PhasePlan::none());
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn phase_plan_rejects_zero_duration_mid_plan() {
        let p = |dur: u64| Phase {
            stream: StreamKind::Zipf,
            milli_theta: 0,
            duration_ns: dur,
            settle_ns: 0,
        };
        PhasePlan::new(&[p(0), p(100)]);
    }

    #[test]
    fn single_phased_stream_is_bit_identical_to_its_ref_stream() {
        let z = Arc::new(Zipf::new(128, 900));
        let mut plain = RefStream::new(StreamKind::Zipf, Arc::clone(&z), Vec::new());
        let mut phased =
            PhasedStream::single(RefStream::new(StreamKind::Zipf, Arc::clone(&z), Vec::new()));
        let mut r1 = SplitMix64::new(31);
        let mut r2 = SplitMix64::new(31);
        let mut t = 0u64;
        for _ in 0..400 {
            t += 17;
            assert_eq!(plain.next(&mut r1), phased.next(t, &mut r2));
        }
        assert_eq!(r1.next_u64(), r2.next_u64(), "RNG streams diverged");
    }

    #[test]
    fn phased_stream_switches_at_boundaries() {
        // Phase 1: conflict cycle (no RNG); phase 2: Zipf.  Draws before
        // the boundary come from the cycle, draws at/after it from Zipf.
        let z = Arc::new(Zipf::new(64, 0));
        let s1 = RefStream::new(StreamKind::Conflict { slots: 8, cycle: 3 }, Arc::clone(&z), vec![5, 9, 21]);
        let s2 = RefStream::new(StreamKind::Zipf, Arc::clone(&z), Vec::new());
        let mut ps = PhasedStream::new(vec![s1, s2], vec![0, 1000]);
        let mut rng = SplitMix64::new(2);
        assert_eq!(ps.next(0, &mut rng), 5);
        assert_eq!(ps.next(400, &mut rng), 9);
        assert_eq!(ps.kind(), StreamKind::Conflict { slots: 8, cycle: 3 });
        let mut twin = SplitMix64::new(2);
        // The conflict phase consumed no RNG, so the Zipf phase's first
        // draw matches a fresh sampler on the same seed.
        assert_eq!(ps.next(1000, &mut rng) as usize, z.sample(&mut twin));
        assert_eq!(ps.kind(), StreamKind::Zipf);
        // The cursor is monotone: later instants never fall back.
        assert_eq!(ps.next(5000, &mut rng) as usize, z.sample(&mut twin));
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(7, 1200);
        let mut rng = SplitMix64::new(23);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }
}
