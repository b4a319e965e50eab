//! Online profile-guided re-layout: the closed loop between the
//! serving plane and the layout synthesizer.
//!
//! The static pipeline picks one code layout up front and serves an
//! entire run with it.  Real traffic shifts — destination skew rotates,
//! locality structure changes — and the layout that was optimal for the
//! first regime can be mediocre for the next.  This module grows the
//! serving loop into an adaptive system with three cooperating parts:
//!
//! 1. **A low-overhead sampling profiler** inside each lane's serve
//!    path.  Every `stride`-th message contributes one `(lookup kind,
//!    warm depth)` sample to a fixed-size window; nothing allocates on
//!    the unsampled path and *no simulated time is charged* — sampling
//!    cost is wall-clock only, so a sampling-on run with a single
//!    candidate is bit-identical to the static run (asserted in
//!    `traffic/tests/adapt.rs`, reported by the `adapt` bench suite).
//! 2. **Verdicts scored in the lane.**  A full window is quantized into
//!    a layout-independent [`Profile`] and fingerprinted; when the
//!    fingerprint departs from the baseline the layout was chosen for,
//!    the lane asks the run's one shared scorer ([`Relayout`]) for a
//!    verdict, on its own thread.  The scorer scores every candidate in
//!    the static pool through its own [`DepthCosts`] table
//!    (limit-cycle-extrapolated, the type the [`ReplayService`] serves
//!    from) and answers with the argmin, lowest pool index on ties.
//!    Verdicts are memoized by fingerprint, so every lane, in any
//!    order, gets the identical answer for the identical profile.  The
//!    scorer does not synthesize new layouts: a micro-positioned plan
//!    re-synthesized from the sampled profile never beats the bipartite
//!    pool members end to end (the paper's §3.2 finding;
//!    EXPERIMENTS.md, "Online re-layout", has the measurement).
//! 3. **Epoch-based hot swap.**  A verdict is staged with a simulated
//!    `relayout_latency_ns`; the swap applies at the first serve at or
//!    past that instant (deterministic simulation time, not wall
//!    clock).  Swapping to the active candidate is a no-op; swapping to
//!    a different one invalidates the incoming [`ReplayService`] — its
//!    cost table clears and the machine restarts cold, exactly what a
//!    code-image change does to a real i-cache.  The table then
//!    re-learns and re-stabilizes under the new layout
//!    ([`ServiceStats::invalidations`], `period_detections`).
//!
//! Determinism: the loop's *simulated* behaviour is a pure function of
//! the configuration.  A cost table answers each depth the same
//! whatever it was asked before, so a verdict is a pure function of the
//! profile fingerprint, whichever lane reaches the shared scorer first;
//! and swap instants are computed from simulated time.  Thread
//! scheduling cannot change a bit of the report, for any executor
//! count.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use kcode::events::EventStream;
use kcode::{Image, TraceFingerprint};
use netsim::sample::StrideSampler;
use netsim::{Ns, Overrun};
use xkernel::map::LookupKind;

use crate::capture::{Mode, RunOut};
use crate::dispatch::run_dispatch_mode;
use crate::runloop::{TrafficConfig, TrafficReport};
use crate::service::{DepthCosts, ReplayService, Service, ServiceStats};

/// Log₂ depth buckets in a quantized profile (depth 0 .. ~4k).
const DEPTH_BUCKETS: usize = 12;

/// Tuning of the adaptive loop.  All-integer so adaptive configurations
/// stay `Copy + Eq + Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdaptConfig {
    /// Sampling stride: every `stride`-th serve contributes a profile
    /// sample.  0 disables the whole loop (bit-identical passthrough to
    /// the static service).
    pub stride: u32,
    /// Samples per profile window.
    pub window: u32,
    /// Minimum simulated time between applied swaps (hysteresis).  The
    /// first adaptation of a run is exempt.
    pub min_dwell_ns: u64,
    /// Simulated latency from posting a profile to the swap taking
    /// effect (models scoring + code installation).
    pub relayout_latency_ns: u64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            stride: 16,
            window: 64,
            min_dwell_ns: 500_000_000,
            relayout_latency_ns: 50_000_000,
        }
    }
}

/// A named layout candidate in the adaptive pool.
#[derive(Clone)]
pub struct Candidate {
    pub name: String,
    pub image: Arc<Image>,
}

impl Candidate {
    pub fn new(name: impl Into<String>, image: Arc<Image>) -> Self {
        Candidate { name: name.into(), image }
    }
}

/// A layout-independent, quantized summary of one profile window.
/// Counts are octiles of the window (0..=8) so near-identical windows
/// collapse onto one fingerprint instead of re-triggering scoring;
/// everything the scorer needs is *in* the profile, making its verdict
/// a pure function of the fingerprint regardless of which lane asks
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Profile {
    /// Octile counts by lookup kind: `[cache hit, chain hit, miss]`.
    kinds: [u8; 3],
    /// Octile counts by log₂ warm-depth bucket.
    depths: [u8; DEPTH_BUCKETS],
    /// Log₂ bucket of the window's mean warm depth.
    mean_depth_bucket: u8,
}

fn depth_bucket(depth: u32) -> usize {
    let v = depth as u64 + 1; // 1..=2^32, so the log is total
    ((63 - v.leading_zeros()) as usize).min(DEPTH_BUCKETS - 1)
}

/// Representative depth for a bucket (midpoint of its range).
fn bucket_rep(bucket: usize) -> usize {
    let lower = (1usize << bucket) - 1;
    let upper = (1usize << (bucket + 1)) - 2;
    (lower + upper) / 2
}

impl Profile {
    /// Quantize one full window of `(kind tag, depth)` samples.
    fn from_window(samples: &[(u8, u32)]) -> Self {
        let n = samples.len() as u32;
        debug_assert!(n > 0);
        let octile = |count: u32| ((8 * count + n / 2) / n) as u8;
        let mut kinds = [0u32; 3];
        let mut depths = [0u32; DEPTH_BUCKETS];
        let mut sum = 0u64;
        for &(k, d) in samples {
            kinds[k as usize] += 1;
            depths[depth_bucket(d)] += 1;
            sum += d as u64;
        }
        let mean = (sum / samples.len() as u64) as u32;
        Profile {
            kinds: kinds.map(octile),
            depths: depths.map(octile),
            mean_depth_bucket: depth_bucket(mean) as u8,
        }
    }

    /// The fingerprint verdicts are keyed by.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = TraceFingerprint::new();
        for k in self.kinds {
            fp.push(k as u64);
        }
        for d in self.depths {
            fp.push(d as u64);
        }
        fp.push(self.mean_depth_bucket as u64);
        fp.finish()
    }
}

/// Re-layout scorer counters, aggregated into [`AdaptReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayoutStats {
    /// Verdicts answered (including memoized ones).
    pub responses: u64,
    /// Verdicts answered straight from the fingerprint memo; the rest
    /// (`responses − fp_memo_hits`) each scored the whole pool.
    pub fp_memo_hits: u64,
}

/// Expected cost of serving the profile's depth mix on one candidate:
/// Σ over depth buckets of octile weight × cost at the bucket's
/// representative depth.
fn score(costs: &mut DepthCosts, episode: &EventStream, profile: &Profile) -> u64 {
    profile
        .depths
        .iter()
        .enumerate()
        .filter(|(_, &w)| w > 0)
        .map(|(b, &w)| w as u64 * costs.cost(episode, bucket_rep(b)))
        .sum()
}

/// The verdict scorer's state: one cost table per candidate, in pool
/// order, and the fingerprint → winning-index memo.
struct Scorer<'a> {
    tables: Vec<DepthCosts<'a>>,
    verdicts: HashMap<u64, usize>,
    stats: RelayoutStats,
}

/// What every lane of one adaptive run shares: the verdict scorer and
/// the lanes' flushed records.
pub struct Relayout<'a> {
    episode: &'a EventStream,
    scorer: Mutex<Scorer<'a>>,
    lanes: Mutex<Vec<LaneAdapt>>,
}

impl<'a> Relayout<'a> {
    fn new(episode: &'a EventStream, candidates: &'a [Candidate]) -> Self {
        Relayout {
            episode,
            scorer: Mutex::new(Scorer {
                tables: candidates.iter().map(|c| DepthCosts::new(&c.image)).collect(),
                verdicts: HashMap::new(),
                stats: RelayoutStats::default(),
            }),
            lanes: Mutex::new(Vec::new()),
        }
    }

    /// Index of the candidate that serves `profile` cheapest, scoring
    /// each fingerprint once.
    fn verdict(&self, fp: u64, profile: &Profile) -> usize {
        let mut scorer = self.scorer.lock().expect("re-layout scorer poisoned");
        let Scorer { tables, verdicts, stats } = &mut *scorer;
        stats.responses += 1;
        if let Some(&i) = verdicts.get(&fp) {
            stats.fp_memo_hits += 1;
            return i;
        }
        // `min_by_key` keeps the first minimum: ties go to the lowest
        // pool index.
        let (i, _) = tables
            .iter_mut()
            .map(|t| score(t, self.episode, profile))
            .enumerate()
            .min_by_key(|&(_, score)| score)
            .expect("candidate pool must not be empty");
        verdicts.insert(fp, i);
        i
    }
}

/// One applied (or no-op) layout swap, for the adaptation timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapEvent {
    pub lane: u32,
    /// Simulated instant the swap took effect.
    pub at: Ns,
    pub from: String,
    pub to: String,
    /// Fingerprint of the profile that triggered it.
    pub trigger_fp: u64,
    /// The verdict named the already-active candidate: nothing swapped,
    /// no invalidation, the memo and machine state survive.
    pub noop: bool,
}

/// Per-lane adaptive-loop counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptCounters {
    pub samples: u64,
    pub windows: u64,
    pub requests: u64,
    pub swaps_applied: u64,
    pub swaps_noop: u64,
}

impl AdaptCounters {
    fn merge(&mut self, o: &AdaptCounters) {
        self.samples += o.samples;
        self.windows += o.windows;
        self.requests += o.requests;
        self.swaps_applied += o.swaps_applied;
        self.swaps_noop += o.swaps_noop;
    }
}

/// One lane's flushed adaptation record.
#[derive(Debug, Clone)]
pub struct LaneAdapt {
    pub lane: u32,
    pub counters: AdaptCounters,
    pub swaps: Vec<SwapEvent>,
}

/// The adaptive side of a [`run_adaptive`] result (the serving side is
/// the ordinary [`TrafficReport`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdaptReport {
    /// Aggregated lane counters.
    pub counters: AdaptCounters,
    /// Every swap event, ordered by lane then time.
    pub swaps: Vec<SwapEvent>,
    pub worker: RelayoutStats,
}

/// A staged epoch transition to candidate `to`: the swap applies at
/// the first serve at or past `ready_at`.
struct PendingSwap {
    ready_at: Ns,
    trigger_fp: u64,
    to: usize,
}

/// The adaptive service: wraps a pool of [`ReplayService`] candidates,
/// profiles the workload, and hot-swaps the active candidate at epoch
/// boundaries.  With `stride = 0` it is a bit-identical passthrough to
/// the initial candidate.
pub struct AdaptiveService<'a> {
    lane: u32,
    episode: &'a EventStream,
    candidates: &'a [Candidate],
    cfg: AdaptConfig,
    /// Candidate index → its (lazily created) replay service.  Services
    /// persist across swaps; re-entering a candidate still invalidates
    /// it (the i-cache went cold while other code ran).
    pool: Vec<Option<ReplayService<'a>>>,
    active: usize,
    /// Layout-independent warm-depth tracker for profiling.
    depth: u32,
    sampler: StrideSampler,
    window: Vec<(u8, u32)>,
    baseline_fp: u64,
    pending: Option<PendingSwap>,
    last_swap_at: Option<Ns>,
    counters: AdaptCounters,
    swaps: Vec<SwapEvent>,
    /// The run's scorer, and where the lane's adaptation record lands
    /// on drop (lanes finish on executor threads; the harness collects
    /// and orders by lane).
    shared: Option<&'a Relayout<'a>>,
}

fn kind_tag(kind: LookupKind) -> u8 {
    match kind {
        LookupKind::CacheHit => 0,
        LookupKind::ChainHit => 1,
        LookupKind::Miss => 2,
    }
}

impl<'a> AdaptiveService<'a> {
    /// A lane service starting on `candidates[initial]`, asking
    /// `shared` for verdicts (pass `None` to keep the loop local —
    /// sampling still runs, nothing ever triggers).
    pub fn new(
        lane: u32,
        candidates: &'a [Candidate],
        initial: usize,
        episode: &'a EventStream,
        cfg: AdaptConfig,
        shared: Option<&'a Relayout<'a>>,
    ) -> Self {
        let mut pool: Vec<_> = candidates.iter().map(|_| None).collect();
        pool[initial] = Some(ReplayService::new(&candidates[initial].image, episode));
        AdaptiveService {
            lane,
            episode,
            candidates,
            cfg,
            pool,
            active: initial,
            depth: 0,
            sampler: StrideSampler::new(cfg.stride),
            window: Vec::with_capacity(cfg.window.max(1) as usize),
            baseline_fp: 0,
            pending: None,
            last_swap_at: None,
            counters: AdaptCounters::default(),
            swaps: Vec::new(),
            shared,
        }
    }

    /// Test hook: stage a swap back onto the *active* candidate, taking
    /// effect at the first serve at or past `ready_at`.  Exercises the
    /// full epoch-transition path; by the no-op rule it must leave the
    /// run bit-identical to one that never swapped.
    pub fn force_self_swap_at(&mut self, ready_at: Ns) {
        self.pending =
            Some(PendingSwap { ready_at, trigger_fp: self.baseline_fp, to: self.active });
    }

    fn apply_swap(&mut self, now: Ns, PendingSwap { trigger_fp, to, .. }: PendingSwap) {
        self.baseline_fp = trigger_fp;
        self.last_swap_at = Some(now);
        let noop = to == self.active;
        if noop {
            self.counters.swaps_noop += 1;
        } else {
            let (image, episode) = (&*self.candidates[to].image, self.episode);
            // The incoming candidate's caches went cold while other code
            // ran: restart its memo and machine from scratch.
            self.pool[to].get_or_insert_with(|| ReplayService::new(image, episode)).invalidate();
            self.counters.swaps_applied += 1;
        }
        self.swaps.push(SwapEvent {
            lane: self.lane,
            at: now,
            from: self.candidates[self.active].name.clone(),
            to: self.candidates[to].name.clone(),
            trigger_fp,
            noop,
        });
        self.active = to;
    }

    /// Close a full profile window: fingerprint it and, when it departs
    /// from the baseline (respecting dwell hysteresis and the
    /// one-pending-swap rule), stage the shared scorer's verdict.
    fn finish_window(&mut self, now: Ns) {
        self.counters.windows += 1;
        let profile = Profile::from_window(&self.window);
        self.window.clear();
        let fp = profile.fingerprint();
        if fp == self.baseline_fp || self.pending.is_some() {
            return;
        }
        if let Some(t) = self.last_swap_at {
            if now.saturating_sub(t) < self.cfg.min_dwell_ns {
                return;
            }
        }
        let Some(shared) = self.shared else { return };
        self.counters.requests += 1;
        self.pending = Some(PendingSwap {
            ready_at: now.saturating_add(self.cfg.relayout_latency_ns),
            trigger_fp: fp,
            to: shared.verdict(fp, &profile),
        });
    }
}

impl Service for AdaptiveService<'_> {
    fn serve(&mut self, kind: LookupKind, now: Ns) -> Ns {
        if kind == LookupKind::Miss {
            self.depth = 0;
        } else {
            self.depth = self.depth.saturating_add(1);
        }

        if let Some(swap) = self.pending.take_if(|p| now >= p.ready_at) {
            self.apply_swap(now, swap);
        }

        if self.sampler.tick() {
            self.counters.samples += 1;
            self.window.push((kind_tag(kind), self.depth));
            if self.window.len() >= self.cfg.window.max(1) as usize {
                self.finish_window(now);
            }
        }

        self.pool[self.active].as_mut().expect("active candidate in pool").serve(kind, now)
    }

    fn stats(&self) -> ServiceStats {
        let mut s = ServiceStats::default();
        for svc in self.pool.iter().flatten() {
            s.merge(&svc.stats());
        }
        s
    }
}

impl Drop for AdaptiveService<'_> {
    fn drop(&mut self) {
        if let Some(shared) = self.shared {
            shared.lanes.lock().expect("adapt lanes poisoned").push(LaneAdapt {
                lane: self.lane,
                counters: self.counters,
                swaps: std::mem::take(&mut self.swaps),
            });
        }
    }
}

/// Run `cfg` with the full adaptive loop: per-lane
/// [`AdaptiveService`]s starting on `candidates[initial]` and one
/// shared scorer answering their verdicts.  Returns the ordinary
/// serving report plus the adaptation timeline.  The result is a pure
/// function of the arguments — executor count and thread scheduling
/// cannot change it.
pub fn run_adaptive(
    cfg: &TrafficConfig,
    adapt: &AdaptConfig,
    episode: &EventStream,
    candidates: &[Candidate],
    initial: usize,
) -> Result<(TrafficReport, AdaptReport), Overrun> {
    let (out, report) = run_adaptive_mode(cfg, adapt, episode, candidates, initial, Mode::Live)?;
    Ok((out.report, report))
}

/// [`run_adaptive`] with a trace mode threaded through to the serving
/// runner.  Under `Replay` the adaptation machinery still runs live —
/// its verdicts are deterministic functions of the (replayed) arrivals
/// and fates, so the capture layer validates them after the run.
pub(crate) fn run_adaptive_mode(
    cfg: &TrafficConfig,
    adapt: &AdaptConfig,
    episode: &EventStream,
    candidates: &[Candidate],
    initial: usize,
    mode: Mode,
) -> Result<(RunOut, AdaptReport), Overrun> {
    assert!(initial < candidates.len(), "initial candidate out of range");
    let relayout = Relayout::new(episode, candidates);
    let run = run_dispatch_mode(
        cfg,
        |lane| AdaptiveService::new(lane, candidates, initial, episode, *adapt, Some(&relayout)),
        mode,
    )?;
    let mut lanes = std::mem::take(&mut *relayout.lanes.lock().expect("adapt lanes poisoned"));
    lanes.sort_by_key(|l| l.lane);
    let worker = relayout.scorer.lock().expect("re-layout scorer poisoned").stats;
    let mut out = AdaptReport { worker, ..AdaptReport::default() };
    for lane in &lanes {
        out.counters.merge(&lane.counters);
        out.swaps.extend(lane.swaps.iter().cloned());
    }
    Ok((run, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_buckets_are_log2_and_clamped() {
        assert_eq!(depth_bucket(0), 0);
        assert_eq!(depth_bucket(1), 1);
        assert_eq!(depth_bucket(2), 1);
        assert_eq!(depth_bucket(3), 2);
        assert_eq!(depth_bucket(6), 2);
        assert_eq!(depth_bucket(7), 3);
        assert_eq!(depth_bucket(u32::MAX), DEPTH_BUCKETS - 1);
        // Representatives sit inside their bucket.
        for b in 0..DEPTH_BUCKETS - 1 {
            assert_eq!(depth_bucket(bucket_rep(b) as u32), b, "bucket {b}");
        }
    }

    #[test]
    fn near_identical_windows_share_a_fingerprint() {
        // Quantization is the anti-churn mechanism: one sample of
        // difference in a 64-sample window must not change the key.
        let mut a: Vec<(u8, u32)> = (0..64).map(|_| (0, 5)).collect();
        let b = a.clone();
        a[10].1 = 6; // tiny perturbation, same octiles and mean bucket
        assert_eq!(
            Profile::from_window(&a).fingerprint(),
            Profile::from_window(&b).fingerprint()
        );
    }

    #[test]
    fn different_regimes_get_different_fingerprints() {
        let cold: Vec<(u8, u32)> = (0..64).map(|_| (2, 0)).collect(); // all misses
        let warm: Vec<(u8, u32)> = (0..64).map(|i| (0, 20 + i)).collect(); // deep hits
        let pa = Profile::from_window(&cold);
        let pb = Profile::from_window(&warm);
        assert_ne!(pa.fingerprint(), pb.fingerprint());
    }

    #[test]
    fn profile_is_a_pure_function_of_the_window() {
        let w: Vec<(u8, u32)> = (0..48).map(|i| ((i % 3) as u8, (i * 7) % 40)).collect();
        assert_eq!(Profile::from_window(&w), Profile::from_window(&w.clone()));
        assert_eq!(
            Profile::from_window(&w).fingerprint(),
            Profile::from_window(&w).fingerprint()
        );
    }
}
