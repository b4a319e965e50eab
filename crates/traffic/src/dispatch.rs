//! The lock-free dispatch plane — the default execution of
//! [`run_traffic`](crate::run_traffic).
//!
//! The seed loop ([`runloop::reference`](crate::runloop::reference))
//! pre-schedules every open-loop arrival into each lane's event engine
//! and drains it on one thread per lane.  That caps parallelism at one
//! thread per lane and makes the arrival schedule resident in the
//! engine all run long.  This module decouples lanes from threads:
//!
//! * every lane is **self-driving**: its open-loop arrival schedule is
//!   a pure function of `(seed, lane)` — the lane's own workload RNG
//!   and reference stream, or its recorded [`LaneLog`] on replay — so
//!   the lane draws its next arrival on demand and merges it against
//!   its engine's dynamic events (retransmissions, redeliveries).
//!   Nothing crosses a thread to feed a lane;
//! * **executor** threads claim runnable lanes from per-executor MPSC
//!   injector rings ([`netsim::ring::MpscRing`]) and run them;
//! * an executor whose own injector runs dry **steals** queued lanes
//!   from its peers' injectors — safe because the injector's dequeue is
//!   CAS-claimed.
//!
//! # Why this is bit-identical to the seed FIFO
//!
//! The unit of stealing is a whole *lane*: all of a lane's mutable
//! state (worker, engine, arrival cursor) moves together, and the state
//! protocol below guarantees exactly one executor owns it at a time.
//! A lane's simulation is a pure function of `(config, lane index)`;
//! executors only decide *where* it runs.  Within a lane, the merge
//! rule reproduces the seed's processing order exactly: the seed
//! pre-schedules arrivals before any dynamic event exists, so at equal
//! timestamps an arrival always dispatches first — the plane therefore
//! processes an engine event only when it is strictly earlier than the
//! lane's next arrival.  That next arrival is always known (drawn one
//! ahead), so no event ever waits on input from elsewhere.  The draws
//! consume the lane's workload RNG in the seed's order (gap, then
//! session, arrival by arrival), and open-loop handling never touches
//! that RNG, so drawing lazily yields the seed's schedule.  Identical
//! processing order means identical `schedule()` call order, hence
//! identical relative tie-break sequence numbers — bit-identity follows
//! by induction, for any executor count.  `traffic/tests/
//! dispatch_equivalence.rs` pins this against both reference runners,
//! and `traffic/tests/trace_replay.rs` pins the tie rule on a trace
//! whose every duplicate redelivery ties with an arrival.
//!
//! # Lane ownership
//!
//! ```text
//!            pop from injector (CAS)           input and events drained
//!   QUEUED ────────────────────────▶ RUNNING ──────────────────────────▶ DONE
//!      ▲                               │
//!      └── yield: push to home injector┘
//! ```
//!
//! A lane id lives in at most one injector entry at any moment: every
//! lane is queued once at start, and only its owner re-queues it.  A
//! lane never waits on input, so it never parks — it runs until it
//! retires or uses up its fairness quantum ([`YIELD_UNITS`]).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use netsim::ring::MpscRing;
use netsim::{Engine, Ns, Overrun};

use crate::capture::{collect, LaneLog, Mode, RunOut};
use crate::runloop::{make_zipfs, Ev, TrafficConfig, TrafficReport, Worker};
use crate::service::Service;
use crate::workload::{exp_gap_ns, Scenario, Zipf};

/// Units a lane may process before handing back to its injector, so
/// executors stay fair when lanes outnumber them.
const YIELD_UNITS: u64 = 8192;

/// Lane states (see module docs for the transition diagram).
const QUEUED: u32 = 0;
const RUNNING: u32 = 1;
const DONE: u32 = 2;

/// Where a lane's open-loop arrivals come from.
enum Arrivals {
    /// Closed loop: the lane's clients issue requests through its
    /// engine.
    None,
    /// Live/record: drawn from the worker's own workload RNG and
    /// reference stream — the stream the seed pre-schedule draws from.
    Draw { rate_mps: u64, t: Ns, left: u32 },
    /// Replay: the recorded schedule, read straight from the trace.
    Log { log: Arc<Vec<LaneLog>>, lane: usize, at: usize },
}

/// A lane's complete mutable pipeline.  Exactly one thread touches it
/// at a time (the state protocol); it crosses executors only through
/// the slot's atomics.
struct LaneCore<S> {
    w: Worker<S>,
    eng: Engine<Ev>,
    arrivals: Arrivals,
    /// The next arrival `(instant, session rank)`, drawn one ahead.
    next: Option<(Ns, u32)>,
    dispatched: u64,
    budget: u64,
}

/// What a lane did with its turn on an executor.
enum Step {
    /// All input consumed and every engine event drained.
    Complete,
    /// Used up the fairness quantum; hand back to the injector.
    Yield,
    /// Blew the event budget.
    Overrun(Overrun),
}

impl<S: Service> LaneCore<S> {
    /// The lane's next arrival, or `None` once its schedule is spent.
    fn draw(&mut self) -> Option<(Ns, u32)> {
        match &mut self.arrivals {
            Arrivals::None => None,
            Arrivals::Draw { left: 0, .. } => None,
            Arrivals::Draw { rate_mps, t, left } => {
                *left -= 1;
                // Exact reference draw order: gap, then session.
                *t += exp_gap_ns(&mut self.w.rng, *rate_mps);
                Some((*t, self.w.stream.next(*t, &mut self.w.rng)))
            }
            Arrivals::Log { log, lane, at } => {
                let a = log[*lane].arrivals.get(*at).copied();
                *at += 1;
                a
            }
        }
    }

    /// Process units until the lane completes, yields, or errors.
    /// This is the merge the bit-identity argument rests on: arrivals
    /// win ties.
    fn step(&mut self) -> Step {
        for _ in 0..YIELD_UNITS {
            let event_first = match (self.next, self.eng.peek_time()) {
                (Some((ta, _)), Some(te)) => te < ta,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (None, None) => return Step::Complete,
            };
            if self.dispatched >= self.budget {
                return Step::Overrun(Overrun::EventBudget {
                    budget: self.budget,
                    now: self.eng.now(),
                    pending: self.eng.pending(),
                });
            }
            self.dispatched += 1;
            if event_first {
                let (t, ev) = self.eng.pop().expect("peeked engine event must pop");
                self.w.handle(&mut self.eng, t, ev);
            } else if let Some((at, session)) = self.next {
                self.next = self.draw();
                self.w.handle(&mut self.eng, at, Ev::Arrive { session, born: at });
            }
        }
        Step::Yield
    }
}

/// A lane's shared face: the ownership state and the core itself.
struct LaneSlot<S> {
    state: AtomicU32,
    core: UnsafeCell<LaneCore<S>>,
}

// SAFETY: `state` is an atomic.  `core` is only dereferenced by the
// thread that owns the lane per the QUEUED/RUNNING protocol, and every
// ownership transfer carries a release/acquire edge through `state`
// and the injector rings; `S: Send` lets the core move between those
// threads.
unsafe impl<S: Send> Sync for LaneSlot<S> {}

/// Shared references every executor works from.
struct Plane<'a, S> {
    slots: &'a [LaneSlot<S>],
    queues: &'a [MpscRing<u32>],
    abort: &'a AtomicBool,
    done: &'a AtomicUsize,
    error: &'a Mutex<Option<Overrun>>,
}

impl<S> Clone for Plane<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S> Copy for Plane<'_, S> {}

/// Re-enqueue `lane` on its home injector.  Each injector is sized to
/// hold every lane, and a lane id has at most one live entry, so the
/// push cannot fail; the retry loop is belt-and-braces.
fn push_lane<S>(plane: &Plane<'_, S>, lane: u32) {
    let q = &plane.queues[lane as usize % plane.queues.len()];
    let mut v = lane;
    while let Err(back) = q.push(v) {
        debug_assert!(false, "injector overflow for lane {back}");
        v = back;
        thread::yield_now();
    }
}

fn retire<S>(plane: &Plane<'_, S>, slot: &LaneSlot<S>) {
    slot.state.store(DONE, Ordering::Release);
    plane.done.fetch_add(1, Ordering::AcqRel);
}

/// Claim a QUEUED lane and run it for one turn.
fn run_lane<S: Service>(plane: Plane<'_, S>, lane: u32) {
    let slot = &plane.slots[lane as usize];
    if slot
        .state
        .compare_exchange(QUEUED, RUNNING, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        debug_assert!(false, "lane {lane} popped while not QUEUED");
        return;
    }
    // SAFETY: the CAS above made this thread the lane's sole owner.
    let core = unsafe { &mut *slot.core.get() };
    match core.step() {
        Step::Complete => retire(&plane, slot),
        Step::Overrun(e) => {
            plane.error.lock().expect("error slot lock poisoned").get_or_insert(e);
            plane.abort.store(true, Ordering::Release);
            retire(&plane, slot);
        }
        // Fairness hand-back; the executor (or a thief) picks it up
        // again from the injector.
        Step::Yield if !plane.abort.load(Ordering::Relaxed) => {
            slot.state.store(QUEUED, Ordering::Release);
            push_lane(&plane, lane);
        }
        Step::Yield => {}
    }
}

/// An executor: pop runnable lanes from its own injector, steal from
/// peers' injectors when dry, spin-then-yield when everything is dry.
fn executor<S: Service>(plane: Plane<'_, S>, idx: usize) {
    let lanes = plane.slots.len();
    let nq = plane.queues.len();
    let mut spins = 0u32;
    while !plane.abort.load(Ordering::Relaxed) && plane.done.load(Ordering::Acquire) < lanes {
        // Own injector first; then the steal sweep over peers.
        let claimed = (0..nq).find_map(|k| plane.queues[(idx + k) % nq].pop());
        match claimed {
            Some(lane) => {
                spins = 0;
                run_lane(plane, lane);
            }
            None => {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    thread::yield_now();
                }
            }
        }
    }
}

/// Executor threads to drive `cfg` with: the explicit knob, or one per
/// lane capped by the machine's parallelism.
fn effective_executors(cfg: &TrafficConfig) -> usize {
    let req = if cfg.executors > 0 {
        cfg.executors as usize
    } else {
        thread::available_parallelism().map_or(1, |n| n.get())
    };
    req.clamp(1, cfg.workers as usize)
}

fn build_core<S: Service>(
    cfg: &TrafficConfig,
    idx: u32,
    svc: S,
    zipfs: &[Arc<Zipf>],
    mode: &Mode,
) -> LaneCore<S> {
    let mut w = Worker::new(cfg, idx, svc, zipfs, mode.tap(idx));
    let mut eng = Engine::default();
    let arrivals = match cfg.scenario {
        Scenario::OpenLoop { rate_mps } => {
            w.mark_open_loop_issued();
            match mode.replay_log() {
                Some(log) => Arrivals::Log { log: Arc::clone(log), lane: idx as usize, at: 0 },
                None => Arrivals::Draw { rate_mps, t: 0, left: cfg.messages_per_worker },
            }
        }
        Scenario::ClosedLoop { clients, .. } => {
            for _ in 0..clients.max(1) {
                eng.schedule(0, Ev::Request);
            }
            Arrivals::None
        }
    };
    let mut core = LaneCore { w, eng, arrivals, next: None, dispatched: 0, budget: cfg.event_budget() };
    core.next = core.draw();
    core
}

/// Run `cfg` on the dispatch plane.  See the module docs; the report
/// is bit-identical to both reference runners for every configuration
/// and executor count.
pub(crate) fn run_dispatch<S, F>(cfg: &TrafficConfig, make: F) -> Result<TrafficReport, Overrun>
where
    S: Service + Send,
    F: Fn(u32) -> S + Sync,
{
    Ok(run_dispatch_mode(cfg, make, Mode::Live)?.report)
}

/// [`run_dispatch`] with a trace mode threaded through: `Record` taps
/// every lane, `Replay` feeds the lanes their recorded schedules and
/// fates.
pub(crate) fn run_dispatch_mode<S, F>(
    cfg: &TrafficConfig,
    make: F,
    mode: Mode,
) -> Result<RunOut, Overrun>
where
    S: Service + Send,
    F: Fn(u32) -> S + Sync,
{
    assert!(cfg.workers >= 1, "need at least one worker");
    let lanes = cfg.workers as usize;
    let zipfs = make_zipfs(cfg);

    // Build lane pipelines — service construction can be expensive
    // (episode replay), so parallelize it exactly like the reference's
    // per-worker threads.
    let build = |i: u32| build_core(cfg, i, make(i), &zipfs, &mode);
    let cores: Vec<LaneCore<S>> = if lanes == 1 {
        vec![build(0)]
    } else {
        let build = &build;
        thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.workers).map(|i| s.spawn(move || build(i))).collect();
            handles.into_iter().map(|h| h.join().expect("lane setup panicked")).collect()
        })
    };

    let slots: Vec<LaneSlot<S>> = cores
        .into_iter()
        .map(|core| LaneSlot { state: AtomicU32::new(QUEUED), core: UnsafeCell::new(core) })
        .collect();

    let n_exec = effective_executors(cfg);
    let queues: Vec<MpscRing<u32>> =
        (0..n_exec).map(|_| MpscRing::new(lanes.next_power_of_two().max(2))).collect();
    let abort = AtomicBool::new(false);
    let done = AtomicUsize::new(0);
    let error = Mutex::new(None);
    let plane = Plane { slots: &slots, queues: &queues, abort: &abort, done: &done, error: &error };

    // Every lane starts QUEUED on its home injector.
    for i in 0..lanes {
        push_lane(&plane, i as u32);
    }

    thread::scope(|s| {
        for idx in 0..n_exec {
            s.spawn(move || executor(plane, idx));
        }
    });

    if let Some(e) = error.into_inner().expect("error mutex poisoned") {
        return Err(e);
    }
    let outs = slots.into_iter().map(|slot| slot.core.into_inner().w.finish()).collect();
    Ok(collect(outs, cfg, matches!(mode, Mode::Record)))
}
