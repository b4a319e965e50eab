//! The dispatch plane — the default execution of
//! [`run_traffic`](crate::run_traffic).
//!
//! The seed loop ([`runloop::reference`](crate::runloop::reference))
//! pre-schedules every open-loop arrival into each lane's event engine
//! and drains it on one thread per lane.  That ties the thread count to
//! the lane count and keeps the whole arrival schedule resident in the
//! engine all run long.  This module runs each lane to completion
//! instead, the way the x-kernel carries a message through the whole
//! stack on one thread:
//!
//! * every lane is **self-driving**: its open-loop arrival schedule is
//!   a pure function of `(seed, lane)` — the lane's own workload RNG
//!   and reference stream, or its recorded `LaneLog` on replay — so
//!   the lane draws its next arrival on demand and merges it against
//!   its engine's dynamic events (retransmissions, redeliveries).
//!   Nothing crosses a thread to feed a lane, and a lane never waits;
//! * `executors` threads share one work queue of lane indices
//!   ([`netsim::par_map`]).  A thread claims the next lane, builds it
//!   (`make(i)` and its engine), runs it until its input and events
//!   are spent, and drops it, so at most `executors` lanes are alive at
//!   once and each lane's service lives on one thread;
//! * results come back in lane order and merge there, so when lanes
//!   overrun their event budget the lowest failing lane's error wins,
//!   exactly as in both reference runners.
//!
//! # Why this is bit-identical to the seed FIFO
//!
//! A lane's simulation is a pure function of `(config, lane index)`;
//! executors only decide *where* and *when* it runs.  Within a lane,
//! the merge rule reproduces the seed's processing order exactly: the
//! seed pre-schedules arrivals before any dynamic event exists, so at
//! equal timestamps an arrival always dispatches first — a lane
//! therefore processes an engine event only when it is strictly earlier
//! than the lane's next arrival.  That next arrival is always known
//! (drawn one ahead), so no event ever waits on input from elsewhere.
//! The draws consume the lane's workload RNG in the seed's order (gap,
//! then session, arrival by arrival), and open-loop handling never
//! touches that RNG, so drawing lazily yields the seed's schedule.
//! Identical processing order means identical `schedule()` call order,
//! hence identical relative tie-break sequence numbers — bit-identity
//! follows by induction, for any executor count.  `traffic/tests/
//! dispatch_equivalence.rs` pins this against both reference runners,
//! and `traffic/tests/trace_replay.rs` pins the tie rule on a trace
//! whose every duplicate redelivery ties with an arrival.

use std::sync::Arc;
use std::thread;

use netsim::{par_map, Engine, Ns, Overrun};

use crate::capture::{collect, LaneLog, Mode, RunOut};
use crate::runloop::{make_zipfs, Ev, TrafficConfig, TrafficReport, Worker, WorkerOut};
use crate::service::Service;
use crate::workload::{exp_gap_ns, Scenario, Zipf};

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

/// A lane's complete mutable pipeline, built, run and dropped on one
/// executor thread.
struct LaneCore<S> {
    w: Worker<S>,
    eng: Engine<Ev>,
    arrivals: Arrivals,
    /// The next arrival `(instant, session rank)`, drawn one ahead.
    next: Option<(Ns, u32)>,
    dispatched: u64,
    budget: u64,
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

    /// Process one unit: the next arrival or engine event, whichever
    /// comes first.  Returns `Ok(false)` once the lane's input and
    /// events are spent.  This is the merge the bit-identity argument
    /// rests on: arrivals win ties.
    fn step(&mut self) -> Result<bool, Overrun> {
        let event_first = match (self.next, self.eng.peek_time()) {
            (Some((ta, _)), Some(te)) => te < ta,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => return Ok(false),
        };
        if self.dispatched >= self.budget {
            return Err(Overrun::EventBudget {
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
        Ok(true)
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

/// Build lane `idx` and run it to completion.
fn run_lane<S: Service>(
    cfg: &TrafficConfig,
    idx: u32,
    svc: S,
    zipfs: &[Arc<Zipf>],
    mode: &Mode,
) -> Result<WorkerOut, Overrun> {
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
    while core.step()? {}
    Ok(core.w.finish())
}

/// Run `cfg` on the dispatch plane.  See the module docs; the report
/// is bit-identical to both reference runners for every configuration
/// and executor count.
pub(crate) fn run_dispatch<S, F>(cfg: &TrafficConfig, make: F) -> Result<TrafficReport, Overrun>
where
    S: Service,
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
    S: Service,
    F: Fn(u32) -> S + Sync,
{
    assert!(cfg.workers >= 1, "need at least one worker");
    let zipfs = make_zipfs(cfg);
    let lanes: Vec<u32> = (0..cfg.workers).collect();
    let outs = par_map(effective_executors(cfg), &lanes, |&i| run_lane(cfg, i, make(i), &zipfs, &mode))
        .into_iter()
        .collect::<Result<_, _>>()?;
    Ok(collect(outs, cfg, matches!(mode, Mode::Record)))
}
