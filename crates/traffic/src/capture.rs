//! Record/replay capture semantics for the traffic plane.
//!
//! The `trace` crate owns the wire format; this module owns the
//! *meaning* of a trace: which run-loop decisions are captured, in
//! what order, and what replay consumes versus validates.
//!
//! # The capture contract
//!
//! A recorded log is `Config` followed by the per-lane event sequences
//! concatenated in lane-index order.  Within a lane, events are
//! grouped by kind — arrivals, then RTO firings, then fates — each
//! group in the lane's processing order, which is a pure function of
//! `(config, lane index)` — the dispatch plane's bit-identity
//! invariant.  A trace is therefore identical whichever execution
//! plane produced it (dispatch, reference FIFO, reference heap) and
//! whatever the executor count.
//!
//! * **Consumed on replay** — `Arrival` (the workload draw: instant +
//!   session rank) and `Fate` (the fault-injector verdict).  Replay
//!   never touches the workload or injector RNG, so a trace replays
//!   bit-identically even on a build whose RNG or samplers changed.
//! * **Validated on replay** — `Rto` (timer firings) and `Verdict`
//!   (adaptive re-layout decisions).  These are derived from the
//!   consumed events; replay recomputes them live and any mismatch is
//!   a typed [`ReplayError::Diverged`], never a panic.
//!
//! [`TraceStream`] is the third workload source next to the open-loop
//! arrival draws and the closed-loop clients: it validates a log's
//! structural invariants up front (config present, lanes in range,
//! per-lane arrival counts and monotone times, fate counts) and then
//! drives any runner through [`replay_traffic`] / [`replay_adaptive`].
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::{Arc, OnceLock};

use kcode::events::EventStream;
use netsim::{Fate, Ns, Overrun};
use trace::{read_events, ConfigRecord, PhaseRec, RtoRec, StreamRec, TraceError, TraceEvent};

use crate::adapt::{run_adaptive_mode, AdaptConfig, AdaptReport, Candidate, SwapEvent};
use crate::dispatch::run_dispatch_mode;
use crate::policy::PolicyKind;
use crate::runloop::{reference, TrafficConfig, TrafficReport, WorkerOut};
use crate::wire::WirePath;
use crate::service::Service;
use crate::session::buckets_for_capacity;
use crate::workload::{Phase, PhasePlan, Scenario, StreamKind};

// ------------------------------------------------------------ lane taps

/// One lane's recorded decisions, split by stream so replay cursors
/// are O(1) — and so the recording tap's hot path pushes 1–24 byte
/// tuples instead of [`TraceEvent`]s (24 bytes each, and an RTO firing
/// would be a heap allocation).  Arrival/fate/RTO orders are each the
/// lane's processing order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct LaneLog {
    /// `(instant, session rank)` per fresh arrival.
    pub(crate) arrivals: Vec<(Ns, u32)>,
    pub(crate) fates: Vec<Fate>,
    /// `(fired at, session, born)` per retransmission-timer firing.
    pub(crate) rtos: Vec<(Ns, u32, Ns)>,
}

impl LaneLog {
    fn len(&self) -> usize {
        self.arrivals.len() + self.fates.len() + self.rtos.len()
    }

    /// The lane's event sequence in capture order: arrivals, then RTO
    /// firings, then fates — the grouping [`TraceStream::from_events`]
    /// splits back apart losslessly.  Both the recorded log and the
    /// stream's fingerprint are generated from it.
    fn events(&self, lane: u32) -> impl Iterator<Item = TraceEvent> + '_ {
        let arrivals = self
            .arrivals
            .iter()
            .map(move |&(at, session)| TraceEvent::Arrival { lane, at, session });
        let rtos = self.rtos.iter().map(move |&(at, session, born)| {
            TraceEvent::Rto(Box::new(RtoRec { lane, at, session, born }))
        });
        let fates = self.fates.iter().map(move |&fate| TraceEvent::Fate { lane, fate });
        arrivals.chain(rtos).chain(fates)
    }
}

/// How a run interacts with the trace subsystem.  Threaded through
/// every runner; `Live` is free (one enum discriminant per decision).
#[derive(Clone)]
pub(crate) enum Mode {
    Live,
    Record,
    Replay(Arc<Vec<LaneLog>>),
}

impl Mode {
    /// The per-lane tap this mode installs in `Worker`.
    pub(crate) fn tap(&self, lane: u32) -> Tap {
        match self {
            Mode::Live => Tap::Off,
            Mode::Record => Tap::Record(LaneLog::default()),
            // Open-loop arrivals are injected by the source (the
            // dispatch lane's own draw or the reference pre-schedule)
            // straight from the log; the worker-side cursor then
            // re-walks them as they are handled, validating instant
            // and session.
            // Closed-loop lanes *consume* them from the cursor.
            Mode::Replay(log) => Tap::Replay(LaneReplay {
                log: Arc::clone(log),
                lane: lane as usize,
                arr_at: 0,
                fate_at: 0,
                rto_at: 0,
                divergence: None,
            }),
        }
    }

    /// The recorded arrival schedule for `lane`, when replaying.
    pub(crate) fn replay_log(&self) -> Option<&Arc<Vec<LaneLog>>> {
        match self {
            Mode::Replay(log) => Some(log),
            _ => None,
        }
    }
}

/// A worker's trace endpoint: off, recording its decisions into a
/// compact [`LaneLog`], or a replay cursor substituting for its RNG
/// draws.
pub(crate) enum Tap {
    Off,
    Record(LaneLog),
    Replay(LaneReplay),
}

/// Replay cursors over one lane's log.  Divergence (cursor
/// exhaustion, instant/session mismatch) is latched — first message
/// wins — and surfaced after the run; the replay substitutes safe
/// values and keeps going so the report stays well-formed.
pub(crate) struct LaneReplay {
    log: Arc<Vec<LaneLog>>,
    lane: usize,
    arr_at: usize,
    fate_at: usize,
    rto_at: usize,
    divergence: Option<String>,
}

impl LaneReplay {
    fn diverge(&mut self, msg: String) {
        if self.divergence.is_none() {
            self.divergence = Some(format!("lane {}: {msg}", self.lane));
        }
    }

    /// Pop the next recorded arrival (closed loop: the workload draw).
    pub(crate) fn next_arrival(&mut self, t: Ns) -> u32 {
        let rec = self.log[self.lane].arrivals.get(self.arr_at).copied();
        self.arr_at += 1;
        match rec {
            Some((at, session)) => {
                if at != t {
                    self.diverge(format!(
                        "arrival {} issued at {t} ns, trace says {at} ns",
                        self.arr_at - 1
                    ));
                }
                session
            }
            None => {
                self.diverge(format!("arrival {} beyond end of trace", self.arr_at - 1));
                0
            }
        }
    }

    /// Validate an arrival injected by the open-loop source against
    /// the cursor (the source already read it from the log).
    pub(crate) fn check_arrival(&mut self, t: Ns, session: u32) {
        let rec = self.log[self.lane].arrivals.get(self.arr_at).copied();
        self.arr_at += 1;
        match rec {
            Some((at, s)) if at == t && s == session => {}
            Some((at, s)) => self.diverge(format!(
                "arrival {} is ({t} ns, session {session}), trace says ({at} ns, session {s})",
                self.arr_at - 1
            )),
            None => self.diverge(format!("arrival {} beyond end of trace", self.arr_at - 1)),
        }
    }

    /// Pop the next recorded fault-injector fate.
    pub(crate) fn next_fate(&mut self) -> Fate {
        let rec = self.log[self.lane].fates.get(self.fate_at).copied();
        self.fate_at += 1;
        match rec {
            Some(f) => f,
            None => {
                self.diverge(format!("fate {} beyond end of trace", self.fate_at - 1));
                Fate::Delivered
            }
        }
    }

    /// Validate a retransmission-timer firing against the log.
    pub(crate) fn check_rto(&mut self, t: Ns, session: u32, born: Ns) {
        let rec = self.log[self.lane].rtos.get(self.rto_at).copied();
        self.rto_at += 1;
        match rec {
            Some(r) if r == (t, session, born) => {}
            Some((at, s, b)) => self.diverge(format!(
                "rto {} fired as ({t} ns, session {session}, born {born}), \
                 trace says ({at} ns, session {s}, born {b})",
                self.rto_at - 1
            )),
            None => self.diverge(format!("rto firing {} not in trace", self.rto_at - 1)),
        }
    }

    /// End-of-run check: every recorded decision must have been
    /// consumed or validated.
    pub(crate) fn finish(mut self) -> Option<String> {
        let log = &self.log[self.lane];
        let (a, f, r) = (
            log.arrivals.len().saturating_sub(self.arr_at),
            log.fates.len().saturating_sub(self.fate_at),
            log.rtos.len().saturating_sub(self.rto_at),
        );
        if a + f + r > 0 {
            self.diverge(format!(
                "run ended with {a} arrivals, {f} fates, {r} rto firings unconsumed"
            ));
        }
        self.divergence
    }
}

// ------------------------------------------------------------- run output

/// A mode-aware run's full output: the merged report plus whatever the
/// taps produced (lane-ordered events when recording, the first
/// divergence when replaying).
pub(crate) struct RunOut {
    pub(crate) report: TrafficReport,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) diverged: Option<String>,
}

/// Merge per-lane outputs (already in lane-index order) into a
/// [`RunOut`]: lane logs materialize into one concatenated event
/// sequence (prefixed with the `Config` record when recording, so the
/// log never has to be re-copied to front-load it), the first
/// divergence wins.
pub(crate) fn collect(mut outs: Vec<WorkerOut>, cfg: &TrafficConfig, recording: bool) -> RunOut {
    let total: usize = outs.iter().map(|o| o.log.len()).sum();
    let mut events = Vec::with_capacity(total + usize::from(recording));
    if recording {
        events.push(TraceEvent::Config(Box::new(config_to_record(cfg))));
    }
    let mut diverged = None;
    for (lane, o) in outs.iter_mut().enumerate() {
        events.extend(std::mem::take(&mut o.log).events(lane as u32));
        if diverged.is_none() {
            diverged = o.diverged.take();
        }
    }
    RunOut { report: TrafficReport::from_workers(outs, cfg.workers), events, diverged }
}

// ----------------------------------------------------- config conversion

fn stream_to_rec(kind: StreamKind) -> StreamRec {
    match kind {
        StreamKind::Zipf => StreamRec { kind: 0, a: 0, b: 0 },
        StreamKind::StackDepth { milli_p } => StreamRec { kind: 1, a: milli_p, b: 0 },
        StreamKind::Train { milli_cont } => StreamRec { kind: 2, a: milli_cont, b: 0 },
        StreamKind::Conflict { slots, cycle } => StreamRec { kind: 3, a: slots, b: cycle },
    }
}

fn stream_from_rec(rec: &StreamRec) -> Result<StreamKind, TraceError> {
    Ok(match rec.kind {
        0 => StreamKind::Zipf,
        1 => StreamKind::StackDepth { milli_p: rec.a },
        2 => StreamKind::Train { milli_cont: rec.a },
        3 => StreamKind::Conflict { slots: rec.a, cycle: rec.b },
        k => return Err(invalid(format!("unknown stream kind code {k}"))),
    })
}

fn invalid(what: String) -> TraceError {
    TraceError::Invalid { what }
}

/// Flatten a [`TrafficConfig`] into the wire-stable [`ConfigRecord`].
pub fn config_to_record(cfg: &TrafficConfig) -> ConfigRecord {
    let (scenario_kind, scenario_a, scenario_b) = match cfg.scenario {
        Scenario::OpenLoop { rate_mps } => (0u8, rate_mps, 0),
        Scenario::ClosedLoop { clients, think_ns } => (1, clients as u64, think_ns),
    };
    let (policy_kind, policy_param) = match cfg.policy {
        PolicyKind::OneEntry => (0u8, 0u32),
        PolicyKind::DirectMapped { slots } => (1, slots),
        PolicyKind::TwoWayLru { sets } => (2, sets),
        PolicyKind::Fifo { slots } => (3, slots),
        PolicyKind::Random { slots } => (4, slots),
    };
    let mut phases = [PhaseRec::default(); trace::MAX_PHASES];
    let mut n_phases = 0u32;
    for (slot, p) in phases.iter_mut().zip(cfg.phases.iter()) {
        *slot = PhaseRec {
            stream: stream_to_rec(p.stream),
            milli_theta: p.milli_theta,
            duration_ns: p.duration_ns,
            settle_ns: p.settle_ns,
        };
        n_phases += 1;
    }
    ConfigRecord {
        scenario_kind,
        scenario_a,
        scenario_b,
        messages_per_worker: cfg.messages_per_worker,
        sessions: cfg.sessions,
        shards: cfg.shards,
        shard_capacity: cfg.shard_capacity,
        shard_budget_bytes: cfg.shard_budget_bytes,
        milli_theta: cfg.milli_theta,
        workers: cfg.workers,
        executors: cfg.executors,
        seed: cfg.seed,
        drop_ppm: cfg.drop_ppm,
        corrupt_ppm: cfg.corrupt_ppm,
        reorder_ppm: cfg.reorder_ppm,
        duplicate_ppm: cfg.duplicate_ppm,
        wire_kind: cfg.wire.code(),
        truncate_ppm: cfg.truncate_ppm,
        malform_ppm: cfg.malform_ppm,
        fragment_ppm: cfg.fragment_ppm,
        policy_kind,
        policy_param,
        stream: stream_to_rec(cfg.stream),
        n_phases,
        phases,
    }
}

/// Rebuild a [`TrafficConfig`] from a wire record, validating every
/// constraint the in-memory constructors would assert and bounding
/// every size a run allocates for up front, so a hostile trace yields
/// a typed error rather than a panic or an allocation abort.
pub fn config_from_record(rec: &ConfigRecord) -> Result<TrafficConfig, TraceError> {
    let scenario = match rec.scenario_kind {
        0 => {
            if rec.scenario_a == 0 {
                return Err(invalid("open-loop rate must be positive".into()));
            }
            Scenario::OpenLoop { rate_mps: rec.scenario_a }
        }
        1 => {
            let clients = u32::try_from(rec.scenario_a)
                .map_err(|_| invalid("closed-loop client count exceeds u32".into()))?;
            Scenario::ClosedLoop { clients, think_ns: rec.scenario_b }
        }
        k => return Err(invalid(format!("unknown scenario kind code {k}"))),
    };
    let param = rec.policy_param;
    let policy = match rec.policy_kind {
        0 => PolicyKind::OneEntry,
        1 | 2 if !param.is_power_of_two() => {
            return Err(invalid(format!("policy size {param} is not a power of two")));
        }
        3 | 4 if param == 0 => return Err(invalid("policy slot count must be positive".into())),
        1 => PolicyKind::DirectMapped { slots: param },
        2 => PolicyKind::TwoWayLru { sets: param },
        3 => PolicyKind::Fifo { slots: param },
        4 => PolicyKind::Random { slots: param },
        k => return Err(invalid(format!("unknown policy kind code {k}"))),
    };
    if rec.workers == 0 {
        return Err(invalid("worker count must be at least 1".into()));
    }
    if !rec.shards.is_power_of_two() {
        return Err(invalid(format!("shard count {} is not a power of two", rec.shards)));
    }
    if rec.shard_capacity == 0 && rec.shard_budget_bytes == 0 {
        return Err(invalid("shard capacity must be positive without a byte budget".into()));
    }
    // The fault injector asserts every probability lies in [0, 1].
    let ppms = [
        ("drop", rec.drop_ppm),
        ("corrupt", rec.corrupt_ppm),
        ("reorder", rec.reorder_ppm),
        ("duplicate", rec.duplicate_ppm),
        ("truncate", rec.truncate_ppm),
        ("malform", rec.malform_ppm),
        ("fragment", rec.fragment_ppm),
    ];
    if let Some((what, ppm)) = ppms.into_iter().find(|&(_, ppm)| ppm > 1_000_000) {
        return Err(invalid(format!("{what} probability {ppm} ppm exceeds 1000000")));
    }
    let recs = rec.phases();
    let mut phases = Vec::with_capacity(recs.len());
    for (i, p) in recs.iter().enumerate() {
        if p.duration_ns == 0 && i + 1 != recs.len() {
            return Err(invalid(format!("phase {i} has zero duration but is not last")));
        }
        phases.push(Phase {
            stream: stream_from_rec(&p.stream)?,
            milli_theta: p.milli_theta,
            duration_ns: p.duration_ns,
            settle_ns: p.settle_ns,
        });
    }
    let cfg = TrafficConfig {
        scenario,
        messages_per_worker: rec.messages_per_worker,
        sessions: rec.sessions,
        shards: rec.shards,
        shard_capacity: rec.shard_capacity,
        shard_budget_bytes: rec.shard_budget_bytes,
        milli_theta: rec.milli_theta,
        workers: rec.workers,
        executors: rec.executors,
        seed: rec.seed,
        drop_ppm: rec.drop_ppm,
        corrupt_ppm: rec.corrupt_ppm,
        reorder_ppm: rec.reorder_ppm,
        duplicate_ppm: rec.duplicate_ppm,
        wire: WirePath::from_code(rec.wire_kind)
            .ok_or_else(|| invalid(format!("unknown wire path code {}", rec.wire_kind)))?,
        truncate_ppm: rec.truncate_ppm,
        malform_ppm: rec.malform_ppm,
        fragment_ppm: rec.fragment_ppm,
        policy,
        stream: stream_from_rec(&rec.stream)?,
        phases: if phases.is_empty() { PhasePlan::none() } else { PhasePlan::new(&phases) },
    };
    check_sizes(&cfg)?;
    Ok(cfg)
}

// A run allocates for these sizes before it handles one message: a
// lane (and, on the reference plane, a thread) per worker, a Zipf CDF
// entry per session per phase, an engine event per closed-loop client,
// and per lane a session table whose every shard holds an entry queue,
// address-cache slots and hash buckets.  Through them a corrupt record
// can ask for hundreds of gigabytes (`u32::MAX` workers is a 309 GB
// lane vector), which aborts the process instead of failing.  Each cap
// sits orders of magnitude above any configuration the repository runs
// (at most 8 workers, 512 sessions, 16 clients and 16 shards of a few
// hundred entries).
const MAX_WORKERS: u32 = 1 << 8;
const MAX_SESSIONS: u32 = 1 << 20;
const MAX_CLIENTS: u32 = 1 << 16;
/// Session-table slots (entries + cache slots + buckets), summed over
/// every shard of every lane.
const MAX_TABLE_SLOTS: u64 = 1 << 24;

fn check_sizes(cfg: &TrafficConfig) -> Result<(), TraceError> {
    if cfg.workers > MAX_WORKERS {
        return Err(invalid(format!("worker count {} exceeds {MAX_WORKERS}", cfg.workers)));
    }
    if cfg.sessions > MAX_SESSIONS {
        return Err(invalid(format!("session count {} exceeds {MAX_SESSIONS}", cfg.sessions)));
    }
    if let Scenario::ClosedLoop { clients, .. } = cfg.scenario {
        if clients > MAX_CLIENTS {
            return Err(invalid(format!("client count {clients} exceeds {MAX_CLIENTS}")));
        }
    }
    let capacity = cfg.effective_shard_capacity();
    let per_shard = (capacity + cfg.policy.entries() + buckets_for_capacity(capacity)) as u64;
    let slots = (u64::from(cfg.workers) * u64::from(cfg.shards)).saturating_mul(per_shard);
    if slots > MAX_TABLE_SLOTS {
        return Err(invalid(format!(
            "{} workers x {} shards x {per_shard} slots exceed {MAX_TABLE_SLOTS} session-table slots",
            cfg.workers, cfg.shards
        )));
    }
    Ok(())
}

// ------------------------------------------------------------ TraceStream

/// A validated, replayable trace: the third workload source.
///
/// Construction checks the structural invariants a well-formed capture
/// guarantees — a single leading `Config`, every lane index in range,
/// per-lane arrival counts equal to the configured quota with
/// non-decreasing instants, and one fate per injector consultation
/// (`fates == arrivals + rto firings`) — so the runners can index the
/// log without further bounds concerns.
///
/// Streams compare by content, so a memo keyed by a stream never takes
/// one trace for another whose 64-bit fingerprint collides with it:
/// the config record as it was decoded, the lane logs (a shared `Arc`
/// short-circuits) and the verdicts.  The executor count replay runs
/// under ([`with_executors`](Self::with_executors)) is not compared;
/// re-slicing changes no replayed bit.  The hash is the fingerprint,
/// computed on the first lookup and shared with every clone, so a memo
/// that clones the stream into its key pays for it once.
#[derive(Clone)]
pub struct TraceStream {
    /// The config record exactly as the log carried it, executor count
    /// included; the fingerprint is computed from it.
    rec: ConfigRecord,
    /// The run configuration replay uses, rebuilt from `rec`.
    cfg: TrafficConfig,
    lanes: Arc<Vec<LaneLog>>,
    verdicts: Vec<SwapEvent>,
    fp: Arc<OnceLock<u64>>,
}

impl PartialEq for TraceStream {
    fn eq(&self, other: &Self) -> bool {
        self.rec == other.rec
            && (Arc::ptr_eq(&self.lanes, &other.lanes) || self.lanes == other.lanes)
            && self.verdicts == other.verdicts
    }
}

impl Eq for TraceStream {}

impl Hash for TraceStream {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.fingerprint().hash(state);
    }
}

impl TraceStream {
    /// Validate a decoded event log into a replayable stream.
    ///
    /// One pass splits the log into per-lane logs, each pre-sized for
    /// the configured quota of arrivals and, at its first fate, for a
    /// fate per arrival and per RTO firing, but never for more than the
    /// log's share per lane, so a corrupt quota cannot reserve memory
    /// the events do not back.  Nothing is hashed here: the
    /// fingerprint is computed when first asked for.
    pub fn from_events(events: &[TraceEvent]) -> Result<Self, TraceError> {
        let rec = match events.first() {
            Some(TraceEvent::Config(c)) => c,
            Some(_) => return Err(invalid("trace must begin with its config record".into())),
            None => return Err(invalid("trace is empty".into())),
        };
        let cfg = config_from_record(rec)?;
        let workers = cfg.workers as usize;
        // A valid lane holds its quota of arrivals and a fate per
        // arrival and per RTO firing.
        let share = events.len() / workers;
        let quota = cfg.messages_per_worker as usize;
        let mut lanes: Vec<LaneLog> = (0..workers)
            .map(|_| LaneLog {
                arrivals: Vec::with_capacity(quota.min(share)),
                fates: Vec::new(),
                rtos: Vec::new(),
            })
            .collect();
        let mut verdicts = Vec::new();
        for ev in &events[1..] {
            let lane = match ev {
                TraceEvent::Config(_) => {
                    return Err(invalid("trace carries more than one config record".into()))
                }
                TraceEvent::Arrival { lane, .. } | TraceEvent::Fate { lane, .. } => *lane,
                TraceEvent::Rto(r) => r.lane,
                TraceEvent::Verdict(v) => v.lane,
            };
            if lane as usize >= workers {
                return Err(invalid(format!(
                    "event lane {lane} out of range for {workers} workers"
                )));
            }
            let log = &mut lanes[lane as usize];
            match ev {
                TraceEvent::Arrival { at, session, .. } => log.arrivals.push((*at, *session)),
                TraceEvent::Fate { fate, .. } => {
                    // In capture order a lane's RTO firings precede its
                    // fates, so the first fate knows how many follow.
                    if log.fates.capacity() == 0 {
                        log.fates.reserve_exact((quota + log.rtos.len()).min(share));
                    }
                    log.fates.push(*fate)
                }
                TraceEvent::Rto(r) => log.rtos.push((r.at, r.session, r.born)),
                TraceEvent::Verdict(v) => verdicts.push(SwapEvent {
                    lane: v.lane,
                    at: v.at,
                    from: v.from.clone(),
                    to: v.to.clone(),
                    trigger_fp: v.trigger_fp,
                    noop: v.noop,
                }),
                TraceEvent::Config(_) => unreachable!("rejected above"),
            }
        }
        for (i, log) in lanes.iter().enumerate() {
            if log.arrivals.len() != cfg.messages_per_worker as usize {
                return Err(invalid(format!(
                    "lane {i} has {} arrivals, config says {}",
                    log.arrivals.len(),
                    cfg.messages_per_worker
                )));
            }
            if log.arrivals.windows(2).any(|w| w[0].0 > w[1].0) {
                return Err(invalid(format!("lane {i} arrival instants decrease")));
            }
            let expect = log.arrivals.len() + log.rtos.len();
            if log.fates.len() != expect {
                return Err(invalid(format!(
                    "lane {i} has {} fates for {} sends (arrivals + rto firings)",
                    log.fates.len(),
                    expect
                )));
            }
        }
        Ok(TraceStream {
            rec: **rec,
            cfg,
            lanes: Arc::new(lanes),
            verdicts,
            fp: Arc::default(),
        })
    }

    /// Load and validate a trace file (codec by extension).
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        Self::from_events(&read_events(path)?)
    }

    /// The run configuration the trace was captured under.
    pub fn config(&self) -> TrafficConfig {
        self.cfg
    }

    /// Override the executor count for replay.  Results must not
    /// change — the point of the `trace` bench suite's re-slice probe.
    pub fn with_executors(mut self, executors: u32) -> Self {
        self.cfg.executors = executors;
        self
    }

    /// Content fingerprint of the stream: FNV-1a over the binary
    /// encoding of its canonical log ([`trace::fingerprint`]), and the
    /// stream's hash.  The canonical log is the config record as it was
    /// decoded, then each lane in index order (its arrivals, then its
    /// RTO firings, then its fates), then the verdicts: the order
    /// [`record_traffic`] and [`record_adaptive`] write.  For every
    /// recorded log the value therefore equals
    /// `trace::fingerprint(events)`.  A hand-built log that interleaves
    /// lanes or kinds fingerprints as its canonical reordering, which
    /// compares equal to it.
    ///
    /// Computed on the first call on the stream or any clone of it,
    /// streaming the canonical log into the hash one record at a time,
    /// and kept; neither the log nor its encoding is materialized.
    /// [`with_executors`](Self::with_executors) leaves it unchanged.
    pub fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| trace::fingerprint(self.canonical_events()))
    }

    /// The stream's events in capture order (see
    /// [`fingerprint`](Self::fingerprint)).
    fn canonical_events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        std::iter::once(TraceEvent::Config(Box::new(self.rec)))
            .chain(self.lanes.iter().zip(0..).flat_map(|(log, lane)| log.events(lane)))
            .chain(verdict_events(&self.verdicts))
    }

    /// Recorded adaptive re-layout verdicts, lane-then-time ordered.
    pub fn verdicts(&self) -> &[SwapEvent] {
        &self.verdicts
    }

    /// Whether the trace was captured from an adaptive run.
    pub fn has_verdicts(&self) -> bool {
        !self.verdicts.is_empty()
    }

    fn mode(&self) -> Mode {
        Mode::Replay(Arc::clone(&self.lanes))
    }
}

// ---------------------------------------------------------- entry points

/// Why a replay failed.
#[derive(Debug)]
pub enum ReplayError {
    /// The underlying run blew its event budget.
    Engine(Overrun),
    /// The trace was structurally unusable for this operation.
    Trace(TraceError),
    /// The run executed but its decisions did not match the trace.
    Diverged(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Engine(e) => write!(f, "replay overran: {e:?}"),
            ReplayError::Trace(e) => write!(f, "replay rejected trace: {e}"),
            ReplayError::Diverged(d) => write!(f, "replay diverged from trace: {d}"),
        }
    }
}

impl std::error::Error for ReplayError {}

fn seal(out: RunOut) -> (TrafficReport, Vec<TraceEvent>) {
    debug_assert!(
        matches!(out.events.first(), Some(TraceEvent::Config(_))),
        "recording runs must front-load the config record in collect()"
    );
    (out.report, out.events)
}

fn surface(out: RunOut) -> Result<TrafficReport, ReplayError> {
    match out.diverged {
        Some(d) => Err(ReplayError::Diverged(d)),
        None => Ok(out.report),
    }
}

/// Run `cfg` on the dispatch plane while capturing every RNG-driven
/// decision.  Returns the ordinary report plus the complete event log
/// (leading `Config` included), ready for [`trace::write_events`].
pub fn record_traffic<S, F>(
    cfg: &TrafficConfig,
    make: F,
) -> Result<(TrafficReport, Vec<TraceEvent>), Overrun>
where
    S: Service,
    F: Fn(u32) -> S + Sync,
{
    let out = run_dispatch_mode(cfg, make, Mode::Record)?;
    Ok(seal(out))
}

/// [`record_traffic`] on the seed heap reference plane.  Exists to
/// prove the trace itself is plane-independent: for any configuration
/// the two event logs must be identical.
pub fn record_traffic_reference<S, F>(
    cfg: &TrafficConfig,
    make: F,
) -> Result<(TrafficReport, Vec<TraceEvent>), Overrun>
where
    S: Service,
    F: Fn(u32) -> S + Sync,
{
    let out = reference::run_traffic_heap_mode(cfg, make, Mode::Record)?;
    Ok(seal(out))
}

/// Replay a recorded trace through the dispatch plane: arrivals and
/// fates come from the log, RTO firings are validated against it.  The
/// returned report is bit-identical to the recording run's.
pub fn replay_traffic<S, F>(stream: &TraceStream, make: F) -> Result<TrafficReport, ReplayError>
where
    S: Service,
    F: Fn(u32) -> S + Sync,
{
    if stream.has_verdicts() {
        return Err(ReplayError::Trace(invalid(
            "trace carries adapt verdicts; replay it with replay_adaptive".into(),
        )));
    }
    let out = run_dispatch_mode(&stream.cfg, make, stream.mode()).map_err(ReplayError::Engine)?;
    surface(out)
}

/// [`replay_traffic`] on the seed heap reference plane.
pub fn replay_traffic_reference<S, F>(
    stream: &TraceStream,
    make: F,
) -> Result<TrafficReport, ReplayError>
where
    S: Service,
    F: Fn(u32) -> S + Sync,
{
    if stream.has_verdicts() {
        return Err(ReplayError::Trace(invalid(
            "trace carries adapt verdicts; replay it with replay_adaptive".into(),
        )));
    }
    let out = reference::run_traffic_heap_mode(&stream.cfg, make, stream.mode())
        .map_err(ReplayError::Engine)?;
    surface(out)
}

fn verdict_events(swaps: &[SwapEvent]) -> impl Iterator<Item = TraceEvent> + '_ {
    swaps.iter().map(|s| {
        TraceEvent::Verdict(Box::new(trace::VerdictRec {
            lane: s.lane,
            at: s.at,
            trigger_fp: s.trigger_fp,
            from: s.from.clone(),
            to: s.to.clone(),
            noop: s.noop,
        }))
    })
}

/// Record a full adaptive run: the traffic capture plus one `Verdict`
/// event per re-layout swap (lane-then-time ordered, after the lane
/// sequences).
pub fn record_adaptive(
    cfg: &TrafficConfig,
    adapt: &AdaptConfig,
    episode: &EventStream,
    candidates: &[Candidate],
    initial: usize,
) -> Result<(TrafficReport, AdaptReport, Vec<TraceEvent>), Overrun> {
    let (out, areport) = run_adaptive_mode(cfg, adapt, episode, candidates, initial, Mode::Record)?;
    let (report, mut events) = seal(out);
    events.extend(verdict_events(&areport.swaps));
    Ok((report, areport, events))
}

/// Replay an adaptive trace: arrivals/fates are consumed from the log
/// while the adaptation machinery (profiling windows, re-layout
/// worker, swaps) runs live; the resulting swap timeline must equal
/// the recorded verdicts exactly.
pub fn replay_adaptive(
    stream: &TraceStream,
    adapt: &AdaptConfig,
    episode: &EventStream,
    candidates: &[Candidate],
    initial: usize,
) -> Result<(TrafficReport, AdaptReport), ReplayError> {
    let (out, areport) = run_adaptive_mode(
        &stream.cfg,
        adapt,
        episode,
        candidates,
        initial,
        stream.mode(),
    )
    .map_err(ReplayError::Engine)?;
    if let Some(d) = out.diverged {
        return Err(ReplayError::Diverged(d));
    }
    if areport.swaps != stream.verdicts {
        return Err(ReplayError::Diverged(format!(
            "adapt verdicts diverged: run produced {} swaps, trace records {}",
            areport.swaps.len(),
            stream.verdicts.len()
        )));
    }
    Ok((out.report, areport))
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;

    use super::*;

    fn hash_of(s: &TraceStream) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn streams_sharing_a_fingerprint_are_equal_only_with_equal_content() {
        let cfg = TrafficConfig::open_loop(2_000, 1, 1);
        let stream = |at: Ns| TraceStream {
            rec: config_to_record(&cfg),
            cfg,
            lanes: Arc::new(vec![LaneLog {
                arrivals: vec![(at, 0)],
                fates: vec![Fate::Delivered],
                rtos: Vec::new(),
            }]),
            verdicts: Vec::new(),
            fp: Arc::new(OnceLock::from(7)),
        };
        let (a, b) = (stream(10), stream(20));
        assert_eq!(hash_of(&a), hash_of(&b), "one forged fingerprint, one hash");
        assert!(
            a != b,
            "different lanes behind one fingerprint must not compare equal"
        );
        assert!(a == stream(10));
        assert!(
            a == a.clone().with_executors(3),
            "re-slicing keeps the content"
        );
    }

    #[test]
    fn clones_share_one_lazily_computed_fingerprint() {
        let cfg = TrafficConfig::open_loop(2_000, 1, 1);
        let events = vec![
            TraceEvent::Config(Box::new(config_to_record(&cfg))),
            TraceEvent::Arrival { lane: 0, at: 10, session: 0 },
            TraceEvent::Fate { lane: 0, fate: Fate::Delivered },
        ];
        let stream = TraceStream::from_events(&events).unwrap();
        assert!(stream.fp.get().is_none(), "validation hashes nothing");
        let key = stream.clone().with_executors(3);
        let want = trace::fingerprint(&events);
        assert_eq!(key.fingerprint(), want);
        assert_eq!(stream.fp.get(), Some(&want), "a clone's first hash serves the original");
    }
}
