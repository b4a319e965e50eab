//! The narrow-waist event sum type.
//!
//! Every variant is one RNG-driven (or RNG-derived) decision the
//! serving run loop consumes, tagged with the lane it belongs to.  The
//! recorded file is the per-lane event sequences concatenated in
//! lane-index order, so a trace is identical for every execution plane
//! and executor count — the same invariant the dispatch plane's
//! bit-identity argument rests on.

use netsim::{Fate, Ns};

/// One recorded run-loop decision.
///
/// * [`Config`](TraceEvent::Config) — the full run configuration; must
///   be the first event of a log, exactly once.  A trace is
///   self-contained: replay needs nothing but the file.
/// * [`Arrival`](TraceEvent::Arrival) — a fresh workload arrival (open
///   loop: the generator's drawn instant; closed loop: the request
///   instant) with its lane-local session rank.  *Consumed* on replay
///   in place of the workload RNG.
/// * [`Fate`](TraceEvent::Fate) — the fault injector's verdict for one
///   frame, in lane arrival-processing order.  *Consumed* on replay in
///   place of the injector RNG.
/// * [`Rto`](TraceEvent::Rto) — a retransmission timer firing.
///   Derived (a pure consequence of the fates), recorded for anomaly
///   forensics and *validated* on replay.
/// * [`Verdict`](TraceEvent::Verdict) — an adaptive re-layout verdict
///   applied at an epoch boundary.  Deterministic given the
///   arrivals/fates, recorded so adaptive replays can assert the swap
///   timeline matches; *validated* on replay.
///
/// Every payload larger than an arrival is boxed: `Config` occurs once
/// per trace, `Verdict` a few times, and `Rto` for under 1 % of events,
/// while `Arrival` and `Fate` number in the hundreds of thousands.  That
/// keeps the enum at 24 bytes, an arrival's 16 bytes plus its aligned
/// tag (an unboxed `Rto` would make it 32), and a materialized log, or
/// the vector a decode reserves, a quarter smaller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    Config(Box<ConfigRecord>),
    Arrival { lane: u32, at: Ns, session: u32 },
    Fate { lane: u32, fate: Fate },
    Rto(Box<RtoRec>),
    Verdict(Box<VerdictRec>),
}

const _: () = assert!(std::mem::size_of::<TraceEvent>() == 24);

/// Payload of one retransmission-timer firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtoRec {
    pub lane: u32,
    /// The instant the timer fired.
    pub at: Ns,
    pub session: u32,
    /// The instant the retransmitted message was first sent.
    pub born: Ns,
}

/// Payload of one adaptive re-layout verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictRec {
    pub lane: u32,
    pub at: Ns,
    pub trigger_fp: u64,
    pub from: String,
    pub to: String,
    pub noop: bool,
}

/// Maximum phases a [`ConfigRecord`] can carry — mirrors the traffic
/// plane's `PhasePlan` capacity.
pub const MAX_PHASES: usize = 4;

/// Wire-stable encoding of one reference-stream selector: a kind code
/// (see [`stream_name`]) plus two integer parameters whose meaning
/// depends on the kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamRec {
    pub kind: u8,
    pub a: u32,
    pub b: u32,
}

/// Wire-stable encoding of one workload phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseRec {
    pub stream: StreamRec,
    pub milli_theta: u32,
    pub duration_ns: u64,
    pub settle_ns: u64,
}

/// Wire-stable, flat encoding of a traffic run configuration.  The
/// traffic crate converts to/from its own `TrafficConfig`; this struct
/// deliberately knows nothing about it, so the wire format cannot
/// drift when in-memory types are refactored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigRecord {
    /// 0 = open loop (`scenario_a` = rate msg/s), 1 = closed loop
    /// (`scenario_a` = clients, `scenario_b` = think ns).
    pub scenario_kind: u8,
    pub scenario_a: u64,
    pub scenario_b: u64,
    pub messages_per_worker: u32,
    pub sessions: u32,
    pub shards: u32,
    pub shard_capacity: u32,
    pub shard_budget_bytes: u32,
    pub milli_theta: u32,
    pub workers: u32,
    /// Executor count the run was recorded under.  Provenance only —
    /// replay may run any executor count and must still be
    /// bit-identical.
    pub executors: u32,
    pub seed: u64,
    pub drop_ppm: u32,
    pub corrupt_ppm: u32,
    pub reorder_ppm: u32,
    pub duplicate_ppm: u32,
    /// Wire-path code (see [`wire_name`]): which data plane served the
    /// run — descriptor, zero-copy bytes, or the reference codec.
    pub wire_kind: u8,
    pub truncate_ppm: u32,
    pub malform_ppm: u32,
    pub fragment_ppm: u32,
    /// Demux cache policy code (see [`policy_name`]) plus its size
    /// parameter.
    pub policy_kind: u8,
    pub policy_param: u32,
    pub stream: StreamRec,
    pub n_phases: u32,
    pub phases: [PhaseRec; MAX_PHASES],
}

impl ConfigRecord {
    /// The phases actually present.
    pub fn phases(&self) -> &[PhaseRec] {
        &self.phases[..(self.n_phases as usize).min(MAX_PHASES)]
    }
}

/// Stable scenario-kind name for the JSON codec.
pub fn scenario_name(kind: u8) -> Option<&'static str> {
    match kind {
        0 => Some("open_loop"),
        1 => Some("closed_loop"),
        _ => None,
    }
}

/// Inverse of [`scenario_name`].
pub fn scenario_code(name: &str) -> Option<u8> {
    match name {
        "open_loop" => Some(0),
        "closed_loop" => Some(1),
        _ => None,
    }
}

/// Stable stream-kind name for the JSON codec.  Codes: 0 zipf,
/// 1 stack_depth (`a` = milli_p), 2 train (`a` = milli_cont),
/// 3 conflict (`a` = slots, `b` = cycle).
pub fn stream_name(kind: u8) -> Option<&'static str> {
    match kind {
        0 => Some("zipf"),
        1 => Some("stack_depth"),
        2 => Some("train"),
        3 => Some("conflict"),
        _ => None,
    }
}

/// Inverse of [`stream_name`].
pub fn stream_code(name: &str) -> Option<u8> {
    match name {
        "zipf" => Some(0),
        "stack_depth" => Some(1),
        "train" => Some(2),
        "conflict" => Some(3),
        _ => None,
    }
}

/// Stable wire-path name for the JSON codec.  Codes: 0 descriptor
/// (synthetic 64-byte frames), 1 zero_copy (pooled buffers + byte
/// codec), 2 reference (copy-and-materialize codec).
pub fn wire_name(kind: u8) -> Option<&'static str> {
    match kind {
        0 => Some("descriptor"),
        1 => Some("zero_copy"),
        2 => Some("reference"),
        _ => None,
    }
}

/// Inverse of [`wire_name`].
pub fn wire_code(name: &str) -> Option<u8> {
    match name {
        "descriptor" => Some(0),
        "zero_copy" => Some(1),
        "reference" => Some(2),
        _ => None,
    }
}

/// Stable policy-kind name for the JSON codec.  Codes: 0 one_entry,
/// 1 direct_mapped (`param` = slots), 2 two_way_lru (`param` = sets),
/// 3 fifo (`param` = slots), 4 random (`param` = slots).
pub fn policy_name(kind: u8) -> Option<&'static str> {
    match kind {
        0 => Some("one_entry"),
        1 => Some("direct_mapped"),
        2 => Some("two_way_lru"),
        3 => Some("fifo"),
        4 => Some("random"),
        _ => None,
    }
}

/// Inverse of [`policy_name`].
pub fn policy_code(name: &str) -> Option<u8> {
    match name {
        "one_entry" => Some(0),
        "direct_mapped" => Some(1),
        "two_way_lru" => Some(2),
        "fifo" => Some(3),
        "random" => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_code_round_trips() {
        for k in 0..2u8 {
            assert_eq!(scenario_code(scenario_name(k).unwrap()), Some(k));
        }
        for k in 0..4u8 {
            assert_eq!(stream_code(stream_name(k).unwrap()), Some(k));
        }
        for k in 0..5u8 {
            assert_eq!(policy_code(policy_name(k).unwrap()), Some(k));
        }
        for k in 0..3u8 {
            assert_eq!(wire_code(wire_name(k).unwrap()), Some(k));
        }
        assert_eq!(scenario_name(9), None);
        assert_eq!(stream_name(9), None);
        assert_eq!(policy_name(9), None);
        assert_eq!(wire_name(9), None);
    }
}
