//! Record/replay trace subsystem.
//!
//! The paper's methodology replays the *same* protocol-processing
//! trace through every (stack, layout) cell so latency differences are
//! attributable to the technique, not the workload.  This crate is the
//! narrow waist that makes that possible for the traffic plane: a
//! [`TraceEvent`] sum type covering every RNG-driven decision the
//! serving run loop consumes (workload arrivals, fault-injector fates)
//! plus the derived decisions worth validating on replay (RTO timer
//! firings, adaptive re-layout verdicts), with two codecs:
//!
//! * **binary** — versioned, length-prefixed records (`[tag][len
//!   u32][payload]` after a `b"PLTR"` + version header); compact and
//!   strict.
//! * **JSON** — one flat object per line; human-diffable, so two
//!   trace files `diff` to exactly the diverging events.
//!
//! The codec is auto-detected by file extension (`.json` is JSON,
//! anything else binary).  [`TraceWriter`] / [`TraceReader`] stream
//! record-at-a-time and never buffer the whole log; the binary codec
//! allocates no buffer per record, and [`encode`] sizes its output
//! exactly (see [`binary`]).  Every log ends
//! with an event-count trailer, so truncation is detectable even at a
//! record boundary; every decode failure is a typed [`TraceError`]
//! with a byte offset — never a panic.
//!
//! The capture/replay semantics (which events are consumed vs.
//! validated, the per-lane ordering contract) live in
//! `traffic::capture`, which builds on this crate; this crate knows
//! only the wire format.

#![forbid(unsafe_code)]

pub mod binary;
pub mod error;
pub mod event;
pub mod io;
pub mod json;
pub mod pcap;

pub use binary::{FORMAT_VERSION, MAGIC, MAX_RECORD_LEN};
pub use error::TraceError;
pub use event::{
    policy_code, policy_name, scenario_code, scenario_name, stream_code, stream_name, wire_code,
    wire_name, ConfigRecord, PhaseRec, RtoRec, StreamRec, TraceEvent, VerdictRec, MAX_PHASES,
};
pub use pcap::{PcapError, PcapPacket, PcapSink, PcapSource, LINKTYPE_ETHERNET};
pub use io::{
    decode, encode, fingerprint, read_events, write_events, Format, TraceReader, TraceWriter,
};
