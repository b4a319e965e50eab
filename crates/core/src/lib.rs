//! # protolat-core — the experiment harness
//!
//! Ties the substrates together and regenerates every table and figure
//! of the paper:
//!
//! * [`world`] — what differs between the two stacks ([`Stack`]), and
//!   the *world* built over either: the KIR program (library + stack
//!   model), data layout, and the two hosts of the testbed.
//! * [`config`] — the paper's six configurations (BAD, STD, OUT, CLO,
//!   PIN, ALL) as image-building recipes.
//! * [`harness`] — functional ping-pong runs over the simulated wire,
//!   capturing per-side execution episodes.
//! * [`timing`] — replays episodes against laid-out images on warm
//!   machines, splits out the overlap with network I/O, and composes
//!   end-to-end roundtrip latency exactly as the testbed does:
//!   `client-out + controller + server-turn + controller + client-in`.
//! * [`sweep`] — the memoizing sweep engine: every functional run,
//!   image, timing, statistic and traffic-serving report computed at
//!   most once per process, with the canonical 6-version × 2-stack
//!   sweep fanned out across scoped threads.
//! * [`experiments`] — one driver per table/figure.
//! * [`report`] — plain-text table rendering.

#![forbid(unsafe_code)]

pub mod config;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod sweep;
pub mod timing;
pub mod world;

pub use config::{StackKind, Version};
pub use harness::{RoundtripEpisodes, Run};
pub use sweep::{
    AdaptOutcome, AdaptSpec, CapacityCurve, CapacityPoint, CapacityRamp, DemuxCell, DemuxSpec,
    RunShared, StackRun, SweepCounters, SweepEngine, SweepRow, VersionSet,
};
pub use world::{Rpc, Stack, TcpIp, World};
