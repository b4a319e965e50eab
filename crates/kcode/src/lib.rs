//! # kcode — the paper's primary contribution
//!
//! A machine-level *code model* over which the three latency-reducing
//! techniques of Mosberger et al. operate:
//!
//! * [`transform::outline`] — **outlining**: statically-predicted-cold
//!   basic blocks (error handling, initialization, unrolled loops) are
//!   moved out of the mainline to the end of the function (or to a shared
//!   cold region), removing taken jumps and i-cache gaps from the hot
//!   path.
//! * [`layout`] — **cloning**: functions are copied and relocated;
//!   layout strategies include the *bipartite* scheme (path vs. library
//!   partition, each closest-is-best), trace-driven *micro-positioning*,
//!   plain *linear* allocation, the uncontrolled *link-order* placement of
//!   a standard kernel, and the deliberately pessimal *BAD* placement.
//!   Cloning also enables call specialization (PC-relative calls that skip
//!   the address load and part of the callee prologue).
//! * [`transform::inline`] — **path-inlining**: the entire
//!   latency-critical path is merged into one function per direction,
//!   eliding call overhead, prologues and epilogues, and enabling
//!   cross-call optimization.  The inbound side requires a
//!   [`classifier`]-checked path assumption.
//!
//! ## How protocol code uses this crate
//!
//! Protocol implementations (the `protocols` crate) are ordinary Rust.
//! Each protocol *function* additionally carries a KIR model — a list of
//! basic blocks built with [`func::FunctionBuilder`] describing the
//! machine code a C compiler would have produced for it: instruction
//! counts, loads/stores with symbolic data references, conditional
//! segments with static branch predictions, call sites.
//!
//! At run time the protocol code drives a [`events::Recorder`]: it records
//! which functions were entered and which way each conditional went.  The
//! resulting event stream is *replayed* ([`replay`]) against an [`Image`]
//! — the program laid out in memory by some layout strategy — producing
//! the dynamic instruction trace that the `alpha-machine` crate times.
//! Replaying one functional run against several images is exactly the
//! paper's trace-driven methodology.
//!
//! Control-flow instructions are derived from *layout adjacency*: if the
//! next executed block physically follows the current one, control falls
//! through; otherwise a taken jump is emitted.  This single rule yields
//! the paper's outlining effects (the common path of an annotated
//! if-statement stops jumping over its error block once the error block
//! is outlined) without a separate CFG interpreter.

#![forbid(unsafe_code)]

pub mod bitset;
pub mod body;
pub mod classifier;
pub mod datalayout;
pub mod events;
pub mod fingerprint;
pub mod func;
pub mod ids;
pub mod image;
pub mod layout;
pub mod program;
pub mod replay;
pub mod symbolize;
pub mod transform;

pub use body::{Body, DataRef};
pub use classifier::{Classifier, ClassifierProgram};
pub use datalayout::DataLayout;
pub use events::{Ev, EventStream, Recorder};
pub use fingerprint::{fingerprint_stream, TraceFingerprint};
pub use func::{
    Block, BlockRole, FuncKind, Function, FunctionBuilder, Predict, SegKind, Segment,
};
pub use ids::{BlockIdx, FuncId, RegionId, SegId};
pub use image::{Image, ImageConfig};
pub use layout::{Directive, LayoutPlan, LayoutStrategy};
pub use program::{Program, ProgramBuilder};
pub use bitset::PcBitmap;
pub use replay::{InstSink, NullSink, ReplayError, ReplayOutput, ReplayStats};
pub use symbolize::Symbolizer;
