//! # xkernel — protocol framework substrate
//!
//! A Rust rebuild of the x-kernel facilities the paper's protocol stacks
//! sit on, including every Section-2 framework optimization:
//!
//! * [`map`] — the demultiplexing hash table, with the **one-entry
//!   lookup cache** (exploiting packet-train locality) and the **lazily
//!   maintained non-empty-bucket list** that made it possible to delete
//!   TCP's separate list of open connections (traversal cost proportional
//!   to occupied buckets, not table size).
//! * [`msg`] — the message tool: buffers with prepend/strip header
//!   discipline, a pre-allocated pool for interrupt handlers, and the
//!   **refresh short-circuit** (when protocol processing consumed the
//!   only reference, refreshing a buffer reuses its memory instead of a
//!   free()/malloc() pair).
//! * [`event`] — timer events (TCP retransmission, RPC timeouts) keyed
//!   to the simulated clock.
//! * [`process`] — the thread shepherd model: **LIFO stack pool** with
//!   stacks as first-class objects, dynamically attached on demand so
//!   latency-sensitive path invocations run on a cache-warm stack.
//! * [`graph`] — protocol-stack description, used to render the paper's
//!   Figure 1.
//!
//! Everything carries simulated data addresses so the d-cache model sees
//! realistic access streams.

#![forbid(unsafe_code)]

pub mod event;
pub mod graph;
pub mod map;
pub mod msg;
pub mod process;

pub use event::EventSet;
pub use graph::StackGraph;
pub use map::Map;
pub use msg::{Msg, MsgPool};
pub use process::StackPool;
