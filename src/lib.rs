//! # protolat
//!
//! Facade crate for the reproduction of Mosberger, Peterson, Bridges &
//! O'Malley, *Analysis of Techniques to Improve Protocol Processing
//! Latency* (University of Arizona TR 96-03 / SIGCOMM 1996 line of work).
//!
//! The workspace rebuilds, in Rust, everything the paper's evaluation
//! depends on:
//!
//! * [`machine`] — the DEC 3000/600 / Alpha 21064 timing model (dual-issue
//!   CPU, split 8 KB direct-mapped L1 caches, 4-deep write-merging write
//!   buffer, 2 MB b-cache).  Produces the iCPI/mCPI decomposition.
//! * [`kcode`] — the paper's primary contribution: a machine-level code
//!   model ("KIR") over which the three latency techniques operate —
//!   **outlining**, **cloning** (bipartite / micro-positioned / linear /
//!   pessimal layouts) and **path-inlining** — plus the packet classifier
//!   the inlined input path requires.
//! * [`xkernel`] — the x-kernel protocol framework substrate: protocol
//!   graph, demultiplexing maps (hash table with one-entry cache and a
//!   lazily maintained non-empty-bucket list), message tool with pooled
//!   buffers, event timers and the thread/stack model.
//! * [`netsim`] — discrete-event network: 10 Mb/s Ethernet wire, LANCE
//!   controller with sparse shared-memory descriptor rings, fault
//!   injection (drop / corrupt / reorder / duplicate).
//! * [`traffic`] — the production-scale serving subsystem: open/closed-
//!   loop workload generators with Zipf-skewed session selection, a
//!   sharded demux session table, multi-worker serving loops replaying
//!   the machine model per message, and mergeable HDR-style tail-latency
//!   histograms.
//! * [`protocols`] — the two test stacks: TCP/IP (TCPTEST/TCP/IP/VNET/
//!   ETH/LANCE) and Sprite-style RPC (XRPCTEST/MSELECT/VCHAN/CHAN/BID/
//!   BLAST/ETH/LANCE).
//! * [`core`] — configurations STD/OUT/CLO/BAD/PIN/ALL and the experiment
//!   drivers that regenerate every table and figure of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use protolat::core::config::StackKind;
//! use protolat::core::experiments::latency::measure_roundtrip;
//! use protolat::protocols::StackOptions;
//!
//! let report = measure_roundtrip(StackKind::TcpIp, StackOptions::improved());
//! assert!(report.end_to_end_us > 200.0 && report.end_to_end_us < 700.0);
//! ```

#![forbid(unsafe_code)]

pub use alpha_machine as machine;
pub use kcode;
pub use netsim;
pub use protocols;
pub use protolat_core as core;
pub use traffic;
pub use xkernel;
