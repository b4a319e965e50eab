//! # protocols — the paper's two test stacks
//!
//! Both protocol stacks of Figure 1, functional end to end over the
//! `netsim` wire, each function carrying a KIR code model so layout
//! techniques apply to it:
//!
//! ```text
//!   TCPTEST            XRPCTEST
//!   TCP                MSELECT
//!   IP                 VCHAN
//!   VNET               CHAN
//!   ETH                BID
//!   LANCE              BLAST
//!                      ETH
//!                      LANCE
//! ```
//!
//! * [`tcpip`] — BSD-derived TCP (sequence/ack state machine,
//!   retransmission, congestion and receive windows, optional header
//!   prediction, real Internet checksum), IPv4 with fragmentation, the
//!   VNET virtual protocol, Ethernet framing and the LANCE driver.
//! * [`rpc`] — the Sprite-style RPC decomposition: MSELECT dispatch,
//!   VCHAN virtual channels, CHAN request-reply with blocking calls,
//!   BID boot-id validation, BLAST fragmentation.
//! * [`options`] — the Section-2 optimization toggles (Table 1) — each
//!   switches both the functional code path and the code model.
//! * [`checksum`] — the real Internet checksum.
//! * [`libmodel`] — KIR models of the shared library routines
//!   (checksum, bcopy, software divide, allocator, map and message
//!   operations).
//! * [`driver`] — the LANCE driver shared by both stacks.
//! * [`wire`] — the zero-copy byte-level data plane: Ethernet/IPv4/TCP
//!   header views over raw bytes, an in-place frame codec for pooled
//!   buffers (re-encoding patches checksums incrementally, RFC 1624),
//!   and its copy-and-materialize reference twin.

#![forbid(unsafe_code)]

pub mod checksum;
pub mod driver;
pub mod libmodel;
pub mod options;
pub mod rpc;
pub mod tcpip;
pub mod wire;

pub use options::StackOptions;
pub use wire::{WireError, ErrorClass};

/// What a testbed driver asks of a host of either stack: frames in,
/// frames out, and the episode recorded in between.
pub trait Host {
    /// A frame arrived from the wire at `now`: run the receive path.
    fn deliver_wire(&mut self, bytes: &[u8], now: netsim::Ns);
    /// Take the episode recorded since the last take.
    fn take_episode(&mut self) -> kcode::EventStream;
    /// Drain the frames queued for the wire.
    fn take_tx(&mut self) -> Vec<Vec<u8>>;
}
