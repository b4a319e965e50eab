//! # wire — the zero-copy byte-level data plane
//!
//! The traffic plane serves *real packet bytes*, not synthetic
//! descriptors (the ROADMAP's wire data plane).  This module is the
//! per-packet hot path that makes that affordable:
//!
//! * [`views`] — zero-copy, read-only Ethernet/IPv4/TCP header views
//!   over `&[u8]`; no intermediate structs.
//! * [`codec`] — the frame codec: [`codec::encode_frame`] writes a
//!   full Ethernet+IPv4+TCP frame into a caller-supplied (pooled)
//!   buffer, [`codec::reencode_frame`] turns the previous frame still
//!   in that buffer into the next by patching the per-message fields,
//!   and [`codec::demux_frame`] parses one back down to the demux
//!   four-tuple with every integrity check (FCS, IP header checksum,
//!   TCP pseudo checksum) enforced — all in place.
//! * [`reference`](mod@reference) — the straightforward copy-and-materialize twin:
//!   every layer parsed into an owned value with `Vec` payload copies,
//!   through the owned header set the host stack also uses
//!   ([`crate::tcpip::hdr`]), checksums through the byte-pair reference
//!   path.  The seeded equivalence suite (`tests/wire_props.rs`) pins
//!   the two codecs to identical bytes and identical error taxonomy;
//!   the wire bench asserts the zero-copy path is ≥ 2× faster.
//!
//! So `protocols` holds two IPv4/TCP header implementations: the
//! owned `tcpip::hdr` and the zero-copy `views`/`codec`, each checked
//! against the other.
//!
//! Malformed input is a typed [`WireError`], classified by
//! [`WireError::class`] into the anomaly counters the traffic plane
//! reports per cell.

pub mod codec;
pub mod reference;
pub mod views;

pub use codec::{
    demux_frame, encode_frame, encode_frame_shaped, reencode_frame, wire_len, Demux, PktSpec, Shape,
};
pub use views::{EthView, Ipv4View, TcpView, ETH_HDR, IP_HDR_MIN, TCP_HDR_MIN};

/// Everything that can be wrong with a frame, in the order the parse
/// discovers it.  Same taxonomy for the zero-copy and reference
/// codecs — the equivalence suite asserts identical variants on
/// identical inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Below the 64-byte Ethernet minimum (cut short on the wire).
    Runt(usize),
    /// Frame check sequence mismatch (bit corruption).
    BadFcs,
    /// Shorter than an Ethernet header.
    TruncatedEth(usize),
    /// EtherType is not IPv4.
    NotIpv4(u16),
    /// Shorter than a minimum IPv4 header.
    TruncatedIp(usize),
    /// IP version nibble is not 4.
    BadVersion(u8),
    /// IHL below 5 or beyond the buffer.
    BadIhl(u8),
    /// IP total length below the header or beyond the buffer.
    BadTotalLen { total: u16, have: usize },
    /// IP header checksum mismatch.
    BadIpChecksum,
    /// An IP fragment (MF set or non-zero offset); no reassembly here.
    Fragmented,
    /// IP protocol is not TCP.
    NotTcp(u8),
    /// Shorter than a minimum TCP header.
    TruncatedTcp(usize),
    /// TCP data offset below 5 words or beyond the segment.
    BadDataOffset(u8),
    /// TCP checksum (pseudo-header + segment) mismatch.
    BadTcpChecksum,
}

/// Coarse decode-error classes — one anomaly counter each in the
/// traffic report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Frame or header cut short ([`WireError::Runt`], `Truncated*`,
    /// [`WireError::BadTotalLen`]).
    Truncated,
    /// FCS caught bit corruption.
    BadFcs,
    /// Structurally mangled header (version, IHL, data offset,
    /// unexpected ethertype/protocol).
    Malformed,
    /// IP header checksum mismatch.
    BadIpChecksum,
    /// TCP pseudo/segment checksum mismatch.
    BadTcpChecksum,
    /// Unreassemblable fragment.
    Fragmented,
}

impl WireError {
    /// The anomaly-counter class of this error.
    pub fn class(self) -> ErrorClass {
        match self {
            WireError::Runt(_)
            | WireError::TruncatedEth(_)
            | WireError::TruncatedIp(_)
            | WireError::TruncatedTcp(_)
            | WireError::BadTotalLen { .. } => ErrorClass::Truncated,
            WireError::BadFcs => ErrorClass::BadFcs,
            WireError::NotIpv4(_)
            | WireError::BadVersion(_)
            | WireError::BadIhl(_)
            | WireError::NotTcp(_)
            | WireError::BadDataOffset(_) => ErrorClass::Malformed,
            WireError::BadIpChecksum => ErrorClass::BadIpChecksum,
            WireError::BadTcpChecksum => ErrorClass::BadTcpChecksum,
            WireError::Fragmented => ErrorClass::Fragmented,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Runt(n) => write!(f, "runt frame of {n} bytes"),
            WireError::BadFcs => write!(f, "frame check sequence mismatch"),
            WireError::TruncatedEth(n) => write!(f, "{n} bytes is below an Ethernet header"),
            WireError::NotIpv4(et) => write!(f, "ethertype {et:#06x} is not IPv4"),
            WireError::TruncatedIp(n) => write!(f, "{n} bytes is below an IPv4 header"),
            WireError::BadVersion(v) => write!(f, "IP version {v} is not 4"),
            WireError::BadIhl(ihl) => write!(f, "bad IHL {ihl}"),
            WireError::BadTotalLen { total, have } => {
                write!(f, "IP total length {total} does not fit {have} bytes")
            }
            WireError::BadIpChecksum => write!(f, "IP header checksum mismatch"),
            WireError::Fragmented => write!(f, "unreassemblable IP fragment"),
            WireError::NotTcp(p) => write!(f, "IP protocol {p} is not TCP"),
            WireError::TruncatedTcp(n) => write!(f, "{n} bytes is below a TCP header"),
            WireError::BadDataOffset(d) => write!(f, "bad TCP data offset {d}"),
            WireError::BadTcpChecksum => write!(f, "TCP checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}
