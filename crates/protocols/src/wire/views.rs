//! Zero-copy header views: typed accessors over raw frame bytes.
//!
//! Each view is a thin wrapper over a `&[u8]` that validates on
//! construction and then reads fields straight out of the wire
//! representation — no intermediate structs, no copies.  The views are
//! read-only: the codec writes frames itself.
//!
//! The views are layer-local: [`EthView`] knows nothing about the FCS
//! trailer (the codec strips it), [`Ipv4View`] exposes but does not
//! reject fragments (the codec decides), and [`TcpView`] checks its
//! pseudo-header checksum against the addresses the caller parsed from
//! the IP layer.

use crate::checksum;
use crate::tcpip::hdr::{IpHdr, TcpHdr, IPPROTO_TCP};

use super::WireError;

/// Ethernet header length (dst + src + ethertype).
pub const ETH_HDR: usize = netsim::frame::HEADER;
/// Minimum IPv4 header length (IHL = 5).
pub const IP_HDR_MIN: usize = IpHdr::LEN;
/// Minimum TCP header length (data offset = 5).
pub const TCP_HDR_MIN: usize = TcpHdr::LEN;

// ------------------------------------------------------------- Ethernet

/// Read-only view of an Ethernet II header and its payload.
#[derive(Clone, Copy)]
pub struct EthView<'a> {
    b: &'a [u8],
}

impl<'a> EthView<'a> {
    /// View `b` as an Ethernet header (FCS already stripped).
    pub fn parse(b: &'a [u8]) -> Result<Self, WireError> {
        if b.len() < ETH_HDR {
            return Err(WireError::TruncatedEth(b.len()));
        }
        Ok(EthView { b })
    }

    pub fn dst(&self) -> [u8; 6] {
        self.b[0..6].try_into().unwrap()
    }

    pub fn src(&self) -> [u8; 6] {
        self.b[6..12].try_into().unwrap()
    }

    pub fn ethertype(&self) -> u16 {
        u16::from_be_bytes([self.b[12], self.b[13]])
    }

    /// Everything after the header.
    pub fn payload(&self) -> &'a [u8] {
        &self.b[ETH_HDR..]
    }
}

// ----------------------------------------------------------------- IPv4

/// Read-only view of an IPv4 header (options supported) and payload.
///
/// Construction validates version, IHL, total length and the header
/// checksum; fragmentation is *exposed*, not rejected — the codec
/// decides what to do with fragments.
#[derive(Clone, Copy)]
pub struct Ipv4View<'a> {
    b: &'a [u8],
    hdr_len: usize,
    total_len: usize,
}

impl<'a> Ipv4View<'a> {
    pub fn parse(b: &'a [u8]) -> Result<Self, WireError> {
        if b.len() < IP_HDR_MIN {
            return Err(WireError::TruncatedIp(b.len()));
        }
        let version = b[0] >> 4;
        if version != 4 {
            return Err(WireError::BadVersion(version));
        }
        let ihl = b[0] & 0x0f;
        let hdr_len = ihl as usize * 4;
        if ihl < 5 || hdr_len > b.len() {
            return Err(WireError::BadIhl(ihl));
        }
        let total_len = u16::from_be_bytes([b[2], b[3]]) as usize;
        if total_len < hdr_len || total_len > b.len() {
            return Err(WireError::BadTotalLen { total: total_len as u16, have: b.len() });
        }
        if !checksum::verify(&b[..hdr_len]) {
            return Err(WireError::BadIpChecksum);
        }
        Ok(Ipv4View { b, hdr_len, total_len })
    }

    pub fn header_len(&self) -> usize {
        self.hdr_len
    }

    /// Raw fragment field: bit 13 = MF, low 13 bits = offset / 8.
    fn frag(&self) -> u16 {
        u16::from_be_bytes([self.b[6], self.b[7]])
    }

    pub fn more_fragments(&self) -> bool {
        self.frag() & 0x2000 != 0
    }

    pub fn frag_offset_bytes(&self) -> usize {
        ((self.frag() & 0x1fff) as usize) * 8
    }

    pub fn proto(&self) -> u8 {
        self.b[9]
    }

    pub fn src(&self) -> u32 {
        u32::from_be_bytes(self.b[12..16].try_into().unwrap())
    }

    pub fn dst(&self) -> u32 {
        u32::from_be_bytes(self.b[16..20].try_into().unwrap())
    }

    /// The datagram payload, bounded by `total_len` — **not** by the
    /// slice length, which may include Ethernet padding.
    pub fn payload(&self) -> &'a [u8] {
        &self.b[self.hdr_len..self.total_len]
    }
}

// ------------------------------------------------------------------ TCP

/// Read-only view of a TCP header (options supported) and payload.
///
/// `parse` verifies the checksum over the pseudo-header and the whole
/// segment, so the caller must pass the segment sliced to the IP
/// payload bound (`Ipv4View::payload`), never the padded frame tail.
#[derive(Clone, Copy)]
pub struct TcpView<'a> {
    b: &'a [u8],
    data_off: usize,
}

impl<'a> TcpView<'a> {
    pub fn parse(seg: &'a [u8], src_ip: u32, dst_ip: u32) -> Result<Self, WireError> {
        if seg.len() < TCP_HDR_MIN {
            return Err(WireError::TruncatedTcp(seg.len()));
        }
        let doff_words = seg[12] >> 4;
        let data_off = doff_words as usize * 4;
        if data_off < TCP_HDR_MIN || data_off > seg.len() {
            return Err(WireError::BadDataOffset(doff_words));
        }
        if !checksum::verify_pseudo(src_ip, dst_ip, IPPROTO_TCP, seg) {
            return Err(WireError::BadTcpChecksum);
        }
        Ok(TcpView { b: seg, data_off })
    }

    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.b[0], self.b[1]])
    }

    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.b[2], self.b[3]])
    }

    pub fn seq(&self) -> u32 {
        u32::from_be_bytes(self.b[4..8].try_into().unwrap())
    }

    pub fn ack(&self) -> u32 {
        u32::from_be_bytes(self.b[8..12].try_into().unwrap())
    }

    pub fn data_offset(&self) -> usize {
        self.data_off
    }

    pub fn flags(&self) -> u8 {
        self.b[13]
    }

    pub fn payload(&self) -> &'a [u8] {
        &self.b[self.data_off..]
    }
}
