//! The owned IPv4 and TCP header set — real byte-level wire formats.
//!
//! One owned struct per layer, with an encoder that appends the header
//! to a `Vec` and a parse that reads it back.  Two callers share it: the
//! x-kernel host stack (`tcpip::host`) and the copy-and-materialize wire
//! twin ([`crate::wire::reference`]).  The zero-copy views and codec
//! (`wire::{views, codec}`) are the other implementation; the seeded
//! equivalence suite (`tests/wire_props.rs`) pins the twin, and with it
//! this set, to them byte for byte and error for error.
//!
//! Each parse checks its layer's structural rungs in the integrity
//! ladder's order and reports the first failure as a [`WireError`].
//! The layer's checksum is its last rung and stays with the caller, who
//! checks it right after the parse so the ladder's precedence holds:
//! the host through `checksum::verify*`, the twin through the byte-pair
//! `checksum::reference` path.  Likewise the encoders write a zero
//! checksum field, and the caller seals it with [`IpHdr::seal`] or
//! [`TcpHdr::seal`].  Options travel beside the header as raw bytes.

use crate::wire::WireError;

/// Protocol numbers.
pub const IPPROTO_TCP: u8 = 6;

/// An IPv4 header; its options, if any, follow it on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpHdr {
    pub tos: u8,
    pub total_len: u16,
    pub ident: u16,
    /// Fragment flags+offset field: bit 13 = MF, low 13 bits = offset/8.
    pub frag: u16,
    pub ttl: u8,
    pub proto: u8,
    pub src: u32,
    pub dst: u32,
}

impl IpHdr {
    /// Fixed header length (IHL 5); options add up to 40 bytes.
    pub const LEN: usize = 20;
    pub const MF: u16 = 0x2000;

    pub fn more_fragments(&self) -> bool {
        self.frag & Self::MF != 0
    }

    pub fn frag_offset_bytes(&self) -> usize {
        ((self.frag & 0x1fff) as usize) * 8
    }

    /// Append the header and its `options` (whole 32-bit words, at most
    /// 40 bytes) to `out`, with a zero checksum field.
    pub fn encode(&self, options: &[u8], out: &mut Vec<u8>) {
        assert!(
            options.len().is_multiple_of(4) && options.len() <= 40,
            "options must be whole words, at most 40 bytes"
        );
        out.push(0x40 | ((Self::LEN + options.len()) / 4) as u8);
        out.push(self.tos);
        out.extend_from_slice(&self.total_len.to_be_bytes());
        out.extend_from_slice(&self.ident.to_be_bytes());
        out.extend_from_slice(&self.frag.to_be_bytes());
        out.extend_from_slice(&[self.ttl, self.proto, 0, 0]);
        out.extend_from_slice(&self.src.to_be_bytes());
        out.extend_from_slice(&self.dst.to_be_bytes());
        out.extend_from_slice(options);
    }

    /// Write `ck` into the checksum field of the header that starts `b`.
    pub fn seal(b: &mut [u8], ck: u16) {
        b[10..12].copy_from_slice(&ck.to_be_bytes());
    }

    /// Parse the datagram `b` (which may carry link-layer padding past
    /// its total length) through every rung but the checksum: length,
    /// version, IHL, total length.  Returns the header and its length.
    pub fn parse(b: &[u8]) -> Result<(IpHdr, usize), WireError> {
        if b.len() < Self::LEN {
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
        let total_len = u16::from_be_bytes([b[2], b[3]]);
        if (total_len as usize) < hdr_len || total_len as usize > b.len() {
            return Err(WireError::BadTotalLen {
                total: total_len,
                have: b.len(),
            });
        }
        let hdr = IpHdr {
            tos: b[1],
            total_len,
            ident: u16::from_be_bytes([b[4], b[5]]),
            frag: u16::from_be_bytes([b[6], b[7]]),
            ttl: b[8],
            proto: b[9],
            src: u32::from_be_bytes([b[12], b[13], b[14], b[15]]),
            dst: u32::from_be_bytes([b[16], b[17], b[18], b[19]]),
        };
        Ok((hdr, hdr_len))
    }
}

/// TCP flags.
pub mod flags {
    pub const FIN: u8 = 0x01;
    pub const SYN: u8 = 0x02;
    pub const RST: u8 = 0x04;
    pub const PSH: u8 = 0x08;
    pub const ACK: u8 = 0x10;
}

/// A TCP header; its options, if any, follow it on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHdr {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: u8,
    pub window: u16,
    pub urgent: u16,
}

impl TcpHdr {
    /// Fixed header length (data offset 5); options add up to 40 bytes.
    pub const LEN: usize = 20;

    /// Append the header and its `options` (whole 32-bit words, at most
    /// 40 bytes) to `out`, with a zero checksum field.
    pub fn encode(&self, options: &[u8], out: &mut Vec<u8>) {
        assert!(
            options.len().is_multiple_of(4) && options.len() <= 40,
            "options must be whole words, at most 40 bytes"
        );
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push((((Self::LEN + options.len()) / 4) as u8) << 4);
        out.push(self.flags);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&self.urgent.to_be_bytes());
        out.extend_from_slice(options);
    }

    /// Write `ck` into the checksum field of the segment `seg`.
    pub fn seal(seg: &mut [u8], ck: u16) {
        seg[16..18].copy_from_slice(&ck.to_be_bytes());
    }

    /// Parse the segment `seg` through every rung but the checksum:
    /// length, data offset.  Returns the header and the data offset.
    pub fn parse(seg: &[u8]) -> Result<(TcpHdr, usize), WireError> {
        if seg.len() < Self::LEN {
            return Err(WireError::TruncatedTcp(seg.len()));
        }
        let doff_words = seg[12] >> 4;
        let data_off = doff_words as usize * 4;
        if data_off < Self::LEN || data_off > seg.len() {
            return Err(WireError::BadDataOffset(doff_words));
        }
        let hdr = TcpHdr {
            src_port: u16::from_be_bytes([seg[0], seg[1]]),
            dst_port: u16::from_be_bytes([seg[2], seg[3]]),
            seq: u32::from_be_bytes([seg[4], seg[5], seg[6], seg[7]]),
            ack: u32::from_be_bytes([seg[8], seg[9], seg[10], seg[11]]),
            flags: seg[13],
            window: u16::from_be_bytes([seg[14], seg[15]]),
            urgent: u16::from_be_bytes([seg[18], seg[19]]),
        };
        Ok((hdr, data_off))
    }
}

/// Sequence-space comparisons (RFC 793 modular arithmetic).
pub mod seq {
    /// a < b in sequence space.
    pub fn lt(a: u32, b: u32) -> bool {
        (a.wrapping_sub(b) as i32) < 0
    }

    /// a <= b.
    pub fn leq(a: u32, b: u32) -> bool {
        a == b || lt(a, b)
    }

    /// a > b.
    pub fn gt(a: u32, b: u32) -> bool {
        lt(b, a)
    }

    /// a >= b.
    pub fn geq(a: u32, b: u32) -> bool {
        a == b || gt(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum;

    /// A sealed datagram: `h` with `options`, then a zero body out to
    /// `h.total_len`.
    fn datagram(h: &IpHdr, options: &[u8]) -> Vec<u8> {
        let mut b = Vec::new();
        h.encode(options, &mut b);
        let hdr_len = b.len();
        let ck = checksum::in_cksum(&b);
        IpHdr::seal(&mut b, ck);
        b.resize(hdr_len.max(h.total_len as usize), 0);
        b
    }

    /// The host's receive check: the structural parse, then the checksum.
    fn ip_recv(b: &[u8]) -> Result<(IpHdr, usize), WireError> {
        let (h, hdr_len) = IpHdr::parse(b)?;
        if !checksum::verify(&b[..hdr_len]) {
            return Err(WireError::BadIpChecksum);
        }
        Ok((h, hdr_len))
    }

    /// A sealed segment: `h` with no options, then `payload`.
    fn segment(h: &TcpHdr, src: u32, dst: u32, payload: &[u8]) -> Vec<u8> {
        let mut seg = Vec::new();
        h.encode(&[], &mut seg);
        seg.extend_from_slice(payload);
        let ck = checksum::in_cksum_pseudo(src, dst, IPPROTO_TCP, &seg);
        TcpHdr::seal(&mut seg, ck);
        seg
    }

    /// The host's receive check: the structural parse, then the checksum.
    fn tcp_recv(src: u32, dst: u32, seg: &[u8]) -> Result<(TcpHdr, usize), WireError> {
        let parsed = TcpHdr::parse(seg)?;
        if !checksum::verify_pseudo(src, dst, IPPROTO_TCP, seg) {
            return Err(WireError::BadTcpChecksum);
        }
        Ok(parsed)
    }

    #[test]
    fn ip_roundtrip_with_checksum() {
        let h = IpHdr {
            tos: 0x10,
            total_len: 41,
            ident: 0x1234,
            frag: 0,
            ttl: 64,
            proto: IPPROTO_TCP,
            src: 0x0a000001,
            dst: 0x0a000002,
        };
        let bytes = datagram(&h, &[]);
        assert_eq!(ip_recv(&bytes).unwrap(), (h, IpHdr::LEN));
    }

    #[test]
    fn ip_rejects_corruption() {
        let h = IpHdr {
            tos: 0,
            total_len: 40,
            ident: 1,
            frag: 0,
            ttl: 64,
            proto: 6,
            src: 1,
            dst: 2,
        };
        let mut bytes = datagram(&h, &[]);
        bytes[8] ^= 0x01;
        assert_eq!(ip_recv(&bytes), Err(WireError::BadIpChecksum));
    }

    #[test]
    fn ip_rejects_total_len_outside_the_datagram() {
        let h = IpHdr {
            tos: 0,
            total_len: 10,
            ident: 1,
            frag: 0,
            ttl: 64,
            proto: 6,
            src: 1,
            dst: 2,
        };
        let bytes = datagram(&h, &[0; 4]);
        assert_eq!(
            ip_recv(&bytes),
            Err(WireError::BadTotalLen {
                total: 10,
                have: 24
            })
        );
        let long = IpHdr { total_len: 60, ..h };
        let bytes = datagram(&long, &[]);
        assert_eq!(
            ip_recv(&bytes[..40]),
            Err(WireError::BadTotalLen {
                total: 60,
                have: 40
            })
        );
    }

    #[test]
    fn ip_frag_fields() {
        let h = IpHdr {
            tos: 0,
            total_len: 100,
            ident: 7,
            frag: IpHdr::MF | (64 / 8),
            ttl: 64,
            proto: 6,
            src: 1,
            dst: 2,
        };
        assert!(h.more_fragments());
        assert_eq!(h.frag_offset_bytes(), 64);
    }

    #[test]
    fn tcp_roundtrip_with_payload() {
        let h = TcpHdr {
            src_port: 5000,
            dst_port: 5001,
            seq: 1000,
            ack: 2000,
            flags: flags::ACK | flags::PSH,
            window: 8760,
            urgent: 0,
        };
        let seg = segment(&h, 0x0a000001, 0x0a000002, b"x");
        let (parsed, doff) = tcp_recv(0x0a000001, 0x0a000002, &seg).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(doff, 20);
        assert_eq!(&seg[doff..], b"x");
    }

    #[test]
    fn tcp_rejects_wrong_pseudo_header() {
        let h = TcpHdr {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: flags::SYN,
            window: 100,
            urgent: 0,
        };
        let seg = segment(&h, 0x0a000001, 0x0a000002, b"");
        // Claiming different IPs must fail the checksum.
        assert_eq!(
            tcp_recv(0x0a000001, 0x0a000003, &seg),
            Err(WireError::BadTcpChecksum)
        );
    }

    #[test]
    fn tcp_rejects_payload_corruption() {
        let h = TcpHdr {
            src_port: 1,
            dst_port: 2,
            seq: 10,
            ack: 0,
            flags: flags::ACK,
            window: 100,
            urgent: 0,
        };
        let mut seg = segment(&h, 1, 2, b"payload");
        let last = seg.len() - 1;
        seg[last] ^= 0x80;
        assert_eq!(tcp_recv(1, 2, &seg), Err(WireError::BadTcpChecksum));
    }

    #[test]
    fn seq_arith_wraps() {
        use seq::*;
        assert!(lt(0xffff_fff0, 0x10));
        assert!(gt(0x10, 0xffff_fff0));
        assert!(leq(5, 5));
        assert!(geq(0, 0xffff_ff00));
    }
}
