//! The copy-and-materialize twin of the zero-copy codec.
//!
//! Every layer is parsed into an owned value with its payload copied
//! into a fresh `Vec`: the Ethernet layer into a [`Frame`], the IP and
//! TCP layers into a [`Layer`] around the owned header set
//! ([`IpHdr`], [`TcpHdr`]) that the host stack also uses.  Every
//! checksum goes through the byte-pair [`checksum::reference`] path and
//! the FCS through the byte-serial [`Frame::fcs_of_serial`] fold — the
//! straightforward implementations a first cut would write.  It
//! produces *identical bytes* on encode and the *identical
//! [`WireError`]* (same variant, same precedence) on demux; the seeded
//! equivalence suite in `tests/wire_props.rs` pins that, and the `wire`
//! bench suite measures the gap (the zero-copy path is asserted ≥ 2×
//! faster).

use netsim::frame::{EtherType, Frame, MacAddr, FCS, HEADER, MIN_FRAME};

use super::codec::{Demux, PktSpec, Shape, TRUNCATED_LEN};
use super::WireError;
use crate::checksum;
use crate::tcpip::hdr::{IpHdr, TcpHdr, IPPROTO_TCP};

/// A materialized IP or TCP layer: the owned header, then owned copies
/// of its option bytes and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer<H> {
    pub hdr: H,
    pub options: Vec<u8>,
    pub payload: Vec<u8>,
}

/// A fully materialized frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefPacket {
    pub eth: Frame,
    pub ip: Layer<IpHdr>,
    pub tcp: Layer<TcpHdr>,
}

/// Encode by building each layer as an owned `Vec` and concatenating —
/// byte-identical to [`super::codec::encode_frame`].
pub fn encode_frame(spec: &PktSpec, payload: &[u8]) -> Vec<u8> {
    encode_with_frag(spec, payload, 0)
}

fn encode_with_frag(spec: &PktSpec, payload: &[u8], frag: u16) -> Vec<u8> {
    let tcp_hdr = TcpHdr {
        src_port: spec.src_port,
        dst_port: spec.dst_port,
        seq: spec.seq,
        ack: spec.ack,
        flags: spec.flags,
        window: spec.window,
        urgent: 0,
    };
    let mut tcp = Vec::with_capacity(TcpHdr::LEN + payload.len());
    tcp_hdr.encode(&[], &mut tcp);
    tcp.extend_from_slice(payload);
    let tcp_ck = checksum::reference::in_cksum_pseudo(spec.src_ip, spec.dst_ip, IPPROTO_TCP, &tcp);
    TcpHdr::seal(&mut tcp, tcp_ck);

    let ip_hdr = IpHdr {
        tos: 0,
        total_len: (IpHdr::LEN + tcp.len()) as u16,
        ident: spec.ident,
        frag,
        ttl: spec.ttl,
        proto: IPPROTO_TCP,
        src: spec.src_ip,
        dst: spec.dst_ip,
    };
    let mut ip = Vec::with_capacity(IpHdr::LEN + tcp.len());
    ip_hdr.encode(&[], &mut ip);
    let ip_ck = checksum::reference::in_cksum(&ip);
    IpHdr::seal(&mut ip, ip_ck);
    ip.extend_from_slice(&tcp);

    let eth = Frame {
        dst: MacAddr(spec.dst_mac),
        src: MacAddr(spec.src_mac),
        ethertype: EtherType::Ipv4,
        payload: ip,
    };
    frame_bytes(&eth)
}

/// [`Frame::to_bytes`]'s layout (header, payload padded to the
/// minimum, FCS) with the FCS from the byte-serial fold.
fn frame_bytes(eth: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(MIN_FRAME);
    out.extend_from_slice(eth.dst.bytes());
    out.extend_from_slice(eth.src.bytes());
    out.extend_from_slice(&eth.ethertype.to_u16().to_be_bytes());
    out.extend_from_slice(&eth.payload);
    out.resize(out.len().max(MIN_FRAME - FCS), 0);
    let fcs = Frame::fcs_of_serial(&out);
    out.extend_from_slice(&fcs.to_be_bytes());
    out
}

/// Shaped encode — same shapes, same bytes as the zero-copy
/// [`super::codec::encode_frame_shaped`].
pub fn encode_frame_shaped(spec: &PktSpec, payload: &[u8], shape: Shape) -> Vec<u8> {
    match shape {
        Shape::Intact => encode_frame(spec, payload),
        Shape::Truncated => {
            let mut out = encode_frame(spec, payload);
            out.truncate(TRUNCATED_LEN);
            out
        }
        Shape::Malformed => {
            let mut out = encode_frame(spec, payload);
            out[HEADER] = 0x65;
            let body = out.len() - FCS;
            let fcs = Frame::fcs_of_serial(&out[..body]);
            out[body..].copy_from_slice(&fcs.to_be_bytes());
            out
        }
        Shape::Fragmented => encode_with_frag(spec, payload, IpHdr::MF),
    }
}

/// Parse a frame by materializing every layer, with the same checks in
/// the same order as [`super::codec::demux_frame`].
pub fn parse_frame(frame: &[u8]) -> Result<RefPacket, WireError> {
    if frame.len() < MIN_FRAME {
        return Err(WireError::Runt(frame.len()));
    }
    let body = frame[..frame.len() - FCS].to_vec(); // copy 1: the frame body
    let fcs = u32::from_be_bytes(
        frame[frame.len() - FCS..]
            .try_into()
            .expect("FCS is 4 bytes"),
    );
    if Frame::fcs_of_serial(&body) != fcs {
        return Err(WireError::BadFcs);
    }

    // A frame past the runt check holds a whole Ethernet header.
    let eth = Frame {
        dst: MacAddr(body[0..6].try_into().expect("a MAC is 6 bytes")),
        src: MacAddr(body[6..12].try_into().expect("a MAC is 6 bytes")),
        ethertype: EtherType::from_u16(u16::from_be_bytes([body[12], body[13]])),
        payload: body[HEADER..].to_vec(), // copy 2: the IP datagram
    };
    if eth.ethertype != EtherType::Ipv4 {
        return Err(WireError::NotIpv4(eth.ethertype.to_u16()));
    }

    let b = &eth.payload;
    let (hdr, hdr_len) = IpHdr::parse(b)?;
    if checksum::reference::in_cksum(&b[..hdr_len]) != 0 {
        return Err(WireError::BadIpChecksum);
    }
    let ip = Layer {
        hdr,
        options: b[IpHdr::LEN..hdr_len].to_vec(),
        payload: b[hdr_len..hdr.total_len as usize].to_vec(), // copy 3: the TCP segment
    };
    if hdr.more_fragments() || hdr.frag_offset_bytes() != 0 {
        return Err(WireError::Fragmented);
    }
    if hdr.proto != IPPROTO_TCP {
        return Err(WireError::NotTcp(hdr.proto));
    }

    let s = &ip.payload;
    let (hdr, data_off) = TcpHdr::parse(s)?;
    if checksum::reference::in_cksum_pseudo(ip.hdr.src, ip.hdr.dst, IPPROTO_TCP, s) != 0 {
        return Err(WireError::BadTcpChecksum);
    }
    let tcp = Layer {
        hdr,
        options: s[TcpHdr::LEN..data_off].to_vec(),
        payload: s[data_off..].to_vec(), // copy 4: the application bytes
    };
    Ok(RefPacket { eth, ip, tcp })
}

/// Demux through the materializing parse, reduced to the same [`Demux`]
/// the zero-copy codec returns.
pub fn demux_frame(frame: &[u8]) -> Result<Demux, WireError> {
    let pkt = parse_frame(frame)?;
    let headers = IpHdr::LEN + pkt.ip.options.len() + TcpHdr::LEN + pkt.tcp.options.len();
    Ok(Demux {
        src_ip: pkt.ip.hdr.src,
        dst_ip: pkt.ip.hdr.dst,
        src_port: pkt.tcp.hdr.src_port,
        dst_port: pkt.tcp.hdr.dst_port,
        seq: pkt.tcp.hdr.seq,
        ack: pkt.tcp.hdr.ack,
        flags: pkt.tcp.hdr.flags,
        payload_off: HEADER + headers,
        payload_len: pkt.tcp.payload.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::codec;

    fn spec() -> PktSpec {
        PktSpec {
            src_ip: 0x0a00_0007,
            dst_ip: 0xc0a8_0001,
            src_port: 5,
            dst_port: 7,
            seq: 42,
            ack: 7,
            ident: 9,
            ..PktSpec::default()
        }
    }

    #[test]
    fn reference_encode_matches_zero_copy() {
        for payload in [&b""[..], b"x", b"sixteen byte pay", &[0xeeu8; 200]] {
            let mut buf = [0u8; 512];
            let n = codec::encode_frame(&mut buf, &spec(), payload);
            let r = encode_frame(&spec(), payload);
            assert_eq!(&buf[..n], &r[..], "payload len {}", payload.len());
        }
    }

    #[test]
    fn reference_shapes_match_zero_copy() {
        for shape in [
            Shape::Intact,
            Shape::Truncated,
            Shape::Malformed,
            Shape::Fragmented,
        ] {
            let mut buf = [0u8; 256];
            let n = codec::encode_frame_shaped(&mut buf, &spec(), b"pay", shape);
            let r = encode_frame_shaped(&spec(), b"pay", shape);
            assert_eq!(&buf[..n], &r[..], "{shape:?}");
        }
    }

    #[test]
    fn parse_materializes_all_layers() {
        let payload = b"materialized";
        let frame = encode_frame(&spec(), payload);
        let pkt = parse_frame(&frame).unwrap();
        assert_eq!(pkt.eth.ethertype, EtherType::Ipv4);
        assert_eq!(pkt.ip.hdr.proto, IPPROTO_TCP);
        assert_eq!(pkt.ip.hdr.ttl, 64);
        assert_eq!(pkt.tcp.hdr.src_port, 5);
        assert_eq!(pkt.tcp.payload, payload);
    }

    #[test]
    fn reference_demux_matches_zero_copy() {
        let frame = encode_frame(&spec(), b"equivalent");
        assert_eq!(demux_frame(&frame), codec::demux_frame(&frame));
    }

    #[test]
    fn reference_errors_match_zero_copy_on_shaped_frames() {
        for shape in [Shape::Truncated, Shape::Malformed, Shape::Fragmented] {
            let frame = encode_frame_shaped(&spec(), b"pay", shape);
            assert_eq!(demux_frame(&frame), codec::demux_frame(&frame), "{shape:?}");
            assert!(demux_frame(&frame).is_err(), "{shape:?}");
        }
    }
}
