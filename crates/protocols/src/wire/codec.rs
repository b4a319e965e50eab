//! The zero-copy frame codec: encode a TCP/IPv4/Ethernet frame into a
//! caller-supplied (pooled) buffer, and demux one back down to its
//! four-tuple — all in place, no intermediate structs, no payload
//! copies.
//!
//! Encode writes every byte explicitly (including the pad to the
//! 64-byte Ethernet minimum — pooled buffers hold stale bytes from the
//! previous tenant), so encoding the same packet into a dirty buffer is
//! bit-reproducible.  [`reencode_frame`] turns a buffer that still holds
//! the previous intact frame into the next one by patching only the
//! per-message fields, with checksums summed from field values and the
//! FCS patched from the byte changes — bit-identical to a full encode.
//!
//! Demux enforces the full integrity ladder in the order a real receive
//! path would: frame length, FCS, ethertype, IP header (version / IHL /
//! total length / checksum), fragmentation, protocol, TCP pseudo
//! checksum.  For a frame whose header fields are structurally sound,
//! one pass over its words computes the FCS and the one's-complement
//! sum of the body as independent dependency chains; taking the
//! Ethernet header's, the IP header's and any trailing bytes' own sums
//! off that total leaves the segment checksum.  The verdicts are then
//! read off in ladder order, so the first failing rung — and the
//! [`WireError`] — is the same as a rung-by-rung parse, which every
//! other frame still takes.
//!
//! [`encode_frame_shaped`] produces the deliberately broken variants
//! the fault injector's wire fates call for — truncated, malformed
//! (bad version nibble), fragmented — each crafted so the demux ladder
//! rejects it at exactly one rung.

use netsim::frame::{FcsAcc, Frame, FCS, MIN_FRAME};

use super::views::{EthView, Ipv4View, TcpView, ETH_HDR, IP_HDR_MIN, TCP_HDR_MIN};
use super::WireError;
use crate::tcpip::hdr::IPPROTO_TCP;
use crate::checksum;

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// Minimum frame body (header + padded payload) before the FCS.
const MIN_BODY: usize = MIN_FRAME - FCS;

/// Length a truncated-shape frame is cut to: mid-IP-header, well under
/// the Ethernet minimum, so demux reports a runt.
pub const TRUNCATED_LEN: usize = 32;

/// Everything that goes into a well-formed frame besides the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PktSpec {
    pub dst_mac: [u8; 6],
    pub src_mac: [u8; 6],
    pub src_ip: u32,
    pub dst_ip: u32,
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    /// TCP flag byte (0x10 = ACK, 0x18 = PSH|ACK, ...).
    pub flags: u8,
    pub window: u16,
    /// IP identification field.
    pub ident: u16,
    pub ttl: u8,
}

impl Default for PktSpec {
    fn default() -> Self {
        PktSpec {
            dst_mac: [0x02, 0, 0, 0, 0, 0x02],
            src_mac: [0x02, 0, 0, 0, 0, 0x01],
            src_ip: 0x0a00_0001,
            dst_ip: 0x0a00_0002,
            src_port: 0,
            dst_port: 0,
            seq: 0,
            ack: 0,
            flags: 0x10,
            window: 0xffff,
            ident: 0,
            ttl: 64,
        }
    }
}

/// The wire-shape variants the fault injector asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A well-formed frame.
    Intact,
    /// Cut to [`TRUNCATED_LEN`] bytes mid-header (a runt).
    Truncated,
    /// IP version nibble mangled to 6; FCS still valid, so the error
    /// surfaces at the IP parse, not the link layer.
    Malformed,
    /// More-fragments bit set with a correct header checksum — a valid
    /// fragment this plane cannot reassemble.
    Fragmented,
}

/// Total on-wire length (body padded to the Ethernet minimum + FCS)
/// for a TCP payload of `payload_len` bytes with minimum headers.
pub const fn wire_len(payload_len: usize) -> usize {
    let body = ETH_HDR + IP_HDR_MIN + TCP_HDR_MIN + payload_len;
    let padded = if body < MIN_BODY { MIN_BODY } else { body };
    padded + FCS
}

/// Write the frame body (headers + payload + explicit zero padding)
/// into `out`, with `frag` as the raw IP fragment field.  Returns the
/// padded body length (FCS not yet appended).
fn encode_body(out: &mut [u8], spec: &PktSpec, payload: &[u8], frag: u16) -> usize {
    let seg_len = TCP_HDR_MIN + payload.len();
    let total_len = IP_HDR_MIN + seg_len;
    let body = ETH_HDR + total_len;
    let padded = body.max(MIN_BODY);
    assert!(
        padded + FCS <= out.len(),
        "frame of {} bytes exceeds buffer of {}",
        padded + FCS,
        out.len()
    );
    assert!(total_len <= u16::MAX as usize, "payload too large for one datagram");

    // Ethernet.
    out[0..6].copy_from_slice(&spec.dst_mac);
    out[6..12].copy_from_slice(&spec.src_mac);
    out[12..14].copy_from_slice(&ETHERTYPE_IPV4.to_be_bytes());

    // IPv4, IHL 5.
    let ip = &mut out[ETH_HDR..ETH_HDR + IP_HDR_MIN];
    ip[0] = 0x45;
    ip[1] = 0;
    ip[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
    ip[4..6].copy_from_slice(&spec.ident.to_be_bytes());
    ip[6..8].copy_from_slice(&frag.to_be_bytes());
    ip[8] = spec.ttl;
    ip[9] = IPPROTO_TCP;
    ip[10..12].fill(0);
    ip[12..16].copy_from_slice(&spec.src_ip.to_be_bytes());
    ip[16..20].copy_from_slice(&spec.dst_ip.to_be_bytes());
    let ip_ck = checksum::in_cksum(ip);
    out[ETH_HDR + 10..ETH_HDR + 12].copy_from_slice(&ip_ck.to_be_bytes());

    // TCP, data offset 5.
    let tcp_at = ETH_HDR + IP_HDR_MIN;
    let tcp = &mut out[tcp_at..tcp_at + seg_len];
    tcp[0..2].copy_from_slice(&spec.src_port.to_be_bytes());
    tcp[2..4].copy_from_slice(&spec.dst_port.to_be_bytes());
    tcp[4..8].copy_from_slice(&spec.seq.to_be_bytes());
    tcp[8..12].copy_from_slice(&spec.ack.to_be_bytes());
    tcp[12] = 5 << 4;
    tcp[13] = spec.flags;
    tcp[14..16].copy_from_slice(&spec.window.to_be_bytes());
    tcp[16..20].fill(0); // checksum (computed below) + urgent pointer
    tcp[TCP_HDR_MIN..].copy_from_slice(payload);
    let tcp_ck = checksum::in_cksum_pseudo(spec.src_ip, spec.dst_ip, IPPROTO_TCP, tcp);
    out[tcp_at + 16..tcp_at + 18].copy_from_slice(&tcp_ck.to_be_bytes());

    // Explicit zero padding: pooled buffers carry the previous
    // tenant's bytes, and the FCS covers the pad.
    out[body..padded].fill(0);
    padded
}

/// Encode a well-formed frame into `out`; returns the wire length
/// (body + FCS).  Steady-state cost is a straight sequence of in-place
/// stores plus two checksums — no allocation.
pub fn encode_frame(out: &mut [u8], spec: &PktSpec, payload: &[u8]) -> usize {
    let padded = encode_body(out, spec, payload, 0);
    let fcs = Frame::fcs_of(&out[..padded]);
    out[padded..padded + FCS].copy_from_slice(&fcs.to_be_bytes());
    padded + FCS
}

/// Re-encode `out`, which must hold exactly what [`encode_frame`]
/// wrote for `prev` and `prev_payload`, as the frame for `spec` and
/// `payload`; returns the wire length.  Bit-identical to
/// `encode_frame(out, spec, payload)`, but only the fields that vary
/// per message are rewritten — IP ident, source address and port,
/// sequence and acknowledgement numbers, payload — plus both
/// checksums, summed from the field values, and the FCS, patched from
/// the byte changes ([`FcsAcc`]).  No byte of the frame is re-read
/// except the old checksums and FCS.  Any other difference (addresses,
/// flags, payload length, ...) re-encodes in full.
#[inline]
pub fn reencode_frame(
    out: &mut [u8],
    prev: &PktSpec,
    prev_payload: &[u8],
    spec: &PktSpec,
    payload: &[u8],
) -> usize {
    let varying_only = PktSpec {
        ident: prev.ident,
        src_ip: prev.src_ip,
        src_port: prev.src_port,
        seq: prev.seq,
        ack: prev.ack,
        ..*spec
    } == *prev;
    if !varying_only || payload.len() != prev_payload.len() {
        return encode_frame(out, spec, payload);
    }
    const IP: usize = ETH_HDR;
    const TCP: usize = ETH_HDR + IP_HDR_MIN;
    const DATA: usize = TCP + TCP_HDR_MIN;
    let seg_len = TCP_HDR_MIN + payload.len();
    let total_len = IP_HDR_MIN + seg_len;
    let padded = (ETH_HDR + total_len).max(MIN_BODY);
    assert!(
        padded + FCS <= out.len(),
        "frame of {} bytes exceeds buffer of {}",
        padded + FCS,
        out.len()
    );

    let hi = |x: u32| x >> 16;
    let lo = |x: u32| x & 0xffff;
    let ip_ck = checksum::fold(
        0x4500
            + total_len as u32
            + u32::from(spec.ident)
            + (u32::from(spec.ttl) << 8 | u32::from(IPPROTO_TCP))
            + hi(spec.src_ip)
            + lo(spec.src_ip)
            + hi(spec.dst_ip)
            + lo(spec.dst_ip),
    );
    let tcp_fields = checksum::pseudo_acc(spec.src_ip, spec.dst_ip, IPPROTO_TCP, seg_len)
        + u32::from(spec.src_port)
        + u32::from(spec.dst_port)
        + hi(spec.seq)
        + lo(spec.seq)
        + hi(spec.ack)
        + lo(spec.ack)
        + (5 << 12 | u32::from(spec.flags))
        + u32::from(spec.window);
    let tcp_ck = checksum::fold(checksum::sum_words(payload, tcp_fields));

    let be16_at = |out: &[u8], at: usize| u16::from_be_bytes([out[at], out[at + 1]]);
    let old_ip_ck = be16_at(out, IP + 10);
    let old_tcp_ck = be16_at(out, TCP + 16);
    let old_fcs = u32::from_be_bytes(out[padded..padded + FCS].try_into().unwrap());

    // Byte changes as little-endian words in memory order (a field
    // stored big-endian reads back byte-swapped).
    let w16 = |x: u16| u64::from(x.swap_bytes());
    let w32 = |x: u32| u64::from(x.swap_bytes());
    let mut delta = FcsAcc::new(padded);
    delta.xor_at(IP + 4, w16(prev.ident ^ spec.ident));
    delta.xor_at(
        IP + 10,
        w16(old_ip_ck ^ ip_ck) | w32(prev.src_ip ^ spec.src_ip) << 16,
    );
    delta.xor_at(TCP, w16(prev.src_port ^ spec.src_port));
    delta.xor_at(
        TCP + 4,
        w32(prev.seq ^ spec.seq) | w32(prev.ack ^ spec.ack) << 32,
    );
    delta.xor_at(TCP + 16, w16(old_tcp_ck ^ tcp_ck));
    for (i, (old, new)) in prev_payload.chunks(8).zip(payload.chunks(8)).enumerate() {
        delta.xor_at(DATA + 8 * i, le_word(old) ^ le_word(new));
    }
    let fcs = old_fcs ^ delta.fold();

    out[IP + 4..IP + 6].copy_from_slice(&spec.ident.to_be_bytes());
    out[IP + 10..IP + 12].copy_from_slice(&ip_ck.to_be_bytes());
    out[IP + 12..IP + 16].copy_from_slice(&spec.src_ip.to_be_bytes());
    out[TCP..TCP + 2].copy_from_slice(&spec.src_port.to_be_bytes());
    out[TCP + 4..TCP + 8].copy_from_slice(&spec.seq.to_be_bytes());
    out[TCP + 8..TCP + 12].copy_from_slice(&spec.ack.to_be_bytes());
    out[TCP + 16..TCP + 18].copy_from_slice(&tcp_ck.to_be_bytes());
    out[DATA..DATA + payload.len()].copy_from_slice(payload);
    out[padded..padded + FCS].copy_from_slice(&fcs.to_be_bytes());
    padded + FCS
}

/// Up to eight bytes as a little-endian word, zero-extended.
#[inline(always)]
fn le_word(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..b.len()].copy_from_slice(b);
    u64::from_le_bytes(w)
}

/// Encode a frame in the given [`Shape`]; returns the on-wire length
/// (shorter than [`wire_len`] only for [`Shape::Truncated`]).
pub fn encode_frame_shaped(out: &mut [u8], spec: &PktSpec, payload: &[u8], shape: Shape) -> usize {
    match shape {
        Shape::Intact => encode_frame(out, spec, payload),
        Shape::Truncated => {
            let full = encode_frame(out, spec, payload);
            debug_assert!(TRUNCATED_LEN < full.min(MIN_FRAME));
            TRUNCATED_LEN
        }
        Shape::Malformed => {
            let padded = encode_body(out, spec, payload, 0);
            out[ETH_HDR] = 0x65; // version 6, IHL untouched
            let fcs = Frame::fcs_of(&out[..padded]);
            out[padded..padded + FCS].copy_from_slice(&fcs.to_be_bytes());
            padded + FCS
        }
        Shape::Fragmented => {
            let padded = encode_body(out, spec, payload, 0x2000);
            let fcs = Frame::fcs_of(&out[..padded]);
            out[padded..padded + FCS].copy_from_slice(&fcs.to_be_bytes());
            padded + FCS
        }
    }
}

/// What demux extracts from a valid frame.  Offsets index into the
/// original frame slice so the payload stays zero-copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demux {
    pub src_ip: u32,
    pub dst_ip: u32,
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: u8,
    /// Byte offset of the TCP payload within the frame.
    pub payload_off: usize,
    /// TCP payload length (bounded by the IP total length, which
    /// excludes Ethernet padding).
    pub payload_len: usize,
}

impl Demux {
    /// The payload slice within `frame` (the same slice demux parsed).
    pub fn payload<'a>(&self, frame: &'a [u8]) -> &'a [u8] {
        &frame[self.payload_off..self.payload_off + self.payload_len]
    }
}

/// Parse a received frame down to its demux tuple, enforcing every
/// integrity check on the way.  Zero-copy: all reads go straight
/// against `frame`.
pub fn demux_frame(frame: &[u8]) -> Result<Demux, WireError> {
    if frame.len() < MIN_FRAME {
        return Err(WireError::Runt(frame.len()));
    }
    let body = &frame[..frame.len() - FCS];
    let fcs = u32::from_be_bytes(frame[frame.len() - FCS..].try_into().unwrap());
    let Some(l) = Layout::read(body) else {
        return demux_ladder(body, fcs);
    };
    let seg_at = ETH_HDR + l.hdr_len;
    let seg_end = ETH_HDR + l.total_len;
    let sums = integrity_pass(body, seg_at, seg_end);
    // The ladder's rungs in order; the structural ones passed in
    // `Layout::read`.
    if sums.fcs != fcs {
        return Err(WireError::BadFcs);
    }
    if !folds_to_zero(sums.ip) {
        return Err(WireError::BadIpChecksum);
    }
    let ip = &body[ETH_HDR..];
    let frag = u16::from_be_bytes([ip[6], ip[7]]);
    if frag & 0x3fff != 0 {
        return Err(WireError::Fragmented);
    }
    if ip[9] != IPPROTO_TCP {
        return Err(WireError::NotTcp(ip[9]));
    }
    let src_ip = u32::from_be_bytes(ip[12..16].try_into().unwrap());
    let dst_ip = u32::from_be_bytes(ip[16..20].try_into().unwrap());
    let seg_len = seg_end - seg_at;
    let pseudo = checksum::pseudo_acc(src_ip, dst_ip, IPPROTO_TCP, seg_len);
    if !folds_to_zero(ones_add(sums.seg, u64::from(pseudo))) {
        return Err(WireError::BadTcpChecksum);
    }
    let seg = &body[seg_at..seg_end];
    Ok(Demux {
        src_ip,
        dst_ip,
        src_port: u16::from_be_bytes([seg[0], seg[1]]),
        dst_port: u16::from_be_bytes([seg[2], seg[3]]),
        seq: u32::from_be_bytes(seg[4..8].try_into().unwrap()),
        ack: u32::from_be_bytes(seg[8..12].try_into().unwrap()),
        flags: seg[13],
        payload_off: seg_at + l.data_off,
        payload_len: seg_len - l.data_off,
    })
}

/// Where the IP header and TCP segment sit in a body whose header
/// fields are structurally sound: IPv4 ethertype, version 4, IHL,
/// total length and TCP data offset all within bounds.  Reading them
/// ahead of the FCS verdict only picks the parse; any frame this
/// rejects takes the rung-by-rung [`demux_ladder`].
struct Layout {
    hdr_len: usize,
    total_len: usize,
    data_off: usize,
}

impl Layout {
    #[inline]
    fn read(body: &[u8]) -> Option<Layout> {
        if body.len() < ETH_HDR + IP_HDR_MIN
            || u16::from_be_bytes([body[12], body[13]]) != ETHERTYPE_IPV4
        {
            return None;
        }
        let ip = &body[ETH_HDR..];
        let hdr_len = usize::from(ip[0] & 0x0f) * 4;
        let total_len = usize::from(u16::from_be_bytes([ip[2], ip[3]]));
        if ip[0] >> 4 != 4
            || hdr_len < IP_HDR_MIN
            || hdr_len > total_len
            || total_len > ip.len()
            || total_len - hdr_len < TCP_HDR_MIN
        {
            return None;
        }
        let data_off = usize::from(ip[hdr_len + 12] >> 4) * 4;
        if data_off < TCP_HDR_MIN || data_off > total_len - hdr_len {
            return None;
        }
        Some(Layout {
            hdr_len,
            total_len,
            data_off,
        })
    }
}

/// The three integrity sums of a frame body.
struct Sums {
    fcs: u32,
    /// The IP header's one's-complement sum mod 2^64 − 1, byte pairs
    /// swapped (invisible to its zero test).
    ip: u64,
    /// The TCP segment's, congruent to the true sum mod 2^16 − 1 (the
    /// pseudo-header's sum adds to it).
    seg: u64,
}

/// The FCS and the one's-complement sums of the IP header
/// `[ETH_HDR, seg_at)` and the TCP segment `[seg_at, seg_end)`.
///
/// One pass over the body's words ([`FcsAcc::of_with`]) feeds each word
/// to the FCS and to a running one's-complement sum of the whole body —
/// independent dependency chains.  The segment's sum then comes from
/// that total by O(1) corrections: the Ethernet header, the IP header
/// and any bytes past the segment are summed from their own bytes and
/// taken off.
///
/// One's-complement sums only ever meet a zero test mod 2^16 − 1 here,
/// so their byte pairing only has to agree: a little-endian word that
/// starts at an even byte weighs each big-endian pair swapped (the true
/// sum times 2^8 mod 2^16 − 1), one at an odd byte weighs it right.
#[inline]
fn integrity_pass(body: &[u8], seg_at: usize, seg_end: usize) -> Sums {
    let n = body.len();
    debug_assert!(ETH_HDR <= seg_at && seg_at <= seg_end && seg_end <= n);
    // Two sums, swapped after each word, so consecutive words add on
    // independent chains.
    let (mut s0, mut s1) = (0u64, 0u64);
    let fcs = FcsAcc::of_with(body, |w| (s0, s1) = (s1, ones_add(s0, w)));
    // The sum of bytes `[from, to)` read from `from`, paired like reads
    // from an even byte.
    let sum = |from: usize, to: usize| {
        let mut words = body[from..to].chunks_exact(8);
        let s = (&mut words).fold(0, |s, c| ones_add(s, le_word(c)));
        // Byte by byte: a copy of a run-time length is a libc call.
        let rest = words.remainder().iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
        let s = ones_add(s, rest);
        if from % 2 == 1 { s.rotate_left(8) } else { s }
    };
    // The words end at the body's end, so they start at an even byte
    // iff the body's length is even.
    let total = ones_add(s0, s1);
    let total = if n % 2 == 1 { total.rotate_left(8) } else { total };
    let ip = sum(ETH_HDR, seg_at);
    let seg = [sum(0, ETH_HDR), ip, sum(seg_end, n)]
        .into_iter()
        .fold(total, |s, off| ones_add(s, !off));
    Sums {
        fcs: !fcs.fold(),
        ip,
        seg: seg.rotate_left(8),
    }
}

/// One's-complement addition mod 2^64 − 1 (end-around carry).
#[inline(always)]
fn ones_add(a: u64, b: u64) -> u64 {
    let (s, carry) = a.overflowing_add(b);
    s + u64::from(carry)
}

/// Whether a one's-complement sum mod 2^64 − 1 is ≡ 0 (mod 2^16 − 1),
/// which divides 2^64 − 1 — the verdict `checksum::verify` gives for a
/// range that holds a non-zero byte.
#[inline(always)]
fn folds_to_zero(s: u64) -> bool {
    s.is_multiple_of(0xffff)
}

/// The rung-by-rung parse, for frames whose header fields
/// [`Layout::read`] rejects (and the oracle the one-pass path is tested
/// against).
#[cold]
#[inline(never)]
fn demux_ladder(body: &[u8], fcs: u32) -> Result<Demux, WireError> {
    if Frame::fcs_of(body) != fcs {
        return Err(WireError::BadFcs);
    }
    let eth = EthView::parse(body)?;
    let et = eth.ethertype();
    if et != ETHERTYPE_IPV4 {
        return Err(WireError::NotIpv4(et));
    }
    let ip = Ipv4View::parse(eth.payload())?;
    if ip.more_fragments() || ip.frag_offset_bytes() != 0 {
        return Err(WireError::Fragmented);
    }
    if ip.proto() != IPPROTO_TCP {
        return Err(WireError::NotTcp(ip.proto()));
    }
    let tcp = TcpView::parse(ip.payload(), ip.src(), ip.dst())?;
    Ok(Demux {
        src_ip: ip.src(),
        dst_ip: ip.dst(),
        src_port: tcp.src_port(),
        dst_port: tcp.dst_port(),
        seq: tcp.seq(),
        ack: tcp.ack(),
        flags: tcp.flags(),
        payload_off: ETH_HDR + ip.header_len() + tcp.data_offset(),
        payload_len: tcp.payload().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ErrorClass;
    use netsim::rng::SplitMix64;

    fn spec() -> PktSpec {
        PktSpec {
            src_ip: 0x0a00_002a,
            dst_ip: 0xc0a8_0001,
            src_port: 40001,
            dst_port: 7,
            seq: 1000,
            ack: 2000,
            ident: 0x1234,
            ..PktSpec::default()
        }
    }

    #[test]
    fn roundtrip_minimum_frame() {
        let mut buf = [0u8; 128];
        let payload = b"hello wire panel";
        let n = encode_frame(&mut buf, &spec(), payload);
        assert_eq!(n, wire_len(payload.len()));
        assert_eq!(n, 74); // 14 + 20 + 20 + 16 + 4
        let d = demux_frame(&buf[..n]).unwrap();
        assert_eq!(d.src_ip, 0x0a00_002a);
        assert_eq!(d.dst_ip, 0xc0a8_0001);
        assert_eq!(d.src_port, 40001);
        assert_eq!(d.dst_port, 7);
        assert_eq!(d.seq, 1000);
        assert_eq!(d.ack, 2000);
        assert_eq!(d.payload(&buf[..n]), payload);
    }

    #[test]
    fn empty_payload_pads_to_minimum() {
        let mut buf = [0u8; 128];
        let n = encode_frame(&mut buf, &spec(), b"");
        assert_eq!(n, MIN_FRAME); // 54-byte body padded to 60, + FCS
        let d = demux_frame(&buf[..n]).unwrap();
        assert_eq!(d.payload_len, 0, "padding must not leak into the payload");
    }

    #[test]
    fn dirty_buffer_encodes_identically() {
        let payload = b"pool tenant";
        let mut clean = [0u8; 128];
        let mut dirty = [0xa5u8; 128];
        let n = encode_frame(&mut clean, &spec(), payload);
        let m = encode_frame(&mut dirty, &spec(), payload);
        assert_eq!(n, m);
        assert_eq!(clean[..n], dirty[..n], "stale pool bytes leaked into the frame");
    }

    #[test]
    fn corruption_caught_by_fcs() {
        let mut buf = [0u8; 128];
        let n = encode_frame(&mut buf, &spec(), b"payload");
        for at in 0..n - FCS {
            let mut c = buf;
            c[at] ^= 0x01;
            assert_eq!(demux_frame(&c[..n]), Err(WireError::BadFcs), "flip at {at}");
        }
    }

    #[test]
    fn shaped_truncated_is_runt() {
        let mut buf = [0u8; 128];
        let n = encode_frame_shaped(&mut buf, &spec(), b"x", Shape::Truncated);
        assert_eq!(n, TRUNCATED_LEN);
        let err = demux_frame(&buf[..n]).unwrap_err();
        assert_eq!(err, WireError::Runt(TRUNCATED_LEN));
        assert_eq!(err.class(), ErrorClass::Truncated);
    }

    #[test]
    fn shaped_malformed_is_bad_version() {
        let mut buf = [0u8; 128];
        let n = encode_frame_shaped(&mut buf, &spec(), b"x", Shape::Malformed);
        let err = demux_frame(&buf[..n]).unwrap_err();
        assert_eq!(err, WireError::BadVersion(6), "FCS must pass; IP parse must fail");
        assert_eq!(err.class(), ErrorClass::Malformed);
    }

    #[test]
    fn shaped_fragment_is_fragmented() {
        let mut buf = [0u8; 128];
        let n = encode_frame_shaped(&mut buf, &spec(), b"x", Shape::Fragmented);
        let err = demux_frame(&buf[..n]).unwrap_err();
        assert_eq!(err, WireError::Fragmented, "header checksum must pass with MF set");
        assert_eq!(err.class(), ErrorClass::Fragmented);
    }

    #[test]
    fn shaped_intact_matches_plain_encode() {
        let mut a = [0u8; 128];
        let mut b = [0u8; 128];
        let n = encode_frame(&mut a, &spec(), b"same");
        let m = encode_frame_shaped(&mut b, &spec(), b"same", Shape::Intact);
        assert_eq!((n, &a[..n]), (m, &b[..m]));
    }

    #[test]
    fn non_tcp_protocol_rejected() {
        let mut buf = [0u8; 128];
        let n = encode_frame(&mut buf, &spec(), b"x");
        // Patch proto to UDP keeping the IP checksum correct, re-FCS.
        let body_len = n - FCS;
        {
            let ip = &mut buf[ETH_HDR..body_len];
            let old = u16::from_be_bytes([ip[8], ip[9]]);
            let new = u16::from_be_bytes([ip[8], 17]);
            let ck = checksum::incr_update(u16::from_be_bytes([ip[10], ip[11]]), old, new);
            ip[9] = 17;
            ip[10..12].copy_from_slice(&ck.to_be_bytes());
        }
        let fcs = Frame::fcs_of(&buf[..body_len]);
        buf[body_len..n].copy_from_slice(&fcs.to_be_bytes());
        assert_eq!(demux_frame(&buf[..n]), Err(WireError::NotTcp(17)));
    }

    #[test]
    fn non_ipv4_ethertype_rejected() {
        let mut buf = [0u8; 128];
        let n = encode_frame(&mut buf, &spec(), b"x");
        let body_len = n - FCS;
        buf[12..14].copy_from_slice(&0x3007u16.to_be_bytes());
        let fcs = Frame::fcs_of(&buf[..body_len]);
        buf[body_len..n].copy_from_slice(&fcs.to_be_bytes());
        assert_eq!(demux_frame(&buf[..n]), Err(WireError::NotIpv4(0x3007)));
    }

    fn rand_spec(rng: &mut SplitMix64) -> PktSpec {
        PktSpec {
            src_ip: rng.next_u64() as u32,
            dst_ip: rng.next_u64() as u32,
            src_port: rng.next_u64() as u16,
            dst_port: rng.next_u64() as u16,
            seq: rng.next_u64() as u32,
            ack: rng.next_u64() as u32,
            ident: rng.next_u64() as u16,
            flags: rng.next_u64() as u8,
            window: rng.next_u64() as u16,
            ttl: rng.next_u64() as u8,
            ..PktSpec::default()
        }
    }

    #[test]
    fn reencode_matches_full_encode() {
        // Chains of re-encodes over one buffer: mostly per-message field
        // changes (each varying field changes or not at random, zero
        // fields included), sometimes a constant field or the payload
        // length too (the full-encode fallback).  Every frame must equal
        // a full encode into a dirty buffer, byte for byte.
        let mut rng = SplitMix64::new(0x4E_E4C0);
        for case in 0..200u32 {
            let mut len = rng.below(80) as usize;
            let mut prev = rand_spec(&mut rng);
            let mut prev_payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut buf = [0u8; 256];
            let mut n = encode_frame(&mut buf, &prev, &prev_payload);
            for step in 0..40u32 {
                let mut spec = prev;
                let pick = |rng: &mut SplitMix64| rng.below(3) != 0;
                if pick(&mut rng) {
                    spec.ident = rng.next_u64() as u16;
                }
                if pick(&mut rng) {
                    spec.src_ip = rng.next_u64() as u32;
                }
                if pick(&mut rng) {
                    spec.src_port = if rng.below(2) == 0 {
                        0
                    } else {
                        rng.next_u64() as u16
                    };
                }
                if pick(&mut rng) {
                    spec.seq = rng.next_u64() as u32;
                }
                if pick(&mut rng) {
                    spec.ack = if rng.below(2) == 0 {
                        0
                    } else {
                        rng.next_u64() as u32
                    };
                }
                match rng.below(16) {
                    0 => spec.dst_ip = rng.next_u64() as u32,
                    1 => spec.flags = rng.next_u64() as u8,
                    2 => len = rng.below(80) as usize,
                    _ => {}
                }
                let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let m = reencode_frame(&mut buf, &prev, &prev_payload, &spec, &payload);
                let mut fresh = [0xa5u8; 256];
                let want = encode_frame(&mut fresh, &spec, &payload);
                assert_eq!(
                    (m, &buf[..m]),
                    (want, &fresh[..want]),
                    "case {case} step {step} (previous frame {n} bytes)"
                );
                (prev, prev_payload, n) = (spec, payload, m);
            }
        }
    }

    #[test]
    fn one_pass_demux_matches_ladder() {
        // Intact frames of every payload length class (odd and even
        // bodies, padded minimums) with 0..=3 random byte changes, half
        // of them in the headers; then the IP and TCP checksums and the
        // FCS are each re-sealed or not, so changes reach every rung.
        // The one-pass parse must return the rung-by-rung verdict,
        // error or tuple.
        let mut rng = SplitMix64::new(0x1_9A55);
        let mut verdicts = std::collections::BTreeSet::new();
        for case in 0..4000u32 {
            let spec = rand_spec(&mut rng);
            let plen = rng.below(120) as usize;
            let payload: Vec<u8> = (0..plen).map(|_| rng.next_u64() as u8).collect();
            let mut buf = [0u8; 256];
            let n = encode_frame(&mut buf, &spec, &payload);
            let body_len = n - FCS;
            for _ in 0..rng.below(4) {
                let headers = ETH_HDR + IP_HDR_MIN + TCP_HDR_MIN;
                let span = if rng.below(2) == 0 { headers } else { body_len };
                let at = rng.below(span as u64) as usize;
                buf[at] ^= (rng.below(255) + 1) as u8;
            }
            let ip = ETH_HDR;
            let hdr_len = usize::from(buf[ip] & 0x0f) * 4;
            let total_len = usize::from(u16::from_be_bytes([buf[ip + 2], buf[ip + 3]]));
            if rng.below(2) == 0 && (IP_HDR_MIN..=body_len - ip).contains(&hdr_len) {
                buf[ip + 10..ip + 12].fill(0);
                let ck = checksum::in_cksum(&buf[ip..ip + hdr_len]);
                buf[ip + 10..ip + 12].copy_from_slice(&ck.to_be_bytes());
            }
            if rng.below(2) == 0
                && hdr_len + TCP_HDR_MIN <= total_len
                && total_len <= body_len - ip
            {
                buf[ip + hdr_len + 16..ip + hdr_len + 18].fill(0);
                let src = u32::from_be_bytes(buf[ip + 12..ip + 16].try_into().unwrap());
                let dst = u32::from_be_bytes(buf[ip + 16..ip + 20].try_into().unwrap());
                let seg = &mut buf[ip + hdr_len..ip + total_len];
                let ck = checksum::in_cksum_pseudo(src, dst, IPPROTO_TCP, seg);
                seg[16..18].copy_from_slice(&ck.to_be_bytes());
            }
            if rng.below(8) != 0 {
                let fcs = Frame::fcs_of(&buf[..body_len]);
                buf[body_len..n].copy_from_slice(&fcs.to_be_bytes());
            }
            let frame = &buf[..n];
            let fcs = u32::from_be_bytes(frame[body_len..].try_into().unwrap());
            let want = demux_ladder(&frame[..body_len], fcs);
            assert_eq!(demux_frame(frame), want, "case {case}");
            let verdict = match want {
                Ok(_) => "Ok".to_string(),
                Err(e) => format!("{e:?}").split(['(', ' ']).next().unwrap().to_string(),
            };
            verdicts.insert(verdict);
        }
        // The corpus reaches every rung the one-pass path decides, and
        // the structural rungs it leaves to the ladder.
        for v in [
            "Ok",
            "BadFcs",
            "BadIpChecksum",
            "Fragmented",
            "NotTcp",
            "BadTcpChecksum",
            "NotIpv4",
            "BadVersion",
            "BadTotalLen",
            "TruncatedTcp",
            "BadDataOffset",
        ] {
            assert!(verdicts.contains(v), "no {v} in {verdicts:?}");
        }
    }

    #[test]
    fn layout_read_stays_inside_short_frames() {
        // A minimum frame claiming every IHL and total length that fits
        // its 46 IP bytes: the layout read must not index past a
        // segment the options leave short, and must agree with the
        // ladder either way.
        for ihl in 0..16u8 {
            for total in 0..=46u16 {
                let mut buf = [0u8; 64];
                let n = encode_frame(&mut buf, &spec(), b"");
                buf[ETH_HDR] = 0x40 | ihl;
                buf[ETH_HDR + 2..ETH_HDR + 4].copy_from_slice(&total.to_be_bytes());
                let fcs = Frame::fcs_of(&buf[..n - FCS]);
                buf[n - FCS..n].copy_from_slice(&fcs.to_be_bytes());
                let want = demux_ladder(&buf[..n - FCS], fcs);
                assert_eq!(demux_frame(&buf[..n]), want, "IHL {ihl}, total length {total}");
            }
        }
    }

    #[test]
    fn wire_len_grows_past_minimum() {
        assert_eq!(wire_len(0), 64);
        assert_eq!(wire_len(6), 64); // 60-byte body exactly
        assert_eq!(wire_len(7), 65);
        assert_eq!(wire_len(100), 14 + 40 + 100 + 4);
    }
}
