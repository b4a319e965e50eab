//! Property suite for the zero-copy wire data plane.
//!
//! Seeded (SplitMix64) random exploration of two contracts:
//!
//! 1. **View round-trips** — frames built with random field values and
//!    extremal payload lengths / IP + TCP options read back field-for-
//!    field through the zero-copy views.
//! 2. **Codec equivalence** — the zero-copy codec and the
//!    copy-and-materialize reference twin produce identical bytes on
//!    encode (all shapes) and identical `Result<Demux, WireError>` on
//!    demux, including on corrupted and hand-mangled input.

use netsim::frame::{Frame, FCS, MIN_FRAME};
use netsim::rng::SplitMix64;
use protocols::checksum;
use protocols::wire::views::{EthView, ETH_HDR};
use protocols::wire::{codec, reference, PktSpec, Shape, WireError};

const IPPROTO_TCP: u8 = 6;

fn rand_spec(rng: &mut SplitMix64) -> PktSpec {
    PktSpec {
        dst_mac: [0x02, 0, 0, (rng.next_u64() >> 8) as u8, 0, rng.next_u64() as u8],
        src_mac: [0x02, 0, 1, 0, (rng.next_u64() >> 8) as u8, rng.next_u64() as u8],
        src_ip: rng.next_u64() as u32,
        dst_ip: rng.next_u64() as u32,
        src_port: rng.next_u64() as u16,
        dst_port: rng.next_u64() as u16,
        seq: rng.next_u64() as u32,
        ack: rng.next_u64() as u32,
        flags: rng.next_u64() as u8,
        window: rng.next_u64() as u16,
        ident: rng.next_u64() as u16,
        ttl: 1 + (rng.below(255) as u8),
    }
}

fn rand_payload(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Payload lengths that stress the padding boundary (0..=7 straddles
/// the 60-byte minimum body) and larger frames.
fn extremal_lens(rng: &mut SplitMix64) -> Vec<usize> {
    let mut lens: Vec<usize> = (0..=7).collect();
    lens.extend([46, 100, 512, 1000, 1460]);
    lens.push(8 + rng.below(1400) as usize);
    lens
}

#[test]
fn encode_demux_roundtrip_over_seeded_specs() {
    let mut rng = SplitMix64::new(0x31E7_0001);
    for case in 0..200u32 {
        let spec = rand_spec(&mut rng);
        let len = extremal_lens(&mut rng)[case as usize % 14];
        let payload = rand_payload(&mut rng, len);
        let mut buf = vec![0u8; codec::wire_len(len).max(MIN_FRAME)];
        let n = codec::encode_frame(&mut buf, &spec, &payload);
        assert_eq!(n, codec::wire_len(len), "case {case}");
        let d = codec::demux_frame(&buf[..n]).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(d.src_ip, spec.src_ip, "case {case}");
        assert_eq!(d.dst_ip, spec.dst_ip, "case {case}");
        assert_eq!(d.src_port, spec.src_port, "case {case}");
        assert_eq!(d.dst_port, spec.dst_port, "case {case}");
        assert_eq!(d.seq, spec.seq, "case {case}");
        assert_eq!(d.ack, spec.ack, "case {case}");
        assert_eq!(d.flags, spec.flags, "case {case}");
        assert_eq!(d.payload(&buf[..n]), &payload[..], "case {case}");
    }
}

/// Hand-build a frame with IP and TCP options to exercise IHL > 5 and
/// data offset > 5 — the encoder never emits options, but the parser
/// must take them (pcap ingest sees real stacks' frames).
fn frame_with_options(
    rng: &mut SplitMix64,
    ip_opt_words: usize,
    tcp_opt_words: usize,
    payload: &[u8],
) -> Vec<u8> {
    let src_ip = rng.next_u64() as u32;
    let dst_ip = rng.next_u64() as u32;
    let ip_hdr = 20 + 4 * ip_opt_words;
    let tcp_hdr = 20 + 4 * tcp_opt_words;

    let mut tcp = vec![0u8; tcp_hdr];
    tcp[0..2].copy_from_slice(&4242u16.to_be_bytes());
    tcp[2..4].copy_from_slice(&7u16.to_be_bytes());
    tcp[4..8].copy_from_slice(&0x01020304u32.to_be_bytes());
    tcp[12] = ((5 + tcp_opt_words) as u8) << 4;
    tcp[13] = 0x18;
    for b in &mut tcp[20..] {
        *b = rng.next_u64() as u8; // opaque option bytes
    }
    tcp.extend_from_slice(payload);
    let tcp_ck = checksum::in_cksum_pseudo(src_ip, dst_ip, IPPROTO_TCP, &tcp);
    tcp[16..18].copy_from_slice(&tcp_ck.to_be_bytes());

    let total = ip_hdr + tcp.len();
    let mut ip = vec![0u8; ip_hdr];
    ip[0] = 0x40 | (5 + ip_opt_words) as u8;
    ip[2..4].copy_from_slice(&(total as u16).to_be_bytes());
    ip[8] = 64;
    ip[9] = IPPROTO_TCP;
    ip[12..16].copy_from_slice(&src_ip.to_be_bytes());
    ip[16..20].copy_from_slice(&dst_ip.to_be_bytes());
    for b in &mut ip[20..] {
        *b = rng.next_u64() as u8;
    }
    let ip_ck = checksum::in_cksum(&ip);
    ip[10..12].copy_from_slice(&ip_ck.to_be_bytes());
    ip.extend_from_slice(&tcp);

    let mut out = vec![0u8; ETH_HDR];
    out[0] = 0x02;
    out[6] = 0x02;
    out[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
    out.extend_from_slice(&ip);
    let padded = out.len().max(MIN_FRAME - FCS);
    out.resize(padded, 0);
    let fcs = Frame::fcs_of(&out);
    out.extend_from_slice(&fcs.to_be_bytes());
    out
}

#[test]
fn options_bearing_frames_parse_on_both_codecs() {
    let mut rng = SplitMix64::new(0x31E7_0002);
    for case in 0..100u32 {
        let ipw = rng.below(11) as usize; // IHL 5..=15
        let tcpw = rng.below(11) as usize; // doff 5..=15
        let plen = rng.below(64) as usize;
        let payload = rand_payload(&mut rng, plen);
        let frame = frame_with_options(&mut rng, ipw, tcpw, &payload);
        let zc = codec::demux_frame(&frame);
        let rf = reference::demux_frame(&frame);
        assert_eq!(zc, rf, "case {case}: ipw {ipw} tcpw {tcpw}");
        let d = zc.unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(d.src_port, 4242);
        assert_eq!(d.payload(&frame), &payload[..], "case {case}");
        // The full materializing parse exposes the option bytes.
        let pkt = reference::parse_frame(&frame).unwrap();
        assert_eq!(pkt.ip.options.len(), 4 * ipw);
        assert_eq!(pkt.tcp.options.len(), 4 * tcpw);
        assert_eq!(pkt.tcp.payload, payload);
    }
}

#[test]
fn eth_view_reads_what_codec_wrote() {
    let mut rng = SplitMix64::new(0x31E7_0005);
    for _ in 0..50 {
        let spec = rand_spec(&mut rng);
        let mut buf = vec![0u8; 128];
        let n = codec::encode_frame(&mut buf, &spec, b"eth");
        let eth = EthView::parse(&buf[..n - FCS]).unwrap();
        assert_eq!(eth.dst(), spec.dst_mac);
        assert_eq!(eth.src(), spec.src_mac);
        assert_eq!(eth.ethertype(), 0x0800);
    }
}

#[test]
fn codecs_agree_on_corrupted_frames() {
    // Single random bit flips anywhere in the frame: the two codecs
    // must return the same verdict (almost always BadFcs; flips inside
    // the FCS trailer also land BadFcs).
    let mut rng = SplitMix64::new(0x31E7_0006);
    for case in 0..300u32 {
        let spec = rand_spec(&mut rng);
        let plen = rng.below(200) as usize;
        let payload = rand_payload(&mut rng, plen);
        let mut buf = vec![0u8; codec::wire_len(payload.len()).max(MIN_FRAME)];
        let n = codec::encode_frame(&mut buf, &spec, &payload);
        let at = rng.below(n as u64) as usize;
        buf[at] ^= 1 << rng.below(8);
        let frame = &buf[..n];
        assert_eq!(
            codec::demux_frame(frame),
            reference::demux_frame(frame),
            "case {case}: flip at {at}"
        );
        assert_eq!(codec::demux_frame(frame), Err(WireError::BadFcs), "case {case}");
    }
}

#[test]
fn codecs_agree_on_mangled_post_fcs_frames() {
    // Mangle a header field *and re-seal the FCS* so the parse gets
    // past the link layer; both codecs must fail identically at the
    // same rung of the ladder.
    let mut rng = SplitMix64::new(0x31E7_0007);
    for case in 0..300u32 {
        let spec = rand_spec(&mut rng);
        let plen = rng.below(100) as usize;
        let payload = rand_payload(&mut rng, plen);
        let mut buf = vec![0u8; codec::wire_len(payload.len()).max(MIN_FRAME)];
        let n = codec::encode_frame(&mut buf, &spec, &payload);
        let body_len = n - FCS;
        // Mangle somewhere in the first 60 bytes (headers).
        let at = rng.below(body_len.min(60) as u64) as usize;
        buf[at] ^= 1 << rng.below(8);
        let fcs = Frame::fcs_of(&buf[..body_len]);
        buf[body_len..n].copy_from_slice(&fcs.to_be_bytes());
        let frame = &buf[..n];
        let zc = codec::demux_frame(frame);
        let rf = reference::demux_frame(frame);
        assert_eq!(zc, rf, "case {case}: mangle at {at}");
    }
}

#[test]
fn codecs_agree_on_truncation_sweep() {
    let mut rng = SplitMix64::new(0x31E7_0008);
    let spec = rand_spec(&mut rng);
    let payload = rand_payload(&mut rng, 40);
    let mut buf = vec![0u8; 256];
    let n = codec::encode_frame(&mut buf, &spec, &payload);
    for cut in 0..n {
        let frame = &buf[..cut];
        assert_eq!(
            codec::demux_frame(frame),
            reference::demux_frame(frame),
            "cut {cut}"
        );
        assert!(codec::demux_frame(frame).is_err(), "cut {cut}");
    }
}

#[test]
fn shaped_encodes_agree_across_seeded_specs() {
    let mut rng = SplitMix64::new(0x31E7_0009);
    for case in 0..100u32 {
        let spec = rand_spec(&mut rng);
        let plen = rng.below(64) as usize;
        let payload = rand_payload(&mut rng, plen);
        for shape in [Shape::Intact, Shape::Truncated, Shape::Malformed, Shape::Fragmented] {
            let mut buf = vec![0u8; 256];
            let n = codec::encode_frame_shaped(&mut buf, &spec, &payload, shape);
            let r = reference::encode_frame_shaped(&spec, &payload, shape);
            assert_eq!(&buf[..n], &r[..], "case {case}: {shape:?}");
            assert_eq!(
                codec::demux_frame(&buf[..n]),
                reference::demux_frame(&r),
                "case {case}: {shape:?}"
            );
        }
    }
}
