//! Property-based tests over the core data structures and invariants.
//!
//! Each property runs 256 deterministic cases drawn from a seeded
//! SplitMix64 stream — no external fuzzing framework, fully offline,
//! reproducible from the seed alone.

use std::collections::HashMap;

use protolat::kcode::{Body, DataRef, RegionId};
use protolat::machine::{Cache, InstRecord, Machine};
use protolat::netsim::frame::{EtherType, Frame, MacAddr};
use protolat::netsim::rng::SplitMix64;
use protolat::protocols::checksum;
use protolat::protocols::tcpip::hdr::{flags, seq, IpHdr, TcpHdr, IPPROTO_TCP};
use protolat::xkernel::map::Map;
use protolat::xkernel::msg::{Msg, HEADROOM};

const CASES: u64 = 256;

fn rng_for(test: u64, case: u64) -> SplitMix64 {
    SplitMix64::new(0x9809_7350_5EED_0000 ^ (test << 32) ^ case)
}

fn bytes(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<u8> {
    let n = rng.range(lo, hi);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

// ---- checksum ------------------------------------------------------

#[test]
fn checksum_detects_any_single_bit_flip() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        // The checksum field must sit 16-bit aligned in the summed
        // range, so draw an even length in [4, 256).
        let len = 2 * rng.range(2, 128);
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let bit = rng.below(8) as usize;

        let mut pkt = data.clone();
        let ck = checksum::in_cksum(&pkt);
        pkt.extend_from_slice(&ck.to_be_bytes());
        assert!(checksum::verify(&pkt), "case {case}");
        let idx = rng.range(0, pkt.len());
        pkt[idx] ^= 1 << bit;
        assert!(!checksum::verify(&pkt), "case {case}: flip at {idx} bit {bit} undetected");
    }
}

#[test]
fn pseudo_checksum_binds_endpoints() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let data = bytes(&mut rng, 0, 128);
        let src = rng.next_u64() as u32;
        let dst = rng.next_u64() as u32;
        let delta = 1 + rng.below(u32::MAX as u64) as u32;

        let a = checksum::in_cksum_pseudo(src, dst, 6, &data);
        let b = checksum::in_cksum_pseudo(src.wrapping_add(delta), dst, 6, &data);
        // A different source address must change the checksum unless the
        // one's-complement fold happens to collide; require inequality
        // for deltas that touch distinct half-words.
        if !delta.is_multiple_of(0x1_0000) && (delta >> 16) == 0 {
            assert_ne!(a, b, "case {case}");
        }
    }
}

// ---- wire formats ----------------------------------------------------

#[test]
fn ethernet_frame_roundtrips() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let payload = bytes(&mut rng, 0, 1500);
        let mut d = [0u8; 6];
        let mut s = [0u8; 6];
        for b in d.iter_mut().chain(s.iter_mut()) {
            *b = rng.next_u64() as u8;
        }

        let f = Frame::new(MacAddr(d), MacAddr(s), EtherType::Ipv4, payload.clone());
        let parsed = Frame::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(parsed.dst, f.dst, "case {case}");
        assert_eq!(parsed.src, f.src, "case {case}");
        assert!(parsed.payload.len() >= payload.len(), "case {case}");
        assert_eq!(&parsed.payload[..payload.len()], &payload[..], "case {case}");
    }
}

#[test]
fn ip_header_roundtrips() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let len = 20 + rng.below(1480) as u16;
        let ident = rng.next_u64() as u16;
        let src = rng.next_u64() as u32;
        let dst = rng.next_u64() as u32;

        // The plain header, then one with 0..=10 option words (IHL 5..=15).
        for words in [0, rng.below(11) as usize] {
            let options = bytes(&mut rng, 4 * words, 4 * words + 1);
            let hdr_len = IpHdr::LEN + options.len();
            let total_len = len + options.len() as u16;
            let h = IpHdr { tos: 0, total_len, ident, frag: 0, ttl: 64, proto: 6, src, dst };
            let mut wire = Vec::new();
            h.encode(&options, &mut wire);
            let ck = checksum::in_cksum(&wire);
            IpHdr::seal(&mut wire, ck);
            wire.resize(total_len as usize, 0);
            assert_eq!(IpHdr::parse(&wire).unwrap(), (h, hdr_len), "case {case}");
            assert!(checksum::verify(&wire[..hdr_len]), "case {case}");
            assert_eq!(&wire[IpHdr::LEN..hdr_len], &options[..], "case {case}");
        }
    }
}

#[test]
fn tcp_header_roundtrips_with_payload() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let h = TcpHdr {
            src_port: rng.next_u64() as u16,
            dst_port: rng.next_u64() as u16,
            seq: rng.next_u64() as u32,
            ack: rng.next_u64() as u32,
            flags: flags::ACK,
            window: rng.next_u64() as u16,
            urgent: 0,
        };
        let payload = bytes(&mut rng, 0, 64);
        // The plain header, then one with 0..=10 option words (data
        // offset 5..=15).
        for words in [0, rng.below(11) as usize] {
            let options = bytes(&mut rng, 4 * words, 4 * words + 1);
            let mut wire = Vec::new();
            h.encode(&options, &mut wire);
            wire.extend_from_slice(&payload);
            let ck = checksum::in_cksum_pseudo(1, 2, IPPROTO_TCP, &wire);
            TcpHdr::seal(&mut wire, ck);
            let (parsed, off) = TcpHdr::parse(&wire).unwrap();
            assert!(checksum::verify_pseudo(1, 2, IPPROTO_TCP, &wire), "case {case}");
            assert_eq!(parsed, h, "case {case}");
            assert_eq!(off, TcpHdr::LEN + options.len(), "case {case}");
            assert_eq!(&wire[off..], &payload[..], "case {case}");
        }
    }
}

#[test]
fn seq_comparisons_are_antisymmetric() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let a = rng.next_u64() as u32;
        let b = rng.next_u64() as u32;
        if a != b {
            assert_ne!(seq::lt(a, b), seq::lt(b, a), "case {case}");
            assert_eq!(seq::lt(a, b), seq::gt(b, a), "case {case}");
        }
        assert!(seq::leq(a, a));
        assert!(seq::geq(a, a));
    }
}

// ---- xkernel map vs model ---------------------------------------------

#[test]
fn map_behaves_like_hashmap() {
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        let nops = rng.range(1, 200);
        let ops: Vec<(u8, u16, u32)> = (0..nops)
            .map(|_| {
                (
                    rng.below(3) as u8,
                    rng.next_u64() as u16,
                    rng.next_u64() as u32,
                )
            })
            .collect();

        let mut m: Map<u16, u32> = Map::new(32);
        let mut model: HashMap<u16, u32> = HashMap::new();
        for (op, k, v) in ops {
            let h = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            match op {
                0 => {
                    m.bind(h, k, v);
                    model.insert(k, v);
                }
                1 => {
                    let (got, _) = m.lookup(h, &k);
                    assert_eq!(got, model.get(&k).copied(), "case {case}");
                }
                _ => {
                    let got = m.unbind(h, &k);
                    assert_eq!(got, model.remove(&k), "case {case}");
                }
            }
            assert_eq!(m.len(), model.len(), "case {case}");
        }
        // Traversal visits exactly the model's bindings.
        let mut seen = Vec::new();
        m.for_each(|k, v| seen.push((*k, *v)));
        let mut want: Vec<(u16, u32)> = model.into_iter().collect();
        seen.sort_unstable();
        want.sort_unstable();
        assert_eq!(seen, want, "case {case}");
    }
}

// ---- message tool ------------------------------------------------------

#[test]
fn msg_push_pop_are_inverse() {
    for case in 0..CASES {
        let mut rng = rng_for(8, case);
        let payload = bytes(&mut rng, 0, 128);
        // Header pushes must fit in the headroom; redraw until they do
        // (proptest's prop_assume did the same).
        let hdrs: Vec<usize> = loop {
            let n = rng.range(0, 5);
            let h: Vec<usize> = (0..n).map(|_| rng.range(1, 24)).collect();
            if h.iter().sum::<usize>() <= HEADROOM {
                break h;
            }
        };

        let mut msg = Msg::with_payload(&payload, 0x1000);
        let mut pushed: Vec<Vec<u8>> = Vec::new();
        for (i, h) in hdrs.iter().enumerate() {
            let hdr: Vec<u8> = (0..*h).map(|j| (i * 31 + j) as u8).collect();
            msg.push(*h).copy_from_slice(&hdr);
            pushed.push(hdr);
        }
        for hdr in pushed.iter().rev() {
            let got = msg.pop(hdr.len()).unwrap().to_vec();
            assert_eq!(&got, hdr, "case {case}");
        }
        assert_eq!(msg.bytes(), &payload[..], "case {case}");
    }
}

// ---- body model ---------------------------------------------------------

#[test]
fn body_split_conserves_instructions() {
    for case in 0..CASES {
        let mut rng = rng_for(9, case);
        let alu = rng.below(200) as u16;
        let mul = rng.below(4) as u16;
        let nloads = rng.range(0, 20);
        let nstores = rng.range(0, 20);
        let n = rng.range(1, 12);

        let mut b = Body::ops(alu).with_mul(mul);
        for i in 0..nloads {
            b.loads.push(DataRef::Region(RegionId(1), i as u32 * 8));
        }
        for i in 0..nstores {
            b.stores.push(DataRef::Stack(i as u32 * 8));
        }
        let parts = b.split(n);
        assert_eq!(parts.len(), n, "case {case}");
        let total: u32 = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, b.len(), "case {case}");
        let loads: usize = parts.iter().map(|p| p.loads.len()).sum();
        assert_eq!(loads, b.loads.len(), "case {case}");
        // Order preserved across the concatenation.
        let cat: Vec<DataRef> = parts.iter().flat_map(|p| p.loads.clone()).collect();
        assert_eq!(cat, b.loads, "case {case}");
    }
}

#[test]
fn body_expand_matches_len() {
    for case in 0..CASES {
        let mut rng = rng_for(10, case);
        let alu = rng.below(100) as u16;
        let mul = rng.below(4) as u16;
        let nloads = rng.range(0, 16);

        let mut b = Body::ops(alu).with_mul(mul);
        for i in 0..nloads {
            b.loads.push(DataRef::Stack(i as u32 * 8));
        }
        assert_eq!(b.expand().len() as u32, b.len(), "case {case}");
    }
}

// ---- cache model ----------------------------------------------------------

#[test]
fn cache_stats_invariants() {
    for case in 0..CASES {
        let mut rng = rng_for(11, case);
        let n = rng.range(1, 500);
        let addrs: Vec<u64> = (0..n).map(|_| rng.below(0x10000)).collect();

        let mut c = Cache::new(protolat::machine::config::CacheConfig::new(1024, 32));
        for a in &addrs {
            c.access(*a);
        }
        let s = c.stats;
        assert_eq!(s.accesses, addrs.len() as u64, "case {case}");
        assert!(s.misses <= s.accesses, "case {case}");
        assert!(s.replacement_misses <= s.misses, "case {case}");
        // Cold misses equal the number of distinct blocks touched.
        let distinct: std::collections::HashSet<u64> =
            addrs.iter().map(|a| a & !31).collect();
        assert_eq!(s.cold_misses(), distinct.len() as u64, "case {case}");
    }
}

#[test]
fn machine_timing_is_deterministic_and_positive() {
    for case in 0..CASES {
        let mut rng = rng_for(12, case);
        let n = rng.range(1, 300);
        let pcs: Vec<u64> = (0..n).map(|_| rng.below(0x4000)).collect();

        let trace: Vec<InstRecord> =
            pcs.iter().map(|p| InstRecord::alu(p & !3)).collect();
        let mut m1 = Machine::dec3000_600();
        let mut m2 = Machine::dec3000_600();
        let r1 = m1.run(&trace);
        let r2 = m2.run(&trace);
        assert_eq!(r1.cycles(), r2.cycles(), "case {case}");
        assert!(r1.cycles() >= trace.len() as u64 / 2, "case {case}: dual issue bound");
        assert!(r1.cpi() >= 0.5, "case {case}");
    }
}
