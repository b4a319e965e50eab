//! Hostile frames on both stacks' receive paths.
//!
//! The named cases carry a valid FCS and a valid IP header checksum,
//! so only the IP header's structural checks stand between them and the
//! TCP/IP stack.  A datagram whose total length lies about its size
//! must be dropped without a panic; one that carries IP options must be
//! served.  After each, a normal echo still completes.
//!
//! The seeded property below runs over either stack: thousands of
//! single-frame mutations of valid request frames, each delivered to a
//! server ready for them, must never panic the host.

use protolat::core::world::{Rpc, Stack, TcpIp, World};
use protolat::netsim::frame::Frame;
use protolat::netsim::lance::LanceTiming;
use protolat::netsim::rng::SplitMix64;
use protolat::protocols::checksum;
use protolat::protocols::tcpip::hdr::{IpHdr, TcpHdr};
use protolat::protocols::tcpip::TcpIpHost;
use protolat::protocols::{Host, StackOptions};

fn established_pair() -> (TcpIpHost, TcpIpHost) {
    let world = World::<TcpIp>::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    server.listen();
    client.connect(0);
    for _ in 0..6 {
        for b in client.take_tx() {
            server.deliver_wire(&b, 0);
        }
        for b in server.take_tx() {
            client.deliver_wire(&b, 0);
        }
    }
    assert!(client.is_established() && server.is_established());
    (client, server)
}

/// `wire` with its IP datagram rewritten by `edit`, then the IP header
/// checksum and the FCS sealed again.
fn resealed(wire: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = Frame::from_bytes(wire).expect("a sent frame parses");
    let ip = &mut frame.payload;
    edit(ip);
    let hdr_len = (ip[0] & 0x0f) as usize * 4;
    IpHdr::seal(ip, 0);
    let ck = checksum::in_cksum(&ip[..hdr_len]);
    IpHdr::seal(ip, ck);
    frame.to_bytes()
}

fn set_total_len(ip: &mut [u8], total: u16) {
    ip[2..4].copy_from_slice(&total.to_be_bytes());
}

/// One echo from the client through the server and back, each frame
/// reaching the server as `to_server` rewrites it.
fn echo(
    client: &mut TcpIpHost,
    server: &mut TcpIpHost,
    payload: &[u8],
    to_server: impl Fn(&[u8]) -> Vec<u8>,
) {
    let before = client.delivered.len();
    client.app_send(payload, 0);
    for b in client.take_tx() {
        server.deliver_wire(&to_server(&b), 0);
    }
    for b in server.take_tx() {
        client.deliver_wire(&b, 0);
    }
    assert_eq!(
        client.delivered.len(),
        before + 1,
        "the echo did not come back"
    );
    assert_eq!(client.delivered.last().unwrap(), payload);
}

/// The client's next segment reaches the server first as `hostile`
/// rewrites it, which the server must drop, then intact; the echo
/// completes, and so does a normal one after it.
fn dropped_then_echoed(hostile: impl Fn(&[u8]) -> Vec<u8>) {
    let (mut client, mut server) = established_pair();
    client.app_send(b"hostile", 0);
    let sent = client.take_tx();
    assert!(!sent.is_empty());
    for b in &sent {
        server.deliver_wire(&hostile(b), 0);
    }
    assert!(
        server.delivered.is_empty(),
        "a hostile datagram was delivered"
    );
    assert!(
        server.take_tx().is_empty(),
        "a hostile datagram drew a reply"
    );
    for b in &sent {
        server.deliver_wire(b, 0);
    }
    for b in server.take_tx() {
        client.deliver_wire(&b, 0);
    }
    assert_eq!(client.delivered, [b"hostile".to_vec()]);
    echo(&mut client, &mut server, b"after", <[u8]>::to_vec);
}

#[test]
fn ip_total_length_below_the_header_is_dropped() {
    dropped_then_echoed(|b| resealed(b, |ip| set_total_len(ip, 10)));
}

#[test]
fn ip_total_length_past_the_packet_is_dropped() {
    dropped_then_echoed(|b| {
        resealed(b, |ip| {
            let past = ip.len() as u16 + 1;
            set_total_len(ip, past);
        })
    });
}

#[test]
fn ip_options_are_skipped_and_the_echo_completes() {
    let (mut client, mut server) = established_pair();
    let with_options = |b: &[u8]| {
        resealed(b, |ip| {
            let total = u16::from_be_bytes([ip[2], ip[3]]) + 4;
            ip[0] = 0x46; // IHL 6: one word of options
            ip.splice(IpHdr::LEN..IpHdr::LEN, [1, 1, 1, 1]); // four NOPs
            set_total_len(ip, total);
        })
    };
    echo(&mut client, &mut server, b"options", with_options);
    assert_eq!(server.delivered, [b"options".to_vec()]);
    echo(&mut client, &mut server, b"after", <[u8]>::to_vec);
}

/// Ethernet header and FCS lengths.
const ETH_HDR: usize = 14;
const FCS: usize = 4;

/// Seal the IP header checksum and, where the datagram holds a whole
/// TCP header, the TCP checksum over the segment its total length
/// claims, of the Ethernet frame body `body` (FCS excluded), whatever
/// its lengths say.
fn seal_tcpip(body: &mut [u8]) {
    let eth_end = ETH_HDR.min(body.len());
    let ip = &mut body[eth_end..];
    let hdr_len = (ip.first().map_or(0, |b| b & 0x0f) as usize * 4).max(IpHdr::LEN);
    if ip.len() < hdr_len {
        return;
    }
    IpHdr::seal(ip, 0);
    let ck = checksum::in_cksum(&ip[..hdr_len]);
    IpHdr::seal(ip, ck);
    let total = (u16::from_be_bytes([ip[2], ip[3]]) as usize).clamp(hdr_len, ip.len());
    let addr = |at: usize| u32::from_be_bytes(ip[at..at + 4].try_into().unwrap());
    let (src, dst) = (addr(12), addr(16));
    let seg = &mut ip[hdr_len..total];
    if seg.len() >= TcpHdr::LEN {
        TcpHdr::seal(seg, 0);
        let ck = checksum::in_cksum_pseudo(src, dst, 6, seg);
        TcpHdr::seal(seg, ck);
    }
}

/// `cases` seeded mutations of the frames a client sends for a 16 B and
/// a 3,000 B payload, each frame one case: a few bytes overwritten, the
/// frame truncated, or bytes appended.  `seal` re-seals the stack's
/// own checksums on three cases in four; every case gets a valid FCS.
/// Each goes to a fresh server brought to where requests flow (for
/// TCP, an established connection), which must not panic.
fn survives_mutated_requests<S: Stack>(seed: u64, cases: usize, seal: fn(&mut [u8])) {
    let world = World::<S>::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let ready_pair = || {
        let (mut client, mut server) = (world.client(timing), world.server(timing));
        S::establish(&mut client, &mut server, &mut 0);
        (client, server)
    };
    let requests: Vec<Vec<u8>> = [&[0x5a; 16][..], &[0xa5; 3_000]]
        .iter()
        .flat_map(|payload| {
            let (mut client, _) = ready_pair();
            S::send(&mut client, payload, 0);
            client.take_tx()
        })
        .collect();
    assert!(requests.len() >= 3, "the 3,000 B payload spans frames");
    // The intact 16 B request reaches the server and draws a reply.
    let (_, mut server) = ready_pair();
    server.deliver_wire(&requests[0], 0);
    assert!(!server.take_tx().is_empty(), "an intact request went unanswered");

    let mut rng = SplitMix64::new(seed);
    for case in 0..cases {
        let request = &requests[rng.below(requests.len() as u64) as usize];
        let mut body = request[..request.len() - FCS].to_vec();
        match rng.below(3) {
            0 => {
                for _ in 0..rng.range(1, 5) {
                    let at = rng.below(body.len() as u64) as usize;
                    body[at] = rng.next_u64() as u8;
                }
            }
            1 => body.truncate(rng.below(body.len() as u64) as usize),
            _ => body.extend((0..rng.range(1, 65)).map(|_| rng.next_u64() as u8)),
        }
        if rng.below(4) != 0 {
            seal(&mut body);
        }
        let fcs = Frame::fcs_of(&body);
        body.extend_from_slice(&fcs.to_be_bytes());
        let (_, mut server) = ready_pair();
        let delivered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.deliver_wire(&body, 0);
        }));
        assert!(delivered.is_ok(), "case {case} (seed {seed:#x}) panicked on frame {body:02x?}");
    }
}

#[test]
fn tcpip_survives_mutated_requests() {
    survives_mutated_requests::<TcpIp>(0x7cb1, 4_000, seal_tcpip);
}

#[test]
fn rpc_survives_mutated_requests() {
    survives_mutated_requests::<Rpc>(0x52bc, 4_000, |_| {});
}
