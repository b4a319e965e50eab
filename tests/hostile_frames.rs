//! Hostile frames on the TCP/IP host's receive path.
//!
//! Each frame below carries a valid FCS and a valid IP header checksum,
//! so only the IP header's structural checks stand between it and the
//! stack.  A datagram whose total length lies about its size must be
//! dropped without a panic; one that carries IP options must be served.
//! After each, a normal echo still completes.

use protolat::core::world::TcpIpWorld;
use protolat::netsim::frame::Frame;
use protolat::netsim::lance::LanceTiming;
use protolat::protocols::checksum;
use protolat::protocols::tcpip::hdr::IpHdr;
use protolat::protocols::tcpip::TcpIpHost;
use protolat::protocols::StackOptions;

fn established_pair() -> (TcpIpHost, TcpIpHost) {
    let world = TcpIpWorld::build(StackOptions::improved());
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
