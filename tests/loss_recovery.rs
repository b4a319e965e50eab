//! Failure injection: the protocols must recover from drops,
//! corruption, duplication and reordering — this is what makes them
//! *protocols* rather than codecs.

use protolat::core::world::{Rpc, TcpIp, World};
use protolat::netsim::lance::LanceTiming;
use protolat::protocols::rpc::CHAN_RTO_NS;
use protolat::protocols::tcpip::host::RTO_NS;
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
    client.take_episode();
    server.take_episode();
    (client, server)
}

#[test]
fn tcp_retransmits_after_request_loss() {
    let (mut client, mut server) = established_pair();
    let mut now = 0u64;

    client.app_send(b"x", now);
    let lost = client.take_tx();
    assert_eq!(lost.len(), 1);
    // Drop it.  Nothing arrives; the retransmission timer must fire.
    now += RTO_NS + 1;
    client.poll_timers(now);
    assert_eq!(client.tcb.rexmits, 1, "timer must retransmit");
    let retry = client.take_tx();
    assert_eq!(retry.len(), 1);
    for b in retry {
        server.deliver_wire(&b, now);
    }
    for b in server.take_tx() {
        client.deliver_wire(&b, now);
    }
    assert_eq!(client.delivered.len(), 1, "echo arrives after recovery");
    client.take_episode();
    server.take_episode();
}

#[test]
fn tcp_retransmits_after_reply_loss() {
    let (mut client, mut server) = established_pair();
    let mut now = 0u64;

    client.app_send(b"y", now);
    for b in client.take_tx() {
        server.deliver_wire(&b, now);
    }
    // Drop the server's echo.
    let _lost = server.take_tx();
    assert_eq!(server.delivered.len(), 1, "server got the request");
    // The server's retransmission timer resends the echo.
    now += RTO_NS + 1;
    server.poll_timers(now);
    let retry = server.take_tx();
    assert!(!retry.is_empty(), "server must retransmit the echo");
    for b in retry {
        client.deliver_wire(&b, now);
    }
    assert_eq!(client.delivered.len(), 1);
    client.take_episode();
    server.take_episode();
}

#[test]
fn corrupted_frame_is_dropped_by_fcs_and_recovered() {
    let (mut client, mut server) = established_pair();
    let mut now = 0u64;

    client.app_send(b"z", now);
    let mut frames = client.take_tx();
    frames[0][30] ^= 0x40; // flip a bit mid-frame
    for b in &frames {
        server.deliver_wire(b, now);
    }
    assert_eq!(server.delivered.len(), 0, "FCS must reject the frame");
    assert!(server.take_tx().is_empty(), "no echo for garbage");

    now += RTO_NS + 1;
    client.poll_timers(now);
    for b in client.take_tx() {
        server.deliver_wire(&b, now);
    }
    for b in server.take_tx() {
        client.deliver_wire(&b, now);
    }
    assert_eq!(server.delivered.len(), 1);
    assert_eq!(client.delivered.len(), 1);
    client.take_episode();
    server.take_episode();
}

#[test]
fn tcp_duplicate_segment_is_not_delivered_twice() {
    let (mut client, mut server) = established_pair();
    let now = 0u64;

    client.app_send(b"d", now);
    let frames = client.take_tx();
    // Deliver the same request twice (network duplication).
    for b in &frames {
        server.deliver_wire(b, now);
    }
    server.take_tx();
    for b in &frames {
        server.deliver_wire(b, now);
    }
    assert_eq!(
        server.delivered.len(),
        1,
        "out-of-window duplicate must not reach the application twice"
    );
    client.take_episode();
    server.take_episode();
}

#[test]
fn tcp_congestion_window_halves_on_loss() {
    let (mut client, _server) = established_pair();
    let before = client.tcb.snd_cwnd;
    client.app_send(b"w", 0);
    client.take_tx();
    client.poll_timers(RTO_NS + 1);
    assert!(client.tcb.snd_cwnd < before, "loss must shrink cwnd");
    assert_eq!(client.tcb.snd_cwnd, client.tcb.mss, "back to one segment");
    client.take_episode();
}

#[test]
fn rpc_chan_timeout_retransmits_request() {
    let world = World::<Rpc>::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    let mut now = 0u64;

    client.call(&[], now);
    client.take_episode();
    let _lost = client.take_tx(); // drop the request

    now += CHAN_RTO_NS + 1;
    client.poll_timers(now);
    client.take_episode();
    let retry = client.take_tx();
    assert_eq!(retry.len(), 1, "CHAN must retransmit");
    for b in retry {
        server.deliver_wire(&b, now);
    }
    server.take_episode();
    for b in server.take_tx() {
        client.deliver_wire(&b, now);
    }
    client.take_episode();
    assert_eq!(client.completed, 1, "call completes after the retry");
}

#[test]
fn rpc_duplicate_request_gets_cached_reply_not_reexecution() {
    let world = World::<Rpc>::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);

    client.call(b"once", 0);
    client.take_episode();
    let frames = client.take_tx();
    for b in &frames {
        server.deliver_wire(b, 0);
    }
    server.take_episode();
    let served = server.completed;
    let first_reply = server.take_tx();
    assert_eq!(served, 1);

    // The same request arrives again (client retried, or the network
    // duplicated): CHAN must resend the cached reply without invoking
    // the server procedure again.
    for b in &frames {
        server.deliver_wire(b, 0);
    }
    server.take_episode();
    assert_eq!(server.completed, 1, "no re-execution");
    let second_reply = server.take_tx();
    assert_eq!(second_reply.len(), first_reply.len(), "cached reply resent");
}

#[test]
fn rpc_stale_boot_id_is_rejected() {
    let world = World::<Rpc>::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    // Server "rebooted": its expectation of the peer boot-id changes.
    server.peer_boot_id ^= 0xFFFF;

    client.call(&[], 0);
    client.take_episode();
    for b in client.take_tx() {
        server.deliver_wire(&b, 0);
    }
    server.take_episode();
    assert_eq!(server.completed, 0, "BID must drop stale-boot-id messages");
    assert!(server.take_tx().is_empty());
}
