//! Zero-window handling: when the peer closes its receive window, the
//! sender queues data and probes with the persist timer until the
//! window reopens (the classic deadlock-avoidance machinery).

use protolat::core::world::{TcpIp, World};
use protolat::netsim::lance::LanceTiming;
use protolat::protocols::tcpip::host::PERSIST_NS;
use protolat::protocols::tcpip::TcpIpHost;
use protolat::protocols::{Host, StackOptions};

fn established_pair() -> (TcpIpHost, TcpIpHost) {
    let world = World::<TcpIp>::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    server.echo_server = false; // plain sink for this test
    server.listen();
    client.connect(0);
    for _ in 0..6 {
        for b in client.take_tx() {
            server.deliver_wire(&b, 0);
        }
        for b in server.take_tx() {
            client.deliver_wire(&b, 0);
        }
        client.poll_timers(2_000_000);
        server.poll_timers(2_000_000);
    }
    assert!(client.is_established() && server.is_established());
    client.take_episode();
    server.take_episode();
    (client, server)
}

#[test]
fn send_blocks_on_zero_window_and_resumes() {
    let (mut client, mut server) = established_pair();
    let mut now = 10_000_000u64;

    // The server's application stops reading: its receive window
    // closes, and the client learns about it.
    server.tcb.rcv_wnd = 0;
    client.tcb.snd_wnd = 0;
    client.app_send(b"queued-data", now);
    assert!(client.take_tx().is_empty(), "nothing may go on a closed window");
    assert_eq!(client.tcb.pending_send, b"queued-data");
    client.take_episode();

    // The persist timer probes with a single byte; the closed window
    // rejects it but answers with an ACK advertising window 0.
    now += PERSIST_NS + 1;
    client.poll_timers(now);
    client.take_episode();
    let probes = client.take_tx();
    assert_eq!(probes.len(), 1, "one window probe");
    for b in &probes {
        server.deliver_wire(b, now);
    }
    server.take_episode();
    assert!(server.delivered.is_empty(), "closed window rejects the probe");
    let acks = server.take_tx();
    assert!(!acks.is_empty(), "probe must elicit an ACK");
    for b in &acks {
        client.deliver_wire(b, now);
    }
    client.take_episode();
    assert_eq!(client.tcb.snd_wnd, 0, "window still closed");

    // The server's application reads: the window reopens.  The next
    // probe is accepted, its ACK advertises the open window, and the
    // client flushes the remaining queued data.
    server.tcb.rcv_wnd = 16 * 1024;
    now += PERSIST_NS + 1;
    client.poll_timers(now);
    client.take_episode();
    for b in client.take_tx() {
        server.deliver_wire(&b, now);
    }
    server.take_episode();
    server.poll_timers(now + 2_000_000);
    server.take_episode();
    for b in server.take_tx() {
        client.deliver_wire(&b, now);
    }
    client.take_episode();
    assert!(client.tcb.pending_send.is_empty(), "queue drained");
    for b in client.take_tx() {
        server.deliver_wire(&b, now);
    }
    server.take_episode();
    // The probe byte plus the flushed remainder reassemble the stream.
    let received: Vec<u8> = server.delivered.concat();
    assert_eq!(received, b"queued-data");
}

#[test]
fn persist_timer_keeps_probing() {
    let (mut client, _server) = established_pair();
    let mut now = 10_000_000u64;
    client.tcb.snd_wnd = 0;
    client.app_send(b"stuck", now);
    client.take_episode();

    for round in 1..=3 {
        now += PERSIST_NS + 1;
        client.poll_timers(now);
        client.take_episode();
        let probes = client.take_tx();
        assert_eq!(probes.len(), 1, "probe round {round}");
        // The probe byte moved to the retransmission queue; the rest
        // stays pending until the window opens.
        assert_eq!(client.tcb.pending_send, b"tuck");
        assert!(client.tcb.probe_outstanding);
    }
}

#[test]
fn window_never_closed_sends_immediately() {
    let (mut client, _server) = established_pair();
    client.app_send(b"normal", 0);
    assert_eq!(client.take_tx().len(), 1);
    assert!(client.tcb.pending_send.is_empty());
    client.take_episode();
}
