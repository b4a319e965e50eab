//! TCP connection teardown: the four-way FIN handshake, in both the
//! orderly and the lossy variants.

use protolat::core::world::{TcpIp, World};
use protolat::netsim::lance::LanceTiming;
use protolat::protocols::tcpip::host::RTO_NS;
use protolat::protocols::tcpip::{TcpIpHost, TcpState};
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

fn ferry(client: &mut TcpIpHost, server: &mut TcpIpHost, now: u64) {
    for _ in 0..6 {
        let mut progress = false;
        for b in client.take_tx() {
            server.deliver_wire(&b, now);
            progress = true;
        }
        for b in server.take_tx() {
            client.deliver_wire(&b, now);
            progress = true;
        }
        client.poll_timers(now);
        server.poll_timers(now);
        if !progress {
            break;
        }
    }
    client.take_episode();
    server.take_episode();
}

#[test]
fn orderly_close_walks_the_state_machine() {
    let (mut client, mut server) = established_pair();

    // Client initiates; server half-closes on seeing the FIN.
    client.close(0);
    assert_eq!(client.tcb.state, TcpState::FinWait1);
    for b in client.take_tx() {
        server.deliver_wire(&b, 0);
    }
    assert_eq!(server.tcb.state, TcpState::CloseWait);
    // The server's delayed ACK fires, moving the client to FIN_WAIT_2.
    server.poll_timers(2_000_000);
    for b in server.take_tx() {
        client.deliver_wire(&b, 0);
    }
    assert_eq!(client.tcb.state, TcpState::FinWait2);

    // Server closes its half.
    server.close(0);
    assert_eq!(server.tcb.state, TcpState::LastAck);
    for b in server.take_tx() {
        client.deliver_wire(&b, 0);
    }
    assert_eq!(client.tcb.state, TcpState::TimeWait);
    for b in client.take_tx() {
        server.deliver_wire(&b, 0);
    }
    assert_eq!(server.tcb.state, TcpState::Closed);
    client.take_episode();
    server.take_episode();
}

#[test]
fn lost_fin_is_retransmitted() {
    let (mut client, mut server) = established_pair();
    client.close(0);
    let _lost = client.take_tx(); // drop the FIN
    assert_eq!(client.tcb.state, TcpState::FinWait1);

    let now = RTO_NS + 1;
    client.poll_timers(now);
    assert!(client.tcb.rexmits >= 1, "FIN must be retransmitted");
    for b in client.take_tx() {
        server.deliver_wire(&b, now);
    }
    assert_eq!(server.tcb.state, TcpState::CloseWait);
    client.take_episode();
    server.take_episode();
}

#[test]
fn data_still_flows_before_close_and_teardown_after() {
    let (mut client, mut server) = established_pair();
    // A normal exchange first.
    client.app_send(b"final", 0);
    ferry(&mut client, &mut server, 0);
    assert_eq!(client.delivered.len(), 1);

    // Then a full bidirectional close.
    client.close(1_000_000);
    ferry(&mut client, &mut server, 3_000_000);
    server.close(4_000_000);
    ferry(&mut client, &mut server, 6_000_000);
    assert_eq!(server.tcb.state, TcpState::Closed);
    assert_eq!(client.tcb.state, TcpState::TimeWait);
}
