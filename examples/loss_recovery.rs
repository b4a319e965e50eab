//! Loss recovery: inject frame drops and corruption on the wire and
//! watch both stacks recover — TCP via its retransmission timer, the
//! RPC CHAN protocol via its request timeout.
//!
//! ```text
//! cargo run --release --example loss_recovery
//! ```

use protolat::netsim::fault::{FaultInjector, Fate};
use protolat::netsim::Ns;
use protolat::core::world::{Rpc, TcpIp, World};
use protolat::protocols::tcpip::host::RTO_NS;
use protolat::protocols::rpc::CHAN_RTO_NS;
use protolat::protocols::{Host, StackOptions};

fn main() {
    println!("Loss recovery under fault injection\n");
    tcp_demo();
    println!();
    rpc_demo();
}

fn tcp_demo() {
    let world = World::<TcpIp>::build(StackOptions::improved());
    let timing = protolat::netsim::lance::LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    let mut inj = FaultInjector::new(0.3, 0.1, 42);
    let mut now: Ns = 0;

    server.listen();
    client.connect(now);

    let mut sent = 0u32;
    let mut to_send = 20u32;
    println!("TCP/IP: 20 one-byte pings through a 30%-drop, 10%-corrupt wire");
    let mut steps = 0;
    while client.delivered.len() < 20 && steps < 10_000 {
        steps += 1;
        if client.is_established() && sent < to_send && client.tcb.rexmit_q.is_empty() {
            client.app_send(b"p", now);
            sent += 1;
        }
        // Ferry frames with faults.
        for mut bytes in client.take_tx() {
            match inj.process(&mut bytes) {
                Fate::Dropped => {}
                _ => {
                    server.deliver_wire(&bytes, now + 105_000);
                }
            }
        }
        for mut bytes in server.take_tx() {
            match inj.process(&mut bytes) {
                Fate::Dropped => {}
                _ => {
                    client.deliver_wire(&bytes, now + 105_000);
                }
            }
        }
        now += RTO_NS / 2;
        client.poll_timers(now);
        server.poll_timers(now);
        client.take_episode();
        server.take_episode();
        if sent == to_send && client.tcb.rexmit_q.is_empty() && client.delivered.len() < 20 {
            to_send += 0; // waiting on retransmissions
        }
    }
    println!(
        "  delivered {}/20 echoes after {} retransmissions \
         (drops {}, corrupted {})",
        client.delivered.len(),
        client.tcb.rexmits + server.tcb.rexmits,
        inj.stats.dropped,
        inj.stats.corrupted,
    );
    assert!(client.delivered.len() >= 15, "TCP must make progress under loss");
}

fn rpc_demo() {
    let world = World::<Rpc>::build(StackOptions::improved());
    let timing = protolat::netsim::lance::LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    let mut inj = FaultInjector::new(0.3, 0.0, 7);
    let mut now: Ns = 0;

    println!("RPC: 10 zero-byte calls through a 30%-drop wire");
    let mut retries = 0u32;
    for _ in 0..10 {
        let done_before = client.completed;
        client.call(&[], now);
        client.take_episode();
        let mut guard = 0;
        while client.completed == done_before && guard < 50 {
            guard += 1;
            for mut bytes in client.take_tx() {
                if inj.process(&mut bytes) != Fate::Dropped {
                    server.deliver_wire(&bytes, now + 105_000);
                }
            }
            for mut bytes in server.take_tx() {
                if inj.process(&mut bytes) != Fate::Dropped {
                    client.deliver_wire(&bytes, now + 105_000);
                }
            }
            server.take_episode();
            client.take_episode();
            if client.completed == done_before {
                now += CHAN_RTO_NS;
                client.poll_timers(now);
                client.take_episode();
                retries += 1;
            }
        }
        now += 1_000_000;
    }
    println!(
        "  completed {}/10 calls with {} CHAN timeouts (drops {})",
        client.completed, retries, inj.stats.dropped
    );
    assert_eq!(client.completed, 10, "every call must eventually complete");
}
