//! Bulk data paths: IP fragmentation/reassembly (TCP/IP) and BLAST
//! multi-fragment messages (RPC) — the code the latency test never
//! enters, exercised end to end.

use protolat::core::world::{Rpc, TcpIp, World};
use protolat::netsim::lance::LanceTiming;
use protolat::protocols::rpc::FRAG_SIZE;
use protolat::protocols::{Host, StackOptions};

#[test]
fn large_tcp_segment_fragments_and_reassembles() {
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
    assert!(client.is_established());
    client.take_episode();
    server.take_episode();

    // 4 KB payload: > MTU, so IP must fragment into three frames.
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    client.app_send(&payload, 0);
    let frames = client.take_tx();
    assert!(
        frames.len() >= 3,
        "4KB segment must fragment (got {} frames)",
        frames.len()
    );
    for b in &frames {
        server.deliver_wire(b, 0);
    }
    assert_eq!(server.delivered.len(), 1, "reassembled exactly once");
    assert_eq!(server.delivered[0], payload, "payload intact end to end");
    client.take_episode();
    server.take_episode();
}

#[test]
fn fragments_reassemble_out_of_order() {
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
    client.take_episode();
    server.take_episode();

    let payload: Vec<u8> = (0..3500u32).map(|i| (i % 13) as u8).collect();
    client.app_send(&payload, 0);
    let mut frames = client.take_tx();
    frames.reverse(); // deliver fragments back to front
    for b in &frames {
        server.deliver_wire(b, 0);
    }
    assert_eq!(server.delivered.len(), 1);
    assert_eq!(server.delivered[0], payload);
    client.take_episode();
    server.take_episode();
}

#[test]
fn missing_fragment_stalls_reassembly() {
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
    client.take_episode();
    server.take_episode();

    let payload = vec![7u8; 4000];
    client.app_send(&payload, 0);
    let frames = client.take_tx();
    assert!(frames.len() >= 3);
    // Withhold the middle fragment.
    for (i, b) in frames.iter().enumerate() {
        if i != 1 {
            server.deliver_wire(b, 0);
        }
    }
    assert_eq!(server.delivered.len(), 0, "incomplete datagram stays queued");
    // The missing piece arrives late: reassembly completes.
    server.deliver_wire(&frames[1], 0);
    assert_eq!(server.delivered.len(), 1);
    assert_eq!(server.delivered[0], payload);
    client.take_episode();
    server.take_episode();
}

#[test]
fn rpc_large_argument_uses_blast_fragmentation() {
    let world = World::<Rpc>::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);

    // Three BLAST fragments' worth of argument data.
    let args: Vec<u8> = (0..(FRAG_SIZE * 2 + 100))
        .map(|i| (i % 241) as u8)
        .collect();
    client.call(&args, 0);
    client.take_episode();
    let frames = client.take_tx();
    assert!(
        frames.len() >= 3,
        "BLAST must fragment (got {} frames)",
        frames.len()
    );
    for b in &frames {
        server.deliver_wire(b, 0);
    }
    server.take_episode();
    assert_eq!(server.completed, 1, "request reassembled and served");
    assert_eq!(server.delivered[0], args, "arguments intact");

    // The echo reply is equally large and fragments on the way back.
    let replies = server.take_tx();
    assert!(replies.len() >= 3);
    for b in &replies {
        client.deliver_wire(b, 0);
    }
    client.take_episode();
    assert_eq!(client.completed, 1);
    assert_eq!(client.delivered[0], args, "result intact");
}

#[test]
fn throughput_is_wire_limited_not_cpu_limited() {
    // §4.1: the techniques never hurt throughput.  On 10 Mb/s Ethernet a
    // 1 KB segment takes ~850 µs of wire time, far beyond any version's
    // per-packet processing.
    let report = protolat::core::experiments::throughput::run();
    for row in &report.rows {
        assert!(row.wire_us > 500.0);
        assert!(row.proc_us < row.wire_us, "{:?}", row.version);
    }
}
