//! Dump an annotated execution trace (the paper published its raw
//! TCP/IP traces via anonymous FTP; this is our equivalent) and a pcap
//! capture of the wire exchange.
//!
//! ```text
//! cargo run --release --example trace_dump -- OUT.pcap
//! ```
//!
//! Writes the capture to `OUT.pcap` — open it in Wireshark to see the
//! SYN handshake and the ping-pong segments.  The checked-in test
//! fixture `tests/data/tcpip_roundtrip.pcap` is this example's output;
//! regenerate it only by naming that path explicitly.

use protolat::core::config::Version;
use protolat::core::harness::ping_pong;
use protolat::core::timing::replay_trace;
use protolat::core::world::{TcpIp, World};
use protolat::kcode::Symbolizer;
use protolat::netsim::lance::LanceTiming;
use protolat::protocols::{Host, StackOptions};
use trace::pcap::PcapSink;

fn main() {
    let Some(path) = std::env::args_os().nth(1).map(std::path::PathBuf::from) else {
        eprintln!("usage: trace_dump OUT.pcap");
        std::process::exit(2);
    };

    // 1. Annotated instruction trace of the client's input path.
    let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
    let flow = run.episodes.client_flow();
    let img = Version::Std.build(&run.world, &flow);
    let trace = replay_trace(&img, &run.episodes.client_in);
    let sym = Symbolizer::new(&img);

    println!(
        "client input path, STD layout ({} instructions), by function:\n",
        trace.len()
    );
    print!("{}", sym.annotate(&trace));

    // 2. A pcap capture of a fresh exchange (handshake + 3 pings).
    let world = World::<TcpIp>::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    let mut pcap = PcapSink::new(Vec::new()).expect("in-memory pcap");
    let mut now = 0u64;

    server.listen();
    client.connect(now);
    for _ in 0..12 {
        for b in client.take_tx() {
            pcap.record(now, &b).expect("in-memory pcap");
            now += 105_000;
            server.deliver_wire(&b, now);
        }
        for b in server.take_tx() {
            pcap.record(now, &b).expect("in-memory pcap");
            now += 105_000;
            client.deliver_wire(&b, now);
        }
        if client.is_established() && client.delivered.len() < 3 {
            client.app_send(b"ping", now);
        }
        client.take_episode();
        server.take_episode();
        if client.delivered.len() >= 3 {
            break;
        }
    }

    let frames = pcap.len();
    let bytes = pcap.finish().expect("in-memory pcap");
    std::fs::write(&path, &bytes).expect("write pcap");
    println!(
        "\nwrote {} frames ({} bytes) to {} — handshake plus {} echoed pings",
        frames,
        bytes.len(),
        path.display(),
        client.delivered.len(),
    );
}
