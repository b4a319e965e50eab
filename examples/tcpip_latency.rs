//! The paper's headline TCP/IP experiment: all six configurations,
//! end-to-end latency plus the CPI decomposition and cache statistics.
//!
//! ```text
//! cargo run --release --example tcpip_latency
//! ```

use protolat::core::config::Version;
use protolat::core::harness::ping_pong;
use protolat::core::timing::{cold_client_stats, time_roundtrip};
use protolat::core::world::{TcpIp, World};
use protolat::protocols::StackOptions;

fn main() {
    println!("TCP/IP latency: BAD / STD / OUT / CLO / PIN / ALL\n");

    let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
    let flow = run.episodes.client_flow();
    let f_tx = run.world.lance_model.f_tx;

    println!(
        "{:<5} {:>9} {:>9} {:>8} {:>6} {:>6}   {:>6} {:>6} {:>6}",
        "ver", "e2e[us]", "Tp[us]", "insts", "iCPI", "mCPI", "i-miss", "i-repl", "b-acc"
    );
    for v in Version::all() {
        let img = v.build(&run.world, &flow);
        let t = time_roundtrip(&run.episodes, &img, &img, f_tx);
        let cold = cold_client_stats(&run.episodes, &img);
        println!(
            "{:<5} {:>9.1} {:>9.1} {:>8} {:>6.2} {:>6.2}   {:>6} {:>6} {:>6}",
            v.name(),
            t.e2e_us,
            t.tp_us(),
            t.client.instructions,
            t.client.icpi(),
            t.client.mcpi(),
            cold.icache.misses,
            cold.icache.replacement_misses,
            cold.bcache.accesses,
        );
    }

    println!(
        "\npaper Table 4 (TCP/IP): BAD 498.8 / STD 351.0 / OUT 336.1 / \
         CLO 325.5 / PIN 317.1 / ALL 310.8 us"
    );
}
