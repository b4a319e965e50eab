//! Layout explorer: compare every placement strategy — including the
//! two the six paper configurations don't expose directly
//! (strict-linear and trace-driven micro-positioning) — on the TCP/IP
//! stack, and render their i-cache occupancy maps.
//!
//! Reproduces the paper's §3.2 finding: micro-positioning minimizes
//! replacement misses but "usually performs somewhat worse than a
//! bipartite layout and sometimes almost equally well, but never
//! better".
//!
//! ```text
//! cargo run --release --example layout_explorer
//! ```

use protolat::core::harness::ping_pong;
use protolat::core::timing::{cold_client_stats, time_roundtrip};
use protolat::core::world::{TcpIp, World};
use protolat::kcode::layout::{build_image, LayoutRequest, LayoutStrategy};
use protolat::kcode::ImageConfig;
use protolat::protocols::StackOptions;

fn main() {
    println!("Layout strategies on the TCP/IP stack (all with outlining)\n");

    let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
    let flow = run.episodes.client_flow();
    let f_tx = run.world.lance_model.f_tx;

    let strategies = [
        ("link-order", LayoutStrategy::LinkOrder),
        ("linear", LayoutStrategy::Linear),
        ("bipartite", LayoutStrategy::Bipartite),
        ("micro-pos", LayoutStrategy::MicroPosition),
        ("pessimal", LayoutStrategy::Bad),
    ];

    println!(
        "{:<11} {:>9} {:>9} {:>6} {:>7} {:>7}",
        "strategy", "e2e[us]", "Tp[us]", "mCPI", "i-miss", "i-repl"
    );
    let mut results = Vec::new();
    for (name, strat) in strategies {
        let img = build_image(
            &run.world.program,
            LayoutRequest::new(
                strat,
                ImageConfig::plain(name)
                    .with_outline(true)
                    .with_specialization(strat != LayoutStrategy::LinkOrder),
            ),
            &flow,
        );
        let t = time_roundtrip(&run.episodes, &img, &img, f_tx);
        let cold = cold_client_stats(&run.episodes, &img);
        println!(
            "{:<11} {:>9.1} {:>9.1} {:>6.2} {:>7} {:>7}",
            name,
            t.e2e_us,
            t.tp_us(),
            t.client.mcpi(),
            cold.icache.misses,
            cold.icache.replacement_misses,
        );
        results.push((name, t.e2e_us, cold.icache.replacement_misses));
    }

    let micro = results.iter().find(|r| r.0 == "micro-pos").unwrap();
    let bipartite = results.iter().find(|r| r.0 == "bipartite").unwrap();
    println!(
        "\nmicro-positioning repl misses: {} vs bipartite {} — yet end-to-end \
         {:.1} vs {:.1} us:\nminimizing replacement misses is not the same as \
         minimizing latency (§3.2).",
        micro.2, bipartite.2, micro.1, bipartite.1
    );
}
