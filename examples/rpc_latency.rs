//! The RPC-stack experiment: zero-byte remote procedure calls through
//! the six-protocol Sprite-style stack, client side varying, server
//! fixed at the ALL configuration (the paper's methodology, which the
//! sweep engine applies to every RPC timing).
//!
//! ```text
//! cargo run --release --example rpc_latency
//! ```

use protolat::core::config::{StackKind, Version};
use protolat::core::sweep::SweepEngine;
use protolat::protocols::StackOptions;

fn main() {
    println!("RPC latency: zero-byte calls, server fixed at ALL\n");

    let eng = SweepEngine::new();
    println!(
        "{:<5} {:>9} {:>9} {:>8} {:>6} {:>6}",
        "ver", "e2e[us]", "Tp[us]", "insts", "iCPI", "mCPI"
    );
    for v in Version::all() {
        let t = eng.timing(StackKind::Rpc, StackOptions::improved(), 2, v);
        println!(
            "{:<5} {:>9.1} {:>9.1} {:>8} {:>6.2} {:>6.2}",
            v.name(),
            t.e2e_us,
            t.tp_us(),
            t.client.instructions,
            t.client.icpi(),
            t.client.mcpi(),
        );
    }

    println!(
        "\nThe RPC stack is 'many small protocols': path-inlining (PIN) \
         buys more here\nthan for TCP/IP, exactly as the paper reports \
         (its Table 4: PIN saves 27.3 us\nof client latency over OUT, \
         versus 9.5 us for TCP/IP)."
    );
}
