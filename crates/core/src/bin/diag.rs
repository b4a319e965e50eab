//! Calibration diagnostic: print per-version metrics for both stacks.

use protolat_core::sweep::{SweepEngine, SweepRow};
use protocols::StackOptions;

fn print_rows(rows: &[SweepRow]) {
    for row in rows {
        let (t, cold) = (&row.timing, &row.cold);
        println!(
            "{:4} {:7.1} {:8.1} {:7} {:7.2} {:7.2} | i:{:>5}/{:>5}/{:>4} d:{:>5}/{:>5}/{:>4} b:{:>5}/{:>5}/{:>4}",
            row.version.name(), t.e2e_us, t.tp_us(), t.client.instructions, t.client.icpi(), t.client.mcpi(),
            cold.icache.misses, cold.icache.accesses, cold.icache.replacement_misses,
            cold.dcache.misses, cold.dcache.accesses, cold.dcache.replacement_misses,
            cold.bcache.misses, cold.bcache.accesses, cold.bcache.replacement_misses,
        );
    }
}

fn main() {
    let rows = SweepEngine::new().sweep(StackOptions::improved(), 2);
    let (tcpip, rpc) = rows.split_at(rows.len() / 2);
    println!("=== TCP/IP ===");
    println!(
        "{:4} {:>7} {:>8} {:>7} {:>7} {:>7} | i:{:>5}/{:>5}/{:>4} d:{:>5}/{:>5}/{:>4} b:{:>5}/{:>5}/{:>4}",
        "ver", "e2e", "Tp", "len", "iCPI", "mCPI", "miss", "acc", "repl", "miss", "acc", "repl", "miss", "acc", "repl"
    );
    print_rows(tcpip);
    println!("\n=== RPC ===");
    print_rows(rpc);
}
