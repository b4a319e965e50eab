//! The paper's concluding remarks (§5), quantified:
//!
//! 1. *"The impact of mCPI reducing techniques is becoming increasingly
//!    important as the gap between processor and memory speeds widens.
//!    ... this research was conducted on a 175MHz Alpha-based processor
//!    with a 100MB/s memory system.  We now also have in our lab a
//!    low-cost 266MHz processor with a 66MB/s memory system."*
//!    — rerun the STD vs ALL comparison on a machine with a faster
//!    clock and a slower memory system and watch the technique payoff
//!    grow.
//!
//! 2. *"Modern high-performance network adaptors have much lower
//!    latency than the LANCE ... one should expect RTTs on the order of
//!    50 µs"* — swap in a fast adaptor and watch processing (and hence
//!    the techniques) dominate end-to-end latency.

use alpha_machine::MachineConfig;
use netsim::lance::LanceTiming;
use netsim::frame::PREAMBLE;

use crate::config::{StackKind, Version};
use crate::report::{f1, f2, Table};
use crate::sweep::SweepEngine;
use crate::timing::{time_host, UNTRACED_PER_HOP_US};
use protocols::StackOptions;

/// The "low-cost" machine of the closing remark: 266 MHz core, but a
/// 66 MB/s memory system — every memory stall costs ~2.3× more cycles.
pub fn lowcost_266() -> MachineConfig {
    let mut c = MachineConfig::dec3000_600();
    c.cpu.clock_mhz = 266;
    // 100 MB/s -> 66 MB/s at a 1.52x faster clock: cycle-denominated
    // memory latencies grow by (266/175) * (100/66) ~ 2.3x.
    c.mem.bcache_stall = (c.mem.bcache_stall as f64 * 2.3) as u64;
    c.mem.memory_stall = (c.mem.memory_stall as f64 * 2.3) as u64;
    c.mem.writebuf_retire_cycles = (c.mem.writebuf_retire_cycles as f64 * 2.3) as u64;
    c
}

#[derive(Debug, Clone)]
pub struct MachineRow {
    pub machine: &'static str,
    pub std_tp_us: f64,
    pub all_tp_us: f64,
    pub std_mcpi: f64,
    pub all_mcpi: f64,
}

#[derive(Debug, Clone)]
pub struct AdaptorRow {
    pub adaptor: &'static str,
    pub version: Version,
    pub e2e_us: f64,
    /// Fraction of the roundtrip spent processing (not on the wire or
    /// in the controller).
    pub processing_share: f64,
}

#[derive(Debug, Clone)]
pub struct Future {
    pub machines: Vec<MachineRow>,
    pub adaptors: Vec<AdaptorRow>,
}

pub fn run() -> Future {
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let sh = eng.tcpip(opts, 2);
    let episodes = &sh.run.episodes;
    let std_img = eng.image(StackKind::TcpIp, opts, 2, Version::Std);
    let all_img = eng.image(StackKind::TcpIp, opts, 2, Version::All);

    // --- machine sweep -------------------------------------------------
    // The client's out and in paths, warmed, then measured as one window.
    let client = [&episodes.client_out, &episodes.client_in];
    let machines = [
        ("DEC 3000/600 (175MHz, 100MB/s)", MachineConfig::dec3000_600()),
        ("low-cost (266MHz, 66MB/s)", lowcost_266()),
    ]
    .into_iter()
    .map(|(machine, cfg)| {
        let [s, a] = [&std_img, &all_img]
            .map(|img| time_host(&cfg, img, &client, [(&client, &[])]).1[0].0);
        MachineRow {
            machine,
            std_tp_us: s.time_us(),
            all_tp_us: a.time_us(),
            std_mcpi: s.mcpi(),
            all_mcpi: a.mcpi(),
        }
    })
    .collect();

    // --- adaptor sweep ---------------------------------------------------
    // (controller, wire speed): the LANCE sits on 10 Mb/s Ethernet; the
    // fast adaptor is FDDI/ATM-class (100 Mb/s, the paper's footnote 3).
    let adaptors = [
        ("LANCE + 10Mb/s Ethernet", LanceTiming::dec3000_600(), 10.0),
        ("FDDI/ATM-class (~2us, 100Mb/s)", LanceTiming::fast_adaptor(), 100.0),
    ];
    let mut adaptor_rows = Vec::new();
    for (name, timing, mbps) in adaptors {
        let wire_us = ((64 + PREAMBLE) * 8) as f64 / mbps;
        let hop_us = timing.tx_overhead_ns as f64 / 1000.0 + wire_us;
        for v in [Version::Std, Version::All] {
            let t = eng.timing(StackKind::TcpIp, opts, 2, v);
            // Recompose end-to-end with this adaptor's hop cost.
            let processing = t.e2e_us
                - 2.0 * crate::timing::CONTROLLER_WIRE_US
                - 2.0 * UNTRACED_PER_HOP_US;
            let e2e = processing + 2.0 * hop_us + 2.0 * UNTRACED_PER_HOP_US;
            adaptor_rows.push(AdaptorRow {
                adaptor: name,
                version: v,
                e2e_us: e2e,
                processing_share: processing / e2e,
            });
        }
    }

    Future { machines, adaptors: adaptor_rows }
}

impl Future {
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Concluding remarks (1): techniques vs the memory wall",
            &["Machine", "STD Tp [us]", "ALL Tp [us]", "saved [%]", "STD mCPI", "ALL mCPI"],
        );
        for m in &self.machines {
            t.row(&[
                m.machine.to_string(),
                f1(m.std_tp_us),
                f1(m.all_tp_us),
                f1((1.0 - m.all_tp_us / m.std_tp_us) * 100.0),
                f2(m.std_mcpi),
                f2(m.all_mcpi),
            ]);
        }
        let mut out = t.render();
        let mut t2 = Table::new(
            "Concluding remarks (2): techniques vs the network adaptor",
            &["Adaptor", "Version", "e2e [us]", "processing share [%]"],
        );
        for a in &self.adaptors {
            t2.row(&[
                a.adaptor.to_string(),
                a.version.name().to_string(),
                f1(a.e2e_us),
                f1(a.processing_share * 100.0),
            ]);
        }
        out.push_str(&t2.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_wall_amplifies_the_techniques() {
        let f = run();
        let dec = &f.machines[0];
        let low = &f.machines[1];
        // mCPI grows on the memory-starved machine...
        assert!(low.std_mcpi > dec.std_mcpi * 1.5);
        // ...and the techniques' absolute saving grows with it (the
        // faster core makes everything else cheaper; only the memory
        // stalls — the techniques' target — get worse).
        let dec_saving = dec.std_tp_us - dec.all_tp_us;
        let low_saving = low.std_tp_us - low.all_tp_us;
        assert!(
            low_saving > dec_saving,
            "saving {:.1}us on 266MHz vs {:.1}us on 175MHz",
            low_saving,
            dec_saving
        );
    }

    #[test]
    fn fast_adaptor_makes_processing_dominant() {
        let f = run();
        let lance_std = f
            .adaptors
            .iter()
            .find(|a| a.adaptor.starts_with("LANCE") && a.version == Version::Std)
            .unwrap();
        let fast_std = f
            .adaptors
            .iter()
            .find(|a| a.adaptor.starts_with("FDDI") && a.version == Version::Std)
            .unwrap();
        assert!(fast_std.e2e_us < lance_std.e2e_us / 1.5);
        assert!(fast_std.processing_share > lance_std.processing_share + 0.2);
        // The technique deltas survive the adaptor change untouched —
        // and are now a much larger fraction of the roundtrip.
        let fast_all = f
            .adaptors
            .iter()
            .find(|a| a.adaptor.starts_with("FDDI") && a.version == Version::All)
            .unwrap();
        assert!(fast_std.e2e_us - fast_all.e2e_us > 15.0);
    }
}
