//! §4.1's throughput guard: "We verified that none of the techniques
//! negatively affected throughput, and in fact, they slightly improved
//! throughput performance."
//!
//! Bulk transfer of MSS-sized segments: on 10 Mb/s Ethernet the wire
//! dominates, so throughput is wire-limited for every version — but the
//! per-packet processing time (and hence CPU utilization) drops with the
//! techniques.

use crate::config::{StackKind, Version};
use crate::report::{f1, Table};
use crate::sweep::SweepEngine;
use crate::timing::time_host;
use crate::world::{Stack, TcpIp};
use alpha_machine::MachineConfig;
use protocols::{Host, StackOptions};

#[derive(Debug, Clone)]
pub struct Row {
    pub version: Version,
    /// Sender-side processing per bulk segment, µs.
    pub proc_us: f64,
    /// Wire time per MSS frame, µs.
    pub wire_us: f64,
    /// Achieved throughput, Mb/s.
    pub mbps: f64,
    /// Sender CPU utilization, %.
    pub utilization: f64,
}

#[derive(Debug, Clone)]
pub struct Throughput {
    pub rows: Vec<Row>,
}

pub fn run() -> Throughput {
    // Record a bulk send (1 KB payload — a big segment, no
    // fragmentation) on the functional stack.  The world, canonical
    // trace and per-version images all come memoized from the sweep
    // engine; only the bulk episode itself is recorded here.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let sh = eng.tcpip(opts, 2);
    let world = &sh.run.world;
    let timing = netsim::lance::LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    let mut now = 0u64;
    TcpIp::establish(&mut client, &mut server, &mut now);
    let payload = vec![0u8; 1024];
    // Warm-up segment, then the measured one.
    client.app_send(&payload, now);
    client.take_episode();
    client.take_tx();
    client.app_send(&payload, now);
    let ep = client.take_episode();
    let frames = client.take_tx();
    assert_eq!(frames.len(), 1);
    let wire = netsim::wire::Wire::ethernet_10mbps();
    let frame = netsim::frame::Frame::new(
        netsim::frame::MacAddr([0; 6]),
        netsim::frame::MacAddr([0; 6]),
        netsim::frame::EtherType::Ipv4,
        frames[0][14..frames[0].len() - 4].to_vec(),
    );
    let wire_us = wire.tx_time(&frame) as f64 / 1000.0;

    let rows = Version::all()
        .into_iter()
        .map(|v| {
            let img = eng.image(StackKind::TcpIp, opts, 2, v);
            let (_, [(warm, _)]) =
                time_host(&MachineConfig::dec3000_600(), &img, &[&ep], [(&[&ep], &[])]);
            let proc_us = warm.time_us();
            // Pipelined bulk transfer: the slower of CPU and wire paces
            // the stream.
            let per_packet_us = proc_us.max(wire_us);
            let bits = (payload.len() * 8) as f64;
            Row {
                version: v,
                proc_us,
                wire_us,
                mbps: bits / per_packet_us,
                utilization: (proc_us / per_packet_us * 100.0).min(100.0),
            }
        })
        .collect();

    Throughput { rows }
}

impl Throughput {
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Throughput guard (bulk 1KB segments, sender side)",
            &["Version", "proc [us/pkt]", "wire [us/pkt]", "Mb/s", "CPU util [%]"],
        );
        for r in &self.rows {
            t.row(&[
                r.version.name().to_string(),
                f1(r.proc_us),
                f1(r.wire_us),
                f1(r.mbps),
                f1(r.utilization),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn techniques_never_hurt_throughput() {
        let t = run();
        let std = t.rows.iter().find(|r| r.version == Version::Std).unwrap();
        for r in &t.rows {
            if r.version != Version::Bad {
                assert!(
                    r.mbps >= std.mbps - 0.01,
                    "{} throughput {:.1} below STD {:.1}",
                    r.version.name(),
                    r.mbps,
                    std.mbps
                );
            }
        }
    }

    #[test]
    fn wire_limits_bulk_transfer() {
        let t = run();
        for r in &t.rows {
            if r.version != Version::Bad {
                assert!(
                    r.wire_us > r.proc_us,
                    "{}: wire {:.1} vs proc {:.1}",
                    r.version.name(),
                    r.wire_us,
                    r.proc_us
                );
            }
        }
    }

    #[test]
    fn techniques_reduce_cpu_utilization() {
        let t = run();
        let std = t.rows.iter().find(|r| r.version == Version::Std).unwrap();
        let all = t.rows.iter().find(|r| r.version == Version::All).unwrap();
        assert!(
            all.utilization < std.utilization,
            "ALL {:.1}% vs STD {:.1}%",
            all.utilization,
            std.utilization
        );
    }
}
