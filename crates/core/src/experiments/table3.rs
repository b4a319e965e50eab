//! Table 3 — comparison of TCP/IP implementations: the 80386 counts of
//! \[CJRS89\], the DEC Unix v3.2c trace measurements cited by the paper,
//! and our x-kernel's measured segment counts.
//!
//! Following the paper's own advice, the portable metric is the number
//! of instructions executed *between demultiplexing boundaries*, not
//! within a named function: IP-input-to-TCP-input and
//! TCP-input-to-socket-delivery.

use crate::config::{StackKind, Version};
use crate::report::{f2, Table};
use crate::sweep::SweepEngine;
use crate::timing::func_ranges;
use alpha_machine::InstRecord;
use kcode::{FuncId, Image, InstSink};
use protocols::StackOptions;

/// Literature constants (from the paper's Table 3).
pub const I386_TCP_INPUT: u64 = 276;
pub const I386_IPINTR: u64 = 57;
pub const DEC_UNIX_IPINTR: u64 = 248;
pub const DEC_UNIX_TCP_INPUT: u64 = 406;
pub const DEC_UNIX_IP_TO_TCP: u64 = 437;
pub const DEC_UNIX_TCP_TO_SOCKET: u64 = 1004;
pub const DEC_UNIX_CPI: f64 = 4.26;
pub const PAPER_XKERNEL_IP_TO_TCP: u64 = 446; // 1450 - 1004
pub const PAPER_XKERNEL_TCP_TO_SOCKET: u64 = 995; // 1441 - 446

#[derive(Debug, Clone)]
pub struct Table3 {
    /// Instructions from entering IP demux to entering TCP demux.
    pub ip_to_tcp: u64,
    /// Instructions from entering TCP demux to application delivery.
    pub tcp_to_socket: u64,
    /// Our measured client CPI.
    pub cpi: f64,
}

/// A counting sink: for each of three functions, the index of the first
/// replayed instruction inside its laid-out blocks.  The demux
/// boundaries are positions within the trace, so this is all of the
/// trace Table 3 needs.
struct FirstIndexSink {
    ranges: [Vec<(u64, u64)>; 3],
    first: [Option<u64>; 3],
    next: u64,
}

impl FirstIndexSink {
    fn new(image: &Image, funcs: [FuncId; 3]) -> Self {
        FirstIndexSink { ranges: funcs.map(|f| func_ranges(image, f)), first: [None; 3], next: 0 }
    }
}

impl InstSink for FirstIndexSink {
    fn emit(&mut self, rec: InstRecord) {
        for (ranges, first) in self.ranges.iter().zip(&mut self.first) {
            if first.is_none() && ranges.iter().any(|&(a, e)| (a..e).contains(&rec.pc)) {
                *first = Some(self.next);
            }
        }
        self.next += 1;
    }
}

/// The index of the first instruction of the client's input episode
/// inside IP demux, TCP demux and application delivery, in that order.
fn demux_starts(eng: &SweepEngine, opts: StackOptions) -> [Option<u64>; 3] {
    let sh = eng.tcpip(opts, 2);
    let img = eng.image(StackKind::TcpIp, opts, 2, Version::Std);
    let m = &sh.run.world.model;
    let mut sink = FirstIndexSink::new(&img, [m.f_ip_demux, m.f_tcp_demux, m.f_test_deliver]);
    img.replay_into_lean(&sh.run.episodes.client_in, &mut sink)
        .expect("episode must replay cleanly");
    sink.first
}

pub fn run() -> Table3 {
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let [ip_start, tcp_start, deliver_start] = demux_starts(eng, opts);
    let ip_start = ip_start.expect("ip demux runs");
    let tcp_start = tcp_start.expect("tcp demux runs");
    let deliver_start = deliver_start.expect("delivery runs");
    assert!(ip_start < tcp_start && tcp_start < deliver_start);

    let t = eng.timing(StackKind::TcpIp, opts, 2, Version::Std);

    Table3 {
        ip_to_tcp: tcp_start - ip_start,
        tcp_to_socket: deliver_start - tcp_start,
        cpi: t.client.cpi(),
    }
}

impl Table3 {
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 3: Comparison of TCP/IP Implementations (input path)",
            &["Count", "80386 [CJRS89]", "DEC Unix v3.2c", "Paper x-kernel", "Ours"],
        );
        t.row(&[
            "in ipintr".into(),
            I386_IPINTR.to_string(),
            DEC_UNIX_IPINTR.to_string(),
            "-".into(),
            "-".into(),
        ]);
        t.row(&[
            "in tcp_input".into(),
            I386_TCP_INPUT.to_string(),
            DEC_UNIX_TCP_INPUT.to_string(),
            "-".into(),
            "-".into(),
        ]);
        t.row(&[
            "IP input -> TCP input".into(),
            "-".into(),
            DEC_UNIX_IP_TO_TCP.to_string(),
            PAPER_XKERNEL_IP_TO_TCP.to_string(),
            self.ip_to_tcp.to_string(),
        ]);
        t.row(&[
            "TCP input -> socket input".into(),
            "-".into(),
            DEC_UNIX_TCP_TO_SOCKET.to_string(),
            PAPER_XKERNEL_TCP_TO_SOCKET.to_string(),
            self.tcp_to_socket.to_string(),
        ]);
        t.row(&[
            "CPI".into(),
            "-".into(),
            f2(DEC_UNIX_CPI),
            "3.30".into(),
            f2(self.cpi),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::replay_trace;

    /// First index of the materialized trace executing inside `func`.
    fn first_index_in(trace: &[InstRecord], image: &Image, func: FuncId) -> Option<u64> {
        let placement = image.placement(func);
        let in_func = |pc: u64| {
            (0..image.program.function(func).blocks.len()).any(|i| {
                let a = placement.block_addr[i];
                pc >= a && pc < a + placement.block_len[i] as u64 * 4
            })
        };
        trace.iter().position(|r| in_func(r.pc)).map(|i| i as u64)
    }

    #[test]
    fn counting_sink_finds_the_materialized_trace_positions() {
        let eng = SweepEngine::new();
        for opts in [StackOptions::improved(), StackOptions::original()] {
            let sh = eng.tcpip(opts, 2);
            let img = eng.image(StackKind::TcpIp, opts, 2, Version::Std);
            let trace = replay_trace(&img, &sh.run.episodes.client_in);
            let m = &sh.run.world.model;
            let want = [m.f_ip_demux, m.f_tcp_demux, m.f_test_deliver]
                .map(|f| first_index_in(&trace, &img, f));
            assert!(want.iter().all(Option::is_some), "{want:?}");
            assert_eq!(demux_starts(&eng, opts), want);
        }
    }

    #[test]
    fn segment_counts_have_paper_shape() {
        let t = run();
        // TCP-side processing dominates IP-side, roughly 2:1 like the
        // paper's 995 vs 446.
        assert!(
            t.tcp_to_socket > t.ip_to_tcp,
            "tcp {} vs ip {}",
            t.tcp_to_socket,
            t.ip_to_tcp
        );
        // Within a factor of ~2 of the paper's absolute counts.
        assert!((200..=1000).contains(&t.ip_to_tcp), "ip_to_tcp {}", t.ip_to_tcp);
        assert!(
            (500..=2200).contains(&t.tcp_to_socket),
            "tcp_to_socket {}",
            t.tcp_to_socket
        );
        // Our CPI beats the DEC Unix 4.26 like the paper's 3.3 did.
        assert!(t.cpi < DEC_UNIX_CPI);
    }
}
