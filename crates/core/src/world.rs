//! World construction: program + models + hosts.

use std::sync::Arc;

use kcode::program::ProgramBuilder;
use kcode::{DataLayout, Program};
use netsim::frame::MacAddr;
use netsim::lance::LanceTiming;
use protocols::driver::LanceModel;
use protocols::libmodel::LibModels;
use protocols::rpc::{RpcHost, RpcModel};
use protocols::tcpip::{TcpIpHost, TcpIpModel};
use protocols::StackOptions;

/// MAC addresses of the two hosts.
pub const CLIENT_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 0x01]);
pub const SERVER_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 0x02]);
/// IP addresses (TCP/IP stack).
pub const CLIENT_IP: u32 = 0x0a00_0001;
pub const SERVER_IP: u32 = 0x0a00_0002;

/// Everything needed to run and replay the TCP/IP stack.
pub struct TcpIpWorld {
    pub program: Arc<Program>,
    pub lib: LibModels,
    pub model: TcpIpModel,
    pub lance_model: LanceModel,
    pub data: DataLayout,
    pub opts: StackOptions,
}

impl TcpIpWorld {
    /// Build the program for the given optimization switches.
    pub fn build(opts: StackOptions) -> Self {
        let mut pb = ProgramBuilder::new();
        let lib = LibModels::register(&mut pb);
        let model = TcpIpModel::register(&mut pb, &lib, opts);
        let lance_model = LanceModel::register(&mut pb, &lib);
        let program = pb.build();
        let data = DataLayout::for_program(&program);
        TcpIpWorld { program, lib, model, lance_model, data, opts }
    }

    /// Instantiate the client host.
    pub fn client(&self, timing: LanceTiming) -> TcpIpHost {
        TcpIpHost::new(
            "client",
            self.model.clone(),
            self.lance_model.clone(),
            self.lib.clone(),
            self.data.clone(),
            self.opts,
            CLIENT_IP,
            SERVER_IP,
            CLIENT_MAC,
            SERVER_MAC,
            timing,
        )
    }

    /// Instantiate the echo server host.
    pub fn server(&self, timing: LanceTiming) -> TcpIpHost {
        let mut h = TcpIpHost::new(
            "server",
            self.model.clone(),
            self.lance_model.clone(),
            self.lib.clone(),
            self.data.clone(),
            self.opts,
            SERVER_IP,
            CLIENT_IP,
            SERVER_MAC,
            CLIENT_MAC,
            timing,
        );
        h.echo_server = true;
        h
    }
}

/// Everything needed to run and replay the RPC stack.
pub struct RpcWorld {
    pub program: Arc<Program>,
    pub lib: LibModels,
    pub model: RpcModel,
    pub lance_model: LanceModel,
    pub data: DataLayout,
    pub opts: StackOptions,
}

impl RpcWorld {
    pub fn build(opts: StackOptions) -> Self {
        let mut pb = ProgramBuilder::new();
        let lib = LibModels::register(&mut pb);
        let model = RpcModel::register(&mut pb, &lib, opts);
        let lance_model = LanceModel::register(&mut pb, &lib);
        let program = pb.build();
        let data = DataLayout::for_program(&program);
        RpcWorld { program, lib, model, lance_model, data, opts }
    }

    pub fn client(&self, timing: LanceTiming) -> RpcHost {
        RpcHost::new(
            "client",
            self.model.clone(),
            self.lance_model.clone(),
            self.lib.clone(),
            self.data.clone(),
            self.opts,
            CLIENT_MAC,
            SERVER_MAC,
            timing,
        )
    }

    pub fn server(&self, timing: LanceTiming) -> RpcHost {
        let mut h = RpcHost::new(
            "server",
            self.model.clone(),
            self.lance_model.clone(),
            self.lib.clone(),
            self.data.clone(),
            self.opts,
            SERVER_MAC,
            CLIENT_MAC,
            timing,
        );
        h.is_server = true;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcpip_world_builds() {
        let w = TcpIpWorld::build(StackOptions::improved());
        assert!(w.program.functions().len() > 20);
        assert!(w.program.lookup("tcp_input").is_some());
        assert!(w.program.lookup("in_cksum").is_some());
        assert!(w.program.lookup("lance_transmit").is_some());
    }

    #[test]
    fn rpc_world_builds() {
        let w = RpcWorld::build(StackOptions::improved());
        assert!(w.program.lookup("chan_call").is_some());
        assert!(w.program.lookup("blast_pop").is_some());
        // Many small functions: more protocol functions than TCP/IP's.
        let rpc_funcs = w
            .program
            .functions()
            .iter()
            .filter(|f| f.kind == kcode::FuncKind::Path)
            .count();
        assert!(rpc_funcs >= 14, "rpc paths = {rpc_funcs}");
    }

    /// Block names live in one buffer per function; this pins every
    /// `"function:block"` line of both stacks' improved and original
    /// programs (FNV-1a 64 over the lines), so a builder change that
    /// renames, drops or reorders a block fails here.
    #[test]
    fn block_names_are_pinned() {
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let mut lines = 0;
        for opts in [StackOptions::improved(), StackOptions::original()] {
            for program in [TcpIpWorld::build(opts).program, RpcWorld::build(opts).program] {
                for f in program.functions() {
                    for b in 0..f.blocks.len() {
                        let line = format!("{}:{}\n", f.name, f.block_name(kcode::BlockIdx(b as u32)));
                        digest = line.bytes().fold(digest, |h, byte| {
                            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
                        });
                        lines += 1;
                    }
                }
            }
        }
        assert_eq!(lines, 1572);
        assert_eq!(digest, 0x6550_9974_870c_3f71, "block names digest to {digest:#018x}");
    }

    #[test]
    fn original_and_improved_programs_differ_in_size() {
        let orig = TcpIpWorld::build(StackOptions::original());
        let improved = TcpIpWorld::build(StackOptions::improved());
        assert!(
            orig.program.total_size_insts() > improved.program.total_size_insts(),
            "narrow types + minor changes must inflate the original"
        );
    }
}
