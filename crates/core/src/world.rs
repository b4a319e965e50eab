//! World construction: program + models + hosts, for either stack.
//!
//! The two stacks are measured by one method; [`Stack`] holds the only
//! things that differ between them — the model and its path-inlining
//! groups, the two hosts, TCP's handshake, one ping, and the timing
//! rule — and [`World`] is the one world built over either.

use std::sync::Arc;

use kcode::program::ProgramBuilder;
use kcode::{DataLayout, FuncId, Program};
use netsim::frame::MacAddr;
use netsim::lance::LanceTiming;
use netsim::Ns;
use protocols::driver::LanceModel;
use protocols::libmodel::LibModels;
use protocols::rpc::{RpcHost, RpcModel};
use protocols::tcpip::{TcpIpHost, TcpIpModel};
use protocols::{Host, StackOptions};

use crate::config::Version;
use crate::timing::{RPC_UNTRACED_PER_HOP_US, UNTRACED_PER_HOP_US};

/// MAC addresses of the two hosts.
pub const CLIENT_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 0x01]);
pub const SERVER_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 0x02]);
/// IP addresses (TCP/IP stack).
pub const CLIENT_IP: u32 = 0x0a00_0001;
pub const SERVER_IP: u32 = 0x0a00_0002;

/// What differs between the paper's two stacks.
pub trait Stack: Sized + 'static {
    /// The stack's code model.
    type Model: Clone + Send + Sync;
    /// One host of the testbed.
    type Host: Host;

    /// Register the stack's model after the library models.
    fn register(pb: &mut ProgramBuilder, lib: &LibModels, opts: StackOptions) -> Self::Model;
    /// The functions path-inlining merges: the output path, then the
    /// input path.
    fn path_groups(model: &Self::Model) -> (Vec<FuncId>, Vec<FuncId>);
    /// Instantiate the client host, or the server host.
    fn host(world: &World<Self>, server: bool, timing: LanceTiming) -> Self::Host;
    /// Bring a fresh client and server to where pings flow.
    fn establish(_client: &mut Self::Host, _server: &mut Self::Host, _now: &mut Ns) {}
    /// What one ping sends.
    const PING: &'static [u8];
    /// Send `payload` from the client: one write, or one call.
    fn send(client: &mut Self::Host, payload: &[u8], now: Ns);
    /// Pings the client has seen answered.
    fn completed(client: &Self::Host) -> u64;
    /// The version the server runs when a client at `version` is
    /// timed against it.
    fn server_version(version: Version) -> Version;
    /// Untraced work per hop, µs (see [`crate::timing`]).
    const UNTRACED_PER_HOP_US: f64;
}

/// The host's name and its own and its peer's MAC address.
fn endpoint(server: bool) -> (&'static str, MacAddr, MacAddr) {
    if server {
        ("server", SERVER_MAC, CLIENT_MAC)
    } else {
        ("client", CLIENT_MAC, SERVER_MAC)
    }
}

/// The BSD-derived TCP/IP stack: 1-byte echoes over an established
/// connection, each version's client timed against a server at the
/// same version.
pub struct TcpIp;

impl Stack for TcpIp {
    type Model = TcpIpModel;
    type Host = TcpIpHost;

    fn register(pb: &mut ProgramBuilder, lib: &LibModels, opts: StackOptions) -> TcpIpModel {
        TcpIpModel::register(pb, lib, opts)
    }

    fn path_groups(model: &TcpIpModel) -> (Vec<FuncId>, Vec<FuncId>) {
        (model.output_path_funcs(), model.input_path_funcs())
    }

    fn host(world: &World<Self>, server: bool, timing: LanceTiming) -> TcpIpHost {
        let (name, mac, peer_mac) = endpoint(server);
        let (ip, peer_ip) = if server { (SERVER_IP, CLIENT_IP) } else { (CLIENT_IP, SERVER_IP) };
        let mut h = TcpIpHost::new(
            name,
            world.model.clone(),
            world.lance_model.clone(),
            world.lib.clone(),
            world.data.clone(),
            world.opts,
            ip,
            peer_ip,
            mac,
            peer_mac,
            timing,
        );
        h.echo_server = server;
        h
    }

    /// The three-way handshake, its recordings dropped.
    fn establish(client: &mut TcpIpHost, server: &mut TcpIpHost, now: &mut Ns) {
        server.listen();
        client.connect(*now);
        // Ferry frames until quiescent.
        for _ in 0..8 {
            let mut progress = false;
            for bytes in client.take_tx() {
                *now += 105_000;
                server.deliver_wire(&bytes, *now);
                progress = true;
            }
            for bytes in server.take_tx() {
                *now += 105_000;
                client.deliver_wire(&bytes, *now);
                progress = true;
            }
            if !progress {
                break;
            }
        }
        assert!(client.is_established(), "client handshake failed");
        assert!(server.is_established(), "server handshake failed");
        client.take_episode();
        server.take_episode();
    }

    /// TCP sends nothing for an empty write, so a ping is one byte.
    const PING: &'static [u8] = b"x";

    fn send(client: &mut TcpIpHost, payload: &[u8], now: Ns) {
        client.app_send(payload, now);
    }

    fn completed(client: &TcpIpHost) -> u64 {
        client.delivered.len() as u64
    }

    fn server_version(version: Version) -> Version {
        version
    }

    const UNTRACED_PER_HOP_US: f64 = UNTRACED_PER_HOP_US;
}

/// The Sprite-style RPC stack: zero-byte calls, every version's client
/// timed against an ALL server (the paper's methodology), paying the
/// larger untraced cost of its blocking calls.
pub struct Rpc;

impl Stack for Rpc {
    type Model = RpcModel;
    type Host = RpcHost;

    fn register(pb: &mut ProgramBuilder, lib: &LibModels, opts: StackOptions) -> RpcModel {
        RpcModel::register(pb, lib, opts)
    }

    fn path_groups(model: &RpcModel) -> (Vec<FuncId>, Vec<FuncId>) {
        (model.output_path_funcs(), model.input_path_funcs())
    }

    fn host(world: &World<Self>, server: bool, timing: LanceTiming) -> RpcHost {
        let (name, mac, peer_mac) = endpoint(server);
        let mut h = RpcHost::new(
            name,
            world.model.clone(),
            world.lance_model.clone(),
            world.lib.clone(),
            world.data.clone(),
            world.opts,
            mac,
            peer_mac,
            timing,
        );
        h.is_server = server;
        h
    }

    const PING: &'static [u8] = b"";

    fn send(client: &mut RpcHost, payload: &[u8], now: Ns) {
        client.call(payload, now);
    }

    fn completed(client: &RpcHost) -> u64 {
        client.completed
    }

    fn server_version(_: Version) -> Version {
        Version::All
    }

    const UNTRACED_PER_HOP_US: f64 = RPC_UNTRACED_PER_HOP_US;
}

/// Everything needed to run and replay one stack.
pub struct World<S: Stack> {
    pub program: Arc<Program>,
    pub lib: LibModels,
    pub model: S::Model,
    pub lance_model: LanceModel,
    pub data: DataLayout,
    pub opts: StackOptions,
}

impl<S: Stack> World<S> {
    /// Build the program for the given optimization switches.
    pub fn build(opts: StackOptions) -> Self {
        let mut pb = ProgramBuilder::new();
        let lib = LibModels::register(&mut pb);
        let model = S::register(&mut pb, &lib, opts);
        let lance_model = LanceModel::register(&mut pb, &lib);
        let program = pb.build();
        let data = DataLayout::for_program(&program);
        World { program, lib, model, lance_model, data, opts }
    }

    /// Instantiate the client host.
    pub fn client(&self, timing: LanceTiming) -> S::Host {
        S::host(self, false, timing)
    }

    /// Instantiate the server host.
    pub fn server(&self, timing: LanceTiming) -> S::Host {
        S::host(self, true, timing)
    }

    /// The path-inlining groups: output path, input path.
    pub fn path_groups(&self) -> (Vec<FuncId>, Vec<FuncId>) {
        S::path_groups(&self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcpip_world_builds() {
        let w = World::<TcpIp>::build(StackOptions::improved());
        assert!(w.program.functions().len() > 20);
        assert!(w.program.lookup("tcp_input").is_some());
        assert!(w.program.lookup("in_cksum").is_some());
        assert!(w.program.lookup("lance_transmit").is_some());
    }

    #[test]
    fn rpc_world_builds() {
        let w = World::<Rpc>::build(StackOptions::improved());
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
            let programs = [World::<TcpIp>::build(opts).program, World::<Rpc>::build(opts).program];
            for program in programs {
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
        let orig = World::<TcpIp>::build(StackOptions::original());
        let improved = World::<TcpIp>::build(StackOptions::improved());
        assert!(
            orig.program.total_size_insts() > improved.program.total_size_insts(),
            "narrow types + minor changes must inflate the original"
        );
    }
}
