//! Functional ping-pong runs: drive the two hosts over the simulated
//! wire and capture per-side execution episodes.
//!
//! The latency test is the paper's: zero-payload RPCs, 1-byte TCP
//! segments (TCP sends nothing for empty writes), request-response,
//! 100 000 roundtrips in the real measurement — here one functional
//! roundtrip is recorded and replayed, since replay is deterministic.

use std::sync::Arc;

use kcode::events::{Ev, EventStream};
use netsim::lance::LanceTiming;
use netsim::Ns;
use protocols::Host;

use crate::world::{Stack, World};

/// The episodes of one roundtrip, per side.
#[derive(Debug, Clone)]
pub struct RoundtripEpisodes {
    /// Client send path (app_send → ... → LANCE).
    pub client_out: EventStream,
    /// Server receive + echo reply (one interrupt episode).
    pub server_turn: EventStream,
    /// Client receive path (interrupt → delivery).
    pub client_in: EventStream,
}

impl RoundtripEpisodes {
    /// The client's control flow, out then in — the paper's traced
    /// client processing, and the flow layouts are built from.
    pub fn client_flow(&self) -> Vec<Ev> {
        [&self.client_out.events[..], &self.client_in.events[..]].concat()
    }
}

/// A completed functional run.  The world is shared: every run of one
/// option set can read the same program and models.
pub struct Run<S: Stack> {
    pub episodes: RoundtripEpisodes,
    pub world: Arc<World<S>>,
}

/// Run the ping-pong: `warmup` unrecorded roundtrips (to settle map
/// caches and window state), then one recorded roundtrip.  The hosts
/// are built from `world` and the run only reads it, so one world
/// (passed as an `Arc`) serves any number of runs.
pub fn ping_pong<S: Stack>(world: impl Into<Arc<World<S>>>, warmup: usize) -> Run<S> {
    let world = world.into();
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    let mut now: Ns = 0;
    S::establish(&mut client, &mut server, &mut now);

    let mut roundtrip = || -> RoundtripEpisodes {
        let done_before = S::completed(&client);
        S::send(&mut client, S::PING, now);
        let client_out = client.take_episode();
        let frames = client.take_tx();
        assert_eq!(frames.len(), 1, "one request frame per ping");
        now += 105_000;
        server.deliver_wire(&frames[0], now);
        let server_turn = server.take_episode();
        let replies = server.take_tx();
        assert_eq!(replies.len(), 1, "one reply frame per ping");
        now += 105_000;
        client.deliver_wire(&replies[0], now);
        let client_in = client.take_episode();
        assert_eq!(S::completed(&client), done_before + 1, "the reply must reach the client");
        RoundtripEpisodes { client_out, server_turn, client_in }
    };

    for _ in 0..warmup {
        roundtrip();
    }
    let episodes = roundtrip();
    Run { episodes, world }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Rpc, TcpIp};
    use protocols::StackOptions;

    #[test]
    fn tcpip_pingpong_completes_and_balances() {
        let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
        for ep in [
            &run.episodes.client_out,
            &run.episodes.server_turn,
            &run.episodes.client_in,
        ] {
            assert!(!ep.is_empty());
            ep.check_balanced().expect("episode must balance");
        }
        // The server turn includes the echo send: it is the longest.
        assert!(
            run.episodes.server_turn.len() > run.episodes.client_out.len(),
            "server turn contains both input and output processing"
        );
    }

    #[test]
    fn rpc_pingpong_completes_and_balances() {
        let run = ping_pong(World::<Rpc>::build(StackOptions::improved()), 2);
        for ep in [
            &run.episodes.client_out,
            &run.episodes.server_turn,
            &run.episodes.client_in,
        ] {
            assert!(!ep.is_empty());
            ep.check_balanced().expect("episode must balance");
        }
    }

    #[test]
    fn warmed_up_run_is_deterministic() {
        let a = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
        let b = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
        assert_eq!(a.episodes.client_out, b.episodes.client_out);
        assert_eq!(a.episodes.client_in, b.episodes.client_in);
    }

    #[test]
    fn original_options_run_longer_traces() {
        let imp = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
        let orig = ping_pong(World::<TcpIp>::build(StackOptions::original()), 2);
        // The original kernel does strictly more work per roundtrip.
        let imp_len = imp.episodes.client_flow().len();
        let orig_len = orig.episodes.client_flow().len();
        assert!(
            orig_len > imp_len,
            "original events {orig_len} vs improved {imp_len}"
        );
    }
}
