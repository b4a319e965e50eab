//! Cross-crate integration: the full simulation pipeline through the
//! public facade.

use protolat::core::config::Version;
use protolat::core::harness::ping_pong;
use protolat::core::timing::{
    cold_client_stats, time_roundtrip, time_roundtrip_with, RPC_UNTRACED_PER_HOP_US,
};
use protolat::core::world::{Rpc, TcpIp, World};
use protolat::protocols::{Host, StackOptions};

#[test]
fn tcpip_all_versions_reproduce_paper_ordering() {
    let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
    let flow = run.episodes.client_flow();
    let f_tx = run.world.lance_model.f_tx;
    let e2e = |v: Version| {
        let img = v.build(&run.world, &flow);
        time_roundtrip(&run.episodes, &img, &img, f_tx).e2e_us
    };
    let bad = e2e(Version::Bad);
    let std = e2e(Version::Std);
    let out = e2e(Version::Out);
    let clo = e2e(Version::Clo);
    let all = e2e(Version::All);
    assert!(bad > std + 100.0, "BAD {bad:.0} must dwarf STD {std:.0}");
    assert!(std > out + 10.0, "outlining saves >10us: {std:.1} vs {out:.1}");
    assert!(out > clo, "cloning helps: {out:.1} vs {clo:.1}");
    assert!(clo > all, "ALL fastest: {clo:.1} vs {all:.1}");
    // Paper's headline: BAD is ~60% slower than ALL end-to-end.
    let slowdown = (bad / all - 1.0) * 100.0;
    assert!(
        (35.0..95.0).contains(&slowdown),
        "BAD slowdown {slowdown:.0}% (paper 60.5%)"
    );
}

#[test]
fn rpc_all_versions_reproduce_paper_ordering() {
    let run = ping_pong(World::<Rpc>::build(StackOptions::improved()), 2);
    let flow = run.episodes.client_flow();
    let f_tx = run.world.lance_model.f_tx;
    let server = Version::All.build(&run.world, &flow);
    let e2e = |v: Version| {
        let img = v.build(&run.world, &flow);
        time_roundtrip_with(&run.episodes, &img, &server, f_tx, RPC_UNTRACED_PER_HOP_US)
            .e2e_us
    };
    let bad = e2e(Version::Bad);
    let std = e2e(Version::Std);
    let out = e2e(Version::Out);
    let pin = e2e(Version::Pin);
    assert!(bad > std + 40.0);
    assert!(std > out + 4.0);
    assert!(out > pin + 3.0, "path-inlining is a big RPC win");
    // Paper: BAD is 25.1% above ALL for RPC — a smaller factor than
    // TCP/IP's because the RPC server is pinned at ALL.
    let all = e2e(Version::All);
    let slowdown = (bad / all - 1.0) * 100.0;
    assert!((12.0..45.0).contains(&slowdown), "RPC BAD slowdown {slowdown:.0}%");
}

#[test]
fn techniques_help_rpc_inlining_more_than_tcp() {
    // Paper: OUT->PIN client-side saving is 27.3us (RPC) vs 9.5us (TCP).
    let tcp = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
    let tcp_flow = tcp.episodes.client_flow();
    let tcp_tp = |v: Version| {
        let img = v.build(&tcp.world, &tcp_flow);
        time_roundtrip(&tcp.episodes, &img, &img, tcp.world.lance_model.f_tx).tp_us()
    };
    let rpc = ping_pong(World::<Rpc>::build(StackOptions::improved()), 2);
    let rpc_flow = rpc.episodes.client_flow();
    let server = Version::All.build(&rpc.world, &rpc_flow);
    let rpc_tp = |v: Version| {
        let img = v.build(&rpc.world, &rpc_flow);
        time_roundtrip_with(
            &rpc.episodes,
            &img,
            &server,
            rpc.world.lance_model.f_tx,
            RPC_UNTRACED_PER_HOP_US,
        )
        .tp_us()
    };
    let tcp_gain = (tcp_tp(Version::Out) - tcp_tp(Version::Pin)) / tcp_tp(Version::Out);
    let rpc_gain = (rpc_tp(Version::Out) - rpc_tp(Version::Pin)) / rpc_tp(Version::Out);
    assert!(
        rpc_gain > tcp_gain,
        "relative PIN gain: RPC {:.1}% vs TCP {:.1}%",
        rpc_gain * 100.0,
        tcp_gain * 100.0
    );
}

#[test]
fn handshake_establishes_real_tcp_state() {
    let world = World::<TcpIp>::build(StackOptions::improved());
    let timing = protolat::netsim::lance::LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    server.listen();
    client.connect(0);
    for _ in 0..6 {
        for b in client.take_tx() {
            server.deliver_wire(&b, 0);
        }
        for b in server.take_tx() {
            client.deliver_wire(&b, 0);
        }
    }
    assert!(client.is_established());
    assert!(server.is_established());
    // Sequence numbers crossed over.
    assert_eq!(client.tcb.rcv_nxt, server.tcb.snd_nxt);
    assert_eq!(server.tcb.rcv_nxt, client.tcb.snd_nxt);
}

#[test]
fn classifier_accepts_the_latency_path_and_rejects_others() {
    let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 1);
    let cls = &run.world.model.classifier;
    // A real frame from the functional exchange must match.
    let world = World::<TcpIp>::build(StackOptions::improved());
    let timing = protolat::netsim::lance::LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    server.listen();
    client.connect(0);
    let frames = client.take_tx();
    let (ok, _) = cls.program.eval(&frames[0]);
    assert!(ok, "TCP SYN to port 5001 must match the classifier");
    // A non-IP frame must not.
    let mut junk = frames[0].clone();
    junk[12] = 0x30; // not IPv4
    let (ok, checks) = cls.program.eval(&junk);
    assert!(!ok);
    assert_eq!(checks, 1, "first check must reject");
}

#[test]
fn classifier_cost_appears_when_enabled() {
    let mut opts = StackOptions::improved();
    let base = ping_pong(World::<TcpIp>::build(opts), 2);
    opts.classifier_enabled = true;
    let with = ping_pong(World::<TcpIp>::build(opts), 2);
    let base_flow = base.episodes.client_flow();
    let with_flow = with.episodes.client_flow();
    let img_base = Version::Pin.build(&base.world, &base_flow);
    let img_with = Version::Pin.build(&with.world, &with_flow);
    let len_base = protolat::core::timing::replay_trace(&img_base, &base.episodes.client_in).len();
    let len_with = protolat::core::timing::replay_trace(&img_with, &with.episodes.client_in).len();
    assert!(
        len_with > len_base + 10,
        "classifier must add input-path work: {len_with} vs {len_base}"
    );
}

#[test]
fn cold_stats_are_deterministic() {
    let a = {
        let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
        let flow = run.episodes.client_flow();
        let img = Version::Std.build(&run.world, &flow);
        cold_client_stats(&run.episodes, &img)
    };
    let b = {
        let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 2);
        let flow = run.episodes.client_flow();
        let img = Version::Std.build(&run.world, &flow);
        cold_client_stats(&run.episodes, &img)
    };
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.icache.misses, b.icache.misses);
    assert_eq!(a.bcache.accesses, b.bcache.accesses);
}
