//! BLAST selective retransmission: a receiver holding a partial
//! multi-fragment message NACKs the sender, which retransmits only the
//! missing fragments.

use protolat::core::world::{Rpc, World};
use protolat::netsim::lance::LanceTiming;
use protolat::protocols::rpc::host::BLAST_NACK_NS;
use protolat::protocols::rpc::{CHAN_RTO_NS, FRAG_SIZE};
use protolat::protocols::{Host, StackOptions};

#[test]
fn nack_recovers_a_single_lost_fragment() {
    let world = World::<Rpc>::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    let mut now = 0u64;

    let args: Vec<u8> = (0..FRAG_SIZE * 3).map(|i| (i % 199) as u8).collect();
    client.call(&args, now);
    client.take_episode();
    let frames = client.take_tx();
    assert!(frames.len() >= 4, "expected >=4 fragments, got {}", frames.len());

    // Drop the second fragment.
    for (i, b) in frames.iter().enumerate() {
        if i != 1 {
            server.deliver_wire(b, now);
        }
    }
    server.take_episode();
    assert_eq!(server.completed, 0, "incomplete message must wait");

    // The server's NACK timer fires and requests the missing fragment.
    now += BLAST_NACK_NS + 1;
    server.poll_timers(now);
    server.take_episode();
    assert_eq!(server.nacks_sent, 1);
    let nacks = server.take_tx();
    assert_eq!(nacks.len(), 1, "one NACK frame");

    // The client retransmits exactly the missing fragment.
    for b in &nacks {
        client.deliver_wire(b, now);
    }
    client.take_episode();
    assert_eq!(client.frags_resent, 1, "only the missing fragment resent");
    let resent = client.take_tx();
    assert_eq!(resent.len(), 1);

    for b in &resent {
        server.deliver_wire(b, now);
    }
    server.take_episode();
    assert_eq!(server.completed, 1, "message completes after the resend");
    assert_eq!(server.delivered[0], args);
}

#[test]
fn nack_lists_multiple_missing_fragments() {
    let world = World::<Rpc>::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    let mut now = 0u64;

    let args: Vec<u8> = vec![5u8; FRAG_SIZE * 4];
    client.call(&args, now);
    client.take_episode();
    let frames = client.take_tx();
    assert!(frames.len() >= 5);

    // Deliver only the first and last fragments.
    server.deliver_wire(&frames[0], now);
    server.deliver_wire(frames.last().unwrap(), now);
    server.take_episode();

    now += BLAST_NACK_NS + 1;
    server.poll_timers(now);
    server.take_episode();
    let nacks = server.take_tx();
    assert_eq!(nacks.len(), 1);
    for b in &nacks {
        client.deliver_wire(b, now);
    }
    client.take_episode();
    let resent = client.take_tx();
    assert_eq!(
        resent.len(),
        frames.len() - 2,
        "exactly the missing fragments are retransmitted"
    );
    for b in &resent {
        server.deliver_wire(b, now);
    }
    server.take_episode();
    assert_eq!(server.completed, 1);
    assert_eq!(server.delivered[0], args);
}

#[test]
fn nack_for_a_call_over_32_fragments_resends_only_the_missing_one() {
    // A NACK mask names the first 32 fragments; the sender must not
    // read fragments past them out of it.
    let world = World::<Rpc>::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    let mut now = 0u64;

    let args: Vec<u8> = (0..40 * 1024).map(|i| (i % 251) as u8).collect();
    client.call(&args, now);
    client.take_episode();
    let frames = client.take_tx();
    assert_eq!(frames.len(), 41, "a 40 KiB call is 41 fragments");

    // Drop only the first fragment.
    for b in &frames[1..] {
        server.deliver_wire(b, now);
    }
    server.take_episode();
    assert_eq!(server.completed, 0);

    now += BLAST_NACK_NS + 1;
    server.poll_timers(now);
    server.take_episode();
    let nacks = server.take_tx();
    assert_eq!(nacks.len(), 1, "one NACK frame");
    for b in &nacks {
        client.deliver_wire(b, now);
    }
    client.take_episode();
    assert_eq!(client.frags_resent, 1, "only fragment 0 resent");
    let resent = client.take_tx();
    assert_eq!(resent.len(), 1);

    for b in &resent {
        server.deliver_wire(b, now);
    }
    server.take_episode();
    assert_eq!(server.completed, 1, "the call completes after the resend");
    assert_eq!(server.delivered[0], args);
}

#[test]
fn completed_message_cancels_pending_nack() {
    let world = World::<Rpc>::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    let mut now = 0u64;

    let args: Vec<u8> = vec![9u8; FRAG_SIZE * 2];
    client.call(&args, now);
    client.take_episode();
    // Deliver everything, but out of order (arms the NACK timer on the
    // first partial state, then completes).
    let mut frames = client.take_tx();
    frames.reverse();
    for b in &frames {
        server.deliver_wire(b, now);
    }
    server.take_episode();
    assert_eq!(server.completed, 1);
    let _reply = server.take_tx(); // the served reply

    // The armed timer fires but finds the message complete: no NACK.
    now += BLAST_NACK_NS + 1;
    server.poll_timers(now);
    server.take_episode();
    assert_eq!(server.nacks_sent, 0);
    assert!(server.take_tx().iter().all(|_| false), "no stray frames");
}

#[test]
fn nack_recovers_a_lost_fragment_past_the_first_32() {
    // Fragment 35 lies outside the first 32: the NACK's mask starts at
    // the first missing fragment, so the call recovers on one NACK
    // instead of waiting for the channel timeout to resend everything.
    let world = World::<Rpc>::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    let mut now = 0u64;

    let args: Vec<u8> = (0..40 * 1024).map(|i| (i % 251) as u8).collect();
    client.call(&args, now);
    client.take_episode();
    let frames = client.take_tx();
    assert_eq!(frames.len(), 41, "a 40 KiB call is 41 fragments");

    for (i, b) in frames.iter().enumerate() {
        if i != 35 {
            server.deliver_wire(b, now);
        }
    }
    server.take_episode();
    assert_eq!(server.completed, 0);

    now += BLAST_NACK_NS + 1;
    server.poll_timers(now);
    server.take_episode();
    assert_eq!(server.nacks_sent, 1);
    let nacks = server.take_tx();
    assert_eq!(nacks.len(), 1, "one NACK frame");

    // The same NACK with its base (BLAST `frag_index`, after the 14-byte
    // Ethernet header) past the message names no fragment.
    let mut past_the_end = nacks[0].clone();
    past_the_end[18..20].copy_from_slice(&u16::MAX.to_be_bytes());
    client.deliver_wire(&past_the_end, now);
    client.take_episode();
    assert_eq!(client.frags_resent, 0, "a base past the message resends nothing");
    assert!(client.take_tx().is_empty());

    for b in &nacks {
        client.deliver_wire(b, now);
    }
    client.take_episode();
    assert_eq!(client.frags_resent, 1, "only fragment 35 resent");
    let resent = client.take_tx();
    assert_eq!(resent, frames[35..36], "the resent frame is fragment 35");

    for b in &resent {
        server.deliver_wire(b, now);
    }
    server.take_episode();
    assert!(now < CHAN_RTO_NS, "recovered before any channel timeout");
    assert_eq!(server.completed, 1, "the call completes after the resend");
    assert_eq!(server.delivered[0], args);
}
