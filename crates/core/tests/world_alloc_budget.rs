//! Allocation budget of one world build.
//!
//! `World::<TcpIp>::build` and `World::<Rpc>::build` assemble a stack's whole
//! program: every function, block, segment and body.  The reproduction
//! builds one world per option set, and under a single malloc arena
//! concurrent builds queue on the arena's lock, so a builder that
//! allocates per block costs wall time far beyond its own.  This binary
//! counts the heap allocations of each build with a counting global
//! allocator and fails if either regresses past its budget; the count
//! is deterministic, so the gate needs no wall clock.
//!
//! It is its own test binary holding exactly one test: the global
//! allocator counts every thread in the process.

mod common;

use protolat_core::world::{Rpc, TcpIp, World};
use protocols::StackOptions;

/// Allocations one improved-options `World::<TcpIp>::build` may make.
const TCPIP_BUDGET: u64 = 720;

/// Allocations one improved-options `World::<Rpc>::build` may make.
const RPC_BUDGET: u64 = 764;

#[test]
fn world_builds_stay_within_allocation_budgets() {
    let opts = StackOptions::improved();
    let (tcpip, _) = common::allocations(|| World::<TcpIp>::build(opts));
    let (rpc, _) = common::allocations(|| World::<Rpc>::build(opts));
    eprintln!("World::<TcpIp>::build: {tcpip} heap allocations (budget {TCPIP_BUDGET})");
    eprintln!("World::<Rpc>::build: {rpc} heap allocations (budget {RPC_BUDGET})");
    assert!(tcpip <= TCPIP_BUDGET, "World::<TcpIp>::build made {tcpip}, budget is {TCPIP_BUDGET}");
    assert!(rpc <= RPC_BUDGET, "World::<Rpc>::build made {rpc}, budget is {RPC_BUDGET}");
}
