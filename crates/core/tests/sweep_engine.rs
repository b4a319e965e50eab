//! Acceptance tests for the sweep engine: memoized results must be
//! byte-for-byte identical to fresh computation, the parallel sweep
//! must equal a serial one, and a timing composed from a client half
//! and a shared server half must equal the unsplit reference.

use std::sync::Arc;

use alpha_machine::{Machine, MachineConfig};
use protolat_core::config::{StackKind, Version};
use protolat_core::experiments::table1::single_toggle_options;
use protolat_core::harness::{ping_pong, RoundtripEpisodes};
use protolat_core::sweep::{grid, par_map, SweepEngine};
use protolat_core::timing::{
    time_host_materialized, time_roundtrip_materialized, time_roundtrip_with, RoundtripTiming,
    RPC_UNTRACED_PER_HOP_US, UNTRACED_PER_HOP_US,
};
use protolat_core::world::{TcpIp, World};
use protocols::StackOptions;

fn assert_timing_eq(a: &RoundtripTiming, b: &RoundtripTiming, what: &str) {
    assert_eq!(a.client_out, b.client_out, "{what}: client_out");
    assert_eq!(a.client_in, b.client_in, "{what}: client_in");
    assert_eq!(a.server_turn, b.server_turn, "{what}: server_turn");
    assert_eq!(a.client, b.client, "{what}: merged client");
    assert_eq!(
        a.client_out_pre_us.to_bits(),
        b.client_out_pre_us.to_bits(),
        "{what}: out pre-us"
    );
    assert_eq!(a.server_pre_us.to_bits(), b.server_pre_us.to_bits(), "{what}: server pre-us");
    assert_eq!(a.e2e_us.to_bits(), b.e2e_us.to_bits(), "{what}: e2e");
}

#[test]
fn memoized_equals_fresh_computation() {
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();

    // Fresh, engine-free pipeline.
    let fresh_run = ping_pong(World::<TcpIp>::build(opts), 2);
    let flow = fresh_run.episodes.client_flow();
    let fresh_img = Version::Std.build(&fresh_run.world, &flow);
    let fresh_t = time_roundtrip_with(
        &fresh_run.episodes,
        &fresh_img,
        &fresh_img,
        fresh_run.world.lance_model.f_tx,
        UNTRACED_PER_HOP_US,
    );

    // Engine, twice: the second call must hit the cache.
    let t1 = eng.timing(StackKind::TcpIp, opts, 2, Version::Std);
    let counters_after_first = eng.counters();
    let t2 = eng.timing(StackKind::TcpIp, opts, 2, Version::Std);
    assert_eq!(eng.counters(), counters_after_first, "second lookup computes nothing");
    assert!(Arc::ptr_eq(&t1, &t2), "memoized Arc shared");

    assert_timing_eq(&t1, &fresh_t, "engine vs fresh");

    // Trace lengths match too.
    let stats = eng.client_replay_stats(StackKind::TcpIp, opts, 2, Version::Std);
    assert_eq!(stats.instructions, fresh_t.client.instructions, "trace length");
}

#[test]
fn parallel_sweep_equals_serial() {
    let opts = StackOptions::improved();

    // Parallel: the canonical sweep fans out across worker threads.
    let par = SweepEngine::new();
    let rows = par.sweep(opts, 2);
    assert_eq!(rows.len(), 12, "6 versions x 2 stacks");

    // Serial: a fresh engine, one artifact at a time on this thread.
    let ser = SweepEngine::new();
    for row in &rows {
        let t = ser.timing(row.stack, opts, 2, row.version);
        let c = ser.cold_stats(row.stack, opts, 2, row.version);
        let what = format!("{:?}/{}", row.stack, row.version.name());
        assert_timing_eq(&row.timing, &t, &what);
        assert_eq!(*row.cold, *c, "{what}: cold stats");
    }

    // Both engines computed each artifact exactly once: 2 runs,
    // 12 timings, 12 cold stats.  The RPC server image (ALL) is shared,
    // so 12 images per engine (6 TCP + 6 RPC), each assembled from one
    // of the 12 synthesized layout plans.
    for eng in [&par, &ser] {
        let c = eng.counters();
        assert_eq!(c.runs, 2, "one functional run per stack");
        assert_eq!(c.layouts, 12, "one layout plan per (stack, version)");
        assert_eq!(c.images, 12);
        assert_eq!(c.timings, 12);
        assert_eq!(c.cold_stats, 12);
    }
    // The parallel sweep prefetches layouts explicitly and then
    // assembles 12 images from them: more requests than computes.
    let (requests, computed) = par.layout_stats();
    assert_eq!(computed, 12);
    assert!(requests > computed, "image assembly re-hits the layout memo");
}

#[test]
fn prefetch_deduplicates_overlapping_jobs() {
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    // The same job many times over, plus overlapping stages that all
    // need the one functional run: still exactly one run, one image.
    let (tcp, std_v) = (StackKind::TcpIp, Version::Std);
    let jobs: Vec<u8> = (0..16).flat_map(|_| 0..3).collect();
    let instructions = par_map(&jobs, |&stage| match stage {
        0 => eng.timing(tcp, opts, 2, std_v).client.instructions,
        1 => eng.cold_stats(tcp, opts, 2, std_v).instructions,
        _ => eng.client_replay_stats(tcp, opts, 2, std_v).instructions,
    });
    assert!(instructions.windows(2).all(|w| w[0] == w[1]), "every stage replays one trace");
    let c = eng.counters();
    assert_eq!(c.runs, 1);
    assert_eq!(c.layouts, 1);
    assert_eq!(c.images, 1);
    assert_eq!(c.timings, 1);
    assert_eq!(c.cold_stats, 1);
    assert_eq!(c.replay_stats, 1);
}

#[test]
fn rpc_timings_split_exactly_against_the_all_server() {
    // The engine times an RPC cell as its own client half composed with
    // the memoized ALL server half; the unsplit reference times the
    // whole roundtrip in one go.  They must agree to the bit.
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    for warmup in [1, 5] {
        let run = eng.rpc(opts, warmup);
        let server = eng.image(StackKind::Rpc, opts, warmup, Version::All);
        for v in Version::all() {
            let client = eng.image(StackKind::Rpc, opts, warmup, v);
            let reference = time_roundtrip_materialized(
                &run.run.episodes,
                &client,
                &server,
                run.run.world.lance_model.f_tx,
                RPC_UNTRACED_PER_HOP_US,
            );
            let t = eng.timing(StackKind::Rpc, opts, warmup, v);
            assert_timing_eq(&t, &reference, &format!("RPC/{} warm-up {warmup}", v.name()));
        }
    }
    let c = eng.counters();
    assert_eq!(c.timings, 12);
    assert_eq!(c.server_halves, 2, "one ALL server half per warm-up depth");
}

#[test]
fn table4_jobs_compute_each_server_half_once() {
    // Table 4: both stacks x six versions x warm-ups 1..=5.  TCP/IP
    // times each version against its own server (30 halves); RPC times
    // every version against ALL (5 halves, one per warm-up).
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    let jobs: Vec<(StackKind, Version, usize)> = grid()
        .into_iter()
        .flat_map(|(stack, v)| (1..=5).map(move |w| (stack, v, w)))
        .collect();
    par_map(&jobs, |&(stack, v, w)| eng.timing(stack, opts, w, v));
    let c = eng.counters();
    assert_eq!(c.timings, 60);
    assert_eq!(c.server_halves, 35);
    // The five depths of a stack record one control flow, so they share
    // each version's layout and image.
    assert_eq!(c.worlds, 2, "one world per stack");
    assert_eq!(c.runs, 10, "one functional run per (stack, warm-up)");
    assert_eq!(c.layouts, 12, "one layout per (stack, version), not per depth");
    assert_eq!(c.images, 12);
}

#[test]
fn every_depth_runs_on_one_shared_world_like_a_fresh_run() {
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    let same = |what: &str, a: &RoundtripEpisodes, b: &RoundtripEpisodes| {
        assert_eq!(a.client_out, b.client_out, "{what}: client_out");
        assert_eq!(a.server_turn, b.server_turn, "{what}: server_turn");
        assert_eq!(a.client_in, b.client_in, "{what}: client_in");
    };
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        let first = eng.run(stack, opts, 1);
        for w in 1..=5 {
            let what = format!("{stack:?} warm-up {w}");
            let run = eng.run(stack, opts, w);
            // Each world builds its own program, so one program is one world.
            assert!(Arc::ptr_eq(run.program(), first.program()), "{what}");
            // A fresh engine builds a fresh world for its one run.
            let fresh = SweepEngine::new().run(stack, opts, w);
            assert!(!Arc::ptr_eq(run.program(), fresh.program()), "{what}");
            same(&what, run.episodes(), fresh.episodes());
        }
    }
    let c = eng.counters();
    assert_eq!((c.worlds, c.runs), (2, 10));
}

#[test]
fn run_all_runs_build_one_world_per_option_set() {
    // `run_all`'s functional runs: Table 4's five depths of both stacks,
    // then Table 1's original and single-toggle option sets of TCP/IP.
    let eng = SweepEngine::new();
    let improved = StackOptions::improved();
    let mut runs: Vec<(StackKind, StackOptions, usize)> = [StackKind::TcpIp, StackKind::Rpc]
        .into_iter()
        .flat_map(|stack| (1..=5).map(move |w| (stack, improved, w)))
        .collect();
    runs.push((StackKind::TcpIp, StackOptions::original(), 2));
    runs.extend(single_toggle_options().into_iter().map(|o| (StackKind::TcpIp, o, 2)));
    par_map(&runs, |&(stack, opts, w)| drop(eng.run(stack, opts, w)));
    let c = eng.counters();
    assert_eq!(c.runs, 18, "one functional run per (stack, options, warm-up)");
    assert_eq!(c.worlds, 10, "one world per (stack, options)");
}

#[test]
fn shared_images_time_every_depth_like_its_own_run() {
    // The engine builds each version's image from whichever depth asks
    // first and times every depth against it; the reference builds the
    // images from the timed depth's own functional run (a fresh engine's)
    // and spells the stack's timing rule out.
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    let cells: Vec<(StackKind, Version, usize)> = [1, 3, 5]
        .into_iter()
        .flat_map(|w| grid().into_iter().map(move |(stack, v)| (stack, v, w)))
        .collect();
    par_map(&cells, |&(stack, v, w)| {
        let t = eng.timing(stack, opts, w, v);
        let own = SweepEngine::new().run(stack, opts, w);
        let build = |v: Version| v.assemble(own.program(), &own.synthesize(v));
        let (server, untraced_us) = match stack {
            StackKind::TcpIp => (v, UNTRACED_PER_HOP_US),
            StackKind::Rpc => (Version::All, RPC_UNTRACED_PER_HOP_US),
        };
        let reference = time_roundtrip_materialized(
            own.episodes(),
            &build(v),
            &build(server),
            own.f_tx(),
            untraced_us,
        );
        assert_timing_eq(&t, &reference, &format!("{stack:?}/{} warm-up {w}", v.name()));
    });
    let c = eng.counters();
    assert_eq!((c.runs, c.layouts, c.images, c.timings), (6, 12, 12, 36));
}

#[test]
fn cold_stats_are_the_timing_warm_up_in_either_request_order() {
    let opts = StackOptions::improved();
    let cold_first = SweepEngine::new();
    let timing_first = SweepEngine::new();
    par_map(&grid(), |&(stack, v)| {
        let a = cold_first.cold_stats(stack, opts, 2, v);
        cold_first.timing(stack, opts, 2, v);
        timing_first.timing(stack, opts, 2, v);
        let b = timing_first.cold_stats(stack, opts, 2, v);
        let img = cold_first.image(stack, opts, 2, v);
        let run = cold_first.run(stack, opts, 2);
        let (out, inn) = (&run.episodes().client_out, &run.episodes().client_in);
        let cfg = MachineConfig::dec3000_600();
        let (reference, []) = time_host_materialized::<Machine, 0>(&cfg, &img, &[out, inn], []);
        let what = format!("{stack:?}/{}", v.name());
        assert_eq!(*a, reference, "{what}: cold stats asked first");
        assert_eq!(*b, reference, "{what}: cold stats asked after the timing");
    });
    for eng in [&cold_first, &timing_first] {
        let c = eng.counters();
        assert_eq!((c.timings, c.cold_stats), (12, 12));
    }
}
