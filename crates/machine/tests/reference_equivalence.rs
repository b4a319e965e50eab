//! Property suite: the data-oriented memory hierarchy is bit-identical
//! to the seed scalar model kept in [`alpha_machine::reference`].
//!
//! Every observable the paper's tables consume — stall cycles, per-cache
//! accesses/misses/replacement misses, the combined d-cache/write-buffer
//! statistics, ITLB statistics, and the per-cache window footprints — is
//! compared after every measurement window, across randomized hierarchy
//! configurations, randomized protocol-shaped traces, and randomized
//! window boundaries (stats resets and full resets).
//!
//! Deterministic seeded SplitMix64, no external crates: rerun with
//! `cargo test -p alpha-machine --test reference_equivalence`.

use alpha_machine::config::{CacheConfig, MemConfig};
use alpha_machine::hierarchy::MemorySystem;
use alpha_machine::inst::InstRecord;
use alpha_machine::reference;

/// SplitMix64 (Steele et al.), the repo's standard seeded test RNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }
}

/// A randomized hierarchy: small caches force conflict/replacement
/// behaviour, associativity exercises the non-fast paths, a disabled or
/// tiny ITLB exercises translation corners, and both cold-miss timing
/// policies are covered.
fn random_config(rng: &mut SplitMix64) -> MemConfig {
    let mut c = MemConfig::dec3000_600();
    c.icache = CacheConfig::set_associative(
        rng.pick(&[512, 2048, 8192]),
        32,
        rng.pick(&[1, 1, 1, 2]),
    );
    c.dcache = CacheConfig::set_associative(
        rng.pick(&[512, 2048, 8192]),
        32,
        rng.pick(&[1, 1, 1, 2]),
    );
    // A small b-cache makes steady-state conflict (revisit) misses
    // common, which is where the cold-is-free timing exception bites.
    c.bcache = CacheConfig::new(rng.pick(&[4096, 65536, 2 * 1024 * 1024]), 32);
    c.write_buffer_entries = rng.pick(&[1, 2, 4]);
    c.writebuf_retire_cycles = rng.pick(&[3, 10]);
    c.icache_prefetch = rng.below(2) == 0;
    c.prefetch_cover_cycles = rng.pick(&[0, 12]);
    c.itlb_entries = rng.pick(&[0, 4, 32]);
    c.page_bytes = rng.pick(&[64, 8192]);
    c.bcache_cold_is_free = rng.below(2) == 0;
    c
}

/// A protocol-shaped trace: straight-line runs, in-function branches,
/// cross-function calls/returns between bases that alias in the i-cache
/// (8 KB strides) and the b-cache (2 MB strides), and loads/stores over
/// struct-, page- and stack-like data strides.
fn random_trace(rng: &mut SplitMix64, len: usize) -> Vec<InstRecord> {
    let nfuncs = 4 + rng.below(6);
    let funcs: Vec<u64> = (0..nfuncs)
        .map(|i| {
            let region = rng.pick(&[0x0010_0000u64, 0x0040_0000, 0x0900_0000]);
            let stride = rng.pick(&[0x80u64, 0x2000, 0x20_0000]);
            region + i * stride
        })
        .collect();
    let data_base = 0x0800_0000u64;
    let stack_top = 0x0C00_0000u64;
    let mut pc = funcs[0];
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let roll = rng.below(100);
        if roll < 52 {
            out.push(InstRecord::alu(pc));
            pc += 4;
        } else if roll < 64 {
            let addr = match rng.below(3) {
                0 => data_base + rng.below(0x400) * 8,
                1 => data_base + rng.below(16) * 0x2000,
                _ => stack_top - rng.below(0x100) * 8,
            };
            out.push(InstRecord::load(pc, addr));
            pc += 4;
        } else if roll < 78 {
            let addr = match rng.below(3) {
                0 => data_base + rng.below(0x200) * 8,
                1 => data_base + rng.below(16) * 0x2000,
                _ => stack_top - rng.below(0x100) * 8,
            };
            out.push(InstRecord::store(pc, addr));
            pc += 4;
        } else if roll < 84 {
            out.push(InstRecord::branch_not_taken(pc));
            pc += 4;
        } else if roll < 92 {
            // Loop-shaped backward (or short forward) branch.
            out.push(InstRecord::branch_taken(pc));
            pc = pc.saturating_sub(rng.below(16) * 4) + rng.below(3) * 4;
        } else if roll < 97 {
            out.push(InstRecord::call(pc));
            pc = funcs[rng.below(nfuncs) as usize];
        } else {
            out.push(InstRecord::ret(pc));
            pc = funcs[rng.below(nfuncs) as usize] + rng.below(0x40) * 4;
        }
    }
    out
}

fn assert_same(case: u64, window: u64, opt: &MemorySystem, refm: &reference::MemorySystem) {
    let at = format!("case {case} window {window}");
    assert_eq!(opt.stall_cycles(), refm.stall_cycles(), "{at}: stalls");
    assert_eq!(opt.icache.stats, refm.icache.stats, "{at}: icache stats");
    assert_eq!(opt.dcache.stats, refm.dcache.stats, "{at}: dcache stats");
    assert_eq!(opt.bcache.stats, refm.bcache.stats, "{at}: bcache stats");
    assert_eq!(
        opt.dcache_combined_stats(),
        refm.dcache_combined_stats(),
        "{at}: combined d-cache/write-buffer stats"
    );
    assert_eq!(
        opt.itlb.as_ref().map(|t| t.stats),
        refm.itlb.as_ref().map(|t| t.stats),
        "{at}: itlb stats"
    );
    assert_eq!(
        opt.write_buffer.pending_len(),
        refm.write_buffer.pending_len(),
        "{at}: write-buffer occupancy"
    );
    assert_eq!(
        opt.write_buffer.retired_blocks, refm.write_buffer.retired_blocks,
        "{at}: write-buffer retirements"
    );
    for (name, o, r) in [
        ("icache", &opt.icache, &refm.icache),
        ("dcache", &opt.dcache, &refm.dcache),
        ("bcache", &opt.bcache, &refm.bcache),
    ] {
        assert_eq!(
            o.footprint_blocks(),
            r.footprint_blocks(),
            "{at}: {name} window footprint"
        );
    }
}

#[test]
fn optimized_hierarchy_matches_reference_on_random_traces() {
    const CASES: u64 = 160; // ≥ 128 per the issue
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5EED_0202 ^ (case << 8));
        let config = random_config(&mut rng);
        let mut opt = MemorySystem::new(config);
        let mut refm = reference::MemorySystem::new(config);
        let windows = 2 + rng.below(3);
        for window in 0..windows {
            let trace = random_trace(&mut rng, 1200);
            for rec in &trace {
                opt.access(rec);
                refm.access(rec);
            }
            assert_same(case, window, &opt, &refm);
            // Randomized window boundary: accumulate, open a new stats
            // window (warm caches), or cold-reset the machine.
            match rng.below(4) {
                0 => {
                    opt.reset();
                    refm.reset();
                }
                1 | 2 => {
                    opt.reset_stats();
                    refm.reset_stats();
                    assert_same(case, window, &opt, &refm);
                }
                _ => {}
            }
        }
    }
}

#[test]
fn full_machines_agree_on_reports() {
    // End-to-end check through the `Machine` wrappers (shared CPU model
    // + both hierarchies): the `RunReport`s must be identical, warm and
    // cold, for the paper's actual DEC 3000/600 configuration.
    for case in 0..16u64 {
        let mut rng = SplitMix64::new(0xC0DE_0002 ^ (case << 16));
        let trace = random_trace(&mut rng, 4000);
        let mut opt = alpha_machine::Machine::dec3000_600();
        let mut refm = reference::Machine::dec3000_600();
        let cold_o = opt.run(&trace);
        let cold_r = refm.run(&trace);
        assert_eq!(cold_o, cold_r, "case {case}: cold report");
        let warm_o = opt.run(&trace);
        let warm_r = refm.run(&trace);
        assert_eq!(warm_o, warm_r, "case {case}: warm report");
    }
}

/// A trace whose data accesses fill every set of the paper's 2 MB
/// b-cache (one load per 32-byte block across the whole index range),
/// then revisit the first half at a 2 MB alias so some of those fills
/// are replaced.
fn bcache_spanning_trace() -> Vec<InstRecord> {
    const BLOCK: u64 = 32;
    const SPAN: u64 = 2 * 1024 * 1024;
    let code = 0x0010_0000u64;
    let data = 0x0800_0000u64;
    let loads = (0..SPAN / BLOCK)
        .map(|k| data + k * BLOCK)
        .chain((0..SPAN / BLOCK / 2).map(|k| data + SPAN + k * BLOCK));
    loads
        .enumerate()
        .map(|(i, addr)| InstRecord::load(code + (i as u64 % 1024) * 4, addr))
        .collect()
}

#[test]
fn full_reset_after_whole_bcache_fill_matches_reference() {
    // A full reset drops the b-cache's tag pages; here every page holds
    // valid tags, so the reset must forget all of them.
    let config = MemConfig::dec3000_600();
    let mut opt = MemorySystem::new(config);
    let mut refm = reference::MemorySystem::new(config);
    for rec in &bcache_spanning_trace() {
        opt.access(rec);
        refm.access(rec);
    }
    assert_same(0, 0, &opt, &refm);
    opt.reset();
    refm.reset();
    let mut rng = SplitMix64::new(0xB0CA_C4E5);
    for window in 1..4 {
        for rec in &random_trace(&mut rng, 4000) {
            opt.access(rec);
            refm.access(rec);
        }
        assert_same(0, window, &opt, &refm);
        opt.reset_stats();
        refm.reset_stats();
    }
}

#[test]
fn reset_machine_reports_like_a_fresh_one() {
    // A machine that ran one trace and was then fully reset must be
    // indistinguishable from a freshly built one on the next trace.
    for case in 0..8u64 {
        let mut rng = SplitMix64::new(0x4E5E_7000 ^ (case << 12));
        let first = if case == 0 {
            bcache_spanning_trace()
        } else {
            random_trace(&mut rng, 4000)
        };
        let second = random_trace(&mut rng, 4000);
        let mut reused = alpha_machine::Machine::dec3000_600();
        reused.run(&first);
        reused.reset();
        let mut fresh = alpha_machine::Machine::dec3000_600();
        assert_eq!(reused.run(&second), fresh.run(&second), "case {case}: cold report");
        assert_eq!(reused.run(&second), fresh.run(&second), "case {case}: warm report");
    }
}
