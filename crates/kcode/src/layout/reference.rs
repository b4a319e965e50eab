//! The seed greedy micro-positioner, kept verbatim as a baseline.
//!
//! `layout::micro` rewrote micro-positioning data-oriented: a
//! dense triangular interleaving-weight matrix built in one epoch-stamped
//! pass, differential (sliding-window) offset scoring, and a sorted
//! interval set for address-overlap checks.  Those changes are required
//! to produce *bit-identical* placements — this module preserves the
//! original `HashMap`/`HashSet`-based implementation so that:
//!
//! * the equivalence suites (`tests/layout_equivalence.rs` here and
//!   `protolat-core/tests/layout_equivalence.rs` over all 12 experiment
//!   cells) can run identical inputs through both and assert exact
//!   `Vec<(FuncId, u64)>` equality, and
//! * the `layout` bench suite can measure the optimized placer against the seed
//!   (`BENCH_layout.json` must show ≥ 2× on the RPC stack).
//!
//! Nothing here should be edited for performance — it is the spec.

use std::collections::{HashMap, HashSet};

use crate::events::Ev;
use crate::ids::FuncId;
use crate::image::Image;
use crate::layout::{activity_sequence, ordered_funcs, LayoutRequest};
use crate::program::Program;
use crate::transform::outline::hot_laid_size;

/// Compute pinned start addresses for every non-inlined function — the
/// seed algorithm: pairwise weights in a `HashMap` with a per-activation
/// `HashSet` gap walk, per-offset occupancy re-walks, and a linear scan
/// of placed intervals.
pub fn micro_position(
    program: &Program,
    canonical: &[Ev],
    req: &LayoutRequest,
    inlined: &HashSet<FuncId>,
) -> Vec<(FuncId, u64)> {
    let icache = req.icache_bytes;
    let block = 32u64;
    let sets = (icache / block) as usize;

    // Interleaving weights from the function-level activity sequence:
    // w(f,g) counts the occasions where g executed between two
    // consecutive activations of f.
    let seq = activity_sequence(canonical);
    let mut weight: HashMap<(FuncId, FuncId), u64> = HashMap::new();
    let mut last_visit: HashMap<FuncId, usize> = HashMap::new();
    for (i, &f) in seq.iter().enumerate() {
        if let Some(&prev) = last_visit.get(&f) {
            let mut seen: HashSet<FuncId> = HashSet::new();
            for &g in &seq[prev + 1..i] {
                if g != f && seen.insert(g) {
                    let key = if f < g { (f, g) } else { (g, f) };
                    *weight.entry(key).or_insert(0) += 1;
                }
            }
        }
        last_visit.insert(f, i);
    }
    let w_of = |a: FuncId, b: FuncId| -> u64 {
        let key = if a < b { (a, b) } else { (b, a) };
        weight.get(&key).copied().unwrap_or(0)
    };

    // Hot size (in cache sets) of each function under outlining.
    let hot_sets = |f: FuncId| -> usize {
        let insts = hot_laid_size(program.function(f), req.config.outline) as u64;
        ((insts * 4).div_ceil(block) as usize).max(1)
    };

    // occupancy[set] = functions whose hot code maps onto this set.
    let mut occupancy: Vec<Vec<FuncId>> = vec![Vec::new(); sets];
    let mut out: Vec<(FuncId, u64)> = Vec::new();

    let arena_base = Image::CODE_BASE;
    let mut used: Vec<(u64, u64)> = Vec::new(); // placed [start,end) addresses

    let order = ordered_funcs(program, canonical);
    for f in order {
        if inlined.contains(&f) {
            continue;
        }
        let nsets = hot_sets(f);
        // Evaluate every candidate set offset.
        let mut best_off = 0usize;
        let mut best_cost = u64::MAX;
        for off in 0..sets {
            let mut cost = 0u64;
            for k in 0..nsets {
                let s = (off + k) % sets;
                for g in &occupancy[s] {
                    cost += w_of(f, *g);
                }
            }
            if cost < best_cost {
                best_cost = cost;
                best_off = off;
            }
            if best_cost == 0 {
                break; // cannot do better; lowest offset wins ties
            }
        }
        // Find a concrete non-overlapping address with that cache offset.
        let size_bytes = nsets as u64 * block + 256; // slack for slots/align
        let mut addr = arena_base + best_off as u64 * block;
        loop {
            let end = addr + size_bytes;
            if used.iter().all(|(s, e)| end <= *s || addr >= *e) {
                break;
            }
            addr += icache; // next cache frame, same offset
        }
        used.push((addr, addr + size_bytes));
        for k in 0..nsets {
            occupancy[(best_off + k) % sets].push(f);
        }
        out.push((f, addr));
    }
    out
}
