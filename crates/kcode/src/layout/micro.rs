//! Micro-positioning: trace-driven, conflict-minimizing function
//! placement.
//!
//! The paper's tool places each cloned function at whatever address
//! minimizes predicted i-cache replacement misses, introducing gaps where
//! necessary ("function placement is controlled down to the size of an
//! individual instruction").  We reproduce the approach with a greedy
//! optimizer:
//!
//! 1. Functions are considered in first-invocation order.
//! 2. For each candidate cache offset (block granularity) the predicted
//!    conflict cost is the sum, over already-placed functions `g`, of the
//!    *interleaving weight* `w(f,g)` — how often execution alternates
//!    between `f` and `g` in the trace — times the number of i-cache sets
//!    the two would share.
//! 3. The cheapest offset wins; ties go to the lowest address (packing).
//!
//! The resulting layout has very few replacement misses but is
//! non-sequential and full of gaps — which is exactly why the paper found
//! it loses to the bipartite layout end-to-end (wasted fetch/prefetch
//! bandwidth, no sequential-stream benefit).
//!
//! # Implementation
//!
//! This is the data-oriented rewrite of the seed greedy, bit-identical to
//! [`crate::layout::reference::micro_position`] (proved by the seeded
//! equivalence suites):
//!
//! * Interleaving weights live in a dense `FuncId`-indexed triangular
//!   matrix filled in one linear pass over the activity sequence using
//!   last-visit / last-seen index stamps — no per-activation `HashSet`,
//!   no hashing on the hot path.
//! * Candidate offsets are scored differentially: `set_cost[s]` (the
//!   weight `f` pays for landing on set `s`) is built once per function
//!   from a difference array over the set ring, then the window slides so
//!   offset `o+1` costs O(1) given offset `o`.
//! * Placed address ranges are kept in a sorted [`IntervalSet`], so each
//!   candidate address is an O(log n) overlap probe instead of a linear
//!   re-scan of every placed interval.

use std::collections::HashSet;

use crate::events::Ev;
use crate::ids::FuncId;
use crate::image::Image;
use crate::layout::{activity_sequence, ordered_funcs, LayoutRequest};
use crate::program::Program;
use crate::transform::outline::hot_laid_size;

/// Disjoint `[start, end)` intervals sorted by start address.
///
/// Because the intervals are pairwise disjoint, their end points are
/// sorted too, so an overlap probe only has to inspect the predecessor of
/// the binary-search position.
struct IntervalSet {
    ivs: Vec<(u64, u64)>,
}

impl IntervalSet {
    fn new() -> Self {
        IntervalSet { ivs: Vec::new() }
    }

    /// Does `[start, end)` intersect any stored interval?
    fn overlaps(&self, start: u64, end: u64) -> bool {
        // First interval that starts at or past `end` cannot overlap;
        // only its predecessor — the last interval starting below `end`
        // — can reach into `[start, end)`.
        let i = self.ivs.partition_point(|iv| iv.0 < end);
        i > 0 && self.ivs[i - 1].1 > start
    }

    /// Insert `[start, end)`; the caller guarantees it is disjoint from
    /// every stored interval.
    fn insert(&mut self, start: u64, end: u64) {
        let i = self.ivs.partition_point(|iv| iv.0 < start);
        self.ivs.insert(i, (start, end));
    }
}

/// Index into the dense triangular weight matrix for the unordered pair
/// `{a, b}`, `a != b`.
#[inline]
fn tri(a: usize, b: usize) -> usize {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    hi * (hi - 1) / 2 + lo
}

/// Compute pinned start addresses for every non-inlined function.
pub fn micro_position(
    program: &Program,
    flow: &[Ev],
    req: &LayoutRequest,
    inlined: &HashSet<FuncId>,
) -> Vec<(FuncId, u64)> {
    let icache = req.icache_bytes;
    let block = 32u64;
    let sets = (icache / block) as usize;
    let n = program.functions().len();

    // Interleaving weights from the function-level activity sequence:
    // w(f,g) counts the occasions where g executed between two
    // consecutive activations of f — each such occasion is a potential
    // replacement miss if f and g share cache sets.
    //
    // One linear pass with index stamps: `last_visit[f]` is the previous
    // activity index of f, `last_seen[g]` the most recent index of g
    // before the current position.  g appeared in the gap since f's
    // previous activation iff `last_seen[g] > last_visit[f]` — exactly
    // the per-gap distinct-function set the seed collected into a
    // HashSet, without allocating one per activation.
    let seq = activity_sequence(flow);
    let mut weight = vec![0u64; n.saturating_sub(1) * n / 2];
    let mut last_visit = vec![usize::MAX; n];
    let mut last_seen = vec![usize::MAX; n];
    for (i, &f) in seq.iter().enumerate() {
        let fi = f.idx();
        let prev = last_visit[fi];
        if prev != usize::MAX && prev + 1 < i {
            for (g, &ls) in last_seen.iter().enumerate() {
                // ls == prev for g == fi (f's own previous activation),
                // so f never counts itself.
                if ls != usize::MAX && ls > prev {
                    weight[tri(fi, g)] += 1;
                }
            }
        }
        last_visit[fi] = i;
        last_seen[fi] = i;
    }

    // Hot size (in cache sets) of each function under outlining, computed
    // once up front and reused for both offset scoring and address sizing.
    let hot_sets: Vec<usize> = program
        .functions()
        .iter()
        .map(|func| {
            let insts = hot_laid_size(func, req.config.outline) as u64;
            ((insts * 4).div_ceil(block) as usize).max(1)
        })
        .collect();

    // Already-placed functions as (func index, start set, sets spanned).
    let mut placed: Vec<(usize, usize, usize)> = Vec::new();
    let mut out: Vec<(FuncId, u64)> = Vec::new();

    // The arena is several cache frames tall so functions can avoid each
    // other in index space; the concrete frame is then chosen so placed
    // [start,end) address intervals stay pairwise disjoint.
    let arena_base = Image::CODE_BASE;
    let mut used = IntervalSet::new();

    // Scratch reused across functions: difference array over the set
    // ring (+1 slot for non-wrapping range ends) and the per-set cost.
    let mut diff = vec![0u64; sets + 1];
    let mut set_cost = vec![0u64; sets];

    let order = ordered_funcs(program, flow);
    for f in order {
        if inlined.contains(&f) {
            continue;
        }
        let fi = f.idx();
        let nsets = hot_sets[fi];

        // set_cost[s] = Σ w(f,g) over placed g occupying set s, built by
        // range-adding each occupant's span into a difference array.
        // Spans wider than the ring contribute w to every set `full`
        // times plus a remainder range; transient underflow in the
        // difference array is fine in wrapping u64 arithmetic because
        // every prefix sum is a true non-negative count.
        diff.fill(0);
        let mut base_cost = 0u64; // paid on every set (full ring wraps)
        for &(g, gstart, gsets) in &placed {
            let w = weight[tri(fi, g)];
            if w == 0 {
                continue;
            }
            base_cost += w * (gsets / sets) as u64;
            let rem = gsets % sets;
            let gend = gstart + rem;
            if gend <= sets {
                diff[gstart] = diff[gstart].wrapping_add(w);
                diff[gend] = diff[gend].wrapping_sub(w);
            } else {
                diff[gstart] = diff[gstart].wrapping_add(w);
                diff[sets] = diff[sets].wrapping_sub(w);
                diff[0] = diff[0].wrapping_add(w);
                diff[gend % sets] = diff[gend % sets].wrapping_sub(w);
            }
        }
        let mut run = 0u64;
        for s in 0..sets {
            run = run.wrapping_add(diff[s]);
            set_cost[s] = base_cost + run;
        }

        // Differential scan of candidate offsets: seed cost at offset 0,
        // then slide the nsets-wide window one set at a time.  Strict `<`
        // keeps the seed's lowest-offset tie-break.
        let mut cost: u64 = (0..nsets).map(|k| set_cost[k % sets]).sum();
        let mut best_off = 0usize;
        let mut best_cost = cost;
        if best_cost != 0 {
            for off in 1..sets {
                cost = cost - set_cost[off - 1] + set_cost[(off - 1 + nsets) % sets];
                if cost < best_cost {
                    best_cost = cost;
                    best_off = off;
                    if best_cost == 0 {
                        break; // cannot do better; lowest offset wins ties
                    }
                }
            }
        }

        // Find a concrete non-overlapping address with that cache offset:
        // walk the candidate frames (same index, one i-cache apart) until
        // the function's address interval is free.
        let size_bytes = nsets as u64 * block + 256; // slack for slots/align
        let mut addr = arena_base + best_off as u64 * block;
        while used.overlaps(addr, addr + size_bytes) {
            addr += icache; // next cache frame, same offset
        }
        used.insert(addr, addr + size_bytes);
        placed.push((fi, best_off, nsets));
        out.push((f, addr));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Body;
    use crate::events::Recorder;
    use crate::func::{FrameSpec, FuncKind};
    use crate::image::ImageConfig;
    use crate::layout::{LayoutRequest, LayoutStrategy};
    use crate::program::ProgramBuilder;
    use std::collections::HashMap;

    #[test]
    fn interleaved_functions_get_disjoint_cache_sets() {
        // Two functions that alternate heavily must not overlap in the
        // cache; a third, never-interleaved one may go anywhere.
        let mut pb = ProgramBuilder::new();
        let (fa, sa) = pb.function("fa", FuncKind::Library, FrameSpec::leaf(), |fb| {
            fb.straight("w", Body::ops(100))
        });
        let (fb_, sb) = pb.function("fb", FuncKind::Library, FrameSpec::leaf(), |fb| {
            fb.straight("w", Body::ops(100))
        });
        let (fc, (s_call_a, s_call_b)) =
            pb.function("fc", FuncKind::Path, FrameSpec::standard(), |fb| {
                let ca = fb.call("a", fa, Body::ops(1));
                let cb = fb.call("b", fb_, Body::ops(1));
                (ca, cb)
            });
        let program = pb.build();

        let mut r = Recorder::new();
        r.enter(fc);
        for _ in 0..10 {
            r.call(s_call_a, fa);
            r.seg(sa);
            r.leave();
            r.call(s_call_b, fb_);
            r.seg(sb);
            r.leave();
        }
        r.leave();
        let ev = r.take().events;

        let req = LayoutRequest::new(
            LayoutStrategy::MicroPosition,
            ImageConfig::plain("m").with_outline(true),
        );
        let placements =
            micro_position(&program, &ev, &req, &std::collections::HashSet::new());
        let addr: HashMap<FuncId, u64> = placements.into_iter().collect();

        let icache = 8 * 1024u64;
        let range = |f: FuncId| {
            let start = addr[&f] % icache;
            let len = (hot_laid_size(program.function(f), true) as u64 * 4).max(32);
            (start, start + len)
        };
        let (a0, a1) = range(fa);
        let (b0, b1) = range(fb_);
        // fa and fb_ alternate: they must not overlap in cache index space.
        assert!(a1 <= b0 || b1 <= a0, "fa {a0}..{a1} overlaps fb {b0}..{b1}");
    }

    #[test]
    fn interval_set_overlap_probe() {
        let mut s = IntervalSet::new();
        s.insert(100, 200);
        s.insert(300, 400);
        s.insert(0, 50);
        assert!(s.overlaps(150, 160));
        assert!(s.overlaps(199, 301));
        assert!(s.overlaps(40, 60));
        assert!(!s.overlaps(50, 100));
        assert!(!s.overlaps(200, 300));
        assert!(!s.overlaps(400, 1000));
    }
}
