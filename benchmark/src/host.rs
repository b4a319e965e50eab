//! The host reference: a fixed piece of the benchmark's own work, timed
//! between units on every core at once, that tracks how fast the shared
//! host runs.  The host-clock end-to-end metrics are read at one
//! reference speed — scaled by the reference's nominal time over its
//! median time in the run — so a neighbour's load that slows the whole
//! host for minutes does not read as a change in the code measured.
//!
//! The work depends on nothing outside this file, so no change to the
//! crates moves it.

use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::median;

/// The reference's median time on the 2-vCPU Xeon host the bounds were
/// set on, ms: a run there reads its host times about as measured.
pub const NOMINAL_MS: f64 = 11.0;

/// Entries of the pointer-chase table: 512 KiB of `u32`, the size of a
/// mid-level cache, so the chase waits on the caches the simulator uses.
const CHASE_LEN: usize = 1 << 17;
const CHASE_STEPS: usize = 200_000;
const MIX_STEPS: u64 = 2_000_000;

/// A single random cycle through `0..CHASE_LEN`, built once.
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut order: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in (1..CHASE_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; CHASE_LEN];
        for w in 0..CHASE_LEN {
            next[order[w] as usize] = order[(w + 1) % CHASE_LEN];
        }
        next
    })
}

/// One core's share: a branchy integer mix, then a dependent walk of
/// the chase table.  Returns a checksum so none of it is optimised away.
fn work() -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..MIX_STEPS {
        h = (h ^ i).wrapping_mul(0x0000_0100_0000_01b3);
        if h & 1 == 0 {
            h = h.rotate_left(7);
        } else {
            h ^= h >> 11;
        }
    }
    let table = chase_table();
    let mut p = 0u32;
    for _ in 0..CHASE_STEPS {
        p = table[p as usize];
        h = (h ^ u64::from(p)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reference samples of one run.
#[derive(Default)]
pub struct HostRef {
    ms: Vec<f64>,
}

impl HostRef {
    /// Time one reference: [`work`] on every core at once (the units
    /// keep every core busy too).
    pub fn sample(&mut self) {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        chase_table();
        let t = Instant::now();
        std::thread::scope(|s| {
            let others: Vec<_> = (1..cores).map(|_| s.spawn(work)).collect();
            std::hint::black_box(work());
            for o in others {
                std::hint::black_box(o.join().expect("reference thread panicked"));
            }
        });
        self.ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    pub fn median_ms(&self) -> f64 {
        median(&self.ms)
    }

    /// Multiply a host time measured in this run by this (divide a host
    /// rate by it) to read it at the reference speed.
    pub fn scale(&self) -> f64 {
        NOMINAL_MS / self.median_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference is always the same work: a change to it would
    /// shift every host-clock metric.
    #[test]
    fn reference_work_is_fixed() {
        assert_eq!(work(), work());
        assert_eq!(work(), 0x5423_d262_10fe_8b13);
        let mut seen = vec![false; CHASE_LEN];
        let mut p = 0u32;
        for _ in 0..CHASE_LEN {
            assert!(!seen[p as usize], "the chase table is one cycle");
            seen[p as usize] = true;
            p = chase_table()[p as usize];
        }
        assert_eq!(p, 0);
    }

    #[test]
    fn scale_reads_the_nominal_speed_as_one() {
        let host = HostRef {
            ms: vec![NOMINAL_MS * 2.0, NOMINAL_MS * 3.0, NOMINAL_MS * 2.0],
        };
        assert_eq!(host.scale(), 0.5);
    }
}
