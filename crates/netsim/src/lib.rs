//! # netsim — the physical network substrate
//!
//! The paper's testbed is two DEC 3000/600 workstations on an isolated
//! 10 Mb/s Ethernet, each with a LANCE (AMD Am7990) adaptor on the
//! TURBOchannel.  This crate rebuilds that plumbing:
//!
//! * [`engine`] — a discrete-event simulator (nanosecond clock); the
//!   default queue is the hierarchical timing wheel from [`sched`],
//!   with the seed binary heap kept as [`engine::reference`].
//! * [`sched`] — the hierarchical timing-wheel scheduler: slab event
//!   arena, O(1) filing and cancellation, batched slot delivery.
//! * [`frame`] — Ethernet II framing with the 64-byte minimum and FCS.
//! * [`wire`] — 10 Mb/s serialization timing (57.6 µs for a minimum
//!   frame including preamble) plus propagation.
//! * [`lance`] — the LANCE controller: descriptor rings in *sparse*
//!   shared memory (the chip's 16-bit bus on a 32-bit TURBOchannel
//!   leaves a 16-bit gap after every 16-bit word, and a 16-byte gap
//!   after every 16 bytes of buffer), the copy-based versus
//!   direct/USC-style descriptor update disciplines whose difference is
//!   Table 1's 171 instructions, and the controller's measured latency
//!   (105 µs from handing a minimum frame to the chip until the
//!   transmit-complete interrupt).
//! * [`fault`] — smoltcp-style fault injection: probabilistic drop,
//!   corruption, reordering and duplication with a deterministic RNG,
//!   plus wire-shape fates (truncated / malformed / fragmented
//!   arrivals) for the byte-level data plane.
//! * [`buf`] — the pooled packet-buffer arena (cache-line-aligned,
//!   free-list-recycled, generation-checked handles) backing the
//!   zero-copy wire data plane.
//! * [`par`] — the one scoped-thread work queue ([`par_map`]): the
//!   sweep engine's cell jobs and the traffic dispatch plane's lanes,
//!   each run to completion, results in item order.
//! * [`sample`] — the allocation-free stride sampler behind the online
//!   layout profiler (`traffic::adapt`).

#![forbid(unsafe_code)]

pub mod buf;
pub mod engine;
pub mod fault;
pub mod frame;
pub mod lance;
pub mod par;
pub mod rng;
pub mod sample;
pub mod sched;
pub mod wire;

pub use buf::{BufError, BufPool, PktBuf, PoolStats, BUF_CAP};
pub use engine::{Engine, Overrun};
pub use par::par_map;
pub use sample::StrideSampler;
pub use sched::{CancelToken, EventQueue, Wheel};
pub use fault::{FaultInjector, FaultStats, Fate};
pub use frame::{EtherType, Frame, MacAddr};
pub use lance::{Descriptor, LanceChip, LanceTiming, SparseMem};
pub use wire::Wire;

/// Nanoseconds — the simulation time unit.
pub type Ns = u64;

/// Microseconds to nanoseconds.
pub const fn us(n: u64) -> Ns {
    n * 1_000
}

/// Convert CPU cycles at `mhz` to nanoseconds (rounding up).
pub fn cycles_to_ns(cycles: u64, mhz: u64) -> Ns {
    (cycles * 1_000).div_ceil(mhz)
}

/// Convert nanoseconds to microseconds as f64.
pub fn ns_to_us(ns: Ns) -> f64 {
    ns as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions() {
        assert_eq!(us(105), 105_000);
        // 175 cycles at 175 MHz = 1 µs.
        assert_eq!(cycles_to_ns(175, 175), 1_000);
        assert_eq!(cycles_to_ns(1, 175), 6); // rounds up
        assert!((ns_to_us(57_600) - 57.6).abs() < 1e-9);
    }
}
