//! Shared latency-measurement helpers used by several experiments, and
//! the simple entry point the README quickstart shows.

use crate::config::{StackKind, Version};
use crate::sweep::SweepEngine;
use crate::timing::RoundtripTiming;
use protocols::StackOptions;

/// A measured roundtrip for one (stack, version) pair.
#[derive(Debug, Clone)]
pub struct LatencyReport {
    pub stack: StackKind,
    pub version: Version,
    pub end_to_end_us: f64,
    pub timing: RoundtripTiming,
}

/// Measure one configuration of one stack.  Goes through the global
/// [`SweepEngine`], so repeated calls (and the experiment drivers)
/// share one memoized functional run and image per key.
pub fn measure(stack: StackKind, version: Version, opts: StackOptions) -> LatencyReport {
    let timing = SweepEngine::global().timing(stack, opts, 2, version);
    LatencyReport {
        stack,
        version,
        end_to_end_us: timing.e2e_us,
        timing: (*timing).clone(),
    }
}

/// One-call quickstart: STD-version roundtrip latency.
pub fn measure_roundtrip(stack: StackKind, opts: StackOptions) -> LatencyReport {
    measure(stack, Version::Std, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_api_works() {
        let r = measure_roundtrip(StackKind::TcpIp, StackOptions::improved());
        assert!(r.end_to_end_us > 200.0 && r.end_to_end_us < 700.0);
        assert_eq!(r.version, Version::Std);
    }
}
