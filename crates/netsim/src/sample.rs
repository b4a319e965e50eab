//! Low-overhead sampling for online profiling.
//!
//! The adaptive layout loop (`traffic::adapt`) observes the serving hot
//! path, so its collector must be allocation-free and cost a handful of
//! arithmetic instructions per event.  [`StrideSampler`] keeps every
//! `stride`-th event: deterministic, branch-predictable and trivially
//! rate-controlled — a deterministic simulation has no sampling-bias
//! adversary.

/// Keep every `stride`-th event (the first event of each stride is the
/// one kept).  A `stride` of 0 disables sampling entirely: `tick()`
/// never returns `true`, so a disabled profiler is a pair of no-op
/// integer operations on the hot path.
#[derive(Debug, Clone)]
pub struct StrideSampler {
    stride: u32,
    phase: u32,
}

impl StrideSampler {
    pub fn new(stride: u32) -> Self {
        StrideSampler { stride, phase: 0 }
    }

    /// True when sampling is disabled (stride 0).
    pub fn is_off(&self) -> bool {
        self.stride == 0
    }

    /// Advance one event; returns whether this event is sampled.
    #[inline]
    pub fn tick(&mut self) -> bool {
        if self.stride == 0 {
            return false;
        }
        let hit = self.phase == 0;
        self.phase += 1;
        if self.phase == self.stride {
            self.phase = 0;
        }
        hit
    }

    /// Restart the stride phase (e.g. after a profile window closes).
    pub fn reset(&mut self) {
        self.phase = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_keeps_every_nth() {
        let mut s = StrideSampler::new(4);
        let kept: Vec<bool> = (0..10).map(|_| s.tick()).collect();
        assert_eq!(
            kept,
            [true, false, false, false, true, false, false, false, true, false]
        );
    }

    #[test]
    fn stride_one_keeps_all() {
        let mut s = StrideSampler::new(1);
        assert!((0..8).all(|_| s.tick()));
    }

    #[test]
    fn stride_zero_keeps_none() {
        let mut s = StrideSampler::new(0);
        assert!(s.is_off());
        assert!((0..8).all(|_| !s.tick()));
    }

    #[test]
    fn stride_reset_restarts_phase() {
        let mut s = StrideSampler::new(3);
        assert!(s.tick());
        assert!(!s.tick());
        s.reset();
        assert!(s.tick());
    }
}
