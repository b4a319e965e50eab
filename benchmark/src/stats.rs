//! The benchmark's own statistics: the percentile rule, medians, the
//! content digest, metric-name validation and the capacity knee rule.

use protolat_core::CapacityRamp;
use traffic::TrafficReport;

/// A percentile only counts when at least this many samples lie beyond
/// it; below that it is an extrapolation, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// The value at quantile `q` of `samples`, interpolated linearly
/// between the two nearest order statistics (so `q = 0.5` is the usual
/// median), or `None` when fewer than [`MIN_BEYOND`] samples lie above
/// that point.  Interpolation keeps a percentile that falls between two
/// clusters of unit costs from jumping from one cluster to the other.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * q;
    let (lo, frac) = (h.floor() as usize, h.fract());
    let beyond = sorted.len() - 1 - lo;
    let hi = (lo + 1).min(sorted.len() - 1);
    (beyond >= MIN_BEYOND).then(|| sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// FNV-1a 64 — the same fold `trace::fingerprint` applies to a binary
/// trace, so a digest of encoded bytes is comparable to it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Metric names are 1–64 characters of `[A-Za-z0-9_.-]`, starting with
/// a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `CapacityRamp`'s SLO rule: a rung is violated when its p99 exceeds
/// `slo_p99_ns` or it achieves less than `min_achieved_ppt` parts per
/// thousand of the aggregate offered rate.
pub fn violates_slo(ramp: &CapacityRamp, r: &TrafficReport, offered_mps: u64) -> bool {
    r.hist.p99() > ramp.slo_p99_ns
        || r.msgs_per_sec() * 1000.0 < offered_mps as f64 * f64::from(ramp.min_achieved_ppt)
}

/// The ×2 rung ladder's bracket and its bisection, as
/// `SweepEngine::capacity` applies them: `lo` is the last good rung
/// below the first violating rung `hi`; each probe halves the bracket
/// and stops early once it cannot move.  Drives the caller's `probe`
/// (per-lane rate → violated?) and returns the refined knee per-lane
/// rate plus the probes it made.
pub fn bisect_knee(
    mut lo: u64,
    mut hi: u64,
    iters: u32,
    mut probe: impl FnMut(u64) -> bool,
) -> (u64, u32) {
    let mut probes = 0;
    for _ in 0..iters {
        let mid = lo + (hi - lo) / 2;
        if mid == lo || mid == hi {
            break;
        }
        probes += 1;
        if probe(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (hi, probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::LatencyHistogram;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let close = |got: Option<f64>, want: f64| got.is_some_and(|g| (g - want).abs() < 1e-9);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(percentile(&hundred, 0.9), 90.1));
        assert!(close(percentile(&hundred, 0.5), 50.5));
        assert!(close(percentile(&hundred[..92], 0.9), 82.9));
        // 91 samples: the p90 sits on the 82nd, with 9 above it.
        assert_eq!(percentile(&hundred[..91], 0.9), None);
        assert!(close(percentile(&hundred[..20], 0.5), 10.5));
        assert_eq!(percentile(&hundred[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pooled_histograms_equal_the_concatenated_cells() {
        let mut rng = netsim::rng::SplitMix64::new(0x7EA5);
        let cells: Vec<Vec<u64>> = (0..12)
            .map(|c| (0..5_000).map(|_| rng.below(1 << (10 + c)) + 1).collect())
            .collect();
        let mut pooled = LatencyHistogram::new();
        let mut concatenated = LatencyHistogram::new();
        for cell in &cells {
            let mut h = LatencyHistogram::new();
            for &v in cell {
                h.record(v);
                concatenated.record(v);
            }
            pooled.merge(&h);
        }
        assert_eq!(pooled, concatenated);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(pooled.quantile(q), concatenated.quantile(q));
        }
    }

    #[test]
    fn metric_names_are_restricted() {
        for name in crate::metrics::END_TO_END
            .iter()
            .chain(crate::metrics::PER_LAYER)
        {
            assert!(valid_metric_name(name.0), "{}", name.0);
        }
        assert!(valid_metric_name("traffic.run_ms"));
        assert!(!valid_metric_name("_x"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name("µs"));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }

    #[test]
    fn bisection_stops_when_the_bracket_cannot_move() {
        // A knee at 5_000: every rate at or above it violates.
        let (knee, probes) = bisect_knee(4_000, 8_000, 5, |r| r >= 5_000);
        assert_eq!(probes, 5);
        assert!((5_000..=5_125).contains(&knee), "{knee}");
        assert_eq!(bisect_knee(4, 5, 5, |_| true), (5, 0));
    }

    /// The benchmark's ladder and bisection must find the knee
    /// `SweepEngine::capacity` finds, on a ramp small enough for a test.
    #[test]
    fn ladder_knee_matches_the_sweep_engine_on_a_smoke_ramp() {
        use protolat_core::{StackKind, SweepEngine, Version};
        use traffic::{run_traffic, ReplayService, TrafficConfig};

        let base = TrafficConfig::open_loop(2_000, 1_500, 64)
            .with_workers(2)
            .with_seed(0x7EA5)
            .with_faults(3_000, 1_500, 3_000, 1_500);
        let ramp = CapacityRamp::new(base, 2_000);
        let opts = protocols::StackOptions::improved();
        let engine = SweepEngine::new();
        for version in [Version::Bad, Version::All] {
            let expected = engine.capacity(StackKind::TcpIp, opts, 2, version, ramp);
            let image = engine.image(StackKind::TcpIp, opts, 2, version);
            let episode = engine.tcpip(opts, 2).run.episodes.server_turn.clone();
            let violated = |rate: u64| {
                let r = run_traffic(&ramp.rung_config(rate), |_| {
                    ReplayService::new(&image, &episode)
                })
                .expect("smoke ramp drains");
                violates_slo(&ramp, &r, rate * 2)
            };
            let rates = ramp.rates();
            let first = rates
                .iter()
                .position(|&r| violated(r))
                .expect("ladder finds a knee");
            assert!(first > 0, "the base rung must hold");
            let (knee, _) =
                bisect_knee(rates[first - 1], rates[first], ramp.bisect_iters, violated);
            assert_eq!(Some(knee * 2), expected.refined_knee_mps, "{version:?}");
        }
    }
}
