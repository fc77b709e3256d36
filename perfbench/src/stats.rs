//! Exact statistics over raw samples, the capacity-ladder rule, and the
//! backlog test. Nothing here is bucketed: every percentile is a sample
//! value, so a 10% shift in a tail shows as a 10% shift.

/// A sorted sample set with exact nearest-rank percentiles.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    pub fn new(mut values: Vec<u64>) -> Samples {
        values.sort_unstable();
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least `q` of
    /// the samples at or below it. `None` on an empty set.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "percentile {q} outside [0, 1]");
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// Samples strictly greater than `value`: how many observations a
    /// reported percentile rests on.
    pub fn beyond(&self, value: u64) -> usize {
        self.sorted.len() - self.sorted.partition_point(|&v| v <= value)
    }

    pub fn max(&self) -> Option<u64> {
        self.sorted.last().copied()
    }
}

/// Median of a list of per-iteration values (mean of the middle pair for
/// an even count). `None` on an empty list.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// The fixed capacity ladder: rung `i` offers `1000 * 1.05^i` queries/s,
/// rounded, for `i` in `0..LADDER_RUNGS` (1000 to about 21k qps). Rungs 5%
/// apart resolve a capacity change of one rung.
pub const LADDER_RUNGS: usize = 63;

pub fn ladder_rate(rung: usize) -> u64 {
    assert!(rung < LADDER_RUNGS, "rung {rung} is off the ladder");
    (1000.0 * 1.05f64.powi(rung as i32)).round() as u64
}

/// The rung whose rate is closest to `rate` (the search's known-good
/// start).
pub fn rung_at_or_below(rate: u64) -> usize {
    (0..LADDER_RUNGS).rev().find(|&r| ladder_rate(r) <= rate).unwrap_or(0)
}

/// What one probe at a fixed rate observed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Probe {
    pub rate: u64,
    pub p99_us: u64,
    /// Queries due that did not get a correct 200.
    pub failed: u64,
    pub backlog_grew: bool,
}

/// The ladder rule: a rung holds when its p99 (measured from the intended
/// send time) is within the limit, no query failed, and the backlog did
/// not grow.
pub fn rung_holds(p: &Probe, p99_limit_us: u64) -> bool {
    p.p99_us <= p99_limit_us && p.failed == 0 && !p.backlog_grew
}

/// The backlog test over one probe window. `lateness_us` is each query's
/// send lateness in intended-send order. The backlog grows when the
/// median lateness of the last quarter exceeds that of the first quarter
/// by more than `slack_us`: a generator (or server) that keeps up drifts
/// back to zero lateness; one that does not falls further behind.
pub fn backlog_grows(lateness_us: &[u64], slack_us: u64) -> bool {
    let n = lateness_us.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = Samples::new(lateness_us[..q].to_vec()).percentile(0.5).unwrap_or(0);
    let last = Samples::new(lateness_us[n - q..].to_vec()).percentile(0.5).unwrap_or(0);
    last > first + slack_us
}

/// Binary search for the highest holding rung, starting from `good` (a
/// rung expected to hold). `holds(rung)` runs one probe. Returns the rung
/// found (one that held whose next rung failed, or the ladder's top;
/// `None` if not even the bottom rung held) and the number of probes.
pub fn search_capacity(
    good: usize,
    mut holds: impl FnMut(usize) -> bool,
) -> (Option<usize>, usize) {
    let mut probes = 1;
    // Invariant: `lo` held; `hi` failed or is off the ladder.
    let (mut lo, mut hi) = (good, LADDER_RUNGS);
    if !holds(good) {
        probes += 1;
        if good == 0 || !holds(0) {
            return (None, probes);
        }
        (lo, hi) = (0, good);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (Some(lo), probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_over_raw_samples() {
        let s = Samples::new((1..=100).rev().collect());
        assert_eq!(s.percentile(0.5), Some(50));
        assert_eq!(s.percentile(0.99), Some(99));
        assert_eq!(s.percentile(1.0), Some(100));
        assert_eq!(s.percentile(0.0), Some(1));
        assert_eq!(s.percentile(0.011), Some(2));
        assert_eq!(Samples::new(vec![]).percentile(0.5), None);
        assert_eq!(Samples::new(vec![7]).percentile(0.99), Some(7));
    }

    #[test]
    fn percentile_resolves_a_ten_percent_shift() {
        // A log2 histogram puts 1000 and 1100 in one bucket; raw samples
        // do not.
        let base = Samples::new((0..1000).map(|i| 1000 + i % 7).collect());
        let shifted = Samples::new((0..1000).map(|i| 1100 + i % 7).collect());
        assert_eq!(shifted.percentile(0.99).unwrap() - base.percentile(0.99).unwrap(), 100);
    }

    #[test]
    fn beyond_counts_samples_strictly_above() {
        let s = Samples::new(vec![5, 1, 3, 3, 9, 7]);
        assert_eq!(s.beyond(3), 3);
        assert_eq!(s.beyond(0), 6);
        assert_eq!(s.beyond(9), 0);
        let p = s.percentile(0.5).unwrap();
        assert_eq!((p, s.beyond(p)), (3, 3));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ladder_is_fixed_and_five_percent_apart() {
        assert_eq!(ladder_rate(0), 1000);
        assert_eq!(ladder_rate(1), 1050);
        assert_eq!(ladder_rate(14), 1980);
        for r in 1..LADDER_RUNGS {
            let ratio = ladder_rate(r) as f64 / ladder_rate(r - 1) as f64;
            assert!((1.045..1.055).contains(&ratio), "rung {r}: {ratio}");
        }
        assert_eq!(rung_at_or_below(2000), 14);
        assert_eq!(rung_at_or_below(10), 0);
    }

    #[test]
    fn rung_rule_needs_latency_zero_failures_and_no_backlog() {
        let ok = Probe { rate: 5000, p99_us: 900, failed: 0, backlog_grew: false };
        assert!(rung_holds(&ok, 1000));
        assert!(rung_holds(&Probe { p99_us: 1000, ..ok }, 1000));
        assert!(!rung_holds(&Probe { p99_us: 1001, ..ok }, 1000));
        assert!(!rung_holds(&Probe { failed: 1, ..ok }, 1000));
        assert!(!rung_holds(&Probe { backlog_grew: true, ..ok }, 1000));
    }

    #[test]
    fn backlog_test_sees_drift_not_jitter() {
        let steady: Vec<u64> = (0..400).map(|i| (i * 37) % 300).collect();
        assert!(!backlog_grows(&steady, 1000));
        let drifting: Vec<u64> = (0..400).map(|i| i * 10).collect();
        assert!(backlog_grows(&drifting, 1000));
        // A single late burst in the middle is not a trend.
        let mut burst = steady.clone();
        for v in &mut burst[180..220] {
            *v = 50_000;
        }
        assert!(!backlog_grows(&burst, 1000));
        assert!(!backlog_grows(&[0, 99_999], 1000), "too few samples to call a trend");
    }

    #[test]
    fn capacity_search_finds_the_boundary_of_a_monotone_ladder() {
        for cap in [0, 1, 13, 14, 20, 40, LADDER_RUNGS - 2, LADDER_RUNGS - 1] {
            let mut seen = Vec::new();
            let (rung, probes) = search_capacity(14, |r| {
                seen.push(r);
                r <= cap
            });
            assert_eq!(rung, Some(cap), "capacity rung {cap}");
            assert_eq!(probes, seen.len());
            assert!(probes <= 8, "{probes} probes for cap {cap}");
        }
        let (rung, probes) = search_capacity(14, |_| false);
        assert_eq!((rung, probes), (None, 2), "nothing holds");
    }
}
