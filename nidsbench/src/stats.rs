//! Order statistics and the `max_rate_fps` ladder rules.

/// Percentiles the tail of a timing is reported at, lowest first.
const TAIL_QUANTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples a reported percentile must have beyond it.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q` percentile among `n > 0` samples (the
/// epsilon keeps `0.99 * 1000` from rounding up to rank 991).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n > 0`
/// samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest of [`TAIL_QUANTILES`] with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when `n` is too small for any of them.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_QUANTILES.iter().rev().copied().find(|&q| n > 0 && beyond(n, q) >= MIN_BEYOND)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// A timing's median, its reportable tail and its sample count.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(quantile, value)` of the highest percentile with at least
    /// [`MIN_BEYOND`] samples beyond it.
    pub tail: Option<(f64, f64)>,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = tail_quantile(n).map(|q| (q, percentile(&sorted, q)));
        let p50 = if n == 0 { f64::NAN } else { percentile(&sorted, 0.5) };
        let max = sorted.last().copied().unwrap_or(f64::NAN);
        Self { n, p50, tail, max }
    }

    /// `p50 <value> (n=<count>, p<tail> <value>)` in `scale` units.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!(", p{} {:.4} {unit}", q * 100.0, v * scale),
            None => String::from(", no percentile with 10 samples beyond"),
        };
        format!(
            "p50 {:.4} {unit} (n={}{tail}, max {:.4} {unit})",
            self.p50 * scale,
            self.n,
            self.max * scale
        )
    }
}

/// Samples per window of [`windowed_p99`].
pub const WINDOW: usize = 2_000;

/// The p99 of a typical window: the median, over consecutive
/// [`WINDOW`]-sample windows in order, of each window's p99 (a trailing
/// partial window is dropped).  Each window's p99 has 20 samples beyond
/// it.  One host stall inflates the p99 of the one or two windows it falls
/// in, not this median.
pub fn windowed_p99(latencies: &[f64]) -> Option<f64> {
    let per_window: Vec<f64> = latencies
        .chunks_exact(WINDOW)
        .map(|window| {
            let mut sorted = window.to_vec();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, 0.99)
        })
        .collect();
    (!per_window.is_empty()).then(|| median(&per_window))
}

/// One open-loop phase at a fixed offered rate, as the ladder sees it.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered flows per second.
    pub rate: f64,
    /// Latency of every flow sent, in seconds; refused flows are
    /// `f64::INFINITY`, so they count as missing any limit.
    pub latencies: Vec<f64>,
    /// `(seconds since the phase started, flows sent but not yet
    /// collected)`, sampled through the phase.
    pub backlog: Vec<(f64, f64)>,
}

/// Share of the offered rate the backlog may grow by, per second, before
/// the rate counts as unsustainable: the engine then completes less than
/// 98% of what is offered.
pub const GROWTH_SHARE: f64 = 0.02;

/// Whether the backlog kept growing at `rate`: after a 10% warm-up, the
/// least-squares slope of backlog over time exceeds [`GROWTH_SHARE`] of
/// the rate.  A short stall adds a bump that barely tilts the fit; a rate
/// the engine cannot complete grows the backlog by the shortfall every
/// second.
pub fn backlog_grows(samples: &[(f64, f64)], rate: f64) -> bool {
    let steady = &samples[samples.len() / 10..];
    if steady.len() < 4 {
        return false;
    }
    let n = steady.len() as f64;
    let mean_t = steady.iter().map(|&(t, _)| t).sum::<f64>() / n;
    let mean_b = steady.iter().map(|&(_, b)| b).sum::<f64>() / n;
    let cov: f64 = steady.iter().map(|&(t, b)| (t - mean_t) * (b - mean_b)).sum();
    let var: f64 = steady.iter().map(|&(t, _)| (t - mean_t).powi(2)).sum();
    var > 0.0 && cov / var > GROWTH_SHARE * rate
}

/// Whether a rung meets the latency limit: its [`windowed_p99`]
/// (refusals counted as misses) is within `limit_s` and its backlog does
/// not grow.
pub fn rung_passes(rung: &Rung, limit_s: f64) -> bool {
    windowed_p99(&rung.latencies).is_some_and(|p99| p99 <= limit_s)
        && !backlog_grows(&rung.backlog, rung.rate)
}

/// Highest passing rate among probed rungs, where a rung only counts if
/// every probed lower rate passed too (the ladder stops at the first miss).
pub fn ladder_max(rungs: &[(f64, bool)]) -> Option<f64> {
    let mut sorted = rungs.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    sorted.iter().take_while(|&&(_, pass)| pass).map(|&(rate, _)| rate).last()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_percentile_is_the_highest_with_ten_samples_beyond() {
        assert_eq!(tail_quantile(5), None);
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(1_000_000), Some(0.9999));
        for n in [20, 57, 100, 999, 1_000, 4_321, 10_000, 123_456] {
            let q = tail_quantile(n).unwrap();
            assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
            if let Some(&higher) = TAIL_QUANTILES.iter().find(|&&h| h > q) {
                assert!(beyond(n, higher) < MIN_BEYOND, "n={n}: p{higher} also qualifies");
            }
        }
        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let summary = Summary::of(&samples);
        assert_eq!(summary.tail, Some((0.99, 990.0)));
        assert_eq!(summary.p50, 500.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.5), 2.0);
        assert_eq!(percentile(&sorted, 0.75), 3.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_p99_is_the_median_window() {
        let mut latencies = vec![0.003; 5 * WINDOW + 17];
        // A 30 ms stall hits 200 flows of the second window: 2% of all
        // flows, so the plain p99 lands in the stall.
        for latency in &mut latencies[WINDOW + 500..WINDOW + 700] {
            *latency = 0.030;
        }
        assert_eq!(windowed_p99(&latencies), Some(0.003));
        assert_eq!(windowed_p99(&latencies[..WINDOW - 1]), None);
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(percentile(&sorted, 0.99), 0.030);
    }

    fn rung(rate: f64, backlog: impl Fn(f64) -> f64) -> Rung {
        Rung {
            rate,
            latencies: vec![0.003; 2_000],
            backlog: (0..100).map(|i| (i as f64 * 0.01, backlog(i as f64 * 0.01))).collect(),
        }
    }

    #[test]
    fn ladder_rejects_a_rate_whose_backlog_grows() {
        let limit = 0.010;
        let flat = rung(10_000.0, |t| 30.0 + 5.0 * (t * 40.0).sin());
        assert!(rung_passes(&flat, limit));
        // A 20 ms stall near the end piles up 200 flows and drains again.
        let stalled = rung(10_000.0, |t| if (0.90..0.94).contains(&t) { 230.0 } else { 30.0 });
        assert!(rung_passes(&stalled, limit));
        // Same latencies, but the backlog climbs by 2k flows a second:
        // the engine completes 10k of the 12k flows offered each second.
        let growing = rung(12_000.0, |t| 30.0 + 2_000.0 * t);
        assert!(backlog_grows(&growing.backlog, growing.rate));
        assert!(!rung_passes(&growing, limit));
        assert_eq!(ladder_max(&[(10_000.0, true), (12_000.0, false)]), Some(10_000.0));
    }

    #[test]
    fn ladder_counts_refusals_as_misses_and_stops_at_the_first_miss() {
        let mut refused = rung(20_000.0, |_| 30.0);
        for latency in refused.latencies.iter_mut().take(30) {
            *latency = f64::INFINITY;
        }
        assert!(!rung_passes(&refused, 0.010));
        let probed = [(8_000.0, true), (16_000.0, false), (12_000.0, true), (14_000.0, true)];
        assert_eq!(ladder_max(&probed), Some(14_000.0));
        assert_eq!(ladder_max(&[(8_000.0, false)]), None);
        // A pass above a miss does not count.
        assert_eq!(
            ladder_max(&[(8_000.0, true), (9_000.0, false), (10_000.0, true)]),
            Some(8_000.0)
        );
    }
}
