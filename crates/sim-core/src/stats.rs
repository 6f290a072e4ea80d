//! Statistics helpers for serving metrics and the benchmark harness.
//!
//! The paper reports P50/P90/P99/P999 latencies (Figures 13, 14, 16),
//! windowed mean-TTFT / throughput timelines (Figures 2, 12, 16, 17), and
//! SLO-violation ratios (Figure 13). The types here implement exactly those
//! aggregations.

// Every cast on the path from raw samples to reported numbers rounds
// silently, so each truncating one states its rationale in an `#[expect]`.
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use crate::time::{SimDuration, SimTime};

/// Percentile summary of a latency (or any scalar) sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Number of samples the summary was computed from.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Percentiles {
    /// An all-zero summary, returned for empty sample sets.
    pub const EMPTY: Percentiles = Percentiles {
        count: 0,
        mean: 0.0,
        p50: 0.0,
        p90: 0.0,
        p99: 0.0,
        p999: 0.0,
        max: 0.0,
    };

    /// Computes a percentile summary from unsorted samples.
    ///
    /// Uses the nearest-rank method on a sorted copy, which matches how
    /// serving papers conventionally report tail latencies.
    pub fn from_samples(samples: &[f64]) -> Percentiles {
        if samples.is_empty() {
            return Percentiles::EMPTY;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency samples must not be NaN"));
        let pick = |p: f64| -> f64 {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "nearest-rank percentile: ceil of a value in (0, len], then clamped; \
                          the round-up is the method"
            )]
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Percentiles {
            count: sorted.len(),
            mean,
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            p999: pick(0.999),
            max: *sorted.last().expect("non-empty"),
        }
    }

    /// Fraction of samples strictly above `threshold` (SLO-violation ratio).
    pub fn violation_ratio(samples: &[f64], threshold: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().filter(|&&s| s > threshold).count() as f64 / samples.len() as f64
    }
}

/// An append-only `(time, value)` series with windowed averaging.
///
/// Used for the memory-demand and latency timelines in Figures 2, 12 and 16.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a sample. Samples should be pushed in non-decreasing time
    /// order; this is asserted in debug builds.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(last, _)| t >= last),
            "time series samples must be pushed in order"
        );
        self.points.push((t, v));
    }

    /// Returns the raw samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Returns the number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Averages samples into fixed-width windows over `[start, end)`.
    ///
    /// Returns one `(window_start, mean)` entry per window; windows without
    /// samples carry the previous window's mean (or 0.0 at the start), which
    /// makes plotted timelines continuous like the paper's figures.
    pub fn windowed_mean(
        &self,
        start: SimTime,
        end: SimTime,
        window: SimDuration,
    ) -> Vec<(SimTime, f64)> {
        assert!(window > SimDuration::ZERO, "window must be positive");
        let mut out = Vec::new();
        let mut t = start;
        let mut idx = 0;
        // Skip samples before the range.
        while idx < self.points.len() && self.points[idx].0 < start {
            idx += 1;
        }
        let mut last_mean = 0.0;
        while t < end {
            let wend = t + window;
            let mut sum = 0.0;
            let mut n = 0usize;
            while idx < self.points.len() && self.points[idx].0 < wend {
                sum += self.points[idx].1;
                n += 1;
                idx += 1;
            }
            if n > 0 {
                last_mean = sum / n as f64;
            }
            out.push((t, last_mean));
            t = wend;
        }
        out
    }
}

/// Width of a [`WindowedRate`] bucket. Rate windows, and their starts,
/// are whole multiples of it.
pub const RATE_BUCKET: SimDuration = SimDuration::from_millis(100);

/// Counts discrete occurrences (tokens, requests) and reports per-second
/// rates over fixed windows — the throughput timelines of Figure 12.
///
/// Occurrences are summed into [`RATE_BUCKET`]-wide buckets as they are
/// recorded, so memory grows with the simulated span, not with the number
/// of recordings. Bucket `i` covers `[i, i + 1) × RATE_BUCKET`: an
/// occurrence exactly on a boundary counts in the later bucket.
#[derive(Debug, Clone, Default)]
pub struct WindowedRate {
    buckets: Vec<u64>,
}

impl WindowedRate {
    /// Creates an empty rate counter.
    pub fn new() -> Self {
        WindowedRate::default()
    }

    /// Records `n` occurrences at time `t` (e.g. tokens in a batch).
    pub fn record(&mut self, t: SimTime, n: u64) {
        let i = usize::try_from(t.as_micros() / RATE_BUCKET.as_micros())
            .expect("bucket index fits in memory");
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += n;
    }

    /// Total recorded occurrences.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Returns `(window_start, rate_per_sec)` entries covering `[start, end)`.
    ///
    /// Each rate is a window's integer count over its length in seconds,
    /// the same f64 an event-by-event sum would give below 2^53.
    ///
    /// # Panics
    ///
    /// Panics unless `window` is positive and `start` and `window` are
    /// whole multiples of [`RATE_BUCKET`].
    pub fn rates(&self, start: SimTime, end: SimTime, window: SimDuration) -> Vec<(SimTime, f64)> {
        let width = RATE_BUCKET.as_micros();
        assert!(
            window > SimDuration::ZERO
                && window.as_micros().is_multiple_of(width)
                && start.as_micros().is_multiple_of(width),
            "rate windows start on and span whole {RATE_BUCKET} buckets"
        );
        let bucket = |t: SimTime| {
            usize::try_from(t.as_micros() / width)
                .unwrap_or(usize::MAX)
                .min(self.buckets.len())
        };
        let wsecs = window.as_secs_f64();
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            let wend = t + window;
            let n: u64 = self.buckets[bucket(t)..bucket(wend)].iter().sum();
            out.push((t, n as f64 / wsecs));
            t = wend;
        }
        out
    }
}

/// Computes an empirical CDF over the samples: `(value, cumulative_fraction)`
/// pairs at `resolution` evenly spaced quantiles. Used by Figure 5.
pub fn empirical_cdf(samples: &[f64], resolution: usize) -> Vec<(f64, f64)> {
    if samples.is_empty() || resolution == 0 {
        return Vec::new();
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("CDF samples must not be NaN"));
    (1..=resolution)
        .map(|i| {
            let frac = i as f64 / resolution as f64;
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "nearest-rank CDF sampling, same intentional ceil-then-clamp as \
                          `Percentiles::from_samples`"
            )]
            let rank = ((frac * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            (sorted[rank - 1], frac)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_distribution() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let p = Percentiles::from_samples(&samples);
        assert_eq!(p.count, 1000);
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.p90, 900.0);
        assert_eq!(p.p99, 990.0);
        assert_eq!(p.p999, 999.0);
        assert_eq!(p.max, 1000.0);
        assert!((p.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_empty_and_single() {
        assert_eq!(Percentiles::from_samples(&[]), Percentiles::EMPTY);
        let p = Percentiles::from_samples(&[42.0]);
        assert_eq!(p.p50, 42.0);
        assert_eq!(p.p999, 42.0);
        assert_eq!(p.count, 1);
    }

    #[test]
    fn violation_ratio_counts_strict_exceedance() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(Percentiles::violation_ratio(&samples, 2.0), 0.5);
        assert_eq!(Percentiles::violation_ratio(&samples, 0.0), 1.0);
        assert_eq!(Percentiles::violation_ratio(&samples, 4.0), 0.0);
        assert_eq!(Percentiles::violation_ratio(&[], 1.0), 0.0);
    }

    #[test]
    fn windowed_mean_fills_gaps() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(0), 10.0);
        ts.push(SimTime::from_secs(0), 20.0);
        // No samples in window [1s, 2s).
        ts.push(SimTime::from_secs(2), 30.0);
        let w = ts.windowed_mean(
            SimTime::ZERO,
            SimTime::from_secs(3),
            SimDuration::from_secs(1),
        );
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].1, 15.0);
        assert_eq!(w[1].1, 15.0, "empty window carries previous mean");
        assert_eq!(w[2].1, 30.0);
    }

    #[test]
    fn rates_are_per_second() {
        let mut r = WindowedRate::new();
        r.record(SimTime::from_millis(100), 50);
        r.record(SimTime::from_millis(600), 50);
        r.record(SimTime::from_millis(1100), 10);
        let rates = r.rates(
            SimTime::ZERO,
            SimTime::from_secs(2),
            SimDuration::from_millis(500),
        );
        assert_eq!(rates.len(), 4);
        assert_eq!(rates[0].1, 100.0); // 50 tokens in 0.5 s.
        assert_eq!(rates[1].1, 100.0);
        assert_eq!(rates[2].1, 20.0);
        assert_eq!(rates[3].1, 0.0);
        assert_eq!(r.total(), 110);
    }

    #[test]
    fn boundary_occurrences_count_in_the_later_window() {
        let mut r = WindowedRate::new();
        r.record(SimTime::from_micros(499_999), 1);
        r.record(SimTime::from_millis(500), 2);
        let rates = r.rates(
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimDuration::from_millis(500),
        );
        assert_eq!(
            rates,
            vec![(SimTime::ZERO, 2.0), (SimTime::from_millis(500), 4.0)]
        );
    }

    #[test]
    #[should_panic(expected = "whole")]
    fn misaligned_window_panics() {
        WindowedRate::new().rates(
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimDuration::from_millis(250),
        );
    }

    #[test]
    #[should_panic(expected = "whole")]
    fn misaligned_start_panics() {
        WindowedRate::new().rates(
            SimTime::from_millis(50),
            SimTime::from_secs(1),
            SimDuration::from_millis(500),
        );
    }

    #[test]
    fn cdf_is_monotone() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        let cdf = empirical_cdf(&samples, 10);
        assert_eq!(cdf.len(), 10);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0, "CDF values must be non-decreasing");
            assert!(w[0].1 < w[1].1, "CDF fractions must increase");
        }
        assert_eq!(cdf.last().expect("non-empty").0, 5.0);
        assert!(empirical_cdf(&[], 10).is_empty());
    }

    #[test]
    fn len_counts_samples() {
        let mut ts = TimeSeries::new();
        assert!(ts.is_empty());
        ts.push(SimTime::ZERO, -3.0);
        ts.push(SimTime::from_secs(1), 7.0);
        assert_eq!(ts.len(), 2);
        assert!(!ts.is_empty());
    }
}
