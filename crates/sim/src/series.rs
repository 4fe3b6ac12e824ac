//! Time-series recorders for throughput and token-rate plots.

use crate::time::{SimDuration, SimTime};

/// Accumulates per-interval event counts and reports them as rates —
/// used for the IOPS and tokens/s series in Figures 5 and 6.
///
/// # Examples
///
/// ```
/// use reflex_sim::{RateSeries, SimDuration, SimTime};
///
/// let mut s = RateSeries::new(SimDuration::from_millis(10));
/// s.add(SimTime::from_millis(1), 100);
/// s.add(SimTime::from_millis(12), 50);
/// s.finish(SimTime::from_millis(20));
/// let points = s.points();
/// assert_eq!(points.len(), 2);
/// assert!((points[0].rate_per_sec - 10_000.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct RateSeries {
    interval: SimDuration,
    current_start: SimTime,
    current_count: u64,
    points: Vec<RatePoint>,
}

/// One interval of a [`RateSeries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    /// Interval start instant.
    pub at: SimTime,
    /// Events counted in this interval.
    pub count: u64,
    /// Events per second of simulated time.
    pub rate_per_sec: f64,
}

impl RateSeries {
    /// Creates a series that aggregates counts per `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "rate interval must be positive");
        RateSeries {
            interval,
            current_start: SimTime::ZERO,
            current_count: 0,
            points: Vec::new(),
        }
    }

    fn roll_to(&mut self, at: SimTime) {
        while at >= self.current_start + self.interval {
            let count = self.current_count;
            let rate = count as f64 / self.interval.as_secs_f64();
            self.points.push(RatePoint {
                at: self.current_start,
                count,
                rate_per_sec: rate,
            });
            self.current_start += self.interval;
            self.current_count = 0;
        }
    }

    /// Adds `count` events at instant `at`. Instants must be non-decreasing.
    pub fn add(&mut self, at: SimTime, count: u64) {
        self.roll_to(at);
        self.current_count += count;
    }

    /// Flushes the final (possibly partial) interval up to `end`.
    pub fn finish(&mut self, end: SimTime) {
        self.roll_to(end);
        if self.current_count > 0 {
            let span = end.saturating_since(self.current_start);
            if !span.is_zero() {
                let rate = self.current_count as f64 / span.as_secs_f64();
                self.points.push(RatePoint {
                    at: self.current_start,
                    count: self.current_count,
                    rate_per_sec: rate,
                });
            }
            self.current_count = 0;
        }
    }

    /// The recorded interval points.
    pub fn points(&self) -> &[RatePoint] {
        &self.points
    }

    /// Mean rate across all completed intervals (0 when empty).
    pub fn mean_rate(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.rate_per_sec).sum::<f64>() / self.points.len() as f64
    }
}

/// A running counter with a start instant, reporting an overall average rate.
///
/// # Examples
///
/// ```
/// use reflex_sim::{Counter, SimTime};
///
/// let mut c = Counter::new();
/// c.add(3);
/// c.add(7);
/// assert_eq!(c.total(), 10);
/// assert!((c.rate_per_sec(SimTime::from_secs(2)) - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    total: u64,
    since: SimTime,
}

impl Counter {
    /// Creates a zeroed counter starting at `t=0`.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.total += n;
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.total += 1;
    }

    /// Total events counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Resets the count and marks `at` as the new measurement origin.
    pub fn reset_at(&mut self, at: SimTime) {
        self.total = 0;
        self.since = at;
    }

    /// Average events/second between the origin and `now` (0 if no time passed).
    pub fn rate_per_sec(&self, now: SimTime) -> f64 {
        let span = now.saturating_since(self.since);
        if span.is_zero() {
            0.0
        } else {
            self.total as f64 / span.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_series_buckets_counts() {
        let mut s = RateSeries::new(SimDuration::from_millis(10));
        s.add(SimTime::from_millis(0), 5);
        s.add(SimTime::from_millis(5), 5);
        s.add(SimTime::from_millis(15), 20);
        s.finish(SimTime::from_millis(30));
        let pts = s.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].count, 10);
        assert_eq!(pts[1].count, 20);
        assert_eq!(pts[2].count, 0);
        assert!((pts[0].rate_per_sec - 1_000.0).abs() < 1e-9);
        assert!((pts[1].rate_per_sec - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn rate_series_emits_empty_intervals() {
        let mut s = RateSeries::new(SimDuration::from_millis(1));
        s.add(SimTime::from_millis(0), 1);
        s.add(SimTime::from_millis(3), 1);
        s.finish(SimTime::from_millis(4));
        let pts = s.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[1].count, 0);
        assert_eq!(pts[2].count, 0);
    }

    #[test]
    fn partial_tail_interval_uses_actual_span() {
        let mut s = RateSeries::new(SimDuration::from_millis(10));
        s.add(SimTime::from_millis(12), 5);
        s.finish(SimTime::from_millis(17));
        // First interval [0,10) empty, tail [10,17) holds 5 over 7ms.
        let pts = s.points();
        assert_eq!(pts.len(), 2);
        assert!((pts[1].rate_per_sec - 5.0 / 0.007).abs() < 1.0);
    }

    #[test]
    fn counter_rates() {
        let mut c = Counter::new();
        assert_eq!(c.rate_per_sec(SimTime::ZERO), 0.0);
        c.add(100);
        assert!((c.rate_per_sec(SimTime::from_millis(100)) - 1_000.0).abs() < 1e-9);
        c.reset_at(SimTime::from_secs(1));
        c.incr();
        assert_eq!(c.total(), 1);
        assert!((c.rate_per_sec(SimTime::from_secs(2)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mean_rate_averages_points() {
        let mut s = RateSeries::new(SimDuration::from_millis(10));
        s.add(SimTime::from_millis(0), 10);
        s.add(SimTime::from_millis(10), 30);
        s.finish(SimTime::from_millis(20));
        assert!((s.mean_rate() - 2_000.0).abs() < 1e-9);
    }
}
