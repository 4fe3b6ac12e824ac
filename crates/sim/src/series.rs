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
}
