//! Time-series recorders for throughput and token-rate plots.

use crate::time::{SimDuration, SimTime};

/// Accumulates per-interval event counts and reports them as rates —
/// used for the IOPS and tokens/s series in Figures 5 and 6. It keeps one
/// count per interval; an interval's instant and rate are derived when
/// [`points`](Self::points) reads them. [`new`](Self::new) reserves room
/// for 128 intervals (1 KiB; 1.28 s at 10 ms), so a series built before a
/// measured window of that length does not allocate inside it; a longer
/// series doubles its room as a `Vec` does.
///
/// # Examples
///
/// ```
/// use reflex_sim::{RateSeries, SimDuration, SimTime};
///
/// let mut s = RateSeries::new(SimDuration::from_millis(10));
/// s.add(SimTime::from_millis(1), 100);
/// s.add(SimTime::from_millis(12), 50);
/// let points = s.points(SimTime::from_millis(20));
/// assert_eq!(points.len(), 2);
/// assert!((points[0].rate_per_sec - 10_000.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct RateSeries {
    interval: SimDuration,
    current_start: SimTime,
    current_count: u64,
    /// The counts of the whole intervals before `current_start`.
    counts: Vec<u64>,
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

/// Intervals a new series has room for.
const ROOM: usize = 128;

impl RateSeries {
    /// Creates a series that aggregates counts per `interval`, with room
    /// for 128 of them.
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
            counts: Vec::with_capacity(ROOM),
        }
    }

    /// Adds `count` events at instant `at`. Instants must be non-decreasing.
    pub fn add(&mut self, at: SimTime, count: u64) {
        while at >= self.current_start + self.interval {
            self.counts.push(self.current_count);
            self.current_start += self.interval;
            self.current_count = 0;
        }
        self.current_count += count;
    }

    /// The series as it stands at `end`: every whole interval up to it,
    /// empty ones included, then the partial interval `end` falls in if
    /// it counted anything, its rate over the span it covers.
    pub fn points(&self, end: SimTime) -> Vec<RatePoint> {
        let whole = |at: SimTime, count: u64| RatePoint {
            at,
            count,
            rate_per_sec: count as f64 / self.interval.as_secs_f64(),
        };
        let mut points = Vec::with_capacity(self.counts.len() + 1);
        let mut at = SimTime::ZERO;
        for &count in &self.counts {
            points.push(whole(at, count));
            at += self.interval;
        }
        let mut count = self.current_count;
        while end >= at + self.interval {
            points.push(whole(at, count));
            at += self.interval;
            count = 0;
        }
        let span = end.saturating_since(at);
        if count > 0 && !span.is_zero() {
            points.push(RatePoint {
                at,
                count,
                rate_per_sec: count as f64 / span.as_secs_f64(),
            });
        }
        points
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
        let pts = s.points(SimTime::from_millis(30));
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
        let pts = s.points(SimTime::from_millis(4));
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[1].count, 0);
        assert_eq!(pts[2].count, 0);
    }

    /// Each of a testbed's workloads keeps a series: an interval costs
    /// one count.
    #[test]
    fn an_interval_is_one_word() {
        let mut s = RateSeries::new(SimDuration::from_millis(1));
        s.add(SimTime::from_millis(100), 1);
        assert_eq!(s.counts.len(), 100);
        assert_eq!(std::mem::size_of_val(s.counts.as_slice()), 100 * 8);
    }

    /// The room is reserved up front and a longer series still grows.
    #[test]
    fn new_reserves_room_for_128_intervals() {
        let mut s = RateSeries::new(SimDuration::from_millis(10));
        assert_eq!(s.counts.capacity(), 128);
        s.add(SimTime::from_millis(1_280), 1);
        assert_eq!(s.counts.capacity(), 128);
        s.add(SimTime::from_millis(4_000), 1);
        assert_eq!(s.counts.len(), 400);
        assert_eq!(s.points(SimTime::from_millis(4_005)).len(), 401);
    }

    #[test]
    fn partial_tail_interval_uses_actual_span() {
        let mut s = RateSeries::new(SimDuration::from_millis(10));
        s.add(SimTime::from_millis(12), 5);
        // First interval [0,10) empty, tail [10,17) holds 5 over 7ms.
        let pts = s.points(SimTime::from_millis(17));
        assert_eq!(pts.len(), 2);
        assert!((pts[1].rate_per_sec - 5.0 / 0.007).abs() < 1.0);
    }
}
