//! Log-bucketed latency histograms (HDR-histogram style).
//!
//! [`Histogram`] records `u64` values (we use nanoseconds) into
//! logarithmically spaced buckets with a configurable number of significant
//! sub-buckets per power of two, giving bounded relative error at every
//! percentile while staying O(1) per insert and compact in memory — exactly
//! what a million-IOPS simulation needs.

use crate::time::SimDuration;

/// Sub-bucket resolution: 64 linear sub-buckets per power of two bounds the
/// relative quantile error at ~1.6%, well below the run-to-run noise of the
/// experiments.
const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// Values up to 2^40 ns (~18 minutes) are representable, far beyond any
/// simulated latency.
const MAX_EXP: usize = 40;
const BUCKET_COUNT: usize = (MAX_EXP + 1 - SUB_BUCKET_BITS as usize) * SUB_BUCKETS;

/// A mergeable, log-bucketed histogram of `u64` samples.
///
/// # Examples
///
/// ```
/// use reflex_sim::{Histogram, SimDuration};
///
/// let mut h = Histogram::new();
/// for us in 1..=100u64 {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.count(), 100);
/// let p95 = h.percentile(95.0).as_micros_f64();
/// assert!((94.0..=97.0).contains(&p95));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean_us", &(self.mean().as_micros_f64()))
            .field("p95_us", &self.percentile(95.0).as_micros_f64())
            .field("max_us", &(self.max as f64 / 1e3))
            .finish()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_for(value: u64) -> usize {
        // Values below SUB_BUCKETS land in the first linear region.
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BUCKET_BITS;
        let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
        let bucket_base = (msb - SUB_BUCKET_BITS + 1) as usize * SUB_BUCKETS;
        (bucket_base + sub).min(BUCKET_COUNT - 1)
    }

    fn value_for(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let bucket = (index / SUB_BUCKETS) as u32;
        let sub = (index % SUB_BUCKETS) as u64;
        // Midpoint of the sub-bucket range keeps quantiles unbiased.
        let shift = bucket - 1;
        let base = (SUB_BUCKETS as u64 + sub) << shift;
        let width = 1u64 << shift;
        base + width / 2
    }

    /// Records a raw nanosecond value.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.buckets[Self::index_for(nanos)] += 1;
        self.count += 1;
        self.sum += nanos as u128;
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// Records a duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.record_nanos(d.as_nanos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the recorded samples (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum / self.count as u128) as u64)
    }

    /// Smallest recorded sample (zero when empty).
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min)
        }
    }

    /// Largest recorded sample (zero when empty).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max)
    }

    /// Value at the given percentile in `[0, 100]` (zero when empty).
    ///
    /// The answer carries the histogram's bounded relative error (~1.6%).
    ///
    /// # Panics
    ///
    /// Panics if `pct` is outside `[0, 100]`.
    pub fn percentile(&self, pct: f64) -> SimDuration {
        assert!(
            (0.0..=100.0).contains(&pct),
            "percentile {pct} out of range"
        );
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp the bucket midpoint to the observed extremes so
                // sparse histograms don't report values never seen.
                let v = Self::value_for(i).clamp(self.min, self.max);
                return SimDuration::from_nanos(v);
            }
        }
        SimDuration::from_nanos(self.max)
    }

    /// Median (p50).
    pub fn p50(&self) -> SimDuration {
        self.percentile(50.0)
    }

    /// 95th percentile — the paper's headline tail metric.
    pub fn p95(&self) -> SimDuration {
        self.percentile(95.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimDuration {
        self.percentile(99.0)
    }

    /// Merges the samples of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Serializes the histogram into a compact sparse byte string: a
    /// version tag, the summary fields, then `(bucket index, count)` pairs
    /// for the occupied buckets only, all little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let occupied = self.buckets.iter().filter(|&&c| c != 0).count();
        let mut out = Vec::with_capacity(1 + 8 + 16 + 8 + 8 + 4 + occupied * 12);
        out.push(1u8); // format version
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
        out.extend_from_slice(&self.min.to_le_bytes());
        out.extend_from_slice(&self.max.to_le_bytes());
        out.extend_from_slice(&(occupied as u32).to_le_bytes());
        for (i, &c) in self.buckets.iter().enumerate() {
            if c != 0 {
                out.extend_from_slice(&(i as u32).to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    /// Reconstructs a histogram from [`encode`](Self::encode) output.
    /// Returns `None` on truncated, malformed, or inconsistent input.
    pub fn decode(bytes: &[u8]) -> Option<Histogram> {
        fn take<const N: usize>(b: &mut &[u8]) -> Option<[u8; N]> {
            let (head, rest) = b.split_at_checked(N)?;
            *b = rest;
            head.try_into().ok()
        }
        let mut b = bytes;
        if take::<1>(&mut b)? != [1] {
            return None;
        }
        let count = u64::from_le_bytes(take(&mut b)?);
        let sum = u128::from_le_bytes(take(&mut b)?);
        let min = u64::from_le_bytes(take(&mut b)?);
        let max = u64::from_le_bytes(take(&mut b)?);
        let entries = u32::from_le_bytes(take(&mut b)?);
        let mut h = Histogram::new();
        let mut total = 0u64;
        let mut last_index = None;
        for _ in 0..entries {
            let index = u32::from_le_bytes(take(&mut b)?) as usize;
            let c = u64::from_le_bytes(take(&mut b)?);
            // Indices must be strictly increasing, in range, and non-empty.
            if index >= BUCKET_COUNT || c == 0 || last_index.is_some_and(|l| index <= l) {
                return None;
            }
            last_index = Some(index);
            h.buckets[index] = c;
            total = total.checked_add(c)?;
        }
        if !b.is_empty() || total != count || (count == 0) != (min == u64::MAX) {
            return None;
        }
        h.count = count;
        h.sum = sum;
        h.min = min;
        h.max = max;
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.p95(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn single_value_percentiles() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(250));
        for pct in [0.0, 50.0, 95.0, 99.9, 100.0] {
            let v = h.percentile(pct).as_micros_f64();
            assert!((v - 250.0).abs() / 250.0 < 0.02, "pct {pct} gave {v}");
        }
        assert_eq!(h.mean(), SimDuration::from_micros(250));
    }

    #[test]
    fn uniform_percentiles_are_accurate() {
        let mut h = Histogram::new();
        for us in 1..=10_000u64 {
            h.record(SimDuration::from_micros(us));
        }
        for (pct, expect) in [(50.0, 5_000.0), (95.0, 9_500.0), (99.0, 9_900.0)] {
            let got = h.percentile(pct).as_micros_f64();
            assert!(
                (got - expect).abs() / expect < 0.03,
                "p{pct}: got {got}, want {expect}"
            );
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Every representable value must round-trip within one sub-bucket.
        for v in [1u64, 63, 64, 65, 1_000, 123_456, 10_000_000, 1 << 35] {
            let idx = Histogram::index_for(v);
            let back = Histogram::value_for(idx);
            let rel = (back as f64 - v as f64).abs() / v as f64;
            assert!(rel < 0.02, "value {v} -> {back} rel err {rel}");
        }
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(1_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        let min = a.min().as_micros_f64();
        let max = a.max().as_micros_f64();
        assert!((min - 10.0).abs() < 0.5);
        assert!((max - 1_000.0).abs() < 1.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(5));
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for i in 0..5_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) % 5_000_000;
            h.record_nanos(x.max(1));
        }
        let mut prev = 0.0;
        for pct in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(pct).as_micros_f64();
            assert!(v >= prev, "p{pct} = {v} < previous {prev}");
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn out_of_range_percentile_panics() {
        let h = Histogram::new();
        let _ = h.percentile(101.0);
    }
}
