//! Log-bucketed latency histograms (HDR-histogram style).
//!
//! [`Histogram`] records `u64` values (we use nanoseconds) into
//! logarithmically spaced buckets with a configurable number of significant
//! sub-buckets per power of two, giving bounded relative error at every
//! percentile while staying O(1) per insert — exactly what a million-IOPS
//! simulation needs. Memory in use scales with the octaves recorded: counts
//! live in a window of octaves inside room for 8 octaves reserved at
//! construction, which a wider span at least doubles (at most three times).

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
/// The room `new` reserves: 8 octaves (4 KiB), wider than the window any
/// measured latency stream has needed.
const ROOM: usize = 8 * SUB_BUCKETS;

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
#[derive(Clone)]
pub struct Histogram {
    /// Counts of buckets `lo..lo + buckets.len()`, whole octaves, in room
    /// for 8 octaves that at least doubles when outgrown, up to all
    /// `BUCKET_COUNT` (a clone's room: just its window, until it grows).
    buckets: Vec<u64>,
    lo: usize,
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

/// Equal when the samples are, whatever empty octaves the windows hold.
impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.encode() == other.encode()
    }
}

impl Eq for Histogram {}

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
            buckets: Vec::with_capacity(ROOM),
            lo: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
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

    /// Grows the window by whole octaves to cover buckets `from..to`, zeros
    /// appended above or spliced in below. A span past the room moves the
    /// window, in one copy, into room at least twice as large.
    #[cold]
    fn cover(&mut self, from: usize, to: usize) {
        let (from, to) = (from & !(SUB_BUCKETS - 1), to.next_multiple_of(SUB_BUCKETS));
        if self.buckets.is_empty() {
            self.lo = from;
        }
        let (lo, hi) = (from.min(self.lo), to.max(self.lo + self.buckets.len()));
        if hi - lo > self.buckets.capacity() {
            let room = (hi - lo).max(2 * self.buckets.capacity());
            let mut grown = Vec::with_capacity(room.clamp(ROOM, BUCKET_COUNT));
            grown.resize(self.lo - lo, 0);
            grown.extend_from_slice(&self.buckets);
            self.buckets = grown;
        } else if lo < self.lo {
            self.buckets
                .splice(..0, std::iter::repeat_n(0, self.lo - lo));
        }
        self.buckets.resize(hi - lo, 0);
        self.lo = lo;
    }

    /// Records a raw nanosecond value.
    #[inline]
    pub fn record_nanos(&mut self, nanos: u64) {
        let index = Self::index_for(nanos);
        let Some(c) = self.buckets.get_mut(index.wrapping_sub(self.lo)) else {
            return self.grow_and_record(nanos);
        };
        *c += 1;
        self.count += 1;
        self.sum += nanos as u128;
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// Out of line, so the common path saves no registers for it.
    #[cold]
    #[inline(never)]
    fn grow_and_record(&mut self, nanos: u64) {
        let index = Self::index_for(nanos);
        self.cover(index, index + 1);
        self.record_nanos(nanos);
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
                let v = Self::value_for(self.lo + i).clamp(self.min, self.max);
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
        if !other.buckets.is_empty() {
            self.cover(other.lo, other.lo + other.buckets.len());
            let window = &mut self.buckets[other.lo - self.lo..];
            for (a, b) in window.iter_mut().zip(&other.buckets) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.buckets.fill(0);
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
                out.extend_from_slice(&((self.lo + i) as u32).to_le_bytes());
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
            h.cover(index, index + 1);
            h.buckets[index - h.lo] = c;
            total = total.checked_add(c)?;
        }
        // Empty is exactly what `new` builds; samples have `min <= max`.
        let extremes = (count == 0 && (min, max) == (u64::MAX, 0)) || (count > 0 && min <= max);
        if !b.is_empty() || total != count || !extremes {
            return None;
        }
        (h.count, h.sum, h.min, h.max) = (count, sum, min, max);
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// The representation the window replaced: a count for every bucket.
    struct Dense {
        buckets: Box<[u64; BUCKET_COUNT]>,
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
    }

    impl Dense {
        fn new() -> Self {
            Dense {
                buckets: Box::new([0; BUCKET_COUNT]),
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }
        }

        fn record(&mut self, v: u64) {
            self.buckets[Histogram::index_for(v)] += 1;
            self.count += 1;
            self.sum += v as u128;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        fn merge(&mut self, other: &Dense) {
            for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
                *a += b;
            }
            self.count += other.count;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }

        fn percentile(&self, pct: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let target = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            for (i, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return Histogram::value_for(i).clamp(self.min, self.max);
                }
            }
            self.max
        }

        fn encode(&self) -> Vec<u8> {
            let occupied: Vec<(usize, u64)> = (self.buckets.iter().copied().enumerate())
                .filter(|&(_, c)| c != 0)
                .collect();
            let mut out = vec![1u8];
            out.extend_from_slice(&self.count.to_le_bytes());
            out.extend_from_slice(&self.sum.to_le_bytes());
            out.extend_from_slice(&self.min.to_le_bytes());
            out.extend_from_slice(&self.max.to_le_bytes());
            out.extend_from_slice(&(occupied.len() as u32).to_le_bytes());
            for (i, c) in occupied {
                out.extend_from_slice(&(i as u32).to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
            out
        }
    }

    /// `n` values spread over every octave from 1 ns to 2^41 ns, past the
    /// last bucket's 2^40.
    fn stream(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SimRng::seed(seed);
        (0..n)
            .map(|_| {
                let octave = rng.below(41);
                (1 << octave) + rng.below((1 << octave) + 1)
            })
            .collect()
    }

    fn record_both(h: &mut Histogram, d: &mut Dense, values: &[u64]) {
        for &v in values {
            h.record_nanos(v);
            d.record(v);
        }
    }

    /// `h` holds exactly the samples of `d`: every summary, percentiles on
    /// a grid, the encoded bytes, and equality with a histogram decoded
    /// from the tally, whose window is only its occupied octaves.
    fn assert_matches(h: &Histogram, d: &Dense) {
        assert_eq!(
            (h.count, h.sum, h.min, h.max),
            (d.count, d.sum, d.min, d.max)
        );
        let mean = d.sum.checked_div(d.count as u128).unwrap_or(0) as u64;
        assert_eq!(h.mean(), SimDuration::from_nanos(mean));
        let min = if d.count == 0 { 0 } else { d.min };
        assert_eq!(
            (h.min(), h.max()),
            (SimDuration::from_nanos(min), SimDuration::from_nanos(d.max))
        );
        for pct in [
            0.0, 0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0,
        ] {
            assert_eq!(h.percentile(pct).as_nanos(), d.percentile(pct), "p{pct}");
        }
        let bytes = d.encode();
        assert_eq!(h.encode(), bytes);
        assert_eq!(Histogram::decode(&bytes).as_ref(), Some(h));
        // `new`'s room, or at most twice the window a growth moved, or
        // every bucket; a clone's room is its window until it grows.
        let (len, room) = (h.buckets.len(), h.buckets.capacity());
        assert!(
            room == BUCKET_COUNT || (len..=ROOM.max(2 * len)).contains(&room),
            "{len} in {room}"
        );
        assert_eq!(h.lo % SUB_BUCKETS, 0);
        assert_eq!(h.buckets.len() % SUB_BUCKETS, 0);
    }

    #[test]
    fn ascending_and_descending_streams_match_dense_tally() {
        for seed in 0..16 {
            let drawn = stream(seed, 400);
            let mut ascending = drawn.clone();
            ascending.sort_unstable();
            let descending: Vec<u64> = ascending.iter().rev().copied().collect();
            for values in [&drawn, &ascending, &descending] {
                let (mut h, mut d) = (Histogram::new(), Dense::new());
                for chunk in values.chunks(50) {
                    record_both(&mut h, &mut d, chunk);
                    assert_matches(&h, &d);
                }
            }
        }
    }

    #[test]
    fn merges_in_both_orders_match_dense_tally() {
        for seed in 0..16 {
            let (high, low): (Vec<u64>, Vec<u64>) =
                stream(seed, 300).into_iter().partition(|&v| v >= 1 << 20);
            let (mut a, mut da) = (Histogram::new(), Dense::new());
            let (mut b, mut db) = (Histogram::new(), Dense::new());
            record_both(&mut a, &mut da, &high);
            record_both(&mut b, &mut db, &low[..low.len() / 2]);
            record_both(&mut b, &mut db, &high[..high.len() / 3]);
            let (mut ab, mut ba) = (a.clone(), b.clone());
            ab.merge(&b);
            ba.merge(&a);
            da.merge(&db);
            assert_matches(&ab, &da);
            assert_matches(&ba, &da);
            assert_eq!(ab, ba);
            // Into and from an empty histogram.
            let mut empty = Histogram::new();
            empty.merge(&ab);
            assert_matches(&empty, &da);
            ab.merge(&Histogram::new());
            assert_matches(&ab, &da);
        }
    }

    #[test]
    fn reset_then_record_matches_dense_tally() {
        for seed in 0..16 {
            let values = stream(seed, 300);
            let (before, after) = values.split_at(150);
            let mut h = Histogram::new();
            for &v in before {
                h.record_nanos(v);
            }
            h.reset();
            assert_matches(&h, &Dense::new());
            assert_eq!(h, Histogram::new());
            let mut d = Dense::new();
            record_both(&mut h, &mut d, after);
            assert_matches(&h, &d);
            // Recorded into a window that kept the first half's octaves:
            // the same samples as a fresh histogram, whatever the windows.
            let mut fresh = Histogram::new();
            after.iter().for_each(|&v| fresh.record_nanos(v));
            assert_eq!(h, fresh);
        }
        // One sample, then another eight octaves lower: the windows differ.
        let mut h = Histogram::new();
        h.record_nanos(1 << 30);
        h.reset();
        h.record_nanos(1 << 22);
        let mut fresh = Histogram::new();
        fresh.record_nanos(1 << 22);
        assert_ne!(h.buckets.len(), fresh.buckets.len());
        assert_eq!(h, fresh);
    }

    #[test]
    fn decoded_histograms_match_dense_tally_and_keep_recording() {
        for seed in 0..16 {
            let values = stream(seed, 300);
            let (mut h, mut d) = (Histogram::new(), Dense::new());
            record_both(&mut h, &mut d, &values[..100]);
            let mut back = Histogram::decode(&h.encode()).expect("a valid image");
            assert_matches(&back, &d);
            // Samples below and above the decoded window grow it.
            record_both(&mut back, &mut d, &values[100..]);
            record_both(&mut back, &mut d, &[1, 1 << 41]);
            assert_matches(&back, &d);
        }
    }

    #[test]
    fn window_spans_only_the_recorded_octaves() {
        let mut h = Histogram::new();
        assert!(h.buckets.is_empty());
        let mut rng = SimRng::seed(7);
        for _ in 0..10_000 {
            h.record_nanos(50_000 + rng.below(20_000_000 - 50_000 + 1));
        }
        h.record_nanos(50_000);
        h.record_nanos(20_000_000);
        let bytes = h.buckets.len() * std::mem::size_of::<u64>();
        assert!(h.buckets.len() <= 10 * SUB_BUCKETS, "{bytes} B");
        assert!(bytes <= 5 << 10);
    }

    #[test]
    fn new_reserves_eight_octaves_and_a_wide_stream_regrows_once() {
        let mut h = Histogram::new();
        assert_eq!(h.buckets.capacity(), 512);
        let mut rooms = vec![512];
        let mut rng = SimRng::seed(7);
        for _ in 0..10_000 {
            h.record_nanos(50_000 + rng.below(20_000_000 - 50_000 + 1));
            if rooms.last() != Some(&h.buckets.capacity()) {
                rooms.push(h.buckets.capacity());
            }
        }
        // 50 us - 20 ms spans 10 octaves: one move into 16 octaves' room.
        assert_eq!(rooms, [512, 1024]);
    }

    #[test]
    fn a_clone_holds_its_window_until_its_first_growth_at_most_doubles_it() {
        let (mut h, mut d) = (Histogram::new(), Dense::new());
        record_both(&mut h, &mut d, &[50_000, 20_000_000]);
        let mut c = h.clone();
        let window = c.buckets.len();
        assert_eq!(c.buckets.capacity(), window);
        assert_matches(&c, &d);
        record_both(&mut c, &mut d, &[20_000]);
        assert!((window + 1..=2 * window).contains(&c.buckets.capacity()));
        assert_matches(&c, &d);
        record_both(&mut c, &mut d, &[1, 1 << 41]);
        assert_eq!(c.buckets.capacity(), BUCKET_COUNT);
        assert_matches(&c, &d);
    }

    #[test]
    fn decode_rejects_impossible_extremes() {
        let image = |count: u64, min: u64, max: u64, entries: &[(u32, u64)]| {
            let mut out = vec![1u8];
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&(u128::from(min.min(max)) * u128::from(count)).to_le_bytes());
            out.extend_from_slice(&min.to_le_bytes());
            out.extend_from_slice(&max.to_le_bytes());
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (i, c) in entries {
                out.extend_from_slice(&i.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
            Histogram::decode(&out)
        };
        let at = |v: u64| Histogram::index_for(v) as u32;
        assert_eq!(image(0, u64::MAX, 0, &[]), Some(Histogram::new()));
        assert!(image(1, 5, 5, &[(at(5), 1)]).is_some());
        // Empty, yet claiming a largest sample that never existed.
        assert_eq!(image(0, u64::MAX, 5, &[]), None);
        // Samples whose smallest exceeds their largest.
        assert_eq!(image(2, 90, 5, &[(at(5), 1), (at(90), 1)]), None);
    }

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
