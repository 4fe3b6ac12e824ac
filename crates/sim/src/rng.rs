//! Deterministic random-number generation for simulations.
//!
//! [`SimRng`] is xoshiro256++ (Blackman & Vigna) seeded through
//! splitmix64 — deterministic across platforms, which is all the
//! simulation needs — plus the sampling helpers the storage and network
//! models need: exponential inter-arrival gaps, lognormal service times,
//! bounded uniform draws, and a Zipfian key-popularity distribution for
//! key-value workloads.

use crate::time::SimDuration;
use crate::ziggurat;

/// A seeded, deterministic RNG with simulation-oriented sampling helpers.
///
/// Two `SimRng`s constructed with the same seed produce identical streams,
/// which keeps every experiment reproducible.
///
/// # Examples
///
/// ```
/// use reflex_sim::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    /// xoshiro256++ state.
    s: [u64; 4],
}

/// One step of splitmix64: the seeding generator xoshiro's authors
/// recommend, so that similar seeds give unrelated states.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: std::array::from_fn(|_| splitmix64(&mut sm)),
        }
    }

    /// Derives an independent child generator; used to give each component
    /// its own stream so adding draws in one place does not perturb others.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed(self.next_u64() ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Derives the `index`-th stream of a seed *without* consuming state
    /// from any parent generator.
    ///
    /// Unlike [`fork`](Self::fork), whose output depends on how many forks
    /// preceded it, `stream` is keyed purely by `(seed, index)`. Components
    /// with a stable identity (a client host, a tenant workload) should use
    /// their id as the index so their stream survives reordering of
    /// construction and never depends on what other components draw.
    pub fn stream(seed: u64, index: u64) -> SimRng {
        SimRng::seed(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index.wrapping_add(1)))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// Uniform integer in `[0, n)`: the high word of a widening
    /// multiply, unbiased enough for simulation without a reject loop.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// An exponentially distributed duration — the inter-arrival gap of
    /// a Poisson process.
    pub fn exponential(&mut self, dist: Exponential) -> SimDuration {
        SimDuration::from_micros_f64(dist.mean_us * self.standard_exponential())
    }

    /// A lognormally distributed duration. Service-time jitter in the
    /// device and stack models uses small sigmas (0.05–0.3).
    pub fn lognormal(&mut self, dist: LogNormal) -> SimDuration {
        let z = self.standard_normal();
        SimDuration::from_micros_f64(dist.median_us * (dist.sigma * z).exp())
    }

    /// Standard normal draw (128-layer ziggurat; tables in `ziggurat.rs`).
    ///
    /// One generator word decides a draw on the fast path: its low 7 bits
    /// pick the layer, its high 53 bits are the signed position across it.
    /// libm is called only from the wedge and tail branches (under 3 % of
    /// draws).
    pub fn standard_normal(&mut self) -> f64 {
        let t = &ziggurat::tables().normal;
        loop {
            let word = self.next_u64();
            let i = (word % ziggurat::NORMAL_LAYERS as u64) as usize;
            let x = (2.0 * unit(word) - 1.0) * t.x[i];
            if x.abs() < t.x[i + 1] {
                return x;
            }
            if i == 0 {
                // Marsaglia's tail: an exponential proposal beyond R,
                // thinned to the normal's shape. `1 - u` is in (0, 1].
                let tail = loop {
                    let d = -(1.0 - self.f64()).ln() / ziggurat::NORMAL_R;
                    if -2.0 * (1.0 - self.f64()).ln() > d * d {
                        break ziggurat::NORMAL_R + d;
                    }
                };
                return tail.copysign(x);
            }
            // The wedge between the layer's two edges: a uniform height
            // in the layer against the density.
            if t.f[i] + self.f64() * (t.f[i + 1] - t.f[i]) < ziggurat::normal_pdf(x) {
                return x;
            }
        }
    }

    /// Standard exponential draw (256-layer ziggurat): the normal's scheme
    /// with the low 8 bits as the layer and no sign. The tail beyond `R`
    /// is, by memorylessness, `R` plus a fresh draw.
    fn standard_exponential(&mut self) -> f64 {
        let t = &ziggurat::tables().exp;
        let mut base = 0.0;
        loop {
            let word = self.next_u64();
            let i = (word % ziggurat::EXP_LAYERS as u64) as usize;
            let x = unit(word) * t.x[i];
            if x < t.x[i + 1] {
                return base + x;
            }
            if i == 0 {
                base += ziggurat::EXP_R;
            } else if t.f[i] + self.f64() * (t.f[i + 1] - t.f[i]) < ziggurat::exp_pdf(x) {
                return base + x;
            }
        }
    }
}

/// A lognormal distribution prepared once for [`SimRng::lognormal`]: its
/// median in microseconds, and the underlying normal's sigma.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    median_us: f64,
    sigma: f64,
}

impl LogNormal {
    /// The lognormal with the given median and sigma.
    pub fn new(median: SimDuration, sigma: f64) -> Self {
        LogNormal {
            median_us: median.as_micros_f64(),
            sigma,
        }
    }
}

/// An exponential distribution prepared once for
/// [`SimRng::exponential`]: its mean in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean_us: f64,
}

impl Exponential {
    /// The exponential with the given mean.
    pub fn new(mean: SimDuration) -> Self {
        Exponential {
            mean_us: mean.as_micros_f64(),
        }
    }
}

/// The high 53 bits of a generator word as a uniform in `[0, 1)`.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Zipfian distribution over `[0, n)` with skew `theta`, using the
/// Gray et al. rejection-free approximation common in YCSB-style generators.
///
/// # Examples
///
/// ```
/// use reflex_sim::{SimRng, Zipf};
///
/// let mut rng = SimRng::seed(7);
/// let zipf = Zipf::new(1_000, 0.99);
/// let k = zipf.sample(&mut rng);
/// assert!(k < 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    /// `1 + 0.5^theta`: below it (in units of `1 / zetan`) a draw is rank 1.
    rank1_below: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a Zipfian distribution over `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty domain");
        assert!(
            (0.0..1.0).contains(&theta) && theta > 0.0,
            "theta must be in (0,1)"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            rank1_below: 1.0 + 0.5f64.powf(theta),
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; integral approximation for large n keeps
        // construction O(1)-ish without visible accuracy loss for sampling.
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let tail = ((n as f64).powf(1.0 - theta) - 10_000f64.powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_below {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator folded in from the `rand` shim draws what the shim
    /// drew: first words, `below`, `f64`, `stream` and `fork` as recorded
    /// before the fold.
    #[test]
    fn draws_are_the_shims() {
        let first = |seed| {
            let mut r = SimRng::seed(seed);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(
            first(0),
            [0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc]
        );
        assert_eq!(
            first(42),
            [0xd0764d4f4476689f, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c]
        );
        assert_eq!(
            first(u64::MAX),
            [0x56ccf8ce948e27b2, 0xe68588432e5a5b90, 0xe3e9b5a48119ca8b]
        );
        let mut r = SimRng::seed(7);
        let below: Vec<u64> = (0..6).map(|_| r.below(1000)).collect();
        assert_eq!(below, [55, 172, 717, 427, 963, 465]);
        let wide: Vec<u64> = (0..3).map(|_| r.below(u64::MAX)).collect();
        assert_eq!(
            wide,
            [
                13353728918970868607,
                6084463542373836071,
                18120654544720102364
            ]
        );
        let unit: Vec<u64> = (0..3).map(|_| r.f64().to_bits()).collect();
        assert_eq!(
            unit,
            [
                4589945074327601424,
                4592896369390868240,
                4595363825524192468
            ]
        );
        let mut s = SimRng::stream(42, 3);
        assert_eq!(
            [s.next_u64(), s.next_u64()],
            [0x2e1dcb83efb37d39, 0x6d71c9045053a89f]
        );
        assert_eq!(SimRng::seed(1).fork().next_u64(), 0xc5f316bcc9233142);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forked_streams_differ() {
        let mut a = SimRng::seed(1);
        let mut fork = a.fork();
        let xs: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..10).map(|_| fork.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed(2);
        let mean = SimDuration::from_micros(100);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| rng.exponential(Exponential::new(mean)).as_micros_f64())
            .sum();
        let avg = total / n as f64;
        assert!(
            (avg - 100.0).abs() < 3.0,
            "sample mean {avg} too far from 100"
        );
    }

    /// A prepared exponential draws what `mean.as_micros_f64() *
    /// standard_exponential()` drew, the division done per draw, bit for
    /// bit over 10^6 draws at each mean an arrival process or test uses.
    #[test]
    fn prepared_exponential_is_the_old_formula() {
        for (seed, mean_ns) in [
            (1, 1),
            (2, 999),
            (3, 1_000),
            (4, 2_353),
            (5, 50_000),
            (6, 7_777_777),
        ] {
            let mean = SimDuration::from_nanos(mean_ns);
            let dist = Exponential::new(mean);
            let (mut a, mut b) = (SimRng::seed(seed), SimRng::seed(seed));
            for _ in 0..1_000_000 {
                let old =
                    SimDuration::from_micros_f64(mean.as_micros_f64() * b.standard_exponential());
                assert_eq!(a.exponential(dist), old, "mean {mean:?}");
            }
        }
    }

    #[test]
    fn lognormal_median_is_close() {
        let mut rng = SimRng::seed(3);
        let median = SimDuration::from_micros(80);
        let mut xs: Vec<f64> = (0..10_001)
            .map(|_| rng.lognormal(LogNormal::new(median, 0.2)).as_micros_f64())
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let sample_median = xs[5_000];
        assert!((sample_median - 80.0).abs() < 2.0, "median {sample_median}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SimRng::seed(4);
        for _ in 0..1_000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = SimRng::seed(6);
        let z = Zipf::new(10_000, 0.99);
        let mut hits_top10 = 0u64;
        let n = 20_000;
        for _ in 0..n {
            let k = z.sample(&mut rng);
            assert!(k < 10_000);
            if k < 10 {
                hits_top10 += 1;
            }
        }
        // With theta=0.99 the top 10 of 10k keys should draw a large share.
        assert!(
            hits_top10 > n / 10,
            "zipf not skewed: {hits_top10}/{n} in top-10"
        );
    }

    /// `sample` used to evaluate `1.0 + 0.5f64.powf(theta)` on nearly every
    /// draw; the field computed once in `new` is that expression bit for
    /// bit, so every rank drawn is the one the old code drew.
    #[test]
    fn zipf_rank1_threshold_is_the_hoisted_expression() {
        for theta in [0.5, 0.9, 0.99] {
            let hoisted = Zipf::new(1 << 20, theta).rank1_below;
            assert_eq!(hoisted.to_bits(), (1.0 + 0.5f64.powf(theta)).to_bits());
        }
    }

    #[test]
    fn zipf_large_domain_construction() {
        let z = Zipf::new(100_000_000, 0.9);
        let mut rng = SimRng::seed(7);
        for _ in 0..100 {
            assert!(z.sample(&mut rng) < 100_000_000);
        }
    }
}
