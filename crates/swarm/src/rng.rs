//! The swarm's own tiny deterministic RNG.
//!
//! Everything the swarm generates — case shapes, fuzz buffers, shrink
//! candidates — derives from a [`SwarmRng`] seeded by the case's u64
//! seed, so a seed is a complete description of a run. splitmix64, the
//! same finalizer the fault plans use for stream decorrelation.

/// splitmix64 sequence generator.
#[derive(Debug, Clone)]
pub struct SwarmRng(u64);

impl SwarmRng {
    /// A generator whose whole future output is determined by `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        SwarmRng(seed)
    }

    /// Next raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// Uniform draw in the inclusive range.
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `percent / 100`.
    pub(crate) fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Picks one element of a non-empty slice.
    pub(crate) fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }
}
