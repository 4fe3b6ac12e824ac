//! Token arithmetic.
//!
//! The scheduler accounts I/O cost in *tokens*, where one token is the cost
//! of a 4KB random read under mixed load (paper §3.2.1). Tokens are kept as
//! signed fixed-point **millitokens** so that `C(read, r=100%) = ½` is exact
//! and LC tenants can run a bounded deficit (the paper's `NEG_LIMIT`).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

use reflex_sim::SimDuration;

/// A signed token amount in fixed-point millitokens.
///
/// # Examples
///
/// ```
/// use reflex_qos::Tokens;
///
/// let one = Tokens::from_tokens(1);
/// let half = Tokens::from_millitokens(500);
/// assert_eq!(one + half, Tokens::from_millitokens(1_500));
/// assert_eq!((one - one - half).as_tokens_f64(), -0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tokens(i64);

impl Tokens {
    /// Zero tokens.
    pub const ZERO: Tokens = Tokens(0);

    /// Creates an amount from whole tokens.
    pub const fn from_tokens(tokens: i64) -> Self {
        Tokens(tokens * 1_000)
    }

    /// Creates an amount from millitokens.
    pub const fn from_millitokens(mt: i64) -> Self {
        Tokens(mt)
    }

    /// The raw millitoken count.
    pub const fn as_millitokens(self) -> i64 {
        self.0
    }

    /// The amount in fractional tokens.
    pub fn as_tokens_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// `true` when strictly positive.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Clamps negative amounts to zero.
    pub fn max_zero(self) -> Tokens {
        Tokens(self.0.max(0))
    }

    /// Multiplies by a non-negative fraction, truncating to millitokens.
    pub fn mul_f64(self, f: f64) -> Tokens {
        debug_assert!(f >= 0.0);
        Tokens((self.0 as f64 * f) as i64)
    }
}

impl Add for Tokens {
    type Output = Tokens;
    fn add(self, rhs: Tokens) -> Tokens {
        Tokens(self.0 + rhs.0)
    }
}
impl AddAssign for Tokens {
    fn add_assign(&mut self, rhs: Tokens) {
        self.0 += rhs.0;
    }
}
impl Sub for Tokens {
    type Output = Tokens;
    fn sub(self, rhs: Tokens) -> Tokens {
        Tokens(self.0 - rhs.0)
    }
}
impl SubAssign for Tokens {
    fn sub_assign(&mut self, rhs: Tokens) {
        self.0 -= rhs.0;
    }
}
impl Neg for Tokens {
    type Output = Tokens;
    fn neg(self) -> Tokens {
        Tokens(-self.0)
    }
}
impl Sum for Tokens {
    fn sum<I: Iterator<Item = Tokens>>(iter: I) -> Tokens {
        Tokens(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for Tokens {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}tok", self.as_tokens_f64())
    }
}

/// A token generation rate in millitokens per second.
///
/// Generation over an elapsed interval is computed exactly with a
/// nanosecond-granularity remainder carried in [`TokenGen`], so no fraction
/// of a token is ever lost to rounding — scheduling rounds can be as short
/// as 0.5µs (paper §3.2.2) and typically generate well under one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TokenRate(u64);

impl TokenRate {
    /// Zero rate.
    pub const ZERO: TokenRate = TokenRate(0);

    /// Creates a rate of whole tokens per second.
    pub const fn per_sec(tokens: u64) -> Self {
        TokenRate(tokens * 1_000)
    }

    /// Creates a rate of millitokens per second.
    pub const fn millitokens_per_sec(mt: u64) -> Self {
        TokenRate(mt)
    }

    /// The rate in millitokens per second.
    pub const fn as_millitokens_per_sec(self) -> u64 {
        self.0
    }

    /// The rate in fractional tokens per second.
    pub fn as_tokens_per_sec_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Divides the rate into `n` equal shares (floor).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn share(self, n: u64) -> TokenRate {
        assert!(n > 0, "cannot share among zero tenants");
        TokenRate(self.0 / n)
    }
}

/// Exact token generation at a [`TokenRate`] with a carried remainder.
///
/// # Examples
///
/// ```
/// use reflex_qos::{TokenGen, TokenRate, Tokens};
/// use reflex_sim::SimDuration;
///
/// let mut gen = TokenGen::new();
/// let rate = TokenRate::per_sec(420_000);
/// // 1us at 420K tokens/s = 0.42 tokens = 420 millitokens.
/// let t = gen.generate(rate, SimDuration::from_micros(1));
/// assert_eq!(t, Tokens::from_millitokens(420));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenGen {
    /// Remainder in millitoken-nanoseconds (< 1e9).
    carry: u64,
}

impl TokenGen {
    /// Creates a generator with no carried remainder.
    pub fn new() -> Self {
        TokenGen::default()
    }

    /// Generates tokens for `elapsed` at `rate`, carrying the sub-millitoken
    /// remainder into the next call. Over any sequence of calls the total
    /// generated equals `rate × total_elapsed` exactly (within 1 mt).
    pub fn generate(&mut self, rate: TokenRate, elapsed: SimDuration) -> Tokens {
        self.accrue(rate.as_millitokens_per_sec() as u128 * elapsed.as_nanos() as u128)
    }

    /// Generates `floor((numer + carry) / 10⁹)` millitokens from `numer`
    /// millitoken-nanoseconds (a rate × elapsed product, or a sum of
    /// them) and carries the remainder. Quotients telescope: any split of
    /// a numerator over several calls yields the same total and the same
    /// final carry as one call on the sum, which is what lets a scheduler
    /// skip a tenant for many rounds and settle its income in one call.
    ///
    /// `numer + carry` is divided in `u64` whenever it fits — it always
    /// does at simulated rates and round lengths — and in `u128`
    /// otherwise; both are the same integer, so quotient and carry agree.
    pub(crate) fn accrue(&mut self, numer: u128) -> Tokens {
        const NS_PER_SEC: u64 = 1_000_000_000;
        let narrow = u64::try_from(numer)
            .ok()
            .and_then(|n| n.checked_add(self.carry));
        let (mt, carry) = match narrow {
            Some(numer) => (numer / NS_PER_SEC, numer % NS_PER_SEC),
            None => {
                let numer = numer + self.carry as u128;
                let per_sec = NS_PER_SEC as u128;
                ((numer / per_sec) as u64, (numer % per_sec) as u64)
            }
        };
        self.carry = carry;
        Tokens::from_millitokens(mt as i64)
    }

    /// The numerator [`accrue`](Self::accrue) still needs before it has
    /// generated `amount` (at least one millitoken) in total.
    pub(crate) fn numer_until(&self, amount: Tokens) -> u128 {
        debug_assert!(amount.is_positive());
        amount.as_millitokens() as u128 * 1_000_000_000 - self.carry as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The formula `generate` had before its `u64` path: always `u128`.
    fn generate_u128(carry: u64, rate: u64, ns: u64) -> (i64, u64) {
        let numer = rate as u128 * ns as u128 + carry as u128;
        (
            (numer / 1_000_000_000) as i64,
            (numer % 1_000_000_000) as u64,
        )
    }

    proptest! {
        /// Rates up to `u64::MAX / 2` mt/s over nanoseconds to seconds put
        /// `rate × elapsed + carry` on both sides of `u64::MAX`; quotient
        /// and carry must equal the `u128` formula's on either path.
        #[test]
        fn generation_matches_u128_formula_across_the_u64_boundary(
            // Shifts make the magnitudes log-uniform: up to 2^63 mt/s, up
            // to 2^33 ns (8.6 s).
            steps in prop::collection::vec(
                (any::<u64>(), 1u32..64, any::<u64>(), 31u32..64),
                1..40,
            ),
        ) {
            let mut gen = TokenGen::new();
            for (rate_raw, rate_shift, ns_raw, ns_shift) in steps {
                let (rate, ns) = (rate_raw >> rate_shift, ns_raw >> ns_shift);
                let (mt, carry) = generate_u128(gen.carry, rate, ns);
                let got = gen.generate(
                    TokenRate::millitokens_per_sec(rate),
                    SimDuration::from_nanos(ns),
                );
                prop_assert_eq!(got, Tokens::from_millitokens(mt));
                prop_assert_eq!(gen.carry, carry);
            }
        }
    }

    proptest! {
        /// Telescoping: numerators fed to `accrue` one by one or summed
        /// into runs of any lengths give the same total and leave the
        /// same carry as one call on their sum, with single numerators
        /// and sums on both sides of `u64::MAX`.
        #[test]
        fn any_split_of_a_numerator_sequence_accrues_the_same(
            start_carry in 0u64..1_000_000_000,
            parts in prop::collection::vec((any::<u64>(), 0u32..64, 1usize..6), 1..40),
        ) {
            let numers: Vec<u128> = parts
                .iter()
                .map(|&(raw, shift, _)| (raw >> shift) as u128 * 4)
                .collect();
            let mut whole = TokenGen { carry: start_carry };
            let total = whole.accrue(numers.iter().sum());

            let mut one_by_one = TokenGen { carry: start_carry };
            let singly: Tokens = numers.iter().map(|&n| one_by_one.accrue(n)).sum();
            prop_assert_eq!((singly, one_by_one), (total, whole));

            let mut in_runs = TokenGen { carry: start_carry };
            let (mut rest, mut grouped) = (&numers[..], Tokens::ZERO);
            for &(_, _, run) in &parts {
                let (head, tail) = rest.split_at(run.min(rest.len()));
                grouped += in_runs.accrue(head.iter().sum());
                rest = tail;
            }
            grouped += in_runs.accrue(rest.iter().sum());
            prop_assert_eq!((grouped, in_runs), (total, whole));
        }
    }

    #[test]
    fn numer_until_is_the_first_numerator_that_generates_the_amount() {
        let gen = TokenGen { carry: 999_999_999 };
        let need = gen.numer_until(Tokens::from_millitokens(3));
        assert_eq!(need, 2_000_000_001);
        assert_eq!({ gen }.accrue(need), Tokens::from_millitokens(3));
        assert_eq!({ gen }.accrue(need - 1), Tokens::from_millitokens(2));
    }

    #[test]
    fn generation_agrees_on_each_side_of_the_u64_boundary() {
        // 18 446 744 073 mt/s for one second leaves 709 551 615 below
        // u64::MAX: that carry is the last to fit, one more overflows.
        let (rate, ns) = (18_446_744_073u64, 1_000_000_000u64);
        let last_fit = u64::MAX - rate * ns;
        assert_eq!(last_fit, 709_551_615);
        for carry in [last_fit, last_fit + 1] {
            let fits = (rate * ns).checked_add(carry).is_some();
            assert_eq!(fits, carry == last_fit);
            let mut gen = TokenGen { carry };
            let got = gen.generate(
                TokenRate::millitokens_per_sec(rate),
                SimDuration::from_nanos(ns),
            );
            assert_eq!(got, Tokens::from_millitokens(18_446_744_073));
            assert_eq!(gen.carry, carry);
        }
    }

    #[test]
    fn token_arithmetic() {
        let a = Tokens::from_tokens(3);
        let b = Tokens::from_millitokens(500);
        assert_eq!(a + b, Tokens::from_millitokens(3_500));
        assert_eq!(a - b, Tokens::from_millitokens(2_500));
        assert_eq!(-b, Tokens::from_millitokens(-500));
        assert!(a.is_positive());
        assert!(!Tokens::ZERO.is_positive());
        assert_eq!((b - a).max_zero(), Tokens::ZERO);
        assert_eq!(a.min(b), b);
        assert_eq!(a.mul_f64(0.9), Tokens::from_millitokens(2_700));
    }

    #[test]
    fn token_sum_and_display() {
        let total: Tokens = [Tokens::from_tokens(1), Tokens::from_millitokens(250)]
            .into_iter()
            .sum();
        assert_eq!(total, Tokens::from_millitokens(1_250));
        assert_eq!(total.to_string(), "1.250tok");
    }

    #[test]
    fn rate_shares_and_subtraction() {
        let r = TokenRate::per_sec(420_000);
        assert_eq!(r.share(4), TokenRate::per_sec(105_000));
    }

    #[test]
    fn generation_is_exact_over_many_small_rounds() {
        // 1000 rounds of 700ns at 420K tokens/s = 0.7ms * 420K = 294 tokens.
        let mut gen = TokenGen::new();
        let rate = TokenRate::per_sec(420_000);
        let mut total = Tokens::ZERO;
        for _ in 0..1_000 {
            total += gen.generate(rate, SimDuration::from_nanos(700));
        }
        assert_eq!(total, Tokens::from_tokens(294));
    }

    #[test]
    fn generation_handles_fractional_millitokens() {
        // 1 token/s over 1ns rounds: each round generates 0 but the carry
        // accumulates; after 1e6 rounds (1ms) exactly 1 millitoken.
        let mut gen = TokenGen::new();
        let rate = TokenRate::per_sec(1);
        let mut total = Tokens::ZERO;
        for _ in 0..1_000_000 {
            total += gen.generate(rate, SimDuration::from_nanos(1));
        }
        assert_eq!(total, Tokens::from_millitokens(1));
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let mut gen = TokenGen::new();
        assert_eq!(
            gen.generate(TokenRate::ZERO, SimDuration::from_secs(100)),
            Tokens::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "zero tenants")]
    fn share_zero_panics() {
        let _ = TokenRate::per_sec(1).share(0);
    }
}
