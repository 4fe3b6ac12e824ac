//! The variate generators `SimRng` shipped until the ziggurat replaced
//! them — Box–Muller normal, inverse-CDF exponential — kept verbatim as
//! the reference the distribution oracle (`tests/variates.rs`) and the
//! `variates` microbench compare against. Exact samplers of the same
//! distributions, so only the stream differs; they take two generator
//! words and two or three libm calls per normal, and their `max(1e-12)`
//! guards truncate |z| at 7.43 and gaps at 27.6 x mean.

use reflex_sim::{SimDuration, SimRng};

/// Exponentially distributed duration with the given mean.
pub fn exponential(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    // Inverse-CDF sampling; guard the log against u == 0.
    let u = rng.f64().max(1e-12);
    SimDuration::from_micros_f64(-mean.as_micros_f64() * u.ln())
}

/// Lognormally distributed duration parameterised by its median and the
/// underlying normal's sigma.
pub fn lognormal(rng: &mut SimRng, median: SimDuration, sigma: f64) -> SimDuration {
    let z = standard_normal(rng);
    SimDuration::from_micros_f64(median.as_micros_f64() * (sigma * z).exp())
}

/// Standard normal draw (Box–Muller).
pub fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = rng.f64().max(1e-12);
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}
