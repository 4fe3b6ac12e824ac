//! Distribution oracle for `SimRng`'s ziggurat variates.
//!
//! The ziggurat and the Box–Muller / inverse-CDF generators it replaced
//! (`reference/`) are exact samplers of the same distributions, so no
//! draw can be compared with its predecessor — only the laws can. Every
//! check is fixed-seed, so a failure here is a change in the sampler, not
//! bad luck. Three planted mutations of `rng.rs` are on record as caught,
//! each planted in the normal and in the exponential draw in turn:
//!
//! * the wedge always accepts — `normal_shoulder_mass` (13 077 draws for
//!   11 843 +- 433), `exponential_shoulder_mass` (7 059 for 6 284 +- 316).
//!   KS and the percentiles miss the normal one: the sampler then draws
//!   from the staircase of layer tops, 1.2 % of mass misplaced but spread
//!   over every layer;
//! * the tail's sign dropped — `normal_tail_mass_per_sign`;
//! * `t.x[i + 1]` read for `t.x[i]` — `normal_ks_distance` (0.0040),
//!   `exponential_ks_distance` (0.0058), and both distributions' tail-mass
//!   and percentile checks.

// `reference::lognormal` is for the `variates` microbench.
#[allow(dead_code)]
mod reference;

use std::sync::OnceLock;

use reflex_flash::{device_a, device_b, device_c};
use reflex_net::StackProfile;
use reflex_sim::{Exponential, LogNormal, SimDuration, SimRng};

const DRAWS: usize = 1_000_000;
const ONE_SECOND: SimDuration = SimDuration::from_secs(1);

/// The rightmost layer edges of the two ziggurats (`ziggurat::NORMAL_R`,
/// `EXP_R`): a draw beyond one can only have come from the tail branch.
const NORMAL_R: f64 = 3.442_619_855_899;
const EXP_R: f64 = 7.697_117_470_131_05;

/// Kolmogorov–Smirnov critical distance at alpha = 1e-6 for 10^6 draws:
/// sqrt(-ln(alpha / 2) / 2n).
const KS_LIMIT: f64 = 0.0027;

struct Sample {
    sorted: Vec<f64>,
    reference: Vec<f64>,
    words_per_draw: f64,
}

/// `DRAWS` sorted draws of `draw` and of `reference` from the same seed,
/// and how many generator words one `draw` consumed on average.
fn sample(seed: u64, draw: fn(&mut SimRng) -> f64, reference: fn(&mut SimRng) -> f64) -> Sample {
    let sorted_draws = |rng: &mut SimRng, f: fn(&mut SimRng) -> f64| {
        let mut xs: Vec<f64> = (0..DRAWS).map(|_| f(rng)).collect();
        xs.sort_by(f64::total_cmp);
        xs
    };
    let mut rng = SimRng::seed(seed);
    let sorted = sorted_draws(&mut rng, draw);
    // Replay the raw stream until it lines up with the generator's state.
    let here = [rng.next_u64(), rng.next_u64()];
    let mut raw = SimRng::seed(seed);
    let mut window = [raw.next_u64(), raw.next_u64()];
    let mut words = 0usize;
    while window != here {
        window = [window[1], raw.next_u64()];
        words += 1;
        assert!(
            words < 4 * DRAWS,
            "generator state not found in its own stream"
        );
    }
    Sample {
        sorted,
        reference: sorted_draws(&mut SimRng::seed(seed), reference),
        words_per_draw: words as f64 / DRAWS as f64,
    }
}

fn normal() -> &'static Sample {
    static SAMPLE: OnceLock<Sample> = OnceLock::new();
    SAMPLE.get_or_init(|| sample(20, SimRng::standard_normal, reference::standard_normal))
}

/// Unit-mean exponentials through the public, nanosecond-rounded API.
fn exponential() -> &'static Sample {
    static SAMPLE: OnceLock<Sample> = OnceLock::new();
    SAMPLE.get_or_init(|| {
        sample(
            20,
            |rng| rng.exponential(Exponential::new(ONE_SECOND)).as_secs_f64(),
            |rng| reference::exponential(rng, ONE_SECOND).as_secs_f64(),
        )
    })
}

/// Complementary error function, fractional error below 1.2e-7
/// (Numerical Recipes' Chebyshev fit).
fn erfc(x: f64) -> f64 {
    const C: [f64; 10] = [
        -1.265_512_23,
        1.000_023_68,
        0.374_091_96,
        0.096_784_18,
        -0.186_288_06,
        0.278_868_07,
        -1.135_203_98,
        1.488_515_87,
        -0.822_152_23,
        0.170_872_77,
    ];
    let t = 1.0 / (1.0 + 0.5 * x.abs());
    let poly = C.iter().rev().fold(0.0, |acc, c| acc * t + c);
    let tail = t * (-x * x + poly).exp();
    if x >= 0.0 {
        tail
    } else {
        2.0 - tail
    }
}

fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Largest gap between the empirical CDF of `sorted` and `cdf`.
fn ks_distance(sorted: &[f64], cdf: fn(f64) -> f64) -> f64 {
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let f = cdf(x);
            (f - i as f64 / n).abs().max((f - (i + 1) as f64 / n).abs())
        })
        .fold(0.0, f64::max)
}

/// `count` successes in `DRAWS` trials is within four binomial standard
/// errors of probability `p`.
fn assert_mass(what: &str, count: usize, p: f64) {
    let expected = DRAWS as f64 * p;
    let se = (expected * (1.0 - p)).sqrt();
    assert!(
        (count as f64 - expected).abs() <= 4.0 * se,
        "{what}: {count} of {DRAWS} draws, expected {expected:.0} +- {:.0}",
        4.0 * se
    );
}

fn assert_percentiles_match(s: &Sample) {
    for pct in 1..100 {
        let at = pct * DRAWS / 100;
        let (got, want) = (s.sorted[at], s.reference[at]);
        assert!(
            (got - want).abs() < 0.03,
            "p{pct}: ziggurat {got:.4} vs reference {want:.4}"
        );
    }
}

#[test]
fn normal_ks_distance() {
    let d = ks_distance(&normal().sorted, normal_cdf);
    assert!(d < KS_LIMIT, "normal draws sit {d:.5} from the normal CDF");
}

#[test]
fn exponential_ks_distance() {
    let d = ks_distance(&exponential().sorted, |x| 1.0 - (-x).exp());
    assert!(
        d < KS_LIMIT,
        "exponential draws sit {d:.5} from 1 - exp(-x)"
    );
}

#[test]
fn normal_tail_mass_per_sign() {
    let xs = &normal().sorted;
    let below = xs.partition_point(|&x| x < -NORMAL_R);
    let above = DRAWS - xs.partition_point(|&x| x <= NORMAL_R);
    assert!(below > 0 && above > 0, "the tail branch never ran");
    let p = normal_cdf(-NORMAL_R);
    assert!((p / 2.88e-4 - 1.0).abs() < 0.01);
    assert_mass("normal tail below -R", below, p);
    assert_mass("normal tail above R", above, p);
}

#[test]
fn exponential_tail_mass() {
    let xs = &exponential().sorted;
    let above = DRAWS - xs.partition_point(|&x| x <= EXP_R);
    assert!(above > 0, "the tail branch never ran");
    let p = (-EXP_R).exp();
    assert!((p / 4.54e-4 - 1.0).abs() < 0.01);
    assert_mass("exponential tail above R", above, p);
    // Past the old clamp's reach in neither sample, but no longer capped.
    assert!(xs[DRAWS - 1] < 27.6 && xs[0] >= 0.0);
}

/// The last layers below `R` are where the staircase of layer tops stands
/// furthest above the density (up to 27 % near `R`), so a wedge test that
/// accepts too much shows here first: +10 % mass, ten standard errors,
/// with no wedge test at all — and under 0.001 of KS distance.
#[test]
fn normal_shoulder_mass() {
    let xs = &normal().sorted;
    let inside =
        |lo: f64, hi: f64| xs.partition_point(|&x| x <= hi) - xs.partition_point(|&x| x <= lo);
    let count = inside(-NORMAL_R, -2.5) + inside(2.5, NORMAL_R);
    assert_mass(
        "normal shoulder 2.5 < |z| <= R",
        count,
        2.0 * (normal_cdf(-2.5) - normal_cdf(-NORMAL_R)),
    );
}

#[test]
fn exponential_shoulder_mass() {
    let xs = &exponential().sorted;
    let count = xs.partition_point(|&x| x <= EXP_R) - xs.partition_point(|&x| x <= 5.0);
    assert_mass(
        "exponential shoulder 5 < x <= R",
        count,
        (-5.0f64).exp() - (-EXP_R).exp(),
    );
}

#[test]
fn normal_percentiles_match_reference() {
    assert_percentiles_match(normal());
}

#[test]
fn exponential_percentiles_match_reference() {
    assert_percentiles_match(exponential());
}

/// The "one word on the fast path" property: the rectangle test settles
/// about 97 of 100 draws with the word that picked the layer, and the rest
/// cost one or two more. Box–Muller takes 2.0.
#[test]
fn a_draw_takes_about_one_generator_word() {
    for (what, s) in [("normal", normal()), ("exponential", exponential())] {
        let w = s.words_per_draw;
        assert!((1.0..=1.08).contains(&w), "{w:.4} words per {what} draw");
    }
}

/// The median and sigma of every lognormal the shipped stack and device
/// profiles draw.
fn profile_lognormals() -> impl Iterator<Item = (SimDuration, f64)> {
    let stacks = [
        StackProfile::linux_tcp(),
        StackProfile::ix_tcp(),
        StackProfile::ix_udp(),
        StackProfile::dataplane_raw(),
        StackProfile::dataplane_raw_udp(),
    ];
    let devices = [device_a(), device_b(), device_c()];
    let pairs: Vec<_> = (stacks.iter())
        .flat_map(|s| [(s.tx_median, s.tx_sigma), (s.rx_median, s.rx_sigma)])
        .chain(devices.iter().flat_map(|d| {
            [
                (d.read_latency_median, d.read_latency_sigma),
                (d.write_buffer_median, d.write_buffer_sigma),
            ]
        }))
        .collect();
    pairs.into_iter()
}

/// Median and p95 of every lognormal the shipped profiles draw, against
/// `median` and `median * exp(1.645 sigma)`.
#[test]
fn lognormal_quantiles_match_closed_form() {
    const N: usize = 200_000;
    let mut rng = SimRng::seed(21);
    for (median, sigma) in profile_lognormals() {
        let dist = LogNormal::new(median, sigma);
        let mut ns: Vec<u64> = (0..N).map(|_| rng.lognormal(dist).as_nanos()).collect();
        ns.sort_unstable();
        for (what, at, z) in [("median", N / 2, 0.0), ("p95", N * 95 / 100, 1.644_853_627)] {
            let want = median.as_nanos() as f64 * (sigma * z).exp();
            // Five standard errors of a quantile this deep (in log space,
            // at most 2.2 sigma / sqrt N), plus the nanosecond rounding.
            let slack = want * 0.025 * sigma + 1.0;
            assert!(
                (ns[at] as f64 - want).abs() < slack,
                "lognormal({median:?}, {sigma}) {what}: {} ns vs {want:.1}",
                ns[at]
            );
        }
    }
}

/// A prepared lognormal draws what `median.as_micros_f64() * (sigma *
/// z).exp()` drew, the division done per draw, bit for bit over 10^6
/// draws at every shipped profile's median and sigma.
#[test]
fn prepared_lognormal_is_the_old_formula() {
    for (i, (median, sigma)) in profile_lognormals().enumerate() {
        let dist = LogNormal::new(median, sigma);
        let (mut a, mut b) = (SimRng::seed(i as u64), SimRng::seed(i as u64));
        for _ in 0..DRAWS {
            let z = b.standard_normal();
            let old = SimDuration::from_micros_f64(median.as_micros_f64() * (sigma * z).exp());
            assert_eq!(a.lognormal(dist), old, "lognormal({median:?}, {sigma})");
        }
    }
}
