//! Ziggurat tables for [`SimRng`](crate::SimRng)'s normal and exponential
//! variates (Marsaglia–Tsang, in the layout of Doornik's ZIGNOR).
//!
//! A density `f` that falls from `f(0) = 1` is covered by `N` horizontal
//! layers of equal area `V`. Layer `i` reaches out to `x[i]` and the one
//! above it to `x[i + 1] < x[i]`, so a point drawn uniformly in `[0, x[i])`
//! that lands below `x[i + 1]` is under the curve whatever its height —
//! the draw's fast path, which needs no height and no libm. Layer 0 is the
//! base strip: a rectangle out to `R = x[1]` plus the whole tail beyond it,
//! widened to `x[0] = V / f(R)` so it is picked as often as the rest.
//! `f[i]` is `f(x[i])`, the floor of layer `i`, for the wedge test.

use std::sync::OnceLock;

/// Layers, rightmost edge `R` and layer area `V` of the half-normal
/// `exp(-x²/2)` (Doornik's `ZIGNOR_*`) and of `exp(-x)` (Marsaglia–Tsang's
/// 256-layer `de`/`ve`). `R` and `V` close the construction: built from
/// them, the top layer ends at `f = 1` (checked in this file's test).
pub(crate) const NORMAL_LAYERS: usize = 128;
pub(crate) const NORMAL_R: f64 = 3.442_619_855_899;
const NORMAL_V: f64 = 9.912_563_035_262_17e-3;
pub(crate) const EXP_LAYERS: usize = 256;
pub(crate) const EXP_R: f64 = 7.697_117_470_131_05;
const EXP_V: f64 = 3.949_659_822_581_572e-3;

/// The two densities, scaled to `f(0) = 1`.
pub(crate) fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

pub(crate) fn exp_pdf(x: f64) -> f64 {
    (-x).exp()
}

/// The layer edges and floors of one density; `M` is its layers plus one.
pub(crate) struct Layers<const M: usize> {
    pub(crate) x: [f64; M],
    pub(crate) f: [f64; M],
}

impl<const M: usize> Layers<M> {
    /// Stacks equal-area layers from the base up: layer `i`'s floor plus
    /// `V / x[i]` is its ceiling, and `inv` (the inverse of `pdf`) finds
    /// where the curve crosses it.
    fn build(r: f64, v: f64, pdf: fn(f64) -> f64, inv: fn(f64) -> f64) -> Self {
        let (mut x, mut f) = ([0.0; M], [1.0; M]);
        (x[0], x[1]) = (v / pdf(r), r);
        (f[0], f[1]) = (pdf(x[0]), pdf(r));
        for i in 2..M - 1 {
            x[i] = inv(f[i - 1] + v / x[i - 1]);
            f[i] = pdf(x[i]);
        }
        Layers { x, f }
    }
}

pub(crate) struct Tables {
    pub(crate) normal: Layers<{ NORMAL_LAYERS + 1 }>,
    pub(crate) exp: Layers<{ EXP_LAYERS + 1 }>,
}

/// Both tables, built on first use — the only libm calls a fast-path draw
/// ever causes.
pub(crate) fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| Tables {
        normal: Layers::build(NORMAL_R, NORMAL_V, normal_pdf, |y| (-2.0 * y.ln()).sqrt()),
        exp: Layers::build(EXP_R, EXP_V, exp_pdf, |y| -y.ln()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recomputes what the tables must satisfy from the density alone:
    /// edges fall to zero, floors rise to one, every layer has area `V`
    /// (the top one included, which is what pins `R` against `V`), and so
    /// has the base strip, its tail integrated numerically (Simpson). The
    /// published `R`s carry 13 and 15 digits, so areas agree to 1e-8.
    fn check<const M: usize>(t: &Layers<M>, r: f64, v: f64, pdf: fn(f64) -> f64) {
        assert_eq!((t.x[1], t.x[M - 1], t.f[M - 1]), (r, 0.0, 1.0));
        for i in 1..M - 1 {
            assert!(t.x[i + 1] < t.x[i] && t.f[i] < t.f[i + 1], "layer {i}");
            assert_eq!(t.f[i], pdf(t.x[i]));
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!((area / v - 1.0).abs() < 1e-8, "layer {i} has area {area}");
        }
        let (steps, h) = (200_000, 40.0 / 200_000.0);
        let simpson = |k: usize| {
            if k == 0 || k == steps {
                1.0
            } else {
                2.0 + 2.0 * (k % 2) as f64
            }
        };
        let tail: f64 = (0..=steps)
            .map(|k| simpson(k) * pdf(r + k as f64 * h))
            .sum();
        let base = r * pdf(r) + tail * h / 3.0;
        assert!((base / v - 1.0).abs() < 1e-8, "base strip {base} vs {v}");
        assert!((t.x[0] * pdf(r) / v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn layers_have_equal_area_and_close_at_the_mode() {
        let t = tables();
        check(&t.normal, NORMAL_R, NORMAL_V, normal_pdf);
        check(&t.exp, EXP_R, EXP_V, exp_pdf);
    }
}
