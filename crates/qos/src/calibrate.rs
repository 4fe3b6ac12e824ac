//! Cost-model calibration (paper §3.2.1).
//!
//! The paper calibrates `C(I/O type, r)` per device by measuring tail
//! latency versus throughput for several read/write ratios and curve-fitting
//! a linear model. This module implements the pure fitting math; the control
//! plane (reflex-core) feeds it measured sweeps of the simulated device.

use crate::cost::CostModel;
use crate::tokens::Tokens;

/// One measured point of a latency-vs-load curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Offered load in I/O operations per second.
    pub iops: f64,
    /// Measured p95 read latency in microseconds.
    pub p95_read_us: f64,
}

/// The maximum IOPS a ratio sustains at a target tail latency, obtained by
/// linear interpolation along the measured sweep.
///
/// Returns `None` if even the lowest measured load misses the target.
pub fn max_iops_at_latency(sweep: &[SweepPoint], target_us: f64) -> Option<f64> {
    // Measured sweeps are noisy (GC-induced spikes can cross the target
    // transiently), so take the *last* upward crossing: the highest load
    // still under the bound before latency departs for good.
    let mut best: Option<f64> = None;
    for pair in sweep.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.p95_read_us <= target_us {
            best = Some(a.iops);
            if b.p95_read_us > target_us {
                let frac = (target_us - a.p95_read_us) / (b.p95_read_us - a.p95_read_us);
                best = Some(a.iops + frac * (b.iops - a.iops));
            }
        }
    }
    if let Some(last) = sweep.last() {
        if last.p95_read_us <= target_us {
            best = Some(last.iops);
        }
    }
    best
}

/// One per-ratio capacity observation: the max IOPS sustaining the target
/// latency for a given read percentage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioCapacity {
    /// Read percentage of the workload (0-100).
    pub read_pct: u8,
    /// Max sustainable IOPS at the calibration target latency.
    pub max_iops: f64,
}

/// Result of the linear cost-model fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedCosts {
    /// Fitted write cost in tokens (reads cost 1 by definition).
    pub write_cost: f64,
    /// Fitted device token capacity at the target latency, tokens/sec.
    pub token_rate: f64,
    /// Fitted read cost when the device load is read-only.
    pub read_only_cost: f64,
    /// Root-mean-square relative error of the fit over the mixed ratios.
    pub rms_rel_error: f64,
}

impl FittedCosts {
    /// Rounds the fit into a usable [`CostModel`] (millitoken resolution).
    pub fn to_cost_model(&self, page_size: u32) -> CostModel {
        CostModel::new(
            page_size,
            Tokens::from_tokens(1),
            Tokens::from_millitokens(((self.read_only_cost * 1000.0).round() as i64).max(1)),
            Tokens::from_millitokens(((self.write_cost * 1000.0).round() as i64).max(1)),
        )
    }
}

/// Error returned when a fit cannot be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalibrationError {
    /// Fewer than two mixed-ratio observations were supplied.
    NotEnoughRatios,
    /// Observations were degenerate (zero/negative capacity).
    DegenerateData,
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationError::NotEnoughRatios => {
                f.write_str("need at least two mixed read/write ratios to fit the model")
            }
            CalibrationError::DegenerateData => f.write_str("capacity observations degenerate"),
        }
    }
}

impl std::error::Error for CalibrationError {}

/// Fits the linear cost model from per-ratio capacities.
///
/// The model is `IOPS_r × (r·1 + (1−r)·C_w) = T` for mixed ratios
/// (`r < 100%`), solved for `C_w` and `T` by least squares on the linear
/// system `T/IOPS_r = r + (1−r)·C_w`. The read-only observation (if
/// present) then yields `C(read, 100%) = T / IOPS_100`.
///
/// # Errors
///
/// [`CalibrationError::NotEnoughRatios`] without two mixed ratios;
/// [`CalibrationError::DegenerateData`] for non-positive capacities.
pub fn fit_cost_model(observations: &[RatioCapacity]) -> Result<FittedCosts, CalibrationError> {
    let mixed: Vec<&RatioCapacity> = observations.iter().filter(|o| o.read_pct < 100).collect();
    if mixed.len() < 2 {
        return Err(CalibrationError::NotEnoughRatios);
    }
    if observations
        .iter()
        .any(|o| o.max_iops.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
    {
        return Err(CalibrationError::DegenerateData);
    }

    // Least squares over pairs: for ratios i, j,
    //   C_w = (IOPS_i·r_i − IOPS_j·r_j) / (IOPS_j·w_j − IOPS_i·w_i)
    // where w = 1 − r. Average estimates over all pairs weighted by the
    // write-fraction contrast (pairs with similar ratios are noisy).
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..mixed.len() {
        for j in (i + 1)..mixed.len() {
            let (a, b) = (mixed[i], mixed[j]);
            let ra = a.read_pct as f64 / 100.0;
            let rb = b.read_pct as f64 / 100.0;
            let (wa, wb) = (1.0 - ra, 1.0 - rb);
            let denom = b.max_iops * wb - a.max_iops * wa;
            if denom.abs() < 1e-9 {
                continue;
            }
            let est = (a.max_iops * ra - b.max_iops * rb) / denom;
            let weight = (wa - wb).abs();
            if est.is_finite() && est > 0.0 {
                num += est * weight;
                den += weight;
            }
        }
    }
    if den <= 0.0 {
        return Err(CalibrationError::DegenerateData);
    }
    let write_cost = num / den;

    // Token capacity: average of IOPS_r × cost-per-IO over mixed ratios.
    let mut t_sum = 0.0;
    for o in &mixed {
        let r = o.read_pct as f64 / 100.0;
        t_sum += o.max_iops * (r + (1.0 - r) * write_cost);
    }
    let token_rate = t_sum / mixed.len() as f64;

    // Fit quality.
    let mut sq = 0.0;
    for o in &mixed {
        let r = o.read_pct as f64 / 100.0;
        let predicted = token_rate / (r + (1.0 - r) * write_cost);
        let rel = (predicted - o.max_iops) / o.max_iops;
        sq += rel * rel;
    }
    let rms_rel_error = (sq / mixed.len() as f64).sqrt();

    // Read-only read cost from the r=100% observation (default 1.0).
    let read_only_cost = observations
        .iter()
        .find(|o| o.read_pct == 100)
        .map(|o| (token_rate / o.max_iops).min(1.0))
        .unwrap_or(1.0);

    Ok(FittedCosts {
        write_cost,
        token_rate,
        read_only_cost,
        rms_rel_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_synthetic_model() {
        // Perfect data generated from C_w = 10, T = 650K, RO cost 0.5.
        let obs: Vec<RatioCapacity> = [
            (50u8, 5.5f64),
            (75, 3.25),
            (90, 1.9),
            (95, 1.45),
            (99, 1.09),
        ]
        .iter()
        .map(|&(read_pct, cost)| RatioCapacity {
            read_pct,
            max_iops: 650_000.0 / cost,
        })
        .chain(std::iter::once(RatioCapacity {
            read_pct: 100,
            max_iops: 1_300_000.0,
        }))
        .collect();
        let fit = fit_cost_model(&obs).expect("fit succeeds");
        assert!(
            (fit.write_cost - 10.0).abs() < 0.2,
            "C_w = {}",
            fit.write_cost
        );
        assert!((fit.token_rate - 650_000.0).abs() / 650_000.0 < 0.02);
        assert!((fit.read_only_cost - 0.5).abs() < 0.02);
        assert!(fit.rms_rel_error < 0.01);
    }

    #[test]
    fn fit_tolerates_noise() {
        let noisy = [
            RatioCapacity {
                read_pct: 50,
                max_iops: 650_000.0 / 5.5 * 1.06,
            },
            RatioCapacity {
                read_pct: 75,
                max_iops: 650_000.0 / 3.25 * 0.95,
            },
            RatioCapacity {
                read_pct: 90,
                max_iops: 650_000.0 / 1.9 * 1.03,
            },
            RatioCapacity {
                read_pct: 99,
                max_iops: 650_000.0 / 1.09 * 0.97,
            },
        ];
        let fit = fit_cost_model(&noisy).expect("fit succeeds");
        assert!(
            (7.0..13.0).contains(&fit.write_cost),
            "C_w = {}",
            fit.write_cost
        );
        assert!(fit.rms_rel_error < 0.15);
    }

    #[test]
    fn fit_requires_two_mixed_ratios() {
        let one = [RatioCapacity {
            read_pct: 90,
            max_iops: 100_000.0,
        }];
        assert_eq!(fit_cost_model(&one), Err(CalibrationError::NotEnoughRatios));
        let ro_only = [
            RatioCapacity {
                read_pct: 100,
                max_iops: 1e6,
            },
            RatioCapacity {
                read_pct: 90,
                max_iops: 3e5,
            },
        ];
        assert_eq!(
            fit_cost_model(&ro_only),
            Err(CalibrationError::NotEnoughRatios)
        );
    }

    #[test]
    fn fit_rejects_degenerate() {
        let bad = [
            RatioCapacity {
                read_pct: 50,
                max_iops: 0.0,
            },
            RatioCapacity {
                read_pct: 90,
                max_iops: 1e5,
            },
        ];
        assert_eq!(fit_cost_model(&bad), Err(CalibrationError::DegenerateData));
    }

    #[test]
    fn interpolated_knee() {
        let sweep = [
            SweepPoint {
                iops: 100_000.0,
                p95_read_us: 200.0,
            },
            SweepPoint {
                iops: 200_000.0,
                p95_read_us: 400.0,
            },
            SweepPoint {
                iops: 300_000.0,
                p95_read_us: 1_200.0,
            },
        ];
        let knee = max_iops_at_latency(&sweep, 500.0).expect("crosses 500us");
        assert!((knee - 212_500.0).abs() < 1.0, "knee {knee}");
        // Target below the first point: no capacity.
        assert_eq!(max_iops_at_latency(&sweep, 100.0), None);
        // Target above all points: the last load sustains it.
        let knee = max_iops_at_latency(&sweep, 5_000.0).expect("all under");
        assert_eq!(knee, 300_000.0);
    }

    #[test]
    fn fitted_costs_round_into_cost_model() {
        let fit = FittedCosts {
            write_cost: 9.97,
            token_rate: 650_000.0,
            read_only_cost: 0.5004,
            rms_rel_error: 0.01,
        };
        let m = fit.to_cost_model(4096);
        assert_eq!(m.write_cost(), Tokens::from_millitokens(9_970));
        assert_eq!(
            m.read_cost(crate::cost::LoadMix::ReadOnly),
            Tokens::from_millitokens(500)
        );
    }
}
