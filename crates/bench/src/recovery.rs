//! Shared recovery-time metric over 10 ms IOPS series.
//!
//! Both the chaos sweep (`figures/chaos.rs`) and the replication figure
//! (`figures/fig_replication.rs`) answer the same question — *how long after
//! an outage ended did throughput return to its pre-outage baseline?* —
//! so the definition lives here once and the two artifacts stay
//! comparable number-for-number.

use reflex_sim::{RatePoint, SimDuration, SimTime};

/// Time from `up_at` (an outage's end) until the first 10ms IOPS bucket
/// back at >= 90% of the pre-outage mean, in milliseconds. Buckets fully
/// before the outage form the baseline. Returns the remaining window
/// length if the series never recovers (pessimistic, keeps the metric
/// finite and deterministic), and `-1.0` when there is no pre-outage
/// baseline to recover to.
pub fn recovery_ms(series: &[RatePoint], up_at: SimTime) -> f64 {
    let baseline: Vec<f64> = series
        .iter()
        .filter(|p| p.at + SimDuration::from_millis(10) <= up_at)
        .map(|p| p.rate_per_sec)
        .collect();
    if baseline.is_empty() {
        return -1.0;
    }
    let mean = baseline.iter().sum::<f64>() / baseline.len() as f64;
    for p in series.iter().filter(|p| p.at >= up_at) {
        if p.rate_per_sec >= 0.9 * mean {
            return p.at.saturating_since(up_at).as_micros_f64() / 1_000.0;
        }
    }
    series.last().map_or(-1.0, |p| {
        p.at.saturating_since(up_at).as_micros_f64() / 1_000.0
    })
}

/// Per-outage recovery times for a series that saw several scheduled
/// outages, in `up_ats` order. Outages the series cannot answer (no
/// pre-outage baseline) are dropped.
pub fn recovery_times(series: &[RatePoint], up_ats: &[SimTime]) -> Vec<f64> {
    up_ats
        .iter()
        .map(|&t| recovery_ms(series, t))
        .filter(|&r| r >= 0.0)
        .collect()
}

/// Mean recovery time, or `-1.0` when no outage was measured.
pub fn mean_ms(times: &[f64]) -> f64 {
    if times.is_empty() {
        return -1.0;
    }
    times.iter().sum::<f64>() / times.len() as f64
}

/// Nearest-rank p95 recovery time, or `-1.0` when no outage was
/// measured. For a single outage this equals the outage's recovery time,
/// so single-outage points report `p95 == mean`.
pub fn p95_ms(times: &[f64]) -> f64 {
    if times.is_empty() {
        return -1.0;
    }
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((0.95 * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(at_ms: u64, rate: f64) -> RatePoint {
        RatePoint {
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            count: rate as u64 / 100,
            rate_per_sec: rate,
        }
    }

    #[test]
    fn recovers_at_first_bucket_back_over_ninety_pct() {
        // Baseline 1000, outage ends at 30ms, dip then recovery at 50ms.
        let series = vec![
            pt(0, 1000.0),
            pt(10, 1000.0),
            pt(20, 100.0),
            pt(30, 200.0),
            pt(40, 500.0),
            pt(50, 950.0),
        ];
        let up = SimTime::ZERO + SimDuration::from_millis(30);
        assert_eq!(recovery_ms(&series, up), 20.0);
    }

    #[test]
    fn never_recovering_reports_remaining_window() {
        let series = vec![pt(0, 1000.0), pt(10, 1000.0), pt(50, 100.0)];
        let up = SimTime::ZERO + SimDuration::from_millis(30);
        assert_eq!(recovery_ms(&series, up), 20.0);
    }

    #[test]
    fn no_baseline_is_unanswerable() {
        let series = vec![pt(0, 1000.0)];
        assert_eq!(recovery_ms(&series, SimTime::ZERO), -1.0);
        assert!(recovery_times(&series, &[SimTime::ZERO]).is_empty());
        assert_eq!(mean_ms(&[]), -1.0);
        assert_eq!(p95_ms(&[]), -1.0);
    }

    #[test]
    fn multi_outage_mean_and_p95() {
        let times = vec![10.0, 20.0, 30.0];
        assert_eq!(mean_ms(&times), 20.0);
        // Nearest rank: ceil(0.95 * 3) = 3 -> the worst outage.
        assert_eq!(p95_ms(&times), 30.0);
        // A single outage reports p95 == mean.
        assert_eq!(p95_ms(&[12.5]), 12.5);
        assert_eq!(mean_ms(&[12.5]), 12.5);
    }

    #[test]
    fn p95_is_nearest_rank_not_max() {
        let times: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p95_ms(&times), 95.0);
    }
}
