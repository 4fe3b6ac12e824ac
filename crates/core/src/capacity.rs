//! Device token-capacity tables.
//!
//! The control plane needs to know the maximum weighted-IOPS (token) rate a
//! device sustains at a given p95 read-latency bound — that is what the
//! scheduler's token generation is capped to (paper §3.2.2: "the scheduler
//! generates tokens at a rate equal to the maximum weighted IOPS the Flash
//! device can support at a given tail latency SLO"). A [`CapacityProfile`]
//! is a monotone table of (p95 bound → tokens/sec) points with linear
//! interpolation, taken from the built-in calibration of the three paper
//! devices; a unit test holds device A's table within 0.5-2x of what a
//! [`sweep_device`] of the simulated device measures.

use reflex_flash::{CmdId, DeviceProfile, FlashDevice, IoType, NvmeCommand, NvmeCompletion};
use reflex_qos::{SweepPoint, TokenRate};
use reflex_sim::{Exponential, Histogram, SimDuration, SimRng, SimTime};

/// Monotone (latency bound → token capacity) table for one device.
///
/// # Examples
///
/// ```
/// use reflex_core::CapacityProfile;
/// use reflex_sim::SimDuration;
///
/// let cap = CapacityProfile::device_a_default();
/// let at_500us = cap.tokens_per_sec_at(SimDuration::from_micros(500));
/// // The simulated device A sustains ~330K tokens/s at a 500us p95 SLO
/// // (the paper's physical device: 420K).
/// assert!((300_000.0..360_000.0).contains(&at_500us));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityProfile {
    /// (p95 bound in µs, tokens/sec) points, strictly increasing in both.
    points: Vec<(f64, f64)>,
}

impl CapacityProfile {
    /// Builds a profile from (p95 µs, tokens/s) points.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given or they are not strictly
    /// increasing in latency and non-decreasing in capacity.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "need at least two capacity points");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "latency bounds must increase");
            assert!(w[0].1 <= w[1].1, "capacity cannot shrink with looser SLOs");
        }
        CapacityProfile { points }
    }

    /// The calibrated table for the *simulated* device A, measured with
    /// [`sweep_device`] at 90% reads and held 13-14% below the measured
    /// knee so operating at capacity keeps p95 inside the bound. The
    /// paper's physical device A supported 420K tokens/s at 500µs and
    /// ~570K at 2ms; the simulated device lands at ~380K/~540K — same
    /// shape. The claims table carries the difference as known deviations
    /// (`fig6a_core_scaling/tokens`, fig5's best-effort shares).
    pub fn device_a_default() -> Self {
        CapacityProfile::new(vec![
            (200.0, 170_000.0),
            (500.0, 330_000.0),
            (1_000.0, 420_000.0),
            (2_000.0, 465_000.0),
            (5_000.0, 505_000.0),
            (20_000.0, 540_000.0),
        ])
    }

    /// Calibrated table for the simulated device B (write cost 20).
    pub(crate) fn device_b_default() -> Self {
        CapacityProfile::new(vec![
            (200.0, 75_000.0),
            (500.0, 175_000.0),
            (1_000.0, 210_000.0),
            (2_000.0, 228_000.0),
            (5_000.0, 240_000.0),
            (20_000.0, 255_000.0),
        ])
    }

    /// Calibrated table for the simulated device C (write cost 16).
    pub(crate) fn device_c_default() -> Self {
        CapacityProfile::new(vec![
            (200.0, 85_000.0),
            (500.0, 285_000.0),
            (1_000.0, 315_000.0),
            (2_000.0, 350_000.0),
            (5_000.0, 435_000.0),
            (20_000.0, 470_000.0),
        ])
    }

    /// An effectively unlimited capacity table — used to emulate running
    /// with the QoS scheduler disabled (tokens never run out, admission
    /// always passes), the "I/O sched disabled" configuration of Figure 5.
    pub fn unlimited() -> Self {
        CapacityProfile::new(vec![(1.0, 1e12), (1e9, 1e12)])
    }

    /// Picks the default table matching a device profile's name.
    /// Unknown profiles fall back to a conservative scaling of device A's
    /// shape by relative token rate.
    pub fn for_profile(profile: &DeviceProfile) -> Self {
        match profile.name.as_str() {
            "device-a" => Self::device_a_default(),
            "device-b" => Self::device_b_default(),
            "device-c" => Self::device_c_default(),
            _ => {
                let scale = profile.token_rate() / 650_000.0;
                // Unknown devices: scale the device-A shape by token rate.
                let base = Self::device_a_default();
                CapacityProfile::new(base.points.iter().map(|&(l, c)| (l, c * scale)).collect())
            }
        }
    }

    /// Token capacity (tokens/sec) at a p95 read-latency bound, linearly
    /// interpolated; clamps to the table's ends.
    pub fn tokens_per_sec_at(&self, p95_bound: SimDuration) -> f64 {
        let x = p95_bound.as_micros_f64();
        let first = self.points.first().expect("validated non-empty");
        if x <= first.0 {
            return first.1;
        }
        for w in self.points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if x <= x1 {
                let f = (x - x0) / (x1 - x0);
                return y0 + f * (y1 - y0);
            }
        }
        self.points.last().expect("validated non-empty").1
    }

    /// The device's maximum (most relaxed) token capacity.
    pub fn max_rate(&self) -> TokenRate {
        TokenRate::millitokens_per_sec(
            (self.points.last().expect("validated non-empty").1 * 1_000.0) as u64,
        )
    }

    /// The underlying table.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

/// Sweeps a *local* simulated device (no network) with an open-loop 4KB
/// workload at the given read percentage, returning (offered IOPS, p95 read
/// latency) points — the §3.2.1 calibration measurement.
///
/// `duration` is the measured window per point (a 100ms warmup is added).
pub fn sweep_device(
    profile: &DeviceProfile,
    read_pct: u8,
    offered_iops: &[f64],
    duration: SimDuration,
    seed: u64,
) -> Vec<SweepPoint> {
    offered_iops
        .iter()
        .enumerate()
        .map(|(k, &iops)| sweep_device_point(profile, read_pct, 4096, iops, duration, seed, k).0)
        .collect()
}

/// One point of a device sweep at any request size (Figure 3 also plots
/// 1KB and 32KB curves): measures a single offered load, and counts the
/// reads its p95 was taken over (none: the p95 reads 0).
///
/// `k` is the point's index within the sweep; it perturbs the seed exactly
/// like the batch call does, so sweeping point-by-point (e.g. from a
/// parallel harness) reproduces the batch results bit-for-bit.
pub fn sweep_device_point(
    profile: &DeviceProfile,
    read_pct: u8,
    io_size: u32,
    iops: f64,
    duration: SimDuration,
    seed: u64,
    k: usize,
) -> (SweepPoint, u64) {
    let mut sweep_profile = profile.clone();
    sweep_profile.sq_depth = 1 << 20; // open loop keeps issuing past saturation
    let mut dev = FlashDevice::new(sweep_profile, SimRng::seed(seed ^ (k as u64) << 16));
    dev.precondition();
    let qp = dev.create_queue_pair();
    let mut rng = SimRng::seed(seed.wrapping_mul(31) ^ k as u64);
    let warmup = SimTime::from_millis(100);
    let end = warmup + duration;
    let gap = Exponential::new(SimDuration::from_secs_f64(1.0 / iops));
    let mut now = SimTime::ZERO;
    // Issue instants by command id: ids are handed out in sequence.
    let mut issued: Vec<SimTime> = Vec::new();
    let mut hist = Histogram::new();
    let mut done = Vec::new();
    // Every read issued after the warmup counts, whenever it completes.
    let mut record = |done: &[NvmeCompletion], issued: &[SimTime]| {
        for c in done {
            let at = issued[c.id.0 as usize];
            if c.op == IoType::Read && at >= warmup {
                hist.record(c.completed_at.saturating_since(at));
            }
        }
    };
    while now < end {
        now += rng.exponential(gap);
        let addr = dev.random_page_addr();
        let id = CmdId(issued.len() as u64);
        let cmd = if rng.below(100) < read_pct as u64 {
            NvmeCommand::read(id, addr, io_size)
        } else {
            NvmeCommand::write(id, addr, io_size)
        };
        issued.push(now);
        dev.poll_completions_into(now, qp, usize::MAX, &mut done);
        record(&done, &issued);
        dev.submit(now, qp, cmd).expect("sq deep enough for sweep");
    }
    dev.poll_completions_into(SimTime::from_secs(120), qp, usize::MAX, &mut done);
    record(&done, &issued);
    let point = SweepPoint {
        iops,
        p95_read_us: hist.p95().as_micros_f64(),
    };
    (point, hist.count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use reflex_flash::device_a;
    use reflex_qos::max_iops_at_latency;

    #[test]
    fn interpolation_is_monotone_and_clamped() {
        let cap = CapacityProfile::device_a_default();
        let mut prev = 0.0;
        for us in [50u64, 200, 350, 500, 750, 1_000, 2_000, 10_000, 50_000] {
            let v = cap.tokens_per_sec_at(SimDuration::from_micros(us));
            assert!(v >= prev, "capacity must be monotone in the bound");
            prev = v;
        }
        assert_eq!(
            cap.tokens_per_sec_at(SimDuration::from_micros(1)),
            cap.points()[0].1
        );
        assert_eq!(
            cap.tokens_per_sec_at(SimDuration::from_secs(10)),
            cap.points().last().unwrap().1
        );
    }

    #[test]
    fn calibrated_values_match_measured_device() {
        // The simulated device A's measured capacity (paper's physical
        // device: 420K@500us, 570K@2ms — see EXPERIMENTS.md).
        let cap = CapacityProfile::device_a_default();
        let v500 = cap.tokens_per_sec_at(SimDuration::from_micros(500));
        assert_eq!(v500, 330_000.0);
        let v2ms = cap.tokens_per_sec_at(SimDuration::from_millis(2));
        assert_eq!(v2ms, 465_000.0);
    }

    #[test]
    #[should_panic(expected = "latency bounds must increase")]
    fn unsorted_points_rejected() {
        let _ = CapacityProfile::new(vec![(500.0, 1.0), (200.0, 2.0)]);
    }

    #[test]
    fn sweep_produces_rising_latency() {
        let pts = sweep_device(
            &device_a(),
            100,
            &[100_000.0, 900_000.0],
            SimDuration::from_millis(150),
            7,
        );
        assert_eq!(pts.len(), 2);
        assert!(pts[1].p95_read_us > pts[0].p95_read_us);
    }

    /// A point polls the device as it issues, and those completions count:
    /// while they were dropped, the p95 came from the reads still in flight
    /// when arrivals stopped — a handful at low load (a jagged curve), at
    /// times none at all (p95 = 0).
    #[test]
    fn sweep_keeps_every_completion() {
        let profile = device_a();
        let max_iops = profile.token_rate() / (0.9 + 0.1 * profile.write_cost_tokens());
        let offered: Vec<f64> = (1..=12).map(|i| max_iops * i as f64 / 10.0).collect();
        let pts = sweep_device(&profile, 90, &offered, SimDuration::from_millis(150), 11);
        for w in pts.windows(2) {
            assert!(w[0].p95_read_us > 0.0, "no read measured at {:?}", w[0]);
            assert!(
                w[1].p95_read_us >= 0.9 * w[0].p95_read_us,
                "p95 falls from {:?} to {:?}",
                w[0],
                w[1]
            );
        }
    }

    /// Measures a fresh [`CapacityProfile`] for a device by sweeping a 90%-read
    /// workload and reading off the token capacity at each latency bound via
    /// the cost model's per-IO cost, as the paper's control plane
    /// recalibrates (§4.3).
    fn calibrate_capacity(
        profile: &DeviceProfile,
        write_cost_tokens: f64,
        latency_bounds_us: &[f64],
        seed: u64,
    ) -> CapacityProfile {
        let read_pct = 90u8;
        let r = 0.9;
        let cost_per_io = r + (1.0 - r) * write_cost_tokens;
        let max_tokens = profile.token_rate();
        let offered: Vec<f64> = (1..=14)
            .map(|i| max_tokens / cost_per_io * (i as f64) / 12.0)
            .collect();
        let sweep = sweep_device(
            profile,
            read_pct,
            &offered,
            SimDuration::from_millis(300),
            seed,
        );
        let mut points = Vec::new();
        let mut last_cap = 0.0f64;
        for &bound in latency_bounds_us {
            let iops = max_iops_at_latency(&sweep, bound).unwrap_or(offered[0] * 0.5);
            let cap = (iops * cost_per_io).max(last_cap + 1.0);
            points.push((bound, cap));
            last_cap = cap;
        }
        CapacityProfile::new(points)
    }

    #[test]
    fn calibration_lands_near_builtin_table() {
        let cap = calibrate_capacity(&device_a(), 10.0, &[500.0, 2_000.0], 3);
        let measured_500 = cap.tokens_per_sec_at(SimDuration::from_micros(500));
        let builtin_500 =
            CapacityProfile::device_a_default().tokens_per_sec_at(SimDuration::from_micros(500));
        let ratio = measured_500 / builtin_500;
        assert!(
            (0.5..2.0).contains(&ratio),
            "measured {measured_500} vs builtin {builtin_500}"
        );
    }
}
