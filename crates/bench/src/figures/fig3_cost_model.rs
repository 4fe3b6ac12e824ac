//! Figure 3: request cost models for devices A, B and C.
//!
//! p95 read latency versus *weighted* IOPS (tokens/s) for workloads with
//! various read ratios and request sizes. Under the per-device cost model
//! the curves collapse onto each other — the property the QoS scheduler
//! relies on. Also fits the linear model per device (paper §3.2.1) and
//! prints the calibrated constants next to the published ones.
//!
//! Run: `reflex-bench fig3_cost_model`

use std::io::Write;

use crate::claims::crossing;
use crate::sweep::{PointOutcome, Sweep, SweepResult};
use reflex_core::sweep_device_point;
use reflex_flash::{device_a, device_b, device_c, DeviceProfile};
use reflex_qos::{
    fit_cost_model, CalibrationError, CostModel, FittedCosts, LoadMix, RatioCapacity,
};
use reflex_sim::SimDuration;

fn weighted(model: &CostModel, read_pct: u8, io_size: u32, iops: f64, read_only: bool) -> f64 {
    let mix = if read_only {
        LoadMix::ReadOnly
    } else {
        LoadMix::Mixed
    };
    let r = read_pct as f64 / 100.0;
    let read_cost = model.read_cost(mix).as_tokens_f64();
    let write_cost = model.write_cost().as_tokens_f64();
    let pages = io_size.div_ceil(4096).max(1) as f64;
    iops * pages * (r * read_cost + (1.0 - r) * write_cost)
}

/// (read_pct, io_size) curves as in Figure 3.
const CURVES: [(u8, u32); 8] = [
    (100, 1024),
    (100, 32 * 1024),
    (100, 4096),
    (99, 4096),
    (95, 4096),
    (90, 4096),
    (75, 4096),
    (50, 4096),
];

fn curve_label(device: &str, read_pct: u8, io_size: u32) -> String {
    if io_size == 4096 {
        format!("{device}/{read_pct}%rd(4KB)")
    } else {
        format!("{device}/{read_pct}%rd({}KB)", io_size / 1024)
    }
}

fn add_device(sweep: &mut Sweep, profile: &DeviceProfile) {
    let model = CostModel::for_profile(profile);
    for (read_pct, io_size) in CURVES {
        let r = read_pct as f64 / 100.0;
        let pages = io_size.div_ceil(4096).max(1) as f64;
        let cost = pages * (r + (1.0 - r) * profile.write_cost_tokens());
        let bonus = if read_pct == 100 { 1.5 } else { 1.0 };
        let max_iops = profile.token_rate() / cost * bonus;
        // No cutoff here: the cost-model fit needs the full sweep, so the
        // serial harness's print-then-break rule is applied at print time.
        let curve = sweep.curve(curve_label(&profile.name, read_pct, io_size));
        let label = curve_label(&profile.name, read_pct, io_size);
        let label = label.split_once('/').expect("device prefix").1.to_string();
        for (k, i) in (1..=12).enumerate() {
            let iops = max_iops * i as f64 / 10.0;
            let profile = profile.clone();
            let model = model.clone();
            let label = label.clone();
            curve.point(move || {
                let (p, reads) = sweep_device_point(
                    &profile,
                    read_pct,
                    io_size,
                    iops,
                    SimDuration::from_millis(300),
                    13,
                    k,
                );
                let tokens = weighted(&model, read_pct, io_size, p.iops, read_pct == 100);
                PointOutcome::new((reads > 0).then_some(p.p95_read_us))
                    .with_row(format!(
                        "{label}\t{:.0}\t{:.0}",
                        tokens / 1e3,
                        p.p95_read_us
                    ))
                    .with_metric("iops", p.iops)
                    .with_metric("weighted_tokens", tokens)
                    .with_metric("reads", reads as f64)
            });
        }
    }
}

/// Device `device`'s linear cost model (§3.2.1), fitted through the p95 =
/// 1 ms crossing of each 4KB curve over its full sweep: the figure prints
/// it, the claims table reads it.
pub(crate) fn fit(result: &SweepResult, device: &str) -> Result<FittedCosts, CalibrationError> {
    let observations: Vec<RatioCapacity> = CURVES
        .iter()
        .filter(|&&(_, io_size)| io_size == 4096)
        .filter_map(|&(read_pct, io_size)| {
            let curve = result.find(&curve_label(device, read_pct, io_size))?;
            let max_iops = crossing(curve, "iops")?;
            Some(RatioCapacity { read_pct, max_iops })
        })
        .collect();
    fit_cost_model(&observations)
}

fn write_device(
    result: &SweepResult,
    profile: &DeviceProfile,
    published_write_cost: f64,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    writeln!(
        out,
        "# Device {} (published C(write) = {published_write_cost})\n\
         curve\tweighted_ktokens\tp95_read_us",
        profile.name
    )?;
    for (read_pct, io_size) in CURVES {
        let curve = result.curve(&curve_label(&profile.name, read_pct, io_size));
        for p in &curve.points {
            for row in &p.rows {
                writeln!(out, "{row}")?;
            }
            if p.p95_us.is_some_and(|p95| p95 > 5_000.0) {
                break;
            }
        }
    }
    match fit(result, &profile.name) {
        Ok(fit) => writeln!(
            out,
            "# fitted: C(write) = {:.1} tokens (published {published_write_cost}), \
             capacity = {:.0} tokens/s, C(read,100%) = {:.2}, rms {:.1}%",
            fit.write_cost,
            fit.token_rate,
            fit.read_only_cost,
            fit.rms_rel_error * 100.0
        )?,
        Err(e) => writeln!(out, "# fit failed: {e}")?,
    }
    writeln!(out)
}

/// The devices and their published write costs.
fn devices() -> [(DeviceProfile, f64); 3] {
    [(device_a(), 10.0), (device_b(), 20.0), (device_c(), 16.0)]
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    for (profile, _) in &devices() {
        add_device(sweep, profile);
    }
}

pub fn render(result: &SweepResult, out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
        "# Figure 3: latency vs weighted IOPS; curves should collapse per device"
    )?;
    for (profile, published) in &devices() {
        write_device(result, profile, *published, out)?;
    }
    Ok(())
}
