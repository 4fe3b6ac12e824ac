//! Figure 1: the impact of interference on Flash performance.
//!
//! p95 read latency versus total IOPS for 4KB workloads with read ratios
//! from 50% to 100% on device A, measured directly against the simulated
//! device (local access, no network) exactly like the paper's device
//! characterization.
//!
//! Run: `reflex-bench fig1_interference`

use crate::sweep::{PointOutcome, Sweep};
use reflex_core::sweep_device_point;
use reflex_flash::device_a;
use reflex_sim::SimDuration;

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Figure 1: p95 read latency vs total IOPS (4KB, device A)\n\
         read_pct\ttotal_kiops\tp95_read_us\n",
    );
    let profile = device_a();
    for read_pct in [100u8, 99, 95, 90, 75, 50] {
        // Sweep up to just past each ratio's saturation point.
        let r = read_pct as f64 / 100.0;
        let cost = r + (1.0 - r) * profile.write_cost_tokens();
        let read_only_bonus = if read_pct == 100 { 1.55 } else { 1.0 };
        let max_iops = profile.token_rate() / cost * read_only_bonus;
        let curve = sweep.curve(format!("{read_pct}%rd"));
        curve.cutoff_p95_us(5_000.0); // past the knee; the paper's y-axis stops at 2ms
        for (k, i) in (1..=13).enumerate() {
            let iops = max_iops * i as f64 / 11.0;
            let profile = profile.clone();
            curve.point(move || {
                let (p, reads) = sweep_device_point(
                    &profile,
                    read_pct,
                    4096,
                    iops,
                    SimDuration::from_millis(400),
                    11,
                    k,
                );
                PointOutcome::new((reads > 0).then_some(p.p95_read_us))
                    .with_row(format!(
                        "{read_pct}\t{:.0}\t{:.0}",
                        p.iops / 1e3,
                        p.p95_read_us
                    ))
                    .with_metric("iops", p.iops)
                    .with_metric("reads", reads as f64)
            });
        }
    }
}
