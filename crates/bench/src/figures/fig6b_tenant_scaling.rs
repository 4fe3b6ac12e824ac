//! Figure 6b: tenant scaling — how many tenants can each ReFlex core
//! serve before tenant management limits throughput?
//!
//! Each tenant uses one connection issuing 100 1KB-read IOPS (paced).
//! With 1, 2 and 4 server cores, aggregate achieved IOPS should track the
//! offered load linearly until per-round tenant iteration saturates the
//! cores (paper: ~2,500 tenants per core).
//!
//! Run: `reflex-bench fig6b_tenant_scaling`

use crate::run_testbed;
use crate::sweep::{PointOutcome, Sweep};
use reflex_core::{ServerConfig, Testbed, WorkloadSpec};
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::SimDuration;

fn tenant_point(cores: u32, tenants: u32, telemetry: bool) -> PointOutcome {
    let tb = Testbed::builder()
        .seed(61)
        .server(ServerConfig {
            threads: cores,
            ..ServerConfig::default()
        })
        .client_machines(vec![StackProfile::ix_tcp(), StackProfile::ix_tcp()])
        .link(LinkConfig::forty_gbe())
        .build();
    let specs: Vec<WorkloadSpec> = (0..tenants)
        .map(|t| {
            let mut spec = WorkloadSpec::open_loop(
                &format!("t{t}"),
                TenantId(t + 1),
                TenantClass::BestEffort,
                100.0,
            );
            spec.io_size = 1024;
            spec.client_machine = (t % 2) as usize;
            spec
        })
        .collect();
    let report = run_testbed(
        tb,
        specs,
        SimDuration::from_millis(100),
        SimDuration::from_millis(300),
        telemetry,
    );
    let achieved: f64 = report.workloads.iter().map(|w| w.iops).sum();
    let busy = report
        .threads
        .iter()
        .map(|t| t.busy_fraction)
        .fold(0.0f64, f64::max);
    let offered = tenants as f64 * 100.0;
    PointOutcome::new(None)
        .with_row(format!(
            "{cores}\t{tenants}\t{:.0}\t{:.0}\t{busy:.2}",
            offered / 1e3,
            achieved / 1e3
        ))
        .with_metric("tenants", tenants.into())
        .with_metric("offered_kiops", offered / 1e3)
        .with_metric("achieved_kiops", achieved / 1e3)
        .with_metric("busy_frac", busy)
        .with_events(&report)
        .with_telemetry(report.telemetry)
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Figure 6b: tenants at 100 x 1KB-read IOPS each (1 conn per tenant)\n\
         cores\ttenants\toffered_kiops\tachieved_kiops\tbusy_frac\n",
    );
    let telemetry = sweep.telemetry;
    for cores in [1u32, 2, 4] {
        let curve = sweep.curve(format!("{cores}cores"));
        for tenants in [250u32, 500, 1_000, 2_000, 3_000, 4_500, 6_000] {
            // Keep the per-core tenant count meaningful: skip absurd points.
            if tenants / cores > 6_000 {
                continue;
            }
            curve.point(move || tenant_point(cores, tenants, telemetry));
        }
        sweep.text("\n");
    }
}
