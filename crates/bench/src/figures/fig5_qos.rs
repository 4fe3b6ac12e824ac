//! Figure 5: tail latency and IOPS for 4 tenants sharing a ReFlex server,
//! with the I/O scheduler disabled and enabled, in two scenarios.
//!
//! Tenants: A (LC, 120K IOPS, 100% reads), B (LC, 70K IOPS, 80% reads),
//! C (BE, 95% reads), D (BE, 25% reads); 4KB requests; both LC SLOs are
//! 500µs p95. Scenario 1: A and B use their full reservations. Scenario 2:
//! B issues only 45K IOPS, freeing tokens the BE tenants pick up.
//!
//! Run: `reflex-bench fig5_qos`

use crate::sweep::{PointOutcome, Sweep};
use crate::{run_testbed, MEASURE, WARMUP};
use reflex_core::{CapacityProfile, Testbed, WorkloadSpec};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::SimDuration;

fn tenant_specs(scenario: u8) -> Vec<WorkloadSpec> {
    let slo = |iops, read_pct| {
        TenantClass::LatencyCritical(SloSpec::new(iops, read_pct, SimDuration::from_micros(500)))
    };
    let b_offered = if scenario == 1 { 70_000.0 } else { 45_000.0 };
    let mut specs = Vec::new();

    let mut a = WorkloadSpec::open_loop("A", TenantId(1), slo(120_000, 100), 120_000.0);
    a.conns = 8;
    a.client_threads = 4;
    specs.push(a);

    let mut b = WorkloadSpec::open_loop("B", TenantId(2), slo(70_000, 80), b_offered);
    b.read_pct = 80;
    b.conns = 8;
    b.client_threads = 4;
    specs.push(b);

    // BE tenants run closed-loop: they consume whatever spare throughput
    // exists with bounded outstanding requests.
    let mut c = WorkloadSpec::closed_loop("C", TenantId(3), TenantClass::BestEffort, 16);
    c.read_pct = 95;
    c.conns = 8;
    c.client_threads = 4;
    specs.push(c);

    let mut d = WorkloadSpec::closed_loop("D", TenantId(4), TenantClass::BestEffort, 16);
    d.read_pct = 25;
    d.conns = 8;
    d.client_threads = 4;
    specs.push(d);
    specs
}

fn run(scenario: u8, qos: bool, telemetry: bool) -> PointOutcome {
    let mut builder = Testbed::builder().seed(41);
    if !qos {
        builder = builder.capacity(CapacityProfile::unlimited());
    }
    let tb = builder.build();
    let report = run_testbed(tb, tenant_specs(scenario), WARMUP, MEASURE, telemetry);
    let sched = if qos { "enabled" } else { "disabled" };
    let mut out = PointOutcome::new(crate::max_p95_read_us(&report))
        .with_events(&report)
        .with_metric("admitted", report.workloads.len() as f64);
    for w in &report.workloads {
        let qd_note = match w.name.as_str() {
            "C" | "D" => "closed-loop",
            _ => "open-loop",
        };
        out = out
            .with_row(format!(
                "{scenario}\t{sched}\t{}\t{:.0}\t{:.0}\t{qd_note}",
                w.name,
                w.iops / 1e3,
                w.p95_read_us()
            ))
            .with_metric(format!("{}_kiops", w.name), w.iops / 1e3)
            .with_metric(format!("{}_p95_us", w.name), w.p95_read_us());
    }
    out.with_telemetry(report.telemetry)
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Figure 5: 4 tenants sharing one ReFlex server (device A)\n\
         # LC SLOs: A=120K IOPS@100%r, B=70K@80%r, both p95<=500us\n\
         scenario\tsched\ttenant\tkiops\tp95_read_us\tload\n",
    );
    let telemetry = sweep.telemetry;
    for scenario in [1u8, 2] {
        for qos in [false, true] {
            let label = format!("s{scenario}/{}", if qos { "sched" } else { "nosched" });
            sweep.curve(label).point(move || run(scenario, qos, telemetry));
        }
        sweep.text("\n");
    }
}
