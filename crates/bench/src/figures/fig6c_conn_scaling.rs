//! Figure 6c: TCP connection scaling on one ReFlex core.
//!
//! One tenant with N connections, each issuing 100 / 500 / 1000 1KB-read
//! IOPS. Throughput scales with connections until either the core's IOPS
//! ceiling or — beyond ~5K connections — the LLC no longer holds the TCP
//! connection state and per-request processing slows down.
//!
//! Run: `reflex-bench fig6c_conn_scaling`

use crate::run_testbed;
use crate::sweep::{PointOutcome, Sweep};
use reflex_core::{Testbed, WorkloadSpec};
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::SimDuration;

fn conn_point(per_conn: f64, conns: u32) -> PointOutcome {
    let offered = per_conn * conns as f64;
    let tb = Testbed::builder()
        .seed(71)
        .client_machines(vec![
            StackProfile::ix_tcp(),
            StackProfile::ix_tcp(),
            StackProfile::ix_tcp(),
            StackProfile::ix_tcp(),
        ])
        .link(LinkConfig::forty_gbe())
        .build();
    let mut spec = WorkloadSpec::open_loop("tenant", TenantId(1), TenantClass::BestEffort, offered);
    spec.io_size = 1024;
    spec.conns = conns;
    spec.client_threads = 16;
    let report = run_testbed(
        tb,
        vec![spec],
        SimDuration::from_millis(100),
        SimDuration::from_millis(300),
    );
    let w = report.workload("tenant");
    PointOutcome::new(w.p95_read_us())
        .with_row(format!(
            "{per_conn:.0}\t{conns}\t{:.0}\t{:.0}",
            offered / 1e3,
            w.iops / 1e3
        ))
        .with_metric("achieved_kiops", w.iops / 1e3)
        .with_events(&report)
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Figure 6c: connections for one tenant on one core (1KB reads)\n\
         iops_per_conn\tconns\toffered_kiops\tachieved_kiops\n",
    );
    for per_conn in [100.0f64, 500.0, 1_000.0] {
        let curve = sweep.curve(format!("{per_conn:.0}iops_per_conn"));
        for conns in [
            10u32, 50, 100, 250, 500, 850, 1_500, 2_500, 5_000, 7_500, 10_000,
        ] {
            // Skip points that are pure overkill (>2x core peak).
            if per_conn * conns as f64 > 1_800_000.0 {
                continue;
            }
            curve.point(move || conn_point(per_conn, conns));
        }
        sweep.text("\n");
    }
}
