//! Extensions beyond the paper's shipped system — the features its §4.1
//! limitations and §6 discussion call out as future work, measured:
//!
//! * **UDP transport**: unloaded latency and single-core throughput vs TCP.
//! * **Sharded tenants**: one tenant's throughput with 1 vs 2 shards.
//!
//! Run: `reflex-bench ext_features`

use std::io::Write;

use crate::run_testbed;
use crate::sweep::{PointOutcome, Sweep, SweepResult};
use reflex_core::{ServerConfig, Testbed, TestbedReport, WorkloadSpec};
use reflex_dataplane::DataplaneConfig;
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::SimDuration;

/// A point whose one metric is `value`, measured by `report`'s run.
fn value(value: f64, report: TestbedReport) -> PointOutcome {
    PointOutcome::new(None)
        .with_metric("value", value)
        .with_telemetry(report.telemetry)
}

fn unloaded(udp: bool, telemetry: bool) -> PointOutcome {
    let (client, server, dp) = tcp_udp_stacks(udp);
    let tb = Testbed::builder()
        .seed(121)
        .client_machines(vec![client])
        .server_stack(server)
        .server(ServerConfig {
            dataplane: dp,
            ..ServerConfig::default()
        })
        .build();
    let slo = SloSpec::new(20_000, 100, SimDuration::from_micros(500));
    let spec = WorkloadSpec::closed_loop("p", TenantId(1), TenantClass::LatencyCritical(slo), 1);
    let report = run_testbed(
        tb,
        vec![spec],
        SimDuration::from_millis(50),
        SimDuration::from_millis(300),
        telemetry,
    );
    value(report.workload("p").mean_read_us(), report)
}

fn peak(udp: bool, telemetry: bool) -> PointOutcome {
    let (client, server, dp) = tcp_udp_stacks(udp);
    let tb = Testbed::builder()
        .seed(122)
        .client_machines(vec![client.clone(), client])
        .server_stack(server)
        .server(ServerConfig {
            dataplane: dp,
            ..ServerConfig::default()
        })
        .link(LinkConfig::forty_gbe())
        .build();
    let specs = (0..2u32)
        .map(|i| {
            let mut spec = WorkloadSpec::open_loop(
                &format!("b{i}"),
                TenantId(i + 1),
                TenantClass::BestEffort,
                700_000.0,
            );
            spec.io_size = 1024;
            spec.conns = 64;
            spec.client_threads = 8;
            spec.client_machine = i as usize;
            spec
        })
        .collect();
    let report = run_testbed(
        tb,
        specs,
        SimDuration::from_millis(60),
        SimDuration::from_millis(150),
        telemetry,
    );
    value(report.workloads.iter().map(|w| w.iops).sum(), report)
}

fn sharded(shards: u32, telemetry: bool) -> PointOutcome {
    let tb = Testbed::builder()
        .seed(123)
        .server(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .client_machines(vec![StackProfile::ix_tcp(), StackProfile::ix_tcp()])
        .link(LinkConfig::forty_gbe())
        .build();
    let mut spec =
        WorkloadSpec::open_loop("big", TenantId(1), TenantClass::BestEffort, 1_200_000.0);
    spec.io_size = 1024;
    spec.conns = 64;
    spec.client_threads = 16;
    spec.shards = shards;
    let report = run_testbed(
        tb,
        vec![spec],
        SimDuration::from_millis(60),
        SimDuration::from_millis(150),
        telemetry,
    );
    value(report.workload("big").iops, report)
}

fn tcp_udp_stacks(udp: bool) -> (StackProfile, StackProfile, DataplaneConfig) {
    if udp {
        (
            StackProfile::ix_udp(),
            StackProfile::dataplane_raw_udp(),
            DataplaneConfig::udp(),
        )
    } else {
        (
            StackProfile::ix_tcp(),
            StackProfile::dataplane_raw(),
            DataplaneConfig::default(),
        )
    }
}

/// Declares the sweep: each of the six simulations is its own point; the
/// combined tcp=/udp= rows are assembled from point metrics at render.
pub fn build(sweep: &mut Sweep, _smoke: bool) {
    let telemetry = sweep.telemetry;
    let curve = sweep.curve("unloaded_read_us");
    for udp in [false, true] {
        curve.point(move || unloaded(udp, telemetry));
    }
    let curve = sweep.curve("one_core_1kb_iops");
    for udp in [false, true] {
        curve.point(move || peak(udp, telemetry));
    }
    let curve = sweep.curve("one_tenant_iops");
    for shards in [1u32, 2] {
        curve.point(move || sharded(shards, telemetry));
    }
}

/// Writes the TSV: the combined rows, assembled from the points' metrics.
pub fn render(result: &SweepResult, out: &mut dyn Write) -> std::io::Result<()> {
    let value = |curve: &str, idx: usize| {
        result.curve(curve).points[idx]
            .metric("value")
            .expect("value metric")
    };
    write!(
        out,
        "# Extension measurements (future-work features implemented)\n\
         ## UDP transport (paper: 'both tail latency and throughput will improve')\n\
         unloaded_read_us\ttcp={:.1}\tudp={:.1}\n\
         one_core_1kb_iops\ttcp={:.0}\tudp={:.0}\n\
         \n## Sharded tenants (paper §4.1 limitation removed)\n\
         one_tenant_iops\t1_shard={:.0}\t2_shards={:.0}\n",
        value("unloaded_read_us", 0),
        value("unloaded_read_us", 1),
        value("one_core_1kb_iops", 0),
        value("one_core_1kb_iops", 1),
        value("one_tenant_iops", 0),
        value("one_tenant_iops", 1)
    )
}
