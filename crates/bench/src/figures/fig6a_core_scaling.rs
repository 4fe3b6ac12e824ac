//! Figure 6a: multi-core scaling of the QoS scheduler.
//!
//! From 0 to 12 cores: each core serves one LC tenant (20K IOPS, 90%
//! reads, 2ms p95 SLO); two cores additionally serve one BE tenant each
//! (80% reads, closed loop). LC throughput must scale linearly with cores
//! while BE throughput shrinks (rate-limited to the leftover tokens) and
//! total token usage stays pinned at the device capacity for the 2ms SLO.
//!
//! Run: `reflex-bench fig6a_core_scaling`

use crate::sweep::{PointOutcome, Sweep};
use crate::{run_testbed, MEASURE, WARMUP};
use reflex_core::{ServerConfig, Testbed, WorkloadSpec};
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::SimDuration;

fn core_point(cores: u32) -> PointOutcome {
    let threads = cores.max(2); // BE tenants always run on 2 threads
    let tb = Testbed::builder()
        .seed(51)
        .server(ServerConfig {
            threads,
            max_threads: threads,
            ..ServerConfig::default()
        })
        .client_machines(vec![
            StackProfile::ix_tcp(),
            StackProfile::ix_tcp(),
            StackProfile::ix_tcp(),
        ])
        .link(LinkConfig::forty_gbe())
        .build();

    let mut specs = Vec::new();
    for i in 0..cores {
        let slo = SloSpec::new(20_000, 90, SimDuration::from_millis(2));
        let mut spec = WorkloadSpec::open_loop(
            &format!("lc{i}"),
            TenantId(i + 1),
            TenantClass::LatencyCritical(slo),
            20_000.0,
        );
        spec.read_pct = 90;
        spec.conns = 4;
        spec.client_threads = 2;
        spec.client_machine = (i % 3) as usize;
        specs.push(spec);
    }
    for j in 0..2u32 {
        let mut spec = WorkloadSpec::closed_loop(
            &format!("be{j}"),
            TenantId(100 + j),
            TenantClass::BestEffort,
            32,
        );
        spec.read_pct = 80;
        spec.conns = 8;
        spec.client_threads = 4;
        spec.client_machine = j as usize;
        specs.push(spec);
    }

    let report = run_testbed(tb, specs, WARMUP, MEASURE);
    let lc: f64 = report
        .workloads
        .iter()
        .filter(|w| w.name.starts_with("lc"))
        .map(|w| w.iops)
        .sum();
    let be: f64 = report
        .workloads
        .iter()
        .filter(|w| w.name.starts_with("be"))
        .map(|w| w.iops)
        .sum();
    let max_p95 = report
        .workloads
        .iter()
        .filter(|w| w.name.starts_with("lc"))
        .map(|w| w.p95_read_us())
        .fold(0.0f64, f64::max);
    PointOutcome::new(max_p95)
        .with_row(format!(
            "{cores}\t{:.0}\t{:.0}\t{:.0}\t{max_p95:.0}",
            lc / 1e3,
            be / 1e3,
            report.token_usage_per_sec / 1e3
        ))
        .with_metric("lc_kiops", lc / 1e3)
        .with_metric("be_kiops", be / 1e3)
        .with_metric("token_usage_ktokens_s", report.token_usage_per_sec / 1e3)
        .with_events(&report)
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Figure 6a: scaling LC tenants across cores (2ms SLO, 90% read)\n\
         cores\tlc_kiops\tbe_kiops\ttoken_usage_ktokens_s\tmax_lc_p95_us\n",
    );
    let curve = sweep.curve("core_scaling");
    for cores in 0..=12u32 {
        curve.point(move || core_point(cores));
    }
}
