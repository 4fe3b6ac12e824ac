//! # reflex-bench — experiment harnesses
//!
//! One binary, `reflex-bench`, regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md's experiment index); Criterion
//! microbenches sit beside it. Every figure prints a self-describing TSV,
//! and every run is held to its rows of the [`claims`] table.
//!
//! `reflex-bench <figure>… [--smoke]` runs the named figures, `--all` the
//! ones marked `all` below (the `experiments_output.txt` transcript), and
//! `--list` prints this table from [`FIGURES`]:
//!
//! ```text
//! fig1_interference      all        Figure 1: p95 read latency vs total IOPS per read ratio
//! fig3_cost_model        all        Figure 3: latency vs weighted IOPS for devices A/B/C
//! tab2_unloaded_latency  all        Table 2: unloaded 4KB latency, six configurations
//! fig4_throughput        all        Figure 4: latency vs 1KB IOPS, Local/ReFlex/libaio x 1-2 threads
//! fig5_qos               all        Figure 5: four tenants, scheduler on/off, scenarios 1-2
//! fig6a_core_scaling     all        Figure 6a: LC/BE IOPS and token rate vs cores
//! fig6b_tenant_scaling   all        Figure 6b: IOPS vs tenant count per core
//! fig6c_conn_scaling     all        Figure 6c: IOPS vs connections at 3 per-conn rates
//! fig7a_fio              all        Figure 7a: FIO p95 latency vs throughput
//! fig7b_flashx           all        Figure 7b: FlashX slowdowns (WCC/PR/BFS/SCC)
//! fig7c_rocksdb          all        Figure 7c: RocksDB slowdowns (BL/RR/RwW)
//! latency_breakdown      all        Figure 2 stages: where the unloaded remote read's microseconds go
//! ablations              all        design-choice sweeps: batching cap, NEG_LIMIT, donation, cost model
//! ext_features           all        extensions: UDP transport, sharded tenants
//! fig_cache              all smoke  DRAM cache tier: hit rate vs read tail, connection-pressure relief
//! chaos                      smoke  recovery under escalating injected faults (--smoke gates CI)
//! fig_replication            smoke  replication overlays (R=1/2/3), failover recovery, SLO violations
//! ```

#![warn(missing_docs)]

pub mod claims;
pub mod figures;
mod recovery;
pub mod sweep;

pub use figures::{figure, Figure, FIGURES};

use reflex_core::{ServerHarness, Testbed, TestbedError, TestbedReport, WorkloadSpec};
use reflex_sim::SimDuration;

/// Standard warmup used by the harnesses.
pub const WARMUP: SimDuration = SimDuration::from_millis(100);

/// Standard measurement window used by the harnesses.
pub const MEASURE: SimDuration = SimDuration::from_millis(400);

/// Adds `workloads` to a testbed, runs warmup + measurement, and reports.
/// With `telemetry` set the testbed records it, and the report carries
/// the snapshot for the point to hand on to its sweep. A workload that
/// admission control refuses runs no IO and is missing from the report:
/// the device's capacity decides that, and the figure's claims see it.
///
/// # Panics
///
/// Panics if a workload is rejected otherwise (harness configurations
/// are pre-validated).
pub fn run_testbed<S: ServerHarness + 'static>(
    mut tb: Testbed<S>,
    workloads: Vec<WorkloadSpec>,
    warmup: SimDuration,
    measure: SimDuration,
    telemetry: bool,
) -> TestbedReport {
    if telemetry {
        tb.enable_telemetry();
    }
    for spec in workloads {
        let name = spec.name.clone();
        match tb.add_workload(spec) {
            Ok(()) | Err(TestbedError::Admission(_)) => {}
            Err(e) => panic!("workload {name} rejected: {e}"),
        }
    }
    tb.run(warmup);
    tb.begin_measurement();
    tb.run(measure);
    tb.report()
}

/// Worst p95 read latency (µs) across a report's workloads — the cutoff
/// metric used by most figure sweeps.
pub(crate) fn max_p95_read_us(report: &TestbedReport) -> f64 {
    report
        .workloads
        .iter()
        .map(reflex_core::WorkloadReport::p95_read_us)
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reflex_qos::{SloSpec, TenantClass, TenantId};

    #[test]
    fn a_workload_admission_refuses_is_left_out_of_the_run() {
        // 80K IOPS at 80 % reads reserves 224K tokens/s of device A's 330K
        // at 500 µs: the first fits, the second does not.
        let spec = |name, tenant| {
            let slo = SloSpec::new(80_000, 80, SimDuration::from_micros(500));
            let class = TenantClass::LatencyCritical(slo);
            let mut spec = WorkloadSpec::open_loop(name, TenantId(tenant), class, 10_000.0);
            spec.read_pct = 80;
            spec
        };
        let tb = Testbed::builder().seed(7).build();
        let ms = SimDuration::from_millis;
        let report = run_testbed(tb, vec![spec("a", 1), spec("b", 2)], ms(1), ms(5), false);
        let names: Vec<&str> = report.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ["a"]);
        assert!(report.workload("a").iops > 0.0);
    }
}
