//! # reflex-bench — experiment harnesses
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index) plus Criterion microbenches. Every binary prints a
//! self-describing TSV so results can be diffed against EXPERIMENTS.md.
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig1_interference` | Figure 1: p95 read latency vs total IOPS per read ratio |
//! | `fig3_cost_model` | Figure 3: latency vs weighted IOPS for devices A/B/C |
//! | `tab2_unloaded_latency` | Table 2: unloaded 4KB latency, six configurations |
//! | `fig4_throughput` | Figure 4: latency vs 1KB IOPS, Local/ReFlex/libaio × 1-2 threads |
//! | `fig5_qos` | Figure 5: four tenants, scheduler on/off, scenarios 1-2 |
//! | `fig6a_core_scaling` | Figure 6a: LC/BE IOPS and token rate vs cores |
//! | `fig6b_tenant_scaling` | Figure 6b: IOPS vs tenant count per core |
//! | `fig6c_conn_scaling` | Figure 6c: IOPS vs connections at 3 per-conn rates |
//! | `fig7a_fio` | Figure 7a: FIO p95 latency vs throughput |
//! | `fig7b_flashx` | Figure 7b: FlashX slowdowns (WCC/PR/BFS/SCC) |
//! | `fig7c_rocksdb` | Figure 7c: RocksDB slowdowns (BL/RR/RwW) |
//! | `ablations` | design-choice sweeps: batching cap, NEG_LIMIT, donation |
//! | `chaos` | recovery under escalating injected faults (`--smoke` gates CI) |
//! | `fig_replication` | replication overlays (R=1/2/3), failover recovery, SLO violations |
//! | `fig_cache` | DRAM cache tier: hit rate vs read tail, connection-pressure relief |

#![warn(missing_docs)]

pub mod chaos;
pub mod recovery;
pub mod replication;
pub mod sweep;
pub mod telemetry;

use reflex_core::{ServerHarness, Testbed, TestbedReport, WorkloadSpec};
use reflex_sim::SimDuration;

/// Standard warmup used by the harnesses.
pub const WARMUP: SimDuration = SimDuration::from_millis(100);

/// Standard measurement window used by the harnesses.
pub const MEASURE: SimDuration = SimDuration::from_millis(400);

/// DRAM cache capacity requested via `REFLEX_CACHE` (in MiB; unset =
/// no override). `fig_cache` honors it by replacing its cache-size axis
/// with `{off, N MiB}`; harnesses whose scenario has no cache tier
/// (`ext_features`, `chaos`) print a one-line stderr note that the knob
/// is ignored — a silently-dropped knob would invalidate a comparison
/// without anyone noticing.
///
/// # Panics
///
/// Panics on non-numeric values (`0` and `off` mean "force the cache
/// off", mapped to `Some(0)`).
pub fn cache_env_mb() -> Option<u64> {
    let raw = std::env::var("REFLEX_CACHE").ok()?;
    if raw.is_empty() {
        return None;
    }
    if raw == "off" {
        return Some(0);
    }
    let mb: u64 = raw
        .parse()
        .unwrap_or_else(|_| panic!("invalid REFLEX_CACHE={raw:?} (expected MiB, 0, or off)"));
    Some(mb)
}

/// Prints the loud one-liner for harnesses that cannot honor
/// `REFLEX_CACHE` (their scenarios run server configurations the cache
/// tier is not part of).
pub fn note_cache_knob_ignored(harness: &str) {
    if let Some(mb) = cache_env_mb() {
        eprintln!(
            "reflex-bench: REFLEX_CACHE={mb} ignored by {harness} (its scenario has no \
             DRAM cache tier); see fig_cache for the cached figures"
        );
    }
}

/// Exits the process with a one-line stderr note if a removed
/// simulation-mode knob is still set: they used to change how a run
/// executed, there is one execution mode now, and a silently ignored knob
/// would invalidate a measurement.
pub(crate) fn reject_removed_sim_knobs() {
    let removed = ["REFLEX_SIM_SHARDS", "REFLEX_SIM_SPLIT", "REFLEX_SIM_PIN"];
    if let Some(knob) = removed.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!(
            "reflex-bench: {knob} is set but no longer exists (the simulator has one \
             execution mode); unset it"
        );
        std::process::exit(2);
    }
}

/// Adds `workloads` to a testbed, runs warmup + measurement, and reports
/// (after [rejecting](reject_removed_sim_knobs) removed knobs).
///
/// # Panics
///
/// Panics if any workload is rejected (harness configurations are
/// pre-validated).
pub fn run_testbed<S: ServerHarness + 'static>(
    mut tb: Testbed<S>,
    workloads: Vec<WorkloadSpec>,
    warmup: SimDuration,
    measure: SimDuration,
) -> TestbedReport {
    reject_removed_sim_knobs();
    if telemetry::enabled() {
        tb.enable_telemetry();
    }
    for spec in workloads {
        let name = spec.name.clone();
        tb.add_workload(spec)
            .unwrap_or_else(|e| panic!("workload {name} rejected: {e}"));
    }
    tb.run(warmup);
    tb.begin_measurement();
    tb.run(measure);
    let report = tb.report();
    if let Some(snapshot) = &report.telemetry {
        telemetry::merge(snapshot);
    }
    report
}

/// Worst p95 read latency (µs) across a report's workloads — the cutoff
/// metric used by most figure sweeps.
pub fn max_p95_read_us(report: &TestbedReport) -> f64 {
    report
        .workloads
        .iter()
        .map(reflex_core::WorkloadReport::p95_read_us)
        .fold(0.0f64, f64::max)
}

/// Worst p95 write latency (µs) across a report's workloads.
pub fn max_p95_write_us(report: &TestbedReport) -> f64 {
    report
        .workloads
        .iter()
        .map(reflex_core::WorkloadReport::p95_write_us)
        .fold(0.0f64, f64::max)
}
