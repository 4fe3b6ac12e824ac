//! Where do the "+21µs over local Flash" go? (paper Figure 2 / Table 2)
//!
//! Decomposes the unloaded remote read path into its stages — client
//! stack (ingress), request fabric, NIC batching wait, RX processing,
//! QoS scheduling wait, device, completion, response egress — from the
//! shared telemetry spans the testbed records on every component,
//! comparing low load against heavy load (where batching and queueing
//! appear). Each stage reports count, mean, p50, p95 and p99 from the
//! same log-bucketed histograms every harness uses.
//!
//! Run: `reflex-bench latency_breakdown`

use crate::run_testbed;
use crate::sweep::{PointOutcome, Sweep};
use reflex_core::{Testbed, WorkloadSpec};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::SimDuration;
use reflex_telemetry::{Stage, TenantKey};

/// `(stage, tenant key, TSV label)` — the request path in traversal
/// order. Fabric stages are recorded per direction, not per tenant, so
/// they sit under the global key.
const PATH: &[(Stage, TenantKey, &str)] = &[
    (Stage::Ingress, TenantKey(1), "client_ingress"),
    (Stage::Fabric, TenantKey::GLOBAL, "request_fabric"),
    (Stage::NicQueue, TenantKey(1), "nic_batch_wait"),
    (Stage::Dataplane, TenantKey(1), "rx_processing"),
    (Stage::FlashSq, TenantKey(1), "qos_sched_wait"),
    (Stage::Channel, TenantKey(1), "flash_device"),
    (Stage::Cq, TenantKey(1), "completion_tx"),
    (Stage::Egress, TenantKey::GLOBAL, "response_egress"),
];

fn breakdown_point(label: &str, offered: f64, telemetry: bool) -> PointOutcome {
    let slo = SloSpec::new(450_000, 100, SimDuration::from_millis(2));
    let mut spec = WorkloadSpec::open_loop(
        "app",
        TenantId(1),
        TenantClass::LatencyCritical(slo),
        offered,
    );
    spec.io_size = 1024;
    spec.conns = 32;
    spec.client_threads = 8;
    let tb = Testbed::builder().seed(131).build();
    let ms = SimDuration::from_millis;
    // Spans are recorded passively, so instrumenting the run does not
    // shift the latencies it decomposes.
    let report = run_testbed(tb, vec![spec], ms(50), ms(200), true);
    let Some(w) = report.workloads.first() else {
        // Admission refused the tenant: nothing ran, and the claims'
        // `admitted` row says so.
        return PointOutcome::new(None)
            .with_row(format!("\n## {label} ({offered:.0} IOPS offered, refused)"))
            .with_metric("admitted", 0.0)
            .with_events(&report);
    };
    let snapshot = report.telemetry.as_ref().expect("telemetry enabled");
    let mut point = PointOutcome::new(w.p95_read_us())
        .with_row(format!(
            "\n## {label} ({offered:.0} IOPS offered, {:.0} achieved)",
            w.iops
        ))
        .with_row("stage\tcount\tmean_us\tp50_us\tp95_us\tp99_us");
    let mut server_mean = 0.0f64;
    for &(stage, tenant, name) in PATH {
        let Some(h) = snapshot.stage(tenant, stage) else {
            continue;
        };
        point = point
            .with_row(format!(
                "{name}\t{}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
                h.count(),
                h.mean().as_micros_f64(),
                h.p50().as_micros_f64(),
                h.p95().as_micros_f64(),
                h.p99().as_micros_f64(),
            ))
            .with_metric(format!("{name}_mean_us"), h.mean().as_micros_f64())
            .with_metric(format!("{name}_p95_us"), h.p95().as_micros_f64());
        if tenant == TenantKey(1) && stage != Stage::Ingress {
            server_mean += h.mean().as_micros_f64();
        }
    }
    point
        .with_row(format!(
            "end_to_end\t{}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
            w.read_latency.count(),
            w.mean_read_us(),
            w.read_latency.p50().as_micros_f64(),
            w.p95_read_us(),
            w.read_latency.p99().as_micros_f64(),
        ))
        .with_row(format!("server_stages_mean_sum\t-\t{server_mean:.1}"))
        .with_metric("admitted", 1.0)
        .with_metric("achieved_iops", w.iops)
        .with_metric("end_to_end_mean_us", w.mean_read_us())
        .with_metric("server_stages_mean_us", server_mean)
        .with_events(&report)
        .with_telemetry(report.telemetry.filter(|_| telemetry))
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text("# Server-side latency decomposition (Figure 2 stages)\n");
    let points = [
        ("unloaded", 20_000.0f64),
        ("mid-load", 400_000.0),
        ("near-peak", 800_000.0),
    ];
    let telemetry = sweep.telemetry;
    let curve = sweep.curve("breakdown");
    for (label, offered) in points {
        curve.point(move || breakdown_point(label, offered, telemetry));
    }
}
