//! Figure 4: tail latency vs throughput for 1KB read-only requests.
//!
//! Curves: Local (SPDK) with 1 and 2 threads, ReFlex with 1 and 2 server
//! cores, and the libaio+libevent server with 1 and 2 workers. ReFlex
//! reaches ~850K IOPS on one core and saturates the device with two;
//! libaio manages ~75K per core. Every point is a testbed under the same
//! load; Local's is the application on the server's own machine.
//!
//! Run: `reflex-bench fig4_throughput`

use crate::baselines::{libaio, local_spdk};
use crate::sweep::{PointOutcome, Sweep};
use crate::{max_p95_read_us, run_testbed, MEASURE, WARMUP};
use reflex_core::{ServerConfig, Testbed, TestbedBuilder, TestbedReport, WorkloadSpec};
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{TenantClass, TenantId};

/// Four tenants of 1KB reads offered `total_iops` between them, spread
/// over `machines` client machines.
fn load_specs(total_iops: f64, machines: usize) -> Vec<WorkloadSpec> {
    (0..4)
        .map(|i| {
            let mut spec = WorkloadSpec::open_loop(
                &format!("load{i}"),
                TenantId(i as u32 + 1),
                TenantClass::BestEffort,
                total_iops / 4.0,
            );
            spec.io_size = 1024;
            spec.conns = 48;
            spec.client_threads = 8;
            spec.client_machine = i % machines;
            spec
        })
        .collect()
}

/// Runs `offered` IOPS on `path` (client machines set).
fn point(path: TestbedBuilder, seed: u64, offered: f64, telemetry: bool) -> TestbedReport {
    let tb = path.seed(seed).build();
    let specs = load_specs(offered, tb.world().client_count());
    run_testbed(tb, specs, WARMUP, MEASURE, telemetry)
}

/// A remote server's testbed: four IX client machines (the paper's
/// testbed size) and a 40GbE link so the network never caps the 1KB
/// experiment (the paper notes the 10GbE bottleneck explicitly and uses
/// 1KB requests to stress server IOPS instead).
fn remote(server: TestbedBuilder) -> TestbedBuilder {
    server
        .client_machines(vec![StackProfile::ix_tcp(); 4])
        .link(LinkConfig::forty_gbe())
}

fn reflex(threads: u32) -> TestbedBuilder {
    remote(Testbed::builder().server(ServerConfig {
        threads,
        max_threads: threads,
        ..ServerConfig::default()
    }))
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Figure 4: p95 latency vs throughput, 1KB read-only\n\
         curve\toffered_kiops\tachieved_kiops\tp95_us\n",
    );
    let fracs = [0.2, 0.4, 0.6, 0.75, 0.9, 1.0, 1.1];
    type Path = fn(u32) -> TestbedBuilder;
    let curves: [(&str, u32, f64, Path, u64); 6] = [
        ("Local-1T", 1, 900_000.0, local_spdk, 34),
        ("Local-2T", 2, 1_150_000.0, local_spdk, 34),
        ("ReFlex-1T", 1, 900_000.0, reflex, 31),
        ("ReFlex-2T", 2, 1_150_000.0, reflex, 31),
        ("Libaio-1T", 1, 85_000.0, |w| remote(libaio(w)), 32),
        ("Libaio-2T", 2, 170_000.0, |w| remote(libaio(w)), 32),
    ];
    let telemetry = sweep.telemetry;
    for (name, threads, peak, path, seed) in curves {
        let curve = sweep.curve(name);
        curve.cutoff_p95_us(3_000.0);
        for frac in fracs {
            let offered = peak * frac;
            curve.point(move || {
                let report = point(path(threads), seed, offered, telemetry);
                let iops: f64 = report.workloads.iter().map(|w| w.iops).sum();
                let p95 = max_p95_read_us(&report);
                PointOutcome::new(p95)
                    .with_row(format!(
                        "{name}\t{:.0}\t{:.0}\t{p95:.0}",
                        offered / 1e3,
                        iops / 1e3
                    ))
                    .with_metric("offered_iops", offered)
                    .with_metric("achieved_iops", iops)
                    .with_events(&report)
                    .with_telemetry(report.telemetry)
            });
        }
    }
}
