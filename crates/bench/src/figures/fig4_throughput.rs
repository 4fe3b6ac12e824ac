//! Figure 4: tail latency vs throughput for 1KB read-only requests.
//!
//! Curves: Local (SPDK) with 1 and 2 threads, ReFlex with 1 and 2 server
//! cores, and the libaio+libevent server with 1 and 2 workers. ReFlex
//! reaches ~850K IOPS on one core and saturates the device with two;
//! libaio manages ~75K per core.
//!
//! Run: `reflex-bench fig4_throughput`

use crate::baselines::libaio;
use crate::sweep::{Execution, PointOutcome, Sweep};
use crate::{max_p95_read_us, run_testbed, MEASURE, WARMUP};
use reflex_core::{LocalRig, ServerConfig, Testbed, TestbedBuilder, WorkloadSpec};
use reflex_flash::device_a;
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{TenantClass, TenantId};
use reflex_telemetry::TelemetrySnapshot;

fn load_specs(total_iops: f64, clients: usize) -> Vec<WorkloadSpec> {
    (0..clients)
        .map(|i| {
            let mut spec = WorkloadSpec::open_loop(
                &format!("load{i}"),
                TenantId(i as u32 + 1),
                TenantClass::BestEffort,
                total_iops / clients as f64,
            );
            spec.io_size = 1024;
            spec.conns = 48;
            spec.client_threads = 8;
            spec.client_machine = i;
            spec
        })
        .collect()
}

/// Achieved IOPS, p95 read latency, how the point executed and what it
/// recorded.
type Measured = (f64, f64, Execution, Option<TelemetrySnapshot>);

fn remote_point(server: TestbedBuilder, seed: u64, offered: f64, telemetry: bool) -> Measured {
    // Four IX client machines (the paper's testbed size) and a 40GbE link
    // so the network never caps the 1KB experiment (the paper notes the
    // 10GbE bottleneck explicitly and uses 1KB requests to stress server
    // IOPS instead).
    let tb = server
        .seed(seed)
        .client_machines(vec![StackProfile::ix_tcp(); 4])
        .link(LinkConfig::forty_gbe())
        .build();
    let report = run_testbed(tb, load_specs(offered, 4), WARMUP, MEASURE, telemetry);
    let total: f64 = report.workloads.iter().map(|w| w.iops).sum();
    let p95 = max_p95_read_us(&report);
    (total, p95, Execution::from(&report), report.telemetry)
}

fn reflex_point(threads: u32, offered: f64, telemetry: bool) -> Measured {
    let server = ServerConfig {
        threads,
        max_threads: threads,
        ..ServerConfig::default()
    };
    remote_point(Testbed::builder().server(server), 31, offered, telemetry)
}

fn libaio_point(workers: u32, offered: f64, telemetry: bool) -> Measured {
    remote_point(libaio(workers), 32, offered, telemetry)
}

fn local_point(threads: u32, offered: f64, _telemetry: bool) -> Measured {
    let mut rig = LocalRig::new(device_a(), threads, 34);
    let rep = rig.run_open_loop(offered, 100, 1024, WARMUP, MEASURE);
    let p95 = rep.read_latency.p95().as_micros_f64();
    (rep.iops, p95, Execution::default(), None)
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Figure 4: p95 latency vs throughput, 1KB read-only\n\
         curve\toffered_kiops\tachieved_kiops\tp95_us\n",
    );
    let fracs = [0.2, 0.4, 0.6, 0.75, 0.9, 1.0, 1.1];
    type Point = fn(u32, f64, bool) -> Measured;
    let curves: [(&str, u32, f64, Point); 6] = [
        ("Local-1T", 1, 900_000.0, local_point),
        ("Local-2T", 2, 1_150_000.0, local_point),
        ("ReFlex-1T", 1, 900_000.0, reflex_point),
        ("ReFlex-2T", 2, 1_150_000.0, reflex_point),
        ("Libaio-1T", 1, 85_000.0, libaio_point),
        ("Libaio-2T", 2, 170_000.0, libaio_point),
    ];
    let telemetry = sweep.telemetry;
    for (name, threads, peak, point) in curves {
        let curve = sweep.curve(name);
        curve.cutoff_p95_us(3_000.0);
        for frac in fracs {
            let offered = peak * frac;
            curve.point(move || {
                let (iops, p95, events, snapshot) = point(threads, offered, telemetry);
                PointOutcome::new(p95)
                    .with_row(format!(
                        "{name}\t{:.0}\t{:.0}\t{p95:.0}",
                        offered / 1e3,
                        iops / 1e3
                    ))
                    .with_metric("offered_iops", offered)
                    .with_metric("achieved_iops", iops)
                    .with_events(events)
                    .with_telemetry(snapshot)
            });
        }
    }
}
