//! Figure 7a: FIO latency-throughput with the remote block device driver.
//!
//! 4KB random reads at increasing parallelism (threads × queue depth) on
//! the local kernel NVMe path, the ReFlex block driver and iSCSI. ReFlex
//! saturates the 10GbE link (~1.2GB/s) with ~4x iSCSI's throughput and
//! half its latency; local Flash goes further on raw device bandwidth.
//! FIO is a closed-loop workload: one connection per thread, each on its
//! own client thread, `qd` requests in flight on each.
//!
//! Run: `reflex-bench fig7a_fio`

use crate::baselines::{BlockPath, BLOCK_PATHS};
use crate::run_testbed;
use crate::sweep::{PointOutcome, Sweep};
use reflex_core::WorkloadSpec;
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::SimDuration;

fn fio_point((name, path): BlockPath, threads: u32, qd: u32, telemetry: bool) -> PointOutcome {
    let mut spec = WorkloadSpec::closed_loop("fio", TenantId(1), TenantClass::BestEffort, qd);
    spec.conns = threads;
    spec.client_threads = threads;
    let ms = SimDuration::from_millis;
    let report = run_testbed(
        path().seed(81).build(),
        vec![spec],
        ms(50),
        ms(300),
        telemetry,
    );
    let fio = report.workload("fio");
    let (mb_per_sec, p95) = (fio.bytes_per_sec / 1e6, fio.p95_read_us());
    PointOutcome::new(p95)
        .with_row(format!(
            "{name}\t{threads}\t{qd}\t{mb_per_sec:.0}\t{:.0}\t{p95:.0}",
            fio.iops / 1e3,
        ))
        .with_metric("mb_per_sec", mb_per_sec)
        .with_metric("kiops", fio.iops / 1e3)
        .with_events(&report)
        .with_telemetry(report.telemetry)
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    let remote = vec![(1, 4), (1, 16), (2, 16), (3, 24), (4, 32), (5, 48), (6, 64)];
    let local = vec![(1, 4), (1, 16), (2, 16), (3, 24), (4, 32), (5, 32), (5, 64)];
    sweep.text(
        "# Figure 7a: FIO 4KB random read, p95 latency vs throughput\n\
         path\tthreads\tqd\tMB_s\tkiops\tp95_us\n",
    );
    let telemetry = sweep.telemetry;
    for (path, points) in BLOCK_PATHS.into_iter().zip([local, remote.clone(), remote]) {
        let curve = sweep.curve(path.0);
        for (threads, qd) in points {
            curve.point(move || fio_point(path, threads, qd, telemetry));
        }
        sweep.text("\n");
    }
}
