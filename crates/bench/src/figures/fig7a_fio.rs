//! Figure 7a: FIO latency-throughput with the remote block device driver.
//!
//! 4KB random reads at increasing parallelism (threads × queue depth) on
//! the local kernel NVMe path, the ReFlex block driver and iSCSI. ReFlex
//! saturates the 10GbE link (~1.2GB/s) with ~4x iSCSI's throughput and
//! half its latency; local Flash goes further on raw device bandwidth.
//!
//! Run: `reflex-bench fig7a_fio`

use crate::sweep::{PointOutcome, Sweep};
use reflex_flash::device_a;
use reflex_workloads::{Backend, BackendProfile, FioJob};

fn fio_point(name: &str, profile: &BackendProfile, threads: u32, qd: u32) -> PointOutcome {
    let mut backend = Backend::new(profile.clone(), device_a(), threads, 81);
    let rep = FioJob {
        threads,
        queue_depth: qd,
        ..FioJob::default()
    }
    .run(&mut backend, 7);
    let p95 = rep.latency.p95().as_micros_f64();
    PointOutcome::new(p95)
        .with_row(format!(
            "{name}\t{threads}\t{qd}\t{:.0}\t{:.0}\t{:.0}",
            rep.mb_per_sec,
            rep.iops / 1e3,
            p95
        ))
        .with_metric("mb_per_sec", rep.mb_per_sec)
        .with_metric("kiops", rep.iops / 1e3)
}

/// A backend's name, profile and (threads, queue-depth) ladder.
type FioConfig = (&'static str, BackendProfile, Vec<(u32, u32)>);

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    let configs: [FioConfig; 3] = [
        (
            "local",
            BackendProfile::local_nvme(),
            vec![(1, 4), (1, 16), (2, 16), (3, 24), (4, 32), (5, 32), (5, 64)],
        ),
        (
            "reflex",
            BackendProfile::reflex_remote(),
            vec![(1, 4), (1, 16), (2, 16), (3, 24), (4, 32), (5, 48), (6, 64)],
        ),
        (
            "iscsi",
            BackendProfile::iscsi_remote(),
            vec![(1, 4), (1, 16), (2, 16), (3, 24), (4, 32), (5, 48), (6, 64)],
        ),
    ];
    sweep.text(
        "# Figure 7a: FIO 4KB random read, p95 latency vs throughput\n\
         path\tthreads\tqd\tMB_s\tkiops\tp95_us\n",
    );
    for (name, profile, points) in configs {
        let curve = sweep.curve(name);
        for (threads, qd) in points {
            let profile = profile.clone();
            curve.point(move || fio_point(name, &profile, threads, qd));
        }
        sweep.text("\n");
    }
}
