//! Figure 7c: RocksDB `db_bench` slowdown over remote Flash.
//!
//! bulkload (BL), randomread (RR) and readwhilewriting (RwW) on a 43GB
//! database with a cgroup-limited page cache, on the local NVMe path, the
//! ReFlex block driver, and iSCSI. Reported as slowdown vs local Flash
//! (paper: BL ≈ equal everywhere; RR/RwW: iSCSI 32%/27%, ReFlex < 4%).
//!
//! Run: `reflex-bench fig7c_rocksdb`

use crate::sweep::{PointOutcome, Sweep};
use reflex_flash::device_a;
use reflex_workloads::{run_db_bench, Backend, BackendProfile, DbBenchmark, LsmConfig};

fn bench_point(bench: DbBenchmark) -> PointOutcome {
    let config = LsmConfig::default();
    let mut runtimes = Vec::new();
    for profile in [
        BackendProfile::local_nvme(),
        BackendProfile::reflex_remote(),
        BackendProfile::iscsi_remote(),
    ] {
        let mut backend = Backend::new(profile, device_a(), 6, 101);
        runtimes.push(run_db_bench(bench, &config, &mut backend, 19).as_secs_f64());
    }
    PointOutcome::new(0.0)
        .with_row(format!(
            "{}\t{:.1}\t{:.1}\t{:.1}\t{:.3}\t{:.3}",
            bench.name(),
            runtimes[0],
            runtimes[1],
            runtimes[2],
            runtimes[1] / runtimes[0],
            runtimes[2] / runtimes[0]
        ))
        .with_metric("local_s", runtimes[0])
        .with_metric("reflex_s", runtimes[1])
        .with_metric("iscsi_s", runtimes[2])
        .with_metric("reflex_slowdown", runtimes[1] / runtimes[0])
        .with_metric("iscsi_slowdown", runtimes[2] / runtimes[0])
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Figure 7c: RocksDB db_bench slowdown vs local Flash (43GB DB)\n\
         bench\tlocal_s\treflex_s\tiscsi_s\treflex_slowdown\tiscsi_slowdown\n",
    );
    for bench in DbBenchmark::all() {
        sweep.curve(bench.name()).point(move || bench_point(bench));
    }
}
