//! Figure 7c: RocksDB `db_bench` slowdown over remote Flash.
//!
//! bulkload (BL), randomread (RR) and readwhilewriting (RwW) on a 43GB
//! database with a cgroup-limited page cache, on the local NVMe path, the
//! ReFlex block driver, and iSCSI. Reported as slowdown vs local Flash
//! (paper: BL ≈ equal everywhere; RR/RwW: iSCSI 32%/27%, ReFlex < 4%).
//!
//! Run: `reflex-bench fig7c_rocksdb`

use super::fig7b_flashx::slowdown_point;
use crate::sweep::Sweep;
use reflex_workloads::{run_db_bench, DbBenchmark, LsmConfig};

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Figure 7c: RocksDB db_bench slowdown vs local Flash (43GB DB)\n\
         bench\tlocal_s\treflex_s\tiscsi_s\treflex_slowdown\tiscsi_slowdown\n",
    );
    let telemetry = sweep.telemetry;
    for bench in DbBenchmark::all() {
        sweep.curve(bench.name()).point(move || {
            slowdown_point(bench.name(), 101, telemetry, |tb| {
                run_db_bench(bench, &LsmConfig::default(), tb, 19)
            })
        });
    }
}
