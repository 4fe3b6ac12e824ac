//! Figure 7b: FlashX graph analytics slowdown over remote Flash.
//!
//! WCC, PageRank, BFS and SCC on a SOC-LiveJournal1-sized graph (4.8M
//! vertices, 68.9M edges), executed on the local NVMe path, the ReFlex
//! block driver, and iSCSI. Reported as slowdown relative to local Flash
//! (paper: ReFlex 1-3.8%, iSCSI 15-40%).
//!
//! Run: `reflex-bench fig7b_flashx`

use crate::sweep::{PointOutcome, Sweep};
use reflex_flash::device_a;
use reflex_workloads::{run_flashx, Backend, BackendProfile, FlashXConfig, GraphAlgo};

fn algo_point(algo: GraphAlgo) -> PointOutcome {
    let config = FlashXConfig::default();
    let mut runtimes = Vec::new();
    for profile in [
        BackendProfile::local_nvme(),
        BackendProfile::reflex_remote(),
        BackendProfile::iscsi_remote(),
    ] {
        let mut backend = Backend::new(profile, device_a(), 6, 91);
        runtimes.push(run_flashx(algo, &config, &mut backend, 17).as_secs_f64());
    }
    PointOutcome::new(0.0)
        .with_row(format!(
            "{}\t{:.1}\t{:.1}\t{:.1}\t{:.3}\t{:.3}",
            algo.name(),
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
        "# Figure 7b: FlashX end-to-end slowdown vs local Flash\n\
         algo\tlocal_s\treflex_s\tiscsi_s\treflex_slowdown\tiscsi_slowdown\n",
    );
    for algo in GraphAlgo::all() {
        sweep.curve(algo.name()).point(move || algo_point(algo));
    }
}
