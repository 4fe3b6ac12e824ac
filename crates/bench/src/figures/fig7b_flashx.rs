//! Figure 7b: FlashX graph analytics slowdown over remote Flash.
//!
//! WCC, PageRank, BFS and SCC on a SOC-LiveJournal1-sized graph (4.8M
//! vertices, 68.9M edges), executed on the local NVMe path, the ReFlex
//! block driver, and iSCSI. Reported as slowdown relative to local Flash
//! (paper: ReFlex 1-3.8%, iSCSI 15-40%).
//!
//! Run: `reflex-bench fig7b_flashx`

use crate::baselines::BLOCK_PATHS;
use crate::sweep::{PointOutcome, Sweep};
use reflex_core::Testbed;
use reflex_sim::SimDuration;
use reflex_workloads::{run_flashx, FlashXConfig, GraphAlgo};

/// Runs `app` on each block path (testbed seed `seed`): its runtimes and
/// slowdowns against local, as `label`'s row.
pub(crate) fn slowdown_point(
    label: &str,
    seed: u64,
    telemetry: bool,
    app: impl Fn(&mut Testbed) -> SimDuration,
) -> PointOutcome {
    let mut point = PointOutcome::new(None);
    let mut s = Vec::new();
    for (_, path) in BLOCK_PATHS {
        let mut tb = path().seed(seed).build();
        if telemetry {
            tb.enable_telemetry();
        }
        s.push(app(&mut tb).as_secs_f64());
        let report = tb.report();
        point = point.with_events(&report).with_telemetry(report.telemetry);
    }
    let (reflex, iscsi) = (s[1] / s[0], s[2] / s[0]);
    point
        .with_row(format!(
            "{label}\t{:.1}\t{:.1}\t{:.1}\t{reflex:.3}\t{iscsi:.3}",
            s[0], s[1], s[2]
        ))
        .with_metric("local_s", s[0])
        .with_metric("reflex_s", s[1])
        .with_metric("iscsi_s", s[2])
        .with_metric("reflex_slowdown", reflex)
        .with_metric("iscsi_slowdown", iscsi)
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Figure 7b: FlashX end-to-end slowdown vs local Flash\n\
         algo\tlocal_s\treflex_s\tiscsi_s\treflex_slowdown\tiscsi_slowdown\n",
    );
    let telemetry = sweep.telemetry;
    for algo in GraphAlgo::all() {
        sweep.curve(algo.name()).point(move || {
            slowdown_point(algo.name(), 91, telemetry, |tb| {
                run_flashx(algo, &FlashXConfig::default(), tb, 17)
            })
        });
    }
}
