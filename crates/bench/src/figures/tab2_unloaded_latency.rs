//! Table 2: unloaded Flash latency for 4KB random I/Os (QD1), including
//! round-trip network for the remote configurations.
//!
//! Rows: Local (SPDK), iSCSI, libaio (Linux and IX clients), ReFlex (Linux
//! and IX clients). Columns: read avg/p95, write avg/p95 in microseconds.
//! Every row is one probe on its testbed: a best-effort tenant issuing
//! paced 4KB reads, or writes, at 2 000 IOPS, so the device rests between
//! probes and each request runs unloaded.
//!
//! Run: `reflex-bench tab2_unloaded_latency`

use crate::baselines::{iscsi, libaio, local_spdk};
use crate::run_testbed;
use crate::sweep::{PointOutcome, Sweep};
use reflex_core::{Testbed, TestbedBuilder, TestbedReport, WorkloadSpec};
use reflex_net::StackProfile;
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::SimDuration;

/// A row's testbed, client machines set.
type Path = fn() -> TestbedBuilder;

/// Runs one probe of `read_pct` % reads on `path` (client machines set):
/// 3 200 requests in the measured window.
fn probe(path: TestbedBuilder, seed: u64, read_pct: u8, telemetry: bool) -> TestbedReport {
    let mut spec = WorkloadSpec::open_loop("probe", TenantId(1), TenantClass::BestEffort, 2_000.0);
    spec.read_pct = read_pct;
    run_testbed(
        path.seed(seed).build(),
        vec![spec],
        SimDuration::from_millis(50),
        SimDuration::from_millis(1_600),
        telemetry,
    )
}

/// Renders one table row from a read-mode and a write-mode probe.
fn row_outcome(label: &str, path: Path, seed: u64, telemetry: bool) -> PointOutcome {
    let reads = probe(path(), seed, 100, telemetry);
    let writes = probe(path(), seed, 0, telemetry);
    let r = &reads.workload("probe").read_latency;
    let w = &writes.workload("probe").write_latency;
    let (ra, rp) = (r.mean().as_micros_f64(), r.p95().as_micros_f64());
    let (wa, wp) = (w.mean().as_micros_f64(), w.p95().as_micros_f64());
    PointOutcome::new(rp)
        .with_row(format!("{label}\t{ra:.0}\t{rp:.0}\t{wa:.0}\t{wp:.0}"))
        .with_metric("read_avg_us", ra)
        .with_metric("read_p95_us", rp)
        .with_metric("write_avg_us", wa)
        .with_metric("write_p95_us", wp)
        .with_events(&reads)
        .with_events(&writes)
        .with_telemetry(reads.telemetry)
        .with_telemetry(writes.telemetry)
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Table 2: unloaded 4KB latency (us). Paper values in parens.\n\
         config\tread_avg\tread_p95\twrite_avg\twrite_p95\n",
    );
    #[rustfmt::skip]
    let rows: [(&str, &str, Path, u64); 6] = [
        ("Local (SPDK)", "(78/90, 11/17)", || local_spdk(1), 24),
        ("iSCSI", "(211/251, 155/215)", || iscsi(1).client_machines(vec![StackProfile::linux_tcp()]), 22),
        ("Libaio (Linux)", "(183/205, 180/205)", || libaio(1).client_machines(vec![StackProfile::linux_tcp()]), 22),
        ("Libaio (IX)", "(121/139, 117/144)", || libaio(1).client_machines(vec![StackProfile::ix_tcp()]), 22),
        ("ReFlex (Linux)", "(117/135, 58/64)", || Testbed::builder().client_machines(vec![StackProfile::linux_tcp()]), 21),
        ("ReFlex (IX)", "(99/113, 31/34)", || Testbed::builder().client_machines(vec![StackProfile::ix_tcp()]), 21),
    ];
    let telemetry = sweep.telemetry;
    for (name, paper, path, seed) in rows {
        let label = format!("{name:<19}{paper}");
        sweep
            .curve(name)
            .point(move || row_outcome(&label, path, seed, telemetry));
    }
}
