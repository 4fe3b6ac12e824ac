//! Table 2: unloaded Flash latency for 4KB random I/Os (QD1), including
//! round-trip network for the remote configurations.
//!
//! Rows: Local (SPDK), iSCSI, libaio (Linux and IX clients), ReFlex (Linux
//! and IX clients). Columns: read avg/p95, write avg/p95 in microseconds.
//!
//! Run: `reflex-bench tab2_unloaded_latency`

use reflex_baselines::{BaselineConfig, BaselineServer, LocalRig};
use crate::run_testbed;
use crate::sweep::{PointOutcome, Sweep};
use reflex_core::{Testbed, TestbedBuilder, WorkloadSpec};
use reflex_flash::device_a;
use reflex_net::StackProfile;
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::SimDuration;

fn probe_spec(read_pct: u8) -> WorkloadSpec {
    // A QD1 prober self-clocks at ~1/latency; reserve enough IOPS that the
    // scheduler never throttles it (ReFlex configs only).
    let slo = SloSpec::new(40_000, read_pct.max(1), SimDuration::from_millis(2));
    let mut spec =
        WorkloadSpec::closed_loop("probe", TenantId(1), TenantClass::LatencyCritical(slo), 1);
    spec.read_pct = read_pct;
    spec
}

fn reflex_row(client: StackProfile, read_pct: u8) -> (f64, f64) {
    let tb = Testbed::builder()
        .client_machines(vec![client])
        .seed(21)
        .build();
    let report = run_testbed(
        tb,
        vec![probe_spec(read_pct)],
        SimDuration::from_millis(50),
        SimDuration::from_millis(400),
    );
    let w = report.workload("probe");
    let h = if read_pct == 100 {
        &w.read_latency
    } else {
        &w.write_latency
    };
    (h.mean().as_micros_f64(), h.p95().as_micros_f64())
}

fn baseline_row(config: BaselineConfig, client: StackProfile, read_pct: u8) -> (f64, f64) {
    let tb = TestbedBuilder::new()
        .server_stack(StackProfile::linux_tcp())
        .client_machines(vec![client])
        .seed(22)
        .build_with(move |fabric, device, machine| {
            BaselineServer::new(machine, fabric, device, config, 23)
        });
    let mut spec = WorkloadSpec::closed_loop("probe", TenantId(1), TenantClass::BestEffort, 1);
    spec.read_pct = read_pct;
    let report = run_testbed(
        tb,
        vec![spec],
        SimDuration::from_millis(50),
        SimDuration::from_millis(400),
    );
    let w = report.workload("probe");
    let h = if read_pct == 100 {
        &w.read_latency
    } else {
        &w.write_latency
    };
    (h.mean().as_micros_f64(), h.p95().as_micros_f64())
}

fn local_row(read_pct: u8) -> (f64, f64) {
    let mut rig = LocalRig::new(device_a(), 1, 24);
    let rep = rig.run_unloaded(read_pct, 4096, 3_000);
    let h = if read_pct == 100 {
        &rep.read_latency
    } else {
        &rep.write_latency
    };
    (h.mean().as_micros_f64(), h.p95().as_micros_f64())
}

/// Renders one table row from a read-mode and a write-mode measurement.
fn row_outcome(label: &str, run: impl Fn(u8) -> (f64, f64)) -> PointOutcome {
    let (ra, rp) = run(100);
    let (wa, wp) = run(0);
    PointOutcome::new(rp)
        .with_row(format!("{label}\t{ra:.0}\t{rp:.0}\t{wa:.0}\t{wp:.0}"))
        .with_metric("read_avg_us", ra)
        .with_metric("read_p95_us", rp)
        .with_metric("write_avg_us", wa)
        .with_metric("write_p95_us", wp)
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Table 2: unloaded 4KB latency (us). Paper values in parens.\n\
         config\tread_avg\tread_p95\twrite_avg\twrite_p95\n",
    );
    sweep
        .curve("Local (SPDK)")
        .point(|| row_outcome("Local (SPDK)       (78/90, 11/17)", local_row));
    sweep.curve("iSCSI").point(|| {
        row_outcome("iSCSI              (211/251, 155/215)", |pct| {
            baseline_row(BaselineConfig::iscsi(), StackProfile::linux_tcp(), pct)
        })
    });
    sweep.curve("Libaio (Linux)").point(|| {
        row_outcome("Libaio (Linux)     (183/205, 180/205)", |pct| {
            baseline_row(BaselineConfig::libaio(), StackProfile::linux_tcp(), pct)
        })
    });
    sweep.curve("Libaio (IX)").point(|| {
        row_outcome("Libaio (IX)        (121/139, 117/144)", |pct| {
            baseline_row(BaselineConfig::libaio(), StackProfile::ix_tcp(), pct)
        })
    });
    sweep.curve("ReFlex (Linux)").point(|| {
        row_outcome("ReFlex (Linux)     (117/135, 58/64)", |pct| {
            reflex_row(StackProfile::linux_tcp(), pct)
        })
    });
    sweep.curve("ReFlex (IX)").point(|| {
        row_outcome("ReFlex (IX)        (99/113, 31/34)", |pct| {
            reflex_row(StackProfile::ix_tcp(), pct)
        })
    });
}
