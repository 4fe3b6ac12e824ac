//! Table 2: unloaded Flash latency for 4KB random I/Os (QD1), including
//! round-trip network for the remote configurations.
//!
//! Rows: Local (SPDK), iSCSI, libaio (Linux and IX clients), ReFlex (Linux
//! and IX clients). Columns: read avg/p95, write avg/p95 in microseconds.
//!
//! Run: `reflex-bench tab2_unloaded_latency`

use crate::baselines::{iscsi, libaio};
use crate::run_testbed;
use crate::sweep::{Execution, PointOutcome, Sweep};
use reflex_core::{LocalRig, Testbed, TestbedBuilder, WorkloadSpec};
use reflex_flash::device_a;
use reflex_net::StackProfile;
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::SimDuration;
use reflex_telemetry::TelemetrySnapshot;

/// Mean and p95 latency in µs, how the run executed and what it recorded.
type Measured = (f64, f64, Execution, Option<TelemetrySnapshot>);

fn probe_spec(read_pct: u8) -> WorkloadSpec {
    // A QD1 prober self-clocks at ~1/latency; reserve enough IOPS that the
    // scheduler never throttles it (ReFlex configs only).
    let slo = SloSpec::new(40_000, read_pct.max(1), SimDuration::from_millis(2));
    let mut spec =
        WorkloadSpec::closed_loop("probe", TenantId(1), TenantClass::LatencyCritical(slo), 1);
    spec.read_pct = read_pct;
    spec
}

/// Runs `tb` with one QD1 `spec` and measures its reads, or its writes
/// when it issues none.
fn probe(tb: Testbed, spec: WorkloadSpec, telemetry: bool) -> Measured {
    let reads = spec.read_pct == 100;
    let report = run_testbed(
        tb,
        vec![spec],
        SimDuration::from_millis(50),
        SimDuration::from_millis(400),
        telemetry,
    );
    let w = report.workload("probe");
    let h = if reads {
        &w.read_latency
    } else {
        &w.write_latency
    };
    let (mean, p95) = (h.mean().as_micros_f64(), h.p95().as_micros_f64());
    (mean, p95, Execution::from(&report), report.telemetry)
}

fn reflex_row(client: StackProfile, read_pct: u8, telemetry: bool) -> Measured {
    let tb = Testbed::builder()
        .client_machines(vec![client])
        .seed(21)
        .build();
    probe(tb, probe_spec(read_pct), telemetry)
}

fn baseline_row(
    server: TestbedBuilder,
    client: StackProfile,
    read_pct: u8,
    telemetry: bool,
) -> Measured {
    let tb = server.client_machines(vec![client]).seed(22).build();
    let mut spec = WorkloadSpec::closed_loop("probe", TenantId(1), TenantClass::BestEffort, 1);
    spec.read_pct = read_pct;
    probe(tb, spec, telemetry)
}

fn local_row(read_pct: u8) -> Measured {
    let mut rig = LocalRig::new(device_a(), 1, 24);
    let rep = rig.run_unloaded(read_pct, 4096, 3_000);
    let h = if read_pct == 100 {
        &rep.read_latency
    } else {
        &rep.write_latency
    };
    let (mean, p95) = (h.mean(), h.p95());
    (mean.as_micros_f64(), p95.as_micros_f64(), Execution::default(), None)
}

/// Renders one table row from a read-mode and a write-mode measurement.
fn row_outcome(label: &str, run: impl Fn(u8) -> Measured) -> PointOutcome {
    let (ra, rp, read_events, read_telemetry) = run(100);
    let (wa, wp, write_events, write_telemetry) = run(0);
    PointOutcome::new(rp)
        .with_row(format!("{label}\t{ra:.0}\t{rp:.0}\t{wa:.0}\t{wp:.0}"))
        .with_metric("read_avg_us", ra)
        .with_metric("read_p95_us", rp)
        .with_metric("write_avg_us", wa)
        .with_metric("write_p95_us", wp)
        .with_events(read_events)
        .with_events(write_events)
        .with_telemetry(read_telemetry)
        .with_telemetry(write_telemetry)
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Table 2: unloaded 4KB latency (us). Paper values in parens.\n\
         config\tread_avg\tread_p95\twrite_avg\twrite_p95\n",
    );
    let telemetry = sweep.telemetry;
    sweep
        .curve("Local (SPDK)")
        .point(|| row_outcome("Local (SPDK)       (78/90, 11/17)", local_row));
    sweep.curve("iSCSI").point(move || {
        row_outcome("iSCSI              (211/251, 155/215)", |pct| {
            baseline_row(iscsi(1), StackProfile::linux_tcp(), pct, telemetry)
        })
    });
    sweep.curve("Libaio (Linux)").point(move || {
        row_outcome("Libaio (Linux)     (183/205, 180/205)", |pct| {
            baseline_row(libaio(1), StackProfile::linux_tcp(), pct, telemetry)
        })
    });
    sweep.curve("Libaio (IX)").point(move || {
        row_outcome("Libaio (IX)        (121/139, 117/144)", |pct| {
            baseline_row(libaio(1), StackProfile::ix_tcp(), pct, telemetry)
        })
    });
    sweep.curve("ReFlex (Linux)").point(move || {
        row_outcome("ReFlex (Linux)     (117/135, 58/64)", |pct| {
            reflex_row(StackProfile::linux_tcp(), pct, telemetry)
        })
    });
    sweep.curve("ReFlex (IX)").point(move || {
        row_outcome("ReFlex (IX)        (99/113, 31/34)", |pct| {
            reflex_row(StackProfile::ix_tcp(), pct, telemetry)
        })
    });
}
