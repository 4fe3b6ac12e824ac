//! Cross-crate integration tests: the paper's headline claims, verified
//! end to end through the facade crate.

use reflex::core::{Testbed, TestbedBuilder, WorkloadSpec};
use reflex::net::StackProfile;
use reflex::qos::{SloSpec, TenantClass, TenantId};
use reflex::sim::SimDuration;

fn lc(iops: u64, read_pct: u8, p95_us: u64) -> TenantClass {
    TenantClass::LatencyCritical(SloSpec::new(
        iops,
        read_pct,
        SimDuration::from_micros(p95_us),
    ))
}

/// "Remote Flash ≈ Local Flash": the unloaded remote read through the
/// full stack (client library, TCP over 10GbE, dataplane, QoS scheduler,
/// NVMe) stays within ~25us of local access.
#[test]
fn headline_remote_approx_local() {
    // Local unloaded read: SPDK on the server's machine, probed at 2 000
    // paced IOPS like Table 2.
    let mut tb = reflex_bench::baselines::local_spdk(1).seed(5).build();
    tb.add_workload(WorkloadSpec::open_loop(
        "probe",
        TenantId(1),
        TenantClass::BestEffort,
        2_000.0,
    ))
    .expect("admitted");
    tb.run(SimDuration::from_millis(50));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(1_000));
    let local_avg = tb.report().workload("probe").mean_read_us();

    // Remote unloaded read through ReFlex.
    let mut tb = Testbed::builder().seed(5).build();
    tb.add_workload(WorkloadSpec::closed_loop(
        "probe",
        TenantId(1),
        lc(20_000, 100, 500),
        1,
    ))
    .expect("admitted");
    tb.run(SimDuration::from_millis(50));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(300));
    let remote_avg = tb.report().workload("probe").mean_read_us();

    let overhead = remote_avg - local_avg;
    // Paper: +21us over local (IX client). Allow 5-30us.
    assert!(
        (5.0..30.0).contains(&overhead),
        "remote overhead {overhead:.1}us (local {local_avg:.1}, remote {remote_avg:.1})"
    );
}

/// The full comparison ordering across systems, measured under identical
/// conditions: ReFlex < libaio < iSCSI for unloaded remote reads.
#[test]
fn system_ordering_under_one_roof() {
    let probe = || {
        let mut spec = WorkloadSpec::closed_loop("probe", TenantId(1), TenantClass::BestEffort, 1);
        spec.read_pct = 100;
        spec
    };
    let run_baseline = |server: TestbedBuilder| {
        let mut tb = server
            .client_machines(vec![StackProfile::ix_tcp()])
            .seed(6)
            .build();
        tb.add_workload(probe()).expect("BE accepted");
        tb.run(SimDuration::from_millis(50));
        tb.begin_measurement();
        tb.run(SimDuration::from_millis(300));
        tb.report().workload("probe").mean_read_us()
    };
    let libaio = run_baseline(reflex_bench::baselines::libaio(1));
    let iscsi = run_baseline(reflex_bench::baselines::iscsi(1));

    let mut tb = Testbed::builder().seed(6).build();
    tb.add_workload(WorkloadSpec::closed_loop(
        "probe",
        TenantId(1),
        lc(20_000, 100, 500),
        1,
    ))
    .expect("admitted");
    tb.run(SimDuration::from_millis(50));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(300));
    let reflex = tb.report().workload("probe").mean_read_us();

    assert!(
        reflex < libaio && libaio < iscsi,
        "ordering violated: reflex {reflex:.0} / libaio {libaio:.0} / iscsi {iscsi:.0}"
    );
}

/// SLO enforcement survives an adversarial mix of tenants: three LC
/// tenants with different SLOs and ratios plus two write-heavy BE tenants.
#[test]
fn slos_hold_under_adversarial_mix() {
    let mut tb = Testbed::builder().seed(8).build();
    let mut add_lc = |name: &str, id, iops: u64, read_pct: u8, p95_us| {
        let mut spec =
            WorkloadSpec::open_loop(name, TenantId(id), lc(iops, read_pct, p95_us), iops as f64);
        spec.read_pct = read_pct;
        spec.conns = 8;
        spec.client_threads = 4;
        tb.add_workload(spec).expect("admissible");
    };
    add_lc("gold", 1, 100_000, 100, 500);
    add_lc("silver", 2, 40_000, 90, 1_000);
    add_lc("bronze", 3, 20_000, 80, 2_000);
    for (i, name) in ["noise1", "noise2"].iter().enumerate() {
        let mut spec =
            WorkloadSpec::closed_loop(name, TenantId(10 + i as u32), TenantClass::BestEffort, 16);
        spec.read_pct = 20;
        spec.conns = 8;
        spec.client_threads = 4;
        tb.add_workload(spec).expect("BE accepted");
    }
    tb.run(SimDuration::from_millis(100));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(400));
    let report = tb.report();
    for (name, iops, p95_bound) in [
        ("gold", 100_000.0, 500.0),
        ("silver", 40_000.0, 1_000.0),
        ("bronze", 20_000.0, 2_000.0),
    ] {
        let w = report.workload(name);
        assert!(
            w.iops > iops * 0.93,
            "{name} got {:.0} of {iops} IOPS",
            w.iops
        );
        assert!(
            w.p95_read_us() < p95_bound * 1.1,
            "{name} p95 {:.0}us vs bound {p95_bound}us",
            w.p95_read_us()
        );
    }
}

/// Determinism across the whole stack: two identically-seeded testbeds
/// with a mixed scenario produce bit-identical reports.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let mut tb = Testbed::builder().seed(99).build();
        let mut spec = WorkloadSpec::open_loop("x", TenantId(1), lc(80_000, 90, 1_000), 80_000.0);
        spec.read_pct = 90;
        spec.conns = 8;
        tb.add_workload(spec).expect("admitted");
        let mut be = WorkloadSpec::closed_loop("y", TenantId(2), TenantClass::BestEffort, 8);
        be.read_pct = 30;
        tb.add_workload(be).expect("accepted");
        tb.run(SimDuration::from_millis(60));
        tb.begin_measurement();
        tb.run(SimDuration::from_millis(120));
        let r = tb.report();
        (
            r.workload("x").iops.to_bits(),
            r.workload("x").p95_read_us().to_bits(),
            r.workload("y").iops.to_bits(),
            r.token_usage_per_sec.to_bits(),
        )
    };
    assert_eq!(run(), run());
}

/// The wire protocol, QoS accounting and device stats agree end to end:
/// every admitted request is counted exactly once everywhere.
#[test]
fn accounting_consistency() {
    let mut tb = Testbed::builder().seed(12).build();
    let mut spec = WorkloadSpec::open_loop("w", TenantId(1), lc(50_000, 80, 1_000), 50_000.0);
    spec.read_pct = 80;
    spec.conns = 4;
    tb.add_workload(spec).expect("admitted");
    tb.run(SimDuration::from_millis(50));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(200));
    let report = tb.report();
    let w = report.workload("w");
    let t = &report.threads[0];
    let stats = t.stats.expect("reflex exposes thread stats");
    // Server-side counters are cumulative (warmup included), so they bound
    // the measured window's completions from above.
    assert!(stats.rx_msgs >= w.issued);
    assert!(stats.submitted <= stats.rx_msgs);
    assert!(stats.completed <= stats.submitted);
    assert_eq!(stats.acl_rejections, 0);
    assert_eq!(stats.decode_errors, 0);
    assert_eq!(w.errors, 0);
    // Token usage over the window ≈ LC spend: 0.8*50K*1 + 0.2*50K*10 = 140K/s.
    assert!(
        (120_000.0..160_000.0).contains(&report.token_usage_per_sec),
        "token usage {:.0}",
        report.token_usage_per_sec
    );
}
