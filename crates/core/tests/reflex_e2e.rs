//! End-to-end tests of the assembled ReFlex system: unloaded latency
//! (Table 2 ReFlex rows), per-core throughput (§5.3), SLO enforcement
//! (Figure 5 behaviours), admission control and determinism.

use reflex_core::{CapacityProfile, ServerConfig, Testbed, TestbedError, WorkloadSpec};
use reflex_net::StackProfile;
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::SimDuration;

fn lc(iops: u64, read_pct: u8, p95_us: u64) -> TenantClass {
    TenantClass::LatencyCritical(SloSpec::new(
        iops,
        read_pct,
        SimDuration::from_micros(p95_us),
    ))
}

#[test]
fn reflex_unloaded_read_latency_ix_client() {
    // Paper Table 2: ReFlex (IX client) read 99 avg / 113 p95.
    let mut tb = Testbed::builder().seed(5).build();
    let spec = WorkloadSpec::closed_loop("probe", TenantId(1), lc(20_000, 100, 500), 1);
    tb.add_workload(spec).expect("admitted");
    tb.run(SimDuration::from_millis(50));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(400));
    let report = tb.report();
    let w = report.workload("probe");
    let avg = w.mean_read_us();
    let p95 = w.p95_read_us();
    assert!((88.0..112.0).contains(&avg), "reflex/ix read avg {avg}");
    assert!((100.0..130.0).contains(&p95), "reflex/ix read p95 {p95}");
}

#[test]
fn reflex_unloaded_write_latency_ix_client() {
    // Paper Table 2: ReFlex (IX client) write 31 avg / 34 p95.
    let mut tb = Testbed::builder().seed(6).build();
    let mut spec = WorkloadSpec::closed_loop("probe", TenantId(1), lc(40_000, 0, 2_000), 1);
    spec.read_pct = 0;
    tb.add_workload(spec).expect("admitted");
    tb.run(SimDuration::from_millis(50));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(400));
    let report = tb.report();
    let w = report.workload("probe");
    let avg = w.write_latency.mean().as_micros_f64();
    assert!((22.0..45.0).contains(&avg), "reflex/ix write avg {avg}");
}

#[test]
fn reflex_unloaded_latency_linux_client_slightly_higher() {
    let run = |stack: StackProfile, seed: u64| {
        let mut tb = Testbed::builder()
            .client_machines(vec![stack])
            .seed(seed)
            .build();
        let spec = WorkloadSpec::closed_loop("probe", TenantId(1), lc(20_000, 100, 500), 1);
        tb.add_workload(spec).expect("admitted");
        tb.run(SimDuration::from_millis(50));
        tb.begin_measurement();
        tb.run(SimDuration::from_millis(300));
        tb.report().workload("probe").mean_read_us()
    };
    let ix = run(StackProfile::ix_tcp(), 7);
    let linux = run(StackProfile::linux_tcp(), 7);
    // Paper: 117 vs 99 — Linux client adds ~18us.
    let delta = linux - ix;
    assert!(
        (10.0..40.0).contains(&delta),
        "linux-client delta {delta}us (ix {ix}, linux {linux})"
    );
}

#[test]
fn reflex_single_core_approaches_850k_iops_1kb() {
    // Paper §5.3: up to 850K IOPS per core for 1KB read-only requests.
    let mut tb = Testbed::builder()
        .seed(8)
        .client_machines(vec![StackProfile::ix_tcp(), StackProfile::ix_tcp()])
        .build();
    for (i, machine) in [(0u32, 0usize), (1, 1)] {
        let mut spec = WorkloadSpec::open_loop(
            &format!("blast{i}"),
            TenantId(i + 1),
            TenantClass::BestEffort,
            600_000.0,
        );
        spec.io_size = 1024;
        spec.conns = 64;
        spec.client_threads = 8;
        spec.client_machine = machine;
        tb.add_workload(spec).expect("admitted");
    }
    tb.run(SimDuration::from_millis(60));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(150));
    let report = tb.report();
    let total: f64 = report.workloads.iter().map(|w| w.iops).sum();
    assert!(
        (750_000.0..950_000.0).contains(&total),
        "single-core ReFlex 1KB IOPS {total}"
    );
}

#[test]
fn slo_enforced_against_write_heavy_interference() {
    // Miniature Figure 5: an LC reader sharing the device with a
    // write-heavy best-effort tenant keeps its p95 under the SLO.
    let mut tb = Testbed::builder().seed(9).build();
    let slo_us = 500;
    let mut lc_spec =
        WorkloadSpec::open_loop("lc", TenantId(1), lc(120_000, 100, slo_us), 120_000.0);
    lc_spec.conns = 16;
    lc_spec.client_threads = 4;
    tb.add_workload(lc_spec).expect("LC admitted");

    let mut be_spec =
        WorkloadSpec::open_loop("be-writer", TenantId(2), TenantClass::BestEffort, 200_000.0);
    be_spec.read_pct = 25;
    be_spec.conns = 16;
    be_spec.client_threads = 4;
    tb.add_workload(be_spec).expect("BE always admitted");

    tb.run(SimDuration::from_millis(100));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(400));
    let report = tb.report();
    let lc_w = report.workload("lc");
    assert!(
        lc_w.iops > 110_000.0,
        "LC throughput {} below its 120K reservation",
        lc_w.iops
    );
    let p95 = lc_w.p95_read_us();
    assert!(
        p95 < slo_us as f64 * 1.1,
        "LC p95 {p95}us violates the {slo_us}us SLO"
    );
    // The BE tenant is heavily rate-limited but not starved.
    let be_w = report.workload("be-writer");
    assert!(be_w.iops > 5_000.0, "BE starved: {}", be_w.iops);
}

#[test]
fn without_qos_interference_destroys_tail_latency() {
    // Same scenario with the scheduler effectively disabled: tokens are
    // unlimited, so the write burst floods the device and the reader's
    // p95 collapses (Figure 5a, "I/O sched disabled").
    let mut tb = Testbed::builder()
        .seed(9)
        .capacity(CapacityProfile::unlimited())
        .build();
    let mut lc_spec = WorkloadSpec::open_loop("lc", TenantId(1), lc(120_000, 100, 500), 120_000.0);
    lc_spec.conns = 16;
    lc_spec.client_threads = 4;
    tb.add_workload(lc_spec).expect("admitted");
    let mut be_spec =
        WorkloadSpec::open_loop("be-writer", TenantId(2), TenantClass::BestEffort, 200_000.0);
    be_spec.read_pct = 25;
    be_spec.conns = 16;
    be_spec.client_threads = 4;
    tb.add_workload(be_spec).expect("admitted");

    tb.run(SimDuration::from_millis(100));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(400));
    let report = tb.report();
    let p95 = report.workload("lc").p95_read_us();
    assert!(
        p95 > 1_000.0,
        "without QoS the reader's p95 should collapse; got {p95}us"
    );
}

#[test]
fn admission_control_rejects_oversubscription() {
    let mut tb = Testbed::builder().seed(10).build();
    // 330K tokens/s available at 500us (simulated device A). The first
    // tenant reserves 0.8*100K*1 + 0.2*100K*10 = 280K tokens/s.
    tb.add_workload(WorkloadSpec::open_loop(
        "a",
        TenantId(1),
        lc(100_000, 80, 500),
        10_000.0,
    ))
    .expect("280K of 330K fits");
    // Another 280K would oversubscribe: rejected.
    let err = tb.add_workload(WorkloadSpec::open_loop(
        "b",
        TenantId(2),
        lc(100_000, 80, 500),
        10_000.0,
    ));
    assert!(
        matches!(err, Err(TestbedError::Admission(_))),
        "oversubscription must be rejected"
    );
    // A modest third tenant still fits (40K more -> 320K total).
    tb.add_workload(WorkloadSpec::open_loop(
        "c",
        TenantId(3),
        lc(40_000, 100, 500),
        10_000.0,
    ))
    .expect("40K more fits in 330K");
}

#[test]
fn multi_thread_server_scales_throughput() {
    let mut tb = Testbed::builder()
        .seed(11)
        .server(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .client_machines(vec![StackProfile::ix_tcp(), StackProfile::ix_tcp()])
        .link(reflex_net::LinkConfig::forty_gbe())
        .build();
    for i in 0..2u32 {
        let mut spec = WorkloadSpec::open_loop(
            &format!("t{i}"),
            TenantId(i + 1),
            TenantClass::BestEffort,
            700_000.0,
        );
        spec.io_size = 1024;
        spec.conns = 64;
        spec.client_threads = 8;
        spec.client_machine = i as usize;
        tb.add_workload(spec).expect("admitted");
    }
    tb.run(SimDuration::from_millis(60));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(150));
    let report = tb.report();
    let total: f64 = report.workloads.iter().map(|w| w.iops).sum();
    // Two cores: the device's ~1M read-only IOPS becomes the limit
    // (queueing keeps the achieved rate slightly below the ceiling).
    assert!(
        (850_000.0..1_100_000.0).contains(&total),
        "2-core ReFlex should approach the device limit; got {total}"
    );
}

#[test]
fn identical_seeds_give_identical_results() {
    let run = || {
        let mut tb = Testbed::builder().seed(123).build();
        let mut spec = WorkloadSpec::open_loop("x", TenantId(1), lc(100_000, 90, 1_000), 90_000.0);
        spec.read_pct = 90;
        spec.conns = 8;
        tb.add_workload(spec).expect("admitted");
        tb.run(SimDuration::from_millis(50));
        tb.begin_measurement();
        tb.run(SimDuration::from_millis(100));
        let r = tb.report();
        let w = r.workload("x");
        (
            w.iops.to_bits(),
            w.read_latency.count(),
            w.p95_read_us().to_bits(),
            w.write_latency.count(),
        )
    };
    assert_eq!(run(), run(), "simulation must be deterministic");
}

#[test]
fn report_counts_wake_churn() {
    let run = || {
        let mut tb = Testbed::builder().seed(123).build();
        let mut spec = WorkloadSpec::open_loop("x", TenantId(1), lc(100_000, 90, 1_000), 90_000.0);
        spec.conns = 8;
        tb.add_workload(spec).expect("admitted");
        tb.begin_measurement();
        tb.run(SimDuration::from_millis(100));
        tb.report()
    };
    let r = run();
    let w = r.wakes;
    let completed = r.workload("x").read_latency.count() + r.workload("x").write_latency.count();
    assert!(completed > 5_000, "{completed} completions");
    // Every wake armed either fired, was cancelled, or is still pending
    // (at most one per server thread).
    let pumped = w.thread_armed - w.thread_cancelled;
    assert!(pumped > 0 && pumped <= r.engine_events, "{w:?}");
    // Nothing here reacts to a response, so the client machine is never
    // woken: each response is absorbed by a pump or by the end of the run
    // (the client-wake ledger of a closed-loop run is pinned in
    // `lazy_clients.rs::closed_loop_machines_keep_their_wakes`).
    assert_eq!((w.client_armed, w.client_polls), (0, 0), "{w:?}");
    assert!(w.client_absorbed >= completed, "{w:?}");
    assert_eq!(w, run().wakes, "wake counts are deterministic");
}

#[test]
fn a_hot_thread_arms_each_wake_once() {
    // One server thread at 0.9x its knee (fig4 ReFlex-1T): four IX client
    // machines, 40GbE, 1KB reads. The thread is never idle for long, so
    // nearly every pump re-arms its wake — once, at the earlier of its
    // queue's next arrival and the pump's hint.
    let run = || {
        let mut tb = Testbed::builder()
            .seed(31)
            .link(reflex_net::LinkConfig::forty_gbe())
            .client_machines(vec![StackProfile::ix_tcp(); 4])
            .build();
        for t in 0..4u32 {
            let mut spec = WorkloadSpec::open_loop(
                &format!("t{t}"),
                TenantId(t + 1),
                TenantClass::BestEffort,
                810_000.0 / 4.0,
            );
            spec.read_pct = 100;
            spec.io_size = 1024;
            spec.conns = 48;
            spec.client_threads = 8;
            spec.client_machine = t as usize;
            tb.add_workload(spec).expect("admitted");
        }
        tb.run(SimDuration::from_millis(2));
        tb.begin_measurement();
        tb.run(SimDuration::from_millis(10));
        tb.report()
    };
    let r = run();
    let w = r.wakes;
    let completed: u64 = r.workloads.iter().map(|w| w.read_latency.count()).sum();
    assert!(completed > 6_000, "{completed} completions");
    // Wakes sit on exact instants, so a pump always finds work and serves
    // what queued up behind the core-busy horizon in one go: 2 858 pumps
    // in 12 ms of 810 K requests/s. A wake that fires before its message
    // can be polled shows up here as a pump per request.
    let pumps = w.thread_armed - w.thread_cancelled;
    assert!(pumps * 2 <= completed, "{pumps} pumps, {w:?}");
    // With one thread only a send can cancel its wake: one armed for a
    // completion or a scheduling round that a new request's arrival then
    // preceded. 2 340 of 5 198 here (45 %), each replaced by exactly one
    // earlier wake.
    assert!(
        w.thread_cancelled * 2 <= w.thread_armed,
        "more than half of thread wakes cancelled: {w:?}"
    );
    // Open-loop clients arm no wake at all (`lazy_clients.rs` holds the
    // client-wake clauses, on a closed-loop run).
    assert_eq!(w.client_armed, 0, "{w:?}");
    assert_eq!(w, run().wakes, "wake counts are deterministic");
}

#[test]
fn deficit_notifications_surface_in_report() {
    // A tenant whose SLO reserves far less than it issues hits NEG_LIMIT
    // and gets flagged for renegotiation; one served within its
    // reservation beside it never is.
    let mut tb = Testbed::builder().seed(13).build();
    let mut spec = WorkloadSpec::open_loop("greedy", TenantId(1), lc(10_000, 100, 500), 80_000.0);
    spec.conns = 8;
    tb.add_workload(spec).expect("admitted");
    let modest = WorkloadSpec::open_loop("modest", TenantId(2), lc(20_000, 100, 500), 10_000.0);
    tb.add_workload(modest).expect("admitted");
    tb.run(SimDuration::from_millis(50));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(200));
    let report = tb.report();
    assert_eq!(
        report.renegotiations,
        [TenantId(1)],
        "only the greedy tenant should be flagged"
    );
    let modest = report.workload("modest");
    assert!(modest.iops > 9_500.0, "modest got {} IOPS", modest.iops);
    // And it must have been rate-limited to roughly its reservation.
    let w = report.workload("greedy");
    assert!(
        w.iops < 30_000.0,
        "rate limiting failed: greedy got {} IOPS on a 10K SLO",
        w.iops
    );
}

#[test]
fn zero_propagation_link_delivers() {
    // A back-to-back link (no switch) is a legal configuration: arrivals
    // are computed from serialization and stack latency alone.
    let link = reflex_net::LinkConfig {
        propagation: SimDuration::ZERO,
        ..reflex_net::LinkConfig::default()
    };
    let mut tb = Testbed::builder().seed(5).link(link).build();
    let spec = WorkloadSpec::closed_loop("qd1", TenantId(1), TenantClass::BestEffort, 1);
    tb.add_workload(spec).expect("admitted");
    tb.run(SimDuration::from_millis(5));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(20));
    let r = tb.report();
    let w = r.workload("qd1");
    assert!(
        w.read_latency.count() > 100,
        "{} reads",
        w.read_latency.count()
    );
    assert_eq!(w.errors, 0);
    assert_eq!(r.wakes.client_polls_empty, 0, "{:?}", r.wakes);
}
