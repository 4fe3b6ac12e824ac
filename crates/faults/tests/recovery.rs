//! End-to-end recovery tests: a faulted testbed returns to service.

use reflex_core::{RetryPolicy, Testbed, WorkloadSpec};
use reflex_faults::{install, FaultKind, FaultPlan};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::{SimDuration, SimTime};

const OFFERED: f64 = 40_000.0;

fn testbed_with_retry(retry: RetryPolicy) -> Testbed {
    let mut tb = Testbed::builder().seed(5).server_threads(1).build();
    let slo = SloSpec::new(OFFERED as u64, 100, SimDuration::from_micros(500));
    tb.add_workload(
        WorkloadSpec::open_loop(
            "app",
            TenantId(1),
            TenantClass::LatencyCritical(slo),
            OFFERED,
        )
        .with_retry(retry),
    )
    .expect("workload accepted");
    tb
}

#[test]
fn transient_errors_recovered_with_bounded_p95_inflation() {
    let run = |rate: f64| {
        let mut tb = testbed_with_retry(RetryPolicy::standard());
        let plan = if rate > 0.0 {
            FaultPlan::seeded(11).with_event(
                SimTime::ZERO + SimDuration::from_millis(20),
                FaultKind::TransientDeviceErrors {
                    rate,
                    duration: SimDuration::from_millis(60),
                },
            )
        } else {
            FaultPlan::none()
        };
        let counts = install(&plan, &mut tb);
        tb.run(SimDuration::from_millis(20));
        tb.begin_measurement();
        tb.run(SimDuration::from_millis(60));
        (tb.report(), counts.get())
    };

    let (healthy, _) = run(0.0);
    let (faulted, snap) = run(0.05);
    let h = healthy.workload("app");
    let f = faulted.workload("app");

    assert!(snap.transient_errors > 0, "no faults injected");
    assert!(f.retries > 0 && f.retry_success > 0, "retries must fire");
    assert_eq!(
        f.exhausted, 0,
        "5% error rate must never exhaust 4 attempts"
    );
    // Goodput holds (retries refill the lost completions)...
    assert!(
        f.iops > 0.95 * h.iops,
        "faulted {} vs healthy {}",
        f.iops,
        h.iops
    );
    // ...and the tail inflates by at most the backoff budget, not
    // unboundedly (one retry after 50us backoff ~ doubles the RTT).
    assert!(
        f.p95_read_us() < 5.0 * h.p95_read_us(),
        "p95 inflated {} -> {}",
        h.p95_read_us(),
        f.p95_read_us()
    );
}

#[test]
fn link_flap_tears_down_and_rebinds_connections() {
    let mut tb = testbed_with_retry(RetryPolicy::standard());
    let down_for = SimDuration::from_millis(3);
    let plan = FaultPlan::seeded(13).with_event(
        SimTime::ZERO + SimDuration::from_millis(30),
        FaultKind::LinkFlap {
            client: 0,
            down_for,
        },
    );
    let counts = install(&plan, &mut tb);
    tb.run(SimDuration::from_millis(20));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(80));
    let report = tb.report();
    let w = report.workload("app");
    let snap = counts.get();

    assert_eq!(snap.link_downs, 1);
    assert!(
        snap.conns_torn_down > 0,
        "server must tear connections down"
    );
    assert_eq!(
        snap.conns_rebound, snap.conns_torn_down,
        "every torn connection must re-register"
    );
    assert!(snap.dropped > 0, "blackout must drop traffic");
    assert_eq!(snap.downtime, down_for);
    // Requests lost in the blackout come back via timeout + retry.
    assert!(w.timeouts > 0 && w.retry_success > 0);
    assert_eq!(w.exhausted, 0, "a 3ms flap is inside the retry budget");
    // Goodput over the window barely notices a 3ms outage in 80ms.
    assert!(w.iops > 0.9 * OFFERED, "iops {}", w.iops);
}

#[test]
fn thread_stall_backs_up_and_drains() {
    let run = |stall_us: u64| {
        let mut tb = testbed_with_retry(RetryPolicy::standard());
        let plan = if stall_us > 0 {
            FaultPlan::seeded(17).with_event(
                SimTime::ZERO + SimDuration::from_millis(30),
                FaultKind::ThreadStall {
                    thread: 0,
                    stall: SimDuration::from_micros(stall_us),
                },
            )
        } else {
            FaultPlan::none()
        };
        let counts = install(&plan, &mut tb);
        tb.run(SimDuration::from_millis(20));
        tb.begin_measurement();
        tb.run(SimDuration::from_millis(60));
        (tb.report(), counts.get())
    };

    let (healthy, _) = run(0);
    let (stalled, snap) = run(2_000);
    let h = healthy.workload("app");
    let s = stalled.workload("app");

    assert_eq!(snap.thread_stalls, 1);
    // The stall shows up in the tail (queued requests wait it out)...
    assert!(
        s.p95_read_us() > h.p95_read_us(),
        "stall must inflate the tail: {} vs {}",
        s.p95_read_us(),
        h.p95_read_us()
    );
    // ...but the backlog drains: goodput over the window holds and
    // nothing is abandoned.
    assert!(s.iops > 0.95 * h.iops, "iops {} vs {}", s.iops, h.iops);
    assert_eq!(s.exhausted, 0);
}

#[test]
fn device_death_exhausts_retries() {
    let mut tb = testbed_with_retry(RetryPolicy::standard());
    let plan = FaultPlan::seeded(19).with_event(
        SimTime::ZERO + SimDuration::from_millis(40),
        FaultKind::DeviceDeath,
    );
    let counts = install(&plan, &mut tb);
    tb.run(SimDuration::from_millis(20));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(60));
    let report = tb.report();
    let w = report.workload("app");
    let snap = counts.get();

    assert!(snap.dead_aborts > 0, "dead device must abort commands");
    assert!(w.retries > 0, "clients must try to recover");
    assert!(
        w.exhausted > 0,
        "a dead device is unrecoverable; retries must exhaust"
    );
}

#[test]
fn same_plan_same_seed_is_bit_identical() {
    let run = || {
        let mut tb = testbed_with_retry(RetryPolicy::standard());
        let plan = FaultPlan::seeded(23)
            .with_event(
                SimTime::ZERO + SimDuration::from_millis(25),
                FaultKind::TransientDeviceErrors {
                    rate: 0.03,
                    duration: SimDuration::from_millis(30),
                },
            )
            .with_event(
                SimTime::ZERO + SimDuration::from_millis(35),
                FaultKind::PacketLoss {
                    rate: 0.01,
                    duration: SimDuration::from_millis(20),
                },
            );
        let counts = install(&plan, &mut tb);
        tb.run(SimDuration::from_millis(20));
        tb.begin_measurement();
        tb.run(SimDuration::from_millis(50));
        let report = tb.report();
        let w = report.workload("app");
        (
            w.iops.to_bits(),
            w.p95_read_us().to_bits(),
            w.retries,
            w.retry_success,
            w.timeouts,
            counts.get(),
        )
    };
    assert_eq!(run(), run());
}
