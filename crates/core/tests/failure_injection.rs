//! End-to-end failure injection: media errors surface to clients as error
//! responses while healthy traffic is unaffected.

use reflex_core::{Testbed, WorkloadSpec};
use reflex_faults::{install, FaultKind, FaultPlan};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::{SimDuration, SimTime};
use reflex_telemetry::TenantKey;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

#[test]
fn media_errors_reach_the_client_as_error_responses() {
    let mut profile = reflex_flash::device_a();
    profile.media_error_rate = 0.02;
    let mut tb = Testbed::builder().seed(91).device(profile).build();
    let slo = SloSpec::new(50_000, 100, SimDuration::from_micros(500));
    let mut spec = WorkloadSpec::open_loop(
        "app",
        TenantId(1),
        TenantClass::LatencyCritical(slo),
        50_000.0,
    );
    spec.conns = 8;
    tb.add_workload(spec).expect("admitted");
    tb.run(SimDuration::from_millis(50));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(300));
    let report = tb.report();
    let w = report.workload("app");
    let total = w.read_latency.count() + w.errors;
    let rate = w.errors as f64 / total.max(1) as f64;
    assert!(
        (0.012..0.032).contains(&rate),
        "client-observed error rate {rate} ({} of {total})",
        w.errors
    );
    // Healthy requests keep their latency profile.
    assert!(w.p95_read_us() < 500.0, "p95 {}", w.p95_read_us());
}

/// A request ends once, with one meaning: the series counts successes
/// only, every failure counts in `exhausted` (and in `errors` inside the
/// window), and a failed read's wait reaches the SLO monitor — so after
/// the device dies the tenant's SLO windows keep closing, on failures.
#[test]
fn a_plain_request_ends_in_one_place() {
    let mut tb = Testbed::builder().seed(92).build();
    tb.enable_telemetry();
    let slo = SloSpec::new(50_000, 100, SimDuration::from_micros(500));
    let spec = WorkloadSpec::open_loop(
        "app",
        TenantId(1),
        TenantClass::LatencyCritical(slo),
        50_000.0,
    );
    tb.add_workload(spec).expect("admitted");
    let plan = FaultPlan::seeded(1).with_event(SimTime::ZERO + ms(40), FaultKind::DeviceDeath);
    let _stats = install(&plan, &mut tb);
    tb.run(ms(20));
    tb.begin_measurement();
    tb.run(ms(100));
    let report = tb.report();
    let w = report.workload("app");
    let completed = (w.iops * report.window.as_secs_f64()).round() as u64;
    assert!(completed > 0 && w.errors > 0, "{w:?}");
    assert_eq!(w.exhausted, w.errors, "every failure is exhausted");
    let series: u64 = w.iops_series.iter().map(|p| p.count).sum();
    assert_eq!(series, completed, "the series counts successes only");
    // The monitor sees requests issued in the window: 100 ms of 10 ms
    // windows, of which the device served the first 20 ms.
    let windows = tb.telemetry_snapshot().expect("enabled").slo[&TenantKey(1)].windows;
    assert!(windows >= 9, "{windows} SLO windows closed");
}

/// A closed loop re-issues on every end, failures included: a dead device
/// answers each request with an error, and the loop keeps its depth.
#[test]
fn a_closed_loop_keeps_its_depth_through_failures() {
    let mut tb = Testbed::builder().seed(93).build();
    let spec = WorkloadSpec::closed_loop("app", TenantId(1), TenantClass::BestEffort, 4);
    tb.add_workload(spec).expect("admitted");
    let plan = FaultPlan::seeded(1).with_event(SimTime::ZERO + ms(5), FaultKind::DeviceDeath);
    let _stats = install(&plan, &mut tb);
    tb.run(ms(10));
    tb.begin_measurement();
    tb.run(ms(10));
    let w = tb.report().workloads[0].clone();
    assert_eq!((w.iops, w.exhausted), (0.0, w.errors), "{w:?}");
    assert!(w.errors > 100, "the loop deflated: {w:?}");
}
