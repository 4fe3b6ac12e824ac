//! Global control plane integration: the testbed's planner places
//! latency-critical tenants over `Testbed::builder().sites(n)` and the
//! same testbed runs them, demonstrating why SLO-aware placement matters
//! (paper §4.3 future work).

use reflex::core::{
    ArrivalProcess, PlacementError, Testbed, TestbedError, TestbedReport, WorkloadSpec,
};
use reflex::net::StackProfile;
use reflex::qos::{SloSpec, TenantClass, TenantId};
use reflex::sim::SimDuration;

/// Places each LC tenant (offered its full reservation, paced) as a
/// one-copy replicated workload, the `i`-th from client machine `i`; the
/// testbed's planner picks its site.
fn place(tb: &mut Testbed, tenants: &[(u32, SloSpec)]) -> Result<(), TestbedError> {
    for (machine, &(id, slo)) in tenants.iter().enumerate() {
        let mut spec =
            WorkloadSpec::replicated(&format!("t{id}"), TenantId(id), slo, slo.iops as f64);
        spec.arrival = ArrivalProcess::Paced;
        spec.conns = 8;
        spec.client_threads = 4;
        spec.client_machine = machine;
        tb.add_workload(spec)?;
    }
    Ok(())
}

/// Runs a cluster of `sites` device-A servers hosting `tenants`, plus one
/// best-effort filler on site 0 from a client machine of its own.
fn run_cluster(sites: usize, tenants: &[(u32, SloSpec)], seed: u64) -> (Testbed, TestbedReport) {
    let mut tb = Testbed::builder()
        .sites(sites)
        .client_machines(vec![StackProfile::ix_tcp(); tenants.len() + 1])
        .seed(seed)
        .build();
    place(&mut tb, tenants).expect("the planner has room");
    let mut be = WorkloadSpec::closed_loop("be", TenantId(999), TenantClass::BestEffort, 16);
    be.read_pct = 90;
    be.conns = 8;
    be.client_threads = 4;
    be.client_machine = tenants.len();
    tb.add_workload(be).expect("BE accepted");

    tb.run(SimDuration::from_millis(100));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(300));
    let report = tb.report();
    (tb, report)
}

#[test]
fn planner_decisions_hold_up_in_simulation() {
    let strict = SloSpec::new(60_000, 100, SimDuration::from_micros(400));
    let relaxed = SloSpec::new(150_000, 95, SimDuration::from_millis(2));
    let (tb, report) = run_cluster(2, &[(1, strict), (2, relaxed)], 101);
    let sites = |w| tb.world().member_sites(w);
    assert_ne!(
        sites(0),
        sites(1),
        "planner should separate the latency classes"
    );

    // Both servers meet their tenants' SLOs.
    let p95_strict = report.workload("t1").p95_read_us();
    assert!(p95_strict < 400.0, "strict tenant p95 {p95_strict:.0}us");
    let p95_relaxed = report.workload("t2").p95_read_us();
    assert!(
        p95_relaxed < 2_000.0,
        "relaxed tenant p95 {p95_relaxed:.0}us"
    );
}

#[test]
fn colocating_mixed_classes_wastes_best_effort_throughput() {
    // The planner's choice on two sites, relaxed tenant first: it takes
    // site 0 beside the filler, the strict one goes elsewhere. The
    // counterfactual forces both onto ONE site: the strict SLO caps the
    // whole server's token budget, so the best-effort filler collapses.
    let strict = SloSpec::new(60_000, 100, SimDuration::from_micros(400));
    let relaxed_small = SloSpec::new(40_000, 95, SimDuration::from_millis(2));
    let tenants = [(2, relaxed_small), (1, strict)];

    let (tb, separated) = run_cluster(2, &tenants, 103);
    assert_eq!(tb.world().member_sites(0), [0]);
    assert_eq!(tb.world().member_sites(1), [1]);
    let (_, mixed) = run_cluster(1, &tenants, 103);
    let (be_separated, be_mixed) = (separated.workload("be").iops, mixed.workload("be").iops);
    assert!(
        be_separated > be_mixed * 1.5,
        "separated BE {be_separated:.0} should dwarf mixed BE {be_mixed:.0}"
    );
}

#[test]
fn cluster_capacity_grows_with_servers() {
    let slo = SloSpec::new(100_000, 90, SimDuration::from_micros(500));
    let placed = |sites| {
        let mut tb = Testbed::builder().sites(sites).build();
        (0..10)
            .filter(|&i| match place(&mut tb, &[(i, slo)]) {
                Ok(()) => true,
                Err(TestbedError::Placement(PlacementError::NoCapacity { .. })) => false,
                Err(e) => panic!("tenant {i}: {e}"),
            })
            .count()
    };
    let (placed_small, placed_big) = (placed(1), placed(2));
    assert!(placed_small > 0);
    assert!(
        placed_big >= 2 * placed_small,
        "{placed_small} vs {placed_big}"
    );
}
