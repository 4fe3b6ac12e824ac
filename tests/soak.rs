//! Soak test: a two-second mixed scenario — tenants of every class, a
//! sharded tenant, writes and a Zipfian hot spot on two threads —
//! verifying global invariants at the end.

use reflex::core::{ServerConfig, Testbed, WorkloadSpec};
use reflex::qos::{SloSpec, TenantClass, TenantId};
use reflex::sim::SimDuration;
use reflex::telemetry::{Stage, TenantKey};

#[test]
fn two_second_mixed_soak_holds_invariants() {
    let mut tb = Testbed::builder()
        .seed(1234)
        .server(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .client_machines(vec![
            reflex::net::StackProfile::ix_tcp(),
            reflex::net::StackProfile::linux_tcp(),
        ])
        .build();
    // Instrument the whole soak: recording is passive, and the exit
    // checks below hold the sink to the conservation invariants.
    tb.enable_telemetry();

    // LC tenants of different classes and ratios.
    let lc = |iops, read_pct, p95_us| {
        TenantClass::LatencyCritical(SloSpec::new(
            iops,
            read_pct,
            SimDuration::from_micros(p95_us),
        ))
    };
    let mut spec = WorkloadSpec::open_loop("gold", TenantId(1), lc(80_000, 100, 500), 80_000.0);
    spec.conns = 8;
    spec.client_threads = 4;
    tb.add_workload(spec).expect("admitted");

    let mut spec = WorkloadSpec::open_loop("mixed", TenantId(2), lc(30_000, 80, 1_000), 30_000.0);
    spec.read_pct = 80;
    spec.conns = 4;
    spec.client_threads = 2;
    spec.client_machine = 1;
    tb.add_workload(spec).expect("admitted");

    // A sharded bulk reader and a write-heavy BE tenant.
    let mut spec = WorkloadSpec::closed_loop("bulk", TenantId(3), TenantClass::BestEffort, 8);
    spec.conns = 8;
    spec.client_threads = 4;
    spec.shards = 2;
    tb.add_workload(spec).expect("accepted");

    let mut spec = WorkloadSpec::closed_loop("writer", TenantId(4), TenantClass::BestEffort, 8);
    spec.read_pct = 10;
    spec.conns = 4;
    spec.client_threads = 2;
    spec.client_machine = 1;
    tb.add_workload(spec).expect("accepted");

    // Zipfian hot-spot tenant.
    let mut spec = WorkloadSpec::open_loop("hot", TenantId(5), TenantClass::BestEffort, 20_000.0);
    spec.addr_pattern = reflex::core::AddrPattern::Zipfian {
        theta_permille: 990,
    };
    spec.conns = 4;
    spec.client_threads = 2;
    tb.add_workload(spec).expect("accepted");

    tb.run(SimDuration::from_millis(200));
    tb.begin_measurement();
    tb.run(SimDuration::from_secs(2));
    let report = tb.report();

    // 1. LC tenants keep their SLOs.
    let gold = report.workload("gold");
    assert!(gold.iops > 75_000.0, "gold IOPS {:.0}", gold.iops);
    assert!(
        gold.p95_read_us() < 550.0,
        "gold p95 {:.0}",
        gold.p95_read_us()
    );
    let mixed = report.workload("mixed");
    assert!(mixed.iops > 28_000.0, "mixed IOPS {:.0}", mixed.iops);
    assert!(
        mixed.p95_read_us() < 1_100.0,
        "mixed p95 {:.0}",
        mixed.p95_read_us()
    );

    // 2. Nobody starves and nothing errors.
    for w in &report.workloads {
        assert!(w.iops > 100.0, "{} starved: {:.0}", w.name, w.iops);
        assert_eq!(w.errors, 0, "{} saw errors", w.name);
    }

    // 3. Token spend stays within the device budget for the strictest SLO.
    let budget = tb
        .world()
        .server()
        .capacity()
        .tokens_per_sec_at(SimDuration::from_micros(500));
    assert!(
        report.token_usage_per_sec <= budget * 1.05,
        "token usage {:.0} exceeds budget {budget:.0}",
        report.token_usage_per_sec
    );

    // 4. Server counters are consistent: a thread submits only requests
    // it received, and completes only what it submitted.
    for t in &report.threads {
        let s = t.stats.expect("reflex threads expose stats");
        assert!(s.completed <= s.submitted);
        assert!(s.submitted <= s.rx_msgs, "{} > {}", s.submitted, s.rx_msgs);
        assert_eq!(s.unbound_conns, 0);
        assert_eq!(s.decode_errors, 0);
    }

    // 5. The throughput time series covers the whole window.
    assert!(
        gold.iops_series.len() >= 190,
        "series too short: {} points",
        gold.iops_series.len()
    );

    // 6. Telemetry recorded the soak: per-stage spans exist for every
    // tenant the dataplane served, and the SLO monitor closed rolling
    // windows for the LC tenants.
    let snap = report.telemetry.as_ref().expect("telemetry enabled");
    for tenant in [1u32, 2, 4, 5] {
        let t = TenantKey(tenant);
        for stage in [Stage::NicQueue, Stage::Dataplane, Stage::Channel, Stage::Cq] {
            let h = snap
                .stage(t, stage)
                .unwrap_or_else(|| panic!("tenant {tenant} missing {} span", stage.name()));
            assert!(!h.is_empty(), "tenant {tenant} empty {} span", stage.name());
        }
    }
    // The sharded tenant ("bulk") serves traffic under its internal
    // shard ids (0x8000_0000..), one per thread it spans.
    let shard_spans = snap
        .spans
        .keys()
        .filter(|(t, s)| t.0 >= 0x8000_0000 && t.0 != u32::MAX && *s == Stage::Channel)
        .count();
    assert!(
        shard_spans >= 2,
        "expected >= 2 shard span keys, got {shard_spans}"
    );
    for tenant in [1u32, 2] {
        let slo = &snap.slo[&TenantKey(tenant)];
        assert!(slo.windows > 0, "tenant {tenant} closed no SLO windows");
        assert!(slo.target_p95_nanos > 0);
    }

    // 7. The world keeps functioning after the soak: one more burst runs
    // clean.
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(100));
    let after = tb.report();
    assert!(after.workload("gold").iops > 75_000.0);

    // 8. Exit conservation: stop the generators, let every queue drain,
    // then require exact balance — every accepted request was answered
    // (submitted == completed + failed + retried per tenant) and no span
    // is left open anywhere.
    tb.world_mut().stop_all_workloads();
    tb.run(SimDuration::from_millis(200));
    let drained = tb.telemetry_snapshot().expect("telemetry enabled");
    assert!(!drained.ios.is_empty(), "no IO counters recorded");
    for (tenant, io) in &drained.ios {
        assert_eq!(
            io.submitted,
            io.completed + io.failed + io.retried,
            "tenant {tenant:?} leaked IOs after drain: {io:?}"
        );
        assert_eq!(
            io.open_spans, 0,
            "tenant {tenant:?} left spans open after drain: {io:?}"
        );
        assert!(io.submitted > 0, "tenant {tenant:?} recorded no traffic");
    }
}
