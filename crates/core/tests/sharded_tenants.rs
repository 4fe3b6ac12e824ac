//! Multi-thread (sharded) tenants — the paper's §4.1 limitation removed:
//! "we will load balance connections for individual tenants across threads
//! if their overall demands exceed a single thread's throughput."

use reflex_core::{ServerConfig, Testbed, WorkloadSpec};
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::SimDuration;

fn blast(shards: u32, threads: u32) -> f64 {
    let mut tb = Testbed::builder()
        .seed(81)
        .server(ServerConfig {
            threads,
            max_threads: threads,
            ..ServerConfig::default()
        })
        .client_machines(vec![StackProfile::ix_tcp(), StackProfile::ix_tcp()])
        .link(LinkConfig::forty_gbe())
        .build();
    let mut spec =
        WorkloadSpec::open_loop("big", TenantId(1), TenantClass::BestEffort, 1_200_000.0);
    spec.io_size = 1024;
    spec.conns = 64;
    spec.client_threads = 16;
    spec.shards = shards;
    tb.add_workload(spec).expect("accepted");
    tb.run(SimDuration::from_millis(60));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(150));
    tb.report().workload("big").iops
}

#[test]
fn one_tenant_exceeds_single_core_when_sharded() {
    // The paper's limitation: one tenant = one thread, capped at ~850K.
    let single = blast(1, 2);
    assert!(
        (700_000.0..900_000.0).contains(&single),
        "single-shard tenant should cap at one core: {single:.0}"
    );
    // Sharded across 2 threads: the device limit (~1M) becomes the cap.
    let sharded = blast(2, 2);
    assert!(
        sharded > single + 100_000.0,
        "sharding should lift the cap: {single:.0} -> {sharded:.0}"
    );
}

#[test]
fn sharded_lc_tenant_keeps_its_slo() {
    let mut tb = Testbed::builder()
        .seed(82)
        .server(ServerConfig {
            threads: 2,
            max_threads: 2,
            ..ServerConfig::default()
        })
        .build();
    // 200K IOPS, 100% read, 500us SLO: within capacity but beyond what a
    // busy single thread could comfortably schedule alongside others.
    let slo = SloSpec::new(200_000, 100, SimDuration::from_micros(500));
    let mut spec = WorkloadSpec::open_loop(
        "wide",
        TenantId(1),
        TenantClass::LatencyCritical(slo),
        200_000.0,
    );
    spec.conns = 16;
    spec.client_threads = 4;
    spec.shards = 2;
    tb.add_workload(spec).expect("admitted");
    tb.run(SimDuration::from_millis(100));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(300));
    let report = tb.report();
    let w = report.workload("wide");
    assert!(w.iops > 190_000.0, "sharded LC got {:.0}", w.iops);
    assert!(
        w.p95_read_us() < 550.0,
        "sharded LC p95 {:.0}us breaks the 500us SLO",
        w.p95_read_us()
    );
    assert_eq!(w.errors, 0);
    // Token accounting aggregates the shards. The workload is read-only,
    // so the device is in read-only mode and each 4KB read costs 1/2
    // token: 200K IOPS = ~100K tokens/s.
    assert!(
        (90_000.0..110_000.0).contains(&report.token_usage_per_sec),
        "token usage {:.0}",
        report.token_usage_per_sec
    );
}

#[test]
fn sharding_spreads_work_across_both_threads() {
    let mut tb = Testbed::builder()
        .seed(83)
        .server(ServerConfig {
            threads: 2,
            max_threads: 2,
            ..ServerConfig::default()
        })
        .build();
    let mut spec = WorkloadSpec::open_loop("wide", TenantId(1), TenantClass::BestEffort, 200_000.0);
    spec.conns = 8;
    spec.client_threads = 4;
    spec.shards = 2;
    tb.add_workload(spec).expect("accepted");
    tb.run(SimDuration::from_millis(50));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(200));
    let report = tb.report();
    let rx: Vec<u64> = report
        .threads
        .iter()
        .map(|t| t.stats.map(|s| s.rx_msgs).unwrap_or(0))
        .collect();
    assert_eq!(rx.len(), 2);
    let ratio = rx[0] as f64 / rx[1].max(1) as f64;
    assert!(
        (0.7..1.4).contains(&ratio),
        "shard traffic should split roughly evenly: {rx:?}"
    );
}
