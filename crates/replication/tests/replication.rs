//! End-to-end behavior of the replicated testbed: fan-out costs, quorum
//! reads, fault-driven failover and conservation.

use reflex_faults::{FaultKind, FaultPlan};
use reflex_qos::{SloSpec, TenantId};
use reflex_replication::{ReadPolicy, ReplTestbed, ReplWorkloadSpec};
use reflex_sim::{SimDuration, SimTime};

fn slo(iops: u64, read_pct: u8) -> SloSpec {
    SloSpec::new(iops, read_pct, SimDuration::from_micros(800))
}

fn spec(name: &str, iops: f64, policy: ReadPolicy) -> ReplWorkloadSpec {
    // Reserve 30% above the offered load: a quorum anchor routes *all*
    // reads through the primary, so a reservation equal to the offered
    // load leaves the promoted primary zero margin to drain the
    // failover-blackout backlog.
    ReplWorkloadSpec::open_loop(name, TenantId(1), slo(iops as u64 * 13 / 10, 70), iops)
        .with_read_policy(policy)
}

#[test]
fn replicated_workload_completes_ios() {
    let mut tb = ReplTestbed::builder().sites(3).replication(3).build();
    tb.add_workload(spec("app", 20_000.0, ReadPolicy::Primary))
        .unwrap();
    assert_eq!(tb.member_sites(0).len(), 3);
    tb.run(SimDuration::from_millis(20));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(60));
    let report = tb.report();
    let w = report.workload("app");
    assert_eq!(w.errors, 0, "healthy run must not error: {w:?}");
    assert_eq!(w.exhausted, 0);
    // Open-loop at 20K IOPS: completions track the offered load.
    assert!(
        (w.iops - 20_000.0).abs() < 2_000.0,
        "iops {:.0} far from offered 20K",
        w.iops
    );
    assert!(w.p95_read_us() > 0.0 && w.p95_write_us() > 0.0);
}

#[test]
fn quorum_reads_cost_more_than_primary_reads() {
    let run = |policy| {
        let mut tb = ReplTestbed::builder().sites(3).replication(3).build();
        tb.add_workload(spec("app", 20_000.0, policy)).unwrap();
        tb.run(SimDuration::from_millis(20));
        tb.begin_measurement();
        tb.run(SimDuration::from_millis(60));
        tb.report().workload("app").mean_read_us()
    };
    let primary = run(ReadPolicy::Primary);
    let quorum = run(ReadPolicy::Quorum);
    // A quorum read waits for the max of Q=2 sub-reads, so its mean is
    // strictly above the single-sub primary read.
    assert!(
        quorum > primary,
        "quorum mean read {quorum:.1}us not above primary {primary:.1}us"
    );
}

#[test]
fn quorum_replication_costs_more_than_single_copy_reads() {
    let run = |sites, r, policy| {
        let mut tb = ReplTestbed::builder().sites(sites).replication(r).build();
        tb.add_workload(spec("app", 20_000.0, policy)).unwrap();
        tb.run(SimDuration::from_millis(20));
        tb.begin_measurement();
        tb.run(SimDuration::from_millis(60));
        tb.report().workload("app").mean_read_us()
    };
    let single = run(1, 1, ReadPolicy::Primary);
    let triple = run(3, 3, ReadPolicy::Quorum);
    // The primary anchors every read quorum, so it carries the same load
    // as the single-copy server — and the quorum read waits for the max
    // of Q=2 sub-reads on top of that. Strictly costlier.
    assert!(
        triple > single,
        "R=3 quorum mean read {triple:.1}us not above single-copy {single:.1}us"
    );
}

fn mean_write_us_of(report: &reflex_replication::ReplReport) -> f64 {
    report.workload("app").write_latency.mean().as_micros_f64()
}

#[test]
fn server_death_fails_over_promotes_and_resyncs() {
    let mut tb = ReplTestbed::builder()
        .sites(4)
        .replication(3)
        .resync_bandwidth(2.0 * (1u64 << 30) as f64)
        .build();
    // A small namespace keeps the modelled re-sync inside the run.
    tb.add_workload(spec("app", 20_000.0, ReadPolicy::Quorum).with_namespace(0, 8 << 20))
        .unwrap();
    let members_before = tb.member_sites(0);
    let victim = members_before[0];
    let spare: usize = (0..4).find(|s| !members_before.contains(s)).unwrap();
    let death = SimTime::ZERO + SimDuration::from_millis(50);
    let plan = FaultPlan::seeded(7).with_event(death, FaultKind::ServerDeath { server: victim });
    let _stats = tb.install(&plan);
    tb.run(SimDuration::from_millis(30));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(170));
    let report = tb.report();
    // Failover happened: the victim left the set, the spare joined in its
    // slot, and the re-sync completed within the run.
    let members_after = tb.member_sites(0);
    assert_eq!(members_after.len(), 3);
    assert!(!members_after.contains(&victim));
    assert!(members_after.contains(&spare));
    assert_eq!(report.recoveries.len(), 1);
    let rec = report.recoveries[0];
    assert_eq!(rec.tenant, TenantId(1));
    assert_eq!(rec.died_at, death);
    assert_eq!(
        rec.failover_at,
        death + SimDuration::from_millis(30),
        "failover fires after the detection delay"
    );
    assert_eq!(rec.new_site, Some(spare));
    let resync_done = rec.resync_done_at.expect("a spare site means replacement");
    assert!(resync_done > rec.failover_at);
    assert!(tb.now() > resync_done, "run covers the re-sync");
    // R=3 quorum (2-of-3) survives one death: the workload kept serving
    // through the blackout and recovered to the offered load.
    let w = report.workload("app");
    assert!(w.iops > 15_000.0, "iops collapsed to {:.0}", w.iops);
    let tail: Vec<_> = w.iops_series.iter().rev().take(4).collect();
    for p in tail {
        assert!(
            p.rate_per_sec > 15_000.0,
            "post-recovery bucket at {:?} only {:.0}/s",
            p.at,
            p.rate_per_sec
        );
    }
}

#[test]
fn death_without_spare_degrades_the_set() {
    let mut tb = ReplTestbed::builder().sites(3).replication(3).build();
    tb.add_workload(spec("app", 20_000.0, ReadPolicy::Quorum))
        .unwrap();
    let victim = tb.member_sites(0)[2];
    let death = SimTime::ZERO + SimDuration::from_millis(40);
    let plan = FaultPlan::seeded(9).with_event(death, FaultKind::ServerDeath { server: victim });
    let _stats = tb.install(&plan);
    tb.run(SimDuration::from_millis(30));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(120));
    let report = tb.report();
    // No spare exists, so the set degrades to R=2 and keeps serving.
    let members_after = tb.member_sites(0);
    assert_eq!(members_after.len(), 2);
    assert!(!members_after.contains(&victim));
    assert_eq!(report.recoveries.len(), 1);
    assert_eq!(report.recoveries[0].new_site, None);
    assert_eq!(report.recoveries[0].resync_done_at, None);
    let w = report.workload("app");
    assert!(
        w.iops > 10_000.0,
        "degraded set stopped serving: {:.0}",
        w.iops
    );
}

#[test]
fn conservation_holds_across_replica_death_and_promotion() {
    let mut tb = ReplTestbed::builder().sites(4).replication(3).build();
    tb.enable_telemetry();
    tb.add_workload(spec("app", 25_000.0, ReadPolicy::Quorum).with_namespace(0, 8 << 20))
        .unwrap();
    // Kill the primary's site so the failover also has to promote.
    let victim = tb.member_sites(0)[tb.world().primary_slot(0)];
    let death = SimTime::ZERO + SimDuration::from_millis(40);
    let plan = FaultPlan::seeded(11).with_event(death, FaultKind::ServerDeath { server: victim });
    let _stats = tb.install(&plan);
    tb.run(SimDuration::from_millis(150));
    // Stop the generators, let every queue (including the dead site's
    // draining aborts) settle, then require exact balance.
    tb.world_mut().stop_all_workloads();
    tb.run(SimDuration::from_millis(200));
    let drained = tb.telemetry_snapshot().expect("telemetry enabled");
    assert!(!drained.ios.is_empty(), "no IO counters recorded");
    for (tenant, io) in &drained.ios {
        assert_eq!(
            io.submitted,
            io.completed + io.failed + io.retried,
            "tenant {tenant:?} leaked IOs across failover: {io:?}"
        );
        assert_eq!(
            io.open_spans, 0,
            "tenant {tenant:?} left spans open after drain: {io:?}"
        );
        assert!(io.submitted > 0, "tenant {tenant:?} recorded no traffic");
    }
    // The failover itself was counted.
    let count = |name: &str| drained.counters.get(name).copied().unwrap_or(0);
    assert_eq!(count("replication.server_deaths"), 1);
    assert_eq!(count("replication.failovers"), 1);
    assert_eq!(count("replication.promotions"), 1);
    assert_eq!(count("replication.resyncs_done"), 1);
}

#[test]
fn quorum_membership_survives_in_report_consistency() {
    // Writes during an R=2 blackout stall until failover (2-of-2 quorum
    // includes the dead member), so mean write latency under death is
    // strictly above a healthy run — the effect the recovery figure plots.
    let run = |plan: Option<FaultPlan>| {
        let mut tb = ReplTestbed::builder().sites(3).replication(2).build();
        tb.add_workload(spec("app", 15_000.0, ReadPolicy::Primary).with_namespace(0, 8 << 20))
            .unwrap();
        if let Some(p) = &plan {
            let _ = tb.install(p);
        }
        tb.run(SimDuration::from_millis(30));
        tb.begin_measurement();
        tb.run(SimDuration::from_millis(150));
        tb.report()
    };
    let healthy = run(None);
    let victim = {
        let tb = ReplTestbed::builder().sites(3).replication(2).build();
        let mut tb = tb;
        tb.add_workload(spec("app", 15_000.0, ReadPolicy::Primary))
            .unwrap();
        tb.member_sites(0)[0]
    };
    let dead = run(Some(FaultPlan::seeded(13).with_event(
        SimTime::ZERO + SimDuration::from_millis(60),
        FaultKind::ServerDeath { server: victim },
    )));
    assert!(dead.recoveries.len() == 1);
    assert!(
        mean_write_us_of(&dead) > mean_write_us_of(&healthy),
        "death run writes {:.1}us not above healthy {:.1}us",
        mean_write_us_of(&dead),
        mean_write_us_of(&healthy)
    );
}
