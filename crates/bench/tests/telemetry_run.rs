//! A real traced run, pinned byte for byte. One testbed emits every
//! counter a testbed run can: two server threads with latency-critical
//! and best-effort tenants behind a DRAM cache, a best-effort load deep
//! enough to fill a submission queue, device media errors, dropped and
//! duplicated messages, and a replicated workload whose primary dies
//! twice — once with a spare to fail over to, once with none that will
//! admit it. Telemetry is switched on only after a first run, so every
//! counter read off its owner must subtract what the owner had counted
//! before. `device.out_of_range` is the one counter no testbed reaches:
//! the dataplane's ACL turns such a request away before the device.
//!
//! Regenerate deliberately with `REFLEX_BLESS=1 cargo test -p reflex-bench
//! --test telemetry_run`, then run it again without the variable.

use reflex_core::{ServerConfig, Testbed, WorkloadSpec};
use reflex_dataplane::{AclEntry, CacheConfig, DataplaneConfig};
use reflex_faults::{install, FaultKind, FaultPlan};
use reflex_flash::device_a;
use reflex_net::StackProfile;
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::{SimDuration, SimTime};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// Registers a tenant that takes every token site `site` has, behind the
/// planner's back: the site then refuses a replacement member.
fn fill(tb: &mut Testbed, site: usize) {
    let hog = TenantClass::LatencyCritical(SloSpec::new(300_000, 100, ms(1)));
    let acl = AclEntry {
        ns_start: 1 << 30,
        ns_len: 1 << 20,
        allow_read: true,
        allow_write: true,
        allowed_clients: None,
    };
    let _ = tb
        .world_mut()
        .server_at_mut(site)
        .register_tenant(TenantId(99), hog, acl, 4096);
}

fn traced_run() -> String {
    // A shallow submission queue: the best-effort load fills it.
    let mut device = device_a();
    device.sq_depth = 4;
    let mut tb = Testbed::builder()
        .device(device)
        .seed(31)
        .sites(4)
        .replication(2)
        .server(ServerConfig {
            threads: 2,
            dataplane: DataplaneConfig {
                cache: Some(CacheConfig::with_capacity(4 << 20)),
                ..DataplaneConfig::default()
            },
            ..ServerConfig::default()
        })
        .client_machines(vec![StackProfile::ix_tcp(); 2])
        .build();
    let slo = SloSpec::new(26_000, 70, SimDuration::from_micros(800));
    let mut repl = WorkloadSpec::replicated("repl", TenantId(7), slo, 20_000.0);
    repl.namespace = (0, 8 << 20);
    repl.client_machine = 1;
    tb.add_workload(repl).expect("placed");
    let lc_slo = SloSpec::new(60_000, 90, SimDuration::from_micros(500));
    let mut lc = WorkloadSpec::open_loop(
        "lc",
        TenantId(1),
        TenantClass::LatencyCritical(lc_slo),
        100_000.0,
    );
    lc.read_pct = 90;
    lc.conns = 4;
    lc.namespace = (16 << 20, 2 << 20);
    tb.add_workload(lc).expect("admitted");
    let mut be = WorkloadSpec::open_loop("be", TenantId(2), TenantClass::BestEffort, 400_000.0);
    be.read_pct = 50;
    be.conns = 8;
    be.client_threads = 4;
    be.client_machine = 1;
    be.namespace = (32 << 20, 1 << 30);
    tb.add_workload(be).expect("admitted");

    // The secondary dies first and the set re-syncs onto the spare; the
    // primary, which the plain tenants share, dies later.
    let members = tb.world().member_sites(0);
    let primary_slot = tb.world().primary_slot(0);
    let (first, second) = (members[1 - primary_slot], members[primary_slot]);
    let plan = FaultPlan::seeded(31)
        .with_event(
            SimTime::ZERO + ms(12),
            FaultKind::TransientDeviceErrors {
                rate: 0.05,
                duration: ms(10),
            },
        )
        .with_event(
            SimTime::ZERO + ms(14),
            FaultKind::PacketLoss {
                rate: 0.01,
                duration: ms(10),
            },
        )
        .with_event(
            SimTime::ZERO + ms(16),
            FaultKind::PacketDup {
                rate: 0.01,
                duration: ms(10),
            },
        )
        .with_event(
            SimTime::ZERO + ms(40),
            FaultKind::ServerDeath { server: first },
        )
        .with_event(
            SimTime::ZERO + ms(95),
            FaultKind::ServerDeath { server: second },
        );
    let _stats = install(&plan, &mut tb);

    tb.run(ms(10));
    tb.enable_telemetry();
    tb.run(ms(80));
    // The set failed over onto the spare and re-synced. Every live site
    // outside it now refuses the tenant, so the next death degrades it.
    let members = tb.world().member_sites(0);
    assert!(members.contains(&second) && !members.contains(&first));
    for site in (0..4).filter(|s| *s != first && !members.contains(s)) {
        fill(&mut tb, site);
    }
    tb.begin_measurement();
    tb.run(ms(50));
    let report = tb.report();
    report.telemetry.expect("telemetry enabled").to_json()
}

#[test]
fn traced_run_matches_golden() {
    let json = traced_run();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/telemetry_run.json"
    );
    if std::env::var("REFLEX_BLESS").is_ok() {
        std::fs::write(path, &json).expect("write golden");
        return;
    }
    let golden = include_str!("golden/telemetry_run.json");
    assert_eq!(json, golden, "traced run drifted; rendered JSON:\n{json}");
}
