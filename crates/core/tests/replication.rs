//! Replication is a property of a workload on the one `Testbed`.
//!
//! Three kinds of evidence that folding the second world into the first
//! moved nothing. *Goldens*: replicated scenarios whose report — window,
//! every workload field, both histograms' wire encodings, the series and
//! the failover timeline — hashes to a constant, and dispatches an event
//! count, recorded on the last commit that had a second, replicated
//! world. *Twins*: a replicated workload on one site with R = 1 is the
//! plain workload, on every report field and on `engine_events`.
//! *Behaviour*: what the deleted crate's tests asserted
//! of fan-out costs, quorum reads, failover, degradation, conservation
//! and epoch fencing, asserted of the `Testbed` — and that a set's one
//! book, the workload's member list, agrees with the planner's
//! reservations after every placement and failover.

use proptest::prelude::*;
use reflex_core::{
    quorum, AdmissionError, ArrivalProcess, PlacementError, ReadPolicy, ServerId, Testbed,
    TestbedError, TestbedReport, WorkloadSpec, WorldEvent, MAX_REPLICAS, MIGRATION_STEP,
};
use reflex_dataplane::{AclEntry, ReqCtx};
use reflex_faults::{install, FaultKind, FaultPlan};
use reflex_net::StackProfile;
use reflex_qos::{CostedRequest, SloSpec, TenantClass, TenantId};
use reflex_sim::{SimDuration, SimTime};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn builder(sites: usize, r: usize) -> reflex_core::TestbedBuilder {
    Testbed::builder().sites(sites).replication(r)
}

fn kill(tb: &mut Testbed, seed: u64, at: SimTime, site: usize) {
    let plan = FaultPlan::seeded(seed).with_event(at, FaultKind::ServerDeath { server: site });
    let _stats = install(&plan, tb);
}

// ------------------------------------------------------------------
// Goldens recorded on the parent commit

#[derive(Clone, Copy)]
struct Tenant {
    iops: f64,
    read_pct: u8,
    policy: ReadPolicy,
    machine: usize,
    paced: bool,
}

struct Scenario {
    name: &'static str,
    sites: usize,
    r: usize,
    seed: u64,
    clients: usize,
    tenants: Vec<Tenant>,
    /// Kill the site in this slot of tenant 0's set (`None`: its primary)
    /// at this many ms.
    death: Option<(Option<usize>, u64)>,
    warm_ms: u64,
    measure_ms: u64,
    /// Stop every generator and run this much longer.
    drain_ms: u64,
}

fn tenant(iops: f64, read_pct: u8, policy: ReadPolicy) -> Tenant {
    Tenant {
        iops,
        read_pct,
        policy,
        machine: 0,
        paced: false,
    }
}

fn scenarios() -> Vec<Scenario> {
    use ReadPolicy::{Primary, Quorum};
    let healthy = |name, r, policy, seed| Scenario {
        name,
        sites: 3,
        r,
        seed,
        clients: 1,
        tenants: vec![tenant(30_000.0, 70, policy)],
        death: None,
        warm_ms: 20,
        measure_ms: 60,
        drain_ms: 0,
    };
    let dying = |name, sites, r, seed, tenants, death, warm_ms, measure_ms| Scenario {
        name,
        sites,
        r,
        seed,
        clients: 1,
        tenants,
        death: Some(death),
        warm_ms,
        measure_ms,
        drain_ms: 0,
    };
    let on_machine_1 = |paced, t| Tenant {
        machine: 1,
        paced,
        ..t
    };
    vec![
        healthy("r1_primary", 1, Primary, 42),
        healthy("r2_primary", 2, Primary, 7),
        healthy("r2_quorum", 2, Quorum, 99),
        healthy("r3_primary", 3, Primary, 1234),
        healthy("r3_quorum", 3, Quorum, 5),
        dying(
            "r2_primary_death",
            3,
            2,
            11,
            vec![tenant(25_000.0, 70, Quorum)],
            (None, 50),
            30,
            150,
        ),
        dying(
            "r3_primary_death",
            4,
            3,
            23,
            vec![tenant(40_000.0, 70, Quorum)],
            (None, 70),
            30,
            170,
        ),
        dying(
            "r3_no_spare_degrades",
            3,
            3,
            9,
            vec![tenant(20_000.0, 80, Quorum)],
            (Some(2), 40),
            30,
            120,
        ),
        Scenario {
            clients: 2,
            tenants: vec![
                tenant(18_000.0, 90, Quorum),
                on_machine_1(true, tenant(12_000.0, 50, Primary)),
            ],
            measure_ms: 80,
            ..healthy("two_tenants_two_machines", 2, Quorum, 77)
        },
        Scenario {
            clients: 2,
            ..dying(
                "two_tenants_death",
                4,
                2,
                78,
                vec![
                    tenant(15_000.0, 60, Primary),
                    on_machine_1(false, tenant(15_000.0, 100, Quorum)),
                ],
                (Some(0), 45),
                20,
                130,
            )
        },
        Scenario {
            drain_ms: 200,
            ..dying(
                "stop_and_drain",
                4,
                3,
                31,
                vec![tenant(35_000.0, 70, Quorum)],
                (None, 40),
                10,
                90,
            )
        },
    ]
}

fn run(s: &Scenario) -> TestbedReport {
    run_with(s, false)
}

fn run_with(s: &Scenario, telemetry: bool) -> TestbedReport {
    let mut tb = builder(s.sites, s.r)
        .seed(s.seed)
        .client_machines(vec![StackProfile::ix_tcp(); s.clients])
        .build();
    if telemetry {
        tb.enable_telemetry();
    }
    for (i, t) in s.tenants.iter().enumerate() {
        let slo = SloSpec::new(
            (t.iops * 1.3) as u64,
            t.read_pct,
            SimDuration::from_micros(800),
        );
        let mut spec =
            WorkloadSpec::replicated(&format!("t{i}"), TenantId(i as u32 + 1), slo, t.iops)
                .with_read_policy(t.policy);
        spec.namespace = (i as u64 * (8 << 20), 8 << 20);
        spec.client_machine = t.machine;
        if t.paced {
            spec.arrival = ArrivalProcess::Paced;
        }
        tb.add_workload(spec).expect("admissible");
    }
    if let Some((slot, at_ms)) = s.death {
        let slot = slot.unwrap_or_else(|| tb.world().primary_slot(0));
        let victim = tb.world().member_sites(0)[slot];
        kill(&mut tb, s.seed, SimTime::ZERO + ms(at_ms), victim);
    }
    tb.run(ms(s.warm_ms));
    tb.begin_measurement();
    tb.run(ms(s.measure_ms));
    if s.drain_ms > 0 {
        tb.world_mut().stop_all_workloads();
        tb.run(ms(s.drain_ms));
    }
    tb.report()
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over what the replicated testbed's report said about the
/// simulation.
fn digest(r: &TestbedReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv(&mut h, format!("{:?}", r.window).as_bytes());
    for w in &r.workloads {
        fnv(&mut h, format!("{w:?}").as_bytes());
        fnv(&mut h, &w.read_latency.encode());
        fnv(&mut h, &w.write_latency.encode());
    }
    fnv(&mut h, format!("{:?}", r.recoveries).as_bytes());
    h
}

#[test]
fn goldens_recorded_on_the_replicated_testbed() {
    let got: Vec<(&str, u64, u64)> = scenarios()
        .iter()
        .map(|s| (s.name, run(s)))
        .map(|(name, report)| (name, digest(&report), report.engine_events))
        .collect();
    assert_eq!(got, GOLDENS, "{got:#x?}");
}

/// Digest and `engine_events`, recorded on d471dd6 by these scenarios
/// written against the replicated testbed it had (trailing: tenant 0's iops / errors /
/// retries / timeouts, recoveries).
const GOLDENS: [(&str, u64, u64); 11] = [
    ("r1_primary", 0xfc74_3c5a_0d2d_a33d, 11_708), // 30300 / 0 / 0 / 0, 0
    ("r2_primary", 0x7750_0e8f_72be_0f1a, 14_274), // 29533 / 0 / 0 / 0, 0
    ("r2_quorum", 0x3cee_419b_83a9_1c19, 20_309),  // 29000 / 0 / 0 / 0, 0
    ("r3_primary", 0x7b5c_cf97_adeb_1ee8, 17_536), // 30583 / 0 / 0 / 0, 0
    ("r3_quorum", 0x8089_c78b_1d3c_4d86, 24_053),  // 30783 / 0 / 0 / 0, 0
    ("r2_primary_death", 0x11a0_bea6_8b07_be6f, 39_722), // 19553 / 748 / 1235 / 1235, 1
    ("r3_primary_death", 0xc7a5_0543_4f02_6344, 78_760), // 34688 / 851 / 1408 / 1773, 1
    ("r3_no_spare_degrades", 0x17f4_2694_aa93_a6cf, 26_664), // 18008 / 156 / 260 / 378, 1
    ("two_tenants_two_machines", 0xa0b8_32b1_88fc_61a3, 24_245), // 18400 / 0 / 0 / 0, 0
    ("two_tenants_death", 0xa451_1ea0_aa49_bbad, 34_279), // 11015 / 436 / 732 / 732, 2
    ("stop_and_drain", 0x7b22_685f_0ac7_219f, 35_682), // 8279 / 801 / 1321 / 1664, 1
];

/// FNV-1a over the telemetry counters map, zero-valued entries included:
/// what the failover path counts (`replication.*`, `cluster.*`) along
/// with everything else.
fn counters_digest(r: &TestbedReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let counters = &r.telemetry.as_ref().expect("telemetry enabled").counters;
    fnv(&mut h, format!("{counters:?}").as_bytes());
    h
}

/// Telemetry is passive: the fault scenarios, counted, report what they
/// reported uncounted — and count what they counted on 4ea9c90.
#[test]
fn fault_scenarios_count_what_they_counted() {
    let got: Vec<(&str, u64)> = scenarios()
        .iter()
        .filter(|s| s.death.is_some())
        .map(|s| {
            let report = run_with(s, true);
            let golden = GOLDENS.iter().find(|g| g.0 == s.name).expect("a golden");
            let seen = (s.name, digest(&report), report.engine_events);
            assert_eq!(seen, *golden, "telemetry moved {}", s.name);
            (s.name, counters_digest(&report))
        })
        .collect();
    assert_eq!(got, COUNTER_GOLDENS, "{got:#x?}");
}

/// Counters digests, recorded on 4ea9c90.
const COUNTER_GOLDENS: [(&str, u64); 5] = [
    ("r2_primary_death", 0x2d3b_79f2_cc50_b9fc),
    ("r3_primary_death", 0x7c3e_e060_6add_d06a),
    ("r3_no_spare_degrades", 0x499c_cd97_b048_aeba),
    ("two_tenants_death", 0x526b_2b33_839f_8dc1),
    ("stop_and_drain", 0xaedc_9c7d_6ea0_162a),
];

/// Two deaths in tenant 1's R = 3 set: slot 1's site at 40 ms and slot
/// 2's at 100 ms, so the second death lands behind the gap the first
/// left (that site is slot 1 by then). On 3 sites the first death has no
/// spare; with `refused`, a 4th site is the spare but is filled behind
/// the planner's back, so both replacements are refused. `step` sees the
/// testbed after each failover.
fn two_deaths(refused: bool, step: &mut dyn FnMut(&Testbed)) -> TestbedReport {
    let sites = 3 + usize::from(refused);
    let mut tb = builder(sites, 3).seed(61).build();
    tb.enable_telemetry();
    tb.add_workload(small_spec("app", 20_000.0, ReadPolicy::Quorum))
        .unwrap();
    let m = tb.world().member_sites(0);
    let plan = FaultPlan::seeded(61)
        .with_event(
            SimTime::ZERO + ms(40),
            FaultKind::ServerDeath { server: m[1] },
        )
        .with_event(
            SimTime::ZERO + ms(100),
            FaultKind::ServerDeath { server: m[2] },
        );
    let _stats = install(&plan, &mut tb);
    if refused {
        let spare = (0..sites).find(|s| !m.contains(s)).unwrap();
        fill(&mut tb, spare);
    }
    tb.run(ms(30));
    tb.begin_measurement();
    tb.run(ms(60));
    assert_eq!(tb.world().member_sites(0), [m[0], m[2]]);
    step(&tb);
    tb.run(ms(80));
    assert_eq!(tb.world().member_sites(0), [m[0]]);
    assert_eq!(tb.world().epoch(0), 2);
    step(&tb);
    tb.report()
}

/// Behind the planner's back, fills site `site` with a tenant of its own.
fn fill(tb: &mut Testbed, site: usize) {
    let hog = TenantClass::LatencyCritical(slo(300_000, 100));
    let acl = AclEntry {
        ns_start: 1 << 30,
        ns_len: 1 << 20,
        allow_read: true,
        allow_write: true,
        allowed_clients: None,
    };
    tb.world_mut()
        .server_at_mut(site)
        .register_tenant(TenantId(99), hog, acl, 4096)
        .expect("the empty site admits it");
}

#[test]
fn two_deaths_recorded_on_the_parent() {
    let got: Vec<(bool, u64, u64, u64)> = [false, true]
        .into_iter()
        .map(|refused| {
            let r = two_deaths(refused, &mut |_| {});
            (refused, digest(&r), r.engine_events, counters_digest(&r))
        })
        .collect();
    assert_eq!(got, TWO_DEATHS, "{got:#x?}");
}

/// The planner's reservations are the member lists: every live site
/// holds one per replicated workload (the first `workloads`) whose list
/// names it, and a site that died is out of the planner with whatever it
/// held.
fn assert_books_agree(tb: &Testbed, workloads: usize) {
    let world = tb.world();
    let servers = world.planner().servers();
    for site in 0..world.site_count() {
        let named = (0..workloads)
            .filter(|&w| world.member_sites(w).contains(&site))
            .count();
        let booked = servers.iter().find(|s| s.id == ServerId(site as u32));
        assert_eq!(
            booked.map_or(named, |s| s.tenant_count()),
            named,
            "site {site}"
        );
    }
}

#[test]
fn the_books_agree_after_every_failover() {
    for refused in [false, true] {
        let mut steps = 0;
        two_deaths(refused, &mut |tb| {
            assert_books_agree(tb, 1);
            // Both victims are out of the planner.
            assert_eq!(
                tb.world().planner().servers().len(),
                tb.world().site_count() - 1 - steps
            );
            steps += 1;
        });
        assert_eq!(steps, 2);
    }
}

/// (refused, digest, `engine_events`, counters digest), recorded on
/// 4ea9c90.
const TWO_DEATHS: [(bool, u64, u64, u64); 2] = [
    (false, 0x3237_68d7_7f9e_73dc, 28_977, 0x3b3a_f269_fee0_7018),
    (true, 0xade9_fb1e_14ca_56ce, 29_430, 0x3bb4_9b94_8223_de35),
];

// ------------------------------------------------------------------
// The R = 1 twin

/// Scenario `i` of the generated family: 1–3 client machines, 1–4
/// tenants, reads and writes, Poisson and paced arrivals, as replicated
/// workloads (`replicated`) or the same specs without the property. With
/// `errors`, the device fails two in five of its commands: error responses,
/// retried and some exhausted, but no message is lost.
fn twin(i: u64, replicated: bool, errors: bool) -> TestbedReport {
    let clients = 1 + (i % 3) as usize;
    let tenants = 1 + (i / 3 % 4) as u32;
    let mut tb = builder(1, 1)
        .seed(1_000 + i)
        .client_machines(vec![StackProfile::ix_tcp(); clients])
        .build();
    for t in 0..tenants {
        let k = i + u64::from(t);
        let iops = 40_000.0 / f64::from(tenants) * (0.5 + 0.1 * (k % 5) as f64);
        let read_pct = [100, 90, 80, 95][(k % 4) as usize];
        // Room for the retries, so that no response outlives its deadline.
        let reserve = if errors { 2.0 } else { 1.3 };
        let slo = SloSpec::new(
            (iops * reserve) as u64,
            read_pct,
            SimDuration::from_micros(800),
        );
        let mut spec = WorkloadSpec::replicated(&format!("t{t}"), TenantId(t + 1), slo, iops);
        spec.namespace = (u64::from(t) * (8 << 20), 8 << 20);
        spec.client_machine = t as usize % clients;
        if k % 2 == 1 {
            spec.arrival = ArrivalProcess::Paced;
        }
        if !replicated {
            spec.replicated = None;
        }
        tb.add_workload(spec).expect("admissible");
    }
    if errors {
        let fault = FaultKind::TransientDeviceErrors {
            rate: 0.4,
            duration: ms(40),
        };
        let plan = FaultPlan::seeded(i).with_event(SimTime::ZERO, fault);
        let _stats = install(&plan, &mut tb);
    }
    tb.run(ms(10));
    tb.begin_measurement();
    tb.run(ms(30));
    if errors {
        // A replicated attempt's deadline widens with its number: drain
        // until every retry's deadline has passed in both twins.
        tb.world_mut().stop_all_workloads();
        tb.run(ms(100));
    }
    tb.report()
}

#[test]
fn one_copy_on_one_site_is_the_plain_workload() {
    for (i, errors) in (0..24).flat_map(|i| [(i, false), (i, true)]) {
        let (repl, plain) = (twin(i, true, errors), twin(i, false, errors));
        if errors {
            let failed: u64 = repl.workloads.iter().map(|w| w.errors).sum();
            assert!(failed > 0, "case {i}: no request failed for good");
            assert!(repl.workloads.iter().all(|w| w.timeouts == 0), "case {i}");
        } else {
            let iops: f64 = repl.workloads.iter().map(|w| w.iops).sum();
            assert!(iops > 15_000.0, "case {i}: {iops}");
        }
        assert_eq!(digest(&repl), digest(&plain), "case {i}, errors {errors}");
        // Everything else the report holds, the execution's counts too.
        let rest = |r: &TestbedReport| {
            format!(
                "{:?} {} {:?} {:?} {} {:?}",
                r.threads,
                r.token_usage_per_sec.to_bits(),
                r.device,
                r.renegotiations,
                r.engine_events,
                r.wakes
            )
        };
        assert_eq!(rest(&repl), rest(&plain), "case {i}, errors {errors}");
    }
}

// ------------------------------------------------------------------
// Behaviour

fn slo(iops: u64, read_pct: u8) -> SloSpec {
    SloSpec::new(iops, read_pct, SimDuration::from_micros(800))
}

fn spec(name: &str, iops: f64, policy: ReadPolicy) -> WorkloadSpec {
    // Reserve 30% above the offered load: a quorum anchor routes *all*
    // reads through the primary, so a reservation equal to the offered
    // load leaves the promoted primary zero margin to drain the
    // failover-blackout backlog.
    WorkloadSpec::replicated(name, TenantId(1), slo(iops as u64 * 13 / 10, 70), iops)
        .with_read_policy(policy)
}

/// The same on a small namespace, which keeps the modelled re-sync
/// inside the run.
fn small_spec(name: &str, iops: f64, policy: ReadPolicy) -> WorkloadSpec {
    let mut spec = spec(name, iops, policy);
    spec.namespace = (0, 8 << 20);
    spec
}

fn mean_read_us(sites: usize, r: usize, policy: ReadPolicy) -> f64 {
    let mut tb = builder(sites, r).build();
    tb.add_workload(spec("app", 20_000.0, policy)).unwrap();
    tb.run(ms(20));
    tb.begin_measurement();
    tb.run(ms(60));
    tb.report().workload("app").mean_read_us()
}

#[test]
fn replicated_workload_completes_ios() {
    let mut tb = builder(3, 3).build();
    tb.add_workload(spec("app", 20_000.0, ReadPolicy::Primary))
        .unwrap();
    assert_eq!(tb.world().member_sites(0).len(), 3);
    tb.run(ms(20));
    tb.begin_measurement();
    tb.run(ms(60));
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
    let primary = mean_read_us(3, 3, ReadPolicy::Primary);
    let quorum = mean_read_us(3, 3, ReadPolicy::Quorum);
    // A quorum read waits for the max of Q=2 sub-reads, so its mean is
    // strictly above the single-sub primary read.
    assert!(
        quorum > primary,
        "quorum mean read {quorum:.1}us not above primary {primary:.1}us"
    );
}

#[test]
fn quorum_replication_costs_more_than_single_copy_reads() {
    let single = mean_read_us(1, 1, ReadPolicy::Primary);
    let triple = mean_read_us(3, 3, ReadPolicy::Quorum);
    // The primary anchors every read quorum, so it carries the same load
    // as the single-copy server — and the quorum read waits for the max
    // of Q=2 sub-reads on top of that. Strictly costlier.
    assert!(
        triple > single,
        "R=3 quorum mean read {triple:.1}us not above single-copy {single:.1}us"
    );
}

#[test]
fn server_death_fails_over_promotes_and_resyncs() {
    let mut tb = builder(4, 3).build();
    tb.add_workload(small_spec("app", 20_000.0, ReadPolicy::Quorum))
        .unwrap();
    let members_before = tb.world().member_sites(0);
    let victim = members_before[0];
    let spare: usize = (0..4).find(|s| !members_before.contains(s)).unwrap();
    let death = SimTime::ZERO + ms(50);
    kill(&mut tb, 7, death, victim);
    tb.run(ms(30));
    tb.begin_measurement();
    tb.run(ms(170));
    let report = tb.report();
    // Failover happened: the victim left the set, the spare joined in its
    // slot, and the re-sync completed within the run.
    let members_after = tb.world().member_sites(0);
    assert_eq!(members_after, [spare, members_before[1], members_before[2]]);
    assert_eq!(tb.world().primary_slot(0), 1, "the lowest surviving slot");
    assert_eq!(tb.world().epoch(0), 1);
    assert_books_agree(&tb, 1);
    assert_eq!(report.recoveries.len(), 1);
    let rec = report.recoveries[0];
    assert_eq!(rec.tenant, TenantId(1));
    assert_eq!(rec.died_at, death);
    assert_eq!(
        rec.failover_at,
        death + ms(30),
        "failover fires after the detection delay"
    );
    assert_eq!(rec.new_site, Some(spare));
    let resync_done = rec.resync_done_at.expect("a spare site means replacement");
    // One re-admission, then 8 MiB at 2 GiB/s.
    let copy = SimDuration::from_secs_f64((8 << 20) as f64 / (2u64 << 30) as f64);
    assert_eq!(resync_done, rec.failover_at + MIGRATION_STEP + copy);
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
    let mut tb = builder(3, 3).build();
    tb.add_workload(spec("app", 20_000.0, ReadPolicy::Quorum))
        .unwrap();
    let victim = tb.world().member_sites(0)[2];
    kill(&mut tb, 9, SimTime::ZERO + ms(40), victim);
    tb.run(ms(30));
    tb.begin_measurement();
    tb.run(ms(120));
    let report = tb.report();
    // No spare exists, so the set degrades to R=2 and keeps serving.
    let members_after = tb.world().member_sites(0);
    assert_eq!(members_after.len(), 2);
    assert!(!members_after.contains(&victim));
    assert_eq!(tb.world().primary_slot(0), 0, "the primary survived");
    assert_eq!(quorum(members_after.len()), 2);
    assert_books_agree(&tb, 1);
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

/// The planner plans from its own books; the site's admission control
/// has the last word. A replacement the site refuses used to
/// leave a member with no connections, and the next op indexed past
/// their end.
#[test]
fn a_replacement_its_site_refuses_degrades_the_set() {
    let mut tb = builder(4, 3).build();
    tb.enable_telemetry();
    tb.add_workload(small_spec("app", 20_000.0, ReadPolicy::Quorum))
        .unwrap();
    let members_before = tb.world().member_sites(0);
    let victim = members_before[1];
    let spare: usize = (0..4).find(|s| !members_before.contains(s)).unwrap();
    kill(&mut tb, 7, SimTime::ZERO + ms(40), victim);
    // Behind the planner's back, the spare site fills up.
    fill(&mut tb, spare);
    tb.run(ms(30));
    tb.begin_measurement();
    tb.run(ms(120));
    let report = tb.report();
    let members_after = tb.world().member_sites(0);
    assert_eq!(members_after.len(), 2, "{members_after:?}");
    assert!(!members_after.contains(&victim) && !members_after.contains(&spare));
    assert_eq!(tb.world().primary_slot(0), 0);
    assert_eq!(tb.world().epoch(0), 1);
    let rec = report.recoveries[0];
    assert_eq!((rec.new_site, rec.resync_done_at), (None, None));
    let counters = &report.telemetry.as_ref().expect("enabled").counters;
    assert_eq!(counters.get("replication.replacements_refused"), Some(&1));
    let w = report.workload("app");
    assert!(
        w.iops > 10_000.0,
        "degraded set stopped serving: {:.0}",
        w.iops
    );
    // The refused site holds no reservation, and a second death
    // re-shapes the two members that are left, not a slot that no longer
    // exists.
    assert_books_agree(&tb, 1);
    let second_death = tb.now() + ms(5);
    kill(&mut tb, 8, second_death, members_after[1]);
    tb.run(ms(80));
    assert_eq!(tb.world().member_sites(0), [members_after[0]]);
    assert_eq!(tb.world().epoch(0), 2);
    assert_books_agree(&tb, 1);
}

/// A set whose sites refuse the tenant books nothing. On 4ea9c90 the
/// planner kept the set, and re-adding the tenant at 4 KiB returned
/// `Placement(Duplicate(TenantId(1)))` forever.
#[test]
fn a_set_its_sites_refuse_books_nothing() {
    let mut tb = builder(3, 2).build();
    let slo = SloSpec::new(30_000, 100, SimDuration::from_micros(800));
    let mut big = WorkloadSpec::replicated("big", TenantId(1), slo, 20_000.0);
    big.io_size = 64 << 10;
    let err = tb.add_workload(big).unwrap_err();
    assert!(
        matches!(
            err,
            TestbedError::Admission(AdmissionError::NotAdmissible { .. })
        ),
        "{err}"
    );
    assert_books_agree(&tb, 0);
    let small = WorkloadSpec::replicated("small", TenantId(1), slo, 20_000.0);
    tb.add_workload(small).expect("nothing was booked");
    assert_books_agree(&tb, 1);
}

/// R copies go on R distinct sites, and the set's first slot is its
/// primary.
#[test]
fn a_set_spreads_over_distinct_sites() {
    let mut tb = builder(4, 3).build();
    tb.add_workload(spec("app", 20_000.0, ReadPolicy::Primary))
        .unwrap();
    let mut members = tb.world().member_sites(0);
    assert_eq!(tb.world().primary_slot(0), 0);
    assert_eq!(quorum(members.len()), 2);
    assert_books_agree(&tb, 1);
    members.sort_unstable();
    members.dedup();
    assert_eq!(members.len(), 3, "anti-affinity");
}

/// All or nothing: a set with no room for its last copy books none.
#[test]
fn a_set_that_does_not_fit_books_nothing() {
    let mut tb = builder(3, 2).build();
    // 280K of a site's 330K tokens/s at 500 µs: one per site.
    let big = SloSpec::new(100_000, 80, SimDuration::from_micros(500));
    let add = |tb: &mut Testbed, t: u32, slo| {
        let spec = WorkloadSpec::replicated(&format!("t{t}"), TenantId(t), slo, 1_000.0);
        tb.add_workload(spec)
    };
    add(&mut tb, 1, big).unwrap();
    let free = (0..3)
        .find(|s| !tb.world().member_sites(0).contains(s))
        .unwrap();
    let err = add(&mut tb, 2, big).unwrap_err();
    assert!(
        matches!(
            err,
            TestbedError::Placement(PlacementError::NoCapacity { .. })
        ),
        "{err}"
    );
    assert_books_agree(&tb, 1);
    // The first copy's site was not kept: a smaller set gets it.
    add(&mut tb, 3, slo(10_000, 80)).unwrap();
    assert!(tb.world().member_sites(1).contains(&free));
    assert_books_agree(&tb, 2);
}

/// A death the planner has failed over already changes nothing.
#[test]
fn a_site_that_dies_twice_fails_over_once() {
    let mut tb = builder(3, 2).build();
    tb.enable_telemetry();
    tb.add_workload(small_spec("app", 20_000.0, ReadPolicy::Quorum))
        .unwrap();
    let victim = tb.world().member_sites(0)[1];
    let plan = FaultPlan::seeded(3)
        .with_event(
            SimTime::ZERO + ms(40),
            FaultKind::ServerDeath { server: victim },
        )
        .with_event(
            SimTime::ZERO + ms(60),
            FaultKind::ServerDeath { server: victim },
        );
    let _stats = install(&plan, &mut tb);
    tb.run(ms(80));
    let members = tb.world().member_sites(0);
    tb.run(ms(40));
    let report = tb.report();
    assert_eq!(tb.world().member_sites(0), members);
    assert_eq!(tb.world().epoch(0), 1);
    assert_eq!(report.recoveries.len(), 1);
    let counters = &report.telemetry.as_ref().expect("enabled").counters;
    assert_eq!(counters["replication.server_deaths"], 2);
    assert_eq!(counters["replication.failovers"], 1);
    assert_books_agree(&tb, 1);
}

/// A set whose every site dies degrades to no members, with no panic:
/// the planner, with no server left, places nothing, and the set's
/// requests fail fast. The last member has no survivor to promote.
#[test]
fn a_set_whose_every_site_dies_degrades_to_nothing() {
    for r in [1, 2] {
        let mut tb = builder(r, r).build();
        tb.enable_telemetry();
        tb.add_workload(small_spec("app", 20_000.0, ReadPolicy::Quorum))
            .unwrap();
        let deaths = tb.world().member_sites(0).into_iter().enumerate();
        let plan = deaths.fold(FaultPlan::seeded(5), |plan, (k, site)| {
            let at = SimTime::ZERO + ms(20 + 40 * k as u64);
            plan.with_event(at, FaultKind::ServerDeath { server: site })
        });
        let _stats = install(&plan, &mut tb);
        tb.run(ms(40 * r as u64 + 40));
        assert!(tb.world().member_sites(0).is_empty(), "r = {r}");
        assert_eq!(tb.world().epoch(0), r as u32);
        assert!(tb.world().planner().servers().is_empty());
        assert_books_agree(&tb, 1);
        let report = tb.report();
        assert_eq!(report.recoveries.len(), r);
        assert!(report.recoveries.iter().all(|rec| rec.new_site.is_none()));
        let counters = &report.telemetry.as_ref().expect("enabled").counters;
        let promotions = counters.get("replication.promotions").copied();
        assert_eq!(promotions.unwrap_or(0), r as u64 - 1, "r = {r}");
        assert!(report.workload("app").exhausted > 0, "r = {r}");
    }
}

fn assert_drained_and_balanced(tb: &mut Testbed, resyncs: Option<u64>) {
    // Stop the generators, let every queue (including the dead site's
    // draining aborts) settle, then require exact balance.
    tb.world_mut().stop_all_workloads();
    tb.run(ms(200));
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
    // The death really interrupted in-flight work, and the failover
    // itself was counted.
    let count = |name: &str| drained.counters.get(name).copied().unwrap_or(0);
    assert_eq!(count("replication.server_deaths"), 1);
    assert_eq!(count("replication.failovers"), 1);
    assert_eq!(count("replication.promotions"), 1);
    if let Some(n) = resyncs {
        assert_eq!(count("replication.resyncs_done"), n);
    }
}

#[test]
fn conservation_holds_across_replica_death_and_promotion() {
    let mut tb = builder(4, 3).build();
    tb.enable_telemetry();
    tb.add_workload(small_spec("app", 25_000.0, ReadPolicy::Quorum))
        .unwrap();
    // Kill the primary's site so the failover also has to promote.
    let victim = tb.world().member_sites(0)[tb.world().primary_slot(0)];
    kill(&mut tb, 11, SimTime::ZERO + ms(40), victim);
    tb.run(ms(150));
    assert_drained_and_balanced(&mut tb, Some(1));
}

#[test]
fn quorum_membership_survives_in_report_consistency() {
    // Writes during an R=2 blackout stall until failover (2-of-2 quorum
    // includes the dead member), so mean write latency under death is
    // strictly above a healthy run — the effect the recovery figure plots.
    let mean_write_us = |death: bool| {
        let mut tb = builder(3, 2).build();
        tb.add_workload(small_spec("app", 15_000.0, ReadPolicy::Primary))
            .unwrap();
        if death {
            let victim = tb.world().member_sites(0)[0];
            kill(&mut tb, 13, SimTime::ZERO + ms(60), victim);
        }
        tb.run(ms(30));
        tb.begin_measurement();
        tb.run(ms(150));
        let report = tb.report();
        assert_eq!(report.recoveries.len(), usize::from(death));
        report.workload("app").write_latency.mean().as_micros_f64()
    };
    let (healthy, dead) = (mean_write_us(false), mean_write_us(true));
    assert!(
        dead > healthy,
        "death run writes {dead:.1}us not above healthy {healthy:.1}us"
    );
}

/// Composed chaos + replication scenario, as the swarm generates it: a
/// ServerDeath lands while quorum reads are in flight, and the run must
/// satisfy conservation *and* epoch fencing together.
#[test]
fn server_death_under_quorum_reads_conserves_and_fences_epochs() {
    let mut tb = builder(4, 3).seed(23).build();
    tb.enable_telemetry();
    // Read-heavy quorum workload: most in-flight operations at the death
    // instant are quorum reads anchored at the primary.
    let mut app = WorkloadSpec::replicated("app", TenantId(1), slo(30_000, 90), 22_000.0)
        .with_read_policy(ReadPolicy::Quorum);
    app.namespace = (0, 8 << 20);
    tb.add_workload(app).unwrap();

    // Kill the primary's site: every in-flight quorum read loses its
    // anchor, so the failover must promote *and* the aborted sub-reads
    // must still balance.
    let victim = tb.world().member_sites(0)[tb.world().primary_slot(0)];
    let death = SimTime::ZERO + ms(40);
    kill(&mut tb, 23, death, victim);

    // Run in slices and sample the epoch, so fencing is asserted on the
    // observed timeline, not just the final state.
    let mut epochs = vec![tb.world().epoch(0)];
    for _ in 0..6 {
        tb.run(ms(25));
        epochs.push(tb.world().epoch(0));
    }

    // Epoch fencing: monotone, starts unbumped, bumps exactly once (one
    // death, one failover), and the bump happens after the death instant.
    assert!(
        epochs.windows(2).all(|p| p[0] <= p[1]),
        "epoch went backwards: {epochs:?}"
    );
    let first = epochs[0];
    let last = *epochs.last().unwrap();
    assert_eq!(
        last,
        first + 1,
        "one failover must bump the epoch exactly once: {epochs:?}"
    );
    let bump_slice = epochs.iter().position(|&e| e > first).unwrap();
    assert!(
        SimTime::ZERO + ms(25 * bump_slice as u64) > death,
        "epoch bumped before the server died: {epochs:?}"
    );

    // The fenced configuration took effect: the victim is out of the
    // member set and a quorum still exists.
    let members = tb.world().member_sites(0);
    assert!(!members.contains(&victim), "victim still a member");
    assert!(members.len() >= 2, "quorum lost: {members:?}");
    assert_eq!(tb.report().recoveries.len(), 1, "exactly one recovery");

    // Conservation across the blackout.
    assert_drained_and_balanced(&mut tb, None);
}

/// Sites with two dataplane threads each: a thread's siblings are the
/// other threads of its own site, woken through its own site's slots.
/// Token-starved best-effort work beside the replicated tenants keeps
/// threads asleep between rounds, where a wrong wake shows.
#[test]
fn two_threads_on_every_site_run_like_one_run_in_slices() {
    let run = |slices: u64| {
        let mut tb = builder(2, 2).server_threads(2).seed(5).build();
        for t in 0..4u32 {
            let mut app = WorkloadSpec::replicated(
                &format!("t{t}"),
                TenantId(t + 1),
                slo(13_000, 80),
                10_000.0,
            )
            .with_read_policy([ReadPolicy::Primary, ReadPolicy::Quorum][t as usize % 2]);
            app.namespace = (u64::from(t) * (8 << 20), 8 << 20);
            tb.add_workload(app).unwrap();
        }
        let mut hog = WorkloadSpec::open_loop("hog", TenantId(9), TenantClass::BestEffort, 4e5);
        hog.read_pct = 50;
        hog.conns = 8;
        tb.add_workload(hog).unwrap();
        tb.run(ms(10));
        tb.begin_measurement();
        for _ in 0..slices {
            tb.run(ms(40) / slices);
        }
        tb.report()
    };
    let (one, sliced) = (run(1), run(40));
    assert_eq!(digest(&one), digest(&sliced));
    assert_eq!(one.engine_events, sliced.engine_events);
    assert_eq!(one.threads.len(), 4);
    assert!(one.threads.iter().all(|t| t.busy_fraction > 0.0));
    assert!(one.wakes.rounds_elided > 0, "{:?}", one.wakes);
    for w in &one.workloads[..4] {
        assert_eq!((w.errors, w.timeouts), (0, 0), "{w:?}");
        assert!((w.iops - 10_000.0).abs() < 1_500.0, "{w:?}");
    }
}

/// The engine's heap holds events by value: folding the replication
/// events in must not grow them, and no fat variant may grow them back.
#[test]
fn the_event_is_as_small_as_before() {
    assert_eq!(std::mem::size_of::<WorldEvent>(), 24);
}

/// A request waiting in a tenant's scheduler queue is one of these, and a
/// backlogged best-effort tenant holds tens of thousands.
#[test]
fn a_queued_request_is_at_most_72_bytes() {
    let size = std::mem::size_of::<CostedRequest<ReqCtx>>();
    assert!(size <= 72, "{size} bytes");
}

// ------------------------------------------------------------------
// The quorum arithmetic the data path relies on

/// Picks a deterministic, seed-dependent subset of `q` slots out of `r`,
/// returned as a bitmask.
fn subset(r: usize, q: usize, seed: u64) -> u32 {
    let mut mask = 0u32;
    let mut s = seed;
    let mut n = 0;
    while n < q {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let slot = ((s >> 33) as usize) % r;
        if mask & (1 << slot) == 0 {
            mask |= 1 << slot;
            n += 1;
        }
    }
    mask
}

#[test]
fn quorum_is_a_majority() {
    assert_eq!([1, 2, 3, 4, 5].map(quorum), [1, 2, 2, 3, 3]);
    for r in 1..=MAX_REPLICAS {
        assert_eq!(quorum(r), (r + 1).div_ceil(2), "⌈(R+1)/2⌉ identity");
    }
}

proptest! {
    /// Any two quorums over the same replica set intersect — the
    /// invariant that makes a quorum read observe every quorum write.
    #[test]
    fn any_two_quorums_intersect(
        r in 1usize..=MAX_REPLICAS,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
    ) {
        let q = quorum(r);
        let read = subset(r, q, a);
        let write = subset(r, q, b);
        prop_assert!(
            read & write != 0,
            "disjoint quorums {read:#b} and {write:#b} for r={r}, q={q}"
        );
    }

    /// The pigeonhole bound behind the property: 2q > r.
    #[test]
    fn quorums_are_majorities(r in 1usize..=MAX_REPLICAS) {
        prop_assert!(2 * quorum(r) > r);
        prop_assert!(quorum(r) <= r);
    }
}
