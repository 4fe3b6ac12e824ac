//! The fabric's receive queues rely on arrivals coming almost in order:
//! per destination NIC, `rx_done` rises with each send, and only receiver
//! stack jitter, fault delays, duplicates and `requeue` forwards reorder
//! arrivals. A message that lands at the back of its queue is appended, one
//! within a short reach of the back is inserted, and only one farther back
//! is set aside in a heap (DESIGN §7.4 mechanism 6). These counts are the
//! guard: a change that reorders arrivals fails here, not in a benchmark
//! run.

use reflex_core::{ServerConfig, Testbed, WorkloadSpec};
use reflex_faults::{install, FaultKind, FaultPlan};
use reflex_net::{LinkConfig, RxPushes, StackProfile};
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::{SimDuration, SimTime};

/// fig4's ReFlex-1T testbed past its knee: four open-loop machines of 1 KB
/// readers, 48 connections each, 900 K IOPS offered on one thread over
/// 40GbE. The server's core runs ~20 ms behind, so each client's queue
/// holds thousands of responses that have not arrived yet.
fn rd1k_overload() -> Testbed {
    let mut tb = Testbed::builder()
        .seed(31)
        .server(ServerConfig {
            threads: 1,
            max_threads: 1,
            ..ServerConfig::default()
        })
        .client_machines(vec![StackProfile::ix_tcp(); 4])
        .link(LinkConfig::forty_gbe())
        .build();
    for t in 0..4u32 {
        let mut spec = WorkloadSpec::open_loop(
            &format!("t{t}"),
            TenantId(t + 1),
            TenantClass::BestEffort,
            900_000.0 / 4.0,
        );
        spec.read_pct = 100;
        spec.io_size = 1024;
        spec.conns = 48;
        spec.client_threads = 8;
        spec.client_machine = t as usize;
        tb.add_workload(spec).expect("admissible");
    }
    tb
}

/// Pushes by path over 20 ms measured after 20 ms of warm-up.
fn measured_pushes(tb: &mut Testbed) -> RxPushes {
    tb.run(SimDuration::from_millis(20));
    tb.begin_measurement();
    let warm = tb.world().fabric().rx_pushes();
    tb.run(SimDuration::from_millis(20));
    let end = tb.world().fabric().rx_pushes();
    RxPushes {
        appended: end.appended - warm.appended,
        inserted: end.inserted - warm.inserted,
        set_aside: end.set_aside - warm.set_aside,
    }
}

/// Without faults nothing lands farther back than the reach, and at most
/// 2 % of pushes are inserted: 424 of 35 983 here, and 5 607 of 449 886
/// over the `rd1k_overload` benchmark's 250 ms run on seed 31.
#[test]
fn arrivals_come_almost_in_order() {
    let mut tb = rd1k_overload();
    let p = measured_pushes(&mut tb);
    let total = p.appended + p.inserted + p.set_aside;
    eprintln!("rd1k_overload pushes: {p:?} of {total}");
    assert!(total > 20_000, "the window carries load: {total} pushes");
    assert_eq!(p.set_aside, 0, "{p:?}");
    assert!(p.inserted * 50 <= total, "{p:?}: over 2 % inserted");
}

/// A 2 ms latency storm that adds 1 ms: every response sent after it
/// lands behind hundreds of delayed ones, and is set aside.
#[test]
fn a_latency_storms_end_is_set_aside() {
    let mut tb = rd1k_overload();
    let storm = FaultKind::LatencyStorm {
        extra: SimDuration::from_millis(1),
        duration: SimDuration::from_millis(2),
    };
    let plan = FaultPlan::seeded(7).with_event(SimTime::from_millis(25), storm);
    install(&plan, &mut tb);
    let p = measured_pushes(&mut tb);
    eprintln!("rd1k_overload pushes with a storm: {p:?}");
    assert!(p.set_aside > 100, "{p:?}");
    assert!(p.inserted * 50 <= p.appended, "{p:?}");
}
