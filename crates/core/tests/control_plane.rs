//! The local control plane (paper §4.3) on a server whose thread count is
//! fixed when it is built: admission, tenant placement, teardown, the
//! link-failure park and re-bind, and deficit flags.

use reflex_core::{AdmissionError, ReflexServer, ServerConfig, Testbed, WorkloadSpec};
use reflex_dataplane::AclEntry;
use reflex_net::{ConnId, LinkConfig, MachineId, NicQueueId, StackProfile};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::SimDuration;

fn lc(iops: u64, read_pct: u8) -> TenantClass {
    TenantClass::LatencyCritical(SloSpec::new(iops, read_pct, SimDuration::from_micros(500)))
}

fn acl() -> AclEntry {
    AclEntry::full(1 << 30)
}

/// A testbed of `threads` server threads and `clients` client machines,
/// with no workload: the tests drive the server's control plane directly.
fn testbed(threads: u32, clients: usize) -> Testbed {
    Testbed::builder()
        .seed(3)
        .server_threads(threads)
        .client_machines(vec![StackProfile::ix_tcp(); clients])
        .build()
}

fn clients(tb: &Testbed) -> Vec<MachineId> {
    (0..tb.world().client_count())
        .map(|i| tb.world().client_machine(i))
        .collect()
}

fn connections(server: &ReflexServer) -> Vec<u32> {
    server
        .threads()
        .iter()
        .map(|t| t.connection_count())
        .collect()
}

#[test]
fn unregistering_a_tenant_returns_its_reservation() {
    let mut tb = testbed(1, 1);
    let server = tb.world_mut().server_mut();
    // 100K IOPS at 80 % read reserve 280K tokens/s of the 330K the
    // device sustains at 500 us; a further 100K tokens/s do not fit.
    server
        .register_tenant(TenantId(1), lc(100_000, 80), acl(), 4096)
        .expect("280K fits");
    let refused = server.register_tenant(TenantId(2), lc(100_000, 100), acl(), 4096);
    assert!(
        matches!(refused, Err(AdmissionError::NotAdmissible { .. })),
        "{refused:?}"
    );
    server.unregister_tenant(TenantId(1)).expect("registered");
    server
        .register_tenant(TenantId(2), lc(100_000, 100), acl(), 4096)
        .expect("the departed tenant's reservation is free again");
}

#[test]
fn an_unregistered_tenants_connections_lose_their_routes() {
    let mut tb = testbed(2, 1);
    let client = clients(&tb)[0];
    let server = tb.world_mut().server_mut();
    let thread = server
        .register_tenant(TenantId(1), TenantClass::BestEffort, acl(), 4096)
        .unwrap();
    let queue = server.threads()[thread].nic_queue();
    for c in 0..3 {
        let bound = server.bind_connection(ConnId(100 + c), TenantId(1), client);
        assert_eq!(bound, Ok((thread, queue)));
    }
    assert_eq!(server.route(ConnId(101)), Some(queue));
    assert_eq!(server.threads()[thread].connection_count(), 3);
    server.unregister_tenant(TenantId(1)).unwrap();
    for c in 0..3 {
        assert_eq!(server.route(ConnId(100 + c)), None);
        assert_eq!(server.thread_of_conn(ConnId(100 + c)), None);
    }
    assert_eq!(connections(server), [0, 0]);
}

#[test]
fn a_torn_down_tenant_is_unknown() {
    let mut tb = testbed(1, 1);
    let client = clients(&tb)[0];
    let server = tb.world_mut().server_mut();
    server
        .register_tenant(TenantId(1), TenantClass::BestEffort, acl(), 4096)
        .unwrap();
    server.unregister_tenant(TenantId(1)).unwrap();
    let gone = Err(AdmissionError::Unknown(TenantId(1)));
    assert_eq!(server.unregister_tenant(TenantId(1)), gone);
    assert_eq!(
        server.bind_connection(ConnId(7), TenantId(1), client),
        gone.map(|()| (0, NicQueueId(0)))
    );
    assert_eq!(server.route(ConnId(7)), None);
    // The id may be registered afresh.
    assert_eq!(
        server.register_tenant(TenantId(1), lc(1_000, 100), acl(), 4096),
        Ok(0)
    );
}

#[test]
fn placement_takes_the_least_reserved_thread() {
    let mut tb = testbed(3, 1);
    let server = tb.world_mut().server_mut();
    // At 100 % read a reservation is its IOPS in tokens/s. Ties go to
    // the thread with fewer tenants, then to the lower index.
    let tenants = [
        lc(50_000, 100),         // all idle: thread 0
        lc(20_000, 100),         // 1 and 2 hold nothing: thread 1
        lc(30_000, 100),         // thread 2
        lc(10_000, 100),         // 20K on thread 1 is least
        TenantClass::BestEffort, // 30K on 1 and 2; 2 has one tenant
        TenantClass::BestEffort, // 30K and two tenants each: thread 1
    ];
    let placed: Vec<usize> = tenants
        .into_iter()
        .zip(1..)
        .map(|(class, id)| {
            server
                .register_tenant(TenantId(id), class, acl(), 4096)
                .unwrap()
        })
        .collect();
    assert_eq!(placed, [0, 1, 2, 1, 2, 1]);
}

#[test]
fn a_dead_link_parks_only_its_clients_connections() {
    let mut tb = testbed(2, 2);
    let [a, b] = clients(&tb)[..] else {
        unreachable!("two client machines")
    };
    let server = tb.world_mut().server_mut();
    server
        .register_tenant(TenantId(1), TenantClass::BestEffort, acl(), 4096)
        .unwrap();
    for (conn, client) in [(10, a), (11, b), (12, a)] {
        server
            .bind_connection(ConnId(conn), TenantId(1), client)
            .unwrap();
    }
    assert_eq!(server.on_link_down(a), 2);
    assert_eq!(server.route(ConnId(10)), None);
    assert_eq!(server.route(ConnId(12)), None);
    assert_eq!(server.route(ConnId(11)), Some(NicQueueId(0)));
    assert_eq!(connections(server), [1, 0]);
    // Nothing of a's is left to tear down.
    assert_eq!(server.on_link_down(a), 0);
}

#[test]
fn rebinding_restores_each_parked_connection_once() {
    let mut tb = testbed(1, 1);
    let client = clients(&tb)[0];
    let server = tb.world_mut().server_mut();
    assert_eq!(server.rebind_client(client), 0, "nothing parked");
    server
        .register_tenant(TenantId(1), TenantClass::BestEffort, acl(), 4096)
        .unwrap();
    for conn in 0..4 {
        server
            .bind_connection(ConnId(conn), TenantId(1), client)
            .unwrap();
    }
    assert_eq!(server.on_link_down(client), 4);
    assert_eq!(connections(server), [0]);
    assert_eq!(server.rebind_client(client), 4);
    for conn in 0..4 {
        assert_eq!(server.route(ConnId(conn)), Some(NicQueueId(0)));
    }
    assert_eq!(connections(server), [4]);
    assert_eq!(server.rebind_client(client), 0, "re-bound already");
}

#[test]
fn a_tenant_gone_while_its_link_was_down_is_not_rebound() {
    let mut tb = testbed(2, 1);
    let client = clients(&tb)[0];
    let server = tb.world_mut().server_mut();
    for id in [1, 2] {
        server
            .register_tenant(TenantId(id), TenantClass::BestEffort, acl(), 4096)
            .unwrap();
        server
            .bind_connection(ConnId(id), TenantId(id), client)
            .unwrap();
    }
    assert_eq!(server.on_link_down(client), 2);
    server.unregister_tenant(TenantId(1)).unwrap();
    assert_eq!(server.rebind_client(client), 1);
    assert_eq!(server.route(ConnId(1)), None);
    assert_eq!(server.thread_of_conn(ConnId(2)), Some(1));
    assert_eq!(connections(server), [0, 1]);
}

#[test]
fn an_overloaded_server_keeps_its_threads() {
    // Two tenants offer well beyond one core's ~850K ceiling of 1 KiB
    // reads: the server serves what its one thread can and builds no
    // other.
    let mut tb = Testbed::builder()
        .seed(71)
        .server(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        })
        .client_machines(vec![StackProfile::ix_tcp(); 2])
        .link(LinkConfig::forty_gbe())
        .build();
    for i in 0..2u32 {
        let mut spec = WorkloadSpec::open_loop(
            &format!("blast{i}"),
            TenantId(i + 1),
            TenantClass::BestEffort,
            600_000.0,
        );
        spec.io_size = 1024;
        spec.conns = 32;
        spec.client_threads = 8;
        spec.client_machine = i as usize;
        tb.add_workload(spec).expect("accepted");
    }
    tb.run(SimDuration::from_millis(30));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(60));
    let server = tb.world().server();
    assert_eq!(server.threads().len(), 1);
    assert_eq!(tb.world().fabric().queue_count(server.machine()), 1);
    assert_eq!(connections(server), [64]);
    let total: f64 = tb.report().workloads.iter().map(|w| w.iops).sum();
    assert!(
        (700_000.0..900_000.0).contains(&total),
        "one thread should cap near one core: {total:.0}"
    );
}

#[test]
fn flags_are_kept_in_flagging_order() {
    // Tenant 2 overruns its reservation from the start; tenant 1 only
    // once it arrives 100 ms later. The flags list them as raised, not
    // by id, each once however long it overruns.
    let mut tb = Testbed::builder().seed(13).build();
    let greedy = |name: &str, id| {
        let mut spec = WorkloadSpec::open_loop(name, TenantId(id), lc(10_000, 100), 80_000.0);
        spec.conns = 8;
        spec
    };
    tb.add_workload(greedy("early", 2)).expect("admitted");
    tb.run(SimDuration::from_millis(100));
    assert_eq!(tb.report().renegotiations, [TenantId(2)]);
    tb.add_workload(greedy("late", 1)).expect("admitted");
    tb.run(SimDuration::from_millis(100));
    assert_eq!(tb.report().renegotiations, [TenantId(2), TenantId(1)]);
}

#[test]
fn a_sharded_tenant_is_flagged_under_its_own_id() {
    // Each shard's deficits count towards the tenant, which is flagged
    // once under the id it registered with, not a shard's.
    let mut tb = Testbed::builder().seed(82).server_threads(2).build();
    let mut spec = WorkloadSpec::open_loop("wide", TenantId(5), lc(10_000, 100), 80_000.0);
    spec.conns = 8;
    spec.shards = 2;
    tb.add_workload(spec).expect("admitted");
    tb.run(SimDuration::from_millis(100));
    let report = tb.report();
    assert_eq!(report.renegotiations, [TenantId(5)]);
    let w = report.workload("wide");
    assert!(
        w.iops < 30_000.0,
        "both shards together hold the 10K reservation: {:.0}",
        w.iops
    );
}
