//! End-to-end tests of a single dataplane thread against a real simulated
//! fabric and Flash device: request in, response out, with QoS, ACLs and
//! CPU accounting in the loop.

use std::sync::Arc;

use reflex_dataplane::{AclEntry, DataplaneConfig, DataplaneThread, WireMsg};
use reflex_flash::{device_a, FlashDevice};
use reflex_net::{
    ConnId, Fabric, LinkConfig, MachineId, NicQueueId, Opcode, ReflexHeader, StackProfile,
};
use reflex_qos::{CostModel, QosError, SchedulerParams, SloSpec, TenantClass, TenantId, TokenRate};
use reflex_sim::{SimDuration, SimRng, SimTime};

struct Rig {
    fabric: Fabric<WireMsg>,
    device: FlashDevice,
    thread: DataplaneThread,
    client: MachineId,
    conn: ConnId,
}

fn rig(class: TenantClass) -> Rig {
    rig_with(class, DataplaneConfig::default())
}

fn rig_with(class: TenantClass, config: DataplaneConfig) -> Rig {
    let mut fabric = Fabric::new(LinkConfig::default(), SimRng::seed(11));
    let client = fabric.add_machine(StackProfile::ix_tcp());
    let server = fabric.add_machine(StackProfile::dataplane_raw());
    let mut device = FlashDevice::new(device_a(), SimRng::seed(12));
    device.precondition();
    let qp = device.create_queue_pair();
    let bucket = Arc::new(reflex_qos::GlobalBucket::new(1));
    let mut thread = DataplaneThread::new(
        0,
        server,
        NicQueueId(0),
        qp,
        bucket,
        CostModel::for_device_a(),
        SchedulerParams::default(),
        config,
        SimTime::ZERO,
    );
    let tenant = TenantId(1);
    let capacity = device.profile().capacity_bytes;
    thread
        .register_tenant(tenant, class, AclEntry::full(capacity), 4096)
        .expect("fresh tenant registers");
    let conn = fabric.new_conn();
    thread
        .bind_connection(conn, tenant, client)
        .expect("tenant exists");
    Rig {
        fabric,
        device,
        thread,
        client,
        conn,
    }
}

fn lc_class(iops: u64) -> TenantClass {
    TenantClass::LatencyCritical(SloSpec::new(iops, 100, SimDuration::from_micros(500)))
}

/// Drives the thread until the client has received `want` responses or
/// simulated time passes `deadline`. Returns (responses, last instant).
fn drive(r: &mut Rig, want: usize, deadline: SimTime) -> Vec<(ReflexHeader, SimTime)> {
    let mut responses = Vec::new();
    let mut now = SimTime::ZERO;
    while responses.len() < want && now < deadline {
        let wake = r.thread.pump(now, &mut r.fabric, &mut r.device);
        // Collect anything delivered to the client so far.
        let horizon = wake.unwrap_or(now + SimDuration::from_millis(1));
        for d in r.fabric.poll(horizon, r.client, usize::MAX) {
            let h = ReflexHeader::decode(&d.payload).expect("server speaks the protocol");
            responses.push((h, d.arrived_at));
        }
        now = match wake {
            Some(w) if w > now => w,
            _ => now + SimDuration::from_micros(5),
        };
    }
    responses
}

#[test]
fn read_request_round_trips() {
    let mut r = rig(lc_class(100_000));
    let req = ReflexHeader {
        opcode: Opcode::Get,
        tenant: 1,
        cookie: 77,
        addr: 8192,
        len: 4096,
    };
    r.fabric.send(
        SimTime::ZERO,
        r.client,
        r.thread.machine(),
        r.conn,
        0,
        req.encode_array(),
    );

    let responses = drive(&mut r, 1, SimTime::from_millis(10));
    assert_eq!(responses.len(), 1);
    let (h, at) = &responses[0];
    assert_eq!(h.opcode, Opcode::Response);
    assert_eq!(h.cookie, 77);
    let latency = at.as_micros_f64();
    // Unloaded remote read: ~76us device + ~stack/wire overheads ≈ 85-120us.
    assert!(
        (80.0..140.0).contains(&latency),
        "unloaded remote read {latency}us"
    );
    let st = r.thread.stats();
    assert_eq!(st.rx_msgs, 1);
    assert_eq!(st.submitted, 1);
    assert_eq!(st.completed, 1);
    assert_eq!(st.tx_msgs, 1);
}

#[test]
fn write_request_round_trips_faster_than_read() {
    let mut r = rig(lc_class(100_000));
    let req = ReflexHeader {
        opcode: Opcode::Put,
        tenant: 1,
        cookie: 5,
        addr: 0,
        len: 4096,
    };
    r.fabric.send(
        SimTime::ZERO,
        r.client,
        r.thread.machine(),
        r.conn,
        4096,
        req.encode_array(),
    );
    let responses = drive(&mut r, 1, SimTime::from_millis(10));
    assert_eq!(responses.len(), 1);
    let (h, at) = &responses[0];
    assert_eq!(h.opcode, Opcode::Response);
    let latency = at.as_micros_f64();
    // Buffered write ~10us + overheads: far below read latency.
    assert!(latency < 60.0, "unloaded remote write {latency}us");
}

#[test]
fn acl_read_only_tenant_gets_error_for_writes() {
    let mut fabricless = rig(lc_class(10_000));
    // Rebind with a read-only ACL on a second tenant.
    let tenant = TenantId(2);
    let acl = AclEntry {
        ns_start: 0,
        ns_len: 1 << 30,
        allow_read: true,
        allow_write: false,
        allowed_clients: None,
    };
    fabricless
        .thread
        .register_tenant(tenant, TenantClass::BestEffort, acl, 4096)
        .unwrap();
    let conn2 = fabricless.fabric.new_conn();
    fabricless
        .thread
        .bind_connection(conn2, tenant, fabricless.client)
        .unwrap();

    let req = ReflexHeader {
        opcode: Opcode::Put,
        tenant: 2,
        cookie: 9,
        addr: 0,
        len: 4096,
    };
    fabricless.fabric.send(
        SimTime::ZERO,
        fabricless.client,
        fabricless.thread.machine(),
        conn2,
        4096,
        req.encode_array(),
    );
    let responses = drive(&mut fabricless, 1, SimTime::from_millis(5));
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].0.opcode, Opcode::Error);
    assert_eq!(responses[0].0.cookie, 9);
    assert_eq!(fabricless.thread.stats().acl_rejections, 1);
    assert_eq!(fabricless.thread.stats().submitted, 0);
}

#[test]
fn namespace_bounds_are_enforced() {
    let mut r = rig(lc_class(10_000));
    let tenant = TenantId(2);
    let acl = AclEntry {
        ns_start: 4096,
        ns_len: 8192,
        allow_read: true,
        allow_write: true,
        allowed_clients: None,
    };
    r.thread
        .register_tenant(tenant, TenantClass::BestEffort, acl, 4096)
        .unwrap();
    let conn2 = r.fabric.new_conn();
    r.thread.bind_connection(conn2, tenant, r.client).unwrap();

    // In-range read succeeds; out-of-range read errors.
    let ok = ReflexHeader {
        opcode: Opcode::Get,
        tenant: 2,
        cookie: 1,
        addr: 4096,
        len: 4096,
    };
    let bad = ReflexHeader {
        opcode: Opcode::Get,
        tenant: 2,
        cookie: 2,
        addr: 0,
        len: 4096,
    };
    r.fabric.send(
        SimTime::ZERO,
        r.client,
        r.thread.machine(),
        conn2,
        0,
        ok.encode_array(),
    );
    r.fabric.send(
        SimTime::from_micros(1),
        r.client,
        r.thread.machine(),
        conn2,
        0,
        bad.encode_array(),
    );
    let responses = drive(&mut r, 2, SimTime::from_millis(10));
    assert_eq!(responses.len(), 2);
    let by_cookie: std::collections::HashMap<u64, Opcode> = responses
        .iter()
        .map(|(h, _)| (h.cookie, h.opcode))
        .collect();
    assert_eq!(by_cookie[&1], Opcode::Response);
    assert_eq!(by_cookie[&2], Opcode::Error);
}

#[test]
fn unbound_connection_is_dropped() {
    let mut r = rig(lc_class(10_000));
    let stray = r.fabric.new_conn();
    let req = ReflexHeader {
        opcode: Opcode::Get,
        tenant: 1,
        cookie: 3,
        addr: 0,
        len: 4096,
    };
    r.fabric.send(
        SimTime::ZERO,
        r.client,
        r.thread.machine(),
        stray,
        0,
        req.encode_array(),
    );
    let responses = drive(&mut r, 1, SimTime::from_millis(2));
    assert!(responses.is_empty());
    assert_eq!(r.thread.stats().unbound_conns, 1);
}

#[test]
fn garbage_messages_count_as_decode_errors() {
    let mut r = rig(lc_class(10_000));
    r.fabric.send(
        SimTime::ZERO,
        r.client,
        r.thread.machine(),
        r.conn,
        0,
        *b"not a reflex header.........",
    );
    let responses = drive(&mut r, 1, SimTime::from_millis(2));
    assert!(responses.is_empty());
    assert_eq!(r.thread.stats().decode_errors, 1);
}

#[test]
fn pipelined_requests_are_batched_and_all_answered() {
    let mut r = rig(lc_class(200_000));
    // 512 back-to-back 4KB reads at 1us spacing: far faster than the device
    // unloaded latency, so the thread must batch RX and CQ processing.
    for i in 0..512u64 {
        let addr = (i * 7919 % 1_000_000) * 4096;
        let req = ReflexHeader {
            opcode: Opcode::Get,
            tenant: 1,
            cookie: i,
            addr,
            len: 4096,
        };
        r.fabric.send(
            SimTime::from_nanos(i * 1_000),
            r.client,
            r.thread.machine(),
            r.conn,
            0,
            req.encode_array(),
        );
    }
    let responses = drive(&mut r, 512, SimTime::from_millis(100));
    assert_eq!(responses.len(), 512);
    let mut cookies: Vec<u64> = responses.iter().map(|(h, _)| h.cookie).collect();
    cookies.sort_unstable();
    cookies.dedup();
    assert_eq!(cookies.len(), 512, "every request answered exactly once");
}

#[test]
fn thread_cpu_time_tracks_work() {
    let mut r = rig(lc_class(200_000));
    for i in 0..100u64 {
        let req = ReflexHeader {
            opcode: Opcode::Get,
            tenant: 1,
            cookie: i,
            addr: i * 4096,
            len: 4096,
        };
        r.fabric.send(
            SimTime::from_nanos(i * 2_000),
            r.client,
            r.thread.machine(),
            r.conn,
            0,
            req.encode_array(),
        );
    }
    let _ = drive(&mut r, 100, SimTime::from_millis(50));
    let busy = r.thread.busy_time().as_micros_f64();
    // ~1.05us per request (rx+tx) plus scheduling: within [100, 200]us.
    assert!(
        (80.0..250.0).contains(&busy),
        "busy time {busy}us for 100 requests"
    );
    assert!(r.thread.sched_cpu_time() < r.thread.busy_time());
}

#[test]
fn tenant_lifecycle_management() {
    let mut r = rig(lc_class(10_000));
    let t2 = TenantId(2);
    r.thread
        .register_tenant(t2, TenantClass::BestEffort, AclEntry::full(1 << 30), 4096)
        .unwrap();
    assert!(r
        .thread
        .register_tenant(t2, TenantClass::BestEffort, AclEntry::full(1 << 30), 4096)
        .is_err());
    let conn2 = r.fabric.new_conn();
    r.thread.bind_connection(conn2, t2, r.client).unwrap();
    assert_eq!(r.thread.connection_count(), 2);
    let dropped = r.thread.unregister_tenant(t2).unwrap();
    assert!(dropped.is_empty());
    // The tenant's connections were unbound too.
    assert_eq!(r.thread.connection_count(), 1);
    assert!(r.thread.bind_connection(conn2, t2, r.client).is_err());
}

/// A request for no bytes is refused at once. Were it scheduled, the
/// device would refuse it and nothing would answer it.
#[test]
fn zero_length_read_is_refused() {
    let mut r = rig(lc_class(100_000));
    let req = ReflexHeader {
        opcode: Opcode::Get,
        tenant: 1,
        cookie: 1,
        addr: 8192,
        len: 0,
    };
    r.fabric.send(
        SimTime::ZERO,
        r.client,
        r.thread.machine(),
        r.conn,
        0,
        req.encode_array(),
    );
    let responses = drive(&mut r, 1, SimTime::from_millis(5));
    let answers: Vec<(u64, Opcode)> = responses
        .iter()
        .map(|(h, _)| (h.cookie, h.opcode))
        .collect();
    assert_eq!(answers, [(1, Opcode::Error)]);
    let st = r.thread.stats();
    assert_eq!((st.submitted, st.decode_errors), (0, 1));
}

#[test]
fn client_allowlists_gate_connection_open() {
    let mut r = rig(lc_class(10_000));
    let stranger = r.fabric.add_machine(StackProfile::ix_tcp());
    let tenant = TenantId(2);
    let acl = AclEntry::full(1 << 30).restricted_to(vec![r.client]);
    r.thread
        .register_tenant(tenant, TenantClass::BestEffort, acl, 4096)
        .unwrap();
    // The allowed client binds fine.
    let ok_conn = r.fabric.new_conn();
    r.thread
        .bind_connection(ok_conn, tenant, r.client)
        .expect("allowed client");
    // The stranger is denied at connection open (paper §4.1).
    let bad_conn = r.fabric.new_conn();
    let err = r.thread.bind_connection(bad_conn, tenant, stranger);
    assert!(
        matches!(err, Err(reflex_qos::QosError::ConnectionDenied(t)) if t == tenant),
        "{err:?}"
    );
}

#[test]
fn inflight_read_across_tenant_teardown_never_fills_the_cache() {
    let config = DataplaneConfig {
        cache: Some(reflex_cache::CacheConfig::with_capacity(1 << 20)),
        ..Default::default()
    };
    let mut r = rig_with(lc_class(100_000), config);
    let req = ReflexHeader {
        opcode: Opcode::Get,
        tenant: 1,
        cookie: 7,
        addr: 8192,
        len: 4096,
    };
    r.fabric.send(
        SimTime::ZERO,
        r.client,
        r.thread.machine(),
        r.conn,
        0,
        req.encode_array(),
    );
    // Pump until the miss is at the flash device but not yet complete.
    let mut now = SimTime::ZERO;
    while r.thread.stats().submitted == 0 {
        assert!(now < SimTime::from_millis(10), "read never submitted");
        let wake = r.thread.pump(now, &mut r.fabric, &mut r.device);
        now = match wake {
            Some(w) if w > now => w,
            _ => now + SimDuration::from_micros(5),
        };
    }
    assert_eq!(r.thread.stats().completed, 0, "read should be in flight");

    // The tenant is torn down while its read sits at the device, and a
    // successor immediately reuses the id (same conn, same namespace).
    let tenant = TenantId(1);
    r.thread.unregister_tenant(tenant).expect("registered");
    let capacity = r.device.profile().capacity_bytes;
    r.thread
        .register_tenant(tenant, lc_class(100_000), AclEntry::full(capacity), 4096)
        .expect("id reuse");
    r.thread
        .bind_connection(r.conn, tenant, r.client)
        .expect("rebind");

    // The completion still answers the original request, but its fill
    // must be rejected: it was issued under the pre-teardown epoch.
    let responses = drive(&mut r, 1, SimTime::from_millis(10));
    assert_eq!(responses.len(), 1);
    let cache = r.thread.cache_stats().expect("cache enabled");
    assert_eq!(cache.fills, 0, "stale fill admitted across teardown");
    assert_eq!(cache.stale_fill_skips, 1);

    // The successor's identical read is a clean miss, never a hit on a
    // line it did not fill.
    let req2 = ReflexHeader { cookie: 8, ..req };
    r.fabric.send(
        SimTime::from_millis(10),
        r.client,
        r.thread.machine(),
        r.conn,
        0,
        req2.encode_array(),
    );
    let responses = drive(&mut r, 1, SimTime::from_millis(30));
    assert_eq!(responses.len(), 1);
    assert_eq!(r.thread.stats().cache_hits, 0);
    assert_eq!(r.thread.stats().cache_misses, 2);
}

/// Sends sixteen reads (cookies 0-15) on the rig's connection and pumps
/// its thread until it has received them all.
fn reads_received(r: &mut Rig) {
    let server = r.thread.machine();
    for cookie in 0..16u64 {
        let header = ReflexHeader {
            opcode: Opcode::Get,
            tenant: 1,
            cookie,
            addr: cookie * 4096,
            len: 4096,
        };
        let at = SimTime::from_nanos(cookie * 10);
        r.fabric
            .send(at, r.client, server, r.conn, 0, header.encode_array());
    }
    let mut now = SimTime::ZERO;
    while r.thread.stats().rx_msgs < 16 {
        now += SimDuration::from_micros(1);
        r.thread.pump(now, &mut r.fabric, &mut r.device);
    }
}

/// A second thread on the rig's server, with its own NIC queue and
/// queue pair, started at 100 µs: where a tenant moves to.
fn sibling(r: &mut Rig, config: DataplaneConfig) -> DataplaneThread {
    let server = r.thread.machine();
    DataplaneThread::new(
        1,
        server,
        r.fabric.add_queue(server),
        r.device.create_queue_pair(),
        Arc::new(reflex_qos::GlobalBucket::new(1)),
        CostModel::for_device_a(),
        SchedulerParams::default(),
        config,
        SimTime::from_micros(100),
    )
}

/// Pumps every thread every 5 µs for 20 ms and returns every answer the
/// client received, as (cookie, opcode) in arrival order.
fn answers(
    fabric: &mut Fabric<WireMsg>,
    device: &mut FlashDevice,
    client: MachineId,
    threads: &mut [&mut DataplaneThread],
) -> Vec<(u64, Opcode)> {
    let mut answers = Vec::new();
    let mut now = SimTime::from_micros(100);
    while now < SimTime::from_millis(20) {
        for t in threads.iter_mut() {
            t.pump(now, fabric, device);
        }
        for d in fabric.poll(now, client, usize::MAX) {
            let h = ReflexHeader::decode(&d.payload).expect("server speaks the protocol");
            answers.push((h.cookie, h.opcode));
        }
        now += SimDuration::from_micros(5);
    }
    answers
}

/// A tenant moved to another thread is answered once for every request,
/// wherever the move found it. A best-effort tenant earning 2 K tokens/s
/// still has all sixteen reads in its scheduler queue when it moves: they
/// go with it, and the new thread answers them in arrival order. A
/// latency-critical tenant's reads are all at the old thread's device:
/// nothing goes with it, and the old thread answers them.
#[test]
fn requests_queued_across_a_move_are_answered_once_in_order() {
    let slow = TokenRate::per_sec(2_000);
    for (class, moved) in [(lc_class(100_000), 0), (TenantClass::BestEffort, 16)] {
        let mut r = rig(class);
        r.thread.scheduler_mut().set_be_rate(slow);
        reads_received(&mut r);
        let mut to = sibling(&mut r, DataplaneConfig::default());
        to.scheduler_mut().set_be_rate(slow);
        let tenant = TenantId(1);
        let left = r.thread.unregister_tenant(tenant).expect("registered");
        assert_eq!(left.len(), moved, "{class:?}");
        let capacity = r.device.profile().capacity_bytes;
        to.register_tenant(tenant, class, AclEntry::full(capacity), 4096)
            .expect("fresh here");
        to.adopt_pending(tenant, left).expect("registered");
        r.thread.forward_connection(r.conn, to.nic_queue());
        to.bind_connection(r.conn, tenant, r.client)
            .expect("registered");
        let threads = &mut [&mut r.thread, &mut to];
        let answers = answers(&mut r.fabric, &mut r.device, r.client, threads);
        assert!(
            answers.iter().all(|&(_, op)| op == Opcode::Response),
            "{class:?}: {answers:?}"
        );
        let mut cookies: Vec<u64> = answers.iter().map(|&(c, _)| c).collect();
        if moved > 0 {
            assert_eq!(cookies, (0..16).collect::<Vec<_>>(), "arrival order");
        }
        cookies.sort_unstable();
        assert_eq!(cookies, (0..16).collect::<Vec<_>>(), "{class:?}: once each");
        assert_eq!(to.stats().completed, moved as u64, "{class:?}");
    }
}

/// Byte 0x03 was an ordering barrier's opcode and is now no opcode at all:
/// the thread counts the frame as a decode error and answers nothing, and
/// the read behind it on the same connection is served.
#[test]
fn retired_barrier_opcode_is_a_decode_error() {
    let mut r = rig(lc_class(100_000));
    let read = ReflexHeader {
        opcode: Opcode::Get,
        tenant: 1,
        cookie: 2,
        addr: 8192,
        len: 4096,
    };
    let mut retired = ReflexHeader { cookie: 1, ..read }.encode_array();
    retired[1] = 0x03;
    let server = r.thread.machine();
    r.fabric
        .send(SimTime::ZERO, r.client, server, r.conn, 0, retired);
    let at = SimTime::from_micros(1);
    r.fabric
        .send(at, r.client, server, r.conn, 0, read.encode_array());
    let responses = drive(&mut r, 2, SimTime::from_millis(5));
    let answers: Vec<(u64, Opcode)> = responses
        .iter()
        .map(|(h, _)| (h.cookie, h.opcode))
        .collect();
    assert_eq!(answers, [(2, Opcode::Response)]);
    let st = r.thread.stats();
    assert_eq!((st.rx_msgs, st.decode_errors, st.submitted), (2, 1, 1));
}

/// A thread refuses to unregister a tenant it does not hold, and to adopt
/// requests for a tenant not registered on it (here: the one they were
/// just taken from), and keeps none of the refused requests queued.
#[test]
fn unregister_and_adopt_refuse_an_unknown_tenant() {
    let mut r = rig(TenantClass::BestEffort);
    r.thread
        .scheduler_mut()
        .set_be_rate(TokenRate::per_sec(2_000));
    reads_received(&mut r);
    let stranger = TenantId(9);
    let refused = r.thread.unregister_tenant(stranger);
    assert!(
        matches!(refused, Err(QosError::UnknownTenant(t)) if t == stranger),
        "{refused:?}"
    );
    let tenant = TenantId(1);
    let left = r.thread.unregister_tenant(tenant).expect("registered");
    assert_eq!(left.len(), 16);
    assert_eq!(
        r.thread.adopt_pending(tenant, left),
        Err(QosError::UnknownTenant(tenant))
    );
    assert_eq!(r.thread.scheduler().queued_requests(), 0);
}

/// Requests moved to a thread that already serves another tenant queue
/// there under their own tenant, whose slot differs from the one they held
/// on the thread they left, and are answered in arrival order.
#[test]
fn requests_moved_to_a_busy_thread_queue_under_their_own_tenant() {
    let slow = TokenRate::per_sec(2_000);
    let mut r = rig(TenantClass::BestEffort);
    r.thread.scheduler_mut().set_be_rate(slow);
    reads_received(&mut r);
    let mut to = sibling(&mut r, DataplaneConfig::default());
    to.scheduler_mut().set_be_rate(slow);
    let acl = AclEntry::full(r.device.profile().capacity_bytes);
    let (tenant, resident) = (TenantId(1), TenantId(2));
    to.register_tenant(resident, TenantClass::BestEffort, acl.clone(), 4096)
        .expect("fresh here");
    let left = r.thread.unregister_tenant(tenant).expect("registered");
    to.register_tenant(tenant, TenantClass::BestEffort, acl, 4096)
        .expect("fresh here");
    to.adopt_pending(tenant, left).expect("registered");
    let sched = to.scheduler();
    assert_eq!(
        (sched.queued_for(tenant), sched.queued_for(resident)),
        (16, 0)
    );
    r.thread.forward_connection(r.conn, to.nic_queue());
    to.bind_connection(r.conn, tenant, r.client)
        .expect("registered");
    let threads = &mut [&mut r.thread, &mut to];
    let answers = answers(&mut r.fabric, &mut r.device, r.client, threads);
    let want: Vec<(u64, Opcode)> = (0..16).map(|c| (c, Opcode::Response)).collect();
    assert_eq!(answers, want);
}

/// A tenant moved back to a thread it once left fills that thread's DRAM
/// cache. Leaving bumped its epoch there, and the reads it brings back
/// were stamped with the epoch of the thread they come from: the adopting
/// thread re-stamps them, so their completions are not mistaken for reads
/// issued before the teardown.
#[test]
fn a_tenant_moved_back_fills_the_cache_it_left() {
    let cached = DataplaneConfig {
        cache: Some(reflex_cache::CacheConfig::with_capacity(1 << 20)),
        ..Default::default()
    };
    let slow = TokenRate::per_sec(2_000);
    let mut r = rig_with(TenantClass::BestEffort, cached);
    r.thread.scheduler_mut().set_be_rate(slow);
    let mut to = sibling(&mut r, cached);
    to.scheduler_mut().set_be_rate(slow);
    let acl = AclEntry::full(r.device.profile().capacity_bytes);
    let tenant = TenantId(1);
    to.register_tenant(tenant, TenantClass::BestEffort, acl.clone(), 4096)
        .expect("fresh here");
    to.unregister_tenant(tenant).expect("registered");
    reads_received(&mut r);
    let left = r.thread.unregister_tenant(tenant).expect("registered");
    assert_eq!(left.len(), 16);
    to.register_tenant(tenant, TenantClass::BestEffort, acl, 4096)
        .expect("gone from here");
    to.adopt_pending(tenant, left).expect("registered");
    r.thread.forward_connection(r.conn, to.nic_queue());
    to.bind_connection(r.conn, tenant, r.client)
        .expect("registered");
    let threads = &mut [&mut r.thread, &mut to];
    let answers = answers(&mut r.fabric, &mut r.device, r.client, threads);
    assert_eq!(answers.len(), 16);
    let cache = to.cache_stats().expect("cache enabled");
    assert_eq!((cache.fills, cache.stale_fill_skips), (16, 0));
}
