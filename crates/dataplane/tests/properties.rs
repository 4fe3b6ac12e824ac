//! Property-based tests of the dataplane thread: for arbitrary request
//! streams, every valid request is answered exactly once, never before
//! its device completion, and counters stay consistent.

use std::sync::Arc;

use proptest::prelude::*;
use reflex_dataplane::{AclEntry, DataplaneConfig, DataplaneThread};
use reflex_flash::{device_a, FlashDevice};
use reflex_net::{Fabric, LinkConfig, NicQueueId, Opcode, ReflexHeader, StackProfile};
use reflex_qos::{CostModel, GlobalBucket, SchedulerParams, SloSpec, TenantClass, TenantId};
use reflex_sim::{SimDuration, SimRng, SimTime};

#[derive(Debug, Clone)]
struct Op {
    is_read: bool,
    page: u64,
    gap_ns: u64,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<bool>(), 0u64..1_000_000, 100u64..100_000).prop_map(|(is_read, page, gap_ns)| Op {
        is_read,
        page,
        gap_ns,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_request_answered_exactly_once(ops in prop::collection::vec(op_strategy(), 1..150)) {
        let mut fabric = Fabric::new(LinkConfig::default(), SimRng::seed(7));
        let client = fabric.add_machine(StackProfile::ix_tcp());
        let server = fabric.add_machine(StackProfile::dataplane_raw());
        let mut device = FlashDevice::new(device_a(), SimRng::seed(8));
        device.precondition();
        let qp = device.create_queue_pair();
        let bucket = Arc::new(GlobalBucket::new(1));
        let mut thread = DataplaneThread::new(
            0,
            server,
            NicQueueId(0),
            qp,
            bucket,
            CostModel::for_device_a(),
            SchedulerParams::default(),
            DataplaneConfig::default(),
            SimTime::ZERO,
        );
        let tenant = TenantId(1);
        let slo = SloSpec::new(200_000, 50, SimDuration::from_millis(2));
        thread
            .register_tenant(
                tenant,
                TenantClass::LatencyCritical(slo),
                AclEntry::full(device.profile().capacity_bytes),
                4096,
            )
            .expect("fresh tenant");
        let conn = fabric.new_conn();
        thread.bind_connection(conn, tenant, client).expect("bound");

        // Send the stream as-is.
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        for (i, op) in ops.iter().enumerate() {
            now += SimDuration::from_nanos(op.gap_ns);
            let opcode = if op.is_read { Opcode::Get } else { Opcode::Put };
            let header = ReflexHeader {
                opcode,
                tenant: 1,
                cookie: i as u64,
                addr: op.page * 4096,
                len: 4096,
            };
            let payload = if op.is_read { 0 } else { 4096 };
            fabric.send(now, client, server, conn, payload, header.encode_array());
            sent += 1;
        }

        // Drive to quiescence.
        let mut answered = std::collections::HashSet::new();
        let mut t = SimTime::ZERO;
        for _ in 0..100_000 {
            let wake = thread.pump(t, &mut fabric, &mut device);
            for d in fabric.poll(SimTime::from_secs(3_600), client, usize::MAX) {
                let h = ReflexHeader::decode(&d.payload).expect("server speaks protocol");
                prop_assert!(answered.insert(h.cookie), "cookie {} answered twice", h.cookie);
            }
            match wake {
                Some(w) => t = w.max(t + SimDuration::from_nanos(1)),
                None if answered.len() as u64 == sent => break,
                None => t += SimDuration::from_millis(1),
            }
            if t > SimTime::from_secs(60) {
                break;
            }
        }
        prop_assert_eq!(answered.len() as u64, sent, "unanswered requests remain");

        let stats = thread.stats();
        prop_assert_eq!(stats.tx_msgs, sent);
        prop_assert!(stats.completed <= stats.submitted);
        prop_assert_eq!(stats.unbound_conns, 0);
        prop_assert_eq!(stats.decode_errors, 0);
    }
}

// ---------------------------------------------------------------------
// Dense connection and tenant tables against a plain `HashMap` model.
// ---------------------------------------------------------------------

mod tables {
    use std::collections::HashMap;

    use super::*;
    use reflex_dataplane::ThreadStats;
    use reflex_net::{ConnId, MachineId};
    use reflex_qos::TokenRate;

    /// What a thread does with a message, by the maps a reader would write
    /// down from the API docs: a connection is bound to a tenant or is
    /// unknown — one entry per connection, the last `bind_connection`
    /// wins, `unbind` removes it, and unregistering a tenant removes its
    /// bindings.
    #[derive(Debug, Default)]
    struct ModelThread {
        /// Registered tenants, with the requests accepted for each since
        /// its registration.
        tenants: HashMap<TenantId, u64>,
        conns: HashMap<ConnId, TenantId>,
        rx_msgs: u64,
        unbound_conns: u64,
        acl_rejections: u64,
    }

    #[derive(Debug, Clone)]
    enum Step {
        Register {
            thread: usize,
            tenant: usize,
        },
        Unregister {
            thread: usize,
            tenant: usize,
        },
        Bind {
            thread: usize,
            conn: usize,
            tenant: usize,
        },
        Unbind {
            thread: usize,
            conn: usize,
        },
        Send {
            to: usize,
            conn: usize,
            kind: u8,
            page: u64,
        },
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        (0u8..16, 0usize..2, 0usize..5, 0usize..7, 0u8..8, 0u64..4096).prop_map(
            |(what, thread, tenant, conn, kind, page)| match what {
                0 | 1 => Step::Register { thread, tenant },
                2 => Step::Unregister { thread, tenant },
                3..=6 => Step::Bind {
                    thread,
                    conn,
                    tenant,
                },
                7 => Step::Unbind { thread, conn },
                _ => Step::Send {
                    to: thread,
                    conn,
                    kind,
                    page,
                },
            },
        )
    }

    /// Tenant ids in play: small ones and the largest there is. Odd
    /// indices are latency-critical.
    const TENANTS: [TenantId; 5] = [
        TenantId(1),
        TenantId(2),
        TenantId(3),
        TenantId(4),
        TenantId(u32::MAX),
    ];

    fn is_lc(tenant: usize) -> bool {
        tenant % 2 == 1
    }

    struct Rig {
        fabric: Fabric<reflex_dataplane::WireMsg>,
        device: FlashDevice,
        threads: Vec<DataplaneThread>,
        client: MachineId,
        server: MachineId,
        conns: Vec<ConnId>,
        capacity: u64,
        now: SimTime,
    }

    impl Rig {
        fn new() -> Rig {
            let mut fabric = Fabric::new(LinkConfig::default(), SimRng::seed(21));
            let client = fabric.add_machine(StackProfile::ix_tcp());
            let server = fabric.add_machine(StackProfile::dataplane_raw());
            let queues = [NicQueueId(0), fabric.add_queue(server)];
            let mut device = FlashDevice::new(device_a(), SimRng::seed(22));
            device.precondition();
            let bucket = Arc::new(GlobalBucket::new(2));
            let threads = queues
                .iter()
                .enumerate()
                .map(|(i, &queue)| {
                    let mut t = DataplaneThread::new(
                        i as u32,
                        server,
                        queue,
                        device.create_queue_pair(),
                        Arc::clone(&bucket),
                        CostModel::for_device_a(),
                        SchedulerParams::default(),
                        DataplaneConfig::default(),
                        SimTime::ZERO,
                    );
                    t.set_be_rate(TokenRate::per_sec(200_000));
                    t
                })
                .collect();
            // Six ids as a fabric issues them, and one nobody issued.
            let mut conns: Vec<ConnId> = (0..6).map(|_| fabric.new_conn()).collect();
            conns.push(ConnId(u32::MAX));
            let capacity = device.profile().capacity_bytes;
            Rig {
                fabric,
                device,
                threads,
                client,
                server,
                conns,
                capacity,
                now: SimTime::ZERO,
            }
        }

        /// Pumps both threads until neither has a message left to
        /// receive; device completions are not waited for.
        fn drain_rx(&mut self) {
            for _ in 0..64 {
                self.now += SimDuration::from_micros(2);
                for t in &mut self.threads {
                    t.pump(self.now, &mut self.fabric, &mut self.device);
                }
                let idle = self.threads.iter().all(|t| {
                    self.fabric
                        .next_arrival_queue(self.server, t.nic_queue())
                        .is_none()
                });
                if idle {
                    return;
                }
            }
            panic!("receive queues never drained");
        }
    }

    fn register(rig: &mut Rig, thread: usize, tenant: usize) -> bool {
        let class = if is_lc(tenant) {
            TenantClass::LatencyCritical(SloSpec::new(20_000, 50, SimDuration::from_millis(2)))
        } else {
            TenantClass::BestEffort
        };
        let acl = AclEntry::full(rig.capacity);
        rig.threads[thread]
            .register_tenant(TENANTS[tenant], class, acl, 4096)
            .is_ok()
    }

    /// A read at the device when its tenant is unregistered is still
    /// answered, once, and a successor that took over the slot (or the
    /// same id registered again) is charged nothing for it.
    #[test]
    fn a_departed_tenants_completion_is_not_its_successors() {
        for same_id_returns in [false, true] {
            let mut rig = Rig::new();
            let (first, successor) = (1, if same_id_returns { 1 } else { 3 });
            assert!(register(&mut rig, 0, first));
            let conn = rig.conns[0];
            rig.threads[0]
                .bind_connection(conn, TENANTS[first], rig.client)
                .expect("registered");
            let header = ReflexHeader {
                opcode: Opcode::Get,
                tenant: 0,
                cookie: 9,
                addr: 4096,
                len: 4096,
            };
            let queue = rig.threads[0].nic_queue();
            rig.fabric.send_to_queue(
                rig.now,
                rig.client,
                rig.server,
                queue,
                conn,
                0,
                header.encode_array(),
            );
            // Pump until the read is at the device, not until it is back.
            while rig.threads[0].stats().submitted == 0 {
                rig.drain_rx();
            }
            assert_eq!(rig.threads[0].stats().completed, 0, "still at the device");
            let left = rig.threads[0]
                .unregister_tenant(TENANTS[first])
                .expect("registered");
            assert!(left.is_empty(), "nothing was queued any more");
            assert!(
                register(&mut rig, 0, successor),
                "takes over the freed slot"
            );
            while rig.threads[0].stats().completed == 0 {
                rig.drain_rx();
            }
            let books = rig.threads[0]
                .scheduler()
                .stats_for(TENANTS[successor])
                .expect("registered");
            assert_eq!(books.submitted, 0);
            assert_eq!(
                rig.fabric.poll(SimTime::from_secs(1), rig.client, 8).len(),
                1
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random control-plane churn with traffic in between: after every
        /// step both threads agree with the model on what they did with
        /// each message, on their connection counts, and on which tenant
        /// every accepted request went to — with requests queued and at
        /// the device across the churn, and with ids at the top of their
        /// ranges in the mix.
        #[test]
        fn dense_tables_match_map_model(steps in prop::collection::vec(step_strategy(), 1..200)) {
            let mut rig = Rig::new();
            let mut model = [ModelThread::default(), ModelThread::default()];
            let mut expect_responses = 0u64;
            let mut responses = 0u64;
            let mut cookie = 0u64;

            for step in steps {
                match step {
                    Step::Register { thread, tenant } => {
                        let id = TENANTS[tenant];
                        // One thread per tenant, as the control plane has it.
                        let taken = model.iter().any(|m| m.tenants.contains_key(&id));
                        if !taken {
                            prop_assert!(register(&mut rig, thread, tenant));
                            model[thread].tenants.insert(id, 0);
                        } else if model[thread].tenants.contains_key(&id) {
                            prop_assert!(!register(&mut rig, thread, tenant), "duplicate accepted");
                        }
                    }
                    Step::Unregister { thread, tenant } => {
                        let id = TENANTS[tenant];
                        let left = rig.threads[thread].unregister_tenant(id);
                        prop_assert_eq!(left.is_ok(), model[thread].tenants.remove(&id).is_some());
                        // Queued requests are handed back and dropped here:
                        // they will never be answered.
                        expect_responses -= left.map_or(0, |l| l.len() as u64);
                        model[thread].conns.retain(|_, c| *c != id);
                    }
                    Step::Bind { thread, conn, tenant } => {
                        let id = TENANTS[tenant];
                        let bound = rig.threads[thread]
                            .bind_connection(rig.conns[conn], id, rig.client)
                            .is_ok();
                        prop_assert_eq!(bound, model[thread].tenants.contains_key(&id));
                        if bound {
                            model[thread].conns.insert(rig.conns[conn], id);
                        }
                    }
                    Step::Unbind { thread, conn } => {
                        rig.threads[thread].unbind_connection(rig.conns[conn]);
                        model[thread].conns.remove(&rig.conns[conn]);
                    }
                    Step::Send { to, conn, kind, page } => {
                        let c = rig.conns[conn];
                        let is_read = kind % 2 == 0;
                        // One kind in eight asks for a block past the device.
                        let addr = if kind == 7 { rig.capacity } else { page * 4096 };
                        cookie += 1;
                        let header = ReflexHeader {
                            opcode: if is_read { Opcode::Get } else { Opcode::Put },
                            tenant: 0,
                            cookie,
                            addr,
                            len: 4096,
                        };
                        rig.now += SimDuration::from_micros(1);
                        rig.fabric.send_to_queue(
                            rig.now,
                            rig.client,
                            rig.server,
                            rig.threads[to].nic_queue(),
                            c,
                            if is_read { 0 } else { 4096 },
                            header.encode_array(),
                        );
                        let m = &mut model[to];
                        m.rx_msgs += 1;
                        match m.conns.get(&c).copied() {
                            Some(_) if addr + 4096 > rig.capacity => {
                                m.acl_rejections += 1;
                                expect_responses += 1;
                            }
                            Some(id) => {
                                *m.tenants.get_mut(&id).expect("bound to a tenant") += 1;
                                expect_responses += 1;
                            }
                            None => m.unbound_conns += 1,
                        }
                    }
                }
                rig.drain_rx();

                // Responses that reached the wire during this step.
                for d in rig.fabric.poll(SimTime::from_secs(3_600), rig.client, usize::MAX) {
                    ReflexHeader::decode(&d.payload).expect("server speaks protocol");
                    responses += 1;
                }

                for (i, (thread, m)) in rig.threads.iter().zip(&model).enumerate() {
                    let s = thread.stats();
                    let routed = ThreadStats {
                        rx_msgs: m.rx_msgs,
                        unbound_conns: m.unbound_conns,
                        acl_rejections: m.acl_rejections,
                        // Not the tables' business: whatever the thread says.
                        tx_msgs: s.tx_msgs,
                        submitted: s.submitted,
                        completed: s.completed,
                        sched_rounds: s.sched_rounds,
                        sq_full_retries: s.sq_full_retries,
                        ..ThreadStats::default()
                    };
                    prop_assert_eq!(s, routed, "thread {} stats", i);
                    prop_assert_eq!(thread.connection_count() as usize, m.conns.len(), "thread {}", i);
                    for (&id, &accepted) in &m.tenants {
                        let sched = thread.scheduler();
                        let stats = sched.stats_for(id).expect("registered in the scheduler");
                        prop_assert_eq!(
                            sched.queued_for(id) as u64 + stats.submitted,
                            accepted,
                            "thread {} {} accepted", i, id
                        );
                    }
                    for id in TENANTS {
                        if !m.tenants.contains_key(&id) {
                            prop_assert!(thread.scheduler().stats_for(id).is_none());
                        }
                    }
                }
            }

            // Let the device finish: every accepted request that was not
            // handed back is answered exactly once, nothing else is.
            for _ in 0..10_000 {
                rig.now += SimDuration::from_micros(50);
                let mut busy = false;
                for t in &mut rig.threads {
                    busy |= t.pump(rig.now, &mut rig.fabric, &mut rig.device).is_some();
                }
                responses += rig.fabric.poll(SimTime::from_secs(3_600), rig.client, usize::MAX).len() as u64;
                if !busy {
                    break;
                }
            }
            prop_assert_eq!(responses, expect_responses);
            let tx: u64 = rig.threads.iter().map(|t| t.stats().tx_msgs).sum();
            prop_assert_eq!(tx, responses);
            for t in &rig.threads {
                prop_assert_eq!(t.stats().submitted, t.stats().completed);
            }
            prop_assert_eq!(rig.fabric.in_flight(), 0, "the fabric holds no message after the drain");
        }
    }
}
