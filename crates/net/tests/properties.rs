//! Property-based tests of the network model.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use reflex_net::{
    wire_bytes, ConnId, Delivery, Fabric, LinkConfig, MachineId, NetFaultAction, NetFaultHook,
    NicQueueId, Opcode, ReflexHeader, StackProfile, WireError, HEADER_SIZE,
};
use reflex_sim::{SimDuration, SimRng, SimTime};

fn arb_opcode(raw: u8) -> Opcode {
    match raw % 4 {
        0 => Opcode::Get,
        1 => Opcode::Put,
        2 => Opcode::Response,
        _ => Opcode::Error,
    }
}

/// Fault verdicts as a pure function of the message and its send instant,
/// so the hook gives the same answer on whichever fabric consults it.
#[derive(Clone, Copy)]
struct SizeKeyedFaults {
    /// A latency storm: other sends in `start..end` arrive `extra` late.
    storm: (SimTime, SimTime, SimDuration),
}

/// No storm.
const CALM: SizeKeyedFaults = SizeKeyedFaults {
    storm: (SimTime::ZERO, SimTime::ZERO, SimDuration::ZERO),
};

impl NetFaultHook for SizeKeyedFaults {
    fn on_send(&mut self, now: SimTime, _: MachineId, _: MachineId, size: u32) -> NetFaultAction {
        let (start, end, extra) = self.storm;
        match size % 16 {
            13 => NetFaultAction::Drop,
            14 => NetFaultAction::Duplicate,
            15 => NetFaultAction::Delay(SimDuration::from_nanos(u64::from(size) * 3)),
            _ if (start..end).contains(&now) => NetFaultAction::Delay(extra),
            _ => NetFaultAction::Deliver,
        }
    }
}

const CLIENTS: u32 = 3;
const QUEUES: u32 = 3;
const SERVER: MachineId = MachineId(CLIENTS);

/// Naive reference for the fabric's receive queues. A second
/// fabric whose machines all have a single receive queue only computes
/// arrival instants; which queue a message was steered to and what has not
/// been polled yet are kept here in flat lists and answered by linear
/// scan. It holds the two things queues must not change: steering never
/// moves an arrival instant, and each queue drains in (arrival, enqueue
/// sequence) order.
struct FlatOracle {
    flat: Fabric<u32>,
    /// Unpolled deliveries with the queue they were steered to and their
    /// enqueue rank.
    queued: Vec<(MachineId, NicQueueId, u64, Delivery<u32>)>,
    rank: u64,
}

impl FlatOracle {
    fn new(flat: Fabric<u32>) -> Self {
        FlatOracle {
            flat,
            queued: Vec::new(),
            rank: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        now: SimTime,
        from: MachineId,
        to: MachineId,
        queue: NicQueueId,
        conn: ConnId,
        size: u32,
        tag: u32,
    ) -> SimTime {
        let at = self.flat.send(now, from, to, conn, size, tag);
        // Zero, one or (duplicated) two copies, in enqueue order.
        for d in self.flat.poll(SimTime::MAX, to, usize::MAX) {
            self.queued.push((to, queue, self.rank, d));
            self.rank += 1;
        }
        at
    }

    fn poll(
        &mut self,
        now: SimTime,
        machine: MachineId,
        queue: NicQueueId,
        max: usize,
    ) -> Vec<Delivery<u32>> {
        let mut due: Vec<(SimTime, u64)> = self
            .queued
            .iter()
            .filter(|(m, q, _, d)| (*m, *q) == (machine, queue) && d.arrived_at <= now)
            .map(|(_, _, rank, d)| (d.arrived_at, *rank))
            .collect();
        due.sort_unstable();
        due.truncate(max);
        due.iter()
            .map(|&(_, rank)| {
                let at = self
                    .queued
                    .iter()
                    .position(|(_, _, r, _)| *r == rank)
                    .expect("ranked above");
                self.queued.remove(at).3
            })
            .collect()
    }

    fn next_arrival_queue(&self, machine: MachineId, queue: NicQueueId) -> Option<SimTime> {
        self.queued
            .iter()
            .filter(|(m, q, _, _)| (*m, *q) == (machine, queue))
            .map(|(_, _, _, d)| d.arrived_at)
            .min()
    }
}

/// Every queue's `next_arrival_queue` agrees with the oracle's.
fn heads_agree(sut: &Fabric<u32>, oracle: &FlatOracle, after: &str) -> Result<(), TestCaseError> {
    for m in 0..=CLIENTS {
        for q in 0..sut.queue_count(MachineId(m)) {
            let (m, q) = (MachineId(m), NicQueueId(q));
            prop_assert_eq!(
                sut.next_arrival_queue(m, q),
                oracle.next_arrival_queue(m, q),
                "next_arrival_queue({:?}, {:?}) after {}",
                m,
                q,
                after
            );
        }
    }
    Ok(())
}

/// Polls every queue through `end` on both sides and compares.
fn drain_agrees(
    sut: &mut Fabric<u32>,
    oracle: &mut FlatOracle,
    end: SimTime,
) -> Result<(), TestCaseError> {
    let mut got = Vec::new();
    for m in 0..=CLIENTS {
        for q in 0..sut.queue_count(MachineId(m)) {
            let (m, q) = (MachineId(m), NicQueueId(q));
            sut.poll_queue_into(end, m, q, usize::MAX, &mut got);
            let want = oracle.poll(end, m, q, usize::MAX);
            prop_assert_eq!(&got, &want, "final deliveries on {:?}/{:?}", m, q);
        }
    }
    heads_agree(sut, oracle, "the drain")?;
    prop_assert!(oracle.queued.is_empty());
    prop_assert_eq!(sut.fault_counts(), oracle.flat.fault_counts());
    prop_assert_eq!(sut.in_flight(), 0);
    Ok(())
}

/// Three clients and a server with `queues` receive queues, fault verdicts
/// keyed on message size and send instant.
fn faulty_fabric(queues: u32, faults: SizeKeyedFaults) -> Fabric<u32> {
    let mut f: Fabric<u32> = Fabric::new(LinkConfig::default(), SimRng::seed(77));
    for _ in 0..CLIENTS {
        f.add_machine(StackProfile::ix_tcp());
    }
    assert_eq!(f.add_machine(StackProfile::dataplane_raw()), SERVER);
    for _ in 1..queues {
        f.add_queue(SERVER);
    }
    f.set_fault_hook(Box::new(faults));
    f
}

proptest! {
    /// Differential: the fabric's receive queues against [`FlatOracle`]
    /// under one random schedule of steered sends, plain sends, replies
    /// and polls, with Drop/Duplicate/Delay verdicts. Deliveries, arrival
    /// instants and every queue's `next_arrival_queue` must agree after
    /// each step.
    #[test]
    fn queues_match_flat_oracle(
        ops in prop::collection::vec((0u8..5, 0u64..3_000, 0u32..CLIENTS, 0u32..QUEUES, 0u32..4_096), 1..120),
    ) {
        let mut sut = faulty_fabric(QUEUES, CALM);
        let mut oracle = FlatOracle::new(faulty_fabric(1, CALM));
        let conn = sut.new_conn();
        let mut now = SimTime::ZERO;
        let mut got: Vec<Delivery<u32>> = Vec::new();

        for (i, &(op, dt, client, queue, size)) in ops.iter().enumerate() {
            now += SimDuration::from_nanos(dt);
            let (client, queue, tag) = (MachineId(client), NicQueueId(queue), i as u32);
            match op {
                0 | 1 => {
                    let a = sut.send_to_queue(now, client, SERVER, queue, conn, size, tag);
                    let b = oracle.send(now, client, SERVER, queue, conn, size, tag);
                    prop_assert_eq!(a, b, "steered send arrival, op {}", i);
                }
                2 => {
                    let a = sut.send(now, client, SERVER, conn, size, tag);
                    let b = oracle.send(now, client, SERVER, NicQueueId(0), conn, size, tag);
                    prop_assert_eq!(a, b, "plain send arrival, op {}", i);
                }
                3 => {
                    let a = sut.send(now, SERVER, client, conn, size, tag);
                    let b = oracle.send(now, SERVER, client, NicQueueId(0), conn, size, tag);
                    prop_assert_eq!(a, b, "reply arrival, op {}", i);
                }
                _ => {
                    // Poll one server queue and one client, a few at a time.
                    let max = 1 + size as usize % 8;
                    for (m, q) in [(SERVER, queue), (client, NicQueueId(0))] {
                        sut.poll_queue_into(now, m, q, max, &mut got);
                        let want = oracle.poll(now, m, q, max);
                        prop_assert_eq!(&got, &want, "deliveries on {:?}/{:?}, op {}", m, q, i);
                    }
                }
            }
            heads_agree(&sut, &oracle, &format!("op {i}"))?;
        }

        // Drain: everything sent is delivered identically, in order.
        drain_agrees(&mut sut, &mut oracle, now + SimDuration::from_millis(50))?;
    }

    /// The deep-queue paths `queues_match_flat_oracle` cannot reach. Server
    /// queue 0 is built hundreds of messages deep while a latency storm of
    /// up to 2 ms delays its middle, so every later arrival lands behind
    /// the delayed tail, farther back than a run's reach. Then random
    /// sends, replies and polls of one to four messages run against
    /// [`FlatOracle`].
    #[test]
    fn deep_queues_match_flat_oracle(
        depth in 160u64..400,
        storm_us in 300u64..2_000,
        ops in prop::collection::vec((0u8..4, 0u64..2_000, 0u32..CLIENTS, 0u32..QUEUES, 0u32..4_096), 1..200),
    ) {
        // One send every 100 ns; those from depth/8 to depth/2 in the storm.
        let storm = SizeKeyedFaults {
            storm: (
                SimTime::from_nanos(depth / 8 * 100),
                SimTime::from_nanos(depth / 2 * 100),
                SimDuration::from_micros(storm_us),
            ),
        };
        let mut sut = faulty_fabric(QUEUES, storm);
        let mut oracle = FlatOracle::new(faulty_fabric(1, storm));
        let conn = sut.new_conn();
        let q0 = NicQueueId(0);
        for i in 0..depth {
            let (now, tag) = (SimTime::from_nanos(i * 100), i as u32);
            let (client, size) = (MachineId(tag % CLIENTS), 64 + tag % 16);
            let a = sut.send_to_queue(now, client, SERVER, q0, conn, size, tag);
            let b = oracle.send(now, client, SERVER, q0, conn, size, tag);
            prop_assert_eq!(a, b, "arrival of build send {}", i);
        }
        prop_assert!(sut.rx_pushes().set_aside > 0, "{:?}", sut.rx_pushes());

        let mut now = SimTime::from_nanos(depth * 100);
        let mut got: Vec<Delivery<u32>> = Vec::new();
        for (i, &(op, dt, client, queue, size)) in ops.iter().enumerate() {
            now += SimDuration::from_nanos(dt);
            let (client, queue) = (MachineId(client), NicQueueId(queue));
            let (tag, max) = (depth as u32 + i as u32, 1 + size as usize % 4);
            match op {
                0 => {
                    let a = sut.send_to_queue(now, client, SERVER, queue, conn, size, tag);
                    let b = oracle.send(now, client, SERVER, queue, conn, size, tag);
                    prop_assert_eq!(a, b, "steered send arrival, op {}", i);
                }
                1 => {
                    let a = sut.send(now, SERVER, client, conn, size, tag);
                    let b = oracle.send(now, SERVER, client, q0, conn, size, tag);
                    prop_assert_eq!(a, b, "reply arrival, op {}", i);
                }
                _ => {
                    for (m, q) in [(SERVER, queue), (client, q0)] {
                        sut.poll_queue_into(now, m, q, max, &mut got);
                        let want = oracle.poll(now, m, q, max);
                        prop_assert_eq!(&got, &want, "deliveries on {:?}/{:?}, op {}", m, q, i);
                    }
                }
            }
            heads_agree(&sut, &oracle, &format!("op {i}"))?;
        }
        drain_agrees(&mut sut, &mut oracle, now + SimDuration::from_millis(50))?;
    }

    /// `send`/`send_to_queue` return the exact arrival: a poll of the
    /// destination queue at that instant yields the message (both copies of
    /// a duplicate), unless the hook dropped it.
    #[test]
    fn a_poll_at_the_returned_instant_delivers_the_message(
        sends in prop::collection::vec((0u64..3_000, 0u32..CLIENTS, 0u32..QUEUES, 0u32..4_096, any::<bool>()), 1..80),
    ) {
        let mut f = faulty_fabric(QUEUES, CALM);
        let conn = f.new_conn();
        let mut now = SimTime::ZERO;
        for (i, &(dt, client, queue, size, reply)) in sends.iter().enumerate() {
            now += SimDuration::from_nanos(dt);
            let (client, queue, tag) = (MachineId(client), NicQueueId(queue), i as u32);
            let (at, m, q) = if reply {
                (f.send(now, SERVER, client, conn, size, tag), client, NicQueueId(0))
            } else {
                (f.send_to_queue(now, client, SERVER, queue, conn, size, tag), SERVER, queue)
            };
            prop_assert!(at > now);
            let just_before = f.poll_queue(at - SimDuration::from_nanos(1), m, q, usize::MAX);
            prop_assert!(just_before.iter().all(|d| d.payload != tag), "send {} early", i);
            let copies = f
                .poll_queue(at + SimDuration::from_nanos(500), m, q, usize::MAX)
                .iter()
                .filter(|d| d.payload == tag)
                .map(|d| d.arrived_at)
                .collect::<Vec<_>>();
            let want = match size % 16 {
                13 => vec![],
                14 => vec![at, at + SimDuration::from_nanos(500)],
                _ => vec![at],
            };
            prop_assert_eq!(copies, want, "send {}", i);
        }
    }

    /// `next_arrival_queue` is an exact instant, never a bound: a poll one
    /// nanosecond earlier finds nothing, and the next poll at that instant
    /// returns a delivery stamped with it.
    #[test]
    fn next_arrival_is_the_next_delivery(
        ops in prop::collection::vec((0u64..3_000, 0u32..CLIENTS, 0u32..QUEUES, 0u32..4_096, 0u8..3), 1..120),
    ) {
        let mut f = faulty_fabric(QUEUES, CALM);
        let conn = f.new_conn();
        let mut now = SimTime::ZERO;
        for (i, &(dt, client, queue, size, op)) in ops.iter().enumerate() {
            now += SimDuration::from_nanos(dt);
            let queue = NicQueueId(queue);
            if op < 2 {
                f.send_to_queue(now, MachineId(client), SERVER, queue, conn, size, i as u32);
                continue;
            }
            let Some(at) = f.next_arrival_queue(SERVER, queue) else {
                prop_assert!(f.poll_queue(SimTime::MAX, SERVER, queue, 1).is_empty());
                continue;
            };
            let early = f.poll_queue(at - SimDuration::from_nanos(1), SERVER, queue, 1);
            prop_assert!(early.is_empty(), "op {}: delivery before next_arrival", i);
            let due = f.poll_queue(at, SERVER, queue, 1);
            prop_assert_eq!(due.len(), 1, "op {}: nothing at next_arrival", i);
            prop_assert_eq!(due[0].arrived_at, at);
        }
    }

    #[test]
    fn header_round_trip(
        op_raw in any::<u8>(),
        tenant in any::<u32>(),
        cookie in any::<u64>(),
        addr in any::<u64>(),
        len in any::<u32>(),
    ) {
        let hdr = ReflexHeader { opcode: arb_opcode(op_raw), tenant, cookie, addr, len };
        let enc = hdr.encode_array();
        prop_assert_eq!(ReflexHeader::decode(&enc).unwrap(), hdr);
    }

    /// Decoding arbitrary bytes never panics and either returns a valid
    /// header or a classified error.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        match ReflexHeader::decode(&bytes) {
            Ok(h) => {
                // Anything decoded must re-encode to the same prefix.
                let enc = h.encode_array();
                prop_assert_eq!(&enc[..], &bytes[..HEADER_SIZE]);
            }
            Err(WireError::Truncated) => prop_assert!(bytes.len() < HEADER_SIZE),
            Err(WireError::BadMagic(b)) => prop_assert_eq!(b, bytes[0]),
            Err(WireError::BadOpcode(b)) => prop_assert_eq!(b, bytes[1]),
        }
    }

    /// Wire size accounting is monotone and always includes the header.
    #[test]
    fn wire_bytes_monotone(a in 0usize..10_000_000, b in 0usize..10_000_000) {
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(wire_bytes(small) <= wire_bytes(large));
        prop_assert!(wire_bytes(small) >= small + HEADER_SIZE);
    }

    /// Fabric causality: every delivery arrives strictly after its send
    /// instant, and per-queue deliveries are time-ordered.
    #[test]
    fn fabric_causal(
        msgs in prop::collection::vec((0u64..1_000_000, 0u32..100_000, 0u8..2), 1..100),
    ) {
        let mut fabric: Fabric<u64> = Fabric::new(LinkConfig::default(), SimRng::seed(1));
        let c = fabric.add_machine(StackProfile::ix_tcp());
        let s = fabric.add_machine(StackProfile::dataplane_raw());
        let q1 = fabric.add_queue(s);
        let conn = fabric.new_conn();
        let mut sent = Vec::new();
        let mut now = SimTime::ZERO;
        for (i, (gap_ns, size, which_q)) in msgs.iter().enumerate() {
            now += SimDuration::from_nanos(*gap_ns);
            let q = if *which_q == 0 { NicQueueId(0) } else { q1 };
            let arrival = fabric.send_to_queue(now, c, s, q, conn, *size, i as u64);
            prop_assert!(arrival > now, "arrival {arrival} not after send {now}");
            sent.push((q, i as u64));
        }
        let horizon = SimTime::from_secs(3_600);
        for q in [NicQueueId(0), q1] {
            let got = fabric.poll_queue(horizon, s, q, usize::MAX);
            let mut prev = SimTime::ZERO;
            for d in &got {
                prop_assert!(d.arrived_at >= prev);
                prev = d.arrived_at;
            }
            let expected = sent.iter().filter(|(sq, _)| *sq == q).count();
            prop_assert_eq!(got.len(), expected, "queue {:?}", q);
        }
    }

    /// Bandwidth conservation: the receiver can never receive faster than
    /// the link bandwidth over any busy interval.
    #[test]
    fn bandwidth_bounded(n in 10u32..200) {
        let mut fabric: Fabric<u32> = Fabric::new(LinkConfig::default(), SimRng::seed(2));
        let c = fabric.add_machine(StackProfile::ix_tcp());
        let s = fabric.add_machine(StackProfile::dataplane_raw());
        let conn = fabric.new_conn();
        // Blast n 4KB messages at t=0.
        let mut last = SimTime::ZERO;
        for i in 0..n {
            let a = fabric.send(SimTime::ZERO, c, s, conn, 4096, i);
            last = last.max(a);
        }
        let bytes_on_wire = n as u64 * wire_bytes(4096) as u64;
        let min_secs = bytes_on_wire as f64 * 8.0 / 10e9;
        prop_assert!(
            last.as_secs_f64() >= min_secs,
            "{n} msgs finished in {} < wire minimum {min_secs}",
            last.as_secs_f64()
        );
    }
}
