//! Property-based tests of the network model.

use proptest::prelude::*;
use reflex_net::{
    wire_bytes, Delivery, Fabric, Flight, LinkConfig, MachineId, NetFaultAction, NetFaultHook,
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

/// Fault verdicts as a pure function of the message, so the hook gives
/// the same answer on whichever fabric endpoint consults it.
struct SizeKeyedFaults;

impl NetFaultHook for SizeKeyedFaults {
    fn on_send(&mut self, _: SimTime, _: MachineId, _: MachineId, size: u32) -> NetFaultAction {
        match size % 16 {
            13 => NetFaultAction::Drop,
            14 => NetFaultAction::Duplicate,
            15 => NetFaultAction::Delay(SimDuration::from_nanos(u64::from(size) * 3)),
            _ => NetFaultAction::Deliver,
        }
    }
}

const CLIENTS: u32 = 3;
const QUEUES: u32 = 3;
const SERVER: MachineId = MachineId(CLIENTS);

/// Naive reference for the windowed fabric's in-flight set. Every machine
/// (with lanes: every server queue) is its own shard endpoint, so each
/// flight leaves its sender through `take_outbound` and waits in a flat
/// per-destination-machine list here, never in a fabric. Before a horizon
/// passes a flight's departure the oracle hands it to the destination
/// endpoint, one window at a time, so endpoints only ever compute
/// transmit and receive timing; what is in flight, and each queue's
/// earliest bound, is answered from the lists by linear scan.
struct FlatOracle {
    endpoints: Vec<Fabric<u32>>,
    lanes: bool,
    in_flight: Vec<Vec<(usize, Flight<u32>)>>,
}

impl FlatOracle {
    fn new(base: &Fabric<u32>, lanes: bool) -> Self {
        let shard_of: Vec<usize> = (0..=CLIENTS as usize).collect();
        let (shards, queue_shards) = if lanes {
            let map = (0..QUEUES as usize).map(|q| CLIENTS as usize + q).collect();
            ((CLIENTS + QUEUES) as usize, Some((SERVER, map)))
        } else {
            (CLIENTS as usize + 1, None)
        };
        let endpoints = (0..shards)
            .map(|own| {
                let mut e = base.split_for_shard_with_queues(&shard_of, own, queue_shards.clone());
                if !lanes {
                    e.set_fault_hook(Box::new(SizeKeyedFaults));
                }
                e
            })
            .collect();
        FlatOracle {
            endpoints,
            lanes,
            in_flight: vec![Vec::new(); CLIENTS as usize + 1],
        }
    }

    /// The endpoint that owns `queue` of `machine` (its rx side and, for
    /// the server, the lane it transmits from).
    fn owner(&mut self, machine: MachineId, queue: NicQueueId) -> &mut Fabric<u32> {
        let lane = if self.lanes && machine == SERVER {
            queue.0
        } else {
            0
        };
        &mut self.endpoints[(machine.0 + lane) as usize]
    }

    fn collect_outbound(&mut self) {
        let mut sink = Vec::new();
        for e in &mut self.endpoints {
            e.take_outbound(&mut sink);
        }
        for (shard, flight) in sink {
            self.in_flight[flight.to().0 as usize].push((shard, flight));
        }
    }

    fn observe(&mut self, now: SimTime, window_ns: u64) {
        let horizon = now.as_nanos() / window_ns * window_ns;
        let mut due = Vec::new();
        for list in &mut self.in_flight {
            let (now_due, later): (Vec<_>, Vec<_>) = std::mem::take(list)
                .into_iter()
                .partition(|(_, f)| f.departed().as_nanos() < horizon);
            due.extend(now_due);
            *list = later;
        }
        due.sort_by_key(|(_, f)| f.departed());
        let mut due = due.into_iter().peekable();
        while let Some((shard, flight)) = due.next() {
            let window_end = (flight.departed().as_nanos() / window_ns + 1) * window_ns;
            self.endpoints[shard].accept_flight(flight);
            if due
                .peek()
                .is_none_or(|(_, f)| f.departed().as_nanos() >= window_end)
            {
                for e in &mut self.endpoints {
                    e.observe(SimTime::from_nanos(window_end));
                }
            }
        }
        for e in &mut self.endpoints {
            e.observe(now);
        }
    }

    fn next_arrival_queue(&mut self, machine: MachineId, queue: NicQueueId) -> Option<SimTime> {
        let resolved = self
            .owner(machine, queue)
            .next_arrival_queue(machine, queue);
        let pending = self.in_flight[machine.0 as usize]
            .iter()
            .filter(|(_, f)| f.queue() == queue)
            .map(|(_, f)| f.bound())
            .min();
        [resolved, pending].into_iter().flatten().min()
    }

    fn next_arrival_any(&self) -> Option<SimTime> {
        let resolved = self.endpoints.iter().filter_map(Fabric::next_arrival_any);
        let pending = self.in_flight.iter().flatten().map(|(_, f)| f.bound());
        resolved.chain(pending).min()
    }

    fn fault_counts(&self) -> (u64, u64) {
        self.endpoints
            .iter()
            .map(Fabric::fault_counts)
            .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1))
    }
}

proptest! {
    /// Differential: the windowed fabric's per-queue pending index against
    /// [`FlatOracle`] under one random schedule of steered sends, plain
    /// sends, lane replies, observes and polls — with lanes on, or with
    /// lanes off and Drop/Duplicate/Delay verdicts. Deliveries, send
    /// bounds and every `next_arrival*` answer must agree after each step.
    #[test]
    fn windowed_index_matches_flat_oracle(
        lanes in any::<bool>(),
        ops in prop::collection::vec((0u8..6, 0u64..3_000, 0u32..CLIENTS, 0u32..QUEUES, 0u32..4_096), 1..120),
    ) {
        let build = |queues_first: bool| {
            let mut f: Fabric<u32> = Fabric::new(LinkConfig::default(), SimRng::seed(77));
            for _ in 0..CLIENTS {
                f.add_machine(StackProfile::ix_tcp());
            }
            let server = f.add_machine(StackProfile::dataplane_raw());
            assert_eq!(server, SERVER);
            // The index must come out the same whether queues exist when
            // windowed mode is enabled or are added afterwards.
            if !queues_first {
                f.enable_windowed();
            }
            for _ in 1..QUEUES {
                f.add_queue(SERVER);
            }
            f.enable_windowed();
            if lanes {
                f.enable_lanes(SERVER);
            }
            f
        };
        let mut sut = build(false);
        let mut oracle = FlatOracle::new(&build(true), lanes);
        if !lanes {
            sut.set_fault_hook(Box::new(SizeKeyedFaults));
        }
        let window_ns = sut.lookahead().as_nanos();
        let conn = sut.new_conn();
        let mut now = SimTime::ZERO;
        let (mut got, mut want): (Vec<Delivery<u32>>, Vec<Delivery<u32>>) = (Vec::new(), Vec::new());

        for (i, &(op, dt, client, queue, size)) in ops.iter().enumerate() {
            now += SimDuration::from_nanos(dt);
            let (client, queue, tag) = (MachineId(client), NicQueueId(queue), i as u32);
            match op {
                0 | 1 => {
                    let a = sut.send_to_queue(now, client, SERVER, queue, conn, size, tag);
                    let b = oracle
                        .owner(client, NicQueueId(0))
                        .send_to_queue(now, client, SERVER, queue, conn, size, tag);
                    prop_assert_eq!(a, b, "steered send bound, op {}", i);
                }
                2 => {
                    let a = sut.send(now, client, SERVER, conn, size, tag);
                    let b = oracle.owner(client, NicQueueId(0)).send(now, client, SERVER, conn, size, tag);
                    prop_assert_eq!(a, b, "plain send bound, op {}", i);
                }
                3 => {
                    let a = sut.send_from(now, SERVER, queue, client, conn, size, tag);
                    let b = oracle
                        .owner(SERVER, queue)
                        .send_from(now, SERVER, queue, client, conn, size, tag);
                    prop_assert_eq!(a, b, "reply bound, op {}", i);
                }
                4 => {
                    sut.observe(now);
                    oracle.observe(now, window_ns);
                }
                _ => {
                    // Poll one server queue and one client, a few at a time.
                    let max = 1 + size as usize % 8;
                    for (m, q) in [(SERVER, queue), (client, NicQueueId(0))] {
                        sut.poll_queue_into(now, m, q, max, &mut got);
                        oracle.owner(m, q).poll_queue_into(now, m, q, max, &mut want);
                        prop_assert_eq!(&got, &want, "deliveries on {:?}/{:?}, op {}", m, q, i);
                    }
                }
            }
            oracle.collect_outbound();
            for m in 0..=CLIENTS {
                for q in 0..sut.queue_count(MachineId(m)) {
                    let (m, q) = (MachineId(m), NicQueueId(q));
                    prop_assert_eq!(
                        sut.next_arrival_queue(m, q),
                        oracle.next_arrival_queue(m, q),
                        "next_arrival_queue({:?}, {:?}) after op {}", m, q, i
                    );
                }
            }
            prop_assert_eq!(sut.next_arrival_any(), oracle.next_arrival_any(), "after op {}", i);
        }

        // Drain: everything sent is delivered identically, in order.
        let end = now + SimDuration::from_millis(50);
        sut.observe(end);
        oracle.observe(end, window_ns);
        for m in 0..=CLIENTS {
            for q in 0..sut.queue_count(MachineId(m)) {
                let (m, q) = (MachineId(m), NicQueueId(q));
                sut.poll_queue_into(end, m, q, usize::MAX, &mut got);
                oracle.owner(m, q).poll_queue_into(end, m, q, usize::MAX, &mut want);
                prop_assert_eq!(&got, &want, "final deliveries on {:?}/{:?}", m, q);
            }
        }
        prop_assert_eq!(sut.next_arrival_any(), None);
        prop_assert_eq!(oracle.next_arrival_any(), None);
        prop_assert_eq!(sut.fault_counts(), oracle.fault_counts());
    }

    /// Header encode/decode round-trips for all field values.
    #[test]
    fn header_round_trip(
        op_raw in any::<u8>(),
        tenant in any::<u32>(),
        cookie in any::<u64>(),
        addr in any::<u64>(),
        len in any::<u32>(),
    ) {
        let hdr = ReflexHeader { opcode: arb_opcode(op_raw), tenant, cookie, addr, len };
        let enc = hdr.encode();
        prop_assert_eq!(enc.len(), HEADER_SIZE);
        prop_assert_eq!(ReflexHeader::decode(&enc).unwrap(), hdr);
    }

    /// Decoding arbitrary bytes never panics and either returns a valid
    /// header or a classified error.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        match ReflexHeader::decode(&bytes) {
            Ok(h) => {
                // Anything decoded must re-encode to the same prefix.
                let enc = h.encode();
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
