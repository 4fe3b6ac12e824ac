//! The network fabric: machines, NICs and message delivery.
//!
//! Like the Flash device model, the fabric computes each message's arrival
//! instant *at send time* from per-NIC busy state (serialization on the
//! sender's uplink, receive capacity on the destination's downlink,
//! propagation through the switch) plus the endpoints' stack latencies.
//! Receivers poll their delivery queue, mirroring how the dataplane polls
//! NIC RX descriptor rings.

use std::collections::VecDeque;

use reflex_sim::{time_key, DenseId, LogNormal, SimDuration, SimRng, SimTime, TimeHeap};
use reflex_telemetry::{Stage, Telemetry, TenantKey};

use crate::stack::StackProfile;
use crate::wire::wire_bytes_with;

/// Identifier of a machine attached to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub u32);

/// Identifier of a (TCP) connection between two machines. The fabric itself
/// is connection-agnostic; ids are carried for the endpoints' bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

/// [`Fabric::new_conn`] issues ids densely from zero, so whoever keeps
/// state per connection finds it by index.
impl DenseId for ConnId {
    fn index(self) -> u64 {
        self.0.into()
    }

    fn from_index(index: u64) -> Self {
        // Every index a table holds came from an id.
        ConnId(index as u32)
    }
}

/// Identifier of a receive queue on a machine's NIC. Multi-queue NICs let
/// each dataplane thread poll its own queue (flow steering / RSS) while all
/// queues share the NIC's bandwidth. Every machine has queue 0 by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NicQueueId(pub u32);

/// Fabric-wide link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Link bandwidth in bits per second (default: 10GbE).
    pub bandwidth_bps: u64,
    /// One-way propagation + switching delay.
    pub propagation: SimDuration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            bandwidth_bps: 10_000_000_000,
            propagation: SimDuration::from_micros_f64(1.0),
        }
    }
}

impl LinkConfig {
    /// A 40GbE fabric (the paper notes modern datacenters remove the 10GbE
    /// bottleneck; fig4/fig7a discussion).
    pub fn forty_gbe() -> Self {
        LinkConfig {
            bandwidth_bps: 40_000_000_000,
            ..LinkConfig::default()
        }
    }

    /// Time to serialize `bytes` onto the wire.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps as f64)
    }
}

/// A message delivered to a machine's receive queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery<P> {
    /// Sender machine.
    pub from: MachineId,
    /// Connection the message belongs to.
    pub conn: ConnId,
    /// Instant the receiving application sees the message.
    pub arrived_at: SimTime,
    /// Application payload length in bytes (excluding headers).
    pub size: u32,
    /// Opaque payload handed back to the receiver.
    pub payload: P,
}

/// A machine's network interface: its stack's prepared latencies and
/// framing, and its uplink and downlink horizons.
struct Nic {
    tx_stack: LogNormal,
    rx_stack: LogNormal,
    frame_overhead: usize,
    tx_busy: SimTime,
    rx_busy: SimTime,
    rng: SimRng,
    tx_bytes: u64,
    rx_bytes: u64,
}

/// What a [`NetFaultHook`] does to one message in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultAction {
    /// Deliver normally.
    Deliver,
    /// Lose the message on the wire. The sender still paid stack CPU and
    /// uplink serialization (it did transmit); the receiver never sees it.
    Drop,
    /// Deliver twice (switch-level duplication / spurious retransmit). The
    /// copy lands 500ns after the original.
    Duplicate,
    /// Deliver late by the given extra delay (congestion burst, pause
    /// frames) on top of the modelled arrival time.
    Delay(SimDuration),
}

/// Per-message fault injection hook, consulted by
/// [`Fabric::send_to_queue`] for every message.
///
/// Installed via [`Fabric::set_fault_hook`]. The hook is consulted *after*
/// the fabric has computed the message's timing, so NIC busy state and the
/// per-NIC jitter RNG streams advance identically whether or not a fault
/// fires — a hook that always returns [`NetFaultAction::Deliver`] is
/// invisible. Implementations needing randomness must carry their own
/// [`SimRng`] stream.
pub trait NetFaultHook {
    /// Decides the fate of a `size`-byte message from `from` to `to`.
    fn on_send(
        &mut self,
        now: SimTime,
        from: MachineId,
        to: MachineId,
        size: u32,
    ) -> NetFaultAction;
}

/// Receive-queue pushes by the path they took ([`Fabric::rx_pushes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxPushes {
    /// Landed behind every message already queued.
    pub appended: u64,
    /// Landed within 32 places of the back, and were inserted there.
    pub inserted: u64,
    /// Landed farther back, and went to the queue's set-aside heap.
    pub set_aside: u64,
}

/// A message waiting in a receive queue's run, whole, ordered by arrival
/// instant and then enqueue sequence (which is unique).
struct Rx<P> {
    seq: u64,
    msg: Delivery<P>,
}

impl<P> Rx<P> {
    fn key(&self) -> u128 {
        time_key(self.msg.arrived_at, self.seq)
    }
}

/// Room each receive queue's run starts with. A queue idling near a small
/// power of two would otherwise double at an instant only the seed
/// decides, long after warm-up (DESIGN §7.4).
const RX_RESERVE: usize = 64;

/// How many places from the back of a run a push may land and still be
/// inserted into it.
const REACH: usize = 32;

/// One NIC receive queue in `(arrival, enqueue sequence)` order. Arrivals
/// come almost in send order (DESIGN §10, "Arrival"), so nearly every push
/// appends to `run`; one that lands within [`REACH`] of its back is
/// inserted by binary search, one farther back is set aside in `aside`.
/// The queue's head is the earlier of the two heads.
struct RxQueue<P> {
    run: VecDeque<Rx<P>>,
    aside: TimeHeap<Delivery<P>>,
}

impl<P> RxQueue<P> {
    fn new() -> Self {
        RxQueue {
            run: VecDeque::with_capacity(RX_RESERVE),
            aside: TimeHeap::default(),
        }
    }

    fn push(&mut self, rx: Rx<P>, pushes: &mut RxPushes) {
        let (len, key) = (self.run.len(), rx.key());
        if self.run.back().is_none_or(|back| back.key() < key) {
            pushes.appended += 1;
            self.run.push_back(rx);
            return;
        }
        let (mut lo, mut hi) = (len.saturating_sub(REACH), len - 1);
        if lo > 0 && self.run[lo - 1].key() > key {
            pushes.set_aside += 1;
            self.aside.push(rx.msg.arrived_at, rx.seq, rx.msg);
            return;
        }
        // Binary search of `lo..len` for the first later message.
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.run[mid].key() < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        pushes.inserted += 1;
        self.run.insert(lo, rx);
    }

    /// Whether the set-aside heap's top comes before the run's front.
    fn aside_first(&self) -> bool {
        let front = self.run.front().map(Rx::key);
        self.aside
            .peek_key()
            .is_some_and(|top| front.is_none_or(|front| top < front))
    }

    /// The earliest message's arrival instant.
    fn next_at(&self) -> Option<SimTime> {
        match self.aside_first() {
            true => self.aside.next_at(),
            false => self.run.front().map(|rx| rx.msg.arrived_at),
        }
    }

    /// Takes the earliest message if it has arrived by `now`.
    fn pop_due(&mut self, now: SimTime) -> Option<Delivery<P>> {
        if self.aside_first() {
            return self.aside.pop_due(now).map(|(_, msg)| msg);
        }
        if self.run.front()?.msg.arrived_at > now {
            return None;
        }
        self.run.pop_front().map(|rx| rx.msg)
    }
}

/// The shared network fabric over which all machines communicate.
///
/// # Examples
///
/// ```
/// use reflex_net::{Fabric, LinkConfig, StackProfile};
/// use reflex_sim::{SimRng, SimTime};
///
/// let mut fabric: Fabric<&'static str> = Fabric::new(LinkConfig::default(), SimRng::seed(1));
/// let client = fabric.add_machine(StackProfile::linux_tcp());
/// let server = fabric.add_machine(StackProfile::dataplane_raw());
///
/// let conn = fabric.new_conn();
/// let arrival = fabric.send(SimTime::ZERO, client, server, conn, 4096, "hello");
/// let got = fabric.poll(arrival, server, 16);
/// assert_eq!(got.len(), 1);
/// assert_eq!(got[0].payload, "hello");
/// ```
pub struct Fabric<P> {
    link: LinkConfig,
    /// The last few wire sizes sent and their serialization times (a run
    /// sends two or three), replaced round-robin from `ser_next`.
    ser_memo: [(usize, SimDuration); 4],
    ser_next: usize,
    nic_seed: u64,
    nics: Vec<Nic>,
    /// Receive queues, `[machine][queue]`.
    queues: Vec<Vec<RxQueue<P>>>,
    /// Messages between send and poll, and the most there ever were.
    held: usize,
    held_peak: usize,
    pushes: RxPushes,
    seq: u64,
    next_conn: u32,
    fault_hook: Option<Box<dyn NetFaultHook>>,
    dropped: u64,
    duplicated: u64,
    /// Messages sent and not lost (a duplicated one counts once).
    sent: u64,
    telemetry: Telemetry,
}

impl<P> std::fmt::Debug for Fabric<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("machines", &self.nics.len())
            .field("link", &self.link)
            .field("in_flight", &self.held)
            .finish()
    }
}

impl<P> Fabric<P> {
    /// Creates a fabric with the given link configuration. `seed_rng`
    /// derives each attached NIC's jitter stream.
    pub fn new(link: LinkConfig, mut seed_rng: SimRng) -> Self {
        let nic_seed = seed_rng.next_u64();
        Fabric {
            link,
            // Every entry is true from the start: zero bytes take no time.
            ser_memo: [(0, SimDuration::ZERO); 4],
            ser_next: 0,
            nic_seed,
            nics: Vec::new(),
            queues: Vec::new(),
            held: 0,
            held_peak: 0,
            pushes: RxPushes::default(),
            seq: 0,
            next_conn: 0,
            fault_hook: None,
            dropped: 0,
            duplicated: 0,
            sent: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle. Wire-time spans are recorded per
    /// message (`Stage::Fabric` for [`send_to_queue`](Self::send_to_queue),
    /// `Stage::Egress` for [`send`](Self::send)); recording is purely passive and perturbs no timing.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Installs a fault-injection hook consulted on every message sent.
    /// Replaces any previously installed hook.
    pub fn set_fault_hook(&mut self, hook: Box<dyn NetFaultHook>) {
        self.fault_hook = Some(hook);
    }

    /// Removes the fault hook, restoring lossless delivery.
    pub fn clear_fault_hook(&mut self) -> Option<Box<dyn NetFaultHook>> {
        self.fault_hook.take()
    }

    /// Messages lost / duplicated by the fault hook so far.
    pub fn fault_counts(&self) -> (u64, u64) {
        (self.dropped, self.duplicated)
    }

    /// Messages sent so far and not lost; a duplicated one counts once.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Attaches a machine with the given stack; returns its id.
    pub fn add_machine(&mut self, stack: StackProfile) -> MachineId {
        let id = MachineId(self.nics.len() as u32);
        // Each NIC gets an independent RNG stream derived from its index so
        // machine creation order, not call order, determines jitter.
        let rng = SimRng::seed(self.nic_seed ^ (0x9e37_79b9 * (id.0 as u64 + 1)));
        self.nics.push(Nic {
            tx_stack: LogNormal::new(stack.tx_median, stack.tx_sigma),
            rx_stack: LogNormal::new(stack.rx_median, stack.rx_sigma),
            frame_overhead: stack.transport.frame_overhead(),
            tx_busy: SimTime::ZERO,
            rx_busy: SimTime::ZERO,
            rng,
            tx_bytes: 0,
            rx_bytes: 0,
        });
        self.queues.push(vec![RxQueue::new()]);
        id
    }

    /// Adds a receive queue to `machine`'s NIC (queue 0 exists already);
    /// returns its id. Dataplane threads poll disjoint queues.
    pub fn add_queue(&mut self, machine: MachineId) -> NicQueueId {
        let queues = &mut self.queues[machine.0 as usize];
        queues.push(RxQueue::new());
        NicQueueId(queues.len() as u32 - 1)
    }

    /// Number of receive queues on `machine`'s NIC.
    pub fn queue_count(&self, machine: MachineId) -> u32 {
        self.queues[machine.0 as usize].len() as u32
    }

    /// Messages currently held by the fabric: sent and not yet polled or
    /// dropped.
    pub fn in_flight(&self) -> usize {
        self.held
    }

    /// The most messages the fabric ever held at once.
    pub fn in_flight_high_water(&self) -> usize {
        self.held_peak
    }

    /// Receive-queue pushes so far, by the path each took: how far out of
    /// arrival order messages reach their queues.
    pub fn rx_pushes(&self) -> RxPushes {
        self.pushes
    }

    /// Allocates a fresh connection id.
    pub fn new_conn(&mut self) -> ConnId {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        id
    }

    /// Sends `size` application bytes from `from` to `to`; returns the
    /// instant the receiving application will see the message. The message
    /// is queued on the destination and must be drained with
    /// [`poll`](Self::poll).
    ///
    /// # Panics
    ///
    /// Panics if `from == to` or either machine id is unknown.
    pub fn send(
        &mut self,
        now: SimTime,
        from: MachineId,
        to: MachineId,
        conn: ConnId,
        size: u32,
        payload: P,
    ) -> SimTime
    where
        P: Clone,
    {
        // Responses (server → client) travel through `send`; their wire
        // time is the telemetry Egress stage.
        self.transfer(
            now,
            from,
            to,
            NicQueueId(0),
            conn,
            size,
            payload,
            Stage::Egress,
        )
    }

    /// Like [`send`](Self::send) but steers the message to a specific
    /// receive queue on the destination NIC (flow steering). All queues of
    /// a NIC share its bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`, either machine id is unknown, or the queue
    /// does not exist on the destination.
    #[allow(clippy::too_many_arguments)]
    pub fn send_to_queue(
        &mut self,
        now: SimTime,
        from: MachineId,
        to: MachineId,
        queue: NicQueueId,
        conn: ConnId,
        size: u32,
        payload: P,
    ) -> SimTime
    where
        P: Clone,
    {
        // Flow-steered requests (client → server) are the telemetry
        // Fabric stage.
        self.transfer(now, from, to, queue, conn, size, payload, Stage::Fabric)
    }

    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &mut self,
        now: SimTime,
        from: MachineId,
        to: MachineId,
        queue: NicQueueId,
        conn: ConnId,
        size: u32,
        payload: P,
        stage: Stage,
    ) -> SimTime
    where
        P: Clone,
    {
        assert_ne!(from, to, "loopback is not modelled");
        // The flow's transport is the sender's (both ends of a connection
        // speak the same protocol).
        let overhead = self.nics[from.0 as usize].frame_overhead;
        let bytes = wire_bytes_with(size as usize, overhead);
        let ser = self.serialization(bytes);

        // Sender: stack latency, then serialization on the uplink.
        let src = &mut self.nics[from.0 as usize];
        let tx_stack = src.rng.lognormal(src.tx_stack);
        let depart_start = (now + tx_stack).max(src.tx_busy);
        let departed = depart_start + ser;
        src.tx_busy = departed;
        src.tx_bytes += size as u64;

        // Receiver: downlink capacity, then stack latency to the app.
        let dst = &mut self.nics[to.0 as usize];
        let wire_arrival = departed + self.link.propagation;
        let rx_done = wire_arrival.max(dst.rx_busy) + ser;
        dst.rx_busy = rx_done;
        let rx_stack = dst.rng.lognormal(dst.rx_stack);
        let mut arrived_at = rx_done + rx_stack;
        dst.rx_bytes += size as u64;

        // Fault hook last: the timing above (NIC busy state, jitter RNG)
        // has already advanced exactly as in a healthy run, so disabling
        // the hook cannot perturb any other message.
        let fault = match self.fault_hook.as_mut() {
            Some(hook) => hook.on_send(now, from, to, size),
            None => NetFaultAction::Deliver,
        };
        match fault {
            NetFaultAction::Deliver => {}
            NetFaultAction::Drop => {
                self.dropped += 1;
                // Callers treat the return value as "when to look"; for a
                // lost message nothing will be there, which is harmless.
                return arrived_at;
            }
            NetFaultAction::Duplicate => {
                self.duplicated += 1;
            }
            NetFaultAction::Delay(extra) => arrived_at += extra,
        }
        self.sent += 1;
        self.telemetry
            .span(TenantKey::GLOBAL, stage, arrived_at.saturating_since(now));

        let msg = Delivery {
            from,
            conn,
            arrived_at,
            size,
            payload,
        };
        if fault == NetFaultAction::Duplicate {
            // The copy is a message of its own, 500 ns behind.
            let mut late = msg.clone();
            late.arrived_at += SimDuration::from_nanos(500);
            self.enqueue(to, queue, msg);
            self.enqueue(to, queue, late);
        } else {
            self.enqueue(to, queue, msg);
        }
        arrived_at
    }

    /// [`LinkConfig::serialization`] of `bytes`, computed once per size.
    fn serialization(&mut self, bytes: usize) -> SimDuration {
        if let Some(&(_, ser)) = self.ser_memo.iter().find(|&&(b, _)| b == bytes) {
            return ser;
        }
        let ser = self.link.serialization(bytes);
        self.ser_memo[self.ser_next] = (bytes, ser);
        self.ser_next = (self.ser_next + 1) % self.ser_memo.len();
        ser
    }

    /// Makes `msg` pollable on `queue` of `machine` from its arrival on,
    /// after every message enqueued before it for the same instant.
    fn enqueue(&mut self, machine: MachineId, queue: NicQueueId, msg: Delivery<P>) {
        let rx = Rx { seq: self.seq, msg };
        self.seq += 1;
        self.held += 1;
        self.held_peak = self.held_peak.max(self.held);
        self.queues[machine.0 as usize][queue.0 as usize].push(rx, &mut self.pushes);
    }

    /// Pops up to `max` messages that have arrived at `machine`'s queue 0
    /// by `now`.
    pub fn poll(&mut self, now: SimTime, machine: MachineId, max: usize) -> Vec<Delivery<P>> {
        self.poll_queue(now, machine, NicQueueId(0), max)
    }

    /// [`Fabric::poll`] into a caller-owned buffer (queue 0): `out` is
    /// cleared and refilled, letting pollers reuse one scratch `Vec`.
    pub fn poll_into(
        &mut self,
        now: SimTime,
        machine: MachineId,
        max: usize,
        out: &mut Vec<Delivery<P>>,
    ) {
        self.poll_queue_into(now, machine, NicQueueId(0), max, out);
    }

    /// Pops up to `max` arrived messages from a specific receive queue.
    pub fn poll_queue(
        &mut self,
        now: SimTime,
        machine: MachineId,
        queue: NicQueueId,
        max: usize,
    ) -> Vec<Delivery<P>> {
        let mut out = Vec::new();
        self.poll_queue_into(now, machine, queue, max, &mut out);
        out
    }

    /// [`Fabric::poll_queue`] into a caller-owned buffer: `out` is cleared
    /// and refilled, so a poll loop reusing one scratch `Vec` drains the
    /// queue without allocating once the buffer has reached the batch size.
    pub fn poll_queue_into(
        &mut self,
        now: SimTime,
        machine: MachineId,
        queue: NicQueueId,
        max: usize,
        out: &mut Vec<Delivery<P>>,
    ) {
        out.clear();
        let rx = &mut self.queues[machine.0 as usize][queue.0 as usize];
        while out.len() < max {
            let Some(msg) = rx.pop_due(now) else { break };
            out.push(msg);
        }
        self.held -= out.len();
    }

    /// Arrival instant of the earliest undelivered message on `machine`'s
    /// queue 0. Messages steered to other queues of the same NIC never
    /// show up here.
    pub fn next_arrival(&self, machine: MachineId) -> Option<SimTime> {
        self.next_arrival_queue(machine, NicQueueId(0))
    }

    /// Arrival instant of the earliest undelivered message on a specific
    /// queue: a poll of that queue at the returned instant delivers it.
    /// One comparison of two heads, the run's and the set-aside heap's,
    /// however deep the queue's backlog.
    #[inline]
    pub fn next_arrival_queue(&self, machine: MachineId, queue: NicQueueId) -> Option<SimTime> {
        self.queues[machine.0 as usize][queue.0 as usize].next_at()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A receive queue holds one entry per message in flight to its
    /// machine.
    #[test]
    fn a_queued_message_is_at_most_56_bytes() {
        let size = std::mem::size_of::<Rx<[u8; crate::HEADER_SIZE]>>();
        assert!(size <= 56, "{size} bytes");
    }

    fn fabric() -> (Fabric<u32>, MachineId, MachineId) {
        let mut f = Fabric::new(LinkConfig::default(), SimRng::seed(9));
        let a = f.add_machine(StackProfile::ix_tcp());
        let b = f.add_machine(StackProfile::dataplane_raw());
        (f, a, b)
    }

    #[test]
    fn unloaded_latency_is_stack_plus_wire() {
        let (mut f, a, b) = fabric();
        let conn = f.new_conn();
        let mut total = 0.0;
        let n = 500;
        for i in 0..n {
            let t = SimTime::from_millis(i);
            let arrival = f.send(t, a, b, conn, 0, 0);
            total += (arrival - t).as_micros_f64();
        }
        let avg = total / n as f64;
        // ix tx ~2 + ser 82B*2 ~0.13 + prop 1 + raw rx ~0.3 = ~3.5us.
        assert!((2.5..5.0).contains(&avg), "unloaded one-way {avg}us");
    }

    #[test]
    fn memoized_serialization_is_the_links() {
        // Nine sizes through a four-entry memo: hits, misses, evictions.
        let (mut f, ..) = fabric();
        for i in 0..300usize {
            let bytes = (i * 37 % 9) * 500 + i % 2;
            assert_eq!(f.serialization(bytes), f.link.serialization(bytes));
        }
    }

    #[test]
    fn four_kb_response_takes_longer() {
        let (mut f, a, b) = fabric();
        let conn = f.new_conn();
        let t = SimTime::ZERO;
        let small = f.send(t, a, b, conn, 0, 0) - t;
        let t2 = SimTime::from_millis(1);
        let large = f.send(t2, a, b, conn, 4096, 1) - t2;
        // 4KB ≈ 4.3KB wire ≈ 3.4us serialization x2 (uplink+downlink).
        let delta = large.as_micros_f64() - small.as_micros_f64();
        assert!((4.0..10.0).contains(&delta), "4KB penalty {delta}us");
    }

    #[test]
    fn downlink_saturates_at_10gbe() {
        // Two senders blast one receiver with 4KB messages; the receiver's
        // goodput must cap near 10Gb/s = ~291K 4KB msgs/s (with framing).
        let mut f: Fabric<u32> = Fabric::new(LinkConfig::default(), SimRng::seed(1));
        let s1 = f.add_machine(StackProfile::ix_tcp());
        let s2 = f.add_machine(StackProfile::ix_tcp());
        let dst = f.add_machine(StackProfile::dataplane_raw());
        let conn = f.new_conn();
        // Offer 600K msg/s total for 10ms.
        let mut last_arrival = SimTime::ZERO;
        for i in 0..6_000u64 {
            let t = SimTime::from_nanos(i * 1_667);
            let from = if i % 2 == 0 { s1 } else { s2 };
            let a = f.send(t, from, dst, conn, 4096, i as u32);
            last_arrival = last_arrival.max(a);
        }
        let got = f.poll(last_arrival, dst, usize::MAX);
        assert_eq!(got.len(), 6_000);
        let span = last_arrival.as_secs_f64();
        let rate = 6_000.0 / span;
        assert!(
            (250_000.0..300_000.0).contains(&rate),
            "saturated receive rate {rate} msgs/s"
        );
    }

    #[test]
    fn deliveries_are_time_ordered_and_pollable() {
        let (mut f, a, b) = fabric();
        let conn = f.new_conn();
        for i in 0..100u32 {
            f.send(SimTime::from_nanos(u64::from(i) * 10), a, b, conn, 1024, i);
        }
        assert!(f.poll(SimTime::ZERO, b, usize::MAX).is_empty());
        let all = f.poll(SimTime::from_secs(1), b, usize::MAX);
        assert_eq!(all.len(), 100);
        for w in all.windows(2) {
            assert!(w[0].arrived_at <= w[1].arrived_at);
        }
        assert!(f.next_arrival(b).is_none());
    }

    #[test]
    fn next_arrival_reports_earliest() {
        let (mut f, a, b) = fabric();
        let conn = f.new_conn();
        let t1 = f.send(SimTime::ZERO, a, b, conn, 0, 1);
        let _t2 = f.send(SimTime::from_micros(50), a, b, conn, 0, 2);
        assert_eq!(f.next_arrival(b), Some(t1));
        assert_eq!(f.next_arrival(a), None);
    }

    #[test]
    fn traffic_accounting() {
        let (mut f, a, b) = fabric();
        let conn = f.new_conn();
        f.send(SimTime::ZERO, a, b, conn, 4096, 0);
        assert_eq!(f.nics[a.0 as usize].tx_bytes, 4096);
        assert_eq!(f.nics[b.0 as usize].rx_bytes, 4096);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_panics() {
        let (mut f, a, _b) = fabric();
        let conn = f.new_conn();
        f.send(SimTime::ZERO, a, a, conn, 0, 0);
    }

    struct ScriptedNetHook {
        actions: Vec<NetFaultAction>,
    }

    impl NetFaultHook for ScriptedNetHook {
        fn on_send(
            &mut self,
            _now: SimTime,
            _from: MachineId,
            _to: MachineId,
            _size: u32,
        ) -> NetFaultAction {
            if self.actions.is_empty() {
                NetFaultAction::Deliver
            } else {
                self.actions.remove(0)
            }
        }
    }

    #[test]
    fn fault_hook_drops_duplicates_and_delays() {
        let (mut f, a, b) = fabric();
        f.set_fault_hook(Box::new(ScriptedNetHook {
            actions: vec![
                NetFaultAction::Drop,
                NetFaultAction::Duplicate,
                NetFaultAction::Delay(SimDuration::from_millis(5)),
                NetFaultAction::Deliver,
            ],
        }));
        let conn = f.new_conn();
        f.send(SimTime::ZERO, a, b, conn, 64, 0); // dropped
        assert_eq!(f.in_flight(), 0, "a dropped message is not queued");
        f.send(SimTime::from_micros(100), a, b, conn, 64, 1); // duplicated
        let delayed_at = f.send(SimTime::from_micros(200), a, b, conn, 64, 2);
        f.send(SimTime::from_micros(300), a, b, conn, 64, 3);
        // Nothing queued for the drop, two for the duplicate.
        assert_eq!(f.in_flight(), 4);
        let all = f.poll(SimTime::from_secs(1), b, usize::MAX);
        let payloads: Vec<u32> = all.iter().map(|d| d.payload).collect();
        // 0 lost; 1 twice; 3 arrives before the delayed 2.
        assert_eq!(payloads, vec![1, 1, 3, 2]);
        assert!(delayed_at.as_micros_f64() > 5_000.0);
        assert_eq!(f.fault_counts(), (1, 1));
    }

    #[test]
    fn passthrough_hook_does_not_change_timing() {
        let (mut f0, a0, b0) = fabric();
        let (mut f1, a1, b1) = fabric();
        f1.set_fault_hook(Box::new(ScriptedNetHook { actions: vec![] }));
        let c0 = f0.new_conn();
        let c1 = f1.new_conn();
        for i in 0..100u64 {
            let t = SimTime::from_micros(i * 7);
            let x = f0.send(t, a0, b0, c0, 1024, i as u32);
            let y = f1.send(t, a1, b1, c1, 1024, i as u32);
            assert_eq!(x, y, "diverged at msg {i}");
        }
    }

    #[test]
    fn in_flight_counts_messages_held_not_messages_sent() {
        let (mut f, a, b) = fabric();
        let conn = f.new_conn();
        let mut now = SimTime::ZERO;
        let mut sent = 0u32;
        // Waves of 1..=7 messages, each polled out before the next wave:
        // thousands sent, never more than 7 held.
        for wave in 0..500u32 {
            let depth = 1 + wave % 7;
            for _ in 0..depth {
                now += SimDuration::from_nanos(100);
                f.send(now, a, b, conn, 64, sent);
                sent += 1;
            }
            assert_eq!(f.in_flight(), depth as usize);
            now += SimDuration::from_micros(50);
            let got = f.poll(now, b, usize::MAX);
            assert_eq!(got.len(), depth as usize);
            assert_eq!(f.in_flight(), 0, "drained after wave {wave}");
        }
        assert!(sent > 1_900);
        assert_eq!(f.in_flight_high_water(), 7, "the peak held");
    }

    #[test]
    fn dropped_messages_are_never_held() {
        let (mut f, a, b) = fabric();
        f.set_fault_hook(Box::new(ScriptedNetHook {
            actions: vec![NetFaultAction::Drop; 5],
        }));
        let conn = f.new_conn();
        for i in 0..5u32 {
            f.send(SimTime::from_micros(u64::from(i)), a, b, conn, 64, i);
        }
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.in_flight_high_water(), 0);
        assert_eq!(f.next_arrival(b), None);
        assert_eq!(f.rx_pushes(), RxPushes::default());
        // The frames still occupied both links before being lost.
        assert_eq!(
            (f.nics[a.0 as usize].tx_bytes, f.nics[b.0 as usize].rx_bytes),
            (320, 320)
        );
    }

    #[test]
    fn duplicates_are_independent_copies() {
        let (mut f, a, b) = fabric();
        f.set_fault_hook(Box::new(ScriptedNetHook {
            actions: vec![NetFaultAction::Duplicate],
        }));
        let conn = f.new_conn();
        f.send(SimTime::ZERO, a, b, conn, 64, 41);
        let end = SimTime::from_secs(1);
        assert_eq!(f.in_flight(), 2, "each copy is a message");
        // Polled one at a time: taking the first leaves the second
        // whole, 500 ns behind.
        let first = f.poll(end, b, 1);
        assert_eq!(f.in_flight(), 1);
        let second = f.poll(end, b, 1);
        assert_eq!(f.in_flight(), 0);
        assert_eq!((first[0].payload, second[0].payload), (41, 41));
        assert_eq!((first[0].size, second[0].conn), (64, conn));
        assert_eq!(
            second[0].arrived_at,
            first[0].arrived_at + SimDuration::from_nanos(500)
        );
    }

    #[test]
    fn linux_stack_adds_latency_over_ix() {
        let mut f: Fabric<u32> = Fabric::new(LinkConfig::default(), SimRng::seed(2));
        let linux = f.add_machine(StackProfile::linux_tcp());
        let ix = f.add_machine(StackProfile::ix_tcp());
        let dst = f.add_machine(StackProfile::dataplane_raw());
        let conn = f.new_conn();
        let mut linux_total = 0.0;
        let mut ix_total = 0.0;
        for i in 0..500 {
            let t = SimTime::from_millis(i);
            linux_total += (f.send(t, linux, dst, conn, 1024, 0) - t).as_micros_f64();
            let t = SimTime::from_millis(i) + SimDuration::from_micros(300);
            ix_total += (f.send(t, ix, dst, conn, 1024, 0) - t).as_micros_f64();
        }
        assert!(
            linux_total / 500.0 > ix_total / 500.0 + 4.0,
            "linux {:.1} vs ix {:.1}",
            linux_total / 500.0,
            ix_total / 500.0
        );
    }

    /// Each path once or more, ties on an instant broken by enqueue order,
    /// and pops that alternate between the run and the set-aside heap.
    #[test]
    fn a_queue_drains_in_arrival_order_whatever_path_each_push_took() {
        let mut q: RxQueue<u32> = RxQueue::new();
        let mut pushes = RxPushes::default();
        // Run 0, 10, .. 990 µs, then (each tagged by its push index):
        // 5 places back, 32 (the reach), 33, before all, a tie with 500.
        let mut ats: Vec<u64> = (0..100).map(|i| i * 10).collect();
        ats.extend([945, 685, 682, 1, 500]);
        for (seq, &us) in ats.iter().enumerate() {
            let msg = Delivery {
                from: MachineId(0),
                conn: ConnId(0),
                arrived_at: SimTime::from_micros(us),
                size: 0,
                payload: seq as u32,
            };
            q.push(
                Rx {
                    seq: seq as u64,
                    msg,
                },
                &mut pushes,
            );
        }
        let want = RxPushes {
            appended: 100,
            inserted: 2,
            set_aside: 3,
        };
        assert_eq!(pushes, want);
        assert_eq!(
            q.pop_due(SimTime::from_nanos(999)).map(|m| m.payload),
            Some(0)
        );
        assert!(
            q.pop_due(SimTime::from_nanos(999)).is_none(),
            "1 µs is due at 1 µs"
        );
        let mut order: Vec<(u64, u32)> = ats.iter().copied().zip(0..).collect();
        order.sort_unstable();
        let mut got = vec![(0, 0)];
        while let Some(at) = q.next_at() {
            let msg = q.pop_due(at).expect("due at its own instant");
            got.push((msg.arrived_at.as_nanos() / 1_000, msg.payload));
        }
        assert_eq!(got, order);
    }
}
