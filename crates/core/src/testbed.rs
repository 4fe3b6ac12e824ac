//! The Testbed: clients ↔ fabric ↔ ReFlex server ↔ Flash, in one engine.
//!
//! [`Testbed`] wires every component of the reproduction into a single
//! deterministic discrete-event simulation, mirroring the paper's
//! experimental setup (§5.1): client machines running load generators, a
//! 10GbE switch fabric, and a server machine with NVMe Flash running the
//! ReFlex dataplane. Workloads are described declaratively
//! ([`WorkloadSpec`](crate::WorkloadSpec)) and measured with
//! warmup-then-measure windows, exactly like mutilate.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use reflex_dataplane::WireMsg;
use reflex_flash::{DeviceProfile, DeviceStats, FlashDevice, StagedCmd};
use reflex_net::{
    ConnTable, Delivery, Fabric, Flight, LinkConfig, MachineId, NicQueueId, Opcode, ReflexHeader,
    StackProfile,
};
use reflex_qos::{CostModel, LeaseEntry, LeaseLedger, TenantId, TokenPool};
use reflex_sim::{
    Ctx, Engine, EventHandle, LookaheadPolicy, PoolKey, ShardStats, ShardTopology, ShardWorld,
    ShardedEngine, SimDuration, SimRng, SimTime, SlabPool, TypedEvent, Zipf,
};
use reflex_telemetry::{ShardCounter, Stage, Telemetry, TelemetrySnapshot, TenantKey};

use crate::capacity::CapacityProfile;
use crate::client::{
    AddrPattern, ArrivalProcess, LoadPattern, MixProcess, OutstandingReq, WorkloadReport,
    WorkloadSpec, WorkloadState,
};
use crate::harness::ServerHarness;
use crate::server::{AdmissionError, ReflexServer, ServerConfig};

/// Errors configuring a testbed.
#[derive(Debug)]
pub enum TestbedError {
    /// The workload spec failed validation.
    InvalidSpec(String),
    /// The spec referenced a client machine that does not exist.
    NoSuchClient(usize),
    /// Tenant registration failed.
    Admission(AdmissionError),
}

impl std::fmt::Display for TestbedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestbedError::InvalidSpec(s) => write!(f, "invalid workload: {s}"),
            TestbedError::NoSuchClient(i) => write!(f, "no client machine {i}"),
            TestbedError::Admission(e) => write!(f, "admission: {e}"),
        }
    }
}

impl std::error::Error for TestbedError {}

impl From<AdmissionError> for TestbedError {
    fn from(e: AdmissionError) -> Self {
        TestbedError::Admission(e)
    }
}

#[derive(Clone)]
struct ClientMachine {
    machine: MachineId,
    stack: StackProfile,
}

/// The recurring simulation events, dispatched through the engine's typed
/// event path so the request loop — including the retry/backoff path,
/// which can become hot under adversarial overload — allocates no
/// per-event closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldEvent {
    /// Wake server thread `i` and run its dataplane pump loop.
    PumpThread(usize),
    /// Poll client machine `i` for delivered responses.
    ClientPoll(usize),
    /// Response deadline for the request whose slab key packs to `cookie`.
    /// Generation checking makes a stale deadline (request already
    /// answered, slot reused) a no-op.
    Timeout(u64),
    /// Open-loop generator tick for workload `i`.
    OpenLoopGen(usize),
    /// Replay step `pos` of workload `w_idx`'s trace (replay began at
    /// `started`).
    TraceReplay {
        /// Workload index.
        w_idx: usize,
        /// Position in the trace.
        pos: usize,
        /// Simulated instant replay began.
        started: SimTime,
    },
    /// Periodic control-plane tick.
    Control(SimDuration),
    /// Issue one request on `conn_idx` of workload `w_idx` (closed-loop
    /// kickoff).
    Issue {
        /// Workload index.
        w_idx: usize,
        /// Connection index within the workload.
        conn_idx: usize,
    },
    /// Fire every staged retransmission whose backoff has elapsed, in
    /// canonical order (see [`World::retry_fire_event`]).
    RetryFire,
}

/// A staged retransmission. Typed instead of a boxed closure so the retry
/// path neither allocates per attempt nor depends on event insertion
/// order — due records are drained in an order derived from the request
/// itself, which is the same in a mono run and a sharded run.
#[derive(Clone, Copy)]
struct RetryRec {
    fire_at: SimTime,
    w_idx: usize,
    conn_idx: usize,
    is_read: bool,
    addr: u64,
    len: u32,
    first_sent_at: SimTime,
    measured: bool,
    attempt: u32,
}

impl<S: ServerHarness + 'static> TypedEvent<World<S>> for WorldEvent {
    fn dispatch(self, world: &mut World<S>, ctx: &mut Ctx<'_, World<S>, WorldEvent>) {
        // Windowed delivery: raise the fabric's resolution horizon to this
        // event's scheduled instant before any handler looks at arrivals.
        // (The event's *scheduled* time, not a busy-advanced one, so the
        // horizon is a pure function of the event timeline.)
        world.fabric.observe(ctx.now());
        if world.split {
            // Split mode: the device and the lease ledger apply staged
            // entries on the same event-driven horizon, so the applied set
            // at any instant is a pure function of the event timeline —
            // identical at every shard count.
            if let Some(device) = world.device.as_mut() {
                device.observe(ctx.now());
            }
            if let Some(ledger) = &world.ledger {
                ledger
                    .lock()
                    .expect("lease ledger poisoned")
                    .observe(ctx.now());
            }
        }
        match self {
            WorldEvent::PumpThread(i) => world.pump_event(i, ctx),
            WorldEvent::ClientPoll(i) => world.client_poll_event(i, ctx),
            WorldEvent::Timeout(cookie) => world.timeout_event(cookie, ctx),
            WorldEvent::OpenLoopGen(i) => world.open_loop_gen_event(i, ctx),
            WorldEvent::TraceReplay {
                w_idx,
                pos,
                started,
            } => world.trace_replay_event(w_idx, pos, started, ctx),
            WorldEvent::Control(interval) => world.control_event(interval, ctx),
            WorldEvent::Issue { w_idx, conn_idx } => world.issue_request(w_idx, conn_idx, ctx),
            WorldEvent::RetryFire => world.retry_fire_event(ctx),
        }
    }
}

/// The simulation world: every component plus scheduling bookkeeping.
pub struct World<S: ServerHarness = ReflexServer> {
    fabric: Fabric<WireMsg>,
    // Device and server live on shard 0 only; client shards carry `None`
    // and route requests through `route_table` instead. Single-shard runs
    // always hold both.
    device: Option<FlashDevice>,
    server: Option<S>,
    /// The server's machine id, known to every shard.
    server_machine: MachineId,
    /// Static conn → NIC-queue routes cached at bind time, consulted by
    /// shards that do not hold the server (sharding requires servers whose
    /// routing is static — see [`ServerHarness::supports_sharding`]).
    route_table: ConnTable<NicQueueId>,
    /// Whether client machine `i` is simulated by this world (all true in
    /// a single-shard run).
    client_local: Vec<bool>,
    /// Seed from which per-workload RNG streams derive
    /// ([`SimRng::stream`] keyed by registration index, so a workload's
    /// draws do not depend on what other workloads do).
    gen_seed: u64,
    clients: Vec<ClientMachine>,
    workloads: Vec<WorkloadState>,
    client_threads_busy: Vec<Vec<SimTime>>, // [workload][client thread]
    // In-flight requests live in a slab; the pool key (slot + generation)
    // packs into the wire cookie, so responses and timeouts look the
    // request up by index with no hashing and slot reuse recycles storage.
    outstanding: SlabPool<OutstandingReq>,
    // Recycled buffer for client-side response polling (a fresh Vec per
    // poll event would be the last per-IO allocation on the client path).
    poll_scratch: Vec<Delivery<WireMsg>>,
    // Staged retransmissions plus a recycled drain buffer (see
    // `retry_fire_event`). Both keep their capacity across a retry storm,
    // so sustained timeouts stay allocation-free.
    retries_pending: Vec<RetryRec>,
    retry_scratch: Vec<RetryRec>,
    // Pending wake per server thread / client machine: the instant plus a
    // handle to the scheduled event, so re-arming to an earlier instant
    // cancels the old wake instead of leaving a dead event in the queue.
    thread_wake: Vec<Option<(SimTime, EventHandle)>>,
    client_wake: Vec<Option<(SimTime, EventHandle)>>,
    // `Fabric::inbound` of each client machine when its wake was last
    // checked after a pump: a pump that sent it nothing leaves its wake be.
    client_inbound: Vec<u64>,
    // Recycled buffer for the flights `flush_outbound` hands over.
    outbound_scratch: Vec<(usize, Flight<WireMsg>)>,
    wakes: WakeStats,
    measure_start: Option<SimTime>,
    busy_snapshot: Vec<SimDuration>,
    sched_snapshot: Vec<SimDuration>,
    spent_snapshot: HashMap<TenantId, i64>,
    gen_cursor: Vec<usize>,
    zipf: Vec<Option<Zipf>>,
    // Disabled by default: a single branch on the hot path. When enabled
    // (see [`Testbed::enable_telemetry`]) the same handle is shared by the
    // device, fabric, server threads and the client-side span/SLO probes.
    telemetry: Telemetry,
    /// Split-dataplane mode: the device stages commands, the token bucket
    /// is a lease ledger, and dataplane threads may live on different
    /// shards (see [`Testbed::enable_split_dataplane`]).
    split: bool,
    /// Whether worker thread `i` runs on this shard. All true in a
    /// single-shard run; in machine-granular sharding every thread lives
    /// on shard 0; in split mode threads round-robin over the shards.
    thread_local: Vec<bool>,
    /// This shard's lease-ledger replica (split mode only; shared with the
    /// local schedulers through [`TokenPool::Leased`]).
    ledger: Option<Arc<Mutex<LeaseLedger>>>,
    /// Peer shards holding device/ledger replicas that must receive this
    /// shard's staged commands and lease entries at window boundaries.
    dev_peers: Vec<usize>,
}

impl<S: ServerHarness> std::fmt::Debug for World<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("workloads", &self.workloads.len())
            .field("outstanding", &self.outstanding.len())
            .finish()
    }
}

impl<S: ServerHarness + 'static> World<S> {
    /// The simulated Flash device.
    ///
    /// # Panics
    ///
    /// Panics on a client shard's world (the device lives on shard 0).
    pub fn device(&self) -> &FlashDevice {
        self.device
            .as_ref()
            .expect("device lives on the server shard")
    }

    /// Exclusive access to the device (fault injection installs hooks
    /// here).
    ///
    /// # Panics
    ///
    /// Panics on a client shard's world (the device lives on shard 0).
    pub fn device_mut(&mut self) -> &mut FlashDevice {
        self.device
            .as_mut()
            .expect("device lives on the server shard")
    }

    /// The network fabric.
    pub fn fabric(&self) -> &Fabric<WireMsg> {
        &self.fabric
    }

    /// Exclusive access to the fabric (fault injection installs hooks and
    /// swaps stack profiles here).
    pub fn fabric_mut(&mut self) -> &mut Fabric<WireMsg> {
        &mut self.fabric
    }

    /// The server under test.
    ///
    /// # Panics
    ///
    /// Panics on a client shard's world (the server lives on shard 0).
    pub fn server(&self) -> &S {
        self.server.as_ref().expect("server lives on shard 0")
    }

    /// Exclusive access to the server (tests and advanced harnesses).
    ///
    /// # Panics
    ///
    /// Panics on a client shard's world (the server lives on shard 0).
    pub fn server_mut(&mut self) -> &mut S {
        self.server.as_mut().expect("server lives on shard 0")
    }

    /// Machine id of client machine `idx` (panics if out of range).
    pub fn client_machine(&self, idx: usize) -> MachineId {
        self.clients[idx].machine
    }

    /// Number of client machines.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Stops every workload generator: open-loop generators cease and
    /// closed-loop connections stop re-issuing, letting queues drain.
    pub fn stop_all_workloads(&mut self) {
        for w in &mut self.workloads {
            w.stopped = true;
        }
    }

    fn ensure_thread_wake(
        &mut self,
        ctx: &mut Ctx<World<S>, WorldEvent>,
        thread: usize,
        at: SimTime,
    ) {
        // Split mode: a thread only pumps on the shard that owns it. Every
        // wake funnels through here, so this is the single gate point.
        if !self.thread_local.get(thread).copied().unwrap_or(false) {
            return;
        }
        let at = at.max(ctx.now());
        if let Some((pending, _)) = self.thread_wake[thread] {
            if at >= pending {
                return; // an earlier (or equal) wake is already armed
            }
        }
        let handle = ctx.schedule_event_at_handle(at, WorldEvent::PumpThread(thread));
        self.wakes.thread_armed += 1;
        if let Some((_, stale)) = self.thread_wake[thread].replace((at, handle)) {
            ctx.cancel(stale);
            self.wakes.thread_cancelled += 1;
        }
    }

    fn ensure_client_wake(&mut self, ctx: &mut Ctx<World<S>, WorldEvent>, client: usize) {
        let machine = self.clients[client].machine;
        let Some(at) = self.fabric.next_arrival(machine) else {
            return;
        };
        let at = at.max(ctx.now());
        if let Some((pending, _)) = self.client_wake[client] {
            if at >= pending {
                return;
            }
        }
        let handle = ctx.schedule_event_at_handle(at, WorldEvent::ClientPoll(client));
        self.wakes.client_armed += 1;
        if let Some((_, stale)) = self.client_wake[client].replace((at, handle)) {
            ctx.cancel(stale);
            self.wakes.client_cancelled += 1;
        }
    }

    fn pump_event(&mut self, thread: usize, ctx: &mut Ctx<World<S>, WorldEvent>) {
        // Canonical same-instant order: wake *insertion* order can differ
        // between a single-shard run (wakes armed at send time) and a
        // sharded run (wakes armed at the window exchange), so one pump
        // event services every thread whose wake is due, in ascending
        // thread order, cancelling the siblings' queued events. The pump
        // sequence then depends only on the due set, never on insertion
        // order.
        let now = ctx.now();
        for i in 0..self.thread_wake.len() {
            let due = i == thread || self.thread_wake[i].is_some_and(|(at, _)| at <= now);
            if !due {
                continue;
            }
            if let Some((_, stale)) = self.thread_wake[i].take() {
                if i != thread {
                    ctx.cancel(stale);
                    self.wakes.thread_cancelled += 1;
                }
            }
            self.pump_one(i, ctx);
        }
    }

    /// The raw arrival bound of server thread `i`'s NIC queue.
    fn thread_arrival_bound(&self, i: usize) -> Option<SimTime> {
        let server = self.server.as_ref().expect("server shard");
        self.fabric
            .next_arrival_queue(server.machine(), server.nic_queue(i))
    }

    fn pump_one(&mut self, thread: usize, ctx: &mut Ctx<World<S>, WorldEvent>) {
        let now = ctx.now();
        let server = self.server.as_mut().expect("pump runs on the server shard");
        let device = self.device.as_mut().expect("device lives with the server");
        let hint = server.pump_thread(thread, now, &mut self.fabric, device);
        let n_active = server.active_threads();
        // The pumped thread wakes at `min(bound, hint)`: the raw arrival
        // bound of its queue, or the pump's own hint, which folds that
        // bound together with completions, the next scheduling round and
        // the core-busy horizon (`max(next_arrival, core_busy)`). A sharded
        // run's window exchange arms the *raw* bound, so taking it here too
        // makes the effective wake `min(bound, max(other sources,
        // core_busy))` in both modes and pump instants identical at any
        // shard count. The wake is armed once, at the place in this
        // function's arming order its instant used to win from — the hint
        // ahead of the client wakes, the bound in the sweep over the
        // threads after them — so same-instant events keep their order.
        let hint = hint.map(|at| at.max(now));
        let bound = (thread < n_active)
            .then(|| self.thread_arrival_bound(thread))
            .flatten()
            .map(|at| at.max(now));
        let bound_wins = match (bound, hint) {
            (Some(b), Some(h)) => b < h,
            (b, None) => b.is_some(),
            (None, Some(_)) => false,
        };
        if let (Some(at), false) = (hint, bound_wins) {
            self.ensure_thread_wake(ctx, thread, at);
        }
        // Responses may now be in flight. Only a client this pump sent to
        // can have an arrival earlier than its armed wake.
        for c in 0..self.clients.len() {
            if !self.client_local[c] {
                continue;
            }
            let inbound = self.fabric.inbound(self.clients[c].machine);
            if inbound != self.client_inbound[c] {
                self.client_inbound[c] = inbound;
                self.ensure_client_wake(ctx, c);
            }
        }
        // A rebalance forward may have landed on a sibling's queue: re-arm
        // every other active thread whose queue has pending arrivals.
        for i in 0..n_active {
            let at = if i == thread {
                bound.filter(|_| bound_wins)
            } else {
                self.thread_arrival_bound(i)
            };
            if let Some(at) = at {
                self.ensure_thread_wake(ctx, i, at);
            }
        }
    }

    fn client_poll_event(&mut self, client: usize, ctx: &mut Ctx<World<S>, WorldEvent>) {
        self.poll_due_clients(Some(client), ctx);
    }

    /// Same canonicalization as `pump_event`: poll every local client
    /// whose wake is due, ascending, so the poll sequence at an instant
    /// is independent of wake insertion order. `forced` is the client
    /// whose own wake is the currently-dispatching event (its handle is
    /// already consumed, so it must not be cancelled).
    fn poll_due_clients(&mut self, forced: Option<usize>, ctx: &mut Ctx<World<S>, WorldEvent>) {
        let now = ctx.now();
        for c in 0..self.clients.len() {
            if !self.client_local[c] {
                continue;
            }
            let due = forced == Some(c) || self.client_wake[c].is_some_and(|(at, _)| at <= now);
            if !due {
                continue;
            }
            if let Some((_, stale)) = self.client_wake[c].take() {
                if forced != Some(c) {
                    ctx.cancel(stale);
                    self.wakes.client_cancelled += 1;
                }
            }
            self.poll_client(c, ctx);
        }
    }

    /// Stages a retransmission and schedules its backoff deadline.
    fn stage_retry(&mut self, rec: RetryRec, ctx: &mut Ctx<World<S>, WorldEvent>) {
        self.retries_pending.push(rec);
        ctx.schedule_event_at(rec.fire_at, WorldEvent::RetryFire);
    }

    /// Fires every staged retransmission whose backoff has elapsed.
    ///
    /// Canonical same-instant order, across event types: completions beat
    /// retransmissions. Both contend for the client thread's send slot
    /// (`client_threads_busy`), and whether a backoff deadline dispatches
    /// before or after a poll wake at the same instant depends on event
    /// insertion order — which differs between a mono run (wakes re-armed
    /// at every send) and a sharded run (wakes armed at the window
    /// exchange). So: drain every due delivery first, then fire due
    /// retries sorted by a key derived from the request itself. Records
    /// with identical keys are interchangeable, so the result is a pure
    /// function of the event timeline at any shard count.
    fn retry_fire_event(&mut self, ctx: &mut Ctx<World<S>, WorldEvent>) {
        let now = ctx.now();
        self.poll_due_clients(None, ctx);
        let mut due = std::mem::take(&mut self.retry_scratch);
        let mut i = 0;
        while i < self.retries_pending.len() {
            if self.retries_pending[i].fire_at <= now {
                due.push(self.retries_pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_unstable_by_key(|r| {
            (
                r.w_idx,
                r.conn_idx,
                r.attempt,
                r.first_sent_at,
                r.addr,
                r.is_read,
            )
        });
        for r in due.drain(..) {
            self.transmit_attempt(
                r.w_idx,
                r.conn_idx,
                r.is_read,
                r.addr,
                r.len,
                r.first_sent_at,
                r.measured,
                r.attempt,
                ctx,
            );
        }
        self.retry_scratch = due;
    }

    fn poll_client(&mut self, client: usize, ctx: &mut Ctx<World<S>, WorldEvent>) {
        let machine = self.clients[client].machine;
        let mut deliveries = std::mem::take(&mut self.poll_scratch);
        self.fabric
            .poll_into(ctx.now(), machine, usize::MAX, &mut deliveries);
        self.wakes.client_polls += 1;
        self.wakes.client_polls_empty += u64::from(deliveries.is_empty());
        for d in deliveries.drain(..) {
            let Ok(header) = ReflexHeader::decode(&d.payload) else {
                continue;
            };
            let Some(req) = self.outstanding.take(PoolKey::from_u64(header.cookie)) else {
                // Duplicate delivery, or the response to an attempt that
                // already timed out — a real client ignores both.
                continue;
            };
            let w = &mut self.workloads[req.workload];
            let policy = w.spec.retry;
            if header.opcode == Opcode::Error && req.attempt < policy.max_attempts {
                // Retryable failure: back off and retransmit instead of
                // surfacing the error (the retry keeps closed-loop depth).
                w.retries += 1;
                let backoff = policy.backoff_after(req.attempt);
                self.stage_retry(
                    RetryRec {
                        fire_at: ctx.now() + backoff,
                        w_idx: req.workload,
                        conn_idx: req.conn_idx,
                        is_read: req.is_read,
                        addr: req.addr,
                        len: req.len,
                        first_sent_at: req.sent_at,
                        measured: req.measured,
                        attempt: req.attempt + 1,
                    },
                    ctx,
                );
                continue;
            }
            if header.opcode != Opcode::Error && req.attempt > 1 {
                w.retry_success += 1;
            }
            if header.opcode == Opcode::Error && policy.is_active() {
                // Final attempt still failed: the request is abandoned
                // with its retry budget spent.
                w.exhausted += 1;
            }
            let in_window = self.measure_start.is_some_and(|m| d.arrived_at >= m);
            if in_window {
                let since = d
                    .arrived_at
                    .saturating_since(self.measure_start.expect("checked in_window"));
                w.iops_series.add(SimTime::ZERO + since, 1);
                // Throughput counts every in-window completion — under
                // overload, responses to pre-window requests are still
                // served work (mutilate measures goodput the same way).
                if header.opcode == Opcode::Error {
                    w.errors += 1;
                } else if req.is_read {
                    w.completed_reads += 1;
                    w.read_bytes += req.len as u64;
                } else {
                    w.completed_writes += 1;
                    w.write_bytes += req.len as u64;
                }
                // Latency distributions only include requests issued within
                // the window (no warmup contamination).
                if req.measured && header.opcode != Opcode::Error {
                    let latency = d.arrived_at.saturating_since(req.sent_at);
                    if req.is_read {
                        w.read_hist.record(latency);
                        // Feed the SLO monitor: rolling p95 per tenant
                        // against the registered qos::slo target.
                        self.telemetry.slo_observe(
                            TenantKey(w.spec.tenant.0),
                            latency,
                            d.arrived_at,
                        );
                    } else {
                        w.write_hist.record(latency);
                    }
                }
            }
            // Closed-loop: keep the queue depth topped up.
            if matches!(w.spec.pattern, LoadPattern::ClosedLoop { .. }) && !w.stopped {
                self.issue_request(req.workload, req.conn_idx, ctx);
            }
        }
        self.poll_scratch = deliveries;
        self.ensure_client_wake(ctx, client);
    }

    fn next_addr(&mut self, w_idx: usize, conn_idx: usize) -> u64 {
        let w = &mut self.workloads[w_idx];
        let (ns_start, ns_len) = w.spec.namespace;
        let size = w.spec.io_size as u64;
        let slots = (ns_len / size).max(1);
        match w.spec.addr_pattern {
            AddrPattern::UniformRandom => ns_start + w.rng.below(slots) * size,
            AddrPattern::Sequential => {
                let cur = w.seq_cursor[conn_idx];
                w.seq_cursor[conn_idx] = (cur + 1) % slots;
                ns_start + cur * size
            }
            AddrPattern::Zipfian { .. } => {
                let z = self.zipf[w_idx].as_ref().expect("built at add_workload");
                // Scramble the rank so hot blocks scatter over the address
                // space (ranks map to blocks via a fixed permutation).
                let rank = z.sample(&mut w.rng);
                let block = rank.wrapping_mul(0x9e37_79b9_7f4a_7c15) % slots;
                ns_start + block * size
            }
        }
    }

    fn issue_request(
        &mut self,
        w_idx: usize,
        conn_idx: usize,
        ctx: &mut Ctx<World<S>, WorldEvent>,
    ) {
        let addr = self.next_addr(w_idx, conn_idx);
        let w = &mut self.workloads[w_idx];
        let spec = &w.spec;
        let read_pct = spec.read_pct;
        let is_read = match spec.mix {
            MixProcess::Bernoulli => w.rng.below(100) < read_pct as u64,
            MixProcess::Deterministic => {
                w.read_debt += spec.read_pct as u32;
                if w.read_debt >= 100 {
                    w.read_debt -= 100;
                    true
                } else {
                    false
                }
            }
        };
        let len = spec.io_size;
        self.issue_explicit(w_idx, conn_idx, is_read, addr, len, ctx);
    }

    /// Issues one fully-specified request (the trace-replay path and the
    /// generated path share everything from here on).
    fn issue_explicit(
        &mut self,
        w_idx: usize,
        conn_idx: usize,
        is_read: bool,
        addr: u64,
        io_size: u32,
        ctx: &mut Ctx<World<S>, WorldEvent>,
    ) {
        let now = ctx.now();
        let measured = self.measure_start.is_some_and(|m| now >= m);
        self.transmit_attempt(
            w_idx, conn_idx, is_read, addr, io_size, now, measured, 1, ctx,
        );
    }

    /// Transmits one attempt of a request. `attempt == 1` is a fresh issue;
    /// higher attempts are retransmissions carrying the original request's
    /// first-send instant and measurement flag.
    #[allow(clippy::too_many_arguments)]
    fn transmit_attempt(
        &mut self,
        w_idx: usize,
        conn_idx: usize,
        is_read: bool,
        addr: u64,
        io_size: u32,
        first_sent_at: SimTime,
        measured: bool,
        attempt: u32,
        ctx: &mut Ctx<World<S>, WorldEvent>,
    ) {
        let now = ctx.now();
        let w = &mut self.workloads[w_idx];
        let spec = &w.spec;
        let tenant = spec.tenant;
        let timeout = spec.retry.timeout;
        let client_idx = spec.client_machine;
        let conn = w.conns[conn_idx];
        let th = w.conn_thread[conn_idx] as usize;

        // Client thread gating: the stack's per-message CPU bounds the
        // thread's message rate (Linux: ~70K msgs/s). Retransmissions cost
        // CPU like any other message.
        let per_msg = self.clients[client_idx].stack.per_msg_cpu;
        let busy = &mut self.client_threads_busy[w_idx][th];
        let t_send = now.max(*busy);
        *busy = t_send + per_msg;
        // Ingress span: time the request waited for a client stack thread
        // before hitting the wire.
        self.telemetry.span(
            TenantKey(tenant.0),
            Stage::Ingress,
            t_send.saturating_since(now),
        );

        // Register the attempt first: the slab key becomes the wire cookie
        // (slot + generation), so the response and the timeout both find it
        // by index, and a reused slot invalidates stale cookies.
        let key = self.outstanding.insert(OutstandingReq {
            workload: w_idx,
            conn_idx,
            sent_at: first_sent_at,
            is_read,
            addr,
            len: io_size,
            measured,
            attempt,
        });
        let cookie = key.as_u64();
        let header = ReflexHeader {
            opcode: if is_read { Opcode::Get } else { Opcode::Put },
            tenant: tenant.0,
            cookie,
            addr,
            len: io_size,
        };
        let payload = if is_read { 0 } else { io_size };
        let client_machine = self.clients[client_idx].machine;
        let server_machine = self.server_machine;
        let queue = match &self.server {
            Some(s) => s.route(conn).unwrap_or_default(),
            // Client shard: static route cached at bind time. The
            // server-side wake is armed by the window exchange on the
            // shard that holds the server.
            None => self.route_table.get(conn).copied().unwrap_or_default(),
        };
        let arrival = self.fabric.send_to_queue(
            t_send,
            client_machine,
            server_machine,
            queue,
            conn,
            payload,
            header.encode_array(),
        );
        if measured && attempt == 1 {
            self.workloads[w_idx].issued += 1;
        }
        let server_thread = self.server.as_ref().map(|s| s.thread_of_conn(conn));
        match server_thread {
            Some(Some(thread)) => self.ensure_thread_wake(ctx, thread, arrival),
            // Unbound connection (link currently down): the message still
            // lands on queue 0 where the dataplane drops it — wake thread 0
            // so the drop is processed even with no other traffic.
            Some(None) => self.ensure_thread_wake(ctx, 0, arrival),
            // No server on this shard: nothing to wake locally.
            None => {}
        }
        if let Some(timeout) = timeout {
            ctx.schedule_event_at(t_send + timeout, WorldEvent::Timeout(cookie));
        }
    }

    /// Fires when an attempt's response deadline passes. If the cookie is
    /// still outstanding the attempt is declared lost: retry with backoff
    /// while attempts remain, otherwise abandon the request (topping up
    /// closed-loop depth so the generator does not deflate).
    fn timeout_event(&mut self, cookie: u64, ctx: &mut Ctx<World<S>, WorldEvent>) {
        // Canonical same-instant order: a response that has *arrived* by
        // the timeout instant beats the timeout. Whether the client's poll
        // wake for that arrival dispatches before or after this event
        // depends on wake insertion order, which differs between a mono
        // run (wakes re-armed at every send) and a sharded run (wakes
        // armed at the window exchange) — so drain the owning client's due
        // deliveries first, then decide whether the attempt is lost.
        if let Some(req) = self.outstanding.get(PoolKey::from_u64(cookie)) {
            let client = self.workloads[req.workload].spec.client_machine;
            if self.client_local[client] {
                self.poll_client(client, ctx);
            }
        }
        let Some(req) = self.outstanding.take(PoolKey::from_u64(cookie)) else {
            return; // answered in time — nothing to do
        };
        let w = &mut self.workloads[req.workload];
        w.timeouts += 1;
        let policy = w.spec.retry;
        if req.attempt < policy.max_attempts {
            w.retries += 1;
            let backoff = policy.backoff_after(req.attempt);
            self.stage_retry(
                RetryRec {
                    fire_at: ctx.now() + backoff,
                    w_idx: req.workload,
                    conn_idx: req.conn_idx,
                    is_read: req.is_read,
                    addr: req.addr,
                    len: req.len,
                    first_sent_at: req.sent_at,
                    measured: req.measured,
                    attempt: req.attempt + 1,
                },
                ctx,
            );
        } else {
            w.exhausted += 1;
            let refill = matches!(w.spec.pattern, LoadPattern::ClosedLoop { .. }) && !w.stopped;
            if refill {
                self.issue_request(req.workload, req.conn_idx, ctx);
            }
        }
    }

    fn open_loop_gen_event(&mut self, w_idx: usize, ctx: &mut Ctx<World<S>, WorldEvent>) {
        let w = &self.workloads[w_idx];
        if w.stopped {
            return;
        }
        let LoadPattern::OpenLoop { iops } = w.spec.pattern else {
            return;
        };
        let conns = w.conns.len();
        let arrival = w.spec.arrival;
        let conn_idx = self.gen_cursor[w_idx] % conns;
        self.gen_cursor[w_idx] += 1;
        self.issue_request(w_idx, conn_idx, ctx);
        let mean = SimDuration::from_secs_f64(1.0 / iops);
        let w = &mut self.workloads[w_idx];
        let gap = match arrival {
            ArrivalProcess::Poisson => w.rng.exponential(mean),
            // ±10% uniform jitter around the nominal gap.
            ArrivalProcess::Paced => mean.mul_f64(0.9 + 0.2 * w.rng.f64()),
        };
        ctx.schedule_event_after(gap, WorldEvent::OpenLoopGen(w_idx));
    }

    fn trace_replay_event(
        &mut self,
        w_idx: usize,
        pos: usize,
        started: SimTime,
        ctx: &mut Ctx<World<S>, WorldEvent>,
    ) {
        let w = &self.workloads[w_idx];
        if w.stopped {
            return;
        }
        let trace = w.spec.trace.clone().expect("trace workloads carry a trace");
        let Some(op) = trace.get(pos) else { return };
        let conns = w.conns.len();
        let conn_idx = pos % conns;
        self.issue_explicit(w_idx, conn_idx, op.is_read, op.addr, op.len, ctx);
        if let Some(next) = trace.get(pos + 1) {
            let due = started + next.at;
            let at = due.max(ctx.now());
            ctx.schedule_event_at(
                at,
                WorldEvent::TraceReplay {
                    w_idx,
                    pos: pos + 1,
                    started,
                },
            );
        }
    }

    fn control_event(&mut self, interval: SimDuration, ctx: &mut Ctx<World<S>, WorldEvent>) {
        if let Some(server) = self.server.as_mut() {
            let _ = server.control_tick(ctx.now(), interval);
        }
        ctx.schedule_event_after(interval, WorldEvent::Control(interval));
    }
}

/// A cross-shard exchange item: a network flight, a batch of staged device
/// commands bound for peer device replicas, or a batch of lease-ledger
/// entries bound for peer ledger replicas. Device and lease batches carry
/// their conservative bound (the end of the window their earliest entry was
/// staged in) computed at flush time, because staged entries only take
/// effect at the *next* window boundary.
#[derive(Debug)]
pub enum WorldFlight {
    /// An in-flight network message.
    Net(Flight<WireMsg>),
    /// Staged NVMe commands replicated to a peer shard's device.
    Dev(SimTime, Vec<StagedCmd>),
    /// Staged lease-ledger operations replicated to a peer shard's ledger.
    Lease(SimTime, Vec<LeaseEntry>),
}

// Sharded execution: a `World` ships departed cross-shard flights at each
// window boundary and folds arrivals from peer shards back into its own
// fabric, arming the same wakes the sender would have armed locally. In
// split-dataplane mode the device and QoS token state cross shards the same
// way: staged commands and lease entries are flights too, bounded by the
// window boundary after their staging instant.
impl<S: ServerHarness + 'static> ShardWorld<WorldEvent> for World<S> {
    type Flight = WorldFlight;

    fn flush_outbound(&mut self, sink: &mut Vec<(usize, Self::Flight)>) {
        let mut nets = std::mem::take(&mut self.outbound_scratch);
        self.fabric.take_outbound(&mut nets);
        sink.extend(nets.drain(..).map(|(s, f)| (s, WorldFlight::Net(f))));
        self.outbound_scratch = nets;
        if !self.split || self.dev_peers.is_empty() {
            return;
        }
        // Staged entries apply at the first window boundary after their
        // staging instant, so that boundary is their conservative bound.
        let w = self.fabric.lookahead().as_nanos();
        let grid_after = |at: SimTime| SimTime::from_nanos(at.as_nanos() / w * w + w);
        if let Some(device) = self.device.as_mut() {
            let cmds = device.take_staged_outbound();
            if !cmds.is_empty() {
                let bound = grid_after(cmds.iter().map(|c| c.at).min().expect("non-empty"));
                for &p in &self.dev_peers {
                    sink.push((p, WorldFlight::Dev(bound, cmds.clone())));
                }
            }
        }
        if let Some(ledger) = &self.ledger {
            let entries = ledger
                .lock()
                .expect("lease ledger poisoned")
                .take_outbound();
            if !entries.is_empty() {
                let bound = grid_after(entries.iter().map(|e| e.at).min().expect("non-empty"));
                for &p in &self.dev_peers {
                    sink.push((p, WorldFlight::Lease(bound, entries.clone())));
                }
            }
        }
    }

    fn flight_bound(flight: &Self::Flight) -> Option<SimTime> {
        match flight {
            WorldFlight::Net(f) => Some(f.bound()),
            WorldFlight::Dev(bound, _) | WorldFlight::Lease(bound, _) => Some(*bound),
        }
    }

    fn deliver(&mut self, ctx: &mut Ctx<'_, Self, WorldEvent>, flights: &mut Vec<Self::Flight>) {
        for flight in flights.drain(..) {
            match flight {
                WorldFlight::Net(flight) => {
                    let to = flight.to();
                    let conn = flight.conn();
                    let bound = flight.bound();
                    self.fabric.accept_flight(flight);
                    if to == self.server_machine {
                        // Unbound connections fall back to thread 0: the
                        // message lands on queue 0, owned by thread 0's
                        // shard.
                        let thread = self
                            .server
                            .as_ref()
                            .expect("flights to the server land on a server shard")
                            .thread_of_conn(conn)
                            .unwrap_or(0);
                        self.ensure_thread_wake(ctx, thread, bound);
                    } else if let Some(c) = self.clients.iter().position(|c| c.machine == to) {
                        self.ensure_client_wake(ctx, c);
                    }
                }
                // Replica sync carries no wakes: staged entries only take
                // effect at dispatch-time `observe` calls, which existing
                // events already drive.
                WorldFlight::Dev(_, cmds) => {
                    self.device
                        .as_mut()
                        .expect("device replicas live on thread shards")
                        .accept_staged(&cmds);
                }
                WorldFlight::Lease(_, entries) => {
                    self.ledger
                        .as_ref()
                        .expect("ledger replicas live on thread shards")
                        .lock()
                        .expect("lease ledger poisoned")
                        .accept(&entries);
                }
            }
        }
    }
}

/// Per-thread slice of a [`TestbedReport`].
#[derive(Debug, Clone)]
pub struct ThreadReport {
    /// Fraction of the measurement window the core was busy.
    pub busy_fraction: f64,
    /// Fraction of the window spent in QoS scheduling.
    pub sched_fraction: f64,
    /// Raw dataplane statistics (cumulative, not windowed), when the
    /// server exposes them.
    pub stats: Option<reflex_dataplane::ThreadStats>,
}

/// Results of a measurement window.
#[derive(Debug, Clone)]
pub struct TestbedReport {
    /// Length of the measured window.
    pub window: SimDuration,
    /// One report per workload, in registration order.
    pub workloads: Vec<WorkloadReport>,
    /// One report per active server thread.
    pub threads: Vec<ThreadReport>,
    /// Total token spend rate across all tenants (tokens/sec).
    pub token_usage_per_sec: f64,
    /// Device statistics (cumulative).
    pub device: DeviceStats,
    /// Tenants the control plane flagged for SLO renegotiation.
    pub renegotiations: Vec<TenantId>,
    /// Total events dispatched by the engine since the testbed was built
    /// (a proxy for simulation work; sweep harnesses report events/sec).
    pub engine_events: u64,
    /// Wake churn since the testbed was built, summed over shards. Like
    /// `engine_events` it describes the execution, not the simulation, and
    /// differs across shard counts.
    pub wakes: WakeStats,
    /// Telemetry snapshot (counters, per-tenant per-stage spans, IO
    /// conservation counters, SLO windows/violations) — `None` unless
    /// [`Testbed::enable_telemetry`] was called.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl TestbedReport {
    /// Finds a workload report by name.
    ///
    /// # Panics
    ///
    /// Panics if no workload has that name.
    pub fn workload(&self, name: &str) -> &WorkloadReport {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("no workload named {name}"))
    }
}

/// How much of the engine's work is wake churn: pump and poll wakes are
/// armed at a flight's arrival *bound*, so a wake can fire before the
/// message has resolved (an empty poll) or be superseded before it fires
/// (a cancel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeStats {
    /// `PumpThread` wakes scheduled.
    pub thread_armed: u64,
    /// `PumpThread` wakes cancelled before dispatch: re-armed earlier, or
    /// serviced by a sibling's pump at the same instant.
    pub thread_cancelled: u64,
    /// `ClientPoll` wakes scheduled.
    pub client_armed: u64,
    /// `ClientPoll` wakes cancelled before dispatch.
    pub client_cancelled: u64,
    /// Client machine polls (wakes that fired, plus polls forced ahead of
    /// retries and timeouts).
    pub client_polls: u64,
    /// Client polls that found no delivery.
    pub client_polls_empty: u64,
}

impl std::ops::AddAssign for WakeStats {
    fn add_assign(&mut self, o: WakeStats) {
        self.thread_armed += o.thread_armed;
        self.thread_cancelled += o.thread_cancelled;
        self.client_armed += o.client_armed;
        self.client_cancelled += o.client_cancelled;
        self.client_polls += o.client_polls;
        self.client_polls_empty += o.client_polls_empty;
    }
}

/// Builder for a [`Testbed`].
#[derive(Debug)]
pub struct TestbedBuilder {
    device: DeviceProfile,
    link: LinkConfig,
    server: ServerConfig,
    server_stack: StackProfile,
    client_stacks: Vec<StackProfile>,
    cost_model: Option<CostModel>,
    capacity: Option<CapacityProfile>,
    control_interval: SimDuration,
    seed: u64,
}

impl Default for TestbedBuilder {
    fn default() -> Self {
        TestbedBuilder {
            device: reflex_flash::device_a(),
            link: LinkConfig::default(),
            server: ServerConfig::default(),
            server_stack: StackProfile::dataplane_raw(),
            client_stacks: vec![StackProfile::ix_tcp()],
            cost_model: None,
            capacity: None,
            control_interval: SimDuration::from_millis(10),
            seed: 42,
        }
    }
}

impl TestbedBuilder {
    /// Starts from defaults: device A, 10GbE, one IX client machine, one
    /// server thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the Flash device profile.
    pub fn device(mut self, profile: DeviceProfile) -> Self {
        self.device = profile;
        self
    }

    /// Sets the fabric link configuration.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Sets the server configuration (threads, dataplane costs, scaling).
    pub fn server(mut self, server: ServerConfig) -> Self {
        self.server = server;
        self
    }

    /// Sets the number of active server threads (shorthand).
    pub fn server_threads(mut self, threads: u32) -> Self {
        self.server.threads = threads;
        self.server.max_threads = self.server.max_threads.max(threads);
        self
    }

    /// Replaces the client machines (one entry per machine).
    pub fn client_machines(mut self, stacks: Vec<StackProfile>) -> Self {
        self.client_stacks = stacks;
        self
    }

    /// Sets the server machine's network stack (baseline servers run on
    /// the Linux kernel stack; ReFlex polls raw NIC queues).
    pub fn server_stack(mut self, stack: StackProfile) -> Self {
        self.server_stack = stack;
        self
    }

    /// Overrides the cost model (default: matched to the device profile).
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = Some(model);
        self
    }

    /// Overrides the capacity profile (default: matched to the device).
    pub fn capacity(mut self, capacity: CapacityProfile) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Sets the RNG seed (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the testbed around a ReFlex server.
    ///
    /// # Panics
    ///
    /// Panics if no client machines are configured.
    pub fn build(self) -> Testbed<ReflexServer> {
        let cost_model = self
            .cost_model
            .clone()
            .unwrap_or_else(|| CostModel::for_profile(&self.device));
        let capacity = self
            .capacity
            .clone()
            .unwrap_or_else(|| CapacityProfile::for_profile(&self.device));
        let server_cfg = self.server.clone();
        self.build_with(move |fabric, device, machine| {
            ReflexServer::new(
                machine,
                fabric,
                device,
                cost_model,
                capacity,
                server_cfg,
                SimTime::ZERO,
            )
        })
    }

    /// Builds the testbed around any [`ServerHarness`] (used by the
    /// baseline servers). The constructor receives the fabric (to add NIC
    /// queues), the device (to create queue pairs) and the server machine.
    ///
    /// # Panics
    ///
    /// Panics if no client machines are configured.
    pub fn build_with<S, F>(self, make_server: F) -> Testbed<S>
    where
        S: ServerHarness + 'static,
        F: FnOnce(&mut Fabric<WireMsg>, &mut FlashDevice, MachineId) -> S,
    {
        assert!(
            !self.client_stacks.is_empty(),
            "need at least one client machine"
        );
        let mut rng = SimRng::seed(self.seed);
        let mut fabric = Fabric::new(self.link, rng.fork());
        let mut device = FlashDevice::new(self.device.clone(), rng.fork());
        device.precondition();
        let clients: Vec<ClientMachine> = self
            .client_stacks
            .into_iter()
            .map(|stack| ClientMachine {
                machine: fabric.add_machine(stack.clone()),
                stack,
            })
            .collect();
        let server_machine = fabric.add_machine(self.server_stack.clone());
        let server = make_server(&mut fabric, &mut device, server_machine);
        // Declare the physical topology: every client talks only to the
        // server (clients ↔ ToR switch ↔ server, §5.1). The link accounting
        // lets the sharded runner drop unlinked shard pairs from its
        // rendezvous math instead of assuming a full mesh.
        for c in &clients {
            fabric.declare_link(c.machine, server_machine);
        }
        // Windowed delivery is the testbed's delivery model: identical
        // semantics at one shard and at N, so splitting the world never
        // changes results.
        fabric.enable_windowed();
        let gen_seed = rng.next_u64();
        let n_threads = server.max_threads();
        let n_clients = clients.len();
        let world = World {
            fabric,
            device: Some(device),
            server: Some(server),
            server_machine,
            route_table: ConnTable::new(),
            client_local: vec![true; n_clients],
            gen_seed,
            clients,
            workloads: Vec::new(),
            client_threads_busy: Vec::new(),
            outstanding: SlabPool::new(),
            poll_scratch: Vec::new(),
            retries_pending: Vec::new(),
            retry_scratch: Vec::new(),
            thread_wake: vec![None; n_threads],
            client_wake: vec![None; n_clients],
            client_inbound: vec![0; n_clients],
            outbound_scratch: Vec::new(),
            wakes: WakeStats::default(),
            measure_start: None,
            busy_snapshot: Vec::new(),
            sched_snapshot: Vec::new(),
            spent_snapshot: HashMap::new(),
            gen_cursor: Vec::new(),
            zipf: Vec::new(),
            telemetry: Telemetry::disabled(),
            split: false,
            thread_local: vec![true; n_threads],
            ledger: None,
            dev_peers: Vec::new(),
        };
        let mut engine = Engine::with_events(world);
        let interval = self.control_interval;
        engine.schedule_event_at(SimTime::ZERO + interval, WorldEvent::Control(interval));
        Testbed {
            engine: ShardedEngine::single(engine),
            measure_begin: SimTime::ZERO,
            control_interval: interval,
            owner: Vec::new(),
            exported: vec![ShardStats::default()],
            split: false,
            shard_note: None,
        }
    }
}

/// Why [`Testbed::enable_split_dataplane`] left the unified dataplane in
/// place. Returned (not just printed) so tests and the swarm harness can
/// assert the *reason* for a fallback instead of scraping stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitFallback {
    /// The server under test does not support thread-granular sharding
    /// ([`ServerHarness::supports_split`] is `false`).
    ServerUnsupported,
    /// A network fault hook is armed; fault campaigns run unified.
    NetFaultHook,
    /// A device fault hook is armed; fault campaigns run unified.
    DeviceFaultHook,
    /// NIC queues are not laid out one-per-thread, so queues cannot be
    /// assigned to thread shards.
    QueueLayout,
}

impl std::fmt::Display for SplitFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SplitFallback::ServerUnsupported => {
                "the server does not support thread-granular sharding"
            }
            SplitFallback::NetFaultHook => "a network fault hook is installed",
            SplitFallback::DeviceFaultHook => "a device fault hook is installed",
            SplitFallback::QueueLayout => "NIC queues are not one-per-thread",
        })
    }
}

impl std::error::Error for SplitFallback {}

/// Why [`Testbed::with_shards`] ran on fewer shards than requested (or on
/// one). Recorded on the testbed and queryable via
/// [`Testbed::shard_clamp`]; `None` means the request was honored exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardClamp {
    /// No client machines exist to split off; running single-shard.
    NoClients,
    /// A network fault hook is installed; fault campaigns are single-shard.
    FaultHook,
    /// The server rebalances routes at runtime
    /// ([`ServerHarness::supports_sharding`] is `false`).
    ServerDynamicRouting,
    /// Fewer placement entities than requested shards: clamped.
    Clamped {
        /// Shards the caller asked for.
        requested: usize,
        /// Shards the testbed actually runs on.
        effective: usize,
    },
}

impl std::fmt::Display for ShardClamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardClamp::NoClients => f.write_str("no client machines to split off"),
            ShardClamp::FaultHook => f.write_str("a network fault hook is installed"),
            ShardClamp::ServerDynamicRouting => {
                f.write_str("the server rebalances routes at runtime")
            }
            ShardClamp::Clamped {
                requested,
                effective,
            } => write!(f, "{requested} shards requested, clamped to {effective}"),
        }
    }
}

/// The assembled simulation. See the module documentation.
pub struct Testbed<S: ServerHarness = ReflexServer> {
    engine: ShardedEngine<World<S>, WorldEvent>,
    measure_begin: SimTime,
    control_interval: SimDuration,
    /// Shard that owns each workload's generator, in registration order.
    owner: Vec<usize>,
    /// Per-shard counters already folded into telemetry, so repeated
    /// [`run`](Self::run) calls export deltas rather than double counting.
    exported: Vec<ShardStats>,
    /// Split-dataplane mode is armed (see
    /// [`enable_split_dataplane`](Self::enable_split_dataplane)).
    split: bool,
    /// Why the last [`with_shards`](Self::with_shards) fell back or
    /// clamped, if it did.
    shard_note: Option<ShardClamp>,
}

impl<S: ServerHarness + 'static> std::fmt::Debug for Testbed<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("shards", &self.engine.shards())
            .field("now", &self.engine.now())
            .finish()
    }
}

impl Testbed<ReflexServer> {
    /// Starts building a testbed.
    pub fn builder() -> TestbedBuilder {
        TestbedBuilder::new()
    }
}

/// Shard→core placement. Pins each shard thread to its own core when the
/// host allows at least as many distinct cores as shards; on oversubscribed
/// hosts placement is skipped (stacking spinning shard threads on one core
/// fights the OS scheduler and is slower than floating).
///
/// `REFLEX_SIM_PIN=0`/`off` disables placement, `1`/`on` forces it even
/// when oversubscribed (shards round-robin over the allowed cores). Any
/// other value is a loud error — a typo silently changing the performance
/// envelope is worse than a panic.
fn plan_pinning(shards: usize) -> Option<Vec<usize>> {
    let knob = std::env::var("REFLEX_SIM_PIN").ok();
    let forced = match knob.as_deref() {
        Some("0") | Some("off") => return None,
        Some("1") | Some("on") => true,
        None | Some("") => false,
        Some(other) => panic!("invalid REFLEX_SIM_PIN={other:?} (expected 0/off or 1/on)"),
    };
    let cores = core_affinity::get_core_ids()?;
    if cores.is_empty() || (!forced && cores.len() < shards) {
        return None;
    }
    Some((0..shards).map(|i| cores[i % cores.len()].id).collect())
}

impl<S: ServerHarness + 'static> Testbed<S> {
    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Number of shards the simulation runs on (1 unless
    /// [`with_shards`](Self::with_shards) split it).
    pub fn shards(&self) -> usize {
        self.engine.shards()
    }

    /// Why the last [`with_shards`](Self::with_shards) call fell back to
    /// fewer shards than requested; `None` when it was honored exactly
    /// (or never called).
    pub fn shard_clamp(&self) -> Option<ShardClamp> {
        self.shard_note
    }

    /// Whether split-dataplane mode is armed (see
    /// [`enable_split_dataplane`](Self::enable_split_dataplane)).
    pub fn split_dataplane(&self) -> bool {
        self.split
    }

    /// The lease ledger's conservation pair `(gives, accounted)` —
    /// cumulative donations vs `residue + Σ leases + taken + discarded` —
    /// from the first shard holding a ledger replica. `None` outside
    /// split-dataplane mode. Every replica agrees at applied boundaries,
    /// so one replica suffices; the swarm oracle asserts the two sides
    /// are equal at run exit.
    pub fn lease_accounting(&self) -> Option<(i64, i64)> {
        (0..self.engine.shards()).find_map(|s| {
            self.engine.engine(s).world().ledger.as_ref().map(|l| {
                let l = l.lock().expect("lease ledger poisoned");
                (l.gives_cum(), l.accounted())
            })
        })
    }

    /// Shared access to the world (shard 0 — the server's shard — when
    /// sharded).
    pub fn world(&self) -> &World<S> {
        self.engine.engine(0).world()
    }

    /// Exclusive access to the world (shard 0 when sharded).
    pub fn world_mut(&mut self) -> &mut World<S> {
        self.engine.engine_mut(0).world_mut()
    }

    /// Schedules an arbitrary event against the (shard 0) world at instant
    /// `at` — the hook fault injectors use to fire timed events (link
    /// flaps, thread stalls) inside the simulation.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut World<S>, &mut Ctx<World<S>, WorldEvent>) + Send + 'static,
    {
        self.engine.engine_mut(0).schedule_at(at, f);
    }

    /// Splits the simulated world by machine across up to `n` OS threads:
    /// shard 0 keeps the server (and the Flash device); client machines
    /// round-robin over the remaining shards. Shards advance in lockstep
    /// windows equal to the link propagation delay (the conservative-PDES
    /// lookahead) and exchange in-flight messages at window boundaries in
    /// a deterministic total order, so results are **byte-identical** to
    /// the single-shard run.
    ///
    /// Silently stays single-shard when `n <= 1`, when there are no client
    /// machines to split off, when the server rebalances routes at runtime
    /// ([`ServerHarness::supports_sharding`] is `false`), or when a
    /// network fault hook is installed (fault campaigns are single-shard).
    ///
    /// # Panics
    ///
    /// Panics if called after a workload was added or after the simulation
    /// has started running.
    pub fn with_shards(mut self, n: usize) -> Self {
        if self.split {
            return self.with_shards_split(n);
        }
        let world0 = self.engine.engine(0).world();
        let n_clients = world0.clients.len();
        let n_eff = 1 + n.saturating_sub(1).min(n_clients);
        if self.engine.shards() != 1 || n_eff <= 1 {
            if n > 1 && self.engine.shards() == 1 && n_clients == 0 {
                self.shard_note = Some(ShardClamp::NoClients);
                eprintln!(
                    "reflex-sim: {n} shards requested but there are no client machines to \
                     split off; running single-shard"
                );
            }
            return self;
        }
        if !world0.server().supports_sharding() || world0.fabric.has_fault_hook() {
            let clamp = if world0.fabric.has_fault_hook() {
                ShardClamp::FaultHook
            } else {
                ShardClamp::ServerDynamicRouting
            };
            eprintln!("reflex-sim: {n} shards requested but {clamp}; running single-shard");
            self.shard_note = Some(clamp);
            return self;
        }
        if n_eff < n {
            self.shard_note = Some(ShardClamp::Clamped {
                requested: n,
                effective: n_eff,
            });
            eprintln!(
                "reflex-sim: {n} shards requested, clamped to {n_eff} \
                 (1 server shard + {n_clients} client machines)"
            );
        }
        assert!(
            world0.workloads.is_empty(),
            "with_shards must be called before add_workload"
        );
        assert_eq!(
            self.engine.now(),
            SimTime::ZERO,
            "with_shards must be called before the simulation runs"
        );
        let engine = self
            .engine
            .into_engines()
            .pop()
            .expect("single-shard testbed holds one engine");
        let mut world = engine.into_world();
        let mut shard_of = vec![0usize; world.fabric.machines()];
        for (i, c) in world.clients.iter().enumerate() {
            shard_of[c.machine.0 as usize] = 1 + i % (n_eff - 1);
        }
        let window = world.fabric.lookahead();
        let mut server = world.server.take();
        let mut device = world.device.take();
        let mut engines = Vec::with_capacity(n_eff);
        for s in 0..n_eff {
            let shard_world = World {
                fabric: world.fabric.split_for_shard(&shard_of, s),
                device: if s == 0 { device.take() } else { None },
                server: if s == 0 { server.take() } else { None },
                server_machine: world.server_machine,
                route_table: ConnTable::new(),
                client_local: world
                    .clients
                    .iter()
                    .map(|c| shard_of[c.machine.0 as usize] == s)
                    .collect(),
                gen_seed: world.gen_seed,
                clients: world.clients.clone(),
                workloads: Vec::new(),
                client_threads_busy: Vec::new(),
                outstanding: SlabPool::new(),
                poll_scratch: Vec::new(),
                retries_pending: Vec::new(),
                retry_scratch: Vec::new(),
                thread_wake: vec![None; world.thread_wake.len()],
                client_wake: vec![None; world.client_wake.len()],
                client_inbound: vec![0; world.client_wake.len()],
                outbound_scratch: Vec::new(),
                wakes: WakeStats::default(),
                measure_start: None,
                busy_snapshot: Vec::new(),
                sched_snapshot: Vec::new(),
                spent_snapshot: HashMap::new(),
                gen_cursor: Vec::new(),
                zipf: Vec::new(),
                telemetry: world.telemetry.clone(),
                split: false,
                // Machine-granular sharding: every thread lives with the
                // server on shard 0.
                thread_local: vec![s == 0; world.thread_wake.len()],
                ledger: None,
                dev_peers: Vec::new(),
            };
            let mut eng = Engine::with_events(shard_world);
            if s == 0 {
                // The control plane ticks with the server.
                eng.schedule_event_at(
                    SimTime::ZERO + self.control_interval,
                    WorldEvent::Control(self.control_interval),
                );
            }
            engines.push(eng);
        }
        let topology = world.fabric.shard_topology(&shard_of, n_eff);
        self.engine = ShardedEngine::new(engines, window);
        self.engine.set_topology(topology);
        self.engine.set_pinning(plan_pinning(n_eff));
        self.exported = vec![ShardStats::default(); n_eff];
        self
    }

    /// Switches the testbed to split-dataplane mode: the NIC serializes
    /// each queue on its own lane, the Flash device stages commands on the
    /// window grid, and the schedulers' shared token bucket is replaced by
    /// a deterministically-mergeable lease ledger. A subsequent
    /// [`with_shards`](Self::with_shards) then distributes dataplane
    /// *threads* (not just client machines) across shards — each thread
    /// shard carries replicas of the device and ledger, kept bit-identical
    /// by broadcasting staged entries at window boundaries.
    ///
    /// All three mechanisms are active even at one shard, so split-mode
    /// results are byte-identical at every shard count (but differ from
    /// unified-dataplane results: token grants quantize to the window
    /// grid). The default OFF keeps every existing figure untouched.
    ///
    /// # Errors
    ///
    /// Returns the typed [`SplitFallback`] reason (with a one-line stderr
    /// note, leaving the unified dataplane in place) when the server does
    /// not support splitting, a fault hook is installed, or NIC queues are
    /// not one-per-thread.
    ///
    /// # Panics
    ///
    /// Panics if called after [`with_shards`](Self::with_shards),
    /// [`add_workload`](Self::add_workload), or the first
    /// [`run`](Self::run).
    pub fn enable_split_dataplane(&mut self) -> Result<(), SplitFallback> {
        assert_eq!(
            self.engine.shards(),
            1,
            "enable_split_dataplane must precede with_shards"
        );
        assert_eq!(
            self.engine.now(),
            SimTime::ZERO,
            "enable_split_dataplane must precede the first run"
        );
        let world = self.engine.engine_mut(0).world_mut();
        assert!(
            world.workloads.is_empty(),
            "enable_split_dataplane must precede add_workload"
        );
        let server_machine = world.server_machine;
        let max_threads = world.server().max_threads();
        let reason = if !world.server().supports_split() {
            Some(SplitFallback::ServerUnsupported)
        } else if world.fabric.has_fault_hook() {
            Some(SplitFallback::NetFaultHook)
        } else if world.device().has_fault_hook() {
            Some(SplitFallback::DeviceFaultHook)
        } else if world.fabric.queue_count(server_machine) as usize != max_threads {
            Some(SplitFallback::QueueLayout)
        } else {
            None
        };
        if let Some(reason) = reason {
            eprintln!(
                "reflex-sim: split-dataplane disabled ({reason}); running the unified dataplane"
            );
            return Err(reason);
        }
        let window = world.fabric.lookahead();
        let active = world.server().active_threads();
        world.fabric.enable_lanes(server_machine);
        world.device_mut().enable_windowed(window);
        let mut ledger = LeaseLedger::new(max_threads as u32, window);
        ledger.set_active_threads(active as u32);
        let ledger = Arc::new(Mutex::new(ledger));
        world
            .server_mut()
            .set_token_pool(TokenPool::Leased(Arc::clone(&ledger)));
        world.ledger = Some(ledger);
        world.split = true;
        self.split = true;
        Ok(())
    }

    /// Thread-granular sharding for split-dataplane mode: each dataplane
    /// thread (with its NIC lane and NVMe queue pair) and each client
    /// machine is a placement entity, round-robined across up to `n`
    /// shards. Every thread-owning shard carries a pristine server replica
    /// plus device and lease-ledger replicas; staged NVMe commands and
    /// lease entries broadcast at window boundaries keep the replicas
    /// bit-identical, so results match the split-mode single-shard run
    /// byte for byte.
    fn with_shards_split(mut self, n: usize) -> Self {
        let world0 = self.engine.engine(0).world();
        let n_threads = world0.server().active_threads();
        let n_clients = world0.clients.len();
        let n_eff = n.min(n_threads + n_clients);
        if self.engine.shards() != 1 || n_eff <= 1 {
            return self;
        }
        assert!(
            world0.workloads.is_empty(),
            "with_shards must be called before add_workload"
        );
        assert_eq!(
            self.engine.now(),
            SimTime::ZERO,
            "with_shards must be called before the simulation runs"
        );
        if n_eff < n {
            self.shard_note = Some(ShardClamp::Clamped {
                requested: n,
                effective: n_eff,
            });
            eprintln!(
                "reflex-sim: {n} shards requested, clamped to {n_eff} \
                 ({n_threads} dataplane threads + {n_clients} client machines)"
            );
        }
        let engine = self
            .engine
            .into_engines()
            .pop()
            .expect("single-shard testbed holds one engine");
        let mut world = engine.into_world();
        let max_threads = world.thread_wake.len();
        // Placement entity k is thread k (k < n_threads) or client
        // machine k - n_threads, round-robined over the shards.
        let owner = |k: usize| k % n_eff;
        let mut shard_of = vec![0usize; world.fabric.machines()];
        for (i, c) in world.clients.iter().enumerate() {
            shard_of[c.machine.0 as usize] = owner(n_threads + i);
        }
        // Queue q belongs to thread q's shard (enable_split_dataplane
        // verified the one-queue-per-thread layout). Inactive threads'
        // queues never see traffic; park them on shard 0.
        let queue_map: Vec<usize> = (0..max_threads)
            .map(|q| if q < n_threads { owner(q) } else { 0 })
            .collect();
        let t_shards = n_eff.min(n_threads);
        let window = world.fabric.lookahead();
        let server0 = world.server.take().expect("split testbed holds the server");
        let device0 = world.device.take().expect("split testbed holds the device");
        let ledger0 = world.ledger.take().expect("split mode installed a ledger");
        let active = server0.active_threads();

        let mut servers: Vec<Option<S>> = (0..n_eff).map(|_| None).collect();
        let mut devices: Vec<Option<FlashDevice>> = (0..n_eff).map(|_| None).collect();
        let mut ledgers: Vec<Option<Arc<Mutex<LeaseLedger>>>> = (0..n_eff).map(|_| None).collect();
        for s in 1..t_shards {
            let mut replica = server0
                .replicate(SimTime::ZERO)
                .expect("supports_split implies replicate");
            let mut ledger = LeaseLedger::new(max_threads as u32, window);
            ledger.set_active_threads(active as u32);
            let ledger = Arc::new(Mutex::new(ledger));
            replica.set_token_pool(TokenPool::Leased(Arc::clone(&ledger)));
            servers[s] = Some(replica);
            devices[s] = Some(device0.replicate());
            ledgers[s] = Some(ledger);
        }
        servers[0] = Some(server0);
        devices[0] = Some(device0);
        ledgers[0] = Some(ledger0);
        // Each replica delivers completions only for the queue pairs its
        // shard owns (every replica still applies every command, keeping
        // device state bit-identical across shards).
        for (s, dev) in devices.iter_mut().enumerate().take(t_shards) {
            let mask: Vec<bool> = (0..max_threads)
                .map(|i| i < n_threads && owner(i) == s)
                .collect();
            dev.as_mut()
                .expect("thread shards hold a device")
                .set_local_qps(mask);
        }

        let mut engines = Vec::with_capacity(n_eff);
        for s in 0..n_eff {
            let shard_world = World {
                fabric: world.fabric.split_for_shard_with_queues(
                    &shard_of,
                    s,
                    Some((world.server_machine, queue_map.clone())),
                ),
                device: devices[s].take(),
                server: servers[s].take(),
                server_machine: world.server_machine,
                route_table: ConnTable::new(),
                client_local: world
                    .clients
                    .iter()
                    .map(|c| shard_of[c.machine.0 as usize] == s)
                    .collect(),
                gen_seed: world.gen_seed,
                clients: world.clients.clone(),
                workloads: Vec::new(),
                client_threads_busy: Vec::new(),
                outstanding: SlabPool::new(),
                poll_scratch: Vec::new(),
                retries_pending: Vec::new(),
                retry_scratch: Vec::new(),
                thread_wake: vec![None; max_threads],
                client_wake: vec![None; world.client_wake.len()],
                client_inbound: vec![0; world.client_wake.len()],
                outbound_scratch: Vec::new(),
                wakes: WakeStats::default(),
                measure_start: None,
                busy_snapshot: Vec::new(),
                sched_snapshot: Vec::new(),
                spent_snapshot: HashMap::new(),
                gen_cursor: Vec::new(),
                zipf: Vec::new(),
                telemetry: world.telemetry.clone(),
                split: true,
                thread_local: (0..max_threads)
                    .map(|i| i < n_threads && owner(i) == s)
                    .collect(),
                ledger: ledgers[s].take(),
                dev_peers: if s < t_shards {
                    (0..t_shards).filter(|&p| p != s).collect()
                } else {
                    Vec::new()
                },
            };
            let mut eng = Engine::with_events(shard_world);
            if s < t_shards {
                // The control plane ticks on every thread-owning shard:
                // deficit detection and SLO monitoring read local thread
                // state only, and the report unions the per-shard flags.
                eng.schedule_event_at(
                    SimTime::ZERO + self.control_interval,
                    WorldEvent::Control(self.control_interval),
                );
            }
            engines.push(eng);
        }
        // Queue-granular routing makes client↔thread-shard and
        // thread-shard↔thread-shard pairs all active: a full mesh.
        self.engine = ShardedEngine::new(engines, window);
        self.engine
            .set_topology(ShardTopology::full_mesh(n_eff, window));
        self.engine.set_pinning(plan_pinning(n_eff));
        self.exported = vec![ShardStats::default(); n_eff];
        self
    }

    /// Registers a workload: admits its tenant, opens and binds its
    /// connections, and starts its generator.
    ///
    /// # Errors
    ///
    /// See [`TestbedError`].
    pub fn add_workload(&mut self, spec: WorkloadSpec) -> Result<(), TestbedError> {
        let mut spec = spec;
        spec.validate().map_err(TestbedError::InvalidSpec)?;
        let shards = self.engine.shards();
        // Validation and tenant/connection registration run against the
        // server's shard (shard 0 — the only shard in a single-shard run).
        let world = self.engine.engine_mut(0).world_mut();
        if spec.client_machine >= world.clients.len() {
            return Err(TestbedError::NoSuchClient(spec.client_machine));
        }
        // Clamp the namespace to the device capacity so default specs work
        // on any profile.
        let capacity = world.device().profile().capacity_bytes;
        if spec.namespace.0 >= capacity {
            return Err(TestbedError::InvalidSpec(
                "namespace beyond device capacity".into(),
            ));
        }
        spec.namespace.1 = spec.namespace.1.min(capacity - spec.namespace.0);
        let acl = reflex_dataplane::AclEntry {
            ns_start: spec.namespace.0,
            ns_len: spec.namespace.1,
            allow_read: true,
            allow_write: true,
            allowed_clients: None,
        };
        if spec.shards > 1 {
            // Sharded registration goes through the concrete ReFlex path;
            // harness servers without sharding treat it as an error.
            world.server_mut().register_tenant_sharded(
                spec.tenant,
                spec.class,
                acl.clone(),
                spec.io_size,
                spec.shards,
            )?;
        } else {
            world.server_mut().register_tenant(
                spec.tenant,
                spec.class,
                acl.clone(),
                spec.io_size,
            )?;
        }
        // Latency-critical tenants get an SLO monitor entry keyed on their
        // p95 read-latency target (no-op while telemetry is disabled).
        if let Some(slo) = spec.class.slo() {
            world
                .telemetry
                .slo_register(TenantKey(spec.tenant.0), slo.p95_read_latency);
        }

        let client_machine = world.clients[spec.client_machine].machine;
        let w_idx = world.workloads.len();
        // Each workload draws from its own RNG stream, keyed by its stable
        // registration index — draws never depend on other workloads or on
        // event interleaving, so sharded runs replay the same sequences.
        let mut state =
            WorkloadState::new(spec.clone(), SimRng::stream(world.gen_seed, w_idx as u64));
        let mut routes = Vec::with_capacity(spec.conns as usize);
        for i in 0..spec.conns {
            let conn = world.fabric.new_conn();
            world
                .server_mut()
                .bind_connection(conn, spec.tenant, client_machine)
                .map_err(TestbedError::Admission)?;
            let queue = world.server().route(conn).unwrap_or_default();
            routes.push((conn, queue));
            state.conns.push(conn);
            state.conn_thread.push(i % spec.client_threads);
            state.seq_cursor.push(0);
        }
        let zipf = match spec.addr_pattern {
            AddrPattern::Zipfian { theta_permille } => {
                let slots = (spec.namespace.1 / spec.io_size as u64).max(2);
                Some(Zipf::new(
                    slots,
                    f64::from(theta_permille.clamp(1, 999)) / 1000.0,
                ))
            }
            _ => None,
        };
        // Open-loop kickoff offset comes out of the workload's own stream
        // *before* the state is replicated, so every shard's copy agrees
        // on the stream position.
        let open_loop_offset = match (&spec.trace, spec.pattern) {
            (None, LoadPattern::OpenLoop { iops }) => Some(
                state
                    .rng
                    .exponential(SimDuration::from_secs_f64(1.0 / iops)),
            ),
            _ => None,
        };

        // Replicate the workload's bookkeeping onto every shard so indices
        // line up everywhere; only the owner shard's copy ever advances.
        for s in 0..shards {
            let w = self.engine.engine_mut(s).world_mut();
            debug_assert_eq!(w.workloads.len(), w_idx);
            if s > 0 && w.server.is_some() {
                // Split replicas replay registration and binding so every
                // shard's placement bookkeeping (and conn → thread routes)
                // matches shard 0 bit for bit — placement is deterministic.
                if spec.shards > 1 {
                    w.server_mut().register_tenant_sharded(
                        spec.tenant,
                        spec.class,
                        acl.clone(),
                        spec.io_size,
                        spec.shards,
                    )?;
                } else {
                    w.server_mut().register_tenant(
                        spec.tenant,
                        spec.class,
                        acl.clone(),
                        spec.io_size,
                    )?;
                }
                for &(conn, queue) in &routes {
                    let (_, q) =
                        w.server_mut()
                            .bind_connection(conn, spec.tenant, client_machine)?;
                    debug_assert_eq!(q, queue, "replica placement diverged from shard 0");
                }
            }
            w.zipf.push(zipf.clone());
            w.workloads.push(state.clone());
            w.client_threads_busy
                .push(vec![SimTime::ZERO; spec.client_threads as usize]);
            w.gen_cursor.push(0);
            for &(conn, queue) in &routes {
                w.route_table.insert(conn, queue);
            }
        }
        // The generator runs on the shard simulating the client machine.
        let owner = (0..shards)
            .find(|&s| self.engine.engine(s).world().client_local[spec.client_machine])
            .expect("every client machine is local to exactly one shard");
        self.owner.push(owner);

        // Kick off the generator (trace replay overrides the pattern).
        let eng = self.engine.engine_mut(owner);
        if let Some(trace) = &spec.trace {
            let start = eng.now();
            let first_at = trace.first().expect("validated non-empty").at;
            eng.schedule_event_at(
                start + first_at,
                WorldEvent::TraceReplay {
                    w_idx,
                    pos: 0,
                    started: start,
                },
            );
            return Ok(());
        }
        match spec.pattern {
            LoadPattern::OpenLoop { .. } => {
                let offset = open_loop_offset.expect("drawn above for open-loop patterns");
                let at = eng.now() + offset;
                eng.schedule_event_at(at, WorldEvent::OpenLoopGen(w_idx));
            }
            LoadPattern::ClosedLoop { queue_depth } => {
                for conn_idx in 0..spec.conns as usize {
                    for q in 0..queue_depth {
                        // Stagger initial issues by a microsecond each so
                        // connections do not start in lockstep.
                        let offset = SimDuration::from_nanos(
                            (conn_idx as u64 * queue_depth as u64 + q as u64) * 1_000,
                        );
                        let at = eng.now() + offset;
                        eng.schedule_event_at(at, WorldEvent::Issue { w_idx, conn_idx });
                    }
                }
            }
        }
        Ok(())
    }

    /// Marks the end of warmup: clears all histograms and counters so the
    /// next [`report`](Self::report) covers only what follows.
    pub fn begin_measurement(&mut self) {
        let now = self.engine.now();
        self.measure_begin = now;
        for s in 0..self.engine.shards() {
            let world = self.engine.engine_mut(s).world_mut();
            world.measure_start = Some(now);
            for w in &mut world.workloads {
                w.reset_measurement();
            }
            if let Some(server) = world.server.as_ref() {
                world.busy_snapshot = (0..server.max_threads())
                    .map(|i| server.busy_time(i))
                    .collect();
                world.sched_snapshot = (0..server.max_threads())
                    .map(|i| server.sched_time(i))
                    .collect();
                world.spent_snapshot = server.tenants_spent_millitokens();
            }
        }
    }

    /// Advances the simulation by `span` (all shards in lockstep windows
    /// when sharded).
    pub fn run(&mut self, span: SimDuration) {
        self.engine.run_for(span);
        self.settle_split();
        self.export_shard_counters();
    }

    /// Split mode only: after a run, exchange any staged device commands
    /// and lease entries still in flight and advance every replica's
    /// apply horizon to the stop instant. Without this, a replica whose
    /// shard saw no event near the end of the run would report stale
    /// device statistics (the apply horizon only advances at event
    /// dispatch), and the reported state would depend on the shard count.
    /// Net flights are *not* exchanged — they stay queued for the next
    /// window like in any paused run.
    fn settle_split(&mut self) {
        if !self.split {
            return;
        }
        let shards = self.engine.shards();
        let now = self.engine.now();
        if shards > 1 {
            let mut dev_posts: Vec<(usize, Vec<StagedCmd>)> = Vec::new();
            let mut lease_posts: Vec<(usize, Vec<LeaseEntry>)> = Vec::new();
            for s in 0..shards {
                let w = self.engine.engine_mut(s).world_mut();
                if let Some(device) = w.device.as_mut() {
                    let cmds = device.take_staged_outbound();
                    if !cmds.is_empty() {
                        dev_posts.push((s, cmds));
                    }
                }
                if let Some(ledger) = &w.ledger {
                    let entries = ledger
                        .lock()
                        .expect("lease ledger poisoned")
                        .take_outbound();
                    if !entries.is_empty() {
                        lease_posts.push((s, entries));
                    }
                }
            }
            for s in 0..shards {
                let w = self.engine.engine_mut(s).world_mut();
                if w.server.is_none() {
                    continue;
                }
                for (from, cmds) in &dev_posts {
                    if *from != s {
                        w.device
                            .as_mut()
                            .expect("thread shards hold a device")
                            .accept_staged(cmds);
                    }
                }
                for (from, entries) in &lease_posts {
                    if *from != s {
                        w.ledger
                            .as_ref()
                            .expect("thread shards hold a ledger")
                            .lock()
                            .expect("lease ledger poisoned")
                            .accept(entries);
                    }
                }
            }
        }
        for s in 0..shards {
            let w = self.engine.engine_mut(s).world_mut();
            if let Some(device) = w.device.as_mut() {
                device.observe(now);
            }
            if let Some(ledger) = &w.ledger {
                ledger.lock().expect("lease ledger poisoned").observe(now);
            }
        }
    }

    /// Overrides how the sharded runner picks rendezvous boundaries (no-op
    /// at one shard). Simulated results are byte-identical under every
    /// policy; only barrier counts and wall time change.
    pub fn set_lookahead_policy(&mut self, policy: LookaheadPolicy) {
        self.engine.set_policy(policy);
    }

    /// The active rendezvous policy of the sharded runner.
    pub fn lookahead_policy(&self) -> LookaheadPolicy {
        self.engine.policy()
    }

    /// Cumulative runner counters for shard `s` (barrier waits, committed
    /// windows, extended commits, wall time).
    pub fn shard_stats(&self, s: usize) -> ShardStats {
        self.engine.shard_stats(s)
    }

    /// Folds per-shard runner counters into telemetry as deltas since the
    /// last export. Single-shard runs take no barriers and export nothing,
    /// so figure TSVs (and the allocation budget) are untouched.
    fn export_shard_counters(&mut self) {
        let shards = self.engine.shards();
        if shards <= 1 {
            return;
        }
        let telemetry = self.engine.engine(0).world().telemetry.clone();
        for s in 0..shards {
            let stats = self.engine.shard_stats(s);
            let last = &mut self.exported[s];
            telemetry.count_shard(
                ShardCounter::BarrierWaits,
                s,
                stats.barrier_waits - last.barrier_waits,
            );
            telemetry.count_shard(
                ShardCounter::WindowsCommitted,
                s,
                stats.windows_committed - last.windows_committed,
            );
            telemetry.count_shard(
                ShardCounter::ExtendedCommits,
                s,
                stats.extended_commits - last.extended_commits,
            );
            *last = stats;
        }
    }

    /// Produces the measurement report for the window since
    /// [`begin_measurement`](Self::begin_measurement).
    pub fn report(&self) -> TestbedReport {
        let world = self.engine.engine(0).world();
        let window = self.engine.now().saturating_since(self.measure_begin);
        // Workload state advances only on its owner shard — read it there.
        let workloads: Vec<WorkloadReport> = (0..world.workloads.len())
            .map(|i| {
                let s = self.owner.get(i).copied().unwrap_or(0);
                self.engine.engine(s).world().workloads[i].report(window)
            })
            .collect();
        let world_server = world.server();
        let shards = self.engine.shards();
        let mut threads = Vec::new();
        for i in 0..world_server.active_threads() {
            // Thread state advances only on the shard that owns the thread
            // (shard 0 unless split-dataplane distributed them).
            let tw = (0..shards)
                .map(|s| self.engine.engine(s).world())
                .find(|w| w.server.is_some() && w.thread_local.get(i).copied().unwrap_or(false))
                .unwrap_or(world);
            let server = tw.server();
            let busy0 = tw
                .busy_snapshot
                .get(i)
                .copied()
                .unwrap_or(SimDuration::ZERO);
            let sched0 = tw
                .sched_snapshot
                .get(i)
                .copied()
                .unwrap_or(SimDuration::ZERO);
            let secs = window.as_secs_f64().max(1e-12);
            threads.push(ThreadReport {
                busy_fraction: server.busy_time(i).saturating_sub(busy0).as_secs_f64() / secs,
                sched_fraction: server.sched_time(i).saturating_sub(sched0).as_secs_f64() / secs,
                stats: server.thread_stats(i),
            });
        }
        // Token spend: each replica accounts only the threads it runs, so
        // the split-mode total is the sum of per-shard local deltas (the
        // single-server case reduces to shard 0's delta).
        let mut spent_delta = 0i64;
        for s in 0..shards {
            let w = self.engine.engine(s).world();
            let Some(server) = w.server.as_ref() else {
                continue;
            };
            for (id, now_mt) in server.tenants_spent_millitokens() {
                let before = w.spent_snapshot.get(&id).copied().unwrap_or(0);
                spent_delta += now_mt - before;
            }
        }
        let token_usage_per_sec = spent_delta as f64 / 1_000.0 / window.as_secs_f64().max(1e-12);
        // Renegotiation flags: in split mode each thread-owning shard's
        // control plane sees its own threads' deficits; union and sort so
        // the report does not depend on the shard count. (Non-split
        // reports keep the control plane's insertion order.)
        let renegotiations = if self.split {
            let mut flagged: Vec<TenantId> = Vec::new();
            for s in 0..shards {
                if let Some(server) = self.engine.engine(s).world().server.as_ref() {
                    for id in server.renegotiations() {
                        if !flagged.contains(&id) {
                            flagged.push(id);
                        }
                    }
                }
            }
            flagged.sort_by_key(|t| t.0);
            flagged
        } else {
            world_server.renegotiations()
        };
        let mut wakes = WakeStats::default();
        for s in 0..shards {
            wakes += self.engine.engine(s).world().wakes;
        }
        TestbedReport {
            window,
            workloads,
            threads,
            token_usage_per_sec,
            device: world.device().stats(),
            renegotiations,
            engine_events: (0..self.engine.shards())
                .map(|s| self.engine.engine(s).dispatched())
                .sum(),
            wakes,
            telemetry: world.telemetry.snapshot(),
        }
    }

    /// Turns on telemetry: installs one shared [`Telemetry`] sink on the
    /// device, fabric, server threads, the engine's dispatch probe and the
    /// client-side span/SLO probes. Recording is strictly passive — it
    /// draws no randomness and schedules nothing, so an instrumented run
    /// produces byte-identical results to an uninstrumented one. Returns a
    /// clone of the handle for direct inspection.
    pub fn enable_telemetry(&mut self) -> Telemetry {
        let telemetry = Telemetry::enabled();
        self.set_telemetry(telemetry.clone());
        telemetry
    }

    /// Installs `telemetry` on every instrumented component (pass
    /// [`Telemetry::disabled`] to switch recording back off). SLO targets
    /// of workloads added before this call are re-registered.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        // One shared handle across every shard: its counters and span sinks
        // are commutative merges, so concurrent shard threads recording
        // into it never change the snapshot's value.
        for s in 0..self.engine.shards() {
            let eng = self.engine.engine_mut(s);
            if let Some(probe) = telemetry.engine_probe() {
                eng.set_probe(probe);
            } else {
                eng.clear_probe();
            }
            let world = eng.world_mut();
            world.fabric.set_telemetry(telemetry.clone());
            if let Some(device) = world.device.as_mut() {
                // Device replicas (split mode, s > 0) apply *every* command
                // to stay bit-identical, so only shard 0's device records —
                // anything else would double-count per replica.
                if s == 0 {
                    device.set_telemetry(telemetry.clone());
                } else {
                    device.set_telemetry(Telemetry::disabled());
                }
            }
            if let Some(server) = world.server.as_mut() {
                server.set_telemetry(telemetry.clone());
            }
            world.telemetry = telemetry.clone();
        }
        let world = self.engine.engine(0).world();
        for w in &world.workloads {
            if let Some(slo) = w.spec.class.slo() {
                telemetry.slo_register(TenantKey(w.spec.tenant.0), slo.p95_read_latency);
            }
        }
    }

    /// The current telemetry snapshot, when telemetry is enabled.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.engine.engine(0).world().telemetry.snapshot()
    }
}
