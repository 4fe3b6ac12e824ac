//! The Testbed: clients ↔ fabric ↔ ReFlex servers ↔ Flash, in one engine.
//!
//! [`Testbed`] wires every component of the reproduction into a single
//! deterministic discrete-event simulation, mirroring the paper's
//! experimental setup (§5.1): client machines running load generators, a
//! 10GbE switch fabric, and a server machine with NVMe Flash running the
//! ReFlex dataplane — or several such sites, over which a client
//! replicates its workload (see the `fanout` child module). Workloads are
//! described declaratively ([`WorkloadSpec`](crate::WorkloadSpec)) and
//! measured with warmup-then-measure windows, exactly like mutilate.

mod fanout;

use fanout::FailoverCounts;

use std::collections::HashMap;

use reflex_dataplane::{AclEntry, DataplaneThread, WireMsg};
use reflex_flash::{DeviceProfile, DeviceStats, FlashDevice};
use reflex_net::{
    ConnId, Delivery, Fabric, LinkConfig, MachineId, Opcode, ReflexHeader, StackProfile,
};
use reflex_qos::{CostModel, TenantId};
use reflex_sim::{Ctx, Engine, PoolKey, SimDuration, SimRng, SimTime, SlabPool, TypedEvent, Zipf};
use reflex_telemetry::{Stage, Telemetry, TelemetrySnapshot, TenantKey};

use crate::capacity::CapacityProfile;
use crate::client::{
    AddrPattern, AppDriver, ArrivalProcess, LoadPattern, MemberLink, OutstandingReq, ReplOp,
    WorkloadReport, WorkloadSpec, WorkloadState, NO_FAN,
};
use crate::cluster::{ClusterPlanner, PlacementError, ServerDescriptor, ServerId};
use crate::server::{AdmissionError, ReflexServer, ServerConfig};

pub use fanout::{quorum, ReadPolicy, TenantRecovery, MAX_REPLICAS, MIGRATION_STEP};

/// Errors configuring a testbed.
#[derive(Debug)]
pub enum TestbedError {
    /// The workload spec failed validation.
    InvalidSpec(String),
    /// The spec referenced a client machine that does not exist.
    NoSuchClient(usize),
    /// Tenant registration failed.
    Admission(AdmissionError),
    /// The planner could not place a replicated workload's set.
    Placement(PlacementError),
}

impl std::fmt::Display for TestbedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestbedError::InvalidSpec(s) => write!(f, "invalid workload: {s}"),
            TestbedError::NoSuchClient(i) => write!(f, "no client machine {i}"),
            TestbedError::Admission(e) => write!(f, "admission: {e}"),
            TestbedError::Placement(e) => write!(f, "replica placement: {e}"),
        }
    }
}

impl std::error::Error for TestbedError {}

impl From<AdmissionError> for TestbedError {
    fn from(e: AdmissionError) -> Self {
        TestbedError::Admission(e)
    }
}

/// One server site: a server machine with its own Flash device.
struct Site {
    server: ReflexServer,
    device: FlashDevice,
    /// The wake slot of the site's thread 0; its other threads' slots
    /// follow it: thread wakes are one flat table in (site, thread) order.
    wake_base: usize,
    /// Set by a `ServerDeath` (the armed fault hooks do the damage).
    died_at: Option<SimTime>,
}

#[derive(Clone)]
struct ClientMachine {
    machine: MachineId,
    stack: StackProfile,
    /// Hosts a workload that acts on a delivery — closed-loop (re-issues
    /// at the arrival instant) or with an active retry policy (backs off
    /// from it): only such a machine is woken at its arrivals.
    reactive: bool,
}

/// The scheduling context the world's event handlers receive.
type WorldCtx<'e> = Ctx<'e, World, WorldEvent>;

/// What a [`WorldEvent::Call`] runs.
type CallFn = Box<dyn FnOnce(&mut World, &mut WorldCtx)>;

/// The simulation's events. The recurring ones are plain data, so the
/// request loop — including the retry/backoff path, which can become hot
/// under adversarial overload — allocates nothing per event.
pub enum WorldEvent {
    /// A server thread's wake (sites' threads have one wake slot each, in
    /// one sequence): run the pump loop of every thread that is due.
    PumpThread,
    /// A client machine's wake (one slot each, after the threads'): poll
    /// every machine that is due for delivered responses.
    ClientPoll,
    /// Response deadline for the request whose slab key packs to `cookie`.
    /// Generation checking makes a stale deadline (request already
    /// answered, slot reused) a no-op.
    Timeout(u64),
    /// Open-loop generator tick for workload `i`.
    OpenLoopGen(usize),
    /// Periodic control-plane tick.
    Control(SimDuration),
    /// Issue one request on `conn_idx` of workload `w_idx` (closed-loop
    /// kickoff, or when a driven workload's app asked for it).
    Issue {
        /// Workload index.
        w_idx: usize,
        /// Connection index within the workload.
        conn_idx: usize,
    },
    /// Fire every staged retransmission whose backoff has elapsed, in
    /// canonical order: due deliveries first, then due retries sorted by
    /// a key derived from each request.
    RetryFire,
    /// Site `i`'s server dies (bookkeeping; the armed fault hooks do the
    /// damage).
    ServerDeath(usize),
    /// Site `i`'s death is detected: every replicated set with a member
    /// there fails over.
    Failover(usize),
    /// Replacement member `slot` of workload `w_idx` finished re-syncing
    /// under membership `epoch` (stale if another failover intervened).
    ResyncDone {
        /// Workload index.
        w_idx: usize,
        /// Replica slot.
        slot: usize,
        /// Membership epoch the re-sync started under.
        epoch: u32,
    },
    /// An open-ended cold event (see [`Testbed::schedule_at`]).
    Call(CallFn),
}

impl std::fmt::Debug for WorldEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldEvent").finish_non_exhaustive()
    }
}

/// A staged retransmission. Typed instead of a boxed closure so the retry
/// path neither allocates per attempt nor depends on event insertion
/// order — due records are drained in an order derived from the request
/// itself.
#[derive(Clone, Copy)]
struct RetryRec {
    fire_at: SimTime,
    /// The attempt to transmit.
    req: OutstandingReq,
}

impl TypedEvent<World> for WorldEvent {
    fn dispatch(self, world: &mut World, ctx: &mut WorldCtx) {
        match self {
            WorldEvent::PumpThread => world.pump_event(ctx),
            WorldEvent::ClientPoll => world.poll_clients(ctx),
            WorldEvent::Timeout(cookie) => world.timeout_event(cookie, ctx),
            WorldEvent::OpenLoopGen(i) => world.open_loop_gen_event(i, ctx),
            WorldEvent::Control(interval) => world.control_event(interval, ctx),
            WorldEvent::Issue { w_idx, conn_idx } => world.issue_request(w_idx, conn_idx, ctx),
            WorldEvent::RetryFire => world.retry_fire_event(ctx),
            WorldEvent::ServerDeath(site) => world.server_death_event(site, ctx),
            WorldEvent::Failover(site) => {
                world.settle(ctx.now());
                world.failover_event(site, ctx);
                world.rearm_threads(ctx);
            }
            WorldEvent::ResyncDone { w_idx, slot, epoch } => {
                world.resync_done_event(w_idx, slot, epoch);
            }
            WorldEvent::Call(f) => {
                // The call may read or mutate anything.
                world.settle(ctx.now());
                world.absorb(ctx);
                f(world, ctx);
                world.rearm_threads(ctx);
            }
        }
    }
}

/// The simulation world: every component plus scheduling bookkeeping.
pub struct World {
    fabric: Fabric<WireMsg>,
    sites: Vec<Site>,
    /// Holds every replicated member's SLO reservation, keyed by (site,
    /// tenant), and chooses sites for new and replacement members. The
    /// membership itself is the workloads' member lists.
    planner: ClusterPlanner,
    /// The replication factor R of every replicated workload.
    replication: usize,
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
    // Quorum accounting of the replicated requests among them: an attempt
    // with a `fan` points here; a plain request has no entry.
    ops: SlabPool<ReplOp>,
    // Recycled buffer for client-side response polling (a fresh Vec per
    // poll event would be the last per-IO allocation on the client path).
    poll_scratch: Vec<Delivery<WireMsg>>,
    // Likewise for `absorb`'s merge: each client machine's next arrival.
    head_scratch: Vec<SimTime>,
    // Staged retransmissions plus a recycled drain buffer (see
    // `retry_fire_event`). Both keep their capacity across a retry storm,
    // so sustained timeouts stay allocation-free.
    retries_pending: Vec<RetryRec>,
    retry_scratch: Vec<RetryRec>,
    // The engine's wake slots hold one pending wake per server thread, in
    // (site, thread) order, then one per client machine from here on.
    client_wake_base: usize,
    // Wake and poll counters; the sleep counters are read off the servers
    // at report.
    wakes: WakeStats,
    measure_start: Option<SimTime>,
    // Per wake slot, and per tenant over every site.
    busy_snapshot: Vec<SimDuration>,
    sched_snapshot: Vec<SimDuration>,
    spent_snapshot: HashMap<TenantId, i64>,
    gen_cursor: Vec<usize>,
    zipf: Vec<Option<Zipf>>,
    recoveries: Vec<TenantRecovery>,
    failover: FailoverCounts,
    // Disabled by default: a single branch on the hot path. When enabled
    // (see [`Testbed::enable_telemetry`]) the same recorder is shared by
    // the devices, fabric, server threads and the client-side span/SLO
    // probes.
    telemetry: Telemetry,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("workloads", &self.workloads.len())
            .field("outstanding", &self.outstanding.len())
            .finish()
    }
}

impl World {
    /// The first site's Flash device.
    pub fn device(&self) -> &FlashDevice {
        &self.sites[0].device
    }

    /// Exclusive access to site `site`'s device (fault injection installs
    /// hooks here).
    pub fn device_at_mut(&mut self, site: usize) -> &mut FlashDevice {
        &mut self.sites[site].device
    }

    /// The network fabric.
    pub fn fabric(&self) -> &Fabric<WireMsg> {
        &self.fabric
    }

    /// Exclusive access to the fabric (fault injection installs hooks
    /// here).
    pub fn fabric_mut(&mut self) -> &mut Fabric<WireMsg> {
        &mut self.fabric
    }

    /// The server under test (the first site's).
    pub fn server(&self) -> &ReflexServer {
        self.server_at(0)
    }

    /// Exclusive access to the first site's server.
    pub fn server_mut(&mut self) -> &mut ReflexServer {
        self.server_at_mut(0)
    }

    /// The planner's books: one SLO reservation per replicated member,
    /// on its site.
    pub fn planner(&self) -> &ClusterPlanner {
        &self.planner
    }

    /// Number of server sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Site `site`'s server.
    pub fn server_at(&self, site: usize) -> &ReflexServer {
        &self.sites[site].server
    }

    /// Exclusive access to site `site`'s server (tests and advanced
    /// harnesses).
    pub fn server_at_mut(&mut self, site: usize) -> &mut ReflexServer {
        &mut self.sites[site].server
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

    /// Cumulative millitokens spent per tenant, over every site.
    fn spent_millitokens(&self) -> HashMap<TenantId, i64> {
        let mut spent = HashMap::new();
        for site in &self.sites {
            for (id, mt) in site.server.all_tenants_spent_millitokens() {
                *spent.entry(id).or_insert(0) += mt;
            }
        }
        spent
    }

    /// Settles every site's slept-through rounds strictly before `before`
    /// (sites share no bucket and no device: each settles on its own).
    fn settle(&mut self, before: SimTime) {
        for site in &mut self.sites {
            site.server.settle(before);
        }
    }

    fn ensure_thread_wake(&mut self, ctx: &mut WorldCtx, slot: usize, at: SimTime) {
        if let Some(replaced) = ctx.arm(slot, at, WorldEvent::PumpThread) {
            self.wakes.thread_armed += 1;
            self.wakes.thread_cancelled += u64::from(replaced);
        }
    }

    fn ensure_client_wake(&mut self, ctx: &mut WorldCtx, client: usize) {
        let Some(at) = self.fabric.next_arrival(self.clients[client].machine) else {
            return;
        };
        if let Some(replaced) = ctx.arm(self.client_wake_base + client, at, WorldEvent::ClientPoll)
        {
            self.wakes.client_armed += 1;
            self.wakes.client_cancelled += u64::from(replaced);
        }
    }

    fn pump_event(&mut self, ctx: &mut WorldCtx) {
        // Canonical same-instant order: one pump event services every
        // thread whose wake is due, in ascending (site, thread) order — a
        // thread sleeping through a round at this very instant included,
        // so that the round runs in its turn among the pumps.
        let now = ctx.now();
        self.settle(now);
        for s in 0..self.sites.len() {
            let base = self.sites[s].wake_base;
            for t in 0..self.sites[s].server.threads().len() {
                let due = ctx.take_due(base + t);
                self.wakes.thread_cancelled += u64::from(due == Some(true));
                let server = &self.sites[s].server;
                if due.is_some() || server.threads()[t].round_wake(now) == Some(now) {
                    self.pump_one(s, t, ctx);
                }
            }
        }
    }

    /// Arms every thread at the instant its round grid asks for: after a
    /// control-plane or fault entry, which may have cut a sleep short.
    fn rearm_threads(&mut self, ctx: &mut WorldCtx) {
        for s in 0..self.sites.len() {
            self.sites[s].server.take_woken();
            for t in 0..self.sites[s].server.active_threads() {
                if let Some(at) = self.sites[s].server.threads()[t].round_wake(ctx.now()) {
                    self.ensure_thread_wake(ctx, self.sites[s].wake_base + t, at);
                }
            }
        }
    }

    /// Next arrival on the NIC queue of site `s`'s thread `t`.
    fn thread_next_arrival(&self, s: usize, t: usize) -> Option<SimTime> {
        let site = &self.sites[s];
        let queue = site.server.threads()[t].nic_queue();
        self.fabric.next_arrival_queue(site.server.machine(), queue)
    }

    /// Pumps one thread and applies the wake rule: the pumped thread is
    /// armed once, at the earlier of its queue's next arrival and the
    /// pump's hint (completions, the next scheduling round, the core-busy
    /// horizon); responses that have landed are absorbed and every
    /// reactive client is re-armed from its queue, where this pump may
    /// have sent; every other active thread of the site is re-armed from
    /// its own queue, where a rebalance forward may have landed — nobody
    /// else's next arrival can have become earlier — and from its round
    /// grid, where a sleep this pump cut short (it left tokens in the
    /// bucket, or wrote to a read-only device) now ends. Another site's
    /// threads share nothing with this one.
    fn pump_one(&mut self, s: usize, thread: usize, ctx: &mut WorldCtx) {
        let site = &mut self.sites[s];
        let base = site.wake_base;
        let hint = site
            .server
            .pump_thread(thread, ctx.now(), &mut self.fabric, &mut site.device);
        if let Some(at) = SimTime::earlier(self.thread_next_arrival(s, thread), hint) {
            self.ensure_thread_wake(ctx, base + thread, at);
        }
        self.absorb(ctx);
        for c in 0..self.clients.len() {
            if self.clients[c].reactive {
                self.ensure_client_wake(ctx, c);
            }
        }
        for i in (0..self.sites[s].server.active_threads()).filter(|&i| i != thread) {
            let round = self.sites[s].server.threads()[i].round_wake(ctx.now());
            if let Some(at) = SimTime::earlier(self.thread_next_arrival(s, i), round) {
                self.ensure_thread_wake(ctx, base + i, at);
            }
        }
    }

    /// Same canonicalization as `pump_event`: one poll services every
    /// client whose wake is due, the dispatching one's included.
    fn poll_clients(&mut self, ctx: &mut WorldCtx) {
        let mut polls = 0;
        for c in 0..self.clients.len() {
            let due = ctx.take_due(self.client_wake_base + c);
            polls += u64::from(due.is_some());
            self.wakes.client_cancelled += u64::from(due == Some(true));
        }
        self.wakes.client_polls += polls;
        if self.absorb(ctx) == 0 {
            self.wakes.client_polls_empty += polls;
        }
    }

    /// Stages the retransmission of `req` after its attempt's backoff.
    fn stage_retry(&mut self, req: OutstandingReq, ctx: &mut WorldCtx) {
        let w = &mut self.workloads[req.workload as usize];
        w.retries += 1;
        let fire_at = ctx.now() + w.spec.retry.backoff_after(req.attempt);
        let req = OutstandingReq {
            attempt: req.attempt + 1,
            ..req
        };
        self.retries_pending.push(RetryRec { fire_at, req });
        ctx.schedule_event_at(fire_at, WorldEvent::RetryFire);
    }

    /// Fires every staged retransmission whose backoff has elapsed.
    ///
    /// Canonical same-instant order, across event types: completions beat
    /// retransmissions. Both contend for the client thread's send slot
    /// (`client_threads_busy`), and whether a backoff deadline dispatches
    /// before or after a poll wake at the same instant would otherwise
    /// depend on event insertion order. So: drain every due delivery
    /// first, then fire due retries sorted by a key derived from the
    /// request itself. Records with identical keys are interchangeable,
    /// so the result is a pure function of the event timeline.
    fn retry_fire_event(&mut self, ctx: &mut WorldCtx) {
        let now = ctx.now();
        self.poll_clients(ctx);
        let mut due = std::mem::take(&mut self.retry_scratch);
        let mut i = 0;
        while i < self.retries_pending.len() {
            if self.retries_pending[i].fire_at <= now {
                due.push(self.retries_pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_unstable_by_key(|RetryRec { req: r, .. }| {
            (
                r.workload,
                r.conn_idx,
                r.attempt,
                r.sent_at,
                r.addr,
                r.is_read,
                r.fan().map(|fan| fan.slot),
            )
        });
        for r in due.drain(..) {
            self.transmit(r.req, ctx);
        }
        self.retry_scratch = due;
    }

    /// The one place client deliveries are processed: drains every client
    /// machine's due deliveries (`arrived_at <= now`) in the order polls
    /// at each exact arrival would have — arrival instant, then machine,
    /// then send order — and returns how many there were. Everything a
    /// delivery records is a function of its `arrived_at`, so a machine
    /// that is not reactive needs no wake: the pump that sends responses
    /// absorbs those that have landed, and so does whoever could observe
    /// them (a `Call`, a timeout or retry, the end of a run). A reactive
    /// machine's deliveries wait for its wake, armed at their very
    /// instant, which absorbs them in its turn among that instant's
    /// events — and whatever is ordered after them waits with them.
    fn absorb(&mut self, ctx: &mut WorldCtx) -> u64 {
        let now = ctx.now();
        let mut deliveries = std::mem::take(&mut self.poll_scratch);
        let (mut total, mut unwoken) = (0, 0);
        let mut heads = std::mem::take(&mut self.head_scratch);
        heads.clear();
        let next =
            |fabric: &Fabric<WireMsg>, m: MachineId| fabric.next_arrival(m).unwrap_or(SimTime::MAX);
        heads.extend(self.clients.iter().map(|m| next(&self.fabric, m.machine)));
        loop {
            // The earliest head, of several the lowest machine's: a
            // linear pick over a handful.
            let (mut c, mut at) = (0, heads[0]);
            for (i, &head) in heads.iter().enumerate().skip(1) {
                if head < at {
                    (c, at) = (i, head);
                }
            }
            if at > now || ctx.is_armed(self.client_wake_base + c) {
                break;
            }
            let ClientMachine {
                machine, reactive, ..
            } = self.clients[c];
            self.fabric
                .poll_into(at, machine, usize::MAX, &mut deliveries);
            total += deliveries.len() as u64;
            if !reactive {
                unwoken += deliveries.len() as u64;
            }
            for d in deliveries.drain(..) {
                let Ok(header) = ReflexHeader::decode(&d.payload) else {
                    continue;
                };
                let Some(req) = self.outstanding.take(PoolKey::from_u64(header.cookie)) else {
                    // Duplicate delivery, or the response to an attempt that
                    // already timed out — a real client ignores both.
                    continue;
                };
                let failed = header.opcode == Opcode::Error;
                if failed && self.may_retry(&req) {
                    // Retryable failure: back off and retransmit instead of
                    // surfacing the error (the retry keeps closed-loop depth).
                    self.stage_retry(req, ctx);
                    continue;
                }
                if let Some(fan) = req.fan() {
                    self.conclude_sub(&req, fan.op, !failed, d.arrived_at, ctx);
                    continue;
                }
                if !failed && req.attempt > 1 {
                    self.workloads[req.workload as usize].retry_success += 1;
                }
                self.conclude(&req, !failed, d.arrived_at, ctx);
            }
            if reactive {
                self.ensure_client_wake(ctx, c);
            }
            heads[c] = next(&self.fabric, machine);
        }
        self.head_scratch = heads;
        self.poll_scratch = deliveries;
        if unwoken > 0 {
            self.wakes.client_absorbed += unwoken;
        }
        total
    }

    /// The one place an application-level request ends: it succeeded
    /// (`ok`) or failed for good at `at`, with no attempt left or its
    /// replicated op's quorum lost. Within the measurement window a
    /// success counts toward throughput, bytes and the `iops_series` —
    /// under overload, responses to pre-window requests are still served
    /// work (mutilate measures goodput the same way) — and, if issued in
    /// the window, toward the latency histograms and the SLO monitor.
    /// Every failure counts in `exhausted`, and in `errors` when it falls
    /// in the window; a failed read still held the application from issue
    /// to failure, so a measured one's wait feeds the SLO monitor too, and
    /// an outage shows as violations, not silence. A closed-loop workload
    /// then issues the request that keeps its depth, or asks its app.
    #[inline]
    fn conclude(&mut self, req: &OutstandingReq, ok: bool, at: SimTime, ctx: &mut WorldCtx) {
        let w_idx = req.workload as usize;
        let w = &mut self.workloads[w_idx];
        let in_window = self.measure_start.filter(|&m| at >= m);
        let latency = at.saturating_since(req.sent_at);
        if !ok {
            w.exhausted += 1;
            w.errors += u64::from(in_window.is_some());
        } else if let Some(start) = in_window {
            let since = at.saturating_since(start);
            w.iops_series.add(SimTime::ZERO + since, 1);
            if req.is_read {
                w.completed_reads += 1;
                w.read_bytes += u64::from(w.spec.io_size);
            } else {
                w.completed_writes += 1;
                w.write_bytes += u64::from(w.spec.io_size);
            }
            if req.measured && req.is_read {
                w.read_hist.record(latency);
            } else if req.measured {
                w.write_hist.record(latency);
            }
        }
        if req.measured && req.is_read && (!ok || in_window.is_some()) {
            let tenant = TenantKey(w.spec.tenant.0);
            self.telemetry.slo_observe(tenant, latency, at);
        }
        if !matches!(w.spec.pattern, LoadPattern::ClosedLoop { .. }) || w.stopped {
            return;
        }
        if w.app.is_none() {
            return self.issue_request(w_idx, req.conn_idx as usize, ctx);
        }
        // Its app is asked for this connection, then for the idle ones.
        for conn in std::iter::once(req.conn_idx).chain(std::mem::take(&mut w.idle)) {
            self.drive(w_idx, conn as usize, at, ctx);
        }
    }

    /// Asks a driven workload's app when connection `conn_idx`, free at
    /// `at`, issues next: now, later (an `Issue` event) or not yet.
    fn drive(&mut self, w_idx: usize, conn_idx: usize, at: SimTime, ctx: &mut WorldCtx) {
        let w = &mut self.workloads[w_idx];
        match w.app.as_mut().and_then(|app| app.next(conn_idx, at)) {
            Some(t) if t > ctx.now() => {
                ctx.schedule_event_at(t, WorldEvent::Issue { w_idx, conn_idx });
            }
            Some(_) => self.issue_request(w_idx, conn_idx, ctx),
            None => w.idle(conn_idx, at),
        }
    }

    /// Whether a failed attempt (an error response, a timeout) is worth
    /// another: attempts remain, and — for one member's share of a
    /// replicated request — the op still waits for its quorum.
    fn may_retry(&self, req: &OutstandingReq) -> bool {
        req.attempt
            < self.workloads[req.workload as usize]
                .spec
                .retry
                .max_attempts
            && req
                .fan()
                .is_none_or(|fan| self.ops.get(fan.op).is_some_and(|op| !op.done))
    }

    fn next_addr(&mut self, w_idx: usize) -> u64 {
        let w = &mut self.workloads[w_idx];
        let (ns_start, ns_len) = w.spec.namespace;
        let size = w.spec.io_size as u64;
        let slots = (ns_len / size).max(1);
        match w.spec.addr_pattern {
            AddrPattern::UniformRandom => ns_start + w.rng.below(slots) * size,
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

    /// Issues the workload's next request on `conn_idx`, its app's choice
    /// or a generated one: one attempt to its only copy, or a replicated
    /// workload's fan-out. Generated writes are interleaved at the exact
    /// ratio (every 5th request of an 80 % read mix), as paced load
    /// generators issue them.
    fn issue_request(&mut self, w_idx: usize, conn_idx: usize, ctx: &mut WorldCtx) {
        let now = ctx.now();
        let w = &mut self.workloads[w_idx];
        let (is_read, addr) = match &mut w.app {
            Some(app) => match app.request(conn_idx, now) {
                Some(req) => req,
                None => return w.idle(conn_idx, now),
            },
            None => {
                let addr = self.next_addr(w_idx);
                let w = &mut self.workloads[w_idx];
                w.read_debt += u32::from(w.spec.read_pct);
                let is_read = w.read_debt >= 100;
                if is_read {
                    w.read_debt -= 100;
                }
                (is_read, addr)
            }
        };
        let measured = self.measure_start.is_some_and(|m| now >= m);
        let w = &mut self.workloads[w_idx];
        if measured {
            w.issued += 1;
        }
        let req = OutstandingReq {
            workload: w_idx as u32,
            conn_idx: conn_idx as u32,
            sent_at: now,
            addr,
            attempt: 1,
            is_read,
            measured,
            fan_op: PoolKey::from_u64(0),
            fan_slot: NO_FAN,
        };
        match w.spec.replicated {
            None => self.transmit(req, ctx),
            Some(policy) => self.fan_out(req, policy, ctx),
        }
    }

    /// Transmits one attempt of a request. `attempt == 1` is a fresh issue;
    /// higher attempts are retransmissions carrying the original request's
    /// first-send instant and measurement flag. One member's share of a
    /// replicated request goes to that member as the set stands now, or
    /// nowhere if the op or the set have moved on (see `fan_slot`).
    fn transmit(&mut self, req: OutstandingReq, ctx: &mut WorldCtx) {
        let now = ctx.now();
        let slot = match req.fan() {
            None => 0,
            Some(fan) => match self.fan_slot(&req, fan) {
                Some(slot) => slot,
                None => return self.conclude_sub(&req, fan.op, false, now, ctx),
            },
        };
        let w = &self.workloads[req.workload as usize];
        let spec = &w.spec;
        let tenant = spec.tenant;
        let client_idx = spec.client_machine;
        let member = &w.members[slot];
        let conn = member.conns[req.conn_idx as usize];
        let th = w.conn_thread[req.conn_idx as usize] as usize;
        // RTO-style deadline widening for a replicated attempt: attempt k
        // waits 2^(k-1) × the base deadline. A member that is healthy but
        // queue-delayed (e.g. a fresh replacement absorbing the
        // post-failover inrush) answers late; fixed deadlines would
        // declare every such response stale and retransmit, and at R=2 —
        // where the quorum needs *every* member — that feedback loop
        // multiplies the arrival rate past the member's service rate and
        // the queue never drains. Widening lets a late attempt accept the
        // delayed response, which caps the retransmission rate.
        let timeout = spec.retry.timeout.map(|t| match req.fan() {
            Some(_) => t.mul_f64((1u64 << (req.attempt - 1).min(16)) as f64),
            None => t,
        });

        // Client thread gating: the stack's per-message CPU bounds the
        // thread's message rate (Linux: ~70K msgs/s). Retransmissions and
        // every copy of a fan-out cost CPU like any other message.
        let per_msg = self.clients[client_idx].stack.per_msg_cpu;
        let busy = &mut self.client_threads_busy[req.workload as usize][th];
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
        let cookie = self.outstanding.insert(req).as_u64();
        let header = ReflexHeader {
            opcode: if req.is_read {
                Opcode::Get
            } else {
                Opcode::Put
            },
            tenant: tenant.0,
            cookie,
            addr: req.addr,
            len: spec.io_size,
        };
        let payload = if req.is_read { 0 } else { spec.io_size };
        let site = &self.sites[member.site];
        let queue = site.server.route(conn).unwrap_or_default();
        let arrival = self.fabric.send_to_queue(
            t_send,
            self.clients[client_idx].machine,
            site.server.machine(),
            queue,
            conn,
            payload,
            header.encode_array(),
        );
        // Unbound connection (link currently down): the message still
        // lands on queue 0 where the dataplane drops it — wake thread 0 so
        // the drop is processed even with no other traffic.
        let thread = site.server.thread_of_conn(conn).unwrap_or(0);
        self.ensure_thread_wake(ctx, site.wake_base + thread, arrival);
        if let Some(timeout) = timeout {
            ctx.schedule_event_at(t_send + timeout, WorldEvent::Timeout(cookie));
        }
    }

    /// Fires when an attempt's response deadline passes. If the cookie is
    /// still outstanding the attempt is declared lost: retry with backoff
    /// while attempts remain, otherwise abandon the request (topping up
    /// closed-loop depth so the generator does not deflate).
    fn timeout_event(&mut self, cookie: u64, ctx: &mut WorldCtx) {
        // Canonical same-instant order: a response that has *arrived* by
        // the timeout instant beats the timeout, whichever of the client's
        // poll wake and this event was inserted first — so drain the due
        // deliveries first, then decide whether the attempt is lost.
        if self.outstanding.get(PoolKey::from_u64(cookie)).is_some() {
            self.poll_clients(ctx);
        }
        let Some(req) = self.outstanding.take(PoolKey::from_u64(cookie)) else {
            return; // answered in time — nothing to do
        };
        self.workloads[req.workload as usize].timeouts += 1;
        if self.may_retry(&req) {
            self.stage_retry(req, ctx);
        } else if let Some(fan) = req.fan() {
            self.conclude_sub(&req, fan.op, false, ctx.now(), ctx);
        } else {
            self.conclude(&req, false, ctx.now(), ctx);
        }
    }

    fn open_loop_gen_event(&mut self, w_idx: usize, ctx: &mut WorldCtx) {
        let w = &self.workloads[w_idx];
        if w.stopped {
            return;
        }
        let conns = w.spec.conns as usize;
        let arrival = w.spec.arrival;
        let conn_idx = self.gen_cursor[w_idx] % conns;
        self.gen_cursor[w_idx] += 1;
        self.issue_request(w_idx, conn_idx, ctx);
        let w = &mut self.workloads[w_idx];
        let mean = w.mean_gap;
        let gap = match arrival {
            ArrivalProcess::Poisson => w.rng.exponential(w.poisson_gap),
            // ±10% uniform jitter around the nominal gap.
            ArrivalProcess::Paced => mean.mul_f64(0.9 + 0.2 * w.rng.f64()),
        };
        ctx.schedule_event_after(gap, WorldEvent::OpenLoopGen(w_idx));
    }

    fn control_event(&mut self, interval: SimDuration, ctx: &mut WorldCtx) {
        for site in &mut self.sites {
            site.server.control_tick(ctx.now(), interval);
        }
        self.rearm_threads(ctx);
        ctx.schedule_event_after(interval, WorldEvent::Control(interval));
    }
}

/// Admits `spec`'s tenant on `server` and binds its connections from
/// `client` there: a plain workload's one copy, or one member of a
/// replicated workload's set.
fn join(
    server: &mut ReflexServer,
    fabric: &mut Fabric<WireMsg>,
    client: MachineId,
    spec: &WorkloadSpec,
) -> Result<Vec<ConnId>, AdmissionError> {
    let acl = AclEntry {
        ns_start: spec.namespace.0,
        ns_len: spec.namespace.1,
        allow_read: true,
        allow_write: true,
        allowed_clients: None,
    };
    server.register_tenant_sharded(spec.tenant, spec.class, acl, spec.io_size, spec.shards)?;
    (0..spec.conns)
        .map(|_| {
            let conn = fabric.new_conn();
            server.bind_connection(conn, spec.tenant, client)?;
            Ok(conn)
        })
        .collect()
}

/// Per-thread slice of a [`TestbedReport`].
#[derive(Debug, Clone)]
pub struct ThreadReport {
    /// Fraction of the measurement window the core was busy.
    pub busy_fraction: f64,
    /// Fraction of the window spent in QoS scheduling.
    pub sched_fraction: f64,
    /// Raw dataplane statistics (cumulative, not windowed); every thread
    /// has them.
    pub stats: Option<reflex_dataplane::ThreadStats>,
}

/// Results of a measurement window.
#[derive(Debug, Clone)]
pub struct TestbedReport {
    /// Length of the measured window.
    pub window: SimDuration,
    /// One report per workload, in registration order. A replicated
    /// workload's latencies are whole-op: issue → ack quorum reached.
    pub workloads: Vec<WorkloadReport>,
    /// One report per active server thread, in (site, thread) order.
    pub threads: Vec<ThreadReport>,
    /// Total token spend rate across all sites' tenants (tokens/sec).
    pub token_usage_per_sec: f64,
    /// The first site's device statistics (cumulative).
    pub device: DeviceStats,
    /// Tenants the control planes flagged for SLO renegotiation.
    pub renegotiations: Vec<TenantId>,
    /// Failover timeline: one entry per (tenant, failover) pair.
    pub recoveries: Vec<TenantRecovery>,
    /// Total events dispatched by the engine since the testbed was built
    /// (a proxy for simulation work; sweep harnesses report events/sec).
    pub engine_events: u64,
    /// Wake churn since the testbed was built. Like `engine_events` it
    /// describes the execution, not the simulation.
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

/// How much of the engine's work is wake churn: a wake is armed at an
/// exact arrival, completion or scheduling instant, so a poll wake always
/// finds its message, but a wake can still be superseded before it fires.
/// No count depends on how a window is cut into runs, except
/// `settle_calls`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeStats {
    /// `PumpThread` wakes armed.
    pub thread_armed: u64,
    /// `PumpThread` wakes superseded before dispatch: re-armed earlier, or
    /// serviced by a sibling's pump at the same instant.
    pub thread_cancelled: u64,
    /// `ClientPoll` wakes armed.
    pub client_armed: u64,
    /// `ClientPoll` wakes superseded before dispatch.
    pub client_cancelled: u64,
    /// Client wakes serviced: fired, or due when a sibling's wake, a retry
    /// or a timeout polled.
    pub client_polls: u64,
    /// Client polls that found no delivery.
    pub client_polls_empty: u64,
    /// Deliveries to machines that are not reactive, processed with no
    /// wake of their own by the next pump or observer.
    pub client_absorbed: u64,
    /// Scheduling rounds no thread was pumped for: idle ones, settled in
    /// a tight loop when the thread was next pumped, mutated or read.
    pub rounds_elided: u64,
    /// Settle passes that found a round to settle.
    pub settle_calls: u64,
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
    seed: u64,
    sites: usize,
    replication: usize,
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
            seed: 42,
            sites: 1,
            replication: 1,
        }
    }
}

impl TestbedBuilder {
    /// Starts from defaults: one site with device A, 10GbE, one IX client
    /// machine, one server thread, replication factor 1.
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

    /// Sets the server machine's network stack (default: ReFlex polling
    /// raw NIC queues). A kernel-stack server such as the paper's iSCSI
    /// and libaio baselines is this stack plus its protocol latency, with
    /// its per-message CPU in the server's `DataplaneConfig`.
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

    /// Sets the number of server sites, each a server machine with its
    /// own device of the configured profile. Plain workloads run on the
    /// first; replicated ones are placed over all of them.
    pub fn sites(mut self, sites: usize) -> Self {
        self.sites = sites;
        self
    }

    /// Sets the replication factor R: the size of every replicated
    /// workload's replica set.
    pub fn replication(mut self, r: usize) -> Self {
        self.replication = r;
        self
    }

    /// Builds the testbed around ReFlex servers, one per site.
    ///
    /// # Panics
    ///
    /// Panics if no client machines are configured, the replication
    /// factor is 0 or exceeds [`MAX_REPLICAS`] or the site count.
    pub fn build(self) -> Testbed {
        assert!(
            !self.client_stacks.is_empty(),
            "need at least one client machine"
        );
        assert!(
            (1..=MAX_REPLICAS.min(self.sites)).contains(&self.replication),
            "replication factor {} needs at least that many sites (have {}, at most {MAX_REPLICAS})",
            self.replication,
            self.sites
        );
        // Matched to the device profile unless overridden: what a ReFlex
        // server runs on, and what the planner plans with.
        let cost_model = self
            .cost_model
            .unwrap_or_else(|| CostModel::for_profile(&self.device));
        let capacity = self
            .capacity
            .unwrap_or_else(|| CapacityProfile::for_profile(&self.device));
        let mut rng = SimRng::seed(self.seed);
        let mut fabric = Fabric::new(self.link, rng.fork());
        // Clients first, then the sites, each forking its device's stream
        // in turn: a one-site testbed draws what it always drew.
        let clients: Vec<ClientMachine> = self
            .client_stacks
            .into_iter()
            .map(|stack| ClientMachine {
                machine: fabric.add_machine(stack.clone()),
                stack,
                reactive: false,
            })
            .collect();
        let mut sites = Vec::with_capacity(self.sites);
        let mut descriptors = Vec::with_capacity(self.sites);
        let mut n_threads = 0;
        for s in 0..self.sites {
            let machine = fabric.add_machine(self.server_stack.clone());
            let mut device = FlashDevice::new(self.device.clone(), rng.fork());
            device.precondition();
            let server = ReflexServer::new(
                machine,
                &mut fabric,
                &mut device,
                cost_model.clone(),
                capacity.clone(),
                self.server.clone(),
                SimTime::ZERO,
            );
            let wake_base = n_threads;
            n_threads += server.threads().len();
            sites.push(Site {
                server,
                device,
                wake_base,
                died_at: None,
            });
            descriptors.push(ServerDescriptor::new(
                ServerId(s as u32),
                capacity.clone(),
                cost_model.clone(),
            ));
        }
        let gen_seed = rng.next_u64();
        let world = World {
            fabric,
            sites,
            planner: ClusterPlanner::new(descriptors),
            replication: self.replication,
            gen_seed,
            clients,
            workloads: Vec::new(),
            client_threads_busy: Vec::new(),
            outstanding: SlabPool::new(),
            ops: SlabPool::new(),
            poll_scratch: Vec::new(),
            head_scratch: Vec::new(),
            retries_pending: Vec::new(),
            retry_scratch: Vec::new(),
            client_wake_base: n_threads,
            wakes: WakeStats::default(),
            measure_start: None,
            busy_snapshot: Vec::new(),
            sched_snapshot: Vec::new(),
            spent_snapshot: HashMap::new(),
            gen_cursor: Vec::new(),
            zipf: Vec::new(),
            recoveries: Vec::new(),
            failover: FailoverCounts::default(),
            telemetry: Telemetry::disabled(),
        };
        let mut engine = Engine::with_events(world);
        // The control plane's tick: deficit and SLO monitoring, thread
        // scaling (paper §4.3).
        const CONTROL_INTERVAL: SimDuration = SimDuration::from_millis(10);
        engine.schedule_event_at(
            SimTime::ZERO + CONTROL_INTERVAL,
            WorldEvent::Control(CONTROL_INTERVAL),
        );
        Testbed {
            engine,
            measure_begin: SimTime::ZERO,
            counted_before: [0; OWNED_COUNTERS],
        }
    }
}

/// Counters the components keep themselves (see
/// [`Testbed::owned_counters`]).
const OWNED_COUNTERS: usize = 21;

/// The assembled simulation. See the module documentation.
pub struct Testbed {
    engine: Engine<World, WorldEvent>,
    measure_begin: SimTime,
    /// [`owned_counters`](Self::owned_counters) when telemetry was enabled.
    counted_before: [u64; OWNED_COUNTERS],
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("now", &self.engine.now())
            .finish()
    }
}

impl Testbed {
    /// Starts building a testbed.
    pub fn builder() -> TestbedBuilder {
        TestbedBuilder::new()
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Shared access to the world.
    pub fn world(&self) -> &World {
        self.engine.world()
    }

    /// Exclusive access to the world.
    pub fn world_mut(&mut self) -> &mut World {
        self.engine.world_mut()
    }

    /// Schedules an arbitrary event against the world at instant `at` —
    /// the hook fault injectors use to fire timed events (link flaps,
    /// thread stalls) inside the simulation.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut World, &mut Ctx<World, WorldEvent>) + 'static,
    {
        self.engine
            .schedule_event_at(at, WorldEvent::Call(Box::new(f)));
    }

    /// Schedules the death of site `site`'s server at `at` and its
    /// replicated sets' failover one detection delay (30 ms) later. The
    /// death event is bookkeeping: the caller arms what does the damage
    /// (a device that aborts, links that go dark — see
    /// `reflex_faults::install`). Returns the detection delay.
    ///
    /// # Panics
    ///
    /// Panics if the testbed has no such site.
    pub fn schedule_server_death(&mut self, at: SimTime, site: usize) -> SimDuration {
        let n_sites = self.engine.world().sites.len();
        assert!(
            site < n_sites,
            "ServerDeath names site {site} but the testbed has {n_sites}"
        );
        self.engine
            .schedule_event_at(at, WorldEvent::ServerDeath(site));
        self.engine
            .schedule_event_at(at + fanout::DETECT_DELAY, WorldEvent::Failover(site));
        fanout::DETECT_DELAY
    }

    /// Registers a workload: admits its tenant on the first site — or, a
    /// replicated one, places its replica set and admits the tenant on
    /// every member site — opens and binds its connections, and starts
    /// its generator.
    ///
    /// # Errors
    ///
    /// See [`TestbedError`]. An admission failure partway through a
    /// replica set books nothing in the planner but leaves the tenant
    /// registered on the earlier members' servers (the builder-phase API
    /// does not roll back).
    pub fn add_workload(&mut self, spec: WorkloadSpec) -> Result<(), TestbedError> {
        self.add(spec, None)
    }

    /// Registers `spec` as [`add_workload`](Self::add_workload) does, its
    /// [`AppDriver`] in place of its generator.
    ///
    /// # Errors
    ///
    /// As `add_workload`; `InvalidSpec` unless `spec` is closed at depth 1.
    pub fn add_driven(
        &mut self,
        spec: WorkloadSpec,
        app: Box<dyn AppDriver>,
    ) -> Result<(), TestbedError> {
        if spec.pattern != (LoadPattern::ClosedLoop { queue_depth: 1 }) {
            let depth_1 = "a driven workload is closed-loop at depth 1";
            return Err(TestbedError::InvalidSpec(depth_1.into()));
        }
        self.add(spec, Some(app))
    }

    /// When the app driving workload `name` was done: its last completion,
    /// or the end of its compute after that; `None` until then.
    pub fn app_finished(&self, name: &str) -> Option<SimTime> {
        let workloads = &self.engine.world().workloads;
        workloads.iter().find(|w| w.spec.name == name)?.finished
    }

    fn add(
        &mut self,
        spec: WorkloadSpec,
        app: Option<Box<dyn AppDriver>>,
    ) -> Result<(), TestbedError> {
        let mut spec = spec;
        spec.validate().map_err(TestbedError::InvalidSpec)?;
        let world = self.engine.world_mut();
        if spec.client_machine >= world.clients.len() {
            return Err(TestbedError::NoSuchClient(spec.client_machine));
        }
        // Clamp the namespace to the device capacity so default specs work
        // on any profile (every site runs the same one).
        let capacity = world.sites[0].device.profile().capacity_bytes;
        if spec.namespace.0 >= capacity {
            return Err(TestbedError::InvalidSpec(
                "namespace beyond device capacity".into(),
            ));
        }
        spec.namespace.1 = spec.namespace.1.min(capacity - spec.namespace.0);
        let replica_slo = spec.replicated.and(spec.class.slo().copied());
        let member_sites = match replica_slo {
            Some(slo) => world
                .choose_members(spec.tenant, slo)
                .map_err(TestbedError::Placement)?,
            None => vec![0],
        };
        let client_machine = world.clients[spec.client_machine].machine;
        let w_idx = world.workloads.len();
        // Each workload draws from its own RNG stream, keyed by its stable
        // registration index — draws never depend on other workloads or on
        // event interleaving.
        let mut state =
            WorkloadState::new(spec.clone(), SimRng::stream(world.gen_seed, w_idx as u64));
        for site in member_sites {
            let server = &mut world.sites[site].server;
            let conns = join(server, &mut world.fabric, client_machine, &spec)?;
            state.members.push(MemberLink {
                site,
                conns,
                resyncing: false,
            });
        }
        // Every member site admitted the tenant: book the set.
        if let Some(slo) = replica_slo {
            for m in &state.members {
                world
                    .planner
                    .reserve(ServerId(m.site as u32), spec.tenant, slo);
            }
        }
        // Latency-critical tenants get an SLO monitor entry keyed on their
        // p95 read-latency target (no-op while telemetry is disabled).
        if let Some(slo) = spec.class.slo() {
            world
                .telemetry
                .slo_register(TenantKey(spec.tenant.0), slo.p95_read_latency);
        }
        for i in 0..spec.conns {
            state.conn_thread.push(i % spec.client_threads);
        }
        let driven = app.is_some();
        state.app = app;
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
        world.zipf.push(zipf);
        world.workloads.push(state);
        world
            .client_threads_busy
            .push(vec![SimTime::ZERO; spec.client_threads as usize]);
        world.gen_cursor.push(0);
        let reactive =
            matches!(spec.pattern, LoadPattern::ClosedLoop { .. }) || spec.retry.is_active();
        if reactive && !world.clients[spec.client_machine].reactive {
            // Responses on their way to the machine now need its wake.
            self.engine.with_ctx(|world, ctx| {
                world.absorb(ctx);
                world.clients[spec.client_machine].reactive = true;
                world.ensure_client_wake(ctx, spec.client_machine);
            });
        }

        // Kick off the generator.
        let eng = &mut self.engine;
        match spec.pattern {
            LoadPattern::OpenLoop { .. } => {
                // The kickoff offset is the first draw of the workload's
                // own stream.
                let w = &mut eng.world_mut().workloads[w_idx];
                let offset = w.rng.exponential(w.poisson_gap);
                let at = eng.now() + offset;
                eng.schedule_event_at(at, WorldEvent::OpenLoopGen(w_idx));
            }
            LoadPattern::ClosedLoop { .. } if driven => eng.with_ctx(|world, ctx| {
                for conn in 0..spec.conns as usize {
                    world.drive(w_idx, conn, ctx.now(), ctx);
                }
            }),
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
        let world = self.engine.world_mut();
        world.settle(now + SimDuration::from_nanos(1));
        world.measure_start = Some(now);
        for w in &mut world.workloads {
            w.reset_measurement();
        }
        let per_thread = |time: fn(&DataplaneThread) -> SimDuration| {
            let sites = world.sites.iter();
            sites
                .flat_map(|site| site.server.threads().iter().map(time))
                .collect()
        };
        world.busy_snapshot = per_thread(DataplaneThread::busy_time);
        world.sched_snapshot = per_thread(DataplaneThread::sched_cpu_time);
        world.spent_snapshot = world.spent_millitokens();
    }

    /// Advances the simulation by `span`, then settles the servers and
    /// absorbs client deliveries through the new instant, so that every
    /// reader between runs ([`report`], the world's `server()`) sees each
    /// round and each response that has happened. Both are plain calls,
    /// not events: how a window is cut into runs shows in no count.
    ///
    /// [`report`]: Self::report
    pub fn run(&mut self, span: SimDuration) {
        let sites = self.engine.world_mut().sites.iter_mut();
        if sites.fold(false, |any, site| site.server.take_woken() | any) {
            // A control-plane call made between runs cut a sleep short:
            // an empty call re-arms the threads.
            self.schedule_at(self.engine.now(), |_, _| {});
        }
        self.engine.run_for(span);
        let through = self.engine.now() + SimDuration::from_nanos(1);
        self.engine.with_ctx(|world, ctx| {
            world.settle(through);
            world.absorb(ctx);
        });
    }

    /// Produces the measurement report for the window since
    /// [`begin_measurement`](Self::begin_measurement).
    pub fn report(&self) -> TestbedReport {
        let world = self.engine.world();
        let window = self.engine.now().saturating_since(self.measure_begin);
        let workloads: Vec<WorkloadReport> =
            world.workloads.iter().map(|w| w.report(window)).collect();
        let secs = window.as_secs_f64().max(1e-12);
        let since = |snapshot: &[SimDuration], slot: usize, now: SimDuration| {
            let before = snapshot.get(slot).copied().unwrap_or(SimDuration::ZERO);
            now.saturating_sub(before).as_secs_f64() / secs
        };
        let threads = world.sites.iter().flat_map(|site| {
            let active = &site.server.threads()[..site.server.active_threads()];
            active.iter().enumerate().map(move |(i, t)| {
                let slot = site.wake_base + i;
                ThreadReport {
                    busy_fraction: since(&world.busy_snapshot, slot, t.busy_time()),
                    sched_fraction: since(&world.sched_snapshot, slot, t.sched_cpu_time()),
                    stats: Some(t.stats()),
                }
            })
        });
        let spent_delta: i64 = world
            .spent_millitokens()
            .into_iter()
            .map(|(id, now_mt)| now_mt - world.spent_snapshot.get(&id).copied().unwrap_or(0))
            .sum();
        let token_usage_per_sec = spent_delta as f64 / 1_000.0 / secs;
        let servers = || world.sites.iter().map(|site| &site.server);
        let (rounds_elided, settle_calls) = servers()
            .map(ReflexServer::sleep_stats)
            .fold((0, 0), |(r, c), (dr, dc)| (r + dr, c + dc));
        TestbedReport {
            window,
            workloads,
            threads: threads.collect(),
            token_usage_per_sec,
            device: world.sites[0].device.stats(),
            renegotiations: servers()
                .flat_map(|s| s.renegotiations())
                .copied()
                .collect(),
            recoveries: world.recoveries.clone(),
            engine_events: self.engine.dispatched(),
            wakes: WakeStats {
                rounds_elided,
                settle_calls,
                ..world.wakes
            },
            telemetry: self.telemetry_snapshot(),
        }
    }

    /// Turns on telemetry: installs one shared [`Telemetry`] recorder on
    /// the devices, fabric, server threads and the client-side span/SLO
    /// probes, and registers the SLO targets of the workloads added so
    /// far. Counters the components keep themselves count from here on.
    /// Recording is strictly passive — it draws no randomness and
    /// schedules nothing, so an instrumented run produces byte-identical
    /// results to an uninstrumented one.
    pub fn enable_telemetry(&mut self) {
        self.counted_before = self.owned_counters().map(|(_, n)| n);
        let telemetry = Telemetry::enabled();
        let world = self.engine.world_mut();
        world.fabric.set_telemetry(telemetry.clone());
        for site in &mut world.sites {
            site.device.set_telemetry(telemetry.clone());
            site.server.set_telemetry(telemetry.clone());
        }
        for w in &world.workloads {
            if let Some(slo) = w.spec.class.slo() {
                telemetry.slo_register(TenantKey(w.spec.tenant.0), slo.p95_read_latency);
            }
        }
        world.telemetry = telemetry;
    }

    /// The current telemetry snapshot, when telemetry is enabled: what the
    /// recorder holds, and each counter a component keeps as far as it
    /// moved since [`enable_telemetry`](Self::enable_telemetry).
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        let mut snap = self.engine.world().telemetry.snapshot()?;
        let owned = self.owned_counters().into_iter().zip(self.counted_before);
        for ((name, now), before) in owned {
            if now > before {
                snap.counters.insert(name.to_owned(), now - before);
            }
        }
        // A failover reports its migration and stranded totals, zeros too.
        if snap.counters.contains_key("replication.failovers") {
            for name in ["cluster.migrations_total", "cluster.stranded_total"] {
                snap.counters.entry(name.to_owned()).or_insert(0);
            }
        }
        Some(snap)
    }

    /// The counters the engine, the client world, the devices, the fabric,
    /// the QoS schedulers and failover keep, by their telemetry names.
    fn owned_counters(&self) -> [(&'static str, u64); OWNED_COUNTERS] {
        let world = self.engine.world();
        let devices = |f: fn(&FlashDevice) -> u64| world.sites.iter().map(|s| f(&s.device)).sum();
        let sched = world.sites.iter().fold([0; 4], |sum, site| {
            let counts = site.server.sched_counts();
            std::array::from_fn(|i| sum[i] + counts[i])
        });
        let (dropped, duplicated) = world.fabric.fault_counts();
        let failover = world.failover;
        [
            ("engine.events", self.engine.dispatched()),
            ("client.absorbed", world.wakes.client_absorbed),
            (
                "device.commands",
                devices(|d| d.stats().reads + d.stats().writes),
            ),
            ("device.sq_full", devices(FlashDevice::sq_full)),
            ("device.out_of_range", devices(|d| d.stats().out_of_range)),
            ("device.unavailable", devices(|d| d.stats().unavailable)),
            ("device.media_errors", devices(|d| d.stats().media_errors)),
            ("net.messages", world.fabric.sent()),
            ("net.dropped", dropped),
            ("net.duplicated", duplicated),
            ("qos.rounds", sched[0]),
            ("qos.lc_admitted", sched[1]),
            ("qos.be_admitted", sched[2]),
            ("qos.deficit_events", sched[3]),
            ("replication.server_deaths", failover.server_deaths),
            ("replication.failovers", failover.failovers),
            ("replication.promotions", failover.promotions),
            ("cluster.migrations_total", failover.migrations),
            ("cluster.stranded_total", failover.stranded),
            ("replication.replacements_refused", failover.refused),
            ("replication.resyncs_done", failover.resyncs_done),
        ]
    }
}
