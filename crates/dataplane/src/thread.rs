//! The ReFlex dataplane thread (paper §3.1, Figure 2).
//!
//! Each thread owns a dedicated core (modelled by a `core_busy` CPU clock),
//! one NIC queue pair (its machine's receive queue on the [`Fabric`]) and
//! one NVMe queue pair. A [`pump`](DataplaneThread::pump) call runs the
//! polling loop at the current instant:
//!
//! 1. poll NIC RX, parse the wire protocol, run access control, and
//!    enqueue each request into its tenant's QoS queue (run-to-completion
//!    step 1);
//! 2. run the QoS scheduler and submit admissible requests to the NVMe
//!    submission queue;
//! 3. poll the NVMe completion queue and transmit the responses
//!    (run-to-completion step 2).
//!
//! A request is one [`CostedRequest`] of a [`ReqCtx`], built from its wire
//! header on arrival; its answer is encoded from that record. The paper's
//! syscalls and event conditions cost CPU (inside the per-message costs)
//! but carry nothing the wire header does not.
//!
//! Adaptive batching emerges naturally: while the core is busy, arrivals
//! and completions accumulate and are picked up in batches of up to 64.

use std::collections::{HashMap, VecDeque};

use reflex_cache::DramCache;
use reflex_flash::{
    CmdId, FlashDevice, IoType, NvmeCommand, NvmeCompletion, NvmeStatus, QpId, SubmitError,
};
use reflex_net::{
    ConnId, ConnTable, Delivery, Fabric, MachineId, NicQueueId, Opcode, ReflexHeader, HEADER_SIZE,
};
use reflex_qos::{
    CostModel, CostedRequest, LoadMix, QosError, QosScheduler, ScheduleOutcome, SchedulerParams,
    TenantClass, TenantId, TenantSlot, TokenRate, Tokens,
};
use reflex_sim::{Histogram, PoolKey, SimDuration, SimTime, SlabPool};
use reflex_telemetry::{Answer, Stage, Telemetry, TenantKey};
use std::sync::Arc;

use crate::config::DataplaneConfig;

/// The payload carried on the simulated wire: an encoded ReFlex header as
/// a fixed stack array. (Data blocks are represented by message sizes, not
/// bytes.) Being `Copy`, messages move through the fabric without any
/// heap traffic.
pub type WireMsg = [u8; HEADER_SIZE];

/// Access-control entry for a tenant: a namespace (byte range of logical
/// blocks), read/write permissions, and optionally the client machines
/// allowed to open connections to the tenant (paper §4.1: "it checks if a
/// client has the right to open a connection to a specific tenant and if
/// a tenant has read or write permission for an NVMe namespace").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclEntry {
    /// First byte of the tenant's namespace.
    pub ns_start: u64,
    /// Length of the namespace in bytes.
    pub ns_len: u64,
    /// Tenant may read.
    pub allow_read: bool,
    /// Tenant may write.
    pub allow_write: bool,
    /// Client machines that may connect (`None` = any client).
    pub allowed_clients: Option<Vec<MachineId>>,
}

impl AclEntry {
    /// Full-device read/write access from any client.
    pub fn full(capacity: u64) -> Self {
        AclEntry {
            ns_start: 0,
            ns_len: capacity,
            allow_read: true,
            allow_write: true,
            allowed_clients: None,
        }
    }

    /// Restricts connection-open rights to the given client machines.
    pub fn restricted_to(mut self, clients: Vec<MachineId>) -> Self {
        self.allowed_clients = Some(clients);
        self
    }

    /// `true` when `client` may open connections to this tenant.
    fn permits_client(&self, client: MachineId) -> bool {
        match &self.allowed_clients {
            None => true,
            Some(list) => list.contains(&client),
        }
    }

    /// `true` when the entry allows the I/O: the permission for `op`, and
    /// every byte inside the namespace.
    fn permits(&self, op: IoType, addr: u64, len: u32) -> bool {
        let allowed = match op {
            IoType::Read => self.allow_read,
            IoType::Write => self.allow_write,
        };
        let end = addr.saturating_add(len as u64);
        allowed && addr >= self.ns_start && end <= self.ns_start + self.ns_len
    }
}

/// A request, from its arrival to its answer: what its wire header said
/// beyond the opcode and length its [`CostedRequest`] carries, where it
/// came from, and when it reached each stage. Opaque outside the
/// dataplane; exposed only as the scheduler's payload type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqCtx {
    tenant: TenantId,
    /// The tenant's slot in the accepting thread's tenant table. A hint:
    /// completions check that it still holds `tenant` (the tenant may
    /// have been unregistered while the request was at the device).
    slot: u32,
    conn: ConnId,
    client: MachineId,
    cookie: u64,
    addr: u64,
    arrived: SimTime,
    rx_started: SimTime,
    /// Nanoseconds from `rx_started` to the scheduler's queue: the
    /// thread's receive cost, exact below 4.29 s (it saturates there).
    enqueued_after: u32,
    /// Cache clock captured when a read was accepted with the DRAM cache
    /// enabled; the fill on completion is rejected if its target set was
    /// invalidated after this instant (write-vs-fill race guard). Zero
    /// when the cache is off or for writes.
    cache_clock: u64,
    /// Tenant cache epoch captured at the same instant; the fill is
    /// rejected if the epoch has moved on by completion time — i.e. the
    /// tenant was unregistered (or moved away and back) while the read
    /// sat at the device — so it can never be admitted under a
    /// successor's epoch (teardown-vs-fill race guard). Zero when the
    /// cache is off or for writes.
    cache_gen: u32,
}

impl ReqCtx {
    /// The instant the request entered the scheduler's queue.
    fn enqueued(&self) -> SimTime {
        self.rx_started + SimDuration::from_nanos(self.enqueued_after.into())
    }
}

/// A request as a thread holds it, from its scheduler queue to its
/// answer.
type Request = CostedRequest<ReqCtx>;

/// What a thread keeps per registered tenant: one slot of its tenant
/// table, so everything the request path needs about a tenant is one index
/// away from the connection that carries the slot.
#[derive(Debug)]
struct TenantEntry {
    id: TenantId,
    /// The tenant's position in the scheduler, looked up again after
    /// every unregister (which may shift it).
    sched: TenantSlot,
    acl: AclEntry,
    /// Server-side read-latency histogram, kept for LC tenants so the
    /// control plane can monitor SLO compliance (paper §4.3).
    read_latency: Option<Histogram>,
}

/// The thread's tenants in stable slots (a slot is reused only after its
/// tenant is unregistered), plus the id index the control-plane entry
/// points go through.
#[derive(Debug, Default)]
struct TenantTable {
    slots: Vec<Option<TenantEntry>>,
    by_id: HashMap<TenantId, u32>,
}

impl TenantTable {
    fn insert(&mut self, entry: TenantEntry) -> u32 {
        let slot = match self.slots.iter().position(Option::is_none) {
            Some(free) => free,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.by_id.insert(entry.id, slot as u32);
        self.slots[slot] = Some(entry);
        slot as u32
    }

    fn remove(&mut self, id: TenantId) -> Option<TenantEntry> {
        let slot = self.by_id.remove(&id)?;
        self.slots[slot as usize].take()
    }

    fn slot_of(&self, id: TenantId) -> Option<u32> {
        self.by_id.get(&id).copied()
    }

    fn get(&self, id: TenantId) -> Option<&TenantEntry> {
        self.slots[self.slot_of(id)? as usize].as_ref()
    }

    /// The tenant in `slot`, for a caller that knows the slot is live: it
    /// came from the id index just now, or from a bound connection, and
    /// bindings die with their tenant.
    #[inline]
    fn at(&mut self, slot: u32) -> &mut TenantEntry {
        self.slots[slot as usize]
            .as_mut()
            .expect("bound conn implies registered tenant")
    }

    /// The entry of tenant `id`, tried at `slot` first: where the request
    /// asking was accepted. The id index answers only when the tenant left
    /// that slot while the request was at the device (it may have been
    /// registered again since, here or nowhere).
    #[inline]
    fn of_request(&mut self, slot: u32, id: TenantId) -> Option<&mut TenantEntry> {
        let slot = match self.slots.get(slot as usize) {
            Some(Some(e)) if e.id == id => slot,
            _ => self.slot_of(id)?,
        };
        self.slots[slot as usize].as_mut()
    }

    fn live(&mut self) -> impl Iterator<Item = &mut TenantEntry> {
        self.slots.iter_mut().flatten()
    }
}

/// What a thread knows about a connection: the tenant it is bound to
/// (with the tenant's slot), or the sibling queue its traffic moved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnEntry {
    Bound {
        tenant: TenantId,
        slot: u32,
        client: MachineId,
    },
    Forwarded(NicQueueId),
}

/// Everything the thread tracks for one in-flight NVMe command. Lives in
/// a [`SlabPool`]; the pool key — packed into the command's [`CmdId`] —
/// both correlates the completion and recycles the slot, replacing the
/// per-IO hash-map churn of `inflight` + `submit_times` maps.
#[derive(Debug, Clone, Copy)]
struct InflightIo {
    req: Request,
    submitted_at: SimTime,
}

/// Aggregate statistics of one dataplane thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Messages received, undecodable ones included.
    pub rx_msgs: u64,
    /// Responses transmitted (including error responses).
    pub tx_msgs: u64,
    /// NVMe commands submitted.
    pub submitted: u64,
    /// NVMe completions processed.
    pub completed: u64,
    /// Requests rejected by access control.
    pub acl_rejections: u64,
    /// Messages that failed protocol parsing.
    pub decode_errors: u64,
    /// Requests for connections not bound to any tenant.
    pub unbound_conns: u64,
    /// Messages re-steered to a sibling thread after rebalancing.
    pub forwarded: u64,
    /// QoS scheduling rounds executed.
    pub sched_rounds: u64,
    /// NVMe submissions refused with a full SQ (retried later).
    pub sq_full_retries: u64,
    /// Fault-injected core stalls applied via
    /// [`DataplaneThread::inject_stall`].
    pub stalls: u64,
    /// Reads served entirely from the DRAM cache (no flash round trip).
    pub cache_hits: u64,
    /// Reads that probed the DRAM cache and went to flash.
    pub cache_misses: u64,
    /// Lines admitted into the DRAM cache by completed flash reads.
    pub cache_fills: u64,
    /// Valid lines displaced by fills.
    pub cache_evictions: u64,
    /// Valid lines dropped by write-around invalidation or tenant
    /// teardown.
    pub cache_invalidations: u64,
}

/// Adaptive batching cap: arrivals or completions taken per poll (paper:
/// 64).
pub(crate) const BATCH_MAX: usize = 64;
/// Fixed CPU per QoS scheduling round.
pub(crate) const SCHED_BASE_COST: SimDuration = SimDuration::from_nanos(150);
/// CPU per registered tenant per scheduling round (token generation,
/// queue inspection).
const SCHED_PER_TENANT_COST: SimDuration = SimDuration::from_nanos(12);
/// Minimum spacing between scheduling rounds: under low load the thread
/// schedules immediately per arrival batch; this floor stops a
/// many-tenant scheduler from being re-run for every single message (the
/// paper's rounds run every 0.5-100us).
const MIN_SCHED_INTERVAL: SimDuration = SimDuration::from_micros(3);
/// The bound on round spacing until the control plane sets one (at most
/// 5 % of the strictest SLO, paper §3.2.2).
const MAX_SCHED_INTERVAL: SimDuration = SimDuration::from_micros(10);
/// CPU of serving one cache hit from DRAM (lookup + copy-out).
const HIT_CPU_COST: SimDuration = SimDuration::from_nanos(250);
/// QoS token cost of one cached page: a tenth of a read-only flash read
/// on device A, so rate limits keep reflecting real device load.
const DRAM_COST_MILLITOKENS: i64 = 50;

/// LLC pressure from TCP connection state: the multiplier on per-message
/// CPU costs at `conns` bound connections (paper §5.5: performance
/// degrades beyond ~5K connections per core as connection state spills
/// out of the last-level cache).
fn conn_pressure(conns: u32) -> f64 {
    /// A mild warming term reaches this extra cost fraction at
    /// `WARM_CONNS` connections and stays there.
    const WARM_PENALTY: f64 = 0.10;
    const WARM_CONNS: u32 = 1_000;
    /// Beyond `SPILL_CONNS`, each further `SPILL_CONNS` connections add
    /// `SPILL_PENALTY`.
    const SPILL_CONNS: u32 = 5_000;
    const SPILL_PENALTY: f64 = 0.55;
    let warm = WARM_PENALTY * (conns as f64 / WARM_CONNS as f64).min(1.0);
    let spill = if conns > SPILL_CONNS {
        SPILL_PENALTY * (conns - SPILL_CONNS) as f64 / SPILL_CONNS as f64
    } else {
        0.0
    };
    1.0 + warm + spill
}

/// One simulated ReFlex server thread. See the module documentation.
#[derive(Debug)]
pub struct DataplaneThread {
    machine: MachineId,
    nic_queue: NicQueueId,
    qp: QpId,
    config: DataplaneConfig,
    sched: QosScheduler<ReqCtx>,
    /// Per-thread DRAM read cache (present iff `config.cache` is set).
    /// Private to this thread: no cross-thread coherence.
    cache: Option<DramCache>,
    tenants: TenantTable,
    /// The flow table, indexed by connection id.
    conns: ConnTable<ConnEntry>,
    /// Connections bound to a tenant here (drives the LLC-pressure model).
    bound_conns: u32,
    /// Per-message CPU costs under the current connection pressure,
    /// recomputed whenever `bound_conns` changes.
    rx_cost: SimDuration,
    tx_cost: SimDuration,
    hit_cost: SimDuration,
    /// In-flight IOs, slot-recycled; the pool key rides in each command's
    /// `CmdId` and is generation-checked on completion.
    inflight: SlabPool<InflightIo>,
    retry_submit: VecDeque<Request>,
    core_busy: SimTime,
    busy_time: SimDuration,
    sched_time: SimDuration,
    last_sched: SimTime,
    max_sched_interval: SimDuration,
    /// What a scheduling round costs the core and the spacing the thread
    /// aims for between rounds, for the current tenant count and interval
    /// bound (see [`refresh_costs`](Self::refresh_costs)).
    round_cost: SimDuration,
    interval: SimDuration,
    /// While rounds are pending: the first instant on the round grid
    /// (`core_busy + interval`, then every `round_cost + interval`) whose
    /// round may act. The ones before it are idle and are settled, not
    /// pumped. `None` while no round is pending.
    idle_until: Option<SimTime>,
    /// The next idle round's instant (`core_busy + interval` while that
    /// is before `idle_until`), `SimTime::MAX` when there is none: what a
    /// pump event compares against the clock for every thread.
    idle_next: SimTime,
    /// A control-plane or fault entry cut a sleep short since the last
    /// [`take_woken`](Self::take_woken).
    woken: bool,
    /// Rounds settled as idle so far, and the settle passes that found any.
    rounds_elided: u64,
    settle_calls: u64,
    /// The last pump submitted a write.
    wrote: bool,
    /// Observability sink shared with the rest of the testbed; disabled
    /// by default, in which case every recording call is one branch.
    telemetry: Telemetry,
    /// Scratch buffers reused across pump iterations so steady-state
    /// batches drain with zero allocations.
    rx_scratch: Vec<Delivery<WireMsg>>,
    cq_scratch: Vec<NvmeCompletion>,
    sched_scratch: ScheduleOutcome<ReqCtx>,
    stats: ThreadStats,
}

impl DataplaneThread {
    /// Creates a thread bound to `machine`'s NIC queues and NVMe queue
    /// pair `qp`, sharing the QoS `bucket` with sibling threads.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        thread_idx: u32,
        machine: MachineId,
        nic_queue: NicQueueId,
        qp: QpId,
        bucket: Arc<reflex_qos::GlobalBucket>,
        model: CostModel,
        sched_params: SchedulerParams,
        config: DataplaneConfig,
        now: SimTime,
    ) -> Self {
        config.validate().expect("invalid dataplane config");
        let mut thread = DataplaneThread {
            machine,
            nic_queue,
            qp,
            config,
            sched: QosScheduler::new(thread_idx, bucket, model, sched_params, now),
            cache: config.cache.map(DramCache::new),
            tenants: TenantTable::default(),
            conns: ConnTable::new(),
            bound_conns: 0,
            rx_cost: SimDuration::ZERO,
            tx_cost: SimDuration::ZERO,
            hit_cost: SimDuration::ZERO,
            inflight: SlabPool::new(),
            retry_submit: VecDeque::new(),
            core_busy: now,
            busy_time: SimDuration::ZERO,
            sched_time: SimDuration::ZERO,
            last_sched: now,
            max_sched_interval: MAX_SCHED_INTERVAL,
            round_cost: SimDuration::ZERO,
            interval: SimDuration::ZERO,
            idle_until: None,
            idle_next: SimTime::MAX,
            woken: false,
            rounds_elided: 0,
            settle_calls: 0,
            wrote: false,
            telemetry: Telemetry::disabled(),
            rx_scratch: Vec::new(),
            cq_scratch: Vec::new(),
            sched_scratch: ScheduleOutcome::default(),
            stats: ThreadStats::default(),
        };
        thread.refresh_costs();
        thread
    }

    /// Recomputes the per-message costs for the current connection count,
    /// and the round's cost and spacing for the current tenant count: a
    /// round is spaced wide enough that per-tenant iteration stays below
    /// ~half the core, but never beyond the control plane's SLO-derived
    /// bound.
    fn refresh_costs(&mut self) {
        let (lc, be) = self.sched.tenant_counts();
        self.round_cost = SCHED_BASE_COST + SCHED_PER_TENANT_COST * (lc + be) as u64;
        self.interval = (self.round_cost * 2)
            .max(MIN_SCHED_INTERVAL)
            .min(self.max_sched_interval);
        let factor = conn_pressure(self.bound_conns);
        self.rx_cost = self.config.rx_msg_cost.mul_f64(factor);
        self.tx_cost = self.config.tx_msg_cost.mul_f64(factor);
        self.hit_cost = self
            .config
            .cache
            .map_or(SimDuration::ZERO, |_| HIT_CPU_COST.mul_f64(factor));
    }

    /// Installs a telemetry handle. Per-stage latency spans (paper
    /// Figure 2) are then recorded per tenant on every completed request;
    /// recording is purely passive and perturbs neither timing nor
    /// scheduling.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Sets the upper bound on the scheduling interval (the control plane
    /// keeps it at 5% of the strictest registered SLO, paper §3.2.2).
    pub fn set_max_sched_interval(&mut self, interval: SimDuration) {
        self.interrupt();
        self.max_sched_interval = interval.max(MIN_SCHED_INTERVAL);
        self.refresh_costs();
    }

    /// The machine whose NIC queues this thread polls.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// The NIC receive queue dedicated to this thread.
    pub fn nic_queue(&self) -> NicQueueId {
        self.nic_queue
    }

    /// Statistics as of the last settle: rounds slept through since (see
    /// [`settle`](Self::settle)) are not in them yet.
    pub fn stats(&self) -> ThreadStats {
        self.stats
    }

    /// The DRAM cache's own counters, when the tier is enabled.
    pub fn cache_stats(&self) -> Option<reflex_cache::CacheStats> {
        self.cache.as_ref().map(|c| *c.stats())
    }

    /// Total CPU time consumed, as of the last settle.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// CPU time spent in QoS scheduling (paper: 2–8% at load), as of the
    /// last settle.
    pub fn sched_cpu_time(&self) -> SimDuration {
        self.sched_time
    }

    /// Rounds settled as idle instead of pumped, and the settle passes
    /// that found any.
    pub fn sleep_stats(&self) -> (u64, u64) {
        (self.rounds_elided, self.settle_calls)
    }

    /// Whether the last pump submitted a write to the device: that takes
    /// the device out of read-only mode under a sleeping sibling.
    pub fn wrote(&self) -> bool {
        self.wrote
    }

    /// The instant of the next round this thread sleeps through, if that
    /// is before `before`: rounds keep to the grid while nothing pumps the
    /// thread, and the last wake hint proved the ones before
    /// `idle_until` idle.
    #[inline]
    pub fn idle_round_due(&self, before: SimTime) -> Option<SimTime> {
        (self.idle_next < before).then_some(self.idle_next)
    }

    /// Sleeps until `until` (`None`: no round is pending).
    fn sleep_until(&mut self, until: Option<SimTime>) {
        self.idle_until = until;
        let next = self.core_busy + self.interval;
        self.idle_next = match until {
            Some(until) if next < until => next,
            _ => SimTime::MAX,
        };
    }

    /// Settles every round this thread slept through strictly before
    /// `before`: the core is charged what [`pump`](Self::pump) charges
    /// for that many rounds, the scheduler runs them as
    /// [`idle_rounds`](QosScheduler::idle_rounds). Siblings on one bucket
    /// settle theirs merged by (instant, thread), since each round marks
    /// the bucket: their owner passes the instant up to which this thread
    /// comes first.
    pub fn settle(&mut self, before: SimTime) {
        let Some(first) = self.idle_round_due(before) else {
            return;
        };
        let until = self.idle_until.expect("a round is due");
        let before = before.min(until);
        let period = self.round_cost + self.interval;
        let (mut rounds, mut last) = (1, first);
        while last + period < before {
            last += period;
            rounds += 1;
        }
        self.sched
            .idle_rounds(first + self.round_cost, period, rounds);
        self.last_sched = last;
        self.core_busy = last + self.round_cost;
        self.busy_time += self.round_cost * rounds;
        self.sched_time += self.round_cost * rounds;
        self.stats.sched_rounds += rounds;
        self.rounds_elided += rounds;
        self.settle_calls += 1;
        self.sleep_until(Some(until));
    }

    /// The instant this thread must next be pumped on account of its
    /// round grid, for a caller pumping threads at `now` that has settled
    /// it up to there: `now` itself when a round falls on it (a round
    /// that coincides with a pump is pumped, idle or not), else the first
    /// round that may act. `None` while no round is pending.
    pub fn round_wake(&self, now: SimTime) -> Option<SimTime> {
        let until = self.idle_until?;
        Some(if self.core_busy + self.interval == now {
            now
        } else {
            until
        })
    }

    /// Ends a sleep at the next round: whatever made the rounds up to
    /// `idle_until` idle no longer holds (a sibling left tokens in the
    /// bucket or wrote to a device in read-only mode), or is about to
    /// change. Returns whether that cut anything.
    pub fn wake(&mut self) -> bool {
        let cut = self.idle_next != SimTime::MAX;
        if cut {
            self.sleep_until(Some(self.idle_next));
        }
        cut
    }

    /// [`wake`](Self::wake) ahead of a control-plane or fault entry, which
    /// unlike a pump has nobody re-arming the thread's wake after it: the
    /// owner asks [`take_woken`](Self::take_woken). Such callers settle
    /// the thread up to their instant first.
    fn interrupt(&mut self) {
        if self.wake() {
            self.woken = true;
        }
    }

    /// Whether a sleep was cut short by a control-plane or fault entry
    /// since the last call, so that the wake armed for this thread is
    /// later than [`round_wake`](Self::round_wake).
    pub fn take_woken(&mut self) -> bool {
        std::mem::take(&mut self.woken)
    }

    /// Fault injection: freezes this thread's core for `dur` starting at
    /// `now` (SMI, hypervisor preemption, a rogue interrupt storm). The
    /// thread resumes exactly where it left off — in-flight requests are
    /// delayed, never lost — so the visible effect is a latency spike on
    /// everything the thread owns.
    pub fn inject_stall(&mut self, now: SimTime, dur: SimDuration) {
        self.settle(now);
        self.interrupt();
        self.core_busy = self.core_busy.max(now) + dur;
        self.busy_time += dur;
        self.stats.stalls += 1;
    }

    /// Server-side read latency (message arrival to response transmit)
    /// for an LC tenant — what the control plane monitors against SLOs.
    pub fn tenant_read_latency(&self, id: TenantId) -> Option<&Histogram> {
        self.tenants.get(id)?.read_latency.as_ref()
    }

    /// Resets a tenant's server-side latency window (the control plane
    /// clears it after each monitoring interval).
    pub fn reset_tenant_read_latency(&mut self, id: TenantId) {
        let slot = self.tenants.slot_of(id);
        if let Some(h) = slot.and_then(|s| self.tenants.at(s).read_latency.as_mut()) {
            h.reset();
        }
    }

    /// Exclusive access to the thread's QoS scheduler (control plane
    /// operations: BE rates, cost-model recalibration, token inspection).
    pub fn scheduler_mut(&mut self) -> &mut QosScheduler<ReqCtx> {
        self.interrupt();
        &mut self.sched
    }

    /// Shared access to the thread's QoS scheduler.
    pub fn scheduler(&self) -> &QosScheduler<ReqCtx> {
        &self.sched
    }

    /// Registers a tenant on this thread (the control plane binds each
    /// tenant to exactly one thread, §4.1 "Limitations").
    ///
    /// # Errors
    ///
    /// Propagates [`QosError::DuplicateTenant`].
    pub fn register_tenant(
        &mut self,
        id: TenantId,
        class: TenantClass,
        acl: AclEntry,
        io_size: u32,
    ) -> Result<(), QosError> {
        self.interrupt();
        let read_latency = match class {
            TenantClass::LatencyCritical(slo) => {
                self.sched.register_lc(id, slo, io_size)?;
                Some(Histogram::new())
            }
            TenantClass::BestEffort => {
                self.sched.register_be(id)?;
                None
            }
        };
        self.tenants.insert(TenantEntry {
            id,
            sched: self.sched.slot_of(id).expect("just registered"),
            acl,
            read_latency,
        });
        self.refresh_costs();
        Ok(())
    }

    /// Unregisters a tenant, returning the requests its scheduler queue
    /// held, oldest first: a caller moving the tenant to another thread
    /// hands them over (see [`adopt_pending`](Self::adopt_pending)).
    /// Requests at the device or waiting to be resubmitted stay here, and
    /// are answered here.
    ///
    /// # Errors
    ///
    /// Propagates [`QosError::UnknownTenant`].
    pub fn unregister_tenant(&mut self, id: TenantId) -> Result<Vec<Request>, QosError> {
        self.interrupt();
        let queued = self.sched.unregister(id)?;
        self.tenants.remove(id);
        // Tenants registered after this one moved up in the scheduler.
        for t in self.tenants.live() {
            if let Some(slot) = self.sched.slot_of(t.id) {
                t.sched = slot;
            }
        }
        if let Some(cache) = &mut self.cache {
            // Epoch bump: a future tenant reusing this id can never see
            // generation-stale lines. Reads still in flight at the device
            // are not drained here; their completions carry the pre-bump
            // epoch in ReqCtx, so the cache rejects their fills.
            self.stats.cache_invalidations += cache.invalidate_tenant(id.0);
        }
        let bound_before = self.conns.len();
        self.conns
            .retain(|_, e| !matches!(e, ConnEntry::Bound { tenant, .. } if *tenant == id));
        self.bound_conns -= (bound_before - self.conns.len()) as u32;
        self.refresh_costs();
        Ok(queued)
    }

    /// Enqueues, in order, the requests a tenant's queue held on another
    /// thread it was moved from during tenant rebalancing. The tenant must
    /// already be registered here.
    ///
    /// # Errors
    ///
    /// Propagates [`QosError::UnknownTenant`].
    pub fn adopt_pending(&mut self, id: TenantId, queued: Vec<Request>) -> Result<(), QosError> {
        self.interrupt();
        // Cache clock and epoch values are meaningful only within one
        // thread's cache instance, and these requests captured the SOURCE
        // thread's. Re-stamp reads against this thread's cache as if
        // accepted now: a source clock that ran ahead of ours would
        // otherwise outrun every local invalidation tick and disarm the
        // write-vs-fill guard for the adopted requests.
        let (clock, generation) = self
            .cache
            .as_ref()
            .map(|c| (c.clock(), c.generation(id.0)))
            .unwrap_or((0, 0));
        let slot = self
            .tenants
            .slot_of(id)
            .ok_or(QosError::UnknownTenant(id))?;
        let sched = self.tenants.at(slot).sched;
        for mut req in queued {
            req.payload.slot = slot;
            if req.op.is_read() {
                req.payload.cache_clock = clock;
                req.payload.cache_gen = generation;
            }
            self.sched.enqueue_at(sched, id, req)?;
        }
        Ok(())
    }

    /// Binds a client connection to a tenant (the connection-open ACL
    /// check of §4.1).
    ///
    /// # Errors
    ///
    /// [`QosError::UnknownTenant`] when the tenant is not on this thread.
    pub fn bind_connection(
        &mut self,
        conn: ConnId,
        tenant: TenantId,
        client: MachineId,
    ) -> Result<(), QosError> {
        let Some(slot) = self.tenants.slot_of(tenant) else {
            return Err(QosError::UnknownTenant(tenant));
        };
        if !self.tenants.at(slot).acl.permits_client(client) {
            return Err(QosError::ConnectionDenied(tenant));
        }
        // Replaces whatever the table held for `conn`, a forward included:
        // traffic for a connection bound here is served here.
        self.set_conn(
            conn,
            Some(ConnEntry::Bound {
                tenant,
                slot,
                client,
            }),
        );
        Ok(())
    }

    /// Removes a connection binding.
    pub fn unbind_connection(&mut self, conn: ConnId) {
        if let Some(ConnEntry::Bound { .. }) = self.conns.get(conn) {
            self.set_conn(conn, None);
        }
    }

    /// Replaces `conn`'s flow-table entry, keeping the bound-connection
    /// count, and the per-message costs scaled by it, in step.
    fn set_conn(&mut self, conn: ConnId, entry: Option<ConnEntry>) {
        let bound = |e: Option<ConnEntry>| u32::from(matches!(e, Some(ConnEntry::Bound { .. })));
        let old = match entry {
            Some(e) => self.conns.insert(conn, e),
            None => self.conns.remove(conn),
        };
        if bound(entry) != bound(old) {
            self.bound_conns = self.bound_conns + bound(entry) - bound(old);
            self.refresh_costs();
        }
    }

    /// Installs a forwarding entry: messages for `conn` arriving on this
    /// thread's queue are re-steered to `queue` (tenant rebalancing keeps
    /// in-flight traffic from being dropped, paper §3.1, reference \[53\]).
    pub fn forward_connection(&mut self, conn: ConnId, queue: NicQueueId) {
        self.set_conn(conn, Some(ConnEntry::Forwarded(queue)));
    }

    /// Active connection count (drives the LLC-pressure model).
    pub fn connection_count(&self) -> u32 {
        self.bound_conns
    }

    /// Sets each BE tenant's fair-share token rate (control plane).
    pub fn set_be_rate(&mut self, rate: TokenRate) {
        self.interrupt();
        self.sched.set_be_rate(rate);
    }

    fn charge(&mut self, cost: SimDuration) {
        self.core_busy += cost;
        self.busy_time += cost;
    }

    /// Answers a request, after charging the core for the transmit: a
    /// response that echoes its header and carries a read's data, or an
    /// error with none. Every failure is the same error on the wire: a
    /// client cannot tell a refused request from a media error or a dying
    /// device, and retries.
    fn respond(&mut self, fabric: &mut Fabric<WireMsg>, req: &Request, ok: bool) {
        let header = ReflexHeader {
            opcode: if ok { Opcode::Response } else { Opcode::Error },
            tenant: 0,
            cookie: req.payload.cookie,
            addr: req.payload.addr,
            len: req.len,
        };
        let payload = if ok && req.op.is_read() { req.len } else { 0 };
        self.charge(self.tx_cost);
        self.stats.tx_msgs += 1;
        fabric.send(
            self.core_busy,
            self.machine,
            req.payload.client,
            req.payload.conn,
            payload,
            header.encode_array(),
        );
    }

    fn handle_rx(
        &mut self,
        fabric: &mut Fabric<WireMsg>,
        delivery: Delivery<WireMsg>,
        rx_started: SimTime,
    ) {
        self.stats.rx_msgs += 1;
        let (tenant, slot, client) = match self.conns.get(delivery.conn) {
            Some(&ConnEntry::Bound {
                tenant,
                slot,
                client,
            }) => (tenant, slot, client),
            Some(&ConnEntry::Forwarded(queue)) => {
                fabric.requeue(self.core_busy, self.machine, queue, delivery);
                self.stats.forwarded += 1;
                return;
            }
            None => {
                self.stats.unbound_conns += 1;
                return;
            }
        };
        let Ok(header) = ReflexHeader::decode(&delivery.payload) else {
            self.stats.decode_errors += 1;
            return;
        };
        let enqueued_after = self.core_busy.saturating_since(rx_started).as_nanos();
        let mut req = Request {
            op: IoType::Read,
            len: header.len,
            payload: ReqCtx {
                tenant,
                slot,
                conn: delivery.conn,
                client,
                cookie: header.cookie,
                addr: header.addr,
                arrived: delivery.arrived_at,
                rx_started,
                enqueued_after: u32::try_from(enqueued_after).unwrap_or(u32::MAX),
                cache_clock: 0,
                cache_gen: 0,
            },
        };
        match header.opcode {
            Opcode::Get => {}
            Opcode::Put => req.op = IoType::Write,
            // Answers travel to clients only.
            Opcode::Response | Opcode::Error => {
                self.stats.decode_errors += 1;
                self.respond(fabric, &req, false);
                return;
            }
        }
        let (op, addr, len) = (req.op, req.payload.addr, req.len);
        if len == 0 {
            // A request for no bytes would never reach the device, and
            // nothing else would answer it.
            self.stats.decode_errors += 1;
            self.respond(fabric, &req, false);
            return;
        }
        if !self.tenants.at(slot).acl.permits(op, addr, len) {
            self.stats.acl_rejections += 1;
            self.respond(fabric, &req, false);
            return;
        }
        // The request is accepted from here on: it will be answered by
        // exactly one completion, so its telemetry span opens now (closed
        // in `handle_completion` when the response hits the wire, or in
        // `complete_hit` when the DRAM cache answers it directly).
        self.telemetry.open_span(TenantKey(tenant.0));
        if let Some(cache) = &mut self.cache {
            match op {
                // Write-around: the write is submitted to flash unchanged;
                // the cache just stops serving the overlapped lines, and
                // the invalidation-tick stamp rejects any fill still in
                // flight for them.
                IoType::Write => {
                    self.stats.cache_invalidations += cache.invalidate_write(tenant.0, addr, len);
                }
                // Reads capture the cache clock and tenant epoch up front
                // so a completion can prove its fill predates no
                // invalidation and no tenant teardown.
                IoType::Read => {
                    req.payload.cache_clock = cache.clock();
                    req.payload.cache_gen = cache.generation(tenant.0);
                    if cache.lookup(tenant.0, addr, len) {
                        let pages = len.div_ceil(cache.config().line_bytes).max(1);
                        self.stats.cache_hits += 1;
                        self.complete_hit(fabric, req, pages);
                        return;
                    }
                    self.stats.cache_misses += 1;
                }
            }
        }
        let sched = self.tenants.at(slot).sched;
        self.sched
            .enqueue_at(sched, tenant, req)
            .expect("bound conn implies registered tenant");
    }

    /// Completes a read hit at DRAM latency: response straight to the
    /// wire, flash SQ/channel/CQ untouched. The tenant pays the cheap
    /// DRAM token cost of the `pages` cache lines read from its local
    /// balance (never the global bucket) and the hit counts as a
    /// submitted+completed IO for conservation.
    fn complete_hit(&mut self, fabric: &mut Fabric<WireMsg>, req: Request, pages: u32) {
        // DRAM service (lookup + copy-out) plus the usual TX cost, both
        // under connection-state cache pressure.
        self.charge(self.hit_cost);
        self.respond(fabric, &req, true);
        let ctx = req.payload;
        // A hit completes inside `handle_rx`, so the slot is the live one
        // its connection carried.
        let t = self.tenants.at(ctx.slot);
        self.sched
            .spend_dram_hit_at(
                t.sched,
                ctx.tenant,
                Tokens::from_millitokens(DRAM_COST_MILLITOKENS * i64::from(pages)),
            )
            .expect("bound conn implies registered tenant");
        if let Some(h) = &mut t.read_latency {
            h.record(self.core_busy.saturating_since(ctx.arrived));
        }
        self.telemetry.answer(
            TenantKey(ctx.tenant.0),
            &[
                (
                    Stage::NicQueue,
                    ctx.rx_started.saturating_since(ctx.arrived),
                ),
                (
                    Stage::Dataplane,
                    ctx.enqueued().saturating_since(ctx.rx_started),
                ),
                (
                    Stage::DramCache,
                    self.core_busy.saturating_since(ctx.enqueued()),
                ),
            ],
            Answer::Hit,
        );
    }

    fn submit_one(&mut self, device: &mut FlashDevice, req: Request) {
        // The in-flight slab slot doubles as the NVMe command id: the pool
        // key (slot + generation) packs into the CmdId u64 and travels
        // through the device, so completion lookup is a generation-checked
        // index instead of a hash probe — and slot reuse recycles the
        // storage with no per-IO allocation.
        let key = self.inflight.insert(InflightIo {
            req,
            submitted_at: self.core_busy,
        });
        let id = CmdId(key.as_u64());
        let cmd = match req.op {
            IoType::Read => NvmeCommand::read(id, req.payload.addr, req.len),
            IoType::Write => NvmeCommand::write(id, req.payload.addr, req.len),
        };
        let tenant = TenantKey(req.payload.tenant.0);
        self.telemetry.note_submitted(tenant);
        match device.submit(self.core_busy, self.qp, cmd) {
            Ok(_) => {
                self.stats.submitted += 1;
                self.wrote |= !req.op.is_read();
            }
            Err(SubmitError::QueueFull) => {
                self.inflight.take(key);
                self.stats.sq_full_retries += 1;
                self.telemetry.note_retried(tenant);
                self.retry_submit.push_front(req);
            }
            Err(SubmitError::EmptyCommand) => {
                // `handle_rx` refuses zero-length requests before they are
                // queued, so the device never sees one from here.
                self.inflight.take(key);
                self.stats.decode_errors += 1;
                self.telemetry.note_failed(tenant);
                self.telemetry.close_span(tenant);
            }
        }
    }

    fn handle_completion(
        &mut self,
        fabric: &mut Fabric<WireMsg>,
        completed: reflex_flash::NvmeCompletion,
    ) {
        self.stats.completed += 1;
        let Some(io) = self.inflight.take(PoolKey::from_u64(completed.id.0)) else {
            return;
        };
        let InflightIo { req, submitted_at } = io;
        let ctx = req.payload;
        let ok = completed.status == NvmeStatus::Success;
        self.respond(fabric, &req, ok);
        if req.op.is_read() {
            let entry = self.tenants.of_request(ctx.slot, ctx.tenant);
            if let Some(h) = entry.and_then(|t| t.read_latency.as_mut()) {
                h.record(self.core_busy.saturating_since(ctx.arrived));
            }
            // Fill the DRAM cache from the completed read. Errored reads
            // (device death mid-fill included) admit nothing; the clock
            // captured at accept time rejects fills whose lines a write
            // invalidated while the read was in flight, and the epoch
            // captured alongside it rejects fills whose tenant was torn
            // down in the meantime.
            if ok {
                if let Some(cache) = &mut self.cache {
                    let out = cache.fill(
                        ctx.tenant.0,
                        ctx.addr,
                        req.len,
                        ctx.cache_clock,
                        ctx.cache_gen,
                    );
                    self.stats.cache_fills += out.filled;
                    self.stats.cache_evictions += out.evicted;
                }
            }
        }
        // Per-stage decomposition of the request's server-side life (paper
        // Figure 2), attributed to its tenant. The single-take guard above
        // means a stale/duplicated completion can never reach this point,
        // so each request is decomposed exactly once.
        self.telemetry.answer(
            TenantKey(ctx.tenant.0),
            &[
                (
                    Stage::NicQueue,
                    ctx.rx_started.saturating_since(ctx.arrived),
                ),
                (
                    Stage::Dataplane,
                    ctx.enqueued().saturating_since(ctx.rx_started),
                ),
                (
                    Stage::FlashSq,
                    submitted_at.saturating_since(ctx.enqueued()),
                ),
                (
                    Stage::Channel,
                    completed.completed_at.saturating_since(submitted_at),
                ),
                (
                    Stage::Cq,
                    self.core_busy.saturating_since(completed.completed_at),
                ),
            ],
            if ok {
                Answer::Completed
            } else {
                Answer::Failed
            },
        );
    }

    /// Runs the polling loop at `now`: drains available NIC arrivals, runs
    /// QoS scheduling, submits to the device and transmits completions,
    /// charging CPU time throughout. Returns the instant the thread should
    /// next be woken, or `None` when fully idle with no pending work.
    pub fn pump(
        &mut self,
        now: SimTime,
        fabric: &mut Fabric<WireMsg>,
        device: &mut FlashDevice,
    ) -> Option<SimTime> {
        self.settle(now);
        self.wrote = false;
        if self.core_busy < now {
            self.core_busy = now;
        }

        loop {
            let mut progress = false;

            // Step 1: NIC RX batch (bounded, adaptive). The scratch vector
            // is owned by the thread and recycled tick over tick, so a
            // steady-state pump round performs no RX-path allocation.
            let mut msgs = std::mem::take(&mut self.rx_scratch);
            fabric.poll_queue_into(
                self.core_busy,
                self.machine,
                self.nic_queue,
                BATCH_MAX,
                &mut msgs,
            );
            for d in msgs.drain(..) {
                let rx_started = self.core_busy.max(d.arrived_at);
                self.charge(self.rx_cost);
                self.handle_rx(fabric, d, rx_started);
                progress = true;
            }
            self.rx_scratch = msgs;

            // Step 2: QoS scheduling + NVMe submission.
            // Retry anything the SQ refused last round first. The SQ is a
            // single queue: once one submit fails with QueueFull, the rest
            // will too, so stop immediately instead of rescanning the
            // whole backlog every round.
            while let Some(req) = self.retry_submit.pop_front() {
                let before = self.stats.sq_full_retries;
                self.submit_one(device, req);
                if self.stats.sq_full_retries > before {
                    // submit_one pushed the request back; the SQ is full,
                    // so every further attempt this round would fail too.
                    break;
                }
            }
            let due = self.core_busy.saturating_since(self.last_sched) >= self.interval;
            if self.sched.queued_requests() > 0 && due {
                self.last_sched = self.core_busy;
                self.charge(self.round_cost);
                self.sched_time += self.round_cost;
                self.stats.sched_rounds += 1;
                let mix = if device.in_read_only_mode(self.core_busy) {
                    LoadMix::ReadOnly
                } else {
                    LoadMix::Mixed
                };
                let mut outcome = std::mem::take(&mut self.sched_scratch);
                self.sched.schedule_into(self.core_busy, mix, &mut outcome);
                let submitted_any = !outcome.submitted.is_empty();
                for (_, req) in outcome.submitted.drain(..) {
                    self.submit_one(device, req);
                }
                self.sched_scratch = outcome;
                if submitted_any {
                    progress = true;
                }
            }

            // Step 3: NVMe CQ batch -> events -> responses, drained through
            // the recycled completion scratch buffer.
            let mut comps = std::mem::take(&mut self.cq_scratch);
            device.poll_completions_into(self.core_busy, self.qp, BATCH_MAX, &mut comps);
            for c in comps.drain(..) {
                self.handle_completion(fabric, c);
                progress = true;
            }
            self.cq_scratch = comps;

            if !progress {
                break;
            }
        }

        // Decide when to wake next: at the next arrival or completion, or
        // at the first round that may act. A round that neither comes
        // first nor has a retry to submit need not be the next one.
        let completion = device.next_completion_time(self.qp);
        let event = SimTime::earlier(
            fabric.next_arrival_queue(self.machine, self.nic_queue),
            completion,
        );
        let retrying = !self.retry_submit.is_empty();
        let round = if self.sched.queued_requests() > 0 || retrying {
            let next = self.core_busy + self.interval;
            Some(if retrying || event.is_some_and(|at| at <= next) {
                next
            } else {
                self.first_acting_round(next, completion, device)
            })
        } else {
            None
        };
        self.sleep_until(round);
        SimTime::earlier(event, round).map(|t| t.max(self.core_busy))
    }

    /// The first round on the grid starting at `first` that is not
    /// provably idle. A round started at `g` runs the scheduler and polls
    /// the CQ at `g + round_cost`, so it is idle while that instant is
    /// short of the scheduler's next wake and of the next completion and
    /// sees the load mix of the round before; a sibling that fills the
    /// bucket or writes to a read-only device meanwhile calls
    /// [`wake`](Self::wake), and an arrival pumps the thread at its
    /// instant, before the rounds past it. Where that cannot be told the
    /// answer errs early, never late.
    fn first_acting_round(
        &mut self,
        first: SimTime,
        completion: Option<SimTime>,
        device: &FlashDevice,
    ) -> SimTime {
        /// Bounds the search for a mix flip; a thread with nothing ever
        /// due still looks up this often.
        const MAX_SLEEP_ROUNDS: u64 = 1 << 16;
        let period = self.round_cost + self.interval;
        if period.is_zero() {
            return first;
        }
        let runs_first = first + self.round_cost;
        let due = SimTime::earlier(self.sched.next_wake(), completion);
        // Round k is the first to run at or after `due`: rounded up, as a
        // round that runs short of it finds nothing.
        let mut idle = due.map_or(MAX_SLEEP_ROUNDS, |due| {
            let short = due.saturating_since(runs_first).as_nanos();
            short.div_ceil(period.as_nanos()).min(MAX_SLEEP_ROUNDS)
        });
        // The device leaves read-only mode only by a write and enters it
        // only by the clock, so the mix along the grid flips at most once:
        // read-only rounds stay so if the first is, and mixed ones are if
        // the last is (halving the sleep until then errs early).
        let read_only = |k: u64| device.in_read_only_mode(runs_first + period * k);
        match self.sched.last_mix() {
            LoadMix::ReadOnly if !read_only(0) => idle = 0,
            LoadMix::ReadOnly => {}
            LoadMix::Mixed => {
                while idle > 0 && read_only(idle - 1) {
                    idle /= 2;
                }
            }
        }
        first + period * idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_pressure_shape() {
        assert!((conn_pressure(1) - 1.0).abs() < 0.01);
        // ~850 connections: the paper's 780K vs 850K peak (~9%).
        let f850 = conn_pressure(850);
        assert!((1.05..1.12).contains(&f850), "factor(850) = {f850}");
        // At 5K connections the warm term has saturated, no spill yet.
        let f5k = conn_pressure(5_000);
        assert!((1.09..1.12).contains(&f5k), "factor(5000) = {f5k}");
        // Beyond 5K the spill term dominates.
        let f10k = conn_pressure(10_000);
        assert!(f10k > 1.5, "factor(10000) = {f10k}");
        // Monotone.
        let mut prev = 0.0;
        for n in [0u32, 100, 500, 1_000, 2_000, 5_000, 7_000, 10_000, 20_000] {
            let f = conn_pressure(n);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn acl_client_permits() {
        let open = AclEntry::full(1 << 20);
        assert!(open.permits_client(MachineId(0)));
        assert!(open.permits_client(MachineId(9)));
        let closed = AclEntry::full(1 << 20).restricted_to(vec![MachineId(1), MachineId(2)]);
        assert!(closed.permits_client(MachineId(1)));
        assert!(!closed.permits_client(MachineId(3)));
    }
}
