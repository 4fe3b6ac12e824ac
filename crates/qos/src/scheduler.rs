//! The QoS scheduling algorithm (paper §3.2.2, Algorithm 1).
//!
//! Each dataplane thread owns one [`QosScheduler`]. Flash requests are
//! enqueued into per-tenant software queues; on every scheduling round the
//! scheduler generates tokens for latency-critical (LC) tenants from their
//! SLO rates, submits their requests while they remain above the deficit
//! limit (`NEG_LIMIT`), donates surpluses beyond `POS_LIMIT` to the shared
//! [`GlobalBucket`], and then serves best-effort (BE) tenants in round-robin
//! order from their fair share of unallocated throughput plus whatever the
//! bucket holds. BE tenants may not accumulate tokens while idle (the
//! Deficit-Round-Robin-inspired rule).
//!
//! A round decides what visiting every tenant would but visits only those
//! that can act: income is settled from a generation clock at a tenant's
//! next visit, and a tenant whose visit could change nothing is parked
//! until income, a request or the bucket reaches it (DESIGN.md §2.4).

use std::collections::HashMap;
use std::sync::Arc;

use reflex_flash::IoType;
use reflex_sim::{SimDuration, SimTime};

use crate::bucket::GlobalBucket;
use crate::cost::{CostModel, LoadMix};
use crate::slo::{SloSpec, TenantId};
use crate::tokens::{TokenGen, TokenRate, Tokens};
use crate::wake::WakeIndex;

/// Fraction of an LC tenant's above-`POS_LIMIT` accumulation donated to
/// the global bucket each round (paper: 90%).
pub const DONATE_FRACTION: f64 = 0.9;

/// Tuning parameters of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerParams {
    /// Deficit at which an LC tenant is rate-limited and the control plane
    /// notified. The paper sets this to −50 tokens to bound the number of
    /// expensive writes in a burst.
    pub neg_limit: Tokens,
    /// `POS_LIMIT` is the tokens the tenant received over this many recent
    /// scheduling rounds (paper: 3).
    pub pos_history_rounds: usize,
}

impl Default for SchedulerParams {
    fn default() -> Self {
        SchedulerParams {
            neg_limit: Tokens::from_tokens(-50),
            pos_history_rounds: 3,
        }
    }
}

/// A Flash request waiting in a tenant's software queue. `R` is the
/// caller's opaque payload (connection, cookie, buffer handle, …). The
/// queue holds exactly this: a request's token cost is priced from `op`
/// and `len` when a round reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostedRequest<R> {
    /// Read or write.
    pub op: IoType,
    /// Request length in bytes.
    pub len: u32,
    /// Caller context returned on submission.
    pub payload: R,
}

/// Everything a scheduling round decided.
#[derive(Debug)]
pub struct ScheduleOutcome<R> {
    /// Requests admitted to the device this round, in submission order.
    pub submitted: Vec<(TenantId, CostedRequest<R>)>,
    /// LC tenants that hit `NEG_LIMIT` — the control plane should consider
    /// renegotiating their SLOs (paper line 7).
    pub deficit_notifications: Vec<TenantId>,
    /// `true` if this thread was the last to mark the round and reset the
    /// global bucket.
    pub reset_bucket: bool,
}

/// Per-tenant scheduling statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantSchedStats {
    /// Requests submitted to the device.
    pub submitted: u64,
    /// Total token cost of submitted requests (millitokens).
    pub spent_millitokens: i64,
    /// Times this tenant hit the deficit limit.
    pub deficit_events: u64,
    /// Reads served from the DRAM cache without a device submission.
    pub dram_hits: u64,
    /// Token cost debited for DRAM hits (millitokens). Kept separate from
    /// `spent_millitokens` so device-budget conservation checks keep
    /// comparing flash spend against flash token generation.
    pub dram_spent_millitokens: i64,
}

/// No node: the end of a queue or of the free list.
const NIL: u32 = u32::MAX;

/// A tenant's software queue: its oldest and newest requests' nodes in
/// its scheduler's [`Waiting`] slab, and how many it holds.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// A waiting request and the next node of its queue, or of the free list
/// (`req` is `None` there).
#[derive(Debug)]
struct Node<R> {
    req: Option<CostedRequest<R>>,
    next: u32,
}

/// Every tenant's waiting requests in one slab, each [`Fifo`] a list
/// through it. Popped nodes form a free list that the next push, for any
/// tenant, reuses, so the slab grows only with the total backlog and a
/// queue owns no buffer of its own.
#[derive(Debug)]
struct Waiting<R> {
    nodes: Vec<Node<R>>,
    free: u32,
}

impl<R> Waiting<R> {
    fn push(&mut self, q: &mut Fifo, req: CostedRequest<R>) {
        let node = Node {
            req: Some(req),
            next: NIL,
        };
        let mut at = self.free;
        match self.nodes.get_mut(at as usize) {
            Some(slot) => self.free = std::mem::replace(slot, node).next,
            None => {
                // An index fits a `u32`: 2^32 waiting requests would
                // take 320 GiB.
                at = self.nodes.len() as u32;
                self.nodes.push(node);
            }
        }
        match self.nodes.get_mut(q.tail as usize) {
            Some(tail) => tail.next = at,
            None => q.head = at,
        }
        q.tail = at;
        q.len += 1;
    }

    fn front(&self, q: &Fifo) -> Option<&CostedRequest<R>> {
        self.nodes.get(q.head as usize)?.req.as_ref()
    }

    fn pop(&mut self, q: &mut Fifo) -> Option<CostedRequest<R>> {
        let at = q.head;
        let node = self.nodes.get_mut(at as usize)?;
        q.head = std::mem::replace(&mut node.next, self.free);
        self.free = at;
        if q.head == NIL {
            q.tail = NIL;
        }
        q.len -= 1;
        node.req.take()
    }

    /// Empties `q` into a `Vec`, oldest first.
    fn drain(&mut self, mut q: Fifo) -> Vec<CostedRequest<R>> {
        let mut out = Vec::with_capacity(q.len as usize);
        while let Some(req) = self.pop(&mut q) {
            out.push(req);
        }
        out
    }
}

/// An LC tenant's generation in each of the last `pos_history_rounds`
/// rounds (a ring; empty at zero rounds) and their sum, its `POS_LIMIT`.
#[derive(Debug)]
struct RecentGen {
    ring: Box<[Tokens]>,
    oldest: usize,
    sum: Tokens,
}

impl RecentGen {
    fn push(&mut self, generated: Tokens) {
        if let Some(slot) = self.ring.get_mut(self.oldest) {
            self.sum += generated - std::mem::replace(slot, generated);
            self.oldest += 1;
            if self.oldest == self.ring.len() {
                self.oldest = 0;
            }
        }
    }
}

#[derive(Debug)]
struct LcState {
    id: TenantId,
    slo: SloSpec,
    rate: TokenRate,
    /// Balance, `gen` and the `POS_LIMIT` history as the visit of round
    /// `synced_round` left them, when the LC clock stood at `synced_at`.
    tokens: Tokens,
    gen: TokenGen,
    recent_gen: RecentGen,
    synced_round: u64,
    synced_at: u64,
    queue: Fifo,
    stats: TenantSchedStats,
}

impl LcState {
    fn numer_to(&self, clock: u64) -> u128 {
        self.rate.as_millitokens_per_sec() as u128 * (clock - self.synced_at) as u128
    }

    /// Income of the rounds since `synced_round`, not yet in `tokens`.
    fn pending(&self, clock: u64) -> Tokens {
        let mut gen = self.gen;
        gen.accrue(self.numer_to(clock))
    }

    fn accrue_to(&mut self, clock: u64) -> Tokens {
        let generated = self.gen.accrue(self.numer_to(clock));
        self.synced_at = clock;
        self.tokens += generated;
        generated
    }

    /// Settles the income of every round up to `round` (`clocks`: the LC
    /// clock after each of the last rounds, `round`'s last) as a visit in
    /// each would have: rounds still inside the `POS_LIMIT` history are
    /// generated one by one, the older ones in one accrual, whose quotient
    /// and carry equal theirs. Returns the tokens generated.
    fn catch_up(&mut self, round: u64, clocks: &[u64]) -> Tokens {
        let history = clocks.len() - 1;
        let missed = round - self.synced_round;
        let recent = missed.min(history as u64) as usize;
        let mut generated = Tokens::ZERO;
        if missed > recent as u64 {
            generated += self.accrue_to(clocks[history - recent]);
        }
        for &clock in &clocks[clocks.len() - recent..] {
            let in_round = self.accrue_to(clock);
            generated += in_round;
            self.recent_gen.push(in_round);
        }
        self.synced_round = round;
        generated
    }
}

#[derive(Debug)]
struct BeState {
    id: TenantId,
    /// Balance and `gen` as of the BE clock value `synced_at`.
    tokens: Tokens,
    gen: TokenGen,
    synced_at: u128,
    /// Requests as they arrived: each is priced when it reaches the head
    /// of a visit, under that round's mix (the model never changes under a
    /// scheduler, so a price is the same whenever it is computed).
    queue: Fifo,
    /// Incremental demand totals so scheduling rounds stay O(1) per
    /// tenant even with deep queues (overloaded BE tenants accumulate
    /// hundreds of thousands of requests): added at enqueue, taken back at
    /// submission, at the same prices.
    demand_mixed: Tokens,
    demand_ro: Tokens,
    stats: TenantSchedStats,
}

impl BeState {
    /// Income generated since `synced_at`, not yet in `tokens`.
    fn pending(&self, clock: u128) -> Tokens {
        let mut gen = self.gen;
        gen.accrue(clock - self.synced_at)
    }

    /// Settles the income up to `clock` in one accrual; returns it.
    fn catch_up(&mut self, clock: u128) -> Tokens {
        let generated = self.gen.accrue(clock - self.synced_at);
        self.synced_at = clock;
        self.tokens += generated;
        generated
    }
}

/// Where a tenant's state lives: an index into `lc` or `be`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Lc(usize),
    Be(usize),
}

/// A tenant's position in its scheduler, from
/// [`QosScheduler::slot_of`]: what the per-request entry points
/// ([`enqueue_at`](QosScheduler::enqueue_at) and friends) take instead of
/// hashing the id. Any [`unregister`](QosScheduler::unregister) may move
/// the tenants registered after the one removed, so holders look their
/// slots up again after one; a slot that no longer names its tenant is
/// refused, never misapplied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSlot(Slot);

/// Error returned by tenant registration and queueing operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosError {
    /// The tenant id is already registered on this scheduler.
    DuplicateTenant(TenantId),
    /// The tenant id is not registered on this scheduler.
    UnknownTenant(TenantId),
    /// The client machine is not authorized to connect to the tenant.
    ConnectionDenied(TenantId),
}

impl std::fmt::Display for QosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QosError::DuplicateTenant(t) => write!(f, "{t} already registered"),
            QosError::UnknownTenant(t) => write!(f, "{t} not registered"),
            QosError::ConnectionDenied(t) => write!(f, "client not authorized for {t}"),
        }
    }
}

impl std::error::Error for QosError {}

/// The per-thread QoS scheduler implementing Algorithm 1.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use reflex_flash::IoType;
/// use reflex_qos::{
///     CostModel, CostedRequest, GlobalBucket, LoadMix, QosScheduler, SchedulerParams,
///     SloSpec, TenantId,
/// };
/// use reflex_sim::{SimDuration, SimTime};
///
/// let bucket = Arc::new(GlobalBucket::new(1));
/// let model = CostModel::for_device_a();
/// let mut sched: QosScheduler<u64> =
///     QosScheduler::new(0, bucket, model, SchedulerParams::default(), SimTime::ZERO);
///
/// let lc = TenantId(1);
/// let slo = SloSpec::new(100_000, 100, SimDuration::from_micros(500));
/// sched.register_lc(lc, slo, 4096).unwrap();
///
/// sched.enqueue(lc, CostedRequest { op: IoType::Read, len: 4096, payload: 7 }).unwrap();
/// let out = sched.schedule(SimTime::from_micros(100), LoadMix::Mixed);
/// assert_eq!(out.submitted.len(), 1);
/// ```
#[derive(Debug)]
pub struct QosScheduler<R> {
    thread_idx: u32,
    bucket: Arc<GlobalBucket>,
    model: CostModel,
    params: SchedulerParams,
    prev_sched_time: SimTime,
    /// Tenant state in registration order, which is visiting order.
    lc: Vec<LcState>,
    be: Vec<BeState>,
    /// Every tenant's queued requests.
    waiting: Waiting<R>,
    /// Which of them the next round visits, and when the rest wake.
    lc_wake: WakeIndex,
    be_wake: WakeIndex,
    /// The LC generation clock — nanoseconds of round time so far — after
    /// each of the last `pos_history_rounds + 1` rounds, newest last.
    lc_clocks: Box<[u64]>,
    /// The BE generation clock: Σ BE rate × round time, in
    /// millitoken-nanoseconds, so it is exact across `set_be_rate`.
    be_clock: u128,
    /// The mix of the last round, under which BE tenants are parked.
    last_mix: LoadMix,
    /// A BE wake clock and the instant it comes due at the current BE
    /// rate, if ever (see [`next_wake`](Self::next_wake)).
    be_due: Option<(u128, Option<u64>)>,
    /// Tenant id to slot, for the by-id entry points only.
    slots: HashMap<TenantId, Slot>,
    be_cursor: usize,
    queued: usize,
    be_rate_per_tenant: TokenRate,
    rounds: u64,
    visits: u64,
    /// Tokens settled into tenant balances so far (see
    /// [`generated`](Self::generated)).
    generated: Tokens,
    /// Requests admitted so far, LC and BE, and deficit notifications.
    admitted: (u64, u64),
    deficit_events: u64,
}

impl<R> QosScheduler<R> {
    /// Creates a scheduler for dataplane thread `thread_idx` sharing
    /// `bucket` with its peers.
    pub fn new(
        thread_idx: u32,
        bucket: Arc<GlobalBucket>,
        model: CostModel,
        params: SchedulerParams,
        now: SimTime,
    ) -> Self {
        QosScheduler {
            thread_idx,
            bucket,
            model,
            params,
            prev_sched_time: now,
            lc: Vec::new(),
            be: Vec::new(),
            waiting: Waiting {
                nodes: Vec::new(),
                free: NIL,
            },
            lc_wake: WakeIndex::default(),
            be_wake: WakeIndex::default(),
            lc_clocks: vec![0; params.pos_history_rounds + 1].into(),
            be_clock: 0,
            last_mix: LoadMix::Mixed,
            be_due: None,
            slots: HashMap::new(),
            be_cursor: 0,
            queued: 0,
            be_rate_per_tenant: TokenRate::ZERO,
            rounds: 0,
            visits: 0,
            generated: Tokens::ZERO,
            admitted: (0, 0),
            deficit_events: 0,
        }
    }

    /// Registers a latency-critical tenant with its SLO; `io_size` is the
    /// request size its reservation is computed against.
    ///
    /// # Errors
    ///
    /// [`QosError::DuplicateTenant`] if the id is already registered.
    pub fn register_lc(
        &mut self,
        id: TenantId,
        slo: SloSpec,
        io_size: u32,
    ) -> Result<(), QosError> {
        if self.slots.contains_key(&id) {
            return Err(QosError::DuplicateTenant(id));
        }
        self.slots.insert(id, Slot::Lc(self.lc.len()));
        self.lc.push(LcState {
            id,
            slo,
            rate: slo.token_rate(&self.model, io_size),
            tokens: Tokens::ZERO,
            gen: TokenGen::new(),
            recent_gen: RecentGen {
                ring: vec![Tokens::ZERO; self.params.pos_history_rounds].into(),
                oldest: 0,
                sum: Tokens::ZERO,
            },
            synced_round: self.rounds,
            synced_at: self.lc_clock(),
            queue: Fifo::EMPTY,
            stats: TenantSchedStats::default(),
        });
        self.lc_wake.push_tenant();
        Ok(())
    }

    /// Registers a best-effort tenant.
    ///
    /// # Errors
    ///
    /// [`QosError::DuplicateTenant`] if the id is already registered.
    pub fn register_be(&mut self, id: TenantId) -> Result<(), QosError> {
        if self.slots.contains_key(&id) {
            return Err(QosError::DuplicateTenant(id));
        }
        self.slots.insert(id, Slot::Be(self.be.len()));
        self.be.push(BeState {
            id,
            tokens: Tokens::ZERO,
            gen: TokenGen::new(),
            synced_at: self.be_clock,
            queue: Fifo::EMPTY,
            demand_mixed: Tokens::ZERO,
            demand_ro: Tokens::ZERO,
            stats: TenantSchedStats::default(),
        });
        self.be_wake.push_tenant();
        Ok(())
    }

    /// Unregisters a tenant, returning any requests still queued. The
    /// tenants registered after it keep their relative order; their
    /// indices shift, so the whole class is live for the next round.
    ///
    /// # Errors
    ///
    /// [`QosError::UnknownTenant`] if the id is not registered.
    pub fn unregister(&mut self, id: TenantId) -> Result<Vec<CostedRequest<R>>, QosError> {
        let queue = match self.slots.remove(&id) {
            Some(Slot::Lc(i)) => {
                let state = self.lc.remove(i);
                self.generated += state.pending(self.lc_clock());
                self.lc_wake.pop_tenant();
                for (j, s) in self.lc.iter().enumerate().skip(i) {
                    self.slots.insert(s.id, Slot::Lc(j));
                }
                state.queue
            }
            Some(Slot::Be(i)) => {
                let state = self.be.remove(i);
                self.generated += state.pending(self.be_clock);
                self.be_wake.pop_tenant();
                for (j, s) in self.be.iter().enumerate().skip(i) {
                    self.slots.insert(s.id, Slot::Be(j));
                }
                if self.be_cursor >= self.be.len() {
                    self.be_cursor = 0;
                }
                state.queue
            }
            None => return Err(QosError::UnknownTenant(id)),
        };
        self.queued -= queue.len as usize;
        Ok(self.waiting.drain(queue))
    }

    /// Sets each BE tenant's fair share of unallocated device throughput
    /// (computed by the control plane: device rate at the strictest SLO
    /// minus the sum of LC reservations, divided by the number of BE
    /// tenants system-wide).
    pub fn set_be_rate(&mut self, rate: TokenRate) {
        self.be_due = None;
        self.be_rate_per_tenant = rate;
    }

    fn lc_clock(&self) -> u64 {
        self.lc_clocks[self.params.pos_history_rounds]
    }

    fn lc_state(&self, id: TenantId) -> Option<&LcState> {
        match *self.slots.get(&id)? {
            Slot::Lc(i) => Some(&self.lc[i]),
            Slot::Be(_) => None,
        }
    }

    /// The token rate reserved by LC tenant `id`, if registered here.
    pub fn lc_rate(&self, id: TenantId) -> Option<TokenRate> {
        self.lc_state(id).map(|s| s.rate)
    }

    /// Replaces an LC tenant's SLO (renegotiation after repeated deficit
    /// notifications, paper §4.3). The token balance and queue carry over.
    ///
    /// # Errors
    ///
    /// [`QosError::UnknownTenant`] when `id` is not a registered LC tenant.
    pub fn renegotiate_lc(
        &mut self,
        id: TenantId,
        slo: SloSpec,
        io_size: u32,
    ) -> Result<(), QosError> {
        let Some(&Slot::Lc(i)) = self.slots.get(&id) else {
            return Err(QosError::UnknownTenant(id));
        };
        let s = &mut self.lc[i];
        // The rounds so far ran at the old rate, as did a parked tenant's
        // wake clock.
        self.generated += s.catch_up(self.rounds, &self.lc_clocks);
        self.lc_wake.unpark(i);
        s.slo = slo;
        s.rate = slo.token_rate(&self.model, io_size);
        Ok(())
    }

    /// Sum of LC reservations on this thread.
    pub fn lc_reserved_rate(&self) -> TokenRate {
        let mt = self
            .lc
            .iter()
            .map(|s| s.rate.as_millitokens_per_sec())
            .sum();
        TokenRate::millitokens_per_sec(mt)
    }

    /// Numbers of (LC, BE) tenants registered on this thread.
    pub fn tenant_counts(&self) -> (usize, usize) {
        (self.lc.len(), self.be.len())
    }

    /// Queues a request for `id`.
    ///
    /// # Errors
    ///
    /// [`QosError::UnknownTenant`] if the id is not registered.
    pub fn enqueue(&mut self, id: TenantId, req: CostedRequest<R>) -> Result<(), QosError> {
        let slot = self.slot_of(id).ok_or(QosError::UnknownTenant(id))?;
        self.enqueue_at(slot, id, req)
    }

    /// The slot of tenant `id`, if registered here.
    pub fn slot_of(&self, id: TenantId) -> Option<TenantSlot> {
        self.slots.get(&id).copied().map(TenantSlot)
    }

    /// `slot` if it still names tenant `id`.
    #[inline]
    fn checked(&self, slot: TenantSlot, id: TenantId) -> Result<Slot, QosError> {
        let held = match slot.0 {
            Slot::Lc(i) => self.lc.get(i).map(|s| s.id),
            Slot::Be(i) => self.be.get(i).map(|s| s.id),
        };
        if held == Some(id) {
            Ok(slot.0)
        } else {
            Err(QosError::UnknownTenant(id))
        }
    }

    /// [`enqueue`](Self::enqueue) for a caller that holds the tenant's
    /// slot: no hashing.
    ///
    /// # Errors
    ///
    /// [`QosError::UnknownTenant`] if `slot` no longer names `id`.
    pub fn enqueue_at(
        &mut self,
        slot: TenantSlot,
        id: TenantId,
        req: CostedRequest<R>,
    ) -> Result<(), QosError> {
        let queue = match self.checked(slot, id)? {
            Slot::Lc(i) => {
                self.lc_wake.unpark(i);
                &mut self.lc[i].queue
            }
            // A parked BE tenant stays parked: its head did not change.
            Slot::Be(i) => {
                let s = &mut self.be[i];
                s.demand_mixed += self.model.cost(req.op, req.len, LoadMix::Mixed);
                s.demand_ro += self.model.cost(req.op, req.len, LoadMix::ReadOnly);
                &mut s.queue
            }
        };
        self.waiting.push(queue, req);
        self.queued += 1;
        Ok(())
    }

    /// Total requests queued across all tenants.
    pub fn queued_requests(&self) -> usize {
        self.queued
    }

    /// Requests queued for one tenant.
    pub fn queued_for(&self, id: TenantId) -> usize {
        match self.slots.get(&id) {
            Some(Slot::Lc(i)) => self.lc[*i].queue.len as usize,
            Some(Slot::Be(i)) => self.be[*i].queue.len as usize,
            None => 0,
        }
    }

    /// Scheduling statistics for one tenant.
    pub fn stats_for(&self, id: TenantId) -> Option<TenantSchedStats> {
        Some(match *self.slots.get(&id)? {
            Slot::Lc(i) => self.lc[i].stats,
            Slot::Be(i) => self.be[i].stats,
        })
    }

    /// Debits a DRAM-hit's token cost from a tenant's local balance.
    ///
    /// Hits bypass the flash SQ entirely, so they never pass through
    /// [`schedule_into`](Self::schedule_into); they still consume the
    /// tenant's provisioned rate — at DRAM cost, not flash cost — so rate
    /// limits keep reflecting real device load. The debit touches only
    /// tenant-local state, never the global bucket, which sees exactly
    /// the same give/take sequence with or without a cache. The balance
    /// may go negative; the tenant's own generation
    /// repays it before further flash admissions.
    pub fn spend_dram_hit(&mut self, id: TenantId, cost: Tokens) -> Result<(), QosError> {
        let slot = self.slot_of(id).ok_or(QosError::UnknownTenant(id))?;
        self.spend_dram_hit_at(slot, id, cost)
    }

    /// [`spend_dram_hit`](Self::spend_dram_hit) by slot.
    ///
    /// # Errors
    ///
    /// [`QosError::UnknownTenant`] if `slot` no longer names `id`.
    pub fn spend_dram_hit_at(
        &mut self,
        slot: TenantSlot,
        id: TenantId,
        cost: Tokens,
    ) -> Result<(), QosError> {
        // A debit moves the balance a parked tenant's wake clock was
        // computed from (and may take an LC tenant below `NEG_LIMIT`).
        let (tokens, stats) = match self.checked(slot, id)? {
            Slot::Lc(i) => {
                self.lc_wake.unpark(i);
                let s = &mut self.lc[i];
                (&mut s.tokens, &mut s.stats)
            }
            Slot::Be(i) => {
                self.be_wake.unpark(i);
                let s = &mut self.be[i];
                (&mut s.tokens, &mut s.stats)
            }
        };
        *tokens -= cost;
        stats.dram_hits += 1;
        stats.dram_spent_millitokens += cost.as_millitokens();
        Ok(())
    }

    /// Current token balance of a tenant, unsettled income included.
    pub fn tokens_of(&self, id: TenantId) -> Option<Tokens> {
        Some(match *self.slots.get(&id)? {
            Slot::Lc(i) => self.lc[i].tokens + self.lc[i].pending(self.lc_clock()),
            Slot::Be(i) => self.be[i].tokens + self.be[i].pending(self.be_clock),
        })
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Tenant visits those rounds made, the unit of a round's host cost.
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// Requests those rounds admitted: (LC, BE).
    pub fn admitted(&self) -> (u64, u64) {
        self.admitted
    }

    /// Deficit notifications those rounds raised.
    pub fn deficit_events(&self) -> u64 {
        self.deficit_events
    }

    /// Every token this scheduler has generated, for LC and BE tenants
    /// alike. Generation is the only source of tokens, so across the
    /// threads sharing a bucket it equals what tenants hold and have spent
    /// plus what the bucket holds and has discarded.
    pub fn generated(&self) -> Tokens {
        let lc_clock = self.lc_clock();
        let pending_lc: Tokens = self.lc.iter().map(|s| s.pending(lc_clock)).sum();
        let pending_be: Tokens = self.be.iter().map(|s| s.pending(self.be_clock)).sum();
        self.generated + pending_lc + pending_be
    }

    /// Runs one scheduling round (Algorithm 1) at instant `now` under the
    /// device-wide load mix `mix`. Returns the admitted requests in order.
    pub fn schedule(&mut self, now: SimTime, mix: LoadMix) -> ScheduleOutcome<R> {
        let mut out = ScheduleOutcome::default();
        self.schedule_into(now, mix, &mut out);
        out
    }

    /// [`QosScheduler::schedule`] into a caller-owned outcome: `out`'s
    /// vectors are cleared and refilled, so a thread loop reusing one
    /// scratch [`ScheduleOutcome`] runs rounds without allocating in
    /// steady state.
    pub fn schedule_into(&mut self, now: SimTime, mix: LoadMix, out: &mut ScheduleOutcome<R>) {
        if now < self.prev_sched_time {
            // The BE clock stands still where time runs backwards.
            self.be_due = None;
        }
        let elapsed = now.saturating_since(self.prev_sched_time);
        self.prev_sched_time = now;
        self.rounds += 1;

        out.submitted.clear();
        out.deficit_notifications.clear();
        out.reset_bucket = false;

        // Advance both generation clocks and wake whom they reach.
        let lc_clock = self.lc_clock() + elapsed.as_nanos();
        self.lc_clocks.copy_within(1.., 0);
        self.lc_clocks[self.params.pos_history_rounds] = lc_clock;
        self.be_clock +=
            self.be_rate_per_tenant.as_millitokens_per_sec() as u128 * elapsed.as_nanos() as u128;
        if mix != self.last_mix {
            // BE tenants are parked on what their head costs under a mix.
            self.last_mix = mix;
            self.be_wake.unpark_all();
        }
        self.lc_wake.wake_due(lc_clock as u128);
        self.be_wake.wake_due(self.be_clock);

        // --- Latency-critical tenants (Algorithm 1 lines 4-12) ---
        let mut next = 0;
        while let Some(run) = self.lc_wake.live_run(next) {
            for i in run.clone() {
                self.visit_lc(i, mix, out);
            }
            self.visits += run.len() as u64;
            next = run.end;
        }

        let lc_admitted = out.submitted.len();

        // --- Best-effort tenants, round-robin from the cursor (lines 13-21) ---
        // A parked tenant in rotation still takes from the bucket while it
        // holds tokens; once it is empty only live ones can act. A visit
        // parks or unparks nobody else, so a run of live tenants found
        // ahead stays one.
        for (from, to) in [(self.be_cursor, self.be.len()), (0, self.be_cursor)] {
            let mut i = from;
            while i < to {
                if self.be_wake.is_parked(i) && self.bucket.balance().is_positive() {
                    // Visited as a live tenant: it parks again if the
                    // bucket did not cover its head.
                    self.be_wake.unpark(i);
                }
                let Some(run) = self.be_wake.live_run(i).filter(|run| run.start < to) else {
                    break;
                };
                let run = run.start..run.end.min(to);
                for k in run.clone() {
                    self.visit_be(k, mix, out);
                }
                self.visits += run.len() as u64;
                i = run.end;
            }
        }
        self.be_cursor += 1;
        if self.be_cursor >= self.be.len() {
            self.be_cursor = 0;
        }
        self.queued -= out.submitted.len();

        out.reset_bucket = self.bucket.mark_round(self.thread_idx);
        self.admitted.0 += lc_admitted as u64;
        self.admitted.1 += (out.submitted.len() - lc_admitted) as u64;
        self.deficit_events += out.deficit_notifications.len() as u64;
    }

    /// The earliest instant at which a round can do more than an idle one
    /// (see [`idle_rounds`](Self::idle_rounds)), as far as this scheduler
    /// can tell: the first at which a parked tenant's wake clock comes
    /// due, rounded up to the nanosecond (a round that ends short of it
    /// wakes nobody), or the last round's own instant while a tenant is
    /// live or the bucket holds tokens. `None` when every tenant is parked
    /// for good. A control operation, a request for an LC tenant, a new
    /// load mix or a sibling's donation can make it earlier; nothing else
    /// can.
    pub fn next_wake(&mut self) -> Option<SimTime> {
        if !self.lc_wake.all_parked()
            || !self.be_wake.all_parked()
            || self.bucket.balance().is_positive()
        {
            return Some(self.prev_sched_time);
        }
        // Both clocks are linear in time, so a wake clock comes due at an
        // instant that no round in between moves.
        let lc = self.lc_wake.next_wake().and_then(|wake| {
            let nanos = u64::try_from(wake.saturating_sub(self.lc_clock() as u128)).ok()?;
            self.prev_sched_time.as_nanos().checked_add(nanos)
        });
        let be = self.be_wake.next_wake().and_then(|wake| {
            // The division is worth keeping: a starved tenant heads the
            // heap for hundreds of rounds.
            if self.be_due.is_none_or(|(cached, _)| cached != wake) {
                let rate = self.be_rate_per_tenant.as_millitokens_per_sec() as u128;
                let nanos = (rate > 0)
                    .then(|| u64::try_from(wake.saturating_sub(self.be_clock).div_ceil(rate)).ok())
                    .flatten();
                let at = nanos.and_then(|n| self.prev_sched_time.as_nanos().checked_add(n));
                self.be_due = Some((wake, at));
            }
            self.be_due.and_then(|(_, at)| at)
        });
        match (lc, be) {
            (Some(lc), Some(be)) => Some(lc.min(be)),
            (lc, be) => lc.or(be),
        }
        .map(SimTime::from_nanos)
    }

    /// The mix of the last round: the one a round that nothing woke runs
    /// under, or it would not be idle.
    pub fn last_mix(&self) -> LoadMix {
        self.last_mix
    }

    /// The `rounds` rounds at `first`, `first + period`, … for a caller
    /// that knows — from [`next_wake`](Self::next_wake) and an unchanged
    /// mix — that none of them can admit or donate anything: what that
    /// many [`schedule_into`] calls would leave behind — its prologue and
    /// epilogue: clocks, the BE rotation, the round marks on the bucket —
    /// in a few nanoseconds of host time however many they are. No other
    /// user of the bucket may act between them. The caller counts them in
    /// `qos.rounds` itself.
    ///
    /// [`schedule_into`]: Self::schedule_into
    ///
    /// # Panics
    ///
    /// Panics, in every build, if the rounds were not idle after all: a
    /// tenant is live, a wake clock came due, or the bucket holds tokens.
    pub fn idle_rounds(&mut self, first: SimTime, period: SimDuration, rounds: u64) {
        if rounds == 0 {
            return;
        }
        let live = !(self.lc_wake.all_parked() && self.be_wake.all_parked());
        let last = first + period * (rounds - 1);
        let elapsed = last.saturating_since(self.prev_sched_time).as_nanos();
        self.prev_sched_time = last;
        self.rounds += rounds;
        // The LC clock after each of the last rounds, the newest last.
        let lc_clock = self.lc_clock() + elapsed;
        let kept = self.lc_clocks.len();
        let fresh = kept.min(rounds.try_into().unwrap_or(usize::MAX));
        self.lc_clocks.copy_within(fresh.., 0);
        for (back, clock) in self.lc_clocks.iter_mut().rev().take(fresh).enumerate() {
            *clock = lc_clock - period.as_nanos() * back as u64;
        }
        self.be_clock += self.be_rate_per_tenant.as_millitokens_per_sec() as u128 * elapsed as u128;

        // The clocks only run forward: what is not due now never was.
        let due = |index: &WakeIndex, clock: u128| index.next_wake().is_some_and(|w| w <= clock);
        let cause = if live {
            Some("a tenant was live")
        } else if due(&self.lc_wake, lc_clock as u128) || due(&self.be_wake, self.be_clock) {
            Some("a wake clock came due")
        } else if self.bucket.balance().is_positive() {
            Some("the bucket holds tokens")
        } else {
            None
        };
        if let Some(cause) = cause {
            panic!(
                "thread {}: {rounds} round(s) up to {last} were settled as idle, but {cause}",
                self.thread_idx
            );
        }

        if !self.be.is_empty() {
            self.be_cursor = ((self.be_cursor as u64 + rounds) % self.be.len() as u64) as usize;
        }
        // A mark after the second changes nothing: either the first reset
        // the bucket's round and the second marks the new one, or this
        // thread's mark stands until its siblings catch up.
        for _ in 0..rounds.min(2) {
            self.bucket.mark_round(self.thread_idx);
        }
    }

    /// LC tenant `i`'s turn in the current round.
    fn visit_lc(&mut self, i: usize, mix: LoadMix, out: &mut ScheduleOutcome<R>) {
        let s = &mut self.lc[i];
        self.generated += s.catch_up(self.rounds, &self.lc_clocks);

        if s.tokens < self.params.neg_limit {
            s.stats.deficit_events += 1;
            out.deficit_notifications.push(s.id);
        }

        while s.tokens > self.params.neg_limit {
            let Some(q) = self.waiting.pop(&mut s.queue) else {
                break;
            };
            let cost = self.model.cost(q.op, q.len, mix);
            s.tokens -= cost;
            s.stats.submitted += 1;
            s.stats.spent_millitokens += cost.as_millitokens();
            out.submitted.push((s.id, q));
        }

        if s.tokens > s.recent_gen.sum {
            let donation = s.tokens.mul_f64(DONATE_FRACTION);
            self.bucket.give(donation);
            s.tokens -= donation;
        }

        // Idle and in debt within the limit: nothing to submit, to report
        // or (POS_LIMIT >= 0) to donate until the balance turns positive.
        let rate = s.rate.as_millitokens_per_sec() as u128;
        if s.queue.len == 0
            && s.tokens >= self.params.neg_limit
            && !s.tokens.is_positive()
            && rate > 0
        {
            let to_positive = s.gen.numer_until(Tokens::from_millitokens(1) - s.tokens);
            self.lc_wake
                .park(i, s.synced_at as u128 + to_positive.div_ceil(rate));
        }
    }

    /// BE tenant `i`'s turn in the current round.
    fn visit_be(&mut self, i: usize, mix: LoadMix, out: &mut ScheduleOutcome<R>) {
        let s = &mut self.be[i];
        self.generated += s.catch_up(self.be_clock);

        let demand = match mix {
            LoadMix::Mixed => s.demand_mixed,
            LoadMix::ReadOnly => s.demand_ro,
        };
        let deficit = demand - s.tokens;
        if deficit.is_positive() {
            s.tokens += self.bucket.take(deficit);
        }

        // Conditional submission: only while the tenant can pay in full.
        while let Some(head) = self.waiting.front(&s.queue) {
            let cost = self.model.cost(head.op, head.len, mix);
            if s.tokens < cost {
                // Until income covers the head a visit has a positive
                // deficit (no DRR give) and nothing to submit: it can only
                // take, which the walk sees to.
                let short = s.gen.numer_until(cost - s.tokens);
                self.be_wake.park(i, s.synced_at + short);
                return;
            }
            s.demand_mixed -= self.model.cost(head.op, head.len, LoadMix::Mixed);
            s.demand_ro -= self.model.cost(head.op, head.len, LoadMix::ReadOnly);
            s.tokens -= cost;
            s.stats.submitted += 1;
            s.stats.spent_millitokens += cost.as_millitokens();
            if let Some(req) = self.waiting.pop(&mut s.queue) {
                out.submitted.push((s.id, req));
            }
        }

        // DRR rule: no token accumulation while idle.
        if s.tokens.is_positive() {
            self.bucket.give(s.tokens);
            s.tokens = Tokens::ZERO;
        }
    }
}

impl<R> Default for ScheduleOutcome<R> {
    fn default() -> Self {
        ScheduleOutcome {
            submitted: Vec::new(),
            deficit_notifications: Vec::new(),
            reset_bucket: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(threads: u32) -> (QosScheduler<u32>, Arc<GlobalBucket>) {
        let bucket = Arc::new(GlobalBucket::new(threads));
        let s = QosScheduler::new(
            0,
            Arc::clone(&bucket),
            CostModel::for_device_a(),
            SchedulerParams::default(),
            SimTime::ZERO,
        );
        (s, bucket)
    }

    fn read_req(payload: u32) -> CostedRequest<u32> {
        CostedRequest {
            op: IoType::Read,
            len: 4096,
            payload,
        }
    }

    fn write_req(payload: u32) -> CostedRequest<u32> {
        CostedRequest {
            op: IoType::Write,
            len: 4096,
            payload,
        }
    }

    #[test]
    fn lc_tenant_receives_its_reservation() {
        let (mut s, _b) = sched(1);
        let id = TenantId(1);
        // 100K IOPS, 100% read -> 100K tokens/s = 1 token / 10us.
        s.register_lc(
            id,
            SloSpec::new(100_000, 100, SimDuration::from_micros(500)),
            4096,
        )
        .unwrap();
        let mut submitted = 0;
        let mut t = SimTime::ZERO;
        for i in 0..1_000 {
            s.enqueue(id, read_req(i)).unwrap();
            t += SimDuration::from_micros(10);
            submitted += s.schedule(t, LoadMix::Mixed).submitted.len();
        }
        // 10ms at 100K IOPS = 1000 requests; all should be admitted.
        assert!(submitted >= 950, "only {submitted}/1000 admitted");
    }

    #[test]
    fn lc_burst_rate_limited_at_neg_limit() {
        let (mut s, _b) = sched(1);
        let id = TenantId(1);
        // Tiny reservation: 1K IOPS at 100% read = 1 token/ms.
        s.register_lc(
            id,
            SloSpec::new(1_000, 100, SimDuration::from_millis(2)),
            4096,
        )
        .unwrap();
        // Enqueue a huge burst; with ~0 tokens, the tenant may run to a
        // deficit of 50 tokens but no further.
        for i in 0..500 {
            s.enqueue(id, read_req(i)).unwrap();
        }
        let out = s.schedule(SimTime::from_micros(1), LoadMix::Mixed);
        assert!(
            (50..=52).contains(&out.submitted.len()),
            "burst admitted {} requests; NEG_LIMIT should cap near 50",
            out.submitted.len()
        );
        // The tenant is now in deficit; the next round must notify.
        let out = s.schedule(SimTime::from_micros(2), LoadMix::Mixed);
        assert_eq!(out.submitted.len(), 0);
        assert_eq!(out.deficit_notifications, vec![id]);
    }

    #[test]
    fn lc_deficit_recovers_with_time() {
        let (mut s, _b) = sched(1);
        let id = TenantId(1);
        // 100K tokens/s => recovers 50 tokens in 0.5ms.
        s.register_lc(
            id,
            SloSpec::new(100_000, 100, SimDuration::from_micros(500)),
            4096,
        )
        .unwrap();
        for i in 0..200 {
            s.enqueue(id, read_req(i)).unwrap();
        }
        let first = s
            .schedule(SimTime::from_nanos(1), LoadMix::Mixed)
            .submitted
            .len();
        assert!(first < 60);
        // After 1ms the tenant earned 100 more tokens.
        let second = s
            .schedule(SimTime::from_millis(1), LoadMix::Mixed)
            .submitted
            .len();
        assert!((95..=105).contains(&second), "recovered {second}");
    }

    #[test]
    fn writes_cost_ten_reads_on_device_a() {
        let (mut s, _b) = sched(1);
        let id = TenantId(1);
        // 80% read SLO at 10K IOPS -> 0.8*10K*1 + 0.2*10K*10 = 28K tokens/s.
        s.register_lc(
            id,
            SloSpec::new(10_000, 80, SimDuration::from_millis(1)),
            4096,
        )
        .unwrap();
        assert_eq!(s.lc_rate(id).unwrap().as_millitokens_per_sec(), 28_000_000);
        // In 1ms the tenant earns 28 tokens: 2 writes (20) + 8 reads fit
        // exactly; the burst allowance (NEG_LIMIT) admits ~50 more tokens.
        for i in 0..2 {
            s.enqueue(id, write_req(i)).unwrap();
        }
        for i in 0..8 {
            s.enqueue(id, read_req(100 + i)).unwrap();
        }
        let out = s.schedule(SimTime::from_millis(1), LoadMix::Mixed);
        assert_eq!(out.submitted.len(), 10);
        let balance = s.tokens_of(id).unwrap();
        assert_eq!(balance, Tokens::ZERO);
    }

    #[test]
    fn lc_surplus_donated_to_bucket() {
        let (mut s, b) = sched(1);
        let id = TenantId(1);
        s.register_lc(
            id,
            SloSpec::new(100_000, 100, SimDuration::from_micros(500)),
            4096,
        )
        .unwrap();
        // Idle tenant earns 100 tokens over 1ms in one round; POS_LIMIT is
        // the last 3 rounds' generation (= 100 here), so nothing donated yet.
        s.schedule(SimTime::from_millis(1), LoadMix::Mixed);
        assert_eq!(b.balance(), Tokens::ZERO);
        // Keep idling with small rounds: once the balance exceeds the
        // last-3-rounds income (POS_LIMIT), 90% of it flows to the bucket.
        let peak = s.tokens_of(id).unwrap();
        let mut t = SimTime::from_millis(1);
        for _ in 0..5 {
            t += SimDuration::from_micros(30);
            s.schedule(t, LoadMix::Mixed);
        }
        let after = s.tokens_of(id).unwrap();
        assert!(
            after < peak.mul_f64(0.2),
            "surplus should be donated: peak={peak} after={after}"
        );
    }

    #[test]
    fn be_tenant_uses_fair_share_and_bucket() {
        let (mut s, b) = sched(2); // two threads: bucket won't reset here
        let id = TenantId(7);
        s.register_be(id).unwrap();
        s.set_be_rate(TokenRate::per_sec(10_000)); // 10 tokens/ms
        for i in 0..100 {
            s.enqueue(id, read_req(i)).unwrap();
        }
        // 1ms of fair share = 10 tokens -> 10 reads.
        let out = s.schedule(SimTime::from_millis(1), LoadMix::Mixed);
        assert_eq!(out.submitted.len(), 10);
        // Donate 30 tokens into the bucket; BE should claim them next round.
        b.give(Tokens::from_tokens(30));
        let out = s.schedule(SimTime::from_millis(2), LoadMix::Mixed);
        assert_eq!(out.submitted.len(), 40); // 10 fair share + 30 bucket
        assert_eq!(b.balance(), Tokens::ZERO);
    }

    #[test]
    fn be_cannot_accumulate_while_idle() {
        let (mut s, _b) = sched(2);
        // (peer thread emulated below via mark_round)
        let id = TenantId(7);
        s.register_be(id).unwrap();
        s.set_be_rate(TokenRate::per_sec(100_000));
        // Idle for 10ms: would be 1000 tokens if accumulation were allowed.
        // Emulate the peer thread also completing rounds so the shared
        // bucket resets periodically (its normal operating mode).
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            t += SimDuration::from_millis(1);
            s.schedule(t, LoadMix::Mixed);
            _b.mark_round(1);
        }
        assert_eq!(s.tokens_of(id).unwrap(), Tokens::ZERO);
        // A burst after idling gets only one round's generation...
        for i in 0..1_000 {
            s.enqueue(id, read_req(i)).unwrap();
        }
        t += SimDuration::from_millis(1);
        let out = s.schedule(t, LoadMix::Mixed);
        assert!(
            out.submitted.len() <= 110,
            "idle BE burst admitted {} requests",
            out.submitted.len()
        );
    }

    #[test]
    fn be_conditional_submission_blocks_unaffordable_writes() {
        let (mut s, _b) = sched(2);
        let id = TenantId(7);
        s.register_be(id).unwrap();
        s.set_be_rate(TokenRate::per_sec(5_000)); // 5 tokens/ms
        s.enqueue(id, write_req(0)).unwrap(); // costs 10
        let out = s.schedule(SimTime::from_millis(1), LoadMix::Mixed);
        assert!(
            out.submitted.is_empty(),
            "5 tokens cannot pay a 10-token write"
        );
        // Tokens were retained (demand exists), so next ms it can afford it.
        let out = s.schedule(SimTime::from_millis(2), LoadMix::Mixed);
        assert_eq!(out.submitted.len(), 1);
    }

    #[test]
    fn be_round_robin_rotates_priority() {
        let (mut s, b) = sched(2);
        let a = TenantId(1);
        let c = TenantId(2);
        s.register_be(a).unwrap();
        s.register_be(c).unwrap();
        s.set_be_rate(TokenRate::ZERO); // tenants live off the bucket only
        let mut t = SimTime::ZERO;
        let mut first_of_round = Vec::new();
        for round in 0..4 {
            for i in 0..4 {
                s.enqueue(a, read_req(round * 10 + i)).unwrap();
                s.enqueue(c, read_req(100 + round * 10 + i)).unwrap();
            }
            b.give(Tokens::from_tokens(1)); // only one request affordable
            t += SimDuration::from_micros(10);
            let out = s.schedule(t, LoadMix::Mixed);
            assert_eq!(out.submitted.len(), 1);
            first_of_round.push(out.submitted[0].0);
        }
        // Round-robin start position alternates between the two tenants.
        assert_eq!(first_of_round[0], a);
        assert_eq!(first_of_round[1], c);
        assert_eq!(first_of_round[2], a);
        assert_eq!(first_of_round[3], c);
    }

    #[test]
    fn read_only_mix_halves_read_cost() {
        let (mut s, _b) = sched(1);
        let id = TenantId(1);
        // 10K IOPS 100% read = 10 tokens/ms.
        s.register_lc(
            id,
            SloSpec::new(10_000, 100, SimDuration::from_millis(1)),
            4096,
        )
        .unwrap();
        // Drain the initial burst allowance so counting is exact: consume
        // the NEG_LIMIT credit with a first big round.
        for i in 0..200 {
            s.enqueue(id, read_req(i)).unwrap();
        }
        let first = s
            .schedule(SimTime::from_millis(1), LoadMix::ReadOnly)
            .submitted
            .len();
        // 10 tokens at 0.5/read = 20 reads, plus the 50-token deficit
        // allowance at 0.5/read = 100 more.
        assert!((118..=122).contains(&first), "got {first}");
    }

    #[test]
    fn registration_errors() {
        let (mut s, _b) = sched(1);
        let id = TenantId(1);
        s.register_be(id).unwrap();
        assert_eq!(s.register_be(id), Err(QosError::DuplicateTenant(id)));
        assert_eq!(
            s.register_lc(id, SloSpec::new(1, 100, SimDuration::ZERO), 4096),
            Err(QosError::DuplicateTenant(id))
        );
        assert_eq!(
            s.enqueue(TenantId(9), read_req(0)),
            Err(QosError::UnknownTenant(TenantId(9)))
        );
        assert!(s.unregister(TenantId(9)).is_err());
    }

    #[test]
    fn unregister_returns_queued_requests() {
        let (mut s, _b) = sched(1);
        let id = TenantId(1);
        s.register_be(id).unwrap();
        for i in 0..5 {
            s.enqueue(id, read_req(i)).unwrap();
        }
        let leftovers = s.unregister(id).unwrap();
        assert_eq!(leftovers.len(), 5);
        assert_eq!(s.tenant_counts(), (0, 0));
    }

    /// A moved tenant's requests are re-queued on the new thread in the
    /// order `unregister` hands them back, so both classes hand back their
    /// queue oldest first.
    #[test]
    fn unregister_hands_back_each_queue_oldest_first() {
        let (mut s, _b) = sched(1);
        let (lc, be) = (TenantId(1), TenantId(2));
        let slo = SloSpec::new(100_000, 100, SimDuration::from_micros(500));
        s.register_lc(lc, slo, 4096).unwrap();
        s.register_be(be).unwrap();
        for i in 0..5 {
            s.enqueue(lc, read_req(i)).unwrap();
            s.enqueue(be, write_req(10 + i)).unwrap();
        }
        let payloads = |q: Vec<CostedRequest<u32>>| q.into_iter().map(|r| r.payload).collect();
        let handed_back: Vec<u32> = payloads(s.unregister(lc).unwrap());
        assert_eq!(handed_back, [0, 1, 2, 3, 4]);
        let handed_back: Vec<u32> = payloads(s.unregister(be).unwrap());
        assert_eq!(handed_back, [10, 11, 12, 13, 14]);
    }

    /// A waiting request costs its record and a link, padded: 80 bytes
    /// for a dataplane's 72-byte `CostedRequest<ReqCtx>`. Idle tenants'
    /// queues own nothing, and drained nodes serve any tenant.
    #[test]
    fn a_node_is_a_request_and_a_link() {
        type Req = CostedRequest<[u64; 8]>;
        assert_eq!(std::mem::size_of::<Req>(), 72);
        assert_eq!(std::mem::size_of::<Node<[u64; 8]>>(), 80);

        let (mut s, _b) = sched(1);
        for t in 0..3 {
            s.register_be(TenantId(t)).unwrap();
        }
        assert_eq!(s.waiting.nodes.capacity(), 0);
        for i in 0..8 {
            s.enqueue(TenantId(i % 2), read_req(i)).unwrap();
        }
        s.unregister(TenantId(0)).unwrap();
        s.unregister(TenantId(1)).unwrap();
        for i in 0..8 {
            s.enqueue(TenantId(2), read_req(i)).unwrap();
        }
        assert_eq!(s.waiting.nodes.len(), 8);
        assert_eq!(s.queued_for(TenantId(2)), 8);
    }

    #[test]
    fn stats_track_submissions_and_spend() {
        let (mut s, _b) = sched(1);
        let id = TenantId(1);
        s.register_lc(
            id,
            SloSpec::new(100_000, 100, SimDuration::from_micros(500)),
            4096,
        )
        .unwrap();
        s.enqueue(id, read_req(0)).unwrap();
        s.enqueue(id, write_req(1)).unwrap();
        s.schedule(SimTime::from_millis(1), LoadMix::Mixed);
        let st = s.stats_for(id).unwrap();
        assert_eq!(st.submitted, 2);
        assert_eq!(st.spent_millitokens, 11_000); // 1 read + 1 write (10)
    }

    #[test]
    fn dram_hits_debit_locally_without_touching_flash_accounting() {
        let (mut s, _b) = sched(1);
        let lc = TenantId(1);
        let be = TenantId(2);
        s.register_lc(
            lc,
            SloSpec::new(100_000, 100, SimDuration::from_micros(500)),
            4096,
        )
        .unwrap();
        s.register_be(be).unwrap();
        let before = s.tokens_of(lc).unwrap();
        let cost = Tokens::from_millitokens(50);
        s.spend_dram_hit(lc, cost).unwrap();
        s.spend_dram_hit(be, cost).unwrap();
        assert_eq!(s.tokens_of(lc).unwrap(), before - cost);
        for id in [lc, be] {
            let st = s.stats_for(id).unwrap();
            assert_eq!(st.dram_hits, 1);
            assert_eq!(st.dram_spent_millitokens, 50);
            // Flash-side accounting untouched: hits never count as device
            // submissions or flash token spend.
            assert_eq!(st.submitted, 0);
            assert_eq!(st.spent_millitokens, 0);
        }
        assert_eq!(
            s.spend_dram_hit(TenantId(9), cost),
            Err(QosError::UnknownTenant(TenantId(9)))
        );
    }

    /// The benchmark's `tenants_rw` thread: 20 LC tenants in debt with
    /// nothing queued, 80 BE tenants with standing backlogs earning 5 mt a
    /// round against costs of 1 000 and 10 000 mt.
    fn starved(lc: u32, be: u32) -> (QosScheduler<u32>, Arc<GlobalBucket>) {
        let (mut s, b) = sched(2);
        for t in 0..lc {
            let slo = SloSpec::new(2_000, 80, SimDuration::from_millis(1));
            s.register_lc(TenantId(t), slo, 4096).unwrap();
            for i in 0..30 {
                s.enqueue(TenantId(t), read_req(i)).unwrap();
            }
        }
        for t in lc..lc + be {
            s.register_be(TenantId(t)).unwrap();
            for i in 0..64 {
                let req = if i % 2 == 0 {
                    read_req(i)
                } else {
                    write_req(i)
                };
                s.enqueue(TenantId(t), req).unwrap();
            }
        }
        s.set_be_rate(TokenRate::millitokens_per_sec(2_500_000));
        (s, b)
    }

    #[test]
    fn a_starved_round_visits_nobody() {
        let (mut s, _b) = starved(20, 80);
        let mut t = SimTime::ZERO;
        let mut submitted = 0;
        for _ in 0..1_000 {
            t += SimDuration::from_micros(2);
            submitted += s.schedule(t, LoadMix::Mixed).submitted.len();
        }
        // Round one visits all 100 and submits each LC tenant's 30 reads;
        // after that a BE tenant is due once in 200 or 2 000 rounds.
        assert_eq!(s.rounds(), 1_000);
        assert!(s.visits() <= 3_000, "{} visits in 1 000 rounds", s.visits());
        // 2 ms at 2.5 tokens/ms pays each BE tenant's first read and half
        // of the write behind it.
        assert_eq!(submitted, 20 * 30 + 80);
        assert_eq!(s.tokens_of(TenantId(20)), Some(Tokens::from_tokens(4)));
    }

    #[test]
    fn a_bucket_gift_reaches_the_parked_tenant_at_the_cursor() {
        let (mut s, b) = sched(2);
        for t in 0..3 {
            s.register_be(TenantId(t)).unwrap();
            for i in 0..4 {
                s.enqueue(TenantId(t), read_req(i)).unwrap();
            }
        }
        // No income: after one round all three are parked for good.
        let mut t = SimTime::ZERO;
        for _ in 0..2 {
            t += SimDuration::from_micros(10);
            assert!(s.schedule(t, LoadMix::Mixed).submitted.is_empty());
        }
        assert_eq!(s.visits(), 3);
        // The cursor stands at tenant 2, then 0: one read's worth in the
        // bucket is taken by exactly that tenant, and the walk ends there.
        for (visits, at_cursor) in [(4, TenantId(2)), (5, TenantId(0))] {
            b.give(Tokens::from_tokens(1));
            t += SimDuration::from_micros(10);
            let out = s.schedule(t, LoadMix::Mixed);
            assert_eq!(out.submitted.len(), 1);
            assert_eq!(out.submitted[0].0, at_cursor);
            assert_eq!(s.visits(), visits);
        }
    }

    #[test]
    fn tokens_of_reads_through_a_parked_tenant() {
        let (mut s, _b) = starved(1, 1);
        let (lc, be) = (TenantId(0), TenantId(1));
        s.schedule(SimTime::from_micros(2), LoadMix::Mixed);
        // 5 600 tokens/s for the LC tenant (2 000 IOPS at 80 % reads).
        assert_eq!(
            s.tokens_of(lc),
            Some(Tokens::from_millitokens(-30_000 + 11))
        );
        assert_eq!(s.tokens_of(be), Some(Tokens::from_millitokens(5)));
        let (visits, generated) = (s.visits(), s.generated());
        for round in 2..=100i64 {
            s.schedule(SimTime::from_micros(2 * round as u64), LoadMix::Mixed);
            let lc_income = 5_600 * 2 * round / 1_000;
            assert_eq!(
                s.tokens_of(lc),
                Some(Tokens::from_millitokens(-30_000 + lc_income))
            );
            assert_eq!(s.tokens_of(be), Some(Tokens::from_millitokens(5 * round)));
            assert_eq!(
                s.generated() - generated,
                Tokens::from_millitokens(lc_income - 11 + 5 * (round - 1))
            );
        }
        assert_eq!(s.visits(), visits, "both tenants stay parked");
    }

    #[test]
    fn a_zero_round_history_donates_every_idle_surplus() {
        let bucket = Arc::new(GlobalBucket::new(2));
        let params = SchedulerParams {
            pos_history_rounds: 0,
            ..SchedulerParams::default()
        };
        let model = CostModel::for_device_a();
        let mut s: QosScheduler<u32> =
            QosScheduler::new(0, Arc::clone(&bucket), model, params, SimTime::ZERO);
        let id = TenantId(1);
        let slo = SloSpec::new(100_000, 100, SimDuration::from_micros(500));
        s.register_lc(id, slo, 4096).unwrap();
        // 100 tokens a round, POS_LIMIT = 0: nine tenths of the balance go
        // to the bucket every round, so it settles at 100 / 0.9.
        for ms in 1..=20 {
            s.schedule(SimTime::from_millis(ms), LoadMix::Mixed);
        }
        assert_eq!(s.tokens_of(id), Some(Tokens::from_millitokens(11_112)));
        assert_eq!(
            bucket.balance(),
            Tokens::from_tokens(2_000) - Tokens::from_millitokens(11_112)
        );
    }

    #[test]
    fn token_conservation_across_lc_and_be() {
        // Generated tokens = spent + held + bucket (+donations consumed by
        // BE). With one thread the bucket resets every round, so run rounds and
        // check the inequality: spent <= generated + NEG allowance.
        let (mut s, _b) = sched(2);
        let lc = TenantId(1);
        let be = TenantId(2);
        s.register_lc(
            lc,
            SloSpec::new(50_000, 80, SimDuration::from_micros(500)),
            4096,
        )
        .unwrap();
        s.register_be(be).unwrap();
        s.set_be_rate(TokenRate::per_sec(20_000));
        let mut t = SimTime::ZERO;
        let mut rng = 1u64;
        for i in 0..2_000u32 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            t += SimDuration::from_micros(20);
            if !rng.is_multiple_of(3) {
                let req = if rng % 10 < 8 {
                    read_req(i)
                } else {
                    write_req(i)
                };
                s.enqueue(lc, req).unwrap();
            }
            if rng.is_multiple_of(2) {
                s.enqueue(be, read_req(i)).unwrap();
            }
            s.schedule(t, LoadMix::Mixed);
        }
        let elapsed_s = t.as_secs_f64();
        let lc_gen = 130_000.0 * elapsed_s; // 50K*0.8 + 50K*0.2*10 = 130K tok/s
        let be_gen = 20_000.0 * elapsed_s;
        let lc_spent = s.stats_for(lc).unwrap().spent_millitokens as f64 / 1000.0;
        let be_spent = s.stats_for(be).unwrap().spent_millitokens as f64 / 1000.0;
        assert!(
            lc_spent <= lc_gen + 50.0 + 1.0,
            "LC overspent: {lc_spent} > {lc_gen}"
        );
        // BE can also consume LC donations, so its bound includes LC slack.
        assert!(
            be_spent <= be_gen + (lc_gen - lc_spent) + 1.0,
            "BE overspent: {be_spent} vs gen {be_gen} + slack {}",
            lc_gen - lc_spent
        );
    }
}
