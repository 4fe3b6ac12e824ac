//! The replicated world: clients ↔ fabric ↔ N ReFlex server sites.
//!
//! [`ReplWorld`] mirrors the single-server testbed's `World` (see
//! `reflex-core/src/testbed.rs`) event for event — canonical ascending
//! wake servicing, the same wake rule, slab-pooled in-flight state — and
//! extends it with the replication data path: every op fans out 1..R
//! *sub-requests*, one per chosen replica member, and completes when an
//! ack quorum arrives.
//!
//! Two slab pools carry the fan-out state with zero per-IO heap
//! allocation: `ops` holds one [`ReplOp`] per logical request (quorum
//! accounting), `subs` holds one [`SubReq`] per in-flight wire attempt.
//! The sub slab's generation-checked key packs into the wire cookie, so
//! responses, duplicates and stale timeouts resolve by index exactly
//! like the single-server client.

use reflex_core::{
    quorum, ReadPolicy, ReflexServer, ReplicaSets, ServerHarness, ServerId, MAX_REPLICAS,
};
use reflex_dataplane::{AclEntry, WireMsg};
use reflex_flash::FlashDevice;
use reflex_net::{ConnId, Delivery, Fabric, MachineId, Opcode, ReflexHeader, StackProfile};
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::{Ctx, PoolKey, SimDuration, SimTime, SlabPool, TypedEvent, WakeSlots};
use reflex_telemetry::{Stage, Telemetry, TenantKey};

use crate::state::ReplState;

/// One server site: a ReFlex server machine with its own Flash device.
pub(crate) struct SiteState {
    pub server: ReflexServer,
    pub device: FlashDevice,
}

/// One member of a workload's replica set, as the data path sees it.
#[derive(Debug, Clone)]
pub(crate) struct MemberLink {
    /// Site index hosting this member.
    pub site: usize,
    /// Client connections to that site, one ring per member.
    pub conns: Vec<ConnId>,
    /// A freshly-placed replacement serves writes immediately but is not
    /// read-eligible until its background re-sync completes.
    pub resyncing: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct ClientMachine {
    pub machine: MachineId,
    pub stack: StackProfile,
}

/// Quorum accounting for one logical request. Lives in the `ops` slab;
/// freed when the last sub-request concludes (`pending == 0`), which may
/// be after the op itself completed or failed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplOp {
    pub w_idx: u32,
    pub conn_idx: u32,
    /// Membership epoch at issue. Retries are fenced on epoch change:
    /// an attempt issued under the old membership must not silently
    /// migrate onto a replacement member (see [`ReplWorld::send_sub`]).
    pub epoch: u32,
    pub sent_at: SimTime,
    pub addr: u64,
    pub len: u32,
    pub is_read: bool,
    pub measured: bool,
    /// Acks required (the quorum).
    pub needed: u8,
    /// Acks received so far.
    pub acks: u8,
    /// Sub-requests still in flight (including retries).
    pub pending: u8,
    /// Concluded (completed or failed); stragglers only decrement
    /// `pending` from here on.
    pub done: bool,
    pub failed: bool,
}

/// One in-flight wire attempt of one sub-request. Its slab key is the
/// wire cookie.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubReq {
    pub op: PoolKey,
    pub slot: u8,
    pub attempt: u32,
}

impl SubReq {
    /// The event that transmits this sub-request's next attempt.
    fn retry(self) -> ReplEvent {
        ReplEvent::RetrySub {
            op: self.op,
            slot: self.slot,
            attempt: self.attempt + 1,
        }
    }
}

/// What failover did for one tenant, stamped with simulated instants —
/// the raw material for the recovery-time figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRecovery {
    /// The affected tenant.
    pub tenant: TenantId,
    /// Instant its member's server died.
    pub died_at: SimTime,
    /// Instant the coordinator ran failover (death + detection delay).
    pub failover_at: SimTime,
    /// Instant the replacement member finished re-syncing and became
    /// read-eligible (`None` if the set degraded instead).
    pub resync_done_at: Option<SimTime>,
    /// Replacement site (`None` if the set degraded).
    pub new_site: Option<usize>,
}

/// The replication events: plain data, so neither the steady-state path
/// nor a retry storm allocates per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplEvent {
    /// Wake server site `i` and run its dataplane pump loop.
    Pump(usize),
    /// Poll client machine `i` for delivered responses.
    ClientPoll(usize),
    /// Response deadline for the sub-request whose slab key packs to
    /// `cookie` (generation-checked: stale deadlines are no-ops).
    SubTimeout(u64),
    /// A backoff elapsed: transmit attempt `attempt` of op `op`'s
    /// sub-request to replica slot `slot`.
    RetrySub {
        /// The op's slab key.
        op: PoolKey,
        /// Replica slot.
        slot: u8,
        /// Attempt number (2 or higher).
        attempt: u32,
    },
    /// Open-loop generator tick for workload `i`.
    OpenLoopGen(usize),
    /// Periodic control-plane tick on every live site.
    Control(SimDuration),
    /// Site `i`'s server dies (bookkeeping; the armed fault hooks do the
    /// actual damage).
    ServerDeath(usize),
    /// The cluster coordinator detects site `i`'s death and fails over.
    Failover(usize),
    /// Replacement member `slot` of workload `w_idx` finished re-syncing
    /// under membership `epoch`.
    ResyncDone {
        /// Workload index.
        w_idx: usize,
        /// Replica slot.
        slot: usize,
        /// Membership epoch the re-sync started under; a stale epoch
        /// (another failover happened meanwhile) is ignored.
        epoch: u32,
    },
    /// Re-arm every site's wake from its round grid: a control-plane call
    /// made between runs cut a sleeping thread's sleep short.
    Rearm,
}

impl TypedEvent<ReplWorld> for ReplEvent {
    fn dispatch(self, world: &mut ReplWorld, ctx: &mut Ctx<'_, ReplWorld, ReplEvent>) {
        match self {
            ReplEvent::Pump(i) => world.pump_event(i, ctx),
            ReplEvent::ClientPoll(i) => world.client_poll_event(i, ctx),
            ReplEvent::SubTimeout(cookie) => world.sub_timeout_event(cookie, ctx),
            ReplEvent::RetrySub { op, slot, attempt } => {
                world.send_sub(op, slot as usize, attempt, ctx);
            }
            ReplEvent::OpenLoopGen(i) => world.open_loop_gen_event(i, ctx),
            ReplEvent::Control(interval) => world.control_event(interval, ctx),
            ReplEvent::ServerDeath(site) => world.server_death_event(site, ctx),
            ReplEvent::Failover(site) => world.failover_event(site, ctx),
            ReplEvent::ResyncDone { w_idx, slot, epoch } => {
                world.resync_done_event(w_idx, slot, epoch);
            }
            ReplEvent::Rearm => world.rearm_sites(ctx),
        }
    }
}

/// The replicated simulation world.
pub struct ReplWorld {
    pub(crate) fabric: Fabric<WireMsg>,
    pub(crate) sites: Vec<SiteState>,
    pub(crate) site_machines: Vec<MachineId>,
    pub(crate) alive: Vec<bool>,
    pub(crate) death_at: Vec<Option<SimTime>>,
    /// Replica-set coordinator.
    pub(crate) coord: ReplicaSets,
    pub(crate) gen_seed: u64,
    pub(crate) clients: Vec<ClientMachine>,
    pub(crate) workloads: Vec<ReplState>,
    pub(crate) client_threads_busy: Vec<Vec<SimTime>>, // [workload][client thread]
    pub(crate) ops: SlabPool<ReplOp>,
    pub(crate) subs: SlabPool<SubReq>,
    pub(crate) poll_scratch: Vec<Delivery<WireMsg>>,
    pub(crate) site_wake: WakeSlots,
    pub(crate) client_wake: WakeSlots,
    pub(crate) measure_start: Option<SimTime>,
    /// Death → failover delay (the coordinator's detection time).
    pub(crate) detect_delay: SimDuration,
    /// Modelled background re-sync copy rate for replacement members.
    pub(crate) resync_bytes_per_sec: f64,
    pub(crate) timeline: Vec<TenantRecovery>,
    pub(crate) telemetry: Telemetry,
}

impl std::fmt::Debug for ReplWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplWorld")
            .field("sites", &self.sites.len())
            .field("workloads", &self.workloads.len())
            .field("ops", &self.ops.len())
            .field("subs", &self.subs.len())
            .finish()
    }
}

impl ReplWorld {
    /// The network fabric (fault injection installs hooks here).
    pub fn fabric_mut(&mut self) -> &mut Fabric<WireMsg> {
        &mut self.fabric
    }

    /// Number of client machines.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Machine id of client `idx`.
    pub fn client_machine(&self, idx: usize) -> MachineId {
        self.clients[idx].machine
    }

    /// Site indices of workload `w_idx`'s current members, slot order.
    pub fn member_sites(&self, w_idx: usize) -> Vec<usize> {
        self.workloads[w_idx]
            .members
            .iter()
            .map(|m| m.site)
            .collect()
    }

    /// Current primary slot of workload `w_idx`.
    pub fn primary_slot(&self, w_idx: usize) -> usize {
        self.workloads[w_idx].primary
    }

    /// Current membership epoch of workload `w_idx`. Bumped by every
    /// failover action; in-flight operations issued under an older epoch
    /// are fenced (fail fast) rather than redirected, so observers must
    /// only ever see this value increase.
    pub fn epoch(&self, w_idx: usize) -> u32 {
        self.workloads[w_idx].epoch
    }

    /// Stops every workload generator so in-flight queues can drain.
    pub fn stop_all_workloads(&mut self) {
        for w in &mut self.workloads {
            w.stopped = true;
        }
    }

    /// The failover timeline so far.
    pub fn timeline(&self) -> &[TenantRecovery] {
        &self.timeline
    }

    fn ensure_site_wake(&mut self, ctx: &mut Ctx<ReplWorld, ReplEvent>, site: usize, at: SimTime) {
        self.site_wake.arm(ctx, site, at, ReplEvent::Pump(site));
    }

    fn ensure_client_wake(&mut self, ctx: &mut Ctx<ReplWorld, ReplEvent>, client: usize) {
        if let Some(at) = self.fabric.next_arrival(self.clients[client].machine) {
            self.client_wake
                .arm(ctx, client, at, ReplEvent::ClientPoll(client));
        }
    }

    /// Arms every site at the instant its thread's round grid asks for:
    /// after a control-plane entry, which may have cut a sleep short.
    /// Sites share no bucket and no device, so unlike the core testbed's
    /// threads they need no common settle order.
    pub(crate) fn rearm_sites(&mut self, ctx: &mut Ctx<ReplWorld, ReplEvent>) {
        for site in 0..self.sites.len() {
            let server = &mut self.sites[site].server;
            server.take_woken();
            if let Some(at) = server.round_wake(0, ctx.now()) {
                self.ensure_site_wake(ctx, site, at);
            }
        }
    }

    /// Settles every site's slept-through rounds strictly before `before`.
    pub(crate) fn settle(&mut self, before: SimTime) {
        for st in &mut self.sites {
            st.server.settle(before);
        }
    }

    fn pump_event(&mut self, site: usize, ctx: &mut Ctx<ReplWorld, ReplEvent>) {
        // Canonical same-instant order (see the core testbed): one pump
        // event services every site whose wake is due, ascending.
        for i in 0..self.site_wake.slots() {
            if self.site_wake.take_due(ctx, i, i == site) {
                self.pump_one(i, ctx);
            }
        }
    }

    fn pump_one(&mut self, site: usize, ctx: &mut Ctx<ReplWorld, ReplEvent>) {
        // Same wake rule as the core testbed's `pump_one`: the pumped site
        // arms once, at the earlier of its queue's next arrival and the
        // pump's hint; clients re-arm from their own queues.
        let st = &mut self.sites[site];
        let hint = st
            .server
            .pump_thread(0, ctx.now(), &mut self.fabric, &mut st.device);
        let own = self
            .fabric
            .next_arrival_queue(self.site_machines[site], st.server.nic_queue(0));
        if let Some(at) = SimTime::earlier(own, hint) {
            self.ensure_site_wake(ctx, site, at);
        }
        for c in 0..self.clients.len() {
            self.ensure_client_wake(ctx, c);
        }
    }

    fn client_poll_event(&mut self, client: usize, ctx: &mut Ctx<ReplWorld, ReplEvent>) {
        for c in 0..self.clients.len() {
            if self.client_wake.take_due(ctx, c, c == client) {
                self.poll_client(c, ctx);
            }
        }
    }

    fn poll_client(&mut self, client: usize, ctx: &mut Ctx<ReplWorld, ReplEvent>) {
        let machine = self.clients[client].machine;
        let mut deliveries = std::mem::take(&mut self.poll_scratch);
        self.fabric
            .poll_into(ctx.now(), machine, usize::MAX, &mut deliveries);
        for d in deliveries.drain(..) {
            let Ok(header) = ReflexHeader::decode(&d.payload) else {
                continue;
            };
            let Some(sub) = self.subs.take(PoolKey::from_u64(header.cookie)) else {
                // Duplicate delivery or a response to an attempt that
                // already timed out — ignored, like the core client.
                continue;
            };
            let Some(op) = self.ops.get(sub.op).copied() else {
                continue; // cannot happen while the sub held a pending slot
            };
            let policy = self.workloads[op.w_idx as usize].spec.retry;
            if header.opcode == Opcode::Error && !op.done && sub.attempt < policy.max_attempts {
                // Retryable failure: back off and retransmit (same-epoch
                // only — send_sub fences retries that cross a failover).
                self.workloads[op.w_idx as usize].retries += 1;
                let backoff = policy.backoff_after(sub.attempt);
                ctx.schedule_event_after(backoff, sub.retry());
                continue;
            }
            let acked = header.opcode != Opcode::Error;
            self.conclude_sub(sub.op, acked, sub.attempt, d.arrived_at);
        }
        self.poll_scratch = deliveries;
        self.ensure_client_wake(ctx, client);
    }

    /// Folds one concluded sub-request into its op's quorum accounting
    /// and records the op's completion or failure when it tips over.
    fn conclude_sub(&mut self, op_key: PoolKey, acked: bool, attempt: u32, at: SimTime) {
        let Some(op) = self.ops.get_mut(op_key) else {
            return;
        };
        op.pending -= 1;
        let done_before = op.done;
        if acked {
            op.acks += 1;
        }
        let completes = !done_before && op.acks >= op.needed;
        let fails = !done_before && !completes && op.acks + op.pending < op.needed;
        if completes || fails {
            op.done = true;
        }
        if fails {
            op.failed = true;
        }
        let snap = *op;
        if snap.pending == 0 {
            self.ops.take(op_key);
        }
        let measure_start = self.measure_start;
        let w = &mut self.workloads[snap.w_idx as usize];
        if acked && attempt > 1 && !done_before {
            w.retry_success += 1;
        }
        if completes {
            let in_window = measure_start.is_some_and(|m| at >= m);
            if in_window {
                let since = at.saturating_since(measure_start.expect("checked in_window"));
                w.iops_series.add(SimTime::ZERO + since, 1);
                if snap.is_read {
                    w.completed_reads += 1;
                    w.read_bytes += snap.len as u64;
                } else {
                    w.completed_writes += 1;
                    w.write_bytes += snap.len as u64;
                }
                // Latency covers the whole op: issue → quorum reached
                // (for quorum reads that is the max of the quorum).
                if snap.measured {
                    let latency = at.saturating_since(snap.sent_at);
                    if snap.is_read {
                        w.read_hist.record(latency);
                        self.telemetry
                            .slo_observe(TenantKey(w.spec.tenant.0), latency, at);
                    } else {
                        w.write_hist.record(latency);
                    }
                }
            }
        } else if fails {
            w.exhausted += 1;
            if measure_start.is_some_and(|m| at >= m) {
                w.errors += 1;
            }
            // A failed read still held the application from issue to
            // exhaustion; account that wait against the tenant's SLO
            // windows so an outage shows up as violations, not silence.
            // (The latency histograms stay completions-only.)
            if snap.measured && snap.is_read {
                let latency = at.saturating_since(snap.sent_at);
                self.telemetry
                    .slo_observe(TenantKey(w.spec.tenant.0), latency, at);
            }
        }
    }

    /// Transmits one attempt of one sub-request. The member is resolved
    /// from the workload's *current* membership at send time; retries
    /// that cross a failover are epoch-fenced (fail fast) rather than
    /// redirected onto the replacement.
    fn send_sub(
        &mut self,
        op_key: PoolKey,
        slot: usize,
        attempt: u32,
        ctx: &mut Ctx<ReplWorld, ReplEvent>,
    ) {
        let Some(op) = self.ops.get(op_key).copied() else {
            return; // op already freed — stale retry, nothing to do
        };
        if op.done {
            // Quorum already reached (or lost): don't put more attempts
            // on the wire, just release this sub's pending slot.
            self.conclude_sub(op_key, false, attempt, ctx.now());
            return;
        }
        let w_idx = op.w_idx as usize;
        if slot >= self.workloads[w_idx].members.len() {
            // The set degraded and this slot no longer exists.
            self.conclude_sub(op_key, false, attempt, ctx.now());
            return;
        }
        if attempt > 1 && op.epoch != self.workloads[w_idx].epoch {
            // Epoch fence. Every op that was in flight when the set
            // reshaped would otherwise retry onto the fresh replacement
            // at the failover instant — a thundering herd that pushes
            // the replacement past its token reservation right as new
            // ops start arriving, and (at R=2, where the quorum needs
            // every member) can keep its queue in a retransmission-fed
            // overload that never drains. Failing the old-epoch attempt
            // fast is also the honest semantics: the replacement learns
            // pre-failover writes from re-sync, not from replayed wire
            // messages.
            self.conclude_sub(op_key, false, attempt, ctx.now());
            return;
        }
        let now = ctx.now();
        let (site, conn, tenant, timeout, client_idx, th) = {
            let w = &self.workloads[w_idx];
            let m = &w.members[slot];
            (
                m.site,
                m.conns[op.conn_idx as usize],
                w.spec.tenant,
                w.spec
                    .retry
                    .timeout
                    .expect("validated: replication requires per-attempt deadlines"),
                w.spec.client_machine,
                (op.conn_idx % w.spec.client_threads) as usize,
            )
        };
        // Client thread gating: every sub-request costs per-message CPU
        // on the issuing stack thread, so fan-out inflates client-side
        // serialization exactly as it would on real hardware.
        let per_msg = self.clients[client_idx].stack.per_msg_cpu;
        let busy = &mut self.client_threads_busy[w_idx][th];
        let t_send = now.max(*busy);
        *busy = t_send + per_msg;
        self.telemetry.span(
            TenantKey(tenant.0),
            Stage::Ingress,
            t_send.saturating_since(now),
        );
        let sub_key = self.subs.insert(SubReq {
            op: op_key,
            slot: slot as u8,
            attempt,
        });
        let cookie = sub_key.as_u64();
        let header = ReflexHeader {
            opcode: if op.is_read { Opcode::Get } else { Opcode::Put },
            tenant: tenant.0,
            cookie,
            addr: op.addr,
            len: op.len,
        };
        let payload = if op.is_read { 0 } else { op.len };
        let client_machine = self.clients[client_idx].machine;
        let to = self.site_machines[site];
        let queue = self.sites[site].server.route(conn).unwrap_or_default();
        let arrival = self.fabric.send_to_queue(
            t_send,
            client_machine,
            to,
            queue,
            conn,
            payload,
            header.encode_array(),
        );
        self.ensure_site_wake(ctx, site, arrival);
        // RTO-style deadline widening: attempt k waits 2^(k-1) × the base
        // deadline. A member that is healthy but queue-delayed (e.g. a
        // fresh replacement absorbing the post-failover inrush) answers
        // late; fixed deadlines would declare every such response stale
        // and retransmit, and at R=2 — where the quorum needs *every*
        // member — that feedback loop multiplies the arrival rate past
        // the member's service rate and the queue never drains. Widening
        // lets a late attempt accept the delayed response, which caps the
        // retransmission rate and lets the backlog clear.
        let deadline = timeout.mul_f64((1u64 << (attempt - 1).min(16)) as f64);
        ctx.schedule_event_at(t_send + deadline, ReplEvent::SubTimeout(cookie));
    }

    fn sub_timeout_event(&mut self, cookie: u64, ctx: &mut Ctx<ReplWorld, ReplEvent>) {
        let Some(sub) = self.subs.take(PoolKey::from_u64(cookie)) else {
            return; // answered in time
        };
        let Some(op) = self.ops.get(sub.op).copied() else {
            return;
        };
        let w = &mut self.workloads[op.w_idx as usize];
        w.timeouts += 1;
        let policy = w.spec.retry;
        if !op.done && sub.attempt < policy.max_attempts {
            w.retries += 1;
            let backoff = policy.backoff_after(sub.attempt);
            ctx.schedule_event_after(backoff, sub.retry());
        } else {
            self.conclude_sub(sub.op, false, sub.attempt, ctx.now());
        }
    }

    fn open_loop_gen_event(&mut self, w_idx: usize, ctx: &mut Ctx<ReplWorld, ReplEvent>) {
        if self.workloads[w_idx].stopped {
            return;
        }
        self.issue_op(w_idx, ctx);
        let w = &mut self.workloads[w_idx];
        let mean = SimDuration::from_secs_f64(1.0 / w.spec.iops);
        let gap = match w.spec.arrival {
            reflex_core::ArrivalProcess::Poisson => w.rng.exponential(mean),
            reflex_core::ArrivalProcess::Paced => mean.mul_f64(0.9 + 0.2 * w.rng.f64()),
        };
        ctx.schedule_event_after(gap, ReplEvent::OpenLoopGen(w_idx));
    }

    /// Issues one logical op: draws address and read/write mix from the
    /// workload's private stream, picks fan-out targets, registers the
    /// op and transmits its sub-requests.
    fn issue_op(&mut self, w_idx: usize, ctx: &mut Ctx<ReplWorld, ReplEvent>) {
        let now = ctx.now();
        let measured = self.measure_start.is_some_and(|m| now >= m);
        let w = &mut self.workloads[w_idx];
        let r = w.members.len();
        if r == 0 {
            // Fully degraded set: nothing to send to.
            w.exhausted += 1;
            return;
        }
        let size = w.spec.io_size as u64;
        let (ns_start, ns_len) = w.spec.namespace;
        let slots = (ns_len / size).max(1);
        let addr = ns_start + w.rng.below(slots) * size;
        // Deterministic read/write interleaving: an accumulator spreads
        // reads evenly so every run sees the same sequence.
        w.read_debt += w.spec.read_pct as u32;
        let is_read = if w.read_debt >= 100 {
            w.read_debt -= 100;
            true
        } else {
            false
        };
        let conn_idx = (w.conn_rr % w.spec.conns as u64) as u32;
        w.conn_rr += 1;
        // Fan-out targets live in a fixed array — the hot path allocates
        // nothing per IO.
        let mut targets = [0usize; MAX_REPLICAS];
        let n_targets;
        let needed;
        if is_read {
            match w.spec.read_policy {
                ReadPolicy::Primary => {
                    targets[0] = w.primary;
                    n_targets = 1;
                    needed = 1;
                }
                ReadPolicy::Quorum => {
                    // The primary anchors every read quorum (it sees every
                    // quorum write, so anchored reads are read-your-writes
                    // across promotions); the remaining Q-1 members rotate
                    // so secondary read load spreads. Re-syncing members
                    // are used only when too few eligible members remain
                    // (keeps ops flowing while degraded — the simulation
                    // carries no data contents to go stale).
                    let q = quorum(r);
                    let start = (w.op_rr % r as u64) as usize;
                    let mut selected = [false; MAX_REPLICAS];
                    let mut n = 0;
                    if !w.members[w.primary].resyncing {
                        targets[0] = w.primary;
                        selected[w.primary] = true;
                        n = 1;
                    }
                    for off in 0..r {
                        if n == q {
                            break;
                        }
                        let s = (start + off) % r;
                        if !selected[s] && !w.members[s].resyncing {
                            targets[n] = s;
                            selected[s] = true;
                            n += 1;
                        }
                    }
                    for off in 0..r {
                        if n == q {
                            break;
                        }
                        let s = (start + off) % r;
                        if !selected[s] {
                            targets[n] = s;
                            selected[s] = true;
                            n += 1;
                        }
                    }
                    n_targets = n;
                    needed = q;
                }
            }
        } else {
            // Writes fan out to every member; a majority of acks
            // completes the op.
            for (s, t) in targets.iter_mut().enumerate().take(r) {
                *t = s;
            }
            n_targets = r;
            needed = quorum(r);
        }
        w.op_rr += 1;
        if measured {
            w.issued += 1;
        }
        let len = w.spec.io_size;
        let key = self.ops.insert(ReplOp {
            w_idx: w_idx as u32,
            conn_idx,
            epoch: w.epoch,
            sent_at: now,
            addr,
            len,
            is_read,
            measured,
            needed: needed as u8,
            acks: 0,
            pending: n_targets as u8,
            done: false,
            failed: false,
        });
        for &slot in targets.iter().take(n_targets) {
            self.send_sub(key, slot, 1, ctx);
        }
    }

    fn control_event(&mut self, interval: SimDuration, ctx: &mut Ctx<ReplWorld, ReplEvent>) {
        for st in &mut self.sites {
            let _ = st.server.control_tick(ctx.now(), interval);
        }
        self.rearm_sites(ctx);
        ctx.schedule_event_after(interval, ReplEvent::Control(interval));
    }

    fn server_death_event(&mut self, site: usize, ctx: &mut Ctx<ReplWorld, ReplEvent>) {
        self.alive[site] = false;
        self.death_at[site] = Some(ctx.now());
        self.telemetry.count("replication.server_deaths", 1);
        // The armed hooks do the damage: the site's NIC links went dark
        // (messages to/from it are black-holed at send time, so they are
        // never device-submitted) and its device aborts every queued and
        // future command. The dead site keeps being pumped so queued
        // work drains into counted failures — conservation holds.
    }

    /// The coordinator detects the death and re-shapes every affected
    /// replica set: promotion, replacement placement, connection binding
    /// and the re-sync timer.
    fn failover_event(&mut self, site: usize, ctx: &mut Ctx<ReplWorld, ReplEvent>) {
        let Ok(fo) = self.coord.fail_server(ServerId(site as u32)) else {
            return;
        };
        let now = ctx.now();
        let died_at = self.death_at[site].unwrap_or(now);
        for action in fo.actions {
            let Some(w_idx) = self
                .workloads
                .iter()
                .position(|w| w.spec.tenant == action.tenant)
            else {
                continue;
            };
            if let Some(sid) = action.new_member {
                let new_site = sid.0 as usize;
                let spec = self.workloads[w_idx].spec.clone();
                let acl = AclEntry {
                    ns_start: spec.namespace.0,
                    ns_len: spec.namespace.1,
                    allow_read: true,
                    allow_write: true,
                    allowed_clients: None,
                };
                let client_machine = self.clients[spec.client_machine].machine;
                let server = &mut self.sites[new_site].server;
                server.settle(now);
                let _ = server.register_tenant(
                    spec.tenant,
                    TenantClass::LatencyCritical(spec.slo),
                    acl,
                    spec.io_size,
                );
                let mut conns = Vec::with_capacity(spec.conns as usize);
                for _ in 0..spec.conns {
                    let conn = self.fabric.new_conn();
                    if server
                        .bind_connection(conn, spec.tenant, client_machine)
                        .is_ok()
                    {
                        conns.push(conn);
                    }
                }
                let w = &mut self.workloads[w_idx];
                w.members[action.replaced_slot] = MemberLink {
                    site: new_site,
                    conns,
                    resyncing: true,
                };
                w.primary = action.promoted_primary;
                w.epoch = action.epoch;
                // Re-sync: control-plane re-admission (the action's
                // queued estimate) plus copying the namespace at the
                // modelled background rate. Write-eligible immediately,
                // read-eligible when done.
                let bytes = w.spec.namespace.1 as f64;
                let resync = action.latency_estimate
                    + SimDuration::from_secs_f64(bytes / self.resync_bytes_per_sec);
                let done_at = now + resync;
                ctx.schedule_event_at(
                    done_at,
                    ReplEvent::ResyncDone {
                        w_idx,
                        slot: action.replaced_slot,
                        epoch: action.epoch,
                    },
                );
                self.timeline.push(TenantRecovery {
                    tenant: action.tenant,
                    died_at,
                    failover_at: now,
                    resync_done_at: Some(done_at),
                    new_site: Some(new_site),
                });
            } else {
                let w = &mut self.workloads[w_idx];
                w.members.remove(action.replaced_slot);
                w.primary = action.promoted_primary;
                w.epoch = action.epoch;
                self.timeline.push(TenantRecovery {
                    tenant: action.tenant,
                    died_at,
                    failover_at: now,
                    resync_done_at: None,
                    new_site: None,
                });
            }
        }
        self.rearm_sites(ctx);
    }

    fn resync_done_event(&mut self, w_idx: usize, slot: usize, epoch: u32) {
        let w = &mut self.workloads[w_idx];
        if w.epoch == epoch && slot < w.members.len() {
            w.members[slot].resyncing = false;
            self.telemetry.count("replication.resyncs_done", 1);
        }
    }
}
