//! Client-driven replication: the part of the world that only a
//! replicated workload reaches.
//!
//! ReFlex (§6.3 of the paper) leaves replication to the client: servers
//! stay single-site dataplanes, and a client that wants to survive a
//! server loss writes to R of them. A replicated request is a
//! [`ReplOp`] in the world's `ops` slab plus one ordinary attempt per
//! chosen member, each carrying a `fan` that points back at it — so
//! responses, duplicates, timeouts and retries of a member's share take
//! the one path every request takes, and only what is decided per op
//! lives here: which members a request goes to, when a quorum is
//! reached or lost, the epoch fence, and failover.
//!
//! - **Writes** fan out to every member and complete when a majority
//!   (`W = ⌊R/2⌋ + 1`) ack.
//! - **Reads** go to the primary alone, or to a quorum of `Q = ⌊R/2⌋ + 1`
//!   members — anchored on the primary, the rest rotating — and wait for
//!   all of them, so any read quorum intersects any write quorum
//!   (2·(⌊R/2⌋+1) > R): a quorum read observes the newest
//!   quorum-acknowledged write.
//! - **Membership** is the workload's member list and nothing else: site
//!   per slot, primary, epoch, re-sync state. The world's
//!   [`ClusterPlanner`](crate::ClusterPlanner) holds each member's SLO
//!   reservation under (site, tenant) and only places; the R copies go
//!   on distinct sites
//!   (anti-affinity — a copy that shares a site with another survives
//!   nothing).
//! - **Failover**: after a server's death and the detection delay every
//!   set with a member there promotes its lowest surviving slot, and the
//!   planner places a replacement anti-affine to the survivors, which
//!   serves writes at once and reads when its timed re-sync ends.

use reflex_qos::{SloSpec, TenantId};
use reflex_sim::{PoolKey, SimDuration, SimTime};

use super::{join, World, WorldCtx, WorldEvent};
use crate::client::{Fan, MemberLink, OutstandingReq, ReplOp, WorkloadState};
use crate::cluster::{PlacementError, ServerId};
use crate::harness::ServerHarness;

/// What deaths and failovers did, counted always; a telemetry snapshot
/// reads them under their `replication.*` and `cluster.*` names.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct FailoverCounts {
    pub(super) server_deaths: u64,
    pub(super) failovers: u64,
    pub(super) promotions: u64,
    /// Replacements the planner chose, refused ones included.
    pub(super) migrations: u64,
    /// Sets no survivor had room for.
    pub(super) stranded: u64,
    /// Replacements their chosen site refused.
    pub(super) refused: u64,
    pub(super) resyncs_done: u64,
}

/// Upper bound on the replication factor: fan-out state on the client hot
/// path lives in fixed `[_; MAX_REPLICAS]` arrays, never a heap `Vec`.
pub const MAX_REPLICAS: usize = 8;

/// Majority quorum size for `r` replicas: ⌊r/2⌋+1 = ⌈(r+1)/2⌉. Both the
/// write-ack quorum and the read quorum use it, which is what makes any
/// two quorums intersect (2·quorum(r) > r).
pub fn quorum(r: usize) -> usize {
    r / 2 + 1
}

/// How a replicated tenant serves reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Read the primary replica only: one sub-request, lowest cost, but a
    /// primary death stalls reads until failover promotes a survivor.
    Primary,
    /// Read from a quorum of ⌊R/2⌋+1 replicas and complete when *all* of
    /// them answer — latency is the max of the quorum, buying freshness
    /// and death-tolerance with extra load and a fatter tail.
    Quorum,
}

/// Death → failover: the time the planner takes to detect a dead site.
pub(super) const DETECT_DELAY: SimDuration = SimDuration::from_millis(30);

/// Modelled control-plane re-admission time per replacement member:
/// re-running admission control, installing token schedules, and
/// rebinding connections on the new home. Replacements queue through
/// one control plane, so the k-th of a failover waits k of these.
pub const MIGRATION_STEP: SimDuration = SimDuration::from_millis(1);

/// Background re-sync copy rate for a replacement member: 2 GiB/s, a
/// deliberately throttled fraction of device bandwidth so re-sync does
/// not starve foreground IO.
const RESYNC_BYTES_PER_SEC: f64 = 2.0 * (1u64 << 30) as f64;

/// What failover did for one tenant, stamped with simulated instants —
/// the raw material for the recovery-time figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRecovery {
    /// The affected tenant.
    pub tenant: TenantId,
    /// Instant its member's server died.
    pub died_at: SimTime,
    /// Instant failover ran (death + detection delay).
    pub failover_at: SimTime,
    /// Instant the replacement member finished re-syncing and became
    /// read-eligible (`None` if the set degraded instead).
    pub resync_done_at: Option<SimTime>,
    /// Replacement site (`None` if the set degraded).
    pub new_site: Option<usize>,
}

impl<S: ServerHarness + 'static> World<S> {
    /// Site indices of workload `w_idx`'s current members, slot order.
    pub fn member_sites(&self, w_idx: usize) -> Vec<usize> {
        let members = &self.workloads[w_idx].members;
        members.iter().map(|m| m.site).collect()
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

    /// Issues one replicated request: picks its members, registers the
    /// op and transmits each member's share. Out of line, like the rest
    /// of this file that `transmit`, `absorb` and the event dispatch
    /// reach: inlined, it grows the plain request's path for nothing.
    #[inline(never)]
    pub(super) fn fan_out(
        &mut self,
        req: OutstandingReq,
        policy: ReadPolicy,
        ctx: &mut WorldCtx<S>,
    ) {
        let w = &mut self.workloads[req.workload as usize];
        let r = w.members.len();
        if r == 0 {
            // Fully degraded set: nothing to send to.
            return self.conclude(&req, false, ctx.now(), ctx);
        }
        // Targets live in a fixed array — the hot path allocates nothing
        // per IO.
        let mut targets = [0usize; MAX_REPLICAS];
        let (n_targets, needed) = match (req.is_read, policy) {
            // Writes go to every member; a majority of acks completes.
            (false, _) => {
                for (s, t) in targets.iter_mut().enumerate().take(r) {
                    *t = s;
                }
                (r, quorum(r))
            }
            (true, ReadPolicy::Primary) => {
                targets[0] = w.primary;
                (1, 1)
            }
            (true, ReadPolicy::Quorum) => {
                // The primary anchors every read quorum (it sees every
                // quorum write, so anchored reads are read-your-writes
                // across promotions); the remaining Q-1 members rotate so
                // secondary read load spreads. Re-syncing members are
                // used only when too few eligible members remain (keeps
                // ops flowing while degraded — the simulation carries no
                // data contents to go stale).
                let q = quorum(r);
                let start = (w.op_rr % r as u64) as usize;
                let mut selected = [false; MAX_REPLICAS];
                let mut n = 0;
                if !w.members[w.primary].resyncing {
                    targets[0] = w.primary;
                    selected[w.primary] = true;
                    n = 1;
                }
                for eligible_only in [true, false] {
                    for s in (0..r).map(|off| (start + off) % r) {
                        if n < q && !selected[s] && !(eligible_only && w.members[s].resyncing) {
                            targets[n] = s;
                            selected[s] = true;
                            n += 1;
                        }
                    }
                }
                (n, q)
            }
        };
        w.op_rr += 1;
        let op = self.ops.insert(ReplOp {
            epoch: w.epoch,
            needed: needed as u8,
            acks: 0,
            pending: n_targets as u8,
            done: false,
        });
        for &slot in &targets[..n_targets] {
            let fan = Some(Fan {
                op,
                slot: slot as u8,
            });
            self.transmit(OutstandingReq { fan, ..req }, ctx);
        }
    }

    /// The member slot an attempt of a replicated request goes to, as
    /// the set stands now — or `None` when it must not go out at all.
    #[inline(never)]
    pub(super) fn fan_slot(&self, req: &OutstandingReq, fan: Fan) -> Option<usize> {
        let op = self.ops.get(fan.op)?;
        let w = &self.workloads[req.workload as usize];
        // The quorum is already reached (or lost): no more attempts on
        // the wire. Or the set degraded and the slot no longer exists.
        if op.done || fan.slot as usize >= w.members.len() {
            return None;
        }
        // Epoch fence. Every op that was in flight when the set reshaped
        // would otherwise retry onto the fresh replacement at the
        // failover instant — a thundering herd that pushes the
        // replacement past its token reservation right as new ops start
        // arriving, and (at R=2, where the quorum needs every member) can
        // keep its queue in a retransmission-fed overload that never
        // drains. Failing the old-epoch attempt fast is also the honest
        // semantics: the replacement learns pre-failover writes from
        // re-sync, not from replayed wire messages.
        if req.attempt > 1 && op.epoch != w.epoch {
            return None;
        }
        Some(fan.slot as usize)
    }

    /// Folds one member's concluded share (`req`, acked or given up at
    /// `at`) into its op's quorum accounting, and concludes the op when
    /// it tips over: its latency covers the whole op, issue → quorum
    /// reached (for quorum reads, the max of the quorum).
    #[inline(never)]
    pub(super) fn conclude_sub(
        &mut self,
        req: &OutstandingReq,
        op_key: PoolKey,
        acked: bool,
        at: SimTime,
        ctx: &mut WorldCtx<S>,
    ) {
        let Some(op) = self.ops.get_mut(op_key) else {
            return;
        };
        op.pending -= 1;
        let done_before = op.done;
        op.acks += u8::from(acked);
        let completes = !done_before && op.acks >= op.needed;
        let fails = !done_before && !completes && op.acks + op.pending < op.needed;
        op.done |= completes || fails;
        if op.pending == 0 {
            self.ops.take(op_key);
        }
        if acked && req.attempt > 1 && !done_before {
            self.workloads[req.workload as usize].retry_success += 1;
        }
        if completes || fails {
            self.conclude(req, completes, at, ctx);
        }
    }

    pub(super) fn server_death_event(&mut self, site: usize, ctx: &mut WorldCtx<S>) {
        self.sites[site].died_at = Some(ctx.now());
        self.failover.server_deaths += 1;
        // The armed hooks do the damage: the site's NIC links went dark
        // (messages to/from it are black-holed at send time, so they are
        // never device-submitted) and its device aborts every queued and
        // future command. The dead site keeps being pumped so queued
        // work drains into counted failures — conservation holds.
    }

    /// Chooses the sites of a new replicated workload's R members: slot 0
    /// (the first primary) gets first pick, each later slot the best site
    /// anti-affine to the earlier ones. Books nothing — `add_workload`
    /// reserves the sites once every one of them has admitted the tenant.
    pub(super) fn choose_members(
        &self,
        tenant: TenantId,
        slo: SloSpec,
    ) -> Result<Vec<usize>, PlacementError> {
        let taken = |w: &WorkloadState| w.spec.replicated.is_some() && w.spec.tenant == tenant;
        if self.workloads.iter().any(taken) {
            return Err(PlacementError::Duplicate(tenant));
        }
        let mut members: Vec<ServerId> = Vec::with_capacity(self.replication);
        for _ in 0..self.replication {
            members.push(self.planner.best_server(slo, &members)?);
        }
        Ok(members.iter().map(|sid| sid.0 as usize).collect())
    }

    /// Failover for site `site`'s death, once detected: every replicated
    /// set with a member there (in tenant order) promotes its lowest
    /// surviving slot if the primary died, and the planner places a
    /// replacement anti-affine to the survivors. The set degrades instead
    /// when no survivor has room or the chosen site refuses the tenant
    /// (its own admission control has the last word). Either way the
    /// epoch is bumped; a replacement starts its re-sync.
    #[inline(never)]
    pub(super) fn failover_event(&mut self, site: usize, ctx: &mut WorldCtx<S>) {
        // A site the planner no longer knows has been failed over already.
        if !self.planner.drop_server(ServerId(site as u32)) {
            return;
        }
        let now = ctx.now();
        let died_at = self.sites[site].died_at.unwrap_or(now);
        let mut hit: Vec<(TenantId, usize)> = (self.workloads.iter().enumerate())
            .filter(|(_, w)| {
                w.spec.replicated.is_some() && w.members.iter().any(|m| m.site == site)
            })
            .map(|(w_idx, w)| (w.spec.tenant, w_idx))
            .collect();
        hit.sort_unstable();
        // Re-admissions queue through the control plane, `MIGRATION_STEP`
        // each, in tenant order. A replacement the planner chose counts
        // (in `cluster.migrations_total` too) even if its site refuses;
        // `stranded` counts the sets no survivor had room for.
        let (mut placed, mut stranded) = (0u32, 0);
        for (tenant, w_idx) in hit {
            let w = &mut self.workloads[w_idx];
            let slot = w.members.iter().position(|m| m.site == site).expect("hit");
            // The last member has no survivor to promote.
            let next = (0..w.members.len()).find(|&s| s != slot);
            if let Some(next) = next.filter(|_| w.primary == slot) {
                w.primary = next;
                self.failover.promotions += 1;
            }
            let survivors: Vec<ServerId> = (w.members.iter())
                .filter(|m| m.site != site)
                .map(|m| ServerId(m.site as u32))
                .collect();
            let slo = *w
                .spec
                .class
                .slo()
                .expect("a replicated workload has an SLO");
            let chosen = self.planner.best_server(slo, &survivors).ok();
            placed += u32::from(chosen.is_some());
            stranded += u64::from(chosen.is_none());
            let member = chosen.and_then(|sid| self.admit_replacement(w_idx, sid.0 as usize));
            let w = &mut self.workloads[w_idx];
            w.epoch += 1;
            let (resync_done_at, new_site) = match member {
                Some(member) => {
                    self.planner
                        .reserve(ServerId(member.site as u32), tenant, slo);
                    // Re-sync: control-plane re-admission plus copying
                    // the namespace at the modelled background rate.
                    // Write-eligible immediately, read-eligible when done.
                    let copy = w.spec.namespace.1 as f64 / RESYNC_BYTES_PER_SEC;
                    let readmit = MIGRATION_STEP.mul_f64(f64::from(placed));
                    let done_at = now + readmit + SimDuration::from_secs_f64(copy);
                    let epoch = w.epoch;
                    ctx.schedule_event_at(done_at, WorldEvent::ResyncDone { w_idx, slot, epoch });
                    let new_site = member.site;
                    w.members[slot] = member;
                    (Some(done_at), Some(new_site))
                }
                None => {
                    w.members.remove(slot);
                    if w.primary > slot {
                        w.primary -= 1;
                    }
                    (None, None)
                }
            };
            self.recoveries.push(TenantRecovery {
                tenant,
                died_at,
                failover_at: now,
                resync_done_at,
                new_site,
            });
        }
        self.failover.failovers += 1;
        self.failover.migrations += u64::from(placed);
        self.failover.stranded += stranded;
    }

    /// Admits workload `w_idx` on the site the planner chose for a vacated
    /// slot and binds its connections there. `None` when the site refuses.
    fn admit_replacement(&mut self, w_idx: usize, site: usize) -> Option<MemberLink> {
        let spec = &self.workloads[w_idx].spec;
        let client = self.clients[spec.client_machine].machine;
        let server = &mut self.sites[site].server;
        match join(server, &mut self.fabric, client, spec) {
            Ok(conns) => Some(MemberLink {
                site,
                conns,
                resyncing: true,
            }),
            Err(_) => {
                self.failover.refused += 1;
                None
            }
        }
    }

    pub(super) fn resync_done_event(&mut self, w_idx: usize, slot: usize, epoch: u32) {
        let w = &mut self.workloads[w_idx];
        if w.epoch == epoch && slot < w.members.len() {
            w.members[slot].resyncing = false;
            self.failover.resyncs_done += 1;
        }
    }
}
