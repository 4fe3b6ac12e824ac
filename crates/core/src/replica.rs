//! Replica-set coordination for client-driven replicated remote flash.
//!
//! ReFlex itself replicates nothing — a server death loses the tenant's
//! data. FlexBSO-style deployments (PAPERS.md) make replication the
//! client's job: every write fans out to R servers and is acknowledged
//! once a majority quorum of W = ⌊R/2⌋+1 acks arrive; reads go to the
//! primary alone or to a read quorum of Q = ⌊R/2⌋+1 replicas. Because
//! 2·(⌊R/2⌋+1) > R, any write quorum intersects any read quorum in at
//! least one replica, so a quorum read always observes the newest
//! quorum-acknowledged write.
//!
//! [`ReplicaSets`] is the control-plane half: it owns per-tenant replica
//! membership, places the R copies on distinct servers through
//! [`ClusterPlanner::place_excluding`] (anti-affinity — a copy that
//! shares a server with another copy survives nothing), and on a server
//! death promotes a surviving replica and re-places the lost slot. The
//! data-plane half — actual fan-out, ack counting and re-sync traffic —
//! is the testbed's (`testbed/fanout.rs`), which drives this type.

use std::collections::BTreeMap;

use reflex_qos::{SloSpec, TenantId};
use reflex_sim::SimDuration;
use reflex_telemetry::Telemetry;

use crate::cluster::{ClusterPlanner, PlacementError, ServerId, MIGRATION_STEP};

/// Upper bound on the replication factor: fan-out state on the client hot
/// path lives in fixed `[_; MAX_REPLICAS]` arrays, never a heap `Vec`.
pub const MAX_REPLICAS: usize = 8;

/// Slot indices are packed into the high bits of per-slot pseudo-tenant
/// ids, so real tenant ids must fit below this shift.
pub(crate) const SLOT_SHIFT: u32 = 28;

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

/// One tenant's replica membership.
#[derive(Debug, Clone)]
pub struct ReplicaSet {
    /// The tenant.
    pub tenant: TenantId,
    /// The SLO each replica reserves on its server.
    pub slo: SloSpec,
    /// Member servers by slot. Slot order is stable across failovers —
    /// a replaced member reuses the dead member's slot.
    pub members: Vec<ServerId>,
    /// Slot index of the current primary.
    pub primary: usize,
    /// Bumped on every membership change; stale data-plane messages and
    /// re-sync completions carry the epoch they were issued under and are
    /// ignored if it no longer matches.
    pub epoch: u32,
}

impl ReplicaSet {
    /// Replication factor (current member count; shrinks when a slot
    /// strands unreplaced).
    pub fn replication(&self) -> usize {
        self.members.len()
    }

    /// Acks a write needs before completing.
    pub fn write_quorum(&self) -> usize {
        quorum(self.members.len())
    }
}

/// What the coordinator did for one tenant when a member server died.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverAction {
    /// The affected tenant.
    pub tenant: TenantId,
    /// Slot that held the dead member.
    pub replaced_slot: usize,
    /// Primary slot after promotion (unchanged if the dead member was not
    /// primary).
    pub promoted_primary: usize,
    /// Replacement server, or `None` if no survivor could host the slot —
    /// the set then runs degraded at R-1.
    pub new_member: Option<ServerId>,
    /// Control-plane re-admission estimate for the replacement (queued
    /// behind earlier actions of the same failover, [`MIGRATION_STEP`]
    /// each), measured from failure detection.
    pub latency_estimate: SimDuration,
    /// Membership epoch after this action.
    pub epoch: u32,
}

/// Outcome of [`ReplicaSets::fail_server`]: per-tenant actions in tenant
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaFailover {
    /// The dead server.
    pub dead: ServerId,
    /// One action per tenant that had a replica there.
    pub actions: Vec<FailoverAction>,
}

impl ReplicaFailover {
    /// Estimated time from the failure itself until the last replacement
    /// is re-admitted (detection plus queued re-admission work; re-sync
    /// transfer time comes on top and is the data plane's to model).
    pub fn total_recovery_estimate(&self, detection: SimDuration) -> SimDuration {
        detection
            + self
                .actions
                .iter()
                .filter(|a| a.new_member.is_some())
                .map(|a| a.latency_estimate)
                .max()
                .unwrap_or(SimDuration::ZERO)
    }
}

/// Per-tenant replica membership over a [`ClusterPlanner`].
///
/// Each replica slot reserves the tenant's full SLO on its server via a
/// per-slot pseudo-tenant id, so admission control sees the true load of
/// R-way replication (every write runs R times cluster-wide).
#[derive(Debug)]
pub struct ReplicaSets {
    planner: ClusterPlanner,
    r: usize,
    sets: BTreeMap<TenantId, ReplicaSet>,
    telemetry: Telemetry,
}

fn slot_tenant(tenant: TenantId, slot: usize) -> TenantId {
    TenantId(tenant.0 | ((slot as u32) << SLOT_SHIFT))
}

/// Takes the member at `slot`, its reservation already released, out of
/// `set`. Later members move down a slot and their reservations are
/// re-keyed with them: slot `s`'s is always `slot_tenant(tenant, s)`.
fn drop_slot(planner: &mut ClusterPlanner, set: &mut ReplicaSet, slot: usize) {
    set.members.remove(slot);
    if set.primary > slot {
        set.primary -= 1;
    }
    for s in slot..set.members.len() {
        planner.rekey(slot_tenant(set.tenant, s + 1), slot_tenant(set.tenant, s));
    }
}

impl ReplicaSets {
    /// Wraps a planner with replication factor `r`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= r <= MAX_REPLICAS`.
    pub fn new(planner: ClusterPlanner, r: usize) -> Self {
        assert!((1..=MAX_REPLICAS).contains(&r), "replication factor {r}");
        ReplicaSets {
            planner,
            r,
            sets: BTreeMap::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle on the coordinator *and* its planner;
    /// failovers then count `replication.failovers`,
    /// `replication.promotions` and `cluster.migrations_total`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.planner.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Configured replication factor.
    pub fn replication(&self) -> usize {
        self.r
    }

    /// The underlying planner.
    pub fn planner(&self) -> &ClusterPlanner {
        &self.planner
    }

    /// A tenant's current membership.
    pub fn set_of(&self, tenant: TenantId) -> Option<&ReplicaSet> {
        self.sets.get(&tenant)
    }

    /// Places `r` replicas of a tenant on `r` distinct servers, strictest
    /// placement first (slot 0 — the initial primary — gets first pick).
    /// All-or-nothing: a failed slot rolls back the earlier ones.
    ///
    /// # Errors
    ///
    /// [`PlacementError::Duplicate`] if the tenant already has a set, or
    /// the planner's error for the first unplaceable slot.
    ///
    /// # Panics
    ///
    /// Panics if `tenant.0` overflows the slot-id encoding (needs the top
    /// four bits free).
    pub fn place(&mut self, tenant: TenantId, slo: SloSpec) -> Result<&ReplicaSet, PlacementError> {
        assert!(
            tenant.0 < (1 << SLOT_SHIFT),
            "tenant id {} collides with replica-slot encoding",
            tenant.0
        );
        if self.sets.contains_key(&tenant) {
            return Err(PlacementError::Duplicate(tenant));
        }
        let mut members: Vec<ServerId> = Vec::with_capacity(self.r);
        for slot in 0..self.r {
            match self
                .planner
                .place_excluding(slot_tenant(tenant, slot), slo, &members)
            {
                Ok(sid) => members.push(sid),
                Err(e) => {
                    for s in 0..slot {
                        let _ = self.planner.remove(slot_tenant(tenant, s));
                    }
                    return Err(e);
                }
            }
        }
        self.sets.insert(
            tenant,
            ReplicaSet {
                tenant,
                slo,
                members,
                primary: 0,
                epoch: 0,
            },
        );
        Ok(&self.sets[&tenant])
    }

    /// Takes slot `slot` of `tenant`'s set out of the books after the
    /// server [`fail_server`](Self::fail_server) chose for it refused the
    /// tenant: the reservation is released and the set runs degraded, as
    /// if no survivor had had room. Returns the set's primary slot.
    ///
    /// # Panics
    ///
    /// Panics if the tenant has no set or the set no such slot.
    pub fn strand(&mut self, tenant: TenantId, slot: usize) -> usize {
        let set = self.sets.get_mut(&tenant).expect("tenant has a set");
        let _ = self.planner.remove(slot_tenant(tenant, slot));
        drop_slot(&mut self.planner, set, slot);
        set.primary
    }

    /// Handles a member server's death: for every tenant with a replica
    /// there (in tenant order), promotes the lowest surviving slot if the
    /// primary died, then re-places the lost slot on a survivor hosting
    /// none of the tenant's other copies. Unreplaceable slots are dropped
    /// and the set runs degraded.
    ///
    /// # Errors
    ///
    /// [`PlacementError::UnknownServer`] if `dead` is not in the cluster;
    /// nothing is modified in that case.
    pub fn fail_server(&mut self, dead: ServerId) -> Result<ReplicaFailover, PlacementError> {
        if !self.planner.servers().iter().any(|s| s.id == dead) {
            return Err(PlacementError::UnknownServer(dead));
        }
        // Tenants with a replica on the dead server, in BTreeMap order.
        let affected: Vec<(TenantId, usize)> = self
            .sets
            .iter()
            .filter_map(|(t, set)| {
                set.members
                    .iter()
                    .position(|&m| m == dead)
                    .map(|slot| (*t, slot))
            })
            .collect();
        // Pull the dead slots' reservations out first so the planner's own
        // fail_server sees no orphans — replica re-placement (below) is
        // slot-aware in a way the planner's generic migration is not.
        for &(t, slot) in &affected {
            let _ = self.planner.remove(slot_tenant(t, slot));
        }
        let _ = self.planner.fail_server(dead)?;

        let mut actions = Vec::with_capacity(affected.len());
        let mut replaced = 0usize;
        for (tenant, slot) in affected {
            let set = self.sets.get_mut(&tenant).expect("affected tenant has set");
            if set.primary == slot {
                set.primary = (0..set.members.len()).find(|&s| s != slot).unwrap_or(0);
                self.telemetry.count("replication.promotions", 1);
            }
            let survivors: Vec<ServerId> = set
                .members
                .iter()
                .enumerate()
                .filter(|&(s, _)| s != slot)
                .map(|(_, &m)| m)
                .collect();
            let new_member =
                match self
                    .planner
                    .place_excluding(slot_tenant(tenant, slot), set.slo, &survivors)
                {
                    Ok(sid) => {
                        set.members[slot] = sid;
                        replaced += 1;
                        Some(sid)
                    }
                    Err(_) => {
                        drop_slot(&mut self.planner, set, slot);
                        None
                    }
                };
            set.epoch += 1;
            let latency_estimate = if new_member.is_some() {
                MIGRATION_STEP.mul_f64(replaced as f64)
            } else {
                SimDuration::ZERO
            };
            actions.push(FailoverAction {
                tenant,
                replaced_slot: slot,
                promoted_primary: set.primary,
                new_member,
                latency_estimate,
                epoch: set.epoch,
            });
        }
        self.telemetry.count("replication.failovers", 1);
        self.telemetry
            .count("cluster.migrations_total", replaced as u64);
        self.telemetry.count(
            "cluster.stranded_total",
            actions.iter().filter(|a| a.new_member.is_none()).count() as u64,
        );
        Ok(ReplicaFailover { dead, actions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::CapacityProfile;
    use crate::cluster::ServerDescriptor;
    use reflex_qos::CostModel;

    fn sets(n_servers: u32, r: usize) -> ReplicaSets {
        let planner = ClusterPlanner::new(
            (0..n_servers)
                .map(|i| {
                    ServerDescriptor::new(
                        ServerId(i),
                        CapacityProfile::device_a_default(),
                        CostModel::for_device_a(),
                    )
                })
                .collect(),
        );
        ReplicaSets::new(planner, r)
    }

    fn slo() -> SloSpec {
        SloSpec::new(20_000, 80, SimDuration::from_micros(500))
    }

    #[test]
    fn quorum_majority() {
        assert_eq!(quorum(1), 1);
        assert_eq!(quorum(2), 2);
        assert_eq!(quorum(3), 2);
        assert_eq!(quorum(4), 3);
        assert_eq!(quorum(5), 3);
        for r in 1..=MAX_REPLICAS {
            assert!(2 * quorum(r) > r, "quorums of {r} must intersect");
            assert_eq!(quorum(r), (r + 1).div_ceil(2), "⌈(R+1)/2⌉ identity");
        }
    }

    #[test]
    fn place_spreads_replicas_across_servers() {
        let mut sets = sets(4, 3);
        let set = sets.place(TenantId(1), slo()).unwrap().clone();
        assert_eq!(set.members.len(), 3);
        let mut uniq = set.members.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 3, "anti-affinity: {:?}", set.members);
        assert_eq!(set.primary, 0);
        assert_eq!(set.write_quorum(), 2);
    }

    #[test]
    fn place_rolls_back_when_cluster_too_small() {
        let mut sets = sets(2, 3);
        let err = sets.place(TenantId(1), slo()).unwrap_err();
        assert!(matches!(err, PlacementError::NoCapacity { .. }), "{err}");
        assert!(sets.set_of(TenantId(1)).is_none());
        // The rollback freed the partial slots: R=2 now fits.
        let mut sets2 = ReplicaSets::new(ClusterPlanner::new(sets.planner().servers().to_vec()), 2);
        sets2.place(TenantId(1), slo()).unwrap();
    }

    #[test]
    fn fail_server_promotes_and_replaces() {
        let mut sets = sets(4, 3);
        let members = sets.place(TenantId(1), slo()).unwrap().members.clone();
        let dead = members[0]; // the primary's server
        let fo = sets.fail_server(dead).unwrap();
        assert_eq!(fo.dead, dead);
        assert_eq!(fo.actions.len(), 1);
        let a = fo.actions[0];
        assert_eq!(a.replaced_slot, 0);
        assert_eq!(a.promoted_primary, 1, "lowest surviving slot");
        let new = a.new_member.expect("a spare server exists");
        assert!(!members.contains(&new), "replacement must be the spare");
        let set = sets.set_of(TenantId(1)).unwrap();
        assert_eq!(set.members[0], new);
        assert_eq!(set.epoch, 1);
        assert_eq!(
            fo.total_recovery_estimate(SimDuration::from_millis(30)),
            SimDuration::from_millis(31)
        );
    }

    #[test]
    fn fail_server_without_spare_degrades() {
        let mut sets = sets(3, 3);
        let members = sets.place(TenantId(1), slo()).unwrap().members.clone();
        let fo = sets.fail_server(members[1]).unwrap();
        let a = fo.actions[0];
        assert_eq!(a.new_member, None, "no spare: degraded");
        assert_eq!(a.promoted_primary, 0, "primary survived");
        let set = sets.set_of(TenantId(1)).unwrap();
        assert_eq!(set.members.len(), 2);
        assert_eq!(set.write_quorum(), 2);
    }

    /// Every reservation the planner holds belongs to a current member,
    /// on that member's server, under that member's slot id.
    fn assert_books_agree(sets: &ReplicaSets, tenant: TenantId) {
        let set = sets.set_of(tenant).unwrap();
        for (slot, &m) in set.members.iter().enumerate() {
            assert_eq!(
                sets.planner().placement_of(slot_tenant(tenant, slot)),
                Some(m),
                "slot {slot} of {:?}",
                set.members
            );
        }
        let reserved: usize = sets
            .planner()
            .servers()
            .iter()
            .map(|s| s.tenant_count())
            .sum();
        assert_eq!(reserved, set.members.len(), "orphaned reservations");
    }

    #[test]
    fn a_dropped_slot_renumbers_the_reservations_behind_it() {
        // Degraded by a death with no spare, then a death behind the gap.
        let mut a = sets(3, 3);
        let members = a.place(TenantId(1), slo()).unwrap().members.clone();
        a.fail_server(members[1]).unwrap();
        assert_books_agree(&a, TenantId(1));
        let fo = a.fail_server(members[2]).unwrap();
        assert_eq!(fo.actions[0].replaced_slot, 1);
        assert_eq!(a.set_of(TenantId(1)).unwrap().members, [members[0]]);
        assert_books_agree(&a, TenantId(1));
        // Degraded by a replacement its site refused, likewise.
        let mut b = sets(4, 3);
        let members = b.place(TenantId(1), slo()).unwrap().members.clone();
        let fo = b.fail_server(members[1]).unwrap();
        assert!(fo.actions[0].new_member.is_some());
        assert_eq!(b.strand(TenantId(1), 1), 0);
        assert_books_agree(&b, TenantId(1));
        b.fail_server(members[2]).unwrap();
        assert_books_agree(&b, TenantId(1));
        assert_eq!(b.set_of(TenantId(1)).unwrap().epoch, 2);
    }

    #[test]
    fn fail_server_unknown_is_untouched() {
        let mut sets = sets(3, 2);
        sets.place(TenantId(1), slo()).unwrap();
        assert_eq!(
            sets.fail_server(ServerId(9)),
            Err(PlacementError::UnknownServer(ServerId(9)))
        );
        assert_eq!(sets.set_of(TenantId(1)).unwrap().epoch, 0);
    }
}
