//! The global control plane (paper §4.3, future work): manages Flash
//! resources across a cluster of ReFlex servers.
//!
//! The paper sketches two responsibilities we implement here:
//!
//! 1. **SLO-aware placement** — "the global control plane should try to
//!    co-locate tenants with similar tail latency requirements such that
//!    strict requirements of one tenant do not limit the IOPS available to
//!    other tenants." Because a server generates tokens at the capacity of
//!    its *strictest* registered SLO, putting a 200µs tenant on a server
//!    full of 2ms tenants collapses everyone's throughput; the planner
//!    scores that loss explicitly.
//! 2. **Capacity management** — admission against each server's capacity
//!    table, preferring the placement that preserves the most usable
//!    tokens cluster-wide.
//!
//! The planner is pure logic over server descriptors; driving actual
//! [`Testbed`](crate::Testbed)s from its decisions is up to the caller
//! (see `tests/cluster_planning.rs`).

use std::collections::HashMap;

use reflex_qos::{CostModel, SloSpec, TenantId};
use reflex_sim::SimDuration;
use reflex_telemetry::Telemetry;

use crate::capacity::CapacityProfile;

/// Identifier of a ReFlex server within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

/// The global control plane's view of one ReFlex server.
#[derive(Debug, Clone)]
pub struct ServerDescriptor {
    /// Server identity.
    pub id: ServerId,
    /// The server's device capacity table.
    pub capacity: CapacityProfile,
    /// Cost model of the server's device.
    pub cost_model: CostModel,
    /// LC tenants currently placed there.
    tenants: HashMap<TenantId, SloSpec>,
}

impl ServerDescriptor {
    /// Describes a server with no tenants.
    pub fn new(id: ServerId, capacity: CapacityProfile, cost_model: CostModel) -> Self {
        ServerDescriptor {
            id,
            capacity,
            cost_model,
            tenants: HashMap::new(),
        }
    }

    /// The strictest latency bound among placed tenants.
    pub fn strictest_slo(&self) -> Option<SimDuration> {
        self.tenants.values().map(|s| s.p95_read_latency).min()
    }

    /// Total tokens/sec reserved by placed tenants (4KB basis).
    pub fn reserved_tokens_per_sec(&self) -> f64 {
        self.tenants
            .values()
            .map(|s| s.token_rate(&self.cost_model, 4096).as_tokens_per_sec_f64())
            .sum()
    }

    /// Usable token rate given the (hypothetical) strictest bound.
    fn usable_at(&self, strictest: Option<SimDuration>) -> f64 {
        match strictest {
            Some(bound) => self.capacity.tokens_per_sec_at(bound),
            None => self.capacity.max_rate().as_tokens_per_sec_f64(),
        }
    }

    /// Unreserved tokens/sec at the current strictest bound.
    pub fn headroom_tokens_per_sec(&self) -> f64 {
        (self.usable_at(self.strictest_slo()) - self.reserved_tokens_per_sec()).max(0.0)
    }

    /// Number of placed tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }
}

/// Why a tenant could not be placed anywhere in the cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// No server can honour the SLO without violating existing ones.
    NoCapacity {
        /// Tokens/sec the SLO needs.
        required: f64,
        /// Largest compatible headroom found.
        best_available: f64,
    },
    /// The tenant id is already placed.
    Duplicate(TenantId),
    /// The tenant id is unknown (removal).
    Unknown(TenantId),
    /// The server id is unknown (failure handling).
    UnknownServer(ServerId),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoCapacity {
                required,
                best_available,
            } => write!(
                f,
                "no server can host the SLO: needs {required:.0} tokens/s, best {best_available:.0}"
            ),
            PlacementError::Duplicate(t) => write!(f, "{t} already placed"),
            PlacementError::Unknown(t) => write!(f, "{t} not placed"),
            PlacementError::UnknownServer(s) => write!(f, "no server {}", s.0),
        }
    }
}

/// One tenant's re-placement after a server death.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Migration {
    /// The displaced tenant.
    pub tenant: TenantId,
    /// The surviving server it moved to.
    pub to: ServerId,
    /// Estimated time from failure *detection* until this tenant is
    /// re-admitted on `to`: migrations are processed strictest-SLO first
    /// through one control-plane work queue, so the k-th migration queues
    /// behind k-1 re-admissions at [`MIGRATION_STEP`] each.
    pub latency_estimate: SimDuration,
}

/// Modelled control-plane re-admission time per migrated tenant:
/// re-running admission control, installing token schedules, and
/// rebinding connections on the new home.
pub const MIGRATION_STEP: SimDuration = SimDuration::from_millis(1);

/// Outcome of a server failure: where every displaced tenant went.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverReport {
    /// The server that died.
    pub failed: ServerId,
    /// Tenants re-placed, in re-placement order (strictest SLO first),
    /// with their new server and a migration latency estimate.
    pub migrated: Vec<Migration>,
    /// Tenants no surviving server could host without violating an SLO;
    /// they are evicted from the cluster and must be re-admitted later.
    pub stranded: Vec<(TenantId, PlacementError)>,
}

impl FailoverReport {
    /// Estimated time from the failure itself until the *last* migrated
    /// tenant is serving again: failure detection plus the queued
    /// re-admission work (zero migrations estimate as `detection` alone).
    pub fn total_recovery_estimate(&self, detection: SimDuration) -> SimDuration {
        detection
            + self
                .migrated
                .last()
                .map_or(SimDuration::ZERO, |m| m.latency_estimate)
    }
}

impl std::error::Error for PlacementError {}

/// The cluster-wide tenant placer.
///
/// # Examples
///
/// ```
/// use reflex_core::{CapacityProfile, ClusterPlanner, ServerDescriptor, ServerId};
/// use reflex_qos::{CostModel, SloSpec, TenantId};
/// use reflex_sim::SimDuration;
///
/// let mut planner = ClusterPlanner::new(vec![
///     ServerDescriptor::new(ServerId(0), CapacityProfile::device_a_default(), CostModel::for_device_a()),
///     ServerDescriptor::new(ServerId(1), CapacityProfile::device_a_default(), CostModel::for_device_a()),
/// ]);
/// let slo = SloSpec::new(100_000, 100, SimDuration::from_micros(500));
/// let placed_on = planner.place(TenantId(1), slo).expect("cluster has room");
/// assert!(placed_on == ServerId(0) || placed_on == ServerId(1));
/// ```
#[derive(Debug)]
pub struct ClusterPlanner {
    servers: Vec<ServerDescriptor>,
    placements: HashMap<TenantId, ServerId>,
    telemetry: Telemetry,
}

impl ClusterPlanner {
    /// Creates a planner over the given servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty or contains duplicate ids.
    pub fn new(servers: Vec<ServerDescriptor>) -> Self {
        assert!(!servers.is_empty(), "a cluster needs servers");
        let mut ids: Vec<ServerId> = servers.iter().map(|s| s.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), servers.len(), "duplicate server ids");
        ClusterPlanner {
            servers,
            placements: HashMap::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle; failovers then surface
    /// `cluster.migrations_total` / `cluster.stranded_total` counters in
    /// snapshots.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The server descriptors.
    pub fn servers(&self) -> &[ServerDescriptor] {
        &self.servers
    }

    /// Where [`place`](Self::place) put a tenant, if anywhere.
    pub fn placement_of(&self, id: TenantId) -> Option<ServerId> {
        self.placements.get(&id).copied()
    }

    /// Cluster-wide usable tokens/sec (each server at its own strictest
    /// bound) minus reservations — the quantity placement tries to
    /// preserve.
    pub fn total_headroom(&self) -> f64 {
        self.servers
            .iter()
            .map(|s| s.headroom_tokens_per_sec())
            .sum()
    }

    /// Places an LC tenant on the server that (a) can honour the SLO and
    /// (b) loses the least cluster-wide headroom by accepting it — which
    /// naturally co-locates tenants with similar latency bounds, because
    /// putting a strict tenant on a relaxed server shrinks that server's
    /// whole token budget.
    ///
    /// # Errors
    ///
    /// See [`PlacementError`].
    pub fn place(&mut self, id: TenantId, slo: SloSpec) -> Result<ServerId, PlacementError> {
        if self.placements.contains_key(&id) {
            return Err(PlacementError::Duplicate(id));
        }
        let sid = self.best_server(slo, &[])?;
        self.reserve(sid, id, slo);
        self.placements.insert(id, sid);
        Ok(sid)
    }

    /// The server [`place`](Self::place) would choose for `slo`, among
    /// those outside `exclude` — the anti-affinity primitive replica
    /// placement needs: a tenant's R-th copy must not share a server with
    /// its first R-1. Books nothing.
    ///
    /// # Errors
    ///
    /// [`PlacementError::NoCapacity`]; excluding every server, or a
    /// cluster every server of which has failed, reports it with zero
    /// available.
    pub(crate) fn best_server(
        &self,
        slo: SloSpec,
        exclude: &[ServerId],
    ) -> Result<ServerId, PlacementError> {
        let required =
            |s: &ServerDescriptor| slo.token_rate(&s.cost_model, 4096).as_tokens_per_sec_f64();

        let mut best: Option<(ServerId, (f64, f64))> = None;
        let mut best_available = 0.0f64;
        for s in &self.servers {
            if exclude.contains(&s.id) {
                continue;
            }
            let req = required(s);
            let new_strictest = match s.strictest_slo() {
                Some(cur) => cur.min(slo.p95_read_latency),
                None => slo.p95_read_latency,
            };
            let usable_after = s.usable_at(Some(new_strictest));
            let available = usable_after - s.reserved_tokens_per_sec();
            best_available = best_available.max(available);
            if available < req {
                continue; // would violate someone's SLO
            }
            // Primary score: headroom existing tenants lose when the
            // server's budget tightens (zero on an empty server), plus the
            // reservation itself. Secondary: latency-class affinity — how
            // much looser this tenant is than the server's (new) strictest
            // bound; similar classes pack together.
            let tightening_loss = match s.strictest_slo() {
                Some(_) => s.usable_at(s.strictest_slo()) - usable_after,
                None => 0.0,
            };
            let loss = tightening_loss + req;
            let affinity =
                (slo.p95_read_latency.as_micros_f64() - new_strictest.as_micros_f64()).abs();
            let score = (loss, affinity);
            match best {
                Some((_, best_score)) if best_score <= score => {}
                _ => best = Some((s.id, score)),
            }
        }
        best.map(|(sid, _)| sid)
            .ok_or_else(|| PlacementError::NoCapacity {
                required: self.servers.first().map_or(0.0, required),
                best_available,
            })
    }

    /// Reserves `slo` for tenant `id` on `server`. A reservation is keyed
    /// by (server, tenant); one made here rather than by
    /// [`place`](Self::place) is the caller's to track — [`remove`] and
    /// [`fail_server`]'s migration never move it, and a dead server's
    /// go with it.
    ///
    /// [`remove`]: Self::remove
    /// [`fail_server`]: Self::fail_server
    ///
    /// # Panics
    ///
    /// Panics if `server` is not in the cluster.
    pub(crate) fn reserve(&mut self, server: ServerId, id: TenantId, slo: SloSpec) {
        let s = self.servers.iter_mut().find(|s| s.id == server);
        s.expect("reserving on a live server")
            .tenants
            .insert(id, slo);
    }

    /// Handles the death of a whole server (paper §4.3: "the control
    /// plane ... reassigns tenants when a server or device fails").
    ///
    /// The dead server is dropped from the cluster and each of its tenants
    /// is re-placed through the normal SLO-aware [`place`](Self::place)
    /// path — so the survivor chosen for each tenant is the feasible
    /// server that preserves the most cluster-wide tokens. Tenants are
    /// re-placed strictest SLO first (ties broken by tenant id) so the
    /// hardest placements get first pick of the remaining headroom; the
    /// order is fully deterministic. Tenants that no survivor can host are
    /// evicted and returned as stranded.
    ///
    /// # Errors
    ///
    /// [`PlacementError::UnknownServer`] if `dead` is not in the cluster;
    /// nothing is modified in that case.
    pub fn fail_server(&mut self, dead: ServerId) -> Result<FailoverReport, PlacementError> {
        let idx = self
            .servers
            .iter()
            .position(|s| s.id == dead)
            .ok_or(PlacementError::UnknownServer(dead))?;
        let dead_server = self.servers.remove(idx);
        // Only tenants `place` put there migrate; reservations made
        // through `reserve` die with the server.
        let mut orphans: Vec<(TenantId, SloSpec)> = dead_server
            .tenants
            .into_iter()
            .filter(|(id, _)| self.placements.get(id) == Some(&dead))
            .collect();
        orphans.sort_by_key(|(id, slo)| (slo.p95_read_latency, *id));
        for (id, _) in &orphans {
            self.placements.remove(id);
        }
        let mut report = FailoverReport {
            failed: dead,
            migrated: Vec::new(),
            stranded: Vec::new(),
        };
        for (id, slo) in orphans {
            if self.servers.is_empty() {
                report.stranded.push((
                    id,
                    PlacementError::NoCapacity {
                        required: slo
                            .token_rate(&dead_server.cost_model, 4096)
                            .as_tokens_per_sec_f64(),
                        best_available: 0.0,
                    },
                ));
                continue;
            }
            match self.place(id, slo) {
                Ok(sid) => report.migrated.push(Migration {
                    tenant: id,
                    to: sid,
                    latency_estimate: MIGRATION_STEP.mul_f64(report.migrated.len() as f64 + 1.0),
                }),
                Err(e) => report.stranded.push((id, e)),
            }
        }
        self.telemetry
            .count("cluster.migrations_total", report.migrated.len() as u64);
        self.telemetry
            .count("cluster.stranded_total", report.stranded.len() as u64);
        Ok(report)
    }

    /// Removes a tenant from the cluster.
    ///
    /// # Errors
    ///
    /// [`PlacementError::Unknown`] for unplaced ids.
    pub fn remove(&mut self, id: TenantId) -> Result<(), PlacementError> {
        let sid = self
            .placements
            .remove(&id)
            .ok_or(PlacementError::Unknown(id))?;
        let server = self
            .servers
            .iter_mut()
            .find(|s| s.id == sid)
            .expect("placement refers to a live server");
        server.tenants.remove(&id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: u32) -> ClusterPlanner {
        ClusterPlanner::new(
            (0..n)
                .map(|i| {
                    ServerDescriptor::new(
                        ServerId(i),
                        CapacityProfile::device_a_default(),
                        CostModel::for_device_a(),
                    )
                })
                .collect(),
        )
    }

    fn slo(iops: u64, p95_us: u64) -> SloSpec {
        SloSpec::new(iops, 100, SimDuration::from_micros(p95_us))
    }

    #[test]
    fn strict_tenants_co_locate() {
        let mut planner = cluster(2);
        // A relaxed tenant seeds server A; a strict one seeds server B.
        let s_relaxed = planner.place(TenantId(1), slo(100_000, 2_000)).unwrap();
        let s_strict = planner.place(TenantId(2), slo(50_000, 300)).unwrap();
        assert_ne!(s_relaxed, s_strict, "mixed latency classes should separate");
        // Another strict tenant joins the strict server; another relaxed
        // one joins the relaxed server.
        assert_eq!(
            planner.place(TenantId(3), slo(50_000, 300)).unwrap(),
            s_strict
        );
        assert_eq!(
            planner.place(TenantId(4), slo(100_000, 2_000)).unwrap(),
            s_relaxed
        );
    }

    #[test]
    fn capacity_is_respected() {
        let mut planner = cluster(1);
        // 330K tokens/s at 500us on device A; 280K fits, another 280K not.
        planner
            .place(
                TenantId(1),
                SloSpec::new(100_000, 80, SimDuration::from_micros(500)),
            )
            .expect("280K of 330K");
        let err = planner
            .place(
                TenantId(2),
                SloSpec::new(100_000, 80, SimDuration::from_micros(500)),
            )
            .unwrap_err();
        assert!(matches!(err, PlacementError::NoCapacity { .. }), "{err}");
    }

    #[test]
    fn second_server_absorbs_overflow() {
        let mut planner = cluster(2);
        let a = planner
            .place(
                TenantId(1),
                SloSpec::new(100_000, 80, SimDuration::from_micros(500)),
            )
            .unwrap();
        let b = planner
            .place(
                TenantId(2),
                SloSpec::new(100_000, 80, SimDuration::from_micros(500)),
            )
            .unwrap();
        assert_ne!(a, b, "overflow should spill to the other server");
    }

    #[test]
    fn removal_frees_capacity() {
        let mut planner = cluster(1);
        planner
            .place(
                TenantId(1),
                SloSpec::new(100_000, 80, SimDuration::from_micros(500)),
            )
            .unwrap();
        assert!(planner
            .place(
                TenantId(2),
                SloSpec::new(100_000, 80, SimDuration::from_micros(500))
            )
            .is_err());
        planner.remove(TenantId(1)).unwrap();
        planner
            .place(
                TenantId(2),
                SloSpec::new(100_000, 80, SimDuration::from_micros(500)),
            )
            .expect("freed capacity is reusable");
        assert!(planner.remove(TenantId(1)).is_err());
    }

    #[test]
    fn duplicate_placement_rejected() {
        let mut planner = cluster(2);
        planner.place(TenantId(1), slo(10_000, 500)).unwrap();
        assert_eq!(
            planner.place(TenantId(1), slo(10_000, 500)),
            Err(PlacementError::Duplicate(TenantId(1)))
        );
    }

    #[test]
    fn fail_server_migrates_to_token_preserving_server() {
        let mut planner = cluster(3);
        // Two relaxed tenants seed one server; a strict tenant seeds
        // another; the third stays empty.
        let relaxed_home = planner.place(TenantId(1), slo(100_000, 2_000)).unwrap();
        assert_eq!(
            planner.place(TenantId(2), slo(100_000, 2_000)).unwrap(),
            relaxed_home
        );
        let strict_home = planner.place(TenantId(3), slo(50_000, 300)).unwrap();
        assert_ne!(relaxed_home, strict_home);

        let report = planner.fail_server(strict_home).unwrap();
        assert_eq!(report.failed, strict_home);
        assert!(report.stranded.is_empty(), "{:?}", report.stranded);
        assert_eq!(report.migrated.len(), 1);
        let Migration {
            tenant: id,
            to: new_home,
            latency_estimate,
        } = report.migrated[0];
        assert_eq!(id, TenantId(3));
        assert_eq!(latency_estimate, MIGRATION_STEP);
        assert_eq!(
            report.total_recovery_estimate(SimDuration::from_millis(30)),
            SimDuration::from_millis(31)
        );
        // Co-locating the strict tenant with the relaxed pair would
        // tighten their whole token budget; the empty server preserves
        // more cluster-wide tokens and must win.
        assert_ne!(new_home, relaxed_home);
        assert_ne!(new_home, strict_home);
        assert_eq!(planner.placement_of(TenantId(3)), Some(new_home));
    }

    #[test]
    fn fail_server_strands_tenants_no_server_can_honour() {
        let mut planner = cluster(2);
        // Each server takes one tenant close to its 500us capacity;
        // neither can absorb the other's.
        let big = SloSpec::new(100_000, 80, SimDuration::from_micros(500));
        let a = planner.place(TenantId(1), big).unwrap();
        let b = planner.place(TenantId(2), big).unwrap();
        assert_ne!(a, b);

        let report = planner.fail_server(b).unwrap();
        assert!(report.migrated.is_empty(), "{:?}", report.migrated);
        assert_eq!(report.stranded.len(), 1);
        let (id, ref err) = report.stranded[0];
        assert_eq!(id, TenantId(2));
        assert!(matches!(err, PlacementError::NoCapacity { .. }), "{err}");
        assert_eq!(planner.placement_of(TenantId(2)), None);
        // The survivor is untouched.
        assert_eq!(planner.placement_of(TenantId(1)), Some(a));
    }

    #[test]
    fn fail_server_re_places_strictest_tenants_first() {
        let mut planner = cluster(2);
        // A relaxed tenant anchors one server; two strict tenants of
        // different strictness co-locate on the other (joining the
        // relaxed server would tighten its whole budget).
        let relaxed_home = planner.place(TenantId(1), slo(100_000, 2_000)).unwrap();
        let doomed = planner.place(TenantId(2), slo(40_000, 300)).unwrap();
        assert_ne!(relaxed_home, doomed);
        assert_eq!(
            planner.place(TenantId(3), slo(40_000, 400)).unwrap(),
            doomed
        );

        let report = planner.fail_server(doomed).unwrap();
        // Both displaced tenants are accounted for, and the 300us tenant
        // is processed (and thus grabs surviving capacity) before the
        // 400us one.
        let mut order: Vec<TenantId> = report.migrated.iter().map(|m| m.tenant).collect();
        order.extend(report.stranded.iter().map(|&(id, _)| id));
        // Queued re-admission: the k-th migration waits behind the first
        // k-1, so estimates are strictly increasing.
        for pair in report.migrated.windows(2) {
            assert!(pair[0].latency_estimate < pair[1].latency_estimate);
        }
        assert_eq!(order.len(), 2, "{report:?}");
        let pos_strict = order.iter().position(|&id| id == TenantId(2)).unwrap();
        let pos_laxer = order.iter().position(|&id| id == TenantId(3)).unwrap();
        assert!(pos_strict < pos_laxer, "{report:?}");
    }

    #[test]
    fn fail_server_unknown_and_last_server() {
        let mut planner = cluster(1);
        assert_eq!(
            planner.fail_server(ServerId(9)),
            Err(PlacementError::UnknownServer(ServerId(9)))
        );
        planner.place(TenantId(1), slo(10_000, 500)).unwrap();
        // Killing the only server strands everything deterministically.
        let report = planner.fail_server(ServerId(0)).unwrap();
        assert!(report.migrated.is_empty());
        assert_eq!(report.stranded.len(), 1);
        assert!(planner.servers().is_empty());
    }

    #[test]
    fn reservations_stay_where_the_caller_put_them() {
        let mut planner = cluster(3);
        let s = slo(10_000, 500);
        let first = planner.best_server(s, &[]).unwrap();
        planner.reserve(first, TenantId(1), s);
        let second = planner.best_server(s, &[first]).unwrap();
        assert_ne!(first, second, "anti-affine");
        planner.reserve(second, TenantId(1), s);
        assert_eq!(planner.placement_of(TenantId(1)), None);
        assert!(planner.remove(TenantId(1)).is_err());
        // A dead server's reservation goes with it; nothing migrates.
        let report = planner.fail_server(first).unwrap();
        assert!(report.migrated.is_empty() && report.stranded.is_empty());
        let held: Vec<usize> = planner.servers().iter().map(|s| s.tenant_count()).collect();
        assert_eq!(held.iter().sum::<usize>(), 1, "{held:?}");
        let all: Vec<ServerId> = planner.servers().iter().map(|s| s.id).collect();
        assert!(matches!(
            planner.best_server(s, &all),
            Err(PlacementError::NoCapacity { best_available, .. }) if best_available == 0.0
        ));
    }

    #[test]
    fn headroom_accounts_for_strictness() {
        let mut planner = cluster(1);
        let before = planner.total_headroom();
        // Placing a strict tenant shrinks headroom by more than its own
        // reservation (the whole server budget tightens).
        planner.place(TenantId(1), slo(10_000, 200)).unwrap();
        let after = planner.total_headroom();
        let loss = before - after;
        assert!(
            loss > 10_000.0 * 2.0,
            "strict placement should cost more than its reservation: lost {loss:.0}"
        );
    }
}
