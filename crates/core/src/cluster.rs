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
//! The planner is the [`Testbed`](crate::Testbed)'s: one descriptor per
//! site of `Testbed::builder().sites(n)`, a reservation per member of a
//! replicated workload. Reassigning tenants when a server fails is
//! simulated, not estimated: see the testbed's failover.

use std::collections::HashMap;

use reflex_qos::{CostModel, SloSpec, TenantId};
use reflex_sim::SimDuration;

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
    pub(crate) fn new(id: ServerId, capacity: CapacityProfile, cost_model: CostModel) -> Self {
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
    pub(crate) fn reserved_tokens_per_sec(&self) -> f64 {
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
        }
    }
}

impl std::error::Error for PlacementError {}

/// The cluster-wide tenant placer: one [`ServerDescriptor`] per live
/// site, holding the SLO reservations of the members placed there.
///
/// # Examples
///
/// ```
/// use reflex_core::{ServerId, Testbed, WorkloadSpec};
/// use reflex_qos::{SloSpec, TenantId};
/// use reflex_sim::SimDuration;
///
/// let mut tb = Testbed::builder().sites(2).build();
/// let slo = SloSpec::new(100_000, 100, SimDuration::from_micros(500));
/// tb.add_workload(WorkloadSpec::replicated("app", TenantId(1), slo, 50_000.0))?;
/// let site = tb.world().member_sites(0)[0];
/// let booked = &tb.world().planner().servers()[site];
/// assert_eq!((booked.id, booked.tenant_count()), (ServerId(site as u32), 1));
/// # Ok::<(), reflex_core::TestbedError>(())
/// ```
#[derive(Debug)]
pub struct ClusterPlanner {
    servers: Vec<ServerDescriptor>,
}

impl ClusterPlanner {
    /// Creates a planner over the given servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty or contains duplicate ids.
    pub(crate) fn new(servers: Vec<ServerDescriptor>) -> Self {
        assert!(!servers.is_empty(), "a cluster needs servers");
        let mut ids: Vec<ServerId> = servers.iter().map(|s| s.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), servers.len(), "duplicate server ids");
        ClusterPlanner { servers }
    }

    /// The live servers' descriptors.
    pub fn servers(&self) -> &[ServerDescriptor] {
        &self.servers
    }

    /// The server that (a) can honour `slo` and (b) loses the least
    /// cluster-wide headroom by accepting it, among those outside
    /// `exclude` — which naturally co-locates tenants with similar latency
    /// bounds, because putting a strict tenant on a relaxed server shrinks
    /// that server's whole token budget. `exclude` is the anti-affinity
    /// primitive replica placement needs: a tenant's R-th copy must not
    /// share a server with its first R-1. Books nothing.
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

    /// Reserves `slo` for tenant `id` on `server`, keyed by (server,
    /// tenant): the caller tracks where it put it, and a dead server's
    /// reservations go with it.
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

    /// Drops a dead server and every reservation it held; `false` if it
    /// was not in the cluster (already dropped).
    pub(crate) fn drop_server(&mut self, dead: ServerId) -> bool {
        let before = self.servers.len();
        self.servers.retain(|s| s.id != dead);
        self.servers.len() < before
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

    /// What `add_workload` does for a one-copy set: choose, then book.
    fn place(
        planner: &mut ClusterPlanner,
        id: u32,
        slo: SloSpec,
    ) -> Result<ServerId, PlacementError> {
        let sid = planner.best_server(slo, &[])?;
        planner.reserve(sid, TenantId(id), slo);
        Ok(sid)
    }

    #[test]
    fn strict_tenants_co_locate() {
        let mut planner = cluster(2);
        // A relaxed tenant seeds server A; a strict one seeds server B.
        let s_relaxed = place(&mut planner, 1, slo(100_000, 2_000)).unwrap();
        let s_strict = place(&mut planner, 2, slo(50_000, 300)).unwrap();
        assert_ne!(s_relaxed, s_strict, "mixed latency classes should separate");
        // Another strict tenant joins the strict server; another relaxed
        // one joins the relaxed server.
        assert_eq!(place(&mut planner, 3, slo(50_000, 300)).unwrap(), s_strict);
        assert_eq!(
            place(&mut planner, 4, slo(100_000, 2_000)).unwrap(),
            s_relaxed
        );
    }

    #[test]
    fn capacity_is_respected_and_overflow_spills() {
        // 330K tokens/s at 500us on device A; 280K fits, another 280K not.
        let big = SloSpec::new(100_000, 80, SimDuration::from_micros(500));
        let mut planner = cluster(1);
        place(&mut planner, 1, big).expect("280K of 330K");
        let err = place(&mut planner, 2, big).unwrap_err();
        assert!(matches!(err, PlacementError::NoCapacity { .. }), "{err}");
        let mut planner = cluster(2);
        let a = place(&mut planner, 1, big).unwrap();
        let b = place(&mut planner, 2, big).unwrap();
        assert_ne!(a, b, "overflow should spill to the other server");
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
        // A dead server's reservation goes with it; nothing moves.
        assert!(planner.drop_server(first));
        assert!(!planner.drop_server(first), "dropped once");
        let held: Vec<usize> = planner.servers().iter().map(|s| s.tenant_count()).collect();
        assert_eq!(held.iter().sum::<usize>(), 1, "{held:?}");
        let all: Vec<ServerId> = planner.servers().iter().map(|s| s.id).collect();
        assert!(matches!(
            planner.best_server(s, &all),
            Err(PlacementError::NoCapacity { best_available, .. }) if best_available == 0.0
        ));
        // With no server left, nothing places and nothing panics.
        for sid in all {
            assert!(planner.drop_server(sid));
        }
        assert!(matches!(
            planner.best_server(s, &[]),
            Err(PlacementError::NoCapacity { required, .. }) if required == 0.0
        ));
    }

    #[test]
    fn headroom_accounts_for_strictness() {
        let mut planner = cluster(1);
        let headroom = |p: &ClusterPlanner| p.servers()[0].headroom_tokens_per_sec();
        let before = headroom(&planner);
        // Placing a strict tenant shrinks headroom by more than its own
        // reservation (the whole server budget tightens).
        place(&mut planner, 1, slo(10_000, 200)).unwrap();
        let loss = before - headroom(&planner);
        assert!(
            loss > 10_000.0 * 2.0,
            "strict placement should cost more than its reservation: lost {loss:.0}"
        );
    }
}
