//! Declarative description of a replicated workload.

use reflex_core::{ArrivalProcess, ReadPolicy, RetryPolicy};
use reflex_qos::{SloSpec, TenantId};
use reflex_sim::SimDuration;

/// A replicated open-loop workload: one tenant whose writes fan out to
/// every member of its replica set and whose reads follow a
/// [`ReadPolicy`].
///
/// Compared to the single-server `WorkloadSpec`, replication narrows the
/// shape: open-loop Poisson arrivals, uniform-random addresses and a
/// deterministic read/write mix — the figure workloads need nothing
/// richer, and a narrow spec keeps the fan-out data path auditable.
#[derive(Debug, Clone)]
pub struct ReplWorkloadSpec {
    /// Label used in reports.
    pub name: String,
    /// The tenant (must leave the top four id bits free for replica-slot
    /// encoding — see `reflex_core::ReplicaSets`).
    pub tenant: TenantId,
    /// The SLO each replica reserves on its server.
    pub slo: SloSpec,
    /// Offered load in IOPS (whole ops; each op issues 1..R sub-requests).
    pub iops: f64,
    /// Percentage of ops that are reads (deterministic interleaving).
    pub read_pct: u8,
    /// Bytes per IO.
    pub io_size: u32,
    /// Connections per replica member.
    pub conns: u32,
    /// Client stack threads multiplexing those connections.
    pub client_threads: u32,
    /// Index of the client machine issuing the load.
    pub client_machine: usize,
    /// `(start, len)` byte range; also the data volume a replacement
    /// member re-syncs after failover.
    pub namespace: (u64, u64),
    /// Arrival process for op issue instants.
    pub arrival: ArrivalProcess,
    /// Per-sub-request retry policy. `retry.timeout` is mandatory here:
    /// without a per-attempt deadline, one message lost to a dead server
    /// would hang its op slot forever.
    pub retry: RetryPolicy,
    /// How reads are served: primary-only or majority quorum.
    pub read_policy: ReadPolicy,
}

impl ReplWorkloadSpec {
    /// An open-loop replicated workload with the defaults the figures
    /// use: 4 KiB IOs, the SLO's read percentage, 4 connections per
    /// member over 2 client threads, a 1 GiB namespace, Poisson
    /// arrivals, 4 attempts with a 10 ms base per-attempt deadline
    /// (widened 2× per retry, RTO-style), and primary reads.
    ///
    /// The deadline sits far above healthy p999 latency on purpose: a
    /// deadline close to the queue delay of a briefly-backlogged member
    /// (e.g. a fresh replacement absorbing the post-failover inrush)
    /// turns every late response into a retransmission, and at R=2 the
    /// quorum needs every member, so the storm feeds itself and the
    /// member never drains.
    pub fn open_loop(name: impl Into<String>, tenant: TenantId, slo: SloSpec, iops: f64) -> Self {
        ReplWorkloadSpec {
            name: name.into(),
            tenant,
            slo,
            iops,
            read_pct: slo.read_pct,
            io_size: 4096,
            conns: 4,
            client_threads: 2,
            client_machine: 0,
            namespace: (0, 1 << 30),
            arrival: ArrivalProcess::Poisson,
            retry: RetryPolicy {
                max_attempts: 4,
                base_backoff: SimDuration::from_micros(100),
                timeout: Some(SimDuration::from_millis(10)),
            },
            read_policy: ReadPolicy::Primary,
        }
    }

    /// Sets the namespace byte range (also the re-sync volume).
    #[must_use]
    pub fn with_namespace(mut self, start: u64, len: u64) -> Self {
        self.namespace = (start, len);
        self
    }

    /// Sets the per-sub-request retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the read policy.
    #[must_use]
    pub fn with_read_policy(mut self, policy: ReadPolicy) -> Self {
        self.read_policy = policy;
        self
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("workload needs a name".into());
        }
        if !(self.iops > 0.0 && self.iops.is_finite()) {
            return Err("open-loop iops must be positive".into());
        }
        if self.read_pct > 100 {
            return Err("read_pct must be <= 100".into());
        }
        if self.io_size == 0 {
            return Err("io_size must be positive".into());
        }
        if self.conns == 0 || self.client_threads == 0 {
            return Err("need at least one connection and one client thread".into());
        }
        if self.namespace.1 < self.io_size as u64 {
            return Err("namespace smaller than one IO".into());
        }
        if self.retry.timeout.is_none() {
            return Err(
                "replicated sub-requests need retry.timeout: without a per-attempt deadline \
                 a quorum op hangs forever on one message lost to a dead server"
                    .into(),
            );
        }
        if self.tenant.0 >= (1 << 28) {
            return Err("tenant id collides with replica-slot encoding (top 4 bits)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ReplWorkloadSpec {
        ReplWorkloadSpec::open_loop(
            "w",
            TenantId(1),
            SloSpec::new(10_000, 80, SimDuration::from_micros(500)),
            10_000.0,
        )
    }

    #[test]
    fn defaults_validate() {
        spec().validate().unwrap();
    }

    #[test]
    fn timeout_is_mandatory() {
        let s = spec().with_retry(RetryPolicy::disabled());
        assert!(s.validate().unwrap_err().contains("timeout"));
    }

    #[test]
    fn read_pct_comes_from_the_slo() {
        assert_eq!(spec().read_pct, 80);
    }
}
