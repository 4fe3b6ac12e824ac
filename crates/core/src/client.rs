//! Client models and workload specifications.
//!
//! Two client shapes from the paper are modelled:
//!
//! * the **user-level client library** (§4.2) — applications open TCP
//!   connections and issue block reads/writes directly; client-side cost is
//!   the network stack's per-message CPU (IX clients are nearly free, Linux
//!   clients are bounded at ~70K msgs/s per thread);
//! * the **remote block device driver** (§4.2) — one hardware context
//!   (thread + socket) per core, no coalescing; modelled as a client with
//!   `threads` Linux-stack workers.
//!
//! A [`WorkloadSpec`] describes one tenant-bound stream of requests:
//! open-loop (mutilate-style Poisson arrivals) or closed-loop (FIO-style
//! fixed queue depth), with its read ratio, request size and address
//! pattern.

use reflex_net::ConnId;
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::{Histogram, PoolKey, RatePoint, RateSeries, SimDuration, SimRng, SimTime};

use crate::testbed::ReadPolicy;

/// Inter-arrival process of an open-loop generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential gaps (a Poisson process) — maximally bursty.
    Poisson,
    /// Fixed gaps with ±10% uniform jitter — mutilate-style paced load.
    /// A tenant offered exactly its SLO reservation only meets its tail
    /// bound with paced arrivals; Poisson load at the reservation rate is
    /// critically loaded against the token limiter by construction.
    Paced,
}

/// How requests are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadPattern {
    /// Poisson arrivals at a target rate, spread over the workload's
    /// connections (mutilate-style load generation).
    OpenLoop {
        /// Offered I/O operations per second.
        iops: f64,
    },
    /// Each connection keeps a fixed number of requests in flight
    /// (FIO-style). `queue_depth = 1` is the paper's unloaded-latency
    /// prober.
    ClosedLoop {
        /// Outstanding requests per connection.
        queue_depth: u32,
    },
}

/// How request addresses are chosen within the tenant's namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrPattern {
    /// Uniformly random, aligned to the request size.
    UniformRandom,
    /// Zipfian popularity over the namespace's blocks (KV-store style
    /// skew); `theta_permille` is the skew × 1000, e.g. 990 for the
    /// YCSB-default 0.99.
    Zipfian {
        /// Skew parameter in thousandths (1..=999).
        theta_permille: u16,
    },
}

/// Client-side failure-recovery policy: per-request timeout plus bounded
/// retry with deterministic exponential backoff.
///
/// Attempt `k` (1-based) that fails — an error response, or no response
/// within [`timeout`](Self::timeout) — is retried after
/// `base_backoff * 2^(k-1)` until [`max_attempts`](Self::max_attempts)
/// attempts have been made; the request is then abandoned and counted in
/// [`WorkloadReport::exhausted`]. Latency histograms always measure from
/// the *first* attempt's issue instant, so retries show up as tail
/// inflation exactly as an application would observe them.
///
/// The default ([`RetryPolicy::disabled`]) performs no retries and arms no
/// timers, so workloads that do not opt in behave — event for event —
/// exactly as they did before this type existed.
///
/// # Examples
///
/// ```
/// use reflex_core::RetryPolicy;
/// use reflex_sim::SimDuration;
///
/// let policy = RetryPolicy::standard();
/// assert!(policy.is_active());
/// assert_eq!(policy.backoff_after(1), SimDuration::from_micros(50));
/// assert_eq!(policy.backoff_after(3), SimDuration::from_micros(200));
/// assert!(!RetryPolicy::disabled().is_active());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub base_backoff: SimDuration,
    /// Per-attempt response deadline. `None` waits forever (errors can
    /// still trigger retries; lost messages hang the request slot).
    pub timeout: Option<SimDuration>,
}

impl RetryPolicy {
    /// No retries, no timeouts — the zero-cost default.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDuration::ZERO,
            timeout: None,
        }
    }

    /// Sane production defaults: 4 attempts, 50µs base backoff, 10ms
    /// per-attempt timeout. The timeout sits far above healthy p999
    /// latency (hundreds of µs) while still bounding recovery from a lost
    /// message to ~10ms.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_micros(50),
            timeout: Some(SimDuration::from_millis(10)),
        }
    }

    /// `true` when the policy can retry or time out (i.e. is not the
    /// disabled default).
    pub fn is_active(&self) -> bool {
        self.max_attempts > 1 || self.timeout.is_some()
    }

    /// Backoff delay after a failed attempt `attempt` (1-based):
    /// `base_backoff * 2^(attempt-1)`, saturating; attempt 0 backs off
    /// like attempt 1.
    pub fn backoff_after(&self, attempt: u32) -> SimDuration {
        self.base_backoff
            .mul_f64((1u64 << attempt.saturating_sub(1).min(32)) as f64)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// One tenant-bound request stream.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Human-readable label used in reports.
    pub name: String,
    /// Tenant identity (registered with the server at setup).
    pub tenant: TenantId,
    /// LC (with SLO) or BE.
    pub class: TenantClass,
    /// Request generation shape.
    pub pattern: LoadPattern,
    /// Percentage of requests that are reads (0–100).
    pub read_pct: u8,
    /// Request size in bytes.
    pub io_size: u32,
    /// Number of TCP connections.
    pub conns: u32,
    /// Client threads the connections are spread over (bounds Linux-client
    /// message rates).
    pub client_threads: u32,
    /// Index of the client machine issuing this workload.
    pub client_machine: usize,
    /// Threads the tenant's SLO is sharded across (1 = the paper's
    /// single-thread-per-tenant limitation; >1 removes it, §4.1 future
    /// work).
    pub shards: u32,
    /// Inter-arrival process for open-loop generation.
    pub arrival: ArrivalProcess,
    /// Address pattern within the namespace.
    pub addr_pattern: AddrPattern,
    /// Namespace (byte offset, byte length) on the device.
    pub namespace: (u64, u64),
    /// Client-side timeout/retry policy (default:
    /// [`RetryPolicy::disabled`]).
    pub retry: RetryPolicy,
    /// `Some`: the workload is replicated by its client over the
    /// testbed's replication factor R — every write fans out to the R
    /// members of its replica set and completes on a majority of acks,
    /// reads follow the policy, and latencies are whole-op (issue to
    /// quorum). `None`: one copy, on the first site.
    pub replicated: Option<ReadPolicy>,
}

impl WorkloadSpec {
    /// A convenient open-loop workload with sensible defaults: uniform
    /// random 4KB requests on one connection from client machine 0 over
    /// the whole first terabyte.
    pub fn open_loop(name: &str, tenant: TenantId, class: TenantClass, iops: f64) -> Self {
        WorkloadSpec {
            name: name.to_owned(),
            tenant,
            class,
            pattern: LoadPattern::OpenLoop { iops },
            read_pct: 100,
            io_size: 4096,
            conns: 1,
            client_threads: 1,
            client_machine: 0,
            shards: 1,
            arrival: ArrivalProcess::Paced,
            addr_pattern: AddrPattern::UniformRandom,
            namespace: (0, 1 << 40),
            retry: RetryPolicy::disabled(),
            replicated: None,
        }
    }

    /// A replicated open-loop workload as the replication figures run
    /// it: Poisson arrivals at the SLO's read percentage, 4 connections
    /// per member over 2 client threads, a 1 GiB namespace (also the
    /// volume a replacement member re-syncs), primary reads, and 4
    /// attempts with a 10 ms base per-attempt deadline.
    ///
    /// The deadline sits far above healthy p999 latency on purpose: a
    /// deadline close to the queue delay of a briefly-backlogged member
    /// (e.g. a fresh replacement absorbing the post-failover inrush)
    /// turns every late response into a retransmission, and at R=2 the
    /// quorum needs every member, so the storm feeds itself and the
    /// member never drains.
    pub fn replicated(name: &str, tenant: TenantId, slo: SloSpec, iops: f64) -> Self {
        WorkloadSpec {
            read_pct: slo.read_pct,
            conns: 4,
            client_threads: 2,
            arrival: ArrivalProcess::Poisson,
            namespace: (0, 1 << 30),
            retry: RetryPolicy {
                max_attempts: 4,
                base_backoff: SimDuration::from_micros(100),
                timeout: Some(SimDuration::from_millis(10)),
            },
            replicated: Some(ReadPolicy::Primary),
            ..Self::open_loop(name, tenant, TenantClass::LatencyCritical(slo), iops)
        }
    }

    /// Replicates the workload, serving its reads by `policy`.
    pub fn with_read_policy(mut self, policy: ReadPolicy) -> Self {
        self.replicated = Some(policy);
        self
    }

    /// Sets the client-side timeout/retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// A closed-loop workload (queue depth per connection).
    pub fn closed_loop(name: &str, tenant: TenantId, class: TenantClass, queue_depth: u32) -> Self {
        WorkloadSpec {
            pattern: LoadPattern::ClosedLoop { queue_depth },
            ..Self::open_loop(name, tenant, class, 0.0)
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.read_pct > 100 {
            return Err("read_pct must be 0..=100".into());
        }
        if self.io_size == 0 {
            return Err("io_size must be non-zero".into());
        }
        if self.conns == 0 {
            return Err("need at least one connection".into());
        }
        if self.client_threads == 0 {
            return Err("need at least one client thread".into());
        }
        if self.shards == 0 {
            return Err("need at least one shard".into());
        }
        if let LoadPattern::OpenLoop { iops } = self.pattern {
            if iops.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err("open-loop iops must be positive".into());
            }
        }
        if let LoadPattern::ClosedLoop { queue_depth } = self.pattern {
            if queue_depth == 0 {
                return Err("queue depth must be positive".into());
            }
        }
        if self.namespace.1 < self.io_size as u64 {
            return Err("namespace smaller than one request".into());
        }
        if self.retry.max_attempts == 0 {
            return Err("retry max_attempts must be at least 1".into());
        }
        if self.replicated.is_some() {
            if self.class.slo().is_none() {
                return Err("a replicated tenant reserves its SLO on every member".into());
            }
            if matches!(self.pattern, LoadPattern::ClosedLoop { .. }) || self.shards != 1 {
                return Err("replicated workloads are open-loop and unsharded".into());
            }
            if self.retry.timeout.is_none() {
                return Err(
                    "replicated requests need retry.timeout: without a per-attempt deadline \
                     a quorum op hangs forever on one message lost to a dead server"
                        .into(),
                );
            }
        }
        Ok(())
    }
}

/// Measured results of one workload over the measurement window.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The workload's label.
    pub name: String,
    /// Its tenant.
    pub tenant: TenantId,
    /// Read-latency histogram (request issue → response at client app).
    pub read_latency: Histogram,
    /// Write-latency histogram.
    pub write_latency: Histogram,
    /// Completed reads + writes per second of measured time.
    pub iops: f64,
    /// Completed reads per second.
    pub read_iops: f64,
    /// Completed writes per second.
    pub write_iops: f64,
    /// Goodput in bytes/second (reads returned + writes sent).
    pub bytes_per_sec: f64,
    /// Requests that failed for good within the window — an error or a
    /// timeout with no attempt left, a replicated op's lost quorum, a set
    /// with no member left. Each also counts in `exhausted`.
    pub errors: u64,
    /// Requests issued during measurement.
    pub issued: u64,
    /// Retransmissions performed by the retry policy.
    pub retries: u64,
    /// Requests that ultimately succeeded after at least one retry.
    pub retry_success: u64,
    /// Requests that failed for good since measurement began, whatever
    /// the retry policy; `errors` counts those whose end fell in the
    /// window.
    pub exhausted: u64,
    /// Per-attempt timeouts that fired.
    pub timeouts: u64,
    /// Success-rate time series over the measurement window (10ms
    /// buckets), the raw material for Figure-6a-style plots: it sums to
    /// the window's completed reads and writes, so an outage shows as a
    /// clean dip.
    pub iops_series: Vec<RatePoint>,
}

impl WorkloadReport {
    /// p95 read latency in microseconds — the paper's headline metric.
    pub fn p95_read_us(&self) -> f64 {
        self.read_latency.p95().as_micros_f64()
    }

    /// p95 write latency in microseconds.
    pub fn p95_write_us(&self) -> f64 {
        self.write_latency.p95().as_micros_f64()
    }

    /// Mean read latency in microseconds.
    pub fn mean_read_us(&self) -> f64 {
        self.read_latency.mean().as_micros_f64()
    }
}

/// Internal per-workload runtime state (used by the testbed).
#[derive(Debug)]
pub(crate) struct WorkloadState {
    pub spec: WorkloadSpec,
    /// This workload's private randomness (address pattern, read/write
    /// mix, open-loop gaps). Keyed by the workload's registration index via
    /// [`SimRng::stream`] rather than forked from a shared generator, so
    /// the stream is a stable function of the workload's identity — draws
    /// by one workload (or by the fabric/device) can never shift another's
    /// stream.
    pub rng: SimRng,
    /// Where the workload's copies live, slot order: one member on the
    /// first site, or a replicated workload's current replica set
    /// (mutated only by failover).
    pub members: Vec<MemberLink>,
    /// Primary slot (serves `ReadPolicy::Primary` reads).
    pub primary: usize,
    /// Membership epoch; bumped by every failover affecting the set.
    pub epoch: u32,
    /// Ops issued so far (rotates quorum-read start slots).
    pub op_rr: u64,
    /// Client thread index serving each connection.
    pub conn_thread: Vec<u32>,
    /// Read/write interleave accumulator (percent units).
    pub read_debt: u32,
    pub read_hist: Histogram,
    pub write_hist: Histogram,
    pub completed_reads: u64,
    pub completed_writes: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub errors: u64,
    pub issued: u64,
    pub retries: u64,
    pub retry_success: u64,
    pub exhausted: u64,
    pub timeouts: u64,
    pub stopped: bool,
    pub iops_series: RateSeries,
    /// Mean gap between an open-loop generator's requests (zero otherwise).
    pub mean_gap: SimDuration,
}

impl WorkloadState {
    pub fn new(spec: WorkloadSpec, rng: SimRng) -> Self {
        let mean_gap = match spec.pattern {
            LoadPattern::OpenLoop { iops } => SimDuration::from_secs_f64(1.0 / iops),
            LoadPattern::ClosedLoop { .. } => SimDuration::ZERO,
        };
        WorkloadState {
            mean_gap,
            spec,
            rng,
            members: Vec::new(),
            primary: 0,
            epoch: 0,
            op_rr: 0,
            conn_thread: Vec::new(),
            read_debt: 0,
            read_hist: Histogram::new(),
            write_hist: Histogram::new(),
            completed_reads: 0,
            completed_writes: 0,
            read_bytes: 0,
            write_bytes: 0,
            errors: 0,
            issued: 0,
            retries: 0,
            retry_success: 0,
            exhausted: 0,
            timeouts: 0,
            stopped: false,
            iops_series: RateSeries::new(SimDuration::from_millis(10)),
        }
    }

    pub fn reset_measurement(&mut self) {
        self.iops_series = RateSeries::new(SimDuration::from_millis(10));
        self.read_hist.reset();
        self.write_hist.reset();
        self.completed_reads = 0;
        self.completed_writes = 0;
        self.read_bytes = 0;
        self.write_bytes = 0;
        self.errors = 0;
        self.issued = 0;
        self.retries = 0;
        self.retry_success = 0;
        self.exhausted = 0;
        self.timeouts = 0;
    }

    pub fn report(&self, window: SimDuration) -> WorkloadReport {
        let secs = window.as_secs_f64().max(1e-12);
        let mut series = self.iops_series.clone();
        series.finish(SimTime::ZERO + window);
        WorkloadReport {
            name: self.spec.name.clone(),
            tenant: self.spec.tenant,
            read_latency: self.read_hist.clone(),
            write_latency: self.write_hist.clone(),
            iops: (self.completed_reads + self.completed_writes) as f64 / secs,
            read_iops: self.completed_reads as f64 / secs,
            write_iops: self.completed_writes as f64 / secs,
            bytes_per_sec: (self.read_bytes + self.write_bytes) as f64 / secs,
            errors: self.errors,
            issued: self.issued,
            retries: self.retries,
            retry_success: self.retry_success,
            exhausted: self.exhausted,
            timeouts: self.timeouts,
            iops_series: series.points().to_vec(),
        }
    }
}

/// One member of a workload's replica set, as the data path sees it.
#[derive(Debug, Clone)]
pub(crate) struct MemberLink {
    /// Site hosting this member.
    pub site: usize,
    /// The workload's connections to that site.
    pub conns: Vec<ConnId>,
    /// A freshly-placed replacement serves writes immediately but is not
    /// read-eligible until its background re-sync completes.
    pub resyncing: bool,
}

/// Quorum accounting for one replicated request. Freed when its last
/// attempt concludes (`pending == 0`), which may be after the op itself
/// completed or failed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplOp {
    /// Membership epoch at issue: a retry under another epoch is fenced.
    pub epoch: u32,
    /// Acks required (the quorum).
    pub needed: u8,
    /// Acks received so far.
    pub acks: u8,
    /// Attempts in flight or staged for retry, over all members.
    pub pending: u8,
    /// Completed or failed; stragglers only decrement `pending`.
    pub done: bool,
}

/// The replicated op an attempt belongs to, and the member it goes to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fan {
    pub op: PoolKey,
    pub slot: u8,
}

/// A request outstanding at a client, awaiting its response.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutstandingReq {
    // Indices as `u32`: a backlog holds one of these per request in flight.
    pub workload: u32,
    pub conn_idx: u32,
    /// Issue instant of the *first* attempt — latency is measured from
    /// here so retries surface as tail inflation.
    pub sent_at: SimTime,
    pub is_read: bool,
    pub addr: u64,
    pub len: u32,
    pub measured: bool,
    /// 1-based attempt number of the in-flight transmission.
    pub attempt: u32,
    /// `Some` for one member's share of a replicated request.
    pub fan: Option<Fan>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::open_loop("t", TenantId(1), TenantClass::BestEffort, 1000.0)
    }

    #[test]
    fn default_specs_validate() {
        spec().validate().expect("open loop default valid");
        WorkloadSpec::closed_loop("c", TenantId(2), TenantClass::BestEffort, 4)
            .validate()
            .expect("closed loop default valid");
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut s = spec();
        s.read_pct = 101;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.io_size = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.conns = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.pattern = LoadPattern::OpenLoop { iops: 0.0 };
        assert!(s.validate().is_err());
        let mut s = spec();
        s.pattern = LoadPattern::ClosedLoop { queue_depth: 0 };
        assert!(s.validate().is_err());
        let mut s = spec();
        s.namespace = (0, 100);
        assert!(s.validate().is_err());
    }

    #[test]
    fn attempt_zero_backs_off_like_attempt_one() {
        let policy = RetryPolicy::standard();
        assert_eq!(policy.backoff_after(0), policy.backoff_after(1));
        assert_eq!(policy.backoff_after(0), SimDuration::from_micros(50));
    }

    fn replicated() -> WorkloadSpec {
        let slo = SloSpec::new(10_000, 80, SimDuration::from_micros(500));
        WorkloadSpec::replicated("w", TenantId(1), slo, 10_000.0)
    }

    #[test]
    fn replicated_defaults_validate_and_read_as_the_slo_says() {
        replicated().validate().expect("replicated default valid");
        assert_eq!(replicated().read_pct, 80);
    }

    #[test]
    fn a_replicated_spec_needs_a_deadline_an_slo_and_an_open_loop() {
        let s = replicated().with_retry(RetryPolicy::disabled());
        assert!(s.validate().unwrap_err().contains("timeout"));
        let mut s = replicated();
        s.class = TenantClass::BestEffort;
        assert!(s.validate().unwrap_err().contains("SLO"));
        let mut s = replicated();
        s.pattern = LoadPattern::ClosedLoop { queue_depth: 4 };
        assert!(s.validate().unwrap_err().contains("open-loop"));
    }

    #[test]
    fn report_computes_rates() {
        let mut st = WorkloadState::new(spec(), SimRng::stream(0, 0));
        st.completed_reads = 500;
        st.completed_writes = 100;
        st.read_bytes = 500 * 4096;
        st.write_bytes = 100 * 4096;
        let rep = st.report(SimDuration::from_millis(100));
        assert!((rep.iops - 6_000.0).abs() < 1e-6);
        assert!((rep.read_iops - 5_000.0).abs() < 1e-6);
        let expected_bps = 600.0 * 4096.0 / 0.1;
        assert!((rep.bytes_per_sec - expected_bps).abs() < 1e-3);
    }
}
