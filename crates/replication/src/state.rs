//! Per-workload runtime state for the replicated client.

use reflex_core::WorkloadReport;
use reflex_sim::{Histogram, RateSeries, SimDuration, SimRng, SimTime};

use crate::spec::ReplWorkloadSpec;
use crate::world::MemberLink;

/// Bucket width of the completion-rate series (matches the core client,
/// so recovery analysis can share one metric definition).
const SERIES_BUCKET: SimDuration = SimDuration::from_millis(10);

/// Internal per-workload runtime state.
#[derive(Debug)]
pub(crate) struct ReplState {
    pub spec: ReplWorkloadSpec,
    /// This workload's private randomness (addresses, open-loop gaps),
    /// keyed by registration index via `SimRng::stream` so adding a
    /// workload never perturbs another's sequence.
    pub rng: SimRng,
    /// Current replica membership, slot order. Mutated only by failover.
    pub members: Vec<MemberLink>,
    /// Primary slot (serves `ReadPolicy::Primary` reads).
    pub primary: usize,
    /// Membership epoch; bumped by every failover affecting this set.
    pub epoch: u32,
    pub stopped: bool,
    /// Read/write interleaving accumulator (deterministic mix).
    pub read_debt: u32,
    /// Round-robin cursor over connections.
    pub conn_rr: u64,
    /// Round-robin cursor over ops (rotates quorum-read start slots).
    pub op_rr: u64,
    pub read_hist: Histogram,
    pub write_hist: Histogram,
    /// Successful completions per 10 ms bucket of measured time. Unlike
    /// the core client this counts *successes only* (errors excluded), so
    /// a failover blackout shows as a clean rate dip and the recovery
    /// metric does not count error responses as served load.
    pub iops_series: RateSeries,
    pub issued: u64,
    pub errors: u64,
    pub retries: u64,
    pub retry_success: u64,
    pub exhausted: u64,
    pub timeouts: u64,
    pub completed_reads: u64,
    pub completed_writes: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
}

impl ReplState {
    pub fn new(spec: ReplWorkloadSpec, rng: SimRng, members: Vec<MemberLink>) -> Self {
        ReplState {
            spec,
            rng,
            members,
            primary: 0,
            epoch: 0,
            stopped: false,
            read_debt: 0,
            conn_rr: 0,
            op_rr: 0,
            read_hist: Histogram::new(),
            write_hist: Histogram::new(),
            iops_series: RateSeries::new(SERIES_BUCKET),
            issued: 0,
            errors: 0,
            retries: 0,
            retry_success: 0,
            exhausted: 0,
            timeouts: 0,
            completed_reads: 0,
            completed_writes: 0,
            read_bytes: 0,
            write_bytes: 0,
        }
    }

    /// Resets measurement accumulators; generator state (RNG, cursors,
    /// membership) is untouched so measurement starts mid-stream.
    pub fn reset_measurement(&mut self) {
        self.read_hist.reset();
        self.write_hist.reset();
        self.iops_series = RateSeries::new(SERIES_BUCKET);
        self.issued = 0;
        self.errors = 0;
        self.retries = 0;
        self.retry_success = 0;
        self.exhausted = 0;
        self.timeouts = 0;
        self.completed_reads = 0;
        self.completed_writes = 0;
        self.read_bytes = 0;
        self.write_bytes = 0;
    }

    /// Renders this workload's measured window as the core crate's
    /// [`WorkloadReport`] so replication figures reuse plain reporting.
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
