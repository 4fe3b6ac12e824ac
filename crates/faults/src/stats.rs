//! Shared fault counters.
//!
//! The injector hooks live inside the device / fabric / engine once
//! installed, so the harness keeps an [`Arc<FaultStats>`] handle and the
//! hooks bump the shared atomics. Reads use relaxed ordering — the
//! simulation is single-threaded per testbed; the atomics only exist so
//! the handle is `Send` across sweep worker threads.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use reflex_sim::SimDuration;

/// Live counters for every injected fault, shared between the installed
/// hooks and the chaos harness. See [`FaultStats::snapshot`] for a plain
/// copy.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// NVMe commands failed by `TransientDeviceErrors` windows.
    pub transient_errors: AtomicU64,
    /// NVMe commands delayed by `GcStorm` windows.
    pub gc_delays: AtomicU64,
    /// NVMe commands aborted because the device was dead.
    pub dead_aborts: AtomicU64,
    /// Messages dropped (packet loss + link-down windows).
    pub dropped: AtomicU64,
    /// Messages duplicated.
    pub duplicated: AtomicU64,
    /// Messages delayed by latency storms.
    pub delayed: AtomicU64,
    /// Link-flap outages fired.
    pub link_downs: AtomicU64,
    /// Connections the server tore down on link death.
    pub conns_torn_down: AtomicU64,
    /// Connections the server re-registered after links returned.
    pub conns_rebound: AtomicU64,
    /// Dataplane thread stalls fired.
    pub thread_stalls: AtomicU64,
    /// Nanoseconds of scheduled unavailability (link-down windows, thread
    /// stalls, and each server death's detection delay).
    pub downtime_ns: AtomicU64,
}

/// A plain copy of [`FaultStats`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// See [`FaultStats::transient_errors`].
    pub transient_errors: u64,
    /// See [`FaultStats::gc_delays`].
    pub gc_delays: u64,
    /// See [`FaultStats::dead_aborts`].
    pub dead_aborts: u64,
    /// See [`FaultStats::dropped`].
    pub dropped: u64,
    /// See [`FaultStats::duplicated`].
    pub duplicated: u64,
    /// See [`FaultStats::delayed`].
    pub delayed: u64,
    /// See [`FaultStats::link_downs`].
    pub link_downs: u64,
    /// See [`FaultStats::conns_torn_down`].
    pub conns_torn_down: u64,
    /// See [`FaultStats::conns_rebound`].
    pub conns_rebound: u64,
    /// See [`FaultStats::thread_stalls`].
    pub thread_stalls: u64,
    /// See [`FaultStats::downtime_ns`].
    pub downtime: SimDuration,
}

impl FaultCounts {
    /// Total individual fault injections (commands failed/delayed/aborted,
    /// messages dropped/duplicated/delayed, stalls) — the "injected" count
    /// reported in the chaos artifacts.
    pub fn injected(&self) -> u64 {
        self.transient_errors
            + self.gc_delays
            + self.dead_aborts
            + self.dropped
            + self.duplicated
            + self.delayed
            + self.thread_stalls
    }
}

impl FaultStats {
    /// Copies the live counters.
    pub fn snapshot(&self) -> FaultCounts {
        FaultCounts {
            transient_errors: self.transient_errors.load(Relaxed),
            gc_delays: self.gc_delays.load(Relaxed),
            dead_aborts: self.dead_aborts.load(Relaxed),
            dropped: self.dropped.load(Relaxed),
            duplicated: self.duplicated.load(Relaxed),
            delayed: self.delayed.load(Relaxed),
            link_downs: self.link_downs.load(Relaxed),
            conns_torn_down: self.conns_torn_down.load(Relaxed),
            conns_rebound: self.conns_rebound.load(Relaxed),
            thread_stalls: self.thread_stalls.load(Relaxed),
            downtime: SimDuration::from_nanos(self.downtime_ns.load(Relaxed)),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Relaxed);
    }

    /// Adds planned downtime to the accumulated total.
    pub(crate) fn add_downtime(&self, d: SimDuration) {
        self.downtime_ns.fetch_add(d.as_nanos(), Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_injected_total() {
        let stats = FaultStats::default();
        FaultStats::bump(&stats.transient_errors);
        FaultStats::bump(&stats.dropped);
        FaultStats::bump(&stats.dropped);
        FaultStats::bump(&stats.link_downs);
        stats.add_downtime(SimDuration::from_millis(3));
        let snap = stats.snapshot();
        assert_eq!(snap.transient_errors, 1);
        assert_eq!(snap.dropped, 2);
        // link_downs is an outage count, not a per-injection count.
        assert_eq!(snap.injected(), 3);
        assert_eq!(snap.downtime, SimDuration::from_millis(3));
    }
}
