//! Fault counts.
//!
//! The injector hooks live inside the device and the fabric once
//! installed, and the discrete faults run as engine events, so
//! [`install`](crate::install) hands the harness one
//! `Rc<Cell<FaultCounts>>` that the hooks and the scheduled closures all
//! count into. A world runs on one host thread, so the counts are plain
//! integers: read them with `Cell::get` at any instant.

use std::cell::Cell;

use reflex_sim::SimDuration;

/// Counts of every fault injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// NVMe commands failed by `TransientDeviceErrors` windows.
    pub transient_errors: u64,
    /// NVMe commands delayed by `GcStorm` windows.
    pub gc_delays: u64,
    /// NVMe commands aborted because the device was dead.
    pub dead_aborts: u64,
    /// Messages dropped (packet loss + link-down windows).
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages delayed by latency storms.
    pub delayed: u64,
    /// Link-flap outages fired.
    pub link_downs: u64,
    /// Connections the server tore down on link death.
    pub conns_torn_down: u64,
    /// Connections the server re-registered after links returned.
    pub conns_rebound: u64,
    /// Dataplane thread stalls fired.
    pub thread_stalls: u64,
    /// Scheduled unavailability: link-down windows, thread stalls, and
    /// each server death's detection delay.
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

/// Applies `f` to the counts in `counts`.
pub(crate) fn count(counts: &Cell<FaultCounts>, f: impl FnOnce(&mut FaultCounts)) {
    let mut c = counts.get();
    f(&mut c);
    counts.set(c);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_injected_total() {
        let counts = Cell::new(FaultCounts::default());
        count(&counts, |c| c.transient_errors += 1);
        count(&counts, |c| c.dropped += 2);
        count(&counts, |c| c.link_downs += 1);
        count(&counts, |c| c.downtime += SimDuration::from_millis(3));
        let snap = counts.get();
        assert_eq!(snap.transient_errors, 1);
        assert_eq!(snap.dropped, 2);
        // link_downs is an outage count, not a per-injection count.
        assert_eq!(snap.injected(), 3);
        assert_eq!(snap.downtime, SimDuration::from_millis(3));
    }
}
