//! Fault plans: *what* goes wrong, *when*, and for *how long*.
//!
//! A [`FaultPlan`] is a declarative schedule of [`FaultEvent`]s. Nothing
//! in a plan is random at plan-build time; probabilistic faults (packet
//! loss, transient device errors) carry a *rate* and draw from a private
//! RNG stream keyed by `(plan.seed, event.id)` at injection time, so two
//! runs of the same plan against the same workload are bit-identical —
//! regardless of how many sweep threads execute neighbouring points.

use reflex_sim::{SimDuration, SimTime};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// While active, each NVMe command fails with probability `rate`
    /// (completes with a media-error status; the ReFlex wire protocol
    /// reports it to the client as a retryable error).
    TransientDeviceErrors {
        /// Per-command failure probability in `[0, 1]`.
        rate: f64,
        /// How long the error window lasts.
        duration: SimDuration,
    },
    /// A garbage-collection storm: while active, every command's
    /// completion is pushed out by `extra` (stuck-GC latency spike).
    GcStorm {
        /// Added device latency per command.
        extra: SimDuration,
        /// How long the storm lasts.
        duration: SimDuration,
    },
    /// The device dies at the event instant and never recovers: every
    /// later command aborts with `DeviceUnavailable`.
    DeviceDeath,
    /// The link to client machine `client` (index into the testbed's
    /// client list) drops for `down_for`: in-flight and new packets
    /// to/from that machine are lost, and the server tears down its
    /// connections, re-registering them when the link returns.
    LinkFlap {
        /// Client index (see `Testbed::client_count`).
        client: usize,
        /// Length of the outage.
        down_for: SimDuration,
    },
    /// While active, each message is dropped with probability `rate`.
    PacketLoss {
        /// Per-message drop probability in `[0, 1]`.
        rate: f64,
        /// How long the lossy window lasts.
        duration: SimDuration,
    },
    /// While active, each message is duplicated with probability `rate`
    /// (the copy trails the original; receivers must de-duplicate).
    PacketDup {
        /// Per-message duplication probability in `[0, 1]`.
        rate: f64,
        /// How long the window lasts.
        duration: SimDuration,
    },
    /// A latency storm: while active, every message is delayed by
    /// `extra` on top of its modelled wire time.
    LatencyStorm {
        /// Added one-way latency per message.
        extra: SimDuration,
        /// How long the storm lasts.
        duration: SimDuration,
    },
    /// Dataplane thread `thread` stops polling for `stall` (e.g. it was
    /// preempted or wedged); its queues back up and drain afterwards.
    ThreadStall {
        /// Server thread index.
        thread: usize,
        /// Length of the stall.
        stall: SimDuration,
    },
    /// A whole server dies: its NIC links go permanently dark and its
    /// device aborts every queued and future command, and the testbed's
    /// coordinator fails the replica sets with a member there over.
    ServerDeath {
        /// Site index (server machine) to kill.
        server: usize,
    },
}

/// One scheduled fault: a [`FaultKind`] firing at instant `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Stable id, used to key the event's private RNG stream.
    pub id: u32,
    /// Simulation instant the fault begins.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults.
///
/// Build one with [`FaultPlan::seeded`] + [`FaultPlan::with_event`], or
/// use [`FaultPlan::none`] for a guaranteed-healthy run (installing an
/// empty plan arms no hooks and schedules no events, so the simulation
/// is byte-identical to one that never heard of fault injection).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; each event's RNG stream is derived from
    /// `(seed, event.id)`.
    pub seed: u64,
    /// The schedule, in insertion order (ids are assigned sequentially).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults, no hooks, zero overhead.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// An empty plan carrying `seed` for the events added later.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Appends an event starting at `at`; ids are assigned in insertion
    /// order so a plan built the same way always keys the same streams.
    #[must_use]
    pub fn with_event(mut self, at: SimTime, kind: FaultKind) -> Self {
        let id = u32::try_from(self.events.len()).expect("fault plan too large");
        self.events.push(FaultEvent { id, at, kind });
        self
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The RNG seed for event `id`'s private stream (splitmix64 finalizer
    /// over the master seed, so neighbouring ids decorrelate).
    pub(crate) fn stream_seed(&self, id: u32) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(u64::from(id) + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential_and_streams_decorrelate() {
        let plan = FaultPlan::seeded(7)
            .with_event(SimTime::ZERO, FaultKind::DeviceDeath)
            .with_event(
                SimTime::ZERO + SimDuration::from_millis(1),
                FaultKind::ThreadStall {
                    thread: 0,
                    stall: SimDuration::from_micros(100),
                },
            );
        assert_eq!(plan.events[0].id, 0);
        assert_eq!(plan.events[1].id, 1);
        assert_ne!(plan.stream_seed(0), plan.stream_seed(1));
        // Same plan, same streams.
        assert_eq!(plan.stream_seed(0), FaultPlan::seeded(7).stream_seed(0));
        // Different master seed, different streams.
        assert_ne!(plan.stream_seed(0), FaultPlan::seeded(8).stream_seed(0));
    }

    #[test]
    fn none_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::none()
            .with_event(SimTime::ZERO, FaultKind::DeviceDeath)
            .is_empty());
    }
}
