//! The server-side interface the [`Testbed`](crate::Testbed) drives.
//!
//! The ReFlex server implements it natively; the baseline servers (iSCSI,
//! libaio+libevent) in `reflex-baselines` implement it too, so every
//! comparison in the evaluation runs through the *same* clients, fabric,
//! device and measurement code — only the server under test changes.

use std::collections::HashMap;

use reflex_dataplane::{AclEntry, ThreadStats, WireMsg};
use reflex_flash::FlashDevice;
use reflex_net::{ConnId, Fabric, MachineId, NicQueueId};
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::{SimDuration, SimTime};
use reflex_telemetry::Telemetry;

use crate::server::AdmissionError;

/// A server under test: owns its dataplane/worker threads and NVMe queue
/// pairs, serves requests arriving on its machine's NIC queues, and sends
/// responses back over the fabric.
pub trait ServerHarness {
    /// The server's machine on the fabric.
    fn machine(&self) -> MachineId;

    /// Number of active worker threads.
    fn active_threads(&self) -> usize;

    /// Upper bound on worker threads over the run (for wake bookkeeping).
    fn max_threads(&self) -> usize {
        self.active_threads()
    }

    /// The NIC receive queue thread `i` polls.
    fn nic_queue(&self, thread: usize) -> NicQueueId;

    /// Registers a tenant (admission control where supported). Returns the
    /// worker thread the tenant was placed on.
    ///
    /// # Errors
    ///
    /// [`AdmissionError`] on duplicates or SLO rejection.
    fn register_tenant(
        &mut self,
        id: TenantId,
        class: TenantClass,
        acl: AclEntry,
        io_size: u32,
    ) -> Result<usize, AdmissionError>;

    /// Registers a tenant sharded across `shards` worker threads (the
    /// ReFlex server implements this; harness servers without sharding
    /// support fall back to single-thread registration when `shards == 1`
    /// and reject otherwise).
    ///
    /// # Errors
    ///
    /// [`AdmissionError`] on duplicates, rejection, or lack of support.
    fn register_tenant_sharded(
        &mut self,
        id: TenantId,
        class: TenantClass,
        acl: AclEntry,
        io_size: u32,
        shards: u32,
    ) -> Result<Vec<usize>, AdmissionError> {
        if shards == 1 {
            return self
                .register_tenant(id, class, acl, io_size)
                .map(|t| vec![t]);
        }
        Err(AdmissionError::NotAdmissible {
            required: shards as f64,
            available: 1.0,
        })
    }

    /// Binds a client connection to a tenant; returns (thread, queue).
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Unknown`] for unknown tenants.
    fn bind_connection(
        &mut self,
        conn: ConnId,
        tenant: TenantId,
        client: MachineId,
    ) -> Result<(usize, NicQueueId), AdmissionError>;

    /// The NIC queue currently serving `conn`.
    fn route(&self, conn: ConnId) -> Option<NicQueueId>;

    /// The worker thread currently serving `conn`.
    fn thread_of_conn(&self, conn: ConnId) -> Option<usize>;

    /// Runs worker `i`'s processing loop at `now`; returns the next wake.
    fn pump_thread(
        &mut self,
        i: usize,
        now: SimTime,
        fabric: &mut Fabric<WireMsg>,
        device: &mut FlashDevice,
    ) -> Option<SimTime>;

    /// Settles the scheduling rounds the workers slept through strictly
    /// before `before`. The testbed calls it ahead of everything that
    /// pumps, mutates or reads the server at an instant; a server whose
    /// workers are pumped for every round has nothing to settle.
    fn settle(&mut self, _before: SimTime) {}

    /// The instant worker `i` must next be pumped on account of its own
    /// schedule, for a testbed pumping workers at `now`: `now` itself
    /// when a round it would sleep through falls on it.
    fn round_wake(&self, _i: usize, _now: SimTime) -> Option<SimTime> {
        None
    }

    /// Whether a control-plane or fault entry has moved some worker's
    /// [`round_wake`](Self::round_wake) earlier since the last call.
    fn take_woken(&mut self) -> bool {
        false
    }

    /// Scheduling rounds settled instead of pumped, and the settle passes
    /// that found any.
    fn sleep_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Periodic control-plane tick: flags tenants for SLO renegotiation
    /// and scales threads. Servers without a control plane do nothing.
    fn control_tick(&mut self, _now: SimTime, _window: SimDuration) {}

    /// Installs a telemetry handle on the server's workers. Servers
    /// without instrumentation ignore it (the testbed still records
    /// client-side and fabric telemetry around them).
    fn set_telemetry(&mut self, _telemetry: Telemetry) {}

    /// What the workers' QoS schedulers counted, summed: rounds, LC and
    /// BE admissions, deficit notifications (zero without a scheduler).
    fn sched_counts(&self) -> [u64; 4] {
        [0; 4]
    }

    /// Cumulative CPU time of worker `i`.
    fn busy_time(&self, i: usize) -> SimDuration;

    /// Cumulative QoS-scheduling CPU time of worker `i` (zero when the
    /// server has no scheduler).
    fn sched_time(&self, _i: usize) -> SimDuration {
        SimDuration::ZERO
    }

    /// Dataplane-style statistics for worker `i`, when available.
    fn thread_stats(&self, _i: usize) -> Option<ThreadStats> {
        None
    }

    /// Cumulative millitokens spent per tenant (empty without a QoS
    /// scheduler).
    fn tenants_spent_millitokens(&self) -> HashMap<TenantId, i64> {
        HashMap::new()
    }

    /// Tenants flagged for renegotiation so far.
    fn renegotiations(&self) -> Vec<TenantId> {
        Vec::new()
    }
}
