//! The ReFlex server: dataplane threads plus the local control plane.
//!
//! [`ReflexServer`] owns one dataplane thread per core (each with its own
//! NIC receive queue and NVMe queue pair), the shared global token bucket,
//! and the control-plane state: tenant admission, token-rate management,
//! deficit monitoring and thread scaling (paper §4.1, §4.3).

use std::collections::HashMap;
use std::sync::Arc;

use reflex_dataplane::{AclEntry, DataplaneConfig, DataplaneThread, WireMsg};
use reflex_flash::FlashDevice;
use reflex_net::{ConnId, ConnTable, Fabric, MachineId, NicQueueId};
use reflex_qos::{
    CostModel, GlobalBucket, LoadMix, SchedulerParams, SloSpec, TenantClass, TenantId, TokenRate,
};
use reflex_sim::{SimDuration, SimTime};

use crate::capacity::CapacityProfile;

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Dataplane threads active initially.
    pub threads: u32,
    /// Maximum threads the control plane may scale up to.
    pub max_threads: u32,
    /// Per-thread dataplane CPU costs.
    pub dataplane: DataplaneConfig,
    /// Algorithm 1 tuning parameters.
    pub sched_params: SchedulerParams,
    /// Enables control-plane thread scaling.
    pub auto_scale: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 1,
            max_threads: 12,
            dataplane: DataplaneConfig::default(),
            sched_params: SchedulerParams::default(),
            auto_scale: false,
        }
    }
}

/// Why a tenant could not be registered.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// Admitting the SLO would violate the strictest-latency capacity
    /// constraint; carries (required, available) tokens/sec.
    NotAdmissible {
        /// Token rate the new SLO would reserve.
        required: f64,
        /// Unreserved token rate at the would-be strictest SLO.
        available: f64,
    },
    /// The tenant id is already registered.
    Duplicate(TenantId),
    /// The tenant id is unknown (unregister/bind).
    Unknown(TenantId),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::NotAdmissible {
                required,
                available,
            } => write!(
                f,
                "SLO not admissible: needs {required:.0} tokens/s, {available:.0} available"
            ),
            AdmissionError::Duplicate(t) => write!(f, "{t} already registered"),
            AdmissionError::Unknown(t) => write!(f, "{t} unknown"),
        }
    }
}

impl std::error::Error for AdmissionError {}

#[derive(Debug, Clone)]
struct TenantInfo {
    class: TenantClass,
    thread: usize,
    acl: AclEntry,
    io_size: u32,
    conns: Vec<ConnId>,
    /// (thread, internal shard id) pairs; a single entry for ordinary
    /// tenants. Sharded tenants (paper §4.1 future work) split their SLO
    /// across threads and spread connections round-robin.
    shards: Vec<(usize, TenantId)>,
    shard_rr: usize,
}

/// The ReFlex server with its local control plane.
#[derive(Debug)]
pub struct ReflexServer {
    machine: MachineId,
    threads: Vec<DataplaneThread>,
    active_threads: usize,
    bucket: Arc<GlobalBucket>,
    cost_model: CostModel,
    capacity: CapacityProfile,
    config: ServerConfig,
    tenants: HashMap<TenantId, TenantInfo>,
    /// Serving thread and client machine of every bound connection.
    conn_route: ConnTable<(usize, MachineId)>,
    /// Connections torn down because their client's link died, awaiting
    /// re-registration when the link returns.
    parked: HashMap<MachineId, Vec<(ConnId, TenantId)>>,
    next_shard_id: u32,
    last_busy: Vec<SimDuration>,
    last_deficits: HashMap<TenantId, u64>,
    /// Tenants flagged for SLO renegotiation (persistent deficits), in
    /// flagging order.
    renegotiations: Vec<TenantId>,
    /// Scratch recycled by `control_tick`, which runs inside every
    /// measured window: the sorted tenant ids and the histograms to reset.
    tick_ids: Vec<TenantId>,
    tick_resets: Vec<(usize, TenantId)>,
}

impl ReflexServer {
    /// Builds a server on `machine`, creating one NIC queue and one NVMe
    /// queue pair per potential thread.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads` is zero or exceeds `config.max_threads`.
    pub fn new(
        machine: MachineId,
        fabric: &mut Fabric<WireMsg>,
        device: &mut FlashDevice,
        cost_model: CostModel,
        capacity: CapacityProfile,
        config: ServerConfig,
        now: SimTime,
    ) -> Self {
        assert!(config.threads >= 1, "server needs at least one thread");
        assert!(
            config.threads <= config.max_threads,
            "threads exceed max_threads"
        );
        let bucket = Arc::new(GlobalBucket::new(config.threads));
        let mut threads = Vec::new();
        for i in 0..config.max_threads {
            // Thread 0 polls the machine's default queue 0; later threads
            // get dedicated queues.
            let queue = if i == 0 {
                NicQueueId(0)
            } else {
                fabric.add_queue(machine)
            };
            let qp = device.create_queue_pair();
            threads.push(DataplaneThread::new(
                i,
                machine,
                queue,
                qp,
                Arc::clone(&bucket),
                cost_model.clone(),
                config.sched_params,
                config.dataplane,
                now,
            ));
        }
        let last_busy = vec![SimDuration::ZERO; threads.len()];
        ReflexServer {
            machine,
            threads,
            active_threads: config.threads as usize,
            bucket,
            cost_model,
            capacity,
            config,
            tenants: HashMap::new(),
            conn_route: ConnTable::new(),
            parked: HashMap::new(),
            next_shard_id: 0x8000_0000,
            last_busy,
            last_deficits: HashMap::new(),
            renegotiations: Vec::new(),
            tick_ids: Vec::new(),
            tick_resets: Vec::new(),
        }
    }

    /// The server's machine id on the fabric.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Currently active dataplane threads.
    pub fn active_threads(&self) -> usize {
        self.active_threads
    }

    /// All dataplane threads (active first).
    pub fn threads(&self) -> &[DataplaneThread] {
        &self.threads
    }

    /// Exclusive access to thread `i`.
    pub fn thread_mut(&mut self, i: usize) -> &mut DataplaneThread {
        &mut self.threads[i]
    }

    /// The capacity profile used for admission control.
    pub fn capacity(&self) -> &CapacityProfile {
        &self.capacity
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// The strictest (smallest) p95 bound among registered LC tenants.
    pub fn strictest_slo(&self) -> Option<SimDuration> {
        self.tenants
            .values()
            .filter_map(|t| t.class.slo().map(|s| s.p95_read_latency))
            .min()
    }

    /// Total token rate reserved by LC tenants (tokens/sec).
    pub(crate) fn lc_reserved_tokens_per_sec(&self) -> f64 {
        self.tenants
            .values()
            .filter_map(|t| {
                t.class.slo().map(|s| {
                    s.token_rate(&self.cost_model, t.io_size)
                        .as_tokens_per_sec_f64()
                })
            })
            .sum()
    }

    fn be_count(&self) -> usize {
        self.tenants
            .values()
            .filter(|t| !t.class.is_latency_critical())
            .count()
    }

    /// The token rate the scheduler generates in total: the device capacity
    /// at the strictest registered latency SLO (or the device max when only
    /// best-effort tenants exist).
    pub(crate) fn total_token_rate(&self) -> f64 {
        match self.strictest_slo() {
            Some(slo) => self.capacity.tokens_per_sec_at(slo),
            None => self.capacity.max_rate().as_tokens_per_sec_f64(),
        }
    }

    /// Recomputes BE fair shares and pushes them to every thread
    /// (invoked on every registration change, paper §4.3).
    pub(crate) fn recompute_rates(&mut self) {
        let total = self.total_token_rate();
        let lc = self.lc_reserved_tokens_per_sec();
        let spare = (total - lc).max(0.0);
        let n_be = self.be_count();
        let per_tenant = if n_be == 0 { 0.0 } else { spare / n_be as f64 };
        let rate = TokenRate::millitokens_per_sec((per_tenant * 1_000.0) as u64);
        // Scheduling rounds must stay within 5% of the strictest SLO
        // (paper §3.2.2); default to 500us spacing with no LC tenants.
        let max_interval = self
            .strictest_slo()
            .map(|s| s.mul_f64(0.05))
            .unwrap_or(SimDuration::from_micros(500));
        for t in &mut self.threads {
            t.set_be_rate(rate);
            t.set_max_sched_interval(max_interval);
        }
    }

    /// Admission check for a prospective LC SLO (no state change).
    ///
    /// # Errors
    ///
    /// [`AdmissionError::NotAdmissible`] when the reservation cannot be
    /// honoured at the would-be strictest latency bound.
    pub(crate) fn check_admission(
        &self,
        slo: &SloSpec,
        io_size: u32,
    ) -> Result<(), AdmissionError> {
        let strictest = self
            .strictest_slo()
            .map_or(slo.p95_read_latency, |s| s.min(slo.p95_read_latency));
        let capacity = self.capacity.tokens_per_sec_at(strictest);
        let required = slo
            .token_rate(&self.cost_model, io_size)
            .as_tokens_per_sec_f64();
        let reserved = self.lc_reserved_tokens_per_sec();
        if reserved + required > capacity {
            return Err(AdmissionError::NotAdmissible {
                required,
                available: (capacity - reserved).max(0.0),
            });
        }
        Ok(())
    }

    /// Registers a tenant: admission control, thread placement (least
    /// reserved load), scheduler registration and rate recomputation.
    /// Returns the thread index the tenant landed on.
    ///
    /// # Errors
    ///
    /// See [`AdmissionError`].
    pub fn register_tenant(
        &mut self,
        id: TenantId,
        class: TenantClass,
        acl: AclEntry,
        io_size: u32,
    ) -> Result<usize, AdmissionError> {
        if self.tenants.contains_key(&id) {
            return Err(AdmissionError::Duplicate(id));
        }
        if let TenantClass::LatencyCritical(slo) = &class {
            self.check_admission(slo, io_size)?;
        }
        // Placement: the active thread with the least reserved token rate,
        // breaking ties by tenant count so best-effort tenants (zero
        // reservation) spread across threads.
        let thread = (0..self.active_threads)
            .min_by(|&a, &b| {
                let ra = self.threads[a]
                    .scheduler()
                    .lc_reserved_rate()
                    .as_millitokens_per_sec();
                let rb = self.threads[b]
                    .scheduler()
                    .lc_reserved_rate()
                    .as_millitokens_per_sec();
                let (la, ba) = self.threads[a].scheduler().tenant_counts();
                let (lb, bb) = self.threads[b].scheduler().tenant_counts();
                ra.cmp(&rb).then((la + ba).cmp(&(lb + bb))).then(a.cmp(&b))
            })
            .expect("at least one active thread");
        self.threads[thread]
            .register_tenant(id, class, acl.clone(), io_size)
            .map_err(|_| AdmissionError::Duplicate(id))?;
        self.tenants.insert(
            id,
            TenantInfo {
                class,
                thread,
                acl,
                io_size,
                conns: Vec::new(),
                shards: vec![(thread, id)],
                shard_rr: 0,
            },
        );
        self.recompute_rates();
        Ok(thread)
    }

    /// Registers a tenant whose demand exceeds one thread: the SLO is
    /// split across `shards` threads and connections are spread over them
    /// round-robin (removing the paper's single-thread-per-tenant
    /// limitation, §4.1). Returns the threads used.
    ///
    /// # Errors
    ///
    /// See [`AdmissionError`]; admission checks the *full* SLO.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds the active thread count.
    pub(crate) fn register_tenant_sharded(
        &mut self,
        id: TenantId,
        class: TenantClass,
        acl: AclEntry,
        io_size: u32,
        shards: u32,
    ) -> Result<Vec<usize>, AdmissionError> {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shards as usize <= self.active_threads,
            "more shards than active threads"
        );
        if shards == 1 {
            return self
                .register_tenant(id, class, acl, io_size)
                .map(|t| vec![t]);
        }
        if self.tenants.contains_key(&id) {
            return Err(AdmissionError::Duplicate(id));
        }
        if let TenantClass::LatencyCritical(slo) = &class {
            self.check_admission(slo, io_size)?;
        }
        // Shard the SLO: each shard reserves an equal fraction (shard 0
        // absorbs the rounding remainder).
        let mut shard_list = Vec::new();
        for k in 0..shards {
            let shard_id = TenantId(self.next_shard_id);
            self.next_shard_id += 1;
            let shard_class = match &class {
                TenantClass::LatencyCritical(slo) => {
                    let base = slo.iops / shards as u64;
                    let iops = if k == 0 {
                        base + slo.iops % shards as u64
                    } else {
                        base
                    };
                    TenantClass::LatencyCritical(SloSpec::new(
                        iops.max(1),
                        slo.read_pct,
                        slo.p95_read_latency,
                    ))
                }
                TenantClass::BestEffort => TenantClass::BestEffort,
            };
            let thread = k as usize; // one shard per thread, lowest first
            self.threads[thread]
                .register_tenant(shard_id, shard_class, acl.clone(), io_size)
                .map_err(|_| AdmissionError::Duplicate(id))?;
            shard_list.push((thread, shard_id));
        }
        let threads_used = shard_list.iter().map(|&(t, _)| t).collect();
        self.tenants.insert(
            id,
            TenantInfo {
                class,
                thread: 0,
                acl,
                io_size,
                conns: Vec::new(),
                shards: shard_list,
                shard_rr: 0,
            },
        );
        self.recompute_rates();
        Ok(threads_used)
    }

    /// Renegotiates an LC tenant's SLO in place (the control plane's
    /// answer to persistent deficit notifications). Admission is
    /// re-checked against the new reservation; connections and queued
    /// requests are untouched.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Unknown`] for unknown or best-effort tenants;
    /// [`AdmissionError::NotAdmissible`] when the new SLO does not fit.
    pub fn renegotiate_tenant(
        &mut self,
        id: TenantId,
        new_slo: SloSpec,
    ) -> Result<(), AdmissionError> {
        let info = self.tenants.get(&id).ok_or(AdmissionError::Unknown(id))?;
        if !info.class.is_latency_critical() {
            return Err(AdmissionError::Unknown(id));
        }
        let io_size = info.io_size;
        // Admission against the cluster minus this tenant's old share.
        let old_rate = info
            .class
            .slo()
            .map(|s| {
                s.token_rate(&self.cost_model, io_size)
                    .as_tokens_per_sec_f64()
            })
            .unwrap_or(0.0);
        let strictest = self
            .tenants
            .iter()
            .filter(|(tid, _)| **tid != id)
            .filter_map(|(_, t)| t.class.slo().map(|s| s.p95_read_latency))
            .chain(std::iter::once(new_slo.p95_read_latency))
            .min()
            .expect("at least the new bound");
        let capacity = self.capacity.tokens_per_sec_at(strictest);
        let required = new_slo
            .token_rate(&self.cost_model, io_size)
            .as_tokens_per_sec_f64();
        let reserved_others = self.lc_reserved_tokens_per_sec() - old_rate;
        if reserved_others + required > capacity {
            return Err(AdmissionError::NotAdmissible {
                required,
                available: (capacity - reserved_others).max(0.0),
            });
        }
        let shards: Vec<(usize, TenantId, u64)> = {
            let info = self.tenants.get(&id).expect("checked above");
            let n = info.shards.len() as u64;
            info.shards
                .iter()
                .enumerate()
                .map(|(k, &(thread, shard_id))| {
                    let base = new_slo.iops / n;
                    let iops = if k == 0 {
                        base + new_slo.iops % n
                    } else {
                        base
                    };
                    (thread, shard_id, iops.max(1))
                })
                .collect()
        };
        for (thread, shard_id, iops) in shards {
            let shard_slo = SloSpec::new(iops, new_slo.read_pct, new_slo.p95_read_latency);
            self.threads[thread]
                .scheduler_mut()
                .renegotiate_lc(shard_id, shard_slo, io_size)
                .map_err(|_| AdmissionError::Unknown(id))?;
        }
        self.tenants.get_mut(&id).expect("checked above").class =
            TenantClass::LatencyCritical(new_slo);
        self.recompute_rates();
        Ok(())
    }

    /// Unregisters a tenant and all its connections.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Unknown`] for unknown ids.
    pub fn unregister_tenant(&mut self, id: TenantId) -> Result<(), AdmissionError> {
        let info = self
            .tenants
            .remove(&id)
            .ok_or(AdmissionError::Unknown(id))?;
        for &(thread, shard_id) in &info.shards {
            // Queued requests go unanswered: their clients time out.
            let _ = self.threads[thread].unregister_tenant(shard_id);
        }
        for conn in info.conns {
            self.conn_route.remove(conn);
        }
        self.recompute_rates();
        Ok(())
    }

    /// Binds a client connection to a tenant; returns the (thread index,
    /// NIC queue) the client must steer the connection's traffic to.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Unknown`] for unknown tenants.
    pub fn bind_connection(
        &mut self,
        conn: ConnId,
        tenant: TenantId,
        client: MachineId,
    ) -> Result<(usize, NicQueueId), AdmissionError> {
        let info = self
            .tenants
            .get_mut(&tenant)
            .ok_or(AdmissionError::Unknown(tenant))?;
        // Spread connections round-robin across the tenant's shards.
        let (thread, shard_id) = info.shards[info.shard_rr % info.shards.len()];
        info.shard_rr += 1;
        info.conns.push(conn);
        self.threads[thread]
            .bind_connection(conn, shard_id, client)
            .map_err(|_| AdmissionError::Unknown(tenant))?;
        self.conn_route.insert(conn, (thread, client));
        Ok((thread, self.threads[thread].nic_queue()))
    }

    /// The NIC queue currently serving `conn` (clients re-query after
    /// rebalancing; stale sends are forwarded by the old thread).
    pub fn route(&self, conn: ConnId) -> Option<NicQueueId> {
        self.conn_route
            .get(conn)
            .map(|&(t, _)| self.threads[t].nic_queue())
    }

    /// The dataplane thread currently serving `conn`.
    pub fn thread_of_conn(&self, conn: ConnId) -> Option<usize> {
        self.conn_route.get(conn).map(|&(t, _)| t)
    }

    /// Tears down every connection belonging to `client` — its link died.
    ///
    /// The connections are unbound from their dataplane threads (messages
    /// still in flight for them are dropped and counted in the thread's
    /// `unbound_conns` stat) and parked for re-registration when the link
    /// returns via [`Self::rebind_client`]. Returns the number of
    /// connections torn down. Clients are expected to recover the lost
    /// requests through their retry policy.
    pub fn on_link_down(&mut self, client: MachineId) -> usize {
        // Walk tenants in sorted order so the parked list (and therefore
        // the rebind order) is independent of hash-map iteration order.
        let mut ids: Vec<TenantId> = self.tenants.keys().copied().collect();
        ids.sort();
        let mut parked = Vec::new();
        for id in ids {
            for &conn in &self.tenants[&id].conns {
                if self.conn_route.get(conn).is_some_and(|&(_, c)| c == client) {
                    parked.push((conn, id));
                }
            }
        }
        for &(conn, _) in &parked {
            if let Some((thread, _)) = self.conn_route.remove(conn) {
                self.threads[thread].unbind_connection(conn);
            }
        }
        let n = parked.len();
        if n > 0 {
            self.parked.entry(client).or_default().extend(parked);
        }
        n
    }

    /// Re-registers every connection parked for `client` after its link
    /// came back, binding each to the thread currently serving its tenant
    /// (the tenant may have been rebalanced while the link was down).
    /// Returns the number of connections re-bound.
    pub fn rebind_client(&mut self, client: MachineId) -> usize {
        let Some(mut parked) = self.parked.remove(&client) else {
            return 0;
        };
        parked.sort_by_key(|&(conn, _)| conn);
        let mut rebound = 0;
        for (conn, tenant) in parked {
            // Tenant may have been unregistered while the link was down.
            let Some(info) = self.tenants.get_mut(&tenant) else {
                continue;
            };
            let (thread, shard_id) = info.shards[info.shard_rr % info.shards.len()];
            info.shard_rr += 1;
            if self.threads[thread]
                .bind_connection(conn, shard_id, client)
                .is_ok()
            {
                self.conn_route.insert(conn, (thread, client));
                rebound += 1;
            }
        }
        rebound
    }

    /// Cumulative millitokens spent per tenant (for token-usage reports).
    pub fn all_tenants_spent_millitokens(&self) -> HashMap<TenantId, i64> {
        let mut out = HashMap::new();
        for (&id, info) in &self.tenants {
            let spent = info
                .shards
                .iter()
                .map(|&(thread, shard_id)| {
                    self.threads[thread]
                        .scheduler()
                        .stats_for(shard_id)
                        .map(|s| s.spent_millitokens)
                        .unwrap_or(0)
                })
                .sum();
            out.insert(id, spent);
        }
        out
    }

    /// The server's token books in millitokens: `(generated, accounted)`.
    /// Generation is the only source of tokens, so while no tenant has
    /// been unregistered or moved the two are equal: everything the
    /// schedulers generated is held by a tenant, was spent (on flash or on
    /// DRAM hits), sits in the global bucket, or was discarded by a
    /// bucket reset.
    pub fn token_books(&self) -> (i64, i64) {
        let generated = self
            .threads
            .iter()
            .map(|t| t.scheduler().generated().as_millitokens())
            .sum();
        let with_tenants: i64 = self
            .tenants
            .values()
            .flat_map(|info| &info.shards)
            .map(|&(thread, shard_id)| {
                let sched = self.threads[thread].scheduler();
                let held = sched.tokens_of(shard_id).map_or(0, |t| t.as_millitokens());
                let spent = sched
                    .stats_for(shard_id)
                    .map_or(0, |s| s.spent_millitokens + s.dram_spent_millitokens);
                held + spent
            })
            .sum();
        let in_bucket = self.bucket.balance() + self.bucket.discarded();
        (generated, with_tenants + in_bucket.as_millitokens())
    }

    /// Moves a tenant (and its connections) to another active thread,
    /// forwarding in-flight traffic. Used by control-plane rebalancing.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Unknown`] for unknown tenants.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not an active thread.
    pub fn move_tenant(&mut self, id: TenantId, to: usize) -> Result<(), AdmissionError> {
        assert!(to < self.active_threads, "target thread inactive");
        let info = self
            .tenants
            .get_mut(&id)
            .ok_or(AdmissionError::Unknown(id))?;
        assert!(info.shards.len() == 1, "sharded tenants are not moved");
        let from = info.thread;
        if from == to {
            return Ok(());
        }
        // Drain queued requests from the old scheduler and hand them to
        // the new thread; in-flight wire traffic is forwarded as well, so
        // nothing is ever dropped during rebalancing.
        let pending = self.threads[from].unregister_tenant(id).unwrap_or_default();
        let class = info.class;
        let acl = info.acl.clone();
        let io_size = info.io_size;
        let conns = info.conns.clone();
        info.thread = to;
        info.shards = vec![(to, id)];
        self.threads[to]
            .register_tenant(id, class, acl, io_size)
            .map_err(|_| AdmissionError::Duplicate(id))?;
        let _ = self.threads[to].adopt_pending(id, pending);
        let to_queue = self.threads[to].nic_queue();
        for conn in conns {
            self.threads[from].forward_connection(conn, to_queue);
            if let Some(route) = self.conn_route.get_mut(conn) {
                let client = route.1;
                route.0 = to;
                let _ = self.threads[to].bind_connection(conn, id, client);
            }
        }
        Ok(())
    }

    /// Settles the scheduling rounds the threads slept through strictly
    /// before `before` (see [`DataplaneThread::settle`]), merged by
    /// (instant, thread): each round marks the shared bucket, so they are
    /// replayed in the order one pump event per round would have run
    /// them. Everything that pumps, mutates or reads the threads at an
    /// instant settles up to it first.
    pub fn settle(&mut self, before: SimTime) {
        let threads = &mut self.threads[..self.active_threads];
        loop {
            // The sleeper whose round comes first, and how far it goes
            // before another's: at one instant the lower thread first.
            let mut first: Option<(SimTime, usize)> = None;
            let mut limit = before;
            for (i, t) in threads.iter().enumerate() {
                let Some(at) = t.idle_round_due(before) else {
                    continue;
                };
                match first {
                    Some((earliest, _)) if earliest <= at => {
                        limit = limit.min(at + SimDuration::from_nanos(1));
                    }
                    _ => {
                        if let Some((later, _)) = first.replace((at, i)) {
                            limit = limit.min(later);
                        }
                    }
                }
            }
            match first {
                Some((_, i)) => threads[i].settle(limit),
                None => return,
            }
        }
    }

    /// Pumps dataplane thread `i`; returns its requested next wake instant.
    /// The caller has [settled](Self::settle) the server up to `now` (the
    /// thread settles itself, not its siblings). A pump that leaves tokens
    /// in the bucket or writes to a device in read-only mode ends its
    /// siblings' sleep at their next round, which is then no longer
    /// provably idle: `round_wake` has their new wake instants.
    pub fn pump_thread(
        &mut self,
        i: usize,
        now: SimTime,
        fabric: &mut Fabric<WireMsg>,
        device: &mut FlashDevice,
    ) -> Option<SimTime> {
        let hint = self.threads[i].pump(now, fabric, device);
        if self.active_threads > 1 {
            let filled = self.bucket.balance().is_positive();
            if filled || self.threads[i].wrote() {
                for (j, t) in self.threads[..self.active_threads].iter_mut().enumerate() {
                    if j != i && (filled || t.scheduler().last_mix() == LoadMix::ReadOnly) {
                        t.wake();
                    }
                }
            }
        }
        hint
    }

    /// Control-plane tick: deficit detection and (optionally) thread
    /// scaling based on per-thread busy fractions over the elapsed window.
    pub(crate) fn control_tick(&mut self, now: SimTime, window: SimDuration) {
        self.settle(now);
        // Deficit detection: tenants whose deficit counter advanced since
        // the last tick are candidates for renegotiation (paper line 7).
        let mut latency_hot = false;
        let mut to_reset = std::mem::take(&mut self.tick_resets);
        // Deterministic traversal: HashMap order varies per process and
        // several decisions below depend on visit order.
        let mut ids = std::mem::take(&mut self.tick_ids);
        ids.clear();
        ids.extend(self.tenants.keys().copied());
        ids.sort_unstable();
        for &id in &ids {
            let info = &self.tenants[&id];
            if !info.class.is_latency_critical() {
                continue;
            }
            let current: u64 = info
                .shards
                .iter()
                .map(|&(thread, shard_id)| {
                    self.threads[thread]
                        .scheduler()
                        .stats_for(shard_id)
                        .map(|s| s.deficit_events)
                        .unwrap_or(0)
                })
                .sum();
            let prev = self.last_deficits.insert(id, current).unwrap_or(0);
            if current > prev && !self.renegotiations.contains(&id) {
                self.renegotiations.push(id);
            }
            // SLO compliance monitoring (server-side read p95 per window).
            if let Some(slo) = info.class.slo() {
                for &(thread, shard_id) in &info.shards {
                    if let Some(hist) = self.threads[thread].tenant_read_latency(shard_id) {
                        latency_hot |= hist.count() >= 50 && hist.p95() > slo.p95_read_latency;
                        to_reset.push((thread, shard_id));
                    }
                }
            }
        }
        self.tick_ids = ids;
        for (thread, id) in to_reset.drain(..) {
            self.threads[thread].reset_tenant_read_latency(id);
        }
        self.tick_resets = to_reset;

        if self.config.auto_scale && !window.is_zero() {
            let mut fractions = Vec::new();
            for i in 0..self.active_threads {
                let busy = self.threads[i].busy_time();
                let delta = busy.saturating_sub(self.last_busy[i]);
                self.last_busy[i] = busy;
                fractions.push(delta.as_secs_f64() / window.as_secs_f64());
            }
            let max_frac = fractions.iter().cloned().fold(0.0f64, f64::max);
            let avg_frac = fractions.iter().sum::<f64>() / fractions.len() as f64;
            // Scale up when a core is saturated or an SLO is being missed;
            // scale down only when everyone is idle (paper §4.3): busy
            // fractions above and below which a thread is added, retired.
            const SCALE_UP_BUSY: f64 = 0.85;
            const SCALE_DOWN_BUSY: f64 = 0.20;
            if (max_frac > SCALE_UP_BUSY || latency_hot)
                && self.active_threads < self.config.max_threads as usize
            {
                self.scale_up();
            } else if avg_frac < SCALE_DOWN_BUSY && !latency_hot && self.active_threads > 1 {
                self.scale_down();
            }
        }
    }

    fn scale_up(&mut self) {
        let new_idx = self.active_threads;
        self.active_threads += 1;
        self.bucket.set_active_threads(self.active_threads as u32);
        // Rebalance: move tenants from the most loaded thread until the
        // reserved rates are roughly even.
        let busiest = (0..new_idx)
            .max_by_key(|&i| {
                self.threads[i]
                    .scheduler()
                    .lc_reserved_rate()
                    .as_millitokens_per_sec()
            })
            .expect("threads exist");
        let mut movable: Vec<TenantId> = self
            .tenants
            .iter()
            .filter(|(_, info)| info.shards.len() == 1 && info.thread == busiest)
            .map(|(&id, _)| id)
            .collect();
        movable.sort();
        // Prefer moving best-effort tenants: LC streams are latency
        // sensitive and BE backlogs migrate painlessly.
        movable.sort_by_key(|id| self.tenants[id].class.is_latency_critical());
        for id in movable.into_iter().take(1) {
            let _ = self.move_tenant(id, new_idx);
        }
    }

    fn scale_down(&mut self) {
        let retiring = self.active_threads - 1;
        let mut movable: Vec<TenantId> = self
            .tenants
            .iter()
            .filter(|(_, info)| info.shards.len() == 1 && info.thread == retiring)
            .map(|(&id, _)| id)
            .collect();
        movable.sort();
        for id in movable {
            let target = 0;
            let _ = self.move_tenant(id, target);
        }
        self.active_threads -= 1;
        self.bucket.set_active_threads(self.active_threads as u32);
    }

    /// Whether a control-plane or fault entry has moved some thread's
    /// [`DataplaneThread::round_wake`] earlier since the last call.
    pub(crate) fn take_woken(&mut self) -> bool {
        self.threads
            .iter_mut()
            .fold(false, |any, t| t.take_woken() | any)
    }

    /// Scheduling rounds settled instead of pumped, and the settle passes
    /// that found any, over every thread.
    pub(crate) fn sleep_stats(&self) -> (u64, u64) {
        self.threads.iter().fold((0, 0), |(rounds, calls), t| {
            let (r, c) = t.sleep_stats();
            (rounds + r, calls + c)
        })
    }

    /// Installs one recorder on every dataplane thread, active or not
    /// (scale-up may activate more later).
    pub(crate) fn set_telemetry(&mut self, telemetry: reflex_telemetry::Telemetry) {
        for t in &mut self.threads {
            t.set_telemetry(telemetry.clone());
        }
    }

    /// What the threads' QoS schedulers counted, summed: rounds, LC and BE
    /// admissions, deficit notifications.
    pub(crate) fn sched_counts(&self) -> [u64; 4] {
        self.threads.iter().fold([0; 4], |sum, t| {
            let sched = t.scheduler();
            let (lc, be) = sched.admitted();
            let counts = [sched.rounds(), lc, be, sched.deficit_events()];
            std::array::from_fn(|i| sum[i] + counts[i])
        })
    }

    /// Tenants flagged for SLO renegotiation so far, in flagging order.
    pub(crate) fn renegotiations(&self) -> &[TenantId] {
        &self.renegotiations
    }
}
