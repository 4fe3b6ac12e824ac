//! The ReFlex server: dataplane threads plus the local control plane.
//!
//! [`ReflexServer`] owns one dataplane thread per core (each with its own
//! NIC receive queue and NVMe queue pair), the shared global token bucket,
//! and the control-plane state: tenant admission, token-rate management
//! and deficit monitoring (paper §4.1, §4.3). The thread count is fixed
//! when the server is built.

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
    /// Dataplane threads the server runs.
    pub threads: u32,
    /// Read by nothing: the server runs exactly `threads` threads. Kept
    /// because the frozen benchmark's struct literal names it.
    pub max_threads: u32,
    /// Per-thread dataplane CPU costs.
    pub dataplane: DataplaneConfig,
    /// Algorithm 1 tuning parameters.
    pub sched_params: SchedulerParams,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 1,
            max_threads: 12,
            dataplane: DataplaneConfig::default(),
            sched_params: SchedulerParams::default(),
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
    bucket: Arc<GlobalBucket>,
    cost_model: CostModel,
    capacity: CapacityProfile,
    tenants: HashMap<TenantId, TenantInfo>,
    /// Serving thread and client machine of every bound connection.
    conn_route: ConnTable<(usize, MachineId)>,
    /// Connections torn down because their client's link died, awaiting
    /// re-registration when the link returns.
    parked: HashMap<MachineId, Vec<(ConnId, TenantId)>>,
    next_shard_id: u32,
    last_deficits: HashMap<TenantId, u64>,
    /// Tenants flagged for SLO renegotiation (persistent deficits), in
    /// flagging order.
    renegotiations: Vec<TenantId>,
    /// Scratch recycled by `control_tick`, which runs inside every
    /// measured window: the sorted tenant ids.
    tick_ids: Vec<TenantId>,
}

impl ReflexServer {
    /// Builds a server on `machine` with `config.threads` dataplane
    /// threads, each with its own NIC queue and NVMe queue pair.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads` is zero or exceeds 64.
    pub fn new(
        machine: MachineId,
        fabric: &mut Fabric<WireMsg>,
        device: &mut FlashDevice,
        cost_model: CostModel,
        capacity: CapacityProfile,
        config: ServerConfig,
        now: SimTime,
    ) -> Self {
        let bucket = Arc::new(GlobalBucket::new(config.threads));
        let mut threads = Vec::new();
        for i in 0..config.threads {
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
        ReflexServer {
            machine,
            threads,
            bucket,
            cost_model,
            capacity,
            tenants: HashMap::new(),
            conn_route: ConnTable::new(),
            parked: HashMap::new(),
            next_shard_id: 0x8000_0000,
            last_deficits: HashMap::new(),
            renegotiations: Vec::new(),
            tick_ids: Vec::new(),
        }
    }

    /// The server's machine id on the fabric.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// The dataplane threads.
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

    /// Best-effort tenants in the schedulers: a sharded tenant counts once
    /// per shard, so that the shares the threads hand out add up to the
    /// spare rate.
    fn be_count(&self) -> usize {
        self.tenants
            .values()
            .filter(|t| !t.class.is_latency_critical())
            .map(|t| t.shards.len())
            .sum()
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
        // Placement: the thread with the least reserved token rate,
        // breaking ties by tenant count so best-effort tenants (zero
        // reservation) spread across threads.
        let thread = (0..self.threads.len())
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
            .expect("at least one thread");
        self.threads[thread]
            .register_tenant(id, class, acl, io_size)
            .map_err(|_| AdmissionError::Duplicate(id))?;
        self.tenants.insert(
            id,
            TenantInfo {
                class,
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
    /// Panics if `shards` is zero or exceeds the thread count.
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
            shards as usize <= self.threads.len(),
            "more shards than threads"
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
                io_size,
                conns: Vec::new(),
                shards: shard_list,
                shard_rr: 0,
            },
        );
        self.recompute_rates();
        Ok(threads_used)
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

    /// The NIC queue serving `conn`.
    pub fn route(&self, conn: ConnId) -> Option<NicQueueId> {
        self.conn_route
            .get(conn)
            .map(|&(t, _)| self.threads[t].nic_queue())
    }

    /// The dataplane thread serving `conn`.
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
    /// came back, binding each to a thread serving its tenant (the
    /// tenant's next shard, round-robin). Returns the number of
    /// connections re-bound.
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
    /// been unregistered the two are equal: everything the
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

    /// Settles the scheduling rounds the threads slept through strictly
    /// before `before` (see [`DataplaneThread::settle`]), merged by
    /// (instant, thread): each round marks the shared bucket, so they are
    /// replayed in the order one pump event per round would have run
    /// them. Everything that pumps, mutates or reads the threads at an
    /// instant settles up to it first.
    pub fn settle(&mut self, before: SimTime) {
        let threads = &mut self.threads;
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
        if self.threads.len() > 1 {
            let filled = self.bucket.balance().is_positive();
            if filled || self.threads[i].wrote() {
                for (j, t) in self.threads.iter_mut().enumerate() {
                    if j != i && (filled || t.scheduler().last_mix() == LoadMix::ReadOnly) {
                        t.wake();
                    }
                }
            }
        }
        hint
    }

    /// Control-plane tick: deficit detection. A latency-critical tenant
    /// whose deficit counter advanced since the last tick is flagged for
    /// SLO renegotiation (paper Algorithm 1, line 7: "notify the control
    /// plane"); nothing acts on the flag.
    pub(crate) fn control_tick(&mut self, now: SimTime) {
        self.settle(now);
        // Deterministic traversal: HashMap order varies per process, and
        // the flags are kept in flagging order.
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
        }
        self.tick_ids = ids;
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

    /// Installs one recorder on every dataplane thread.
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
