//! Assembling a replicated testbed: N server sites, client machines, the
//! replica-set coordinator, and the fault installer that drives failover.

use std::sync::Arc;

use reflex_core::{
    AdmissionError, CapacityProfile, ClusterPlanner, PlacementError, ReflexServer, ReplicaSets,
    ServerConfig, ServerDescriptor, ServerHarness, ServerId, WorkloadReport,
};
use reflex_dataplane::AclEntry;
use reflex_faults::{FaultKind, FaultPlan, FaultStats, PlannedDeviceHook, PlannedNetHook};
use reflex_flash::{DeviceProfile, FlashDevice};
use reflex_net::{Fabric, LinkConfig, StackProfile};
use reflex_qos::{CostModel, TenantClass};
use reflex_sim::{Engine, SimDuration, SimRng, SimTime, SlabPool, WakeSlots};
use reflex_telemetry::{Telemetry, TelemetrySnapshot, TenantKey};

use crate::spec::ReplWorkloadSpec;
use crate::state::ReplState;
use crate::world::{ClientMachine, MemberLink, ReplEvent, ReplWorld, SiteState, TenantRecovery};

/// Errors from [`ReplTestbed::add_workload`].
#[derive(Debug)]
pub enum ReplError {
    /// The spec failed validation.
    InvalidSpec(String),
    /// The spec names a client machine that does not exist.
    NoSuchClient(usize),
    /// The coordinator could not place the replica set.
    Placement(PlacementError),
    /// A member server rejected the tenant or a connection.
    Admission(AdmissionError),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::InvalidSpec(why) => write!(f, "invalid workload spec: {why}"),
            ReplError::NoSuchClient(idx) => write!(f, "no client machine {idx}"),
            ReplError::Placement(e) => write!(f, "replica placement failed: {e}"),
            ReplError::Admission(e) => write!(f, "admission failed: {e}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<PlacementError> for ReplError {
    fn from(e: PlacementError) -> Self {
        ReplError::Placement(e)
    }
}

impl From<AdmissionError> for ReplError {
    fn from(e: AdmissionError) -> Self {
        ReplError::Admission(e)
    }
}

/// The measurement report of a replicated run.
#[derive(Debug)]
pub struct ReplReport {
    /// Length of the measured window.
    pub window: SimDuration,
    /// One report per workload, in registration order. Latencies are
    /// whole-op: issue → ack quorum reached.
    pub workloads: Vec<WorkloadReport>,
    /// Failover timeline: one entry per (tenant, failover) pair.
    pub recoveries: Vec<TenantRecovery>,
    /// Total events dispatched since the testbed was built.
    pub engine_events: u64,
    /// Telemetry snapshot, when telemetry is enabled.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl ReplReport {
    /// Finds a workload report by name.
    ///
    /// # Panics
    ///
    /// Panics if no workload has that name.
    pub fn workload(&self, name: &str) -> &WorkloadReport {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("no workload named {name}"))
    }
}

/// Builder for a [`ReplTestbed`].
#[derive(Debug)]
pub struct ReplTestbedBuilder {
    sites: usize,
    replication: usize,
    device: DeviceProfile,
    link: LinkConfig,
    client_stacks: Vec<StackProfile>,
    server_stack: StackProfile,
    control_interval: SimDuration,
    detect_delay: SimDuration,
    resync_bytes_per_sec: f64,
    seed: u64,
}

impl Default for ReplTestbedBuilder {
    fn default() -> Self {
        ReplTestbedBuilder {
            sites: 3,
            replication: 3,
            device: reflex_flash::device_a(),
            link: LinkConfig::default(),
            client_stacks: vec![StackProfile::ix_tcp()],
            server_stack: StackProfile::dataplane_raw(),
            control_interval: SimDuration::from_millis(10),
            detect_delay: SimDuration::from_millis(30),
            // Background re-sync copies at 2 GiB/s — a deliberately
            // throttled fraction of device bandwidth so re-sync does not
            // starve foreground IO.
            resync_bytes_per_sec: 2.0 * (1u64 << 30) as f64,
            seed: 42,
        }
    }
}

impl ReplTestbedBuilder {
    /// Starts from defaults: three sites on device A, replication 3, one
    /// IX client machine, 30 ms failure detection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of server sites.
    pub fn sites(mut self, sites: usize) -> Self {
        self.sites = sites;
        self
    }

    /// Sets the replication factor R (each tenant's set size).
    pub fn replication(mut self, r: usize) -> Self {
        self.replication = r;
        self
    }

    /// Sets the Flash device profile (every site gets its own device).
    pub fn device(mut self, profile: DeviceProfile) -> Self {
        self.device = profile;
        self
    }

    /// Sets the fabric link configuration.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Replaces the client machines (one entry per machine).
    pub fn client_machines(mut self, stacks: Vec<StackProfile>) -> Self {
        self.client_stacks = stacks;
        self
    }

    /// Sets the coordinator's failure-detection delay (death → failover).
    pub fn detect_delay(mut self, delay: SimDuration) -> Self {
        self.detect_delay = delay;
        self
    }

    /// Sets the modelled background re-sync copy rate in bytes/second.
    pub fn resync_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.resync_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Sets the RNG seed (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the testbed.
    ///
    /// # Panics
    ///
    /// Panics if no client machines are configured, or if the replication
    /// factor is 0, exceeds [`reflex_core::MAX_REPLICAS`], or exceeds the
    /// site count.
    pub fn build(self) -> ReplTestbed {
        assert!(
            !self.client_stacks.is_empty(),
            "need at least one client machine"
        );
        assert!(
            self.replication >= 1 && self.replication <= self.sites,
            "replication factor {} needs at least that many sites (have {})",
            self.replication,
            self.sites
        );
        assert!(
            self.resync_bytes_per_sec > 0.0,
            "re-sync bandwidth must be positive"
        );
        let mut rng = SimRng::seed(self.seed);
        let mut fabric = Fabric::new(self.link, rng.fork());
        // Clients first, then the sites — same machine-id order as the
        // single-server testbed, so seeds stay comparable.
        let clients: Vec<ClientMachine> = self
            .client_stacks
            .into_iter()
            .map(|stack| ClientMachine {
                machine: fabric.add_machine(stack.clone()),
                stack,
            })
            .collect();
        let cost = CostModel::for_profile(&self.device);
        let capacity = CapacityProfile::for_profile(&self.device);
        // One dataplane thread per site, no auto-scaling: routes never
        // rebalance at runtime.
        let server_cfg = ServerConfig {
            threads: 1,
            max_threads: 1,
            auto_scale: false,
            ..ServerConfig::default()
        };
        let mut sites = Vec::with_capacity(self.sites);
        let mut site_machines = Vec::with_capacity(self.sites);
        let mut descriptors = Vec::with_capacity(self.sites);
        for s in 0..self.sites {
            let machine = fabric.add_machine(self.server_stack.clone());
            let mut device = FlashDevice::new(self.device.clone(), rng.fork());
            device.precondition();
            let server = ReflexServer::new(
                machine,
                &mut fabric,
                &mut device,
                cost.clone(),
                capacity.clone(),
                server_cfg.clone(),
                SimTime::ZERO,
            );
            descriptors.push(ServerDescriptor::new(
                ServerId(s as u32),
                capacity.clone(),
                cost.clone(),
            ));
            site_machines.push(machine);
            sites.push(SiteState { server, device });
        }
        let gen_seed = rng.next_u64();
        let n_sites = sites.len();
        let n_clients = clients.len();
        let world = ReplWorld {
            fabric,
            sites,
            site_machines,
            alive: vec![true; n_sites],
            death_at: vec![None; n_sites],
            coord: ReplicaSets::new(ClusterPlanner::new(descriptors), self.replication),
            gen_seed,
            clients,
            workloads: Vec::new(),
            client_threads_busy: Vec::new(),
            ops: SlabPool::new(),
            subs: SlabPool::new(),
            poll_scratch: Vec::new(),
            site_wake: WakeSlots::new(n_sites),
            client_wake: WakeSlots::new(n_clients),
            measure_start: None,
            detect_delay: self.detect_delay,
            resync_bytes_per_sec: self.resync_bytes_per_sec,
            timeline: Vec::new(),
            telemetry: Telemetry::disabled(),
        };
        let mut engine = Engine::with_events(world);
        let interval = self.control_interval;
        engine.schedule_event_at(SimTime::ZERO + interval, ReplEvent::Control(interval));
        ReplTestbed {
            engine,
            measure_begin: SimTime::ZERO,
        }
    }
}

/// The assembled replicated simulation. See the crate documentation.
pub struct ReplTestbed {
    engine: Engine<ReplWorld, ReplEvent>,
    measure_begin: SimTime,
}

impl std::fmt::Debug for ReplTestbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplTestbed")
            .field("now", &self.engine.now())
            .finish()
    }
}

impl ReplTestbed {
    /// Starts building a replicated testbed.
    pub fn builder() -> ReplTestbedBuilder {
        ReplTestbedBuilder::new()
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Shared access to the world.
    pub fn world(&self) -> &ReplWorld {
        self.engine.world()
    }

    /// Exclusive access to the world.
    pub fn world_mut(&mut self) -> &mut ReplWorld {
        self.engine.world_mut()
    }

    /// Site indices of workload `w_idx`'s current members, slot order.
    pub fn member_sites(&self, w_idx: usize) -> Vec<usize> {
        self.engine.world().member_sites(w_idx)
    }

    /// Registers a replicated workload: places its replica set, admits
    /// the tenant on every member site, binds per-member connections and
    /// starts the open-loop generator.
    ///
    /// # Errors
    ///
    /// See [`ReplError`]. An admission failure partway through leaves the
    /// tenant registered on earlier members (like the core testbed, the
    /// builder-phase API does not roll back).
    pub fn add_workload(&mut self, spec: ReplWorkloadSpec) -> Result<(), ReplError> {
        let mut spec = spec;
        spec.validate().map_err(ReplError::InvalidSpec)?;
        let world = self.engine.world_mut();
        if spec.client_machine >= world.clients.len() {
            return Err(ReplError::NoSuchClient(spec.client_machine));
        }
        // Clamp the namespace to the device capacity so default specs
        // work on any profile (every site runs the same profile).
        let capacity = world.sites[0].device.profile().capacity_bytes;
        if spec.namespace.0 >= capacity {
            return Err(ReplError::InvalidSpec(
                "namespace beyond device capacity".into(),
            ));
        }
        spec.namespace.1 = spec.namespace.1.min(capacity - spec.namespace.0);
        let members: Vec<ServerId> = world.coord.place(spec.tenant, spec.slo)?.members.clone();
        let acl = AclEntry {
            ns_start: spec.namespace.0,
            ns_len: spec.namespace.1,
            allow_read: true,
            allow_write: true,
            allowed_clients: None,
        };
        let client_machine = world.clients[spec.client_machine].machine;
        let w_idx = world.workloads.len();
        let mut links = Vec::with_capacity(members.len());
        for sid in &members {
            let site = sid.0 as usize;
            let server = &mut world.sites[site].server;
            server.register_tenant(
                spec.tenant,
                TenantClass::LatencyCritical(spec.slo),
                acl.clone(),
                spec.io_size,
            )?;
            let mut conns = Vec::with_capacity(spec.conns as usize);
            for _ in 0..spec.conns {
                let conn = world.fabric.new_conn();
                server.bind_connection(conn, spec.tenant, client_machine)?;
                conns.push(conn);
            }
            links.push(MemberLink {
                site,
                conns,
                resyncing: false,
            });
        }
        // SLO monitoring keys on the tenant; no-op while telemetry is off.
        world
            .telemetry
            .slo_register(TenantKey(spec.tenant.0), spec.slo.p95_read_latency);
        // Each workload draws from its own RNG stream keyed by its stable
        // registration index; the kickoff offset is its first draw.
        let mut state = ReplState::new(
            spec.clone(),
            SimRng::stream(world.gen_seed, w_idx as u64),
            links,
        );
        let offset = state
            .rng
            .exponential(SimDuration::from_secs_f64(1.0 / spec.iops));
        world.workloads.push(state);
        world
            .client_threads_busy
            .push(vec![SimTime::ZERO; spec.client_threads as usize]);
        let at = self.engine.now() + offset;
        self.engine
            .schedule_event_at(at, ReplEvent::OpenLoopGen(w_idx));
        Ok(())
    }

    /// Installs a fault plan. The replication testbed accepts only
    /// [`FaultKind::ServerDeath`] events: each arms the victim site's
    /// device-death hook and a permanent link blackout on its machine,
    /// and schedules the death bookkeeping plus coordinator failover
    /// (death + detection delay) as engine events.
    ///
    /// # Panics
    ///
    /// Panics on any non-`ServerDeath` fault kind (use
    /// `reflex_faults::install` on a single-server testbed for those), or
    /// when a death names a site outside the testbed.
    pub fn install(&mut self, plan: &FaultPlan) -> Arc<FaultStats> {
        let stats = Arc::new(FaultStats::default());
        let world = self.engine.world_mut();
        let n_sites = world.sites.len();
        let detect = world.detect_delay;
        let mut dev_hooks: Vec<PlannedDeviceHook> = (0..n_sites)
            .map(|_| PlannedDeviceHook::new(Arc::clone(&stats)))
            .collect();
        let mut net = PlannedNetHook::new(Arc::clone(&stats));
        let mut deaths = Vec::new();
        for ev in &plan.events {
            match ev.kind {
                FaultKind::ServerDeath { server } => {
                    assert!(
                        server < n_sites,
                        "ServerDeath names site {server} but the testbed has {n_sites}"
                    );
                    // The site dies whole: its device aborts every queued
                    // and future command, and its links go dark for the
                    // rest of the run (messages in either direction are
                    // black-holed at send time, so they never count as
                    // submitted work).
                    dev_hooks[server].set_death(ev.at);
                    net.add_link_down(
                        ev.at,
                        SimDuration::from_secs_f64(3600.0),
                        world.site_machines[server],
                    );
                    stats.add_downtime(detect);
                    deaths.push((ev.at, server));
                }
                other => panic!(
                    "the replication testbed installs ServerDeath faults only, got {other:?}; \
                     use reflex_faults::install on a single-server testbed"
                ),
            }
        }
        for (site, hook) in dev_hooks.into_iter().enumerate() {
            if hook.is_armed() {
                world.sites[site].device.set_fault_hook(Box::new(hook));
            }
        }
        if net.is_armed() {
            world.fabric_mut().set_fault_hook(Box::new(net));
        }
        for (at, site) in deaths {
            self.engine
                .schedule_event_at(at, ReplEvent::ServerDeath(site));
            self.engine
                .schedule_event_at(at + detect, ReplEvent::Failover(site));
        }
        stats
    }

    /// Marks the end of warmup: clears all histograms and counters so the
    /// next [`report`](Self::report) covers only what follows.
    pub fn begin_measurement(&mut self) {
        let now = self.engine.now();
        self.measure_begin = now;
        let world = self.engine.world_mut();
        world.settle(now + SimDuration::from_nanos(1));
        world.measure_start = Some(now);
        for w in &mut world.workloads {
            w.reset_measurement();
        }
    }

    /// Advances the simulation by `span`, then settles every site through
    /// the new instant (see the core testbed's `run`).
    pub fn run(&mut self, span: SimDuration) {
        let world = self.engine.world_mut();
        let woken = world
            .sites
            .iter_mut()
            .fold(false, |any, st| st.server.take_woken() | any);
        if woken {
            self.engine
                .schedule_event_at(self.engine.now(), ReplEvent::Rearm);
        }
        self.engine.run_for(span);
        let through = self.engine.now() + SimDuration::from_nanos(1);
        self.engine.world_mut().settle(through);
    }

    /// Produces the measurement report for the window since
    /// [`begin_measurement`](Self::begin_measurement).
    pub fn report(&self) -> ReplReport {
        let world = self.engine.world();
        let window = self.engine.now().saturating_since(self.measure_begin);
        ReplReport {
            window,
            workloads: world.workloads.iter().map(|w| w.report(window)).collect(),
            recoveries: world.timeline().to_vec(),
            engine_events: self.engine.dispatched(),
            telemetry: world.telemetry.snapshot(),
        }
    }

    /// Turns on telemetry across every site, the fabric, the coordinator
    /// and the engine probes. Recording is strictly passive, so an
    /// instrumented run is byte-identical to an uninstrumented one.
    pub fn enable_telemetry(&mut self) -> Telemetry {
        let telemetry = Telemetry::enabled();
        self.set_telemetry(telemetry.clone());
        telemetry
    }

    /// Installs `telemetry` on every instrumented component (pass
    /// [`Telemetry::disabled`] to switch recording back off).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if let Some(probe) = telemetry.engine_probe() {
            self.engine.set_probe(probe);
        } else {
            self.engine.clear_probe();
        }
        let world = self.engine.world_mut();
        world.fabric_mut().set_telemetry(telemetry.clone());
        for st in &mut world.sites {
            st.device.set_telemetry(telemetry.clone());
            st.server.set_telemetry(telemetry.clone());
        }
        world.coord.set_telemetry(telemetry.clone());
        for w in &world.workloads {
            telemetry.slo_register(TenantKey(w.spec.tenant.0), w.spec.slo.p95_read_latency);
        }
        world.telemetry = telemetry;
    }

    /// The current telemetry snapshot, when telemetry is enabled.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.engine.world().telemetry.snapshot()
    }
}
