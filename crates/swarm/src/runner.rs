//! Executes one [`SwarmCase`] and holds it to the five oracle families.
//!
//! Two executions per case: the **oracle run**, which is then stopped
//! and drained for the conservation checks, and an exact **re-run**
//! whose report the identity family holds byte-identical to the first.
//!
//! Healthy cases additionally run an **alloc pass**: the same scenario,
//! telemetry off, measured under the counting allocator (when the
//! embedding binary installed it).
//!
//! Both topologies are one `Testbed` — the replicated one has more
//! sites and workloads with the replication property — so they share
//! every step; the quorum/epoch family alone asks which one it is.

use std::sync::Mutex;

use reflex_core::{
    AddrPattern, ReadPolicy, RetryPolicy, ServerConfig, Testbed, TestbedReport, WorkloadSpec,
};
use reflex_faults::install;
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::SimDuration;

use crate::gen::{SwarmCase, TenantSpec, Topology};
use crate::oracle::{
    check_alloc, check_epochs, check_identity, check_io_conservation, check_membership,
    check_token_books, FamilyStatus, OracleFamily, Violation,
};

/// Drain window after generators stop. Sized for the worst admissible
/// backlog: a saturated device queue plus full retry chains (4 attempts
/// with exponential backoff off a 10ms timeout) — the swarm found that a
/// 200ms drain flags healthy overloaded cases as conservation leaks.
const DRAIN: SimDuration = SimDuration::from_millis(1500);

/// Allocation budget for the swarm's short windows. Looser than the
/// bench gate's 0.05/IO (which amortizes over a 300ms closed-loop
/// steady state) because arbitrary generated scenarios pay one-off
/// container growth over fewer IOs — but still far below one
/// allocation per IO, so any per-request heap traffic fails.
const ALLOC_BUDGET_PER_IO: f64 = 0.2;

/// How the embedding binary exposes the counting allocator.
#[derive(Clone, Copy)]
pub struct RunConfig {
    /// Reads the process-wide allocation counter, if the binary
    /// installed `reflex_sim::alloc_count::CountingAlloc` as its global
    /// allocator. `None` marks the alloc family vacuous.
    pub alloc_counter: Option<fn() -> u64>,
}

impl Default for RunConfig {
    /// No allocation counter: the alloc-budget family reports vacuous.
    fn default() -> Self {
        RunConfig {
            alloc_counter: None,
        }
    }
}

impl std::fmt::Debug for RunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunConfig")
            .field("alloc_counter", &self.alloc_counter.is_some())
            .finish()
    }
}

/// Everything the swarm learned from one case.
#[derive(Debug)]
pub struct CaseOutcome {
    /// The case that ran.
    pub case: SwarmCase,
    /// Broken invariants (empty = pass).
    pub violations: Vec<Violation>,
    /// Status of all five families on this case.
    pub families: Vec<(OracleFamily, FamilyStatus)>,
    /// Non-fatal observations (dropped tenants).
    pub notes: Vec<String>,
    /// Completed IOs observed by the oracle run.
    pub completed_ios: u64,
}

impl CaseOutcome {
    /// True when any oracle family fired.
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

struct Artifacts {
    fingerprint: String,
    /// Every replicated workload's membership epoch, sampled along the
    /// measured window.
    epochs: Vec<Vec<u32>>,
    /// [`spent_by_site`] as the measured window opened.
    spent_at_start: Vec<i64>,
    completed: u64,
    notes: Vec<String>,
}

fn fingerprint(r: &TestbedReport) -> String {
    // engine_events and telemetry are execution artifacts, not simulated
    // results.
    format!(
        "window={:?} workloads={:?} threads={:?} tokens={} device={:?} renegs={:?} recoveries={:?}",
        r.window,
        r.workloads,
        r.threads,
        r.token_usage_per_sec.to_bits(),
        r.device,
        r.renegotiations,
        r.recoveries
    )
}

/// IOs the servers' threads have completed, over every site.
fn completed(tb: &Testbed) -> u64 {
    let threads = tb.report().threads;
    threads
        .iter()
        .filter_map(|t| t.stats.as_ref())
        .map(|s| s.completed)
        .sum()
}

/// Derives the per-thread DRAM cache tier from the case topology.
/// The line size tracks the smallest tenant IO so every read fully
/// covers at least one line and is admissible on fill.
fn core_cache(case: &SwarmCase) -> Option<reflex_dataplane::CacheConfig> {
    let Topology::Core { cache_mb, .. } = case.topology else {
        return None;
    };
    if cache_mb == 0 {
        return None;
    }
    let mut cfg = reflex_dataplane::CacheConfig::with_capacity(cache_mb << 20);
    cfg.line_bytes = case.tenants.iter().map(|t| t.io_size).min().unwrap_or(4096);
    Some(cfg)
}

fn core_spec(i: usize, t: &TenantSpec) -> WorkloadSpec {
    let class = match t.lc {
        Some((iops, pct, p95_us)) => {
            TenantClass::LatencyCritical(SloSpec::new(iops, pct, SimDuration::from_micros(p95_us)))
        }
        None => TenantClass::BestEffort,
    };
    let name = format!("t{i}");
    let tenant = TenantId(i as u32 + 1);
    let mut spec = if t.open_loop {
        WorkloadSpec::open_loop(&name, tenant, class, t.rate_iops as f64)
    } else {
        WorkloadSpec::closed_loop(&name, tenant, class, t.depth.max(1))
    };
    spec.read_pct = t.read_pct;
    spec.conns = t.conns.max(1);
    spec.client_threads = t.client_threads.max(1);
    spec.client_machine = t.client_machine;
    spec.io_size = t.io_size;
    if t.zipf_permille > 0 {
        spec.addr_pattern = AddrPattern::Zipfian {
            theta_permille: t.zipf_permille as u16,
        };
    }
    if t.retry {
        spec = spec.with_retry(RetryPolicy::standard());
    }
    spec
}

fn repl_spec(i: usize, t: &TenantSpec) -> WorkloadSpec {
    let (iops, pct, p95_us) = t.lc.expect("replicated tenants carry an SLO");
    let slo = SloSpec::new(iops, pct, SimDuration::from_micros(p95_us));
    let mut spec = WorkloadSpec::replicated(
        &format!("t{i}"),
        TenantId(i as u32 + 1),
        slo,
        t.rate_iops as f64,
    )
    .with_read_policy(if t.quorum_read {
        ReadPolicy::Quorum
    } else {
        ReadPolicy::Primary
    })
    .with_retry(RetryPolicy::standard());
    spec.namespace = (i as u64 * (8 << 20), 8 << 20);
    spec
}

/// Builds the case's testbed, faults installed, and populates it. A
/// core tenant the admission controller rejects is dropped with a note
/// (a case whose tenants were all rejected — a generator bug — surfaces
/// upstream as an IO-conservation violation).
fn build(case: &SwarmCase, telemetry: bool) -> (Testbed, Vec<String>) {
    let builder = Testbed::builder().seed(case.seed);
    let mut tb = match case.topology {
        Topology::Core {
            server_threads,
            clients,
            ..
        } => builder
            .server(ServerConfig {
                threads: server_threads as u32,
                max_threads: server_threads as u32,
                dataplane: reflex_dataplane::DataplaneConfig {
                    cache: core_cache(case),
                    ..reflex_dataplane::DataplaneConfig::default()
                },
                ..ServerConfig::default()
            })
            .client_machines(vec![reflex_net::StackProfile::ix_tcp(); clients]),
        Topology::Replicated { sites, replication } => {
            builder.sites(sites).replication(replication)
        }
    }
    .build();
    if !case.faults.is_empty() {
        let _stats = install(&case.faults, &mut tb);
    }
    if telemetry {
        tb.enable_telemetry();
    }
    let mut notes = Vec::new();
    for (i, t) in case.tenants.iter().enumerate() {
        match case.topology {
            Topology::Core { .. } => {
                if let Err(e) = tb.add_workload(core_spec(i, t)) {
                    notes.push(format!("tenant t{i} rejected: {e}"));
                }
            }
            Topology::Replicated { .. } => tb
                .add_workload(repl_spec(i, t))
                .expect("replicated workload admitted"),
        }
    }
    (tb, notes)
}

/// Millitokens each site's tenants have spent so far.
fn spent_by_site(tb: &Testbed) -> Vec<i64> {
    let w = tb.world();
    (0..w.site_count())
        .map(|s| {
            w.server_at(s)
                .all_tenants_spent_millitokens()
                .values()
                .sum()
        })
        .collect()
}

/// Runs the case through warmup + measure, telemetry on. `slices` cuts
/// the measured window and samples the membership epochs after each, so
/// monotonicity is observed at several instants, not just at the end.
fn run_measured(case: &SwarmCase, slices: u64) -> (Testbed, Artifacts) {
    let (mut tb, notes) = build(case, true);
    tb.run(SimDuration::from_millis(case.warmup_ms));
    tb.begin_measurement();
    let spent_at_start = spent_by_site(&tb);
    let mut epochs = Vec::new();
    for _ in 0..slices {
        tb.run(SimDuration::from_millis(case.measure_ms) / slices);
        if let Topology::Replicated { .. } = case.topology {
            let w = tb.world();
            epochs.push((0..case.tenants.len()).map(|i| w.epoch(i)).collect());
        }
    }
    let artifacts = Artifacts {
        fingerprint: fingerprint(&tb.report()),
        epochs,
        spent_at_start,
        completed: completed(&tb),
        notes,
    };
    (tb, artifacts)
}

/// Runs `case` under every applicable oracle family.
pub fn run_case(case: &SwarmCase, cfg: &RunConfig) -> CaseOutcome {
    let mut violations = Vec::new();
    let mut families = Vec::new();

    // The re-run slices the measured window differently: that must not
    // change the report either.
    let (mut tb, oracle_run) = run_measured(case, 4);
    let (_, rerun) = run_measured(case, 1);
    check_identity(&oracle_run.fingerprint, &rerun.fingerprint, &mut violations);
    families.push((OracleFamily::RerunIdentity, FamilyStatus::Checked));

    // Quorum/epoch family: sampled monotonicity + final membership.
    match case.topology {
        Topology::Replicated { replication, .. } => {
            let recoveries = tb.report().recoveries.len();
            check_epochs(
                &oracle_run.epochs,
                recoveries,
                case.faulty(),
                &mut violations,
            );
            for w_idx in 0..case.tenants.len() {
                check_membership(
                    &tb.world().member_sites(w_idx),
                    tb.world().primary_slot(w_idx),
                    replication,
                    case.faulty(),
                    &mut violations,
                );
            }
            families.push((OracleFamily::QuorumEpoch, FamilyStatus::Checked));
        }
        Topology::Core { .. } => families.push((
            OracleFamily::QuorumEpoch,
            FamilyStatus::Vacuous("single-server topology has no membership"),
        )),
    }

    // Stop, drain, and hold the exit books to exact balance.
    tb.world_mut().stop_all_workloads();
    tb.run(DRAIN);
    match tb.telemetry_snapshot() {
        Some(snapshot) => {
            check_io_conservation(&snapshot, &mut violations);
            families.push((OracleFamily::IoConservation, FamilyStatus::Checked));
        }
        None => families.push((
            OracleFamily::IoConservation,
            FamilyStatus::Vacuous("telemetry unavailable"),
        )),
    }

    // Token budget: every site's books balance to the millitoken on
    // every case; and a site that admitted latency-critical tenants
    // spends within its device's budget at the strictest of their SLOs.
    let secs = tb.report().window.as_secs_f64();
    let spent = spent_by_site(&tb);
    for (site, (now, start)) in spent.iter().zip(&oracle_run.spent_at_start).enumerate() {
        let server = tb.world().server_at(site);
        let (generated, accounted) = server.token_books();
        check_token_books(generated, accounted, &mut violations);
        let Some(slo) = server.strictest_slo() else {
            continue;
        };
        let budget = server.capacity().tokens_per_sec_at(slo);
        let usage = (now - start) as f64 / 1_000.0 / secs;
        if usage > budget * 1.05 {
            violations.push(Violation {
                family: OracleFamily::TokenBudget,
                detail: format!(
                    "site {site}: token spend {usage:.0}/s exceeds the device budget \
                     {budget:.0}/s at the strictest admitted SLO ({slo:?})"
                ),
            });
        }
    }
    families.push((OracleFamily::TokenBudget, FamilyStatus::Checked));

    // Alloc pass: healthy scenarios, telemetry off, longer windows so
    // per-IO amortization is meaningful.
    match (cfg.alloc_counter, case.faulty()) {
        (Some(counter), false) => {
            let _gate = alloc_gate();
            let (mut tb, _) = build(case, false);
            tb.run(SimDuration::from_millis(150));
            let ios_before = completed(&tb);
            let before = counter();
            tb.run(SimDuration::from_millis(250));
            let allocs = counter() - before;
            let ios = completed(&tb) - ios_before;
            check_alloc(allocs, ios, ALLOC_BUDGET_PER_IO, &mut violations);
            families.push((OracleFamily::AllocBudget, FamilyStatus::Checked));
        }
        (None, _) => families.push((
            OracleFamily::AllocBudget,
            FamilyStatus::Vacuous("no counting allocator installed"),
        )),
        (_, true) => families.push((
            OracleFamily::AllocBudget,
            FamilyStatus::Vacuous("fault hooks may legitimately allocate"),
        )),
    }

    CaseOutcome {
        case: case.clone(),
        violations,
        families,
        notes: oracle_run.notes,
        completed_ios: oracle_run.completed,
    }
}

/// Convenience: derives the case from `seed` and runs it.
pub fn run_seed(seed: u64, cfg: &RunConfig) -> CaseOutcome {
    run_case(&SwarmCase::from_seed(seed), cfg)
}

// Process-wide guard so parallel test threads never interleave two
// runs' alloc measurements against the shared global counter.
static ALLOC_GATE: Mutex<()> = Mutex::new(());

/// Serializes alloc-measuring runs across threads. Returns a guard.
pub fn alloc_gate() -> std::sync::MutexGuard<'static, ()> {
    ALLOC_GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
