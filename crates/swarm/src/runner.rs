//! Executes one [`SwarmCase`] and holds it to the five oracle families.
//!
//! Two executions per case: the **oracle run**, which is then stopped
//! and drained for the conservation checks, and an exact **re-run**
//! whose report the identity family holds byte-identical to the first.
//!
//! Healthy core cases additionally run an **alloc pass**: the same
//! scenario, telemetry off, measured under the counting allocator (when
//! the embedding binary installed it).

use std::sync::Mutex;

use reflex_core::{AddrPattern, RetryPolicy, ServerConfig, Testbed, TestbedReport, WorkloadSpec};
use reflex_faults::install;
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_replication::{ReadPolicy, ReplReport, ReplTestbed, ReplWorkloadSpec};
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

/// Runs `case` under every applicable oracle family.
pub fn run_case(case: &SwarmCase, cfg: &RunConfig) -> CaseOutcome {
    match case.topology {
        Topology::Core { .. } => run_core_case(case, cfg),
        Topology::Replicated { .. } => run_repl_case(case),
    }
}

// ------------------------------------------------------------------
// Core topology

struct CoreArtifacts {
    fingerprint: String,
    completed: u64,
    notes: Vec<String>,
}

fn core_fingerprint(r: &TestbedReport) -> String {
    // engine_events and telemetry are execution artifacts, not simulated
    // results.
    format!(
        "window={:?} workloads={:?} threads={:?} tokens={} device={:?} renegs={:?}",
        r.window,
        r.workloads,
        r.threads,
        r.token_usage_per_sec.to_bits(),
        r.device,
        r.renegotiations
    )
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

/// Builds, populates and runs a core testbed through warmup + measure,
/// telemetry on. (A case whose tenants were all rejected — a generator
/// bug — surfaces upstream as an IO-conservation violation.)
fn run_core(case: &SwarmCase) -> (Testbed, CoreArtifacts) {
    let Topology::Core {
        server_threads,
        clients,
        ..
    } = case.topology
    else {
        unreachable!("run_core on non-core case")
    };
    let mut tb = Testbed::builder()
        .seed(case.seed)
        .server(ServerConfig {
            threads: server_threads as u32,
            max_threads: server_threads as u32,
            dataplane: reflex_dataplane::DataplaneConfig {
                cache: core_cache(case),
                ..reflex_dataplane::DataplaneConfig::default()
            },
            ..ServerConfig::default()
        })
        .client_machines(vec![reflex_net::StackProfile::ix_tcp(); clients])
        .build();
    let mut notes = Vec::new();
    if !case.faults.is_empty() {
        let _stats = install(&case.faults, &mut tb);
    }
    tb.enable_telemetry();
    for (i, t) in case.tenants.iter().enumerate() {
        if let Err(e) = tb.add_workload(core_spec(i, t)) {
            notes.push(format!("tenant t{i} rejected: {e}"));
        }
    }
    tb.run(SimDuration::from_millis(case.warmup_ms));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(case.measure_ms));
    let report = tb.report();
    let completed = report
        .threads
        .iter()
        .filter_map(|t| t.stats.as_ref())
        .map(|s| s.completed)
        .sum();
    let artifacts = CoreArtifacts {
        fingerprint: core_fingerprint(&report),
        completed,
        notes,
    };
    (tb, artifacts)
}

fn run_core_case(case: &SwarmCase, cfg: &RunConfig) -> CaseOutcome {
    let mut violations = Vec::new();
    let mut families = Vec::new();

    let (mut tb, oracle_run) = run_core(case);
    let (_, rerun) = run_core(case);
    check_identity(&oracle_run.fingerprint, &rerun.fingerprint, &mut violations);
    families.push((OracleFamily::RerunIdentity, FamilyStatus::Checked));

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

    // Token budget: the books balance to the millitoken on every case;
    // with a latency-critical tenant admitted, spend also stays within the
    // device budget at the strictest SLO.
    let (generated, accounted) = tb.world().server().token_books();
    check_token_books(generated, accounted, &mut violations);
    let strictest = case
        .tenants
        .iter()
        .filter_map(|t| t.lc)
        .map(|(_, _, p95)| p95)
        .min();
    if let Some(p95_us) = strictest {
        let report = tb.report();
        let budget = tb
            .world()
            .server()
            .capacity()
            .tokens_per_sec_at(SimDuration::from_micros(p95_us));
        if report.token_usage_per_sec > budget * 1.05 {
            violations.push(Violation {
                family: OracleFamily::TokenBudget,
                detail: format!(
                    "token spend {:.0}/s exceeds the device budget {budget:.0}/s \
                     at the strictest admitted SLO ({p95_us}us)",
                    report.token_usage_per_sec
                ),
            });
        }
    }
    families.push((OracleFamily::TokenBudget, FamilyStatus::Checked));

    families.push((
        OracleFamily::QuorumEpoch,
        FamilyStatus::Vacuous("single-server topology has no membership"),
    ));

    // Alloc pass: healthy scenarios, telemetry off, longer windows so
    // per-IO amortization is meaningful.
    match (cfg.alloc_counter, case.faulty()) {
        (Some(counter), false) => {
            let _gate = alloc_gate();
            let alloc_case = SwarmCase {
                warmup_ms: 150,
                measure_ms: 250,
                ..case.clone()
            };
            let (allocs, ios) = {
                let Topology::Core {
                    server_threads,
                    clients,
                    ..
                } = alloc_case.topology
                else {
                    unreachable!()
                };
                let mut tb = Testbed::builder()
                    .seed(alloc_case.seed)
                    .server(ServerConfig {
                        threads: server_threads as u32,
                        max_threads: server_threads as u32,
                        dataplane: reflex_dataplane::DataplaneConfig {
                            cache: core_cache(&alloc_case),
                            ..reflex_dataplane::DataplaneConfig::default()
                        },
                        ..ServerConfig::default()
                    })
                    .client_machines(vec![reflex_net::StackProfile::ix_tcp(); clients])
                    .build();
                for (i, t) in alloc_case.tenants.iter().enumerate() {
                    let _ = tb.add_workload(core_spec(i, t));
                }
                tb.run(SimDuration::from_millis(alloc_case.warmup_ms));
                let completed = |tb: &Testbed| -> u64 {
                    tb.report()
                        .threads
                        .iter()
                        .filter_map(|t| t.stats.as_ref())
                        .map(|s| s.completed)
                        .sum()
                };
                let ios_before = completed(&tb);
                let before = counter();
                tb.run(SimDuration::from_millis(alloc_case.measure_ms));
                let after = counter();
                (after - before, completed(&tb) - ios_before)
            };
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

// ------------------------------------------------------------------
// Replicated topology

fn repl_fingerprint(r: &ReplReport) -> String {
    format!(
        "window={:?} workloads={:?} recoveries={:?}",
        r.window, r.workloads, r.recoveries
    )
}

struct ReplArtifacts {
    fingerprint: String,
    epochs: Vec<Vec<u32>>,
    completed: u64,
}

fn run_repl(case: &SwarmCase, sample: bool) -> (ReplTestbed, ReplArtifacts) {
    let Topology::Replicated {
        sites, replication, ..
    } = case.topology
    else {
        unreachable!("run_repl on non-replicated case")
    };
    let mut tb = ReplTestbed::builder()
        .sites(sites)
        .replication(replication)
        .seed(case.seed)
        .build();
    tb.enable_telemetry();
    for (i, t) in case.tenants.iter().enumerate() {
        let (iops, pct, p95_us) = t.lc.expect("replicated tenants carry an SLO");
        let spec = ReplWorkloadSpec::open_loop(
            format!("t{i}"),
            TenantId(i as u32 + 1),
            SloSpec::new(iops, pct, SimDuration::from_micros(p95_us)),
            t.rate_iops as f64,
        )
        .with_read_policy(if t.quorum_read {
            ReadPolicy::Quorum
        } else {
            ReadPolicy::Primary
        })
        .with_namespace(i as u64 * (8 << 20), 8 << 20)
        .with_retry(RetryPolicy::standard());
        tb.add_workload(spec).expect("replicated workload admitted");
    }
    if !case.faults.is_empty() {
        let _stats = tb.install(&case.faults);
    }
    tb.run(SimDuration::from_millis(case.warmup_ms));
    tb.begin_measurement();
    // Slice the measured window so epoch monotonicity is observed at
    // several instants, not just at the end.
    let mut epochs = Vec::new();
    let slices: u64 = if sample { 4 } else { 1 };
    for _ in 0..slices {
        tb.run(SimDuration::from_millis(case.measure_ms) / slices);
        if sample {
            let w = tb.world();
            epochs.push((0..case.tenants.len()).map(|i| w.epoch(i)).collect());
        }
    }
    let report = tb.report();
    let completed = report
        .workloads
        .iter()
        .map(|w| (w.iops * case.measure_ms as f64 / 1_000.0) as u64)
        .sum();
    let artifacts = ReplArtifacts {
        fingerprint: repl_fingerprint(&report),
        epochs,
        completed,
    };
    (tb, artifacts)
}

fn run_repl_case(case: &SwarmCase) -> CaseOutcome {
    let Topology::Replicated { replication, .. } = case.topology else {
        unreachable!()
    };
    let mut violations = Vec::new();
    let mut families = Vec::new();

    let (mut tb, oracle_run) = run_repl(case, true);
    let report = tb.report();

    // The re-run does not sample epochs: slicing the measured window
    // differently must not change the report either.
    let (_, rerun) = run_repl(case, false);
    check_identity(&oracle_run.fingerprint, &rerun.fingerprint, &mut violations);
    families.push((OracleFamily::RerunIdentity, FamilyStatus::Checked));

    // Quorum/epoch family: sampled monotonicity + final membership.
    check_epochs(
        &oracle_run.epochs,
        report.recoveries.len(),
        case.faulty(),
        &mut violations,
    );
    for w_idx in 0..case.tenants.len() {
        check_membership(
            &tb.member_sites(w_idx),
            tb.world().primary_slot(w_idx),
            replication,
            case.faulty(),
            &mut violations,
        );
    }
    families.push((OracleFamily::QuorumEpoch, FamilyStatus::Checked));

    // Conservation after stop-and-drain, exactly like the core path.
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

    families.push((
        OracleFamily::TokenBudget,
        FamilyStatus::Vacuous("the replicated testbed does not expose its sites' token books"),
    ));
    families.push((
        OracleFamily::AllocBudget,
        FamilyStatus::Vacuous("replicated fan-out is gated by the bench alloc budget"),
    ));

    CaseOutcome {
        case: case.clone(),
        violations,
        families,
        notes: Vec::new(),
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
