//! Replication figure: what client-driven replication costs when
//! healthy and what it buys when a server dies.
//!
//! Three panels in one TSV (see the `#`-prefixed column headers it
//! prints):
//!
//! - **overlay** — Figure-4-style throughput/latency curves for
//!   single-copy (R=1) vs replicated (R=2, R=3) under primary and
//!   quorum read policies. Quorum reads anchor on the primary, so the
//!   replication cost shows up as read latency, not lost throughput.
//! - **recovery** — time for throughput to return to its pre-death
//!   baseline after a replica's server dies, per replication factor,
//!   next to the modelled re-sync and failover estimates. Uses the
//!   shared [`crate::recovery`] metric, so the numbers are directly
//!   comparable with the chaos sweep's `recovery_ms` column.
//! - **violations** — rolling SLO-window violations and coordinator
//!   counters (failovers, promotions, server deaths) during the same
//!   failover runs.
//!
//! Run: `reflex-bench fig_replication [--smoke]`

use reflex_core::{ReadPolicy, Testbed, WorkloadSpec};
use reflex_faults::{FaultKind, FaultPlan};
use reflex_qos::{SloSpec, TenantId};
use reflex_sim::{SimDuration, SimTime};
use reflex_telemetry::TenantKey;

use crate::recovery;
use crate::sweep::{PointOutcome, Sweep};

/// Master seed for the failover fault plans.
const PLAN_SEED: u64 = 0x5EF1EC;

/// Testbed RNG seed for every point.
const SEED: u64 = 97;

/// Read percentage for every workload: the paper's mixed-tenant shape.
const READ_PCT: u8 = 70;

/// Offered load for the failover runs: high enough that a dead replica
/// visibly dents throughput, low enough that every configuration admits.
const DEATH_IOPS: f64 = 40_000.0;

fn warmup(smoke: bool) -> SimDuration {
    SimDuration::from_millis(if smoke { 30 } else { 100 })
}

fn measure(smoke: bool) -> SimDuration {
    SimDuration::from_millis(if smoke { 100 } else { 300 })
}

/// Failover runs need the window to cover death (40ms), detection
/// (30ms), re-sync and the post-recovery tail.
fn measure_death(smoke: bool) -> SimDuration {
    SimDuration::from_millis(if smoke { 150 } else { 250 })
}

/// SLO reservation for an offered load: 30% headroom. Reserving exactly
/// the offered rate leaves the promoted quorum anchor zero token margin
/// after a failover, so the blackout backlog never drains and reads
/// collapse into deadline timeouts (see DESIGN.md §11).
fn slo_for(offered: f64) -> SloSpec {
    let reserved = (offered * 1.3) as u64;
    SloSpec::new(reserved, READ_PCT, SimDuration::from_micros(800))
}

/// `-1` (no measurement) prints as `-`.
fn fmt_ms(v: f64) -> String {
    if v < 0.0 {
        "-".to_string()
    } else {
        format!("{v:.1}")
    }
}

/// One healthy overlay point: replication factor × read policy at one
/// offered load, on 3 sites.
fn overlay_point(
    label: &'static str,
    r: usize,
    policy: ReadPolicy,
    offered: f64,
    smoke: bool,
) -> PointOutcome {
    let mut tb = Testbed::builder()
        .sites(3)
        .replication(r)
        .seed(SEED)
        .build();
    if crate::telemetry::enabled() {
        tb.enable_telemetry();
    }
    tb.add_workload(
        WorkloadSpec::replicated("app", TenantId(1), slo_for(offered), offered)
            .with_read_policy(policy),
    )
    .unwrap_or_else(|e| panic!("overlay workload rejected ({label} @ {offered}): {e}"));
    tb.run(warmup(smoke));
    tb.begin_measurement();
    tb.run(measure(smoke));
    let report = tb.report();
    let wl = report.workload("app");
    if crate::telemetry::enabled() {
        if let Some(t) = &report.telemetry {
            crate::telemetry::merge(t);
        }
    }
    PointOutcome::new(wl.p95_read_us())
        .with_row(format!(
            "overlay\t{label}\t{offered:.0}\t{:.0}\t{:.0}\t{:.0}\t{:.1}\t{}",
            wl.iops,
            wl.p95_read_us(),
            wl.p95_write_us(),
            wl.mean_read_us(),
            wl.errors
        ))
        .with_metric("offered_iops", offered)
        .with_metric("iops", wl.iops)
        .with_metric("p95_read_us", wl.p95_read_us())
        .with_metric("p95_write_us", wl.p95_write_us())
        .with_metric("mean_read_us", wl.mean_read_us())
        .with_metric("errors", wl.errors as f64)
        .with_events(report.engine_events)
}

/// One failover run: R replicas on R+1 sites (one spare), quorum reads,
/// and a scheduled death of the tenant's primary site 40ms into the
/// measured window. Emits one `recovery` row and one `violations` row.
fn failover_point(r: usize, smoke: bool) -> PointOutcome {
    let w = warmup(smoke);
    let mut tb = Testbed::builder()
        .sites(r + 1)
        .replication(r)
        .seed(SEED)
        .build();
    let mut spec = WorkloadSpec::replicated("app", TenantId(1), slo_for(DEATH_IOPS), DEATH_IOPS)
        .with_read_policy(ReadPolicy::Quorum);
    // 32 MiB namespace: the replacement's re-sync (2 GiB/s) takes ~16ms —
    // long enough to see, short enough to finish in-window.
    spec.namespace = (0, 32 << 20);
    tb.add_workload(spec)
        .unwrap_or_else(|e| panic!("failover workload rejected (R={r}): {e}"));
    // Kill the primary: the worst case — the quorum-read anchor and the
    // write set both lose a member, and the coordinator must promote a
    // survivor *and* place a replacement.
    let victim = tb.world().member_sites(0)[tb.world().primary_slot(0)];
    let death_at = SimTime::ZERO + w + SimDuration::from_millis(40);
    let plan = FaultPlan::seeded(PLAN_SEED)
        .with_event(death_at, FaultKind::ServerDeath { server: victim });
    reflex_faults::install(&plan, &mut tb);
    // Always record telemetry here (passive, so the TSV is unaffected):
    // the violations panel needs the SLO monitor and the coordinator
    // counters.
    tb.enable_telemetry();
    tb.run(w);
    tb.begin_measurement();
    tb.run(measure_death(smoke));
    let report = tb.report();
    let wl = report.workload("app");
    let rec = report.recoveries.first().copied().expect("one failover");
    // Series buckets are relative to measurement start; the outage ends
    // for the client at the failover instant, when survivors are
    // promoted and the replacement becomes write-eligible.
    let up_rel = SimTime::ZERO + rec.failover_at.saturating_since(SimTime::ZERO + w);
    let times = recovery::recovery_times(&wl.iops_series, &[up_rel]);
    let recovery_ms = recovery::mean_ms(&times);
    let resync_ms = rec.resync_done_at.map_or(-1.0, |t| {
        t.saturating_since(rec.failover_at).as_micros_f64() / 1_000.0
    });
    let total_ms = rec.resync_done_at.map_or(-1.0, |t| {
        t.saturating_since(rec.died_at).as_micros_f64() / 1_000.0
    });
    let snap = report.telemetry.as_ref().expect("telemetry enabled");
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let violations = snap.slo.get(&TenantKey(1)).map_or(0, |s| s.violations);
    if crate::telemetry::enabled() {
        crate::telemetry::merge(snap);
    }
    PointOutcome::new(wl.p95_read_us())
        .with_row(format!(
            "recovery\tR={r}\t{}\t{}\t{}",
            fmt_ms(recovery_ms),
            fmt_ms(resync_ms),
            fmt_ms(total_ms)
        ))
        .with_row(format!(
            "violations\tR={r}\t{violations}\t{}\t{}\t{}",
            count("replication.failovers"),
            count("replication.promotions"),
            count("replication.server_deaths"),
        ))
        .with_metric("iops", wl.iops)
        .with_metric("recovery_ms", recovery_ms)
        .with_metric("recovery_p95_ms", recovery::p95_ms(&times))
        .with_metric("resync_ms", resync_ms)
        .with_metric("failover_total_ms", total_ms)
        .with_metric("slo_violations", violations as f64)
        .with_events(report.engine_events)
}

/// Declares the replication sweep. `smoke` shrinks windows and load
/// points to a CI-friendly size.
pub fn build(sweep: &mut Sweep, smoke: bool) {
    // The title, then one column-header comment line per panel.
    sweep.text(
        "# fig_replication: client-driven replication over remote Flash\n\
         # overlay\tcurve\toffered_iops\tiops\tp95_read_us\tp95_write_us\tmean_read_us\terrors\n\
         # recovery\tR\trecovery_ms\tresync_ms\tfailover_total_ms\n\
         # violations\tR\tslo_violations\tfailovers\tpromotions\tserver_deaths\n",
    );
    let loads: &[f64] = if smoke {
        &[20_000.0, 40_000.0]
    } else {
        &[20_000.0, 35_000.0, 50_000.0, 65_000.0]
    };
    let configs: &[(&'static str, usize, ReadPolicy)] = &[
        ("R1-primary", 1, ReadPolicy::Primary),
        ("R2-primary", 2, ReadPolicy::Primary),
        ("R2-quorum", 2, ReadPolicy::Quorum),
        ("R3-quorum", 3, ReadPolicy::Quorum),
    ];
    for &(label, r, policy) in configs {
        let curve = sweep.curve(label);
        for &offered in loads {
            curve.point(move || overlay_point(label, r, policy, offered, smoke));
        }
    }
    for r in [2usize, 3] {
        sweep
            .curve(format!("failover-R{r}"))
            .point(move || failover_point(r, smoke));
    }
}
