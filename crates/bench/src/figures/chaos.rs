//! Chaos harness: throughput and tail latency under escalating faults.
//!
//! Figure-4-style sweeps, but instead of escalating *load* each curve
//! escalates a *fault* — transient device errors, packet loss, latency
//! storms, link flaps, dataplane thread stalls, whole-device death and
//! server death — and measures what the recovery machinery (client retry
//! with exponential backoff, server connection teardown/re-registration,
//! failover re-placing a dead server's tenants) salvages:
//! achieved IOPS, p95 inflation, recovered vs unrecovered requests, and
//! recovery time after outages.
//!
//! Everything is deterministic: fault draws come from private RNG
//! streams keyed by `(plan seed, event id)`, so the TSV is byte-identical
//! for any `REFLEX_BENCH_THREADS` (see `tests/chaos_determinism.rs`).
//!
//! `--smoke` runs the CI-sized plan, and the claims table
//! (`crate::claims`) fails the run if any injected fault went unrecovered
//! (requests exhausted their retry budget or tenants stranded without a
//! server) — the regression gate for the recovery machinery.
//!
//! Run: `reflex-bench chaos [--smoke]`

use reflex_core::{RetryPolicy, Testbed, TestbedReport, WorkloadSpec};
use reflex_faults::{install, FaultCounts, FaultKind, FaultPlan};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::{Histogram, SimDuration, SimTime};
use reflex_telemetry::TelemetrySnapshot;

use std::io::Write;

use crate::recovery;
use crate::sweep::{Execution, PointOutcome, Sweep, SweepResult};

/// Master seed for every chaos fault plan.
const PLAN_SEED: u64 = 0xC4A05;

/// Offered load for the single-tenant chaos testbeds (well under one
/// server thread's capacity, so fault effects dominate queueing).
const OFFERED_IOPS: f64 = 50_000.0;

/// Offered load per tenant of the server-death cluster (half its SLO
/// reservation).
const TENANT_IOPS: f64 = 10_000.0;

fn warmup(smoke: bool) -> SimDuration {
    SimDuration::from_millis(if smoke { 30 } else { 100 })
}

fn measure(smoke: bool) -> SimDuration {
    SimDuration::from_millis(if smoke { 80 } else { 300 })
}

/// Renders the unified TSV row. A negative recovery time prints `-`
/// (scenario has no outage to recover from).
fn row(label: &str, severity: &str, o: &ChaosOutcome) -> String {
    let fmt = |v: f64| {
        if v < 0.0 {
            "-".to_string()
        } else {
            format!("{v:.1}")
        }
    };
    format!(
        "{label}\t{severity}\t{:.0}\t{:.0}\t{}\t{}\t{}\t{}\t{}\t{}",
        o.iops,
        o.p95_us,
        o.injected,
        o.retries,
        o.recovered,
        o.unrecovered,
        fmt(o.recovery_ms),
        fmt(o.recovery_p95_ms)
    )
}

struct ChaosOutcome {
    iops: f64,
    p95_us: f64,
    injected: u64,
    retries: u64,
    recovered: u64,
    unrecovered: u64,
    downtime_secs: f64,
    /// Mean recovery time across the point's outages (single-outage
    /// points: the outage's recovery time; no outage: -1).
    recovery_ms: f64,
    /// Nearest-rank p95 across the point's outages — the same definition
    /// the replication figure reports (see [`crate::recovery`]), so the
    /// chaos and replication artifacts are comparable.
    recovery_p95_ms: f64,
    execution: Execution,
    slo_violations: u64,
    /// What the point recorded, when the sweep records telemetry.
    telemetry: Option<TelemetrySnapshot>,
}

impl ChaosOutcome {
    fn into_point(self, label: &str, severity: &str) -> PointOutcome {
        let r = row(label, severity, &self);
        PointOutcome::new(self.p95_us)
            .with_row(r)
            .with_metric("iops", self.iops)
            .with_metric("injected", self.injected as f64)
            .with_metric("retries", self.retries as f64)
            .with_metric("recovered", self.recovered as f64)
            .with_metric("unrecovered", self.unrecovered as f64)
            .with_metric("downtime_s", self.downtime_secs)
            .with_metric("recovery_ms", self.recovery_ms)
            .with_metric("recovery_p95_ms", self.recovery_p95_ms)
            .with_metric("slo_violations", self.slo_violations as f64)
            .with_events(self.execution)
            .with_telemetry(self.telemetry)
    }
}

/// Runs `tb` under `plan` through the warmup and the measured window.
/// Chaos points always record telemetry (recording is passive, so the
/// TSV is unaffected): the third value is how many rolling SLO windows,
/// over every tenant, the fault pushed over their p95 targets.
fn run_plan(tb: &mut Testbed, plan: &FaultPlan, smoke: bool) -> (TestbedReport, FaultCounts, u64) {
    let counts = install(plan, tb);
    tb.enable_telemetry();
    tb.run(warmup(smoke));
    tb.begin_measurement();
    tb.run(measure(smoke));
    let report = tb.report();
    let slo = report.telemetry.iter().flat_map(|t| t.slo.values());
    let slo_violations = slo.map(|s| s.violations).sum();
    (report, counts.get(), slo_violations)
}

/// Runs one single-tenant testbed under `plan`, its client retrying by
/// the standard policy, and collects the chaos metrics (and, with
/// `telemetry` set, the snapshot). Each entry of `up_ats` marks the end
/// of one scheduled outage, enabling the recovery-time measurement (mean
/// and p95 across outages) from the 10ms IOPS series.
fn run_faulted(plan: &FaultPlan, smoke: bool, telemetry: bool, up_ats: &[SimTime]) -> ChaosOutcome {
    let mut tb = Testbed::builder().seed(71).server_threads(1).build();
    let slo = SloSpec::new(OFFERED_IOPS as u64, 100, SimDuration::from_micros(500));
    tb.add_workload(
        WorkloadSpec::open_loop(
            "app",
            TenantId(1),
            TenantClass::LatencyCritical(slo),
            OFFERED_IOPS,
        )
        .with_retry(RetryPolicy::standard()),
    )
    .expect("chaos workload rejected");
    let (report, snap, slo_violations) = run_plan(&mut tb, plan, smoke);
    let w = report.workload("app");
    let times = recovery::recovery_times(&w.iops_series, up_ats);
    ChaosOutcome {
        iops: w.iops,
        p95_us: w.p95_read_us(),
        injected: snap.injected(),
        retries: w.retries,
        recovered: w.retry_success,
        unrecovered: w.exhausted,
        downtime_secs: snap.downtime.as_secs_f64(),
        recovery_ms: recovery::mean_ms(&times),
        recovery_p95_ms: recovery::p95_ms(&times),
        execution: Execution::from(&report),
        slo_violations,
        telemetry: report.telemetry.filter(|_| telemetry),
    }
}

/// Server death: three sites host `3 × per` single-copy (R = 1)
/// replicated tenants, wherever the planner puts them; the most-loaded
/// site dies 30 ms into the window, and one detection delay later
/// failover re-places its tenants on the survivors. Injected, recovered
/// and unrecovered count displaced, re-placed and stranded tenants;
/// recovery is read off each displaced tenant's series from the
/// failover instant, the end of the outage its clients see.
fn server_death_point(per: u32, smoke: bool, telemetry: bool) -> PointOutcome {
    let mut tb = Testbed::builder().sites(3).replication(1).seed(71).build();
    let slo = SloSpec::new(20_000, 100, SimDuration::from_micros(1_000));
    let total = 3 * per;
    for t in 0..total {
        let mut spec =
            WorkloadSpec::replicated(&format!("t{t}"), TenantId(t + 1), slo, TENANT_IOPS);
        spec.namespace = (u64::from(t) * (8 << 20), 8 << 20);
        tb.add_workload(spec).expect("chaos cluster sized to fit");
    }
    let servers = tb.world().planner().servers().iter();
    let victim = servers
        .max_by_key(|s| (s.tenant_count(), s.id))
        .expect("three sites");
    let death = SimDuration::from_millis(30);
    let plan = FaultPlan::seeded(PLAN_SEED).with_event(
        SimTime::ZERO + warmup(smoke) + death,
        FaultKind::ServerDeath {
            server: victim.id.0 as usize,
        },
    );
    let (report, snap, slo_violations) = run_plan(&mut tb, &plan, smoke);
    // Series are relative to the window's start; the death's scheduled
    // downtime is its detection delay.
    let up_at = SimTime::ZERO + death + snap.downtime;
    let (workloads, recoveries) = (&report.workloads, &report.recoveries);
    let displaced = workloads
        .iter()
        .filter(|w| recoveries.iter().any(|r| r.tenant == w.tenant));
    let times: Vec<f64> = displaced
        .flat_map(|w| recovery::recovery_times(&w.iops_series, &[up_at]))
        .collect();
    let mut reads = Histogram::new();
    workloads.iter().for_each(|w| reads.merge(&w.read_latency));
    let recovered = recoveries.iter().filter(|r| r.new_site.is_some()).count() as u64;
    let injected = recoveries.len() as u64;
    let o = ChaosOutcome {
        iops: workloads.iter().map(|w| w.iops).sum(),
        p95_us: reads.p95().as_micros_f64(),
        injected,
        retries: workloads.iter().map(|w| w.retries).sum(),
        recovered,
        unrecovered: injected - recovered,
        downtime_secs: snap.downtime.as_secs_f64(),
        recovery_ms: recovery::mean_ms(&times),
        recovery_p95_ms: recovery::p95_ms(&times),
        execution: Execution::from(&report),
        slo_violations,
        telemetry: report.telemetry.filter(|_| telemetry),
    };
    o.into_point("server-death", &format!("{total}-tenants"))
}

/// Declares the chaos sweep. `smoke` shrinks windows and severities to a
/// CI-friendly size whose faults must all recover (a claim gates on it);
/// the full sweep adds harsher points — including whole-device death,
/// whose requests are unrecoverable by design.
pub fn build(sweep: &mut Sweep, smoke: bool) {
    sweep.text(format!(
        "# Chaos: recovery under escalating faults{}\n{TSV_HEADER}\n",
        if smoke { " (smoke)" } else { "" }
    ));
    let telemetry = sweep.telemetry;
    let start = SimTime::ZERO + warmup(smoke);

    // Transient device errors, escalating per-command error rate;
    // recovered by immediate client retries (exponential backoff).
    let rates: &[f64] = if smoke {
        &[0.0, 0.02]
    } else {
        &[0.0, 0.01, 0.05, 0.1]
    };
    let curve = sweep.curve("transient-errors");
    for &rate in rates {
        curve.point(move || {
            let plan = if rate > 0.0 {
                FaultPlan::seeded(PLAN_SEED).with_event(
                    start,
                    FaultKind::TransientDeviceErrors {
                        rate,
                        duration: measure(smoke),
                    },
                )
            } else {
                FaultPlan::none()
            };
            run_faulted(&plan, smoke, telemetry, &[])
                .into_point("transient-errors", &format!("rate={rate}"))
        });
    }

    // Packet loss, escalating drop probability; recovered by per-attempt
    // timeouts + retransmission.
    let rates: &[f64] = if smoke { &[0.01] } else { &[0.005, 0.02, 0.05] };
    let curve = sweep.curve("packet-loss");
    for &rate in rates {
        curve.point(move || {
            let plan = FaultPlan::seeded(PLAN_SEED).with_event(
                start,
                FaultKind::PacketLoss {
                    rate,
                    duration: measure(smoke),
                },
            );
            run_faulted(&plan, smoke, telemetry, &[])
                .into_point("packet-loss", &format!("rate={rate}"))
        });
    }

    // Packet duplication: stale copies must be ignored, not double-counted.
    let curve = sweep.curve("packet-dup");
    let dup_rates: &[f64] = if smoke { &[0.05] } else { &[0.05, 0.2] };
    for &rate in dup_rates {
        curve.point(move || {
            let plan = FaultPlan::seeded(PLAN_SEED).with_event(
                start,
                FaultKind::PacketDup {
                    rate,
                    duration: measure(smoke),
                },
            );
            run_faulted(&plan, smoke, telemetry, &[])
                .into_point("packet-dup", &format!("rate={rate}"))
        });
    }

    // Latency storms: bounded p95 inflation, no retries required.
    let extras_us: &[u64] = if smoke { &[100] } else { &[100, 300, 1_000] };
    let curve = sweep.curve("latency-storm");
    for &extra in extras_us {
        curve.point(move || {
            let plan = FaultPlan::seeded(PLAN_SEED).with_event(
                start,
                FaultKind::LatencyStorm {
                    extra: SimDuration::from_micros(extra),
                    duration: measure(smoke),
                },
            );
            run_faulted(&plan, smoke, telemetry, &[])
                .into_point("latency-storm", &format!("extra={extra}us"))
        });
    }

    // Link flaps: the server tears the client's connections down and
    // re-registers them when the link returns; timeouts + retries recover
    // the requests lost in the blackout. Recovery time is read off the
    // 10ms IOPS series.
    let downs_ms: &[u64] = if smoke { &[2] } else { &[2, 5, 10, 20] };
    let flap_at = start + SimDuration::from_millis(30);
    let curve = sweep.curve("link-flap");
    for &down in downs_ms {
        curve.point(move || {
            let down_for = SimDuration::from_millis(down);
            let plan = FaultPlan::seeded(PLAN_SEED).with_event(
                flap_at,
                FaultKind::LinkFlap {
                    client: 0,
                    down_for,
                },
            );
            run_faulted(&plan, smoke, telemetry, &[flap_at + down_for])
                .into_point("link-flap", &format!("down={down}ms"))
        });
    }

    // Repeated link flaps (full runs only): three outages in one window,
    // so the mean and p95 recovery times genuinely diverge — the p95 is
    // the worst of the three recoveries, not a restatement of the mean.
    if !smoke {
        sweep.curve("link-flap-train").point(move || {
            let down_for = SimDuration::from_millis(5);
            let flaps: Vec<SimTime> = (0..3)
                .map(|k| start + SimDuration::from_millis(30 + 80 * k))
                .collect();
            let mut plan = FaultPlan::seeded(PLAN_SEED);
            for &at in &flaps {
                plan = plan.with_event(
                    at,
                    FaultKind::LinkFlap {
                        client: 0,
                        down_for,
                    },
                );
            }
            let up_ats: Vec<SimTime> = flaps.iter().map(|&at| at + down_for).collect();
            run_faulted(&plan, smoke, telemetry, &up_ats)
                .into_point("link-flap-train", "3x down=5ms")
        });
    }

    // Dataplane thread stalls: the polling loop wedges, queues back up
    // and drain afterwards.
    let stalls_us: &[u64] = if smoke { &[200] } else { &[200, 1_000, 5_000] };
    let stall_at = start + SimDuration::from_millis(30);
    let curve = sweep.curve("thread-stall");
    for &stall in stalls_us {
        curve.point(move || {
            let dur = SimDuration::from_micros(stall);
            let plan = FaultPlan::seeded(PLAN_SEED).with_event(
                stall_at,
                FaultKind::ThreadStall {
                    thread: 0,
                    stall: dur,
                },
            );
            run_faulted(&plan, smoke, telemetry, &[stall_at + dur])
                .into_point("thread-stall", &format!("stall={stall}us"))
        });
    }

    // Server death: failover re-places the dead site's tenants on the
    // survivors (sized to always fit in smoke mode).
    let curve = sweep.curve("server-death");
    let sizes: &[u32] = if smoke { &[2] } else { &[2, 4] };
    for &per in sizes {
        curve.point(move || server_death_point(per, smoke, telemetry));
    }

    // Whole-device death: nothing can recover these; full runs report
    // the exhausted requests (the smoke gate excludes this curve).
    if !smoke {
        let death_at = start + SimDuration::from_millis(100);
        sweep.curve("device-death").point(move || {
            let plan = FaultPlan::seeded(PLAN_SEED).with_event(death_at, FaultKind::DeviceDeath);
            run_faulted(&plan, smoke, telemetry, &[]).into_point("device-death", "at=100ms")
        });
    }
}

/// The TSV header matching [`row`].
const TSV_HEADER: &str = "scenario\tseverity\tiops\tp95_us\tinjected\tretries\trecovered\t\
     unrecovered\trecovery_ms\trecovery_p95_ms";

/// Writes the TSV, and the fault totals to stderr.
pub fn render(result: &SweepResult, out: &mut dyn Write) -> std::io::Result<()> {
    out.write_all(result.tsv().as_bytes())?;
    let summary = result.faults().expect("chaos points carry fault metrics");
    eprintln!(
        "[chaos] injected={} recovered={} unrecovered={} downtime={:.1}ms",
        summary.injected,
        summary.recovered,
        summary.unrecovered,
        summary.downtime_secs * 1_000.0
    );
    Ok(())
}
