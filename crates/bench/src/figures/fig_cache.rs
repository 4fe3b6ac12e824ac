//! DRAM cache tier figures: hit rate vs read tail, and cache relief
//! under connection pressure.
//!
//! Panel 1 sweeps cache size × workload skew on one ReFlex core: a
//! read-only open-loop tenant over a 512MiB namespace, with the
//! per-thread DRAM cache at off / 4 / 16 / 64 MiB and the address
//! stream uniform or Zipfian (θ = 0.900 / 0.990). Hits complete at DRAM
//! latency and bypass the flash SQ/channel, so the read p95 falls both
//! because hot reads skip the device and because the flash queue drains
//! at the lower miss-only arrival rate.
//!
//! Panel 2 composes the fig6c connection-scaling scenario with the
//! cache: same per-connection 1KB read rate, cache off vs 16MiB. The
//! hit path still pays the connection-state LLC pressure factor (it
//! runs on the same core), so the panel separates CPU pressure from
//! flash queueing.
//!
//! `--smoke` runs a reduced grid for CI gates. The claims table
//! (`crate::claims`) holds both grids to the figure's two claims: at
//! θ = 0.990 a 16MiB cache serves ≥ 50% of reads and beats the cache-off
//! read p95, and at 2,500 connections it relieves the read tail.
//!
//! Run: `reflex-bench fig_cache`

use crate::run_testbed;
use crate::sweep::{PointOutcome, Sweep};
use reflex_core::{AddrPattern, ServerConfig, Testbed, WorkloadSpec};
use reflex_dataplane::{CacheConfig, DataplaneConfig};
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::SimDuration;

/// Builds a one-core testbed with the cache tier at `cache_mb` MiB
/// (0 = off) and `line_bytes`-sized lines.
fn cached_testbed(seed: u64, cache_mb: u64, line_bytes: u32, clients: usize) -> Testbed {
    let cache = (cache_mb > 0).then(|| {
        let mut c = CacheConfig::with_capacity(cache_mb << 20);
        c.line_bytes = line_bytes;
        c
    });
    Testbed::builder()
        .seed(seed)
        .server(ServerConfig {
            dataplane: DataplaneConfig {
                cache,
                ..DataplaneConfig::default()
            },
            ..ServerConfig::default()
        })
        .client_machines(vec![StackProfile::ix_tcp(); clients])
        .link(LinkConfig::forty_gbe())
        .build()
}

/// Cumulative cache hit percentage across the server threads (NaN-free:
/// 0 when the cache is off or saw no reads).
fn hit_pct(report: &reflex_core::TestbedReport) -> f64 {
    let (mut hits, mut misses) = (0u64, 0u64);
    for t in &report.threads {
        if let Some(s) = &t.stats {
            hits += s.cache_hits;
            misses += s.cache_misses;
        }
    }
    if hits + misses == 0 {
        return 0.0;
    }
    hits as f64 / (hits + misses) as f64 * 100.0
}

/// Panel 1 point: 4KB read-only open loop at fixed offered load over a
/// 512MiB namespace, cache at `mb` MiB.
fn tail_point(theta_permille: u16, mb: u64, telemetry: bool) -> PointOutcome {
    let tb = cached_testbed(93, mb, 4096, 1);
    let mut spec =
        WorkloadSpec::open_loop("tenant", TenantId(1), TenantClass::BestEffort, 120_000.0);
    spec.read_pct = 100;
    spec.io_size = 4096;
    spec.conns = 8;
    spec.client_threads = 4;
    spec.namespace = (0, 512 << 20);
    if theta_permille > 0 {
        spec.addr_pattern = AddrPattern::Zipfian { theta_permille };
    }
    let report = run_testbed(
        tb,
        vec![spec],
        SimDuration::from_millis(200),
        SimDuration::from_millis(300),
        telemetry,
    );
    let w = report.workload("tenant");
    let hits = hit_pct(&report);
    PointOutcome::new(w.p95_read_us())
        .with_row(format!(
            "{:.3}\t{mb}\t{hits:.1}\t{:.1}\t{:.0}",
            theta_permille as f64 / 1000.0,
            w.p95_read_us(),
            w.iops / 1e3
        ))
        .with_metric("hit_pct", hits)
        .with_metric("kiops", w.iops / 1e3)
        .with_events(&report)
        .with_telemetry(report.telemetry)
}

/// Panel 2 point: the fig6c scenario (N conns × fixed per-conn 1KB read
/// rate) with the cache off or at 16MiB over a 64MiB hot namespace.
/// 100 IOPS/conn keeps the offered load under the core's 1KB ceiling up
/// to ~2.5K connections, where the LLC connection-pressure factor is
/// already inflating per-request CPU — the regime the panel is about.
fn conn_point(conns: u32, mb: u64, telemetry: bool) -> PointOutcome {
    let per_conn = 100.0f64;
    let tb = cached_testbed(71, mb, 1024, 4);
    let mut spec = WorkloadSpec::open_loop(
        "tenant",
        TenantId(1),
        TenantClass::BestEffort,
        per_conn * conns as f64,
    );
    spec.read_pct = 100;
    spec.io_size = 1024;
    spec.conns = conns;
    spec.client_threads = 16;
    spec.namespace = (0, 64 << 20);
    spec.addr_pattern = AddrPattern::Zipfian {
        theta_permille: 990,
    };
    let report = run_testbed(
        tb,
        vec![spec],
        SimDuration::from_millis(100),
        SimDuration::from_millis(200),
        telemetry,
    );
    let w = report.workload("tenant");
    let hits = hit_pct(&report);
    PointOutcome::new(w.p95_read_us())
        .with_row(format!(
            "{conns}\t{mb}\t{hits:.1}\t{:.1}\t{:.0}",
            w.p95_read_us(),
            w.iops / 1e3
        ))
        .with_metric("hit_pct", hits)
        .with_metric("kiops", w.iops / 1e3)
        .with_events(&report)
        .with_telemetry(report.telemetry)
}

pub fn build(sweep: &mut Sweep, smoke: bool) {
    // Panel 1's skews (θ‰, 0 = uniform) and cache sizes (MiB, 0 = off),
    // panel 2's connection counts.
    let (thetas, sizes, conn_counts): (&[u16], &[u64], &[u32]) = if smoke {
        (&[0, 990], &[0, 16], &[100, 2_500])
    } else {
        (&[0, 900, 990], &[0, 4, 16, 64], &[10, 100, 500, 1_000, 2_500])
    };
    sweep.text(format!(
        "# DRAM cache tier: hit rate vs read tail (panel 1) and connection pressure (panel 2){}\n\
         # panel 1: one core, 4KB read-only open loop at 120 kIOPS over 512MiB\n\
         theta\tcache_mb\thit_pct\tp95_read_us\tachieved_kiops\n",
        if smoke { " (smoke)" } else { "" }
    ));
    let telemetry = sweep.telemetry;
    for &theta in thetas {
        let curve = sweep.curve(format!("tail_theta{theta}"));
        for &mb in sizes {
            curve.point(move || tail_point(theta, mb, telemetry));
        }
        sweep.text("\n");
    }
    sweep.text(
        "# panel 2: fig6c composed — 100 IOPS/conn 1KB reads, zipf .990 over 64MiB\n\
         conns\tcache_mb\thit_pct\tp95_read_us\tachieved_kiops\n",
    );
    for cached in [false, true] {
        let curve = sweep.curve(if cached {
            "conns_cache16mb"
        } else {
            "conns_cache_off"
        });
        for &conns in conn_counts {
            let mb = if cached { 16 } else { 0 };
            curve.point(move || conn_point(conns, mb, telemetry));
        }
        sweep.text("\n");
    }
}
