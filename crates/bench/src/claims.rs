//! The claims table: every figure's gate.
//!
//! One row per quantitative claim of the paper's evaluation (§5) that a
//! figure reproduces, and the few the extension figures make, names the
//! sweep it reads, a [`Sel`]ector over the finished [`SweepResult`], what
//! the paper says ([`Paper`]) and a [`Status`]: the row holds, or it is a
//! known deviation with its reason. A tolerance follows how precisely the
//! paper states its number ([`PRINTED`], [`APPROX`]). Beside the table sit
//! checks that need no paper, on every point of every figure: no p95 of
//! zero, no more achieved than offered, a p95 that does not fall along a
//! load sweep, and enough reads behind a device point's p95.
//!
//! Whenever a figure runs, the driver judges it ([`judge`]) and exits 1 if
//! a row that holds leaves its tolerance, a known deviation comes inside
//! its tolerance (it is fixed: delete the deviation), a selector finds no
//! value or a sanity check breaks. `--all` writes every verdict as
//! `CLAIMS.md` ([`markdown`]); EXPERIMENTS.md holds that file between two
//! marker comments, and CI diffs the two.

use std::fmt::Write as _;

use crate::figures::fig3_cost_model;
use crate::sweep::{CurveResult, PointOutcome, SweepResult};
use reflex_qos::{max_iops_at_latency, SweepPoint};

use Paper::{AtLeast, Below, Near};
use Sel::{Cell, Crossing, Knee, Ratio, ReadOnlyCost, Slope, Unrecovered, WriteCost, R};
use Status::{Holds, KnownDeviation};

/// Tolerance of a number the paper prints in a table or its text.
pub const PRINTED: f64 = 0.10;

/// Tolerance of a number the paper writes with "~" or as a range, or that
/// is read off one of its plots: [`PRINTED`] plus the reading error.
pub const APPROX: f64 = 0.15;

/// What a row reads off a finished sweep. Curves are named by label.
#[derive(Debug)]
pub enum Sel {
    /// Metric `.2` of point `.1` of curve `.0`; `"p95_us"` is the point's p95.
    Cell(&'static str, usize, &'static str),
    /// Metric `.1` of curve `.0`'s knee: its first point achieving under
    /// 0.99 of what it was offered.
    Knee(&'static str, &'static str),
    /// Load metric `.1` of curve `.0` where its p95 crosses 1 ms,
    /// interpolated by `reflex_qos::max_iops_at_latency`.
    Crossing(&'static str, &'static str),
    /// fig3's fitted write cost of device `.0` (the fit its TSV prints).
    WriteCost(&'static str),
    /// fig3's fitted read-only read cost of device `.0`.
    ReadOnlyCost(&'static str),
    /// The first value over the second.
    Ratio(&'static Sel, &'static Sel),
    /// The least-squares slope of metric `.2` over metric `.1` along curve `.0`.
    Slope(&'static str, &'static str, &'static str),
    /// Pearson's r of the same points.
    R(&'static str, &'static str, &'static str),
    /// The injected faults left unrecovered, as `SweepResult::faults` sums them.
    Unrecovered,
}

/// What the paper says.
#[derive(Debug)]
pub enum Paper {
    /// Its value, and the relative tolerance its precision allows.
    Near(f64, f64),
    /// Below this bound: an SLO, a "< 4 %".
    Below(f64),
    /// At least this.
    AtLeast(f64),
}

/// Whether the model reproduces a row.
#[derive(Debug)]
pub enum Status {
    /// It must stay inside its tolerance.
    Holds,
    /// It is outside its tolerance, for this reason, and must stay there
    /// until the reason is fixed and the row becomes [`Holds`].
    KnownDeviation(&'static str),
}

/// One claim.
#[derive(Debug)]
pub struct Claim {
    /// Unique and stable: `<sweep>/<name>`, the sweep being the one it
    /// reads, a figure's name (`_smoke` appended for its smoke grid).
    pub id: &'static str,
    /// What is measured, in the paper's terms.
    pub what: &'static str,
    /// Where the value comes from.
    pub sel: Sel,
    /// What the paper says.
    pub paper: Paper,
    /// Whether the model reproduces it.
    pub status: Status,
}

/// A row, its fields in order.
const fn claim(
    id: &'static str,
    what: &'static str,
    sel: Sel,
    paper: Paper,
    status: Status,
) -> Claim {
    Claim {
        id,
        what,
        sel,
        paper,
        status,
    }
}

impl Claim {
    /// The sweep the row reads.
    fn sweep(&self) -> &str {
        self.id.split_once('/').map_or(self.id, |(sweep, _)| sweep)
    }
}

const FIG1_MIXED: &str = "At 50 % reads the simulated device's write buffer absorbs \
    the writes until it fills, and the read tail then cliffs at a lower load than the \
    paper's device shows.";
const FIG3_FIT: &str = "The fit is a line through each read ratio's 1 ms crossing. With \
    1-5 % writes a read waits behind a program on its channel and crosses early; at \
    50-75 % the write buffer hides writes until a cliff. The write-heavy knees sit \
    further right, so the slope comes out under the configured program + GC occupancy.";
const LIBAIO: &str = "The paper's libaio rows carry interrupt-coalescing and fsync-like \
    write penalties between two interrupt-driven endpoints that the baseline model does \
    not have; it lands low, which understates ReFlex's advantage.";
const NEW: &str = "Surfaced when this table replaced the hand-kept one; not yet diagnosed.";
const CAPACITY: &str = "Device A's built-in capacity table is calibrated to the \
    simulated device, below the paper's device, and every QoS figure is relative to it \
    (ROADMAP 1(c) re-derives it).";
const FIG6B: &str = "Same mechanism (tenant management saturates the core), but the \
    model's per-tenant iteration is cheaper, so the knee falls later.";
const FIG7A_LOCAL: &str = "The local kernel path is the `Backend` side model (ROADMAP \
    item 4), which reaches device A's read bandwidth; the paper's stopped short of it.";
const FIG7C_SYNC: &str = "The db_bench model issues strictly synchronous per-thread \
    reads, so all remote latency lands on the critical path; the paper's numbers imply \
    client-side overlap (readahead, internal parallelism) a trace-level model lacks.";

/// The claims, grouped by figure in `--all`'s order.
#[rustfmt::skip]
pub static CLAIMS: &[Claim] = &[
    claim("fig1_interference/knee.read100", "100 % reads: IOPS at p95 = 1 ms", Crossing("100%rd", "iops"), Near(1e6, APPROX), Holds),
    claim("fig1_interference/knee.read50", "50 % reads: IOPS at p95 = 1 ms", Crossing("50%rd", "iops"), Near(200e3, APPROX), KnownDeviation(FIG1_MIXED)),
    claim("fig3_cost_model/write.a", "device A: fitted C(write), tokens", WriteCost("device-a"), Near(10.0, PRINTED), KnownDeviation(FIG3_FIT)),
    claim("fig3_cost_model/write.b", "device B: fitted C(write), tokens", WriteCost("device-b"), Near(20.0, PRINTED), KnownDeviation(FIG3_FIT)),
    claim("fig3_cost_model/write.c", "device C: fitted C(write), tokens", WriteCost("device-c"), Near(16.0, PRINTED), KnownDeviation(FIG3_FIT)),
    claim("fig3_cost_model/read_only.a", "device A: fitted C(read, 100 %), tokens", ReadOnlyCost("device-a"), Near(0.5, PRINTED), Holds),
    claim("tab2_unloaded_latency/local.read", "Local (SPDK): read avg, µs", Cell("Local (SPDK)", 0, "read_avg_us"), Near(78.0, PRINTED), Holds),
    claim("tab2_unloaded_latency/local.write", "Local (SPDK): write avg, µs", Cell("Local (SPDK)", 0, "write_avg_us"), Near(11.0, PRINTED), KnownDeviation(NEW)),
    claim("tab2_unloaded_latency/iscsi.read", "iSCSI: read avg, µs", Cell("iSCSI", 0, "read_avg_us"), Near(211.0, PRINTED), Holds),
    claim("tab2_unloaded_latency/iscsi.write", "iSCSI: write avg, µs", Cell("iSCSI", 0, "write_avg_us"), Near(155.0, PRINTED), Holds),
    claim("tab2_unloaded_latency/libaio_linux.read", "libaio, Linux client: read avg, µs", Cell("Libaio (Linux)", 0, "read_avg_us"), Near(183.0, PRINTED), KnownDeviation(LIBAIO)),
    claim("tab2_unloaded_latency/libaio_linux.write", "libaio, Linux client: write avg, µs", Cell("Libaio (Linux)", 0, "write_avg_us"), Near(180.0, PRINTED), KnownDeviation(LIBAIO)),
    claim("tab2_unloaded_latency/libaio_ix.read", "libaio, IX client: read avg, µs", Cell("Libaio (IX)", 0, "read_avg_us"), Near(121.0, PRINTED), KnownDeviation(NEW)),
    claim("tab2_unloaded_latency/libaio_ix.write", "libaio, IX client: write avg, µs", Cell("Libaio (IX)", 0, "write_avg_us"), Near(117.0, PRINTED), KnownDeviation(LIBAIO)),
    claim("tab2_unloaded_latency/reflex_linux.read", "ReFlex, Linux client: read avg, µs", Cell("ReFlex (Linux)", 0, "read_avg_us"), Near(117.0, PRINTED), Holds),
    claim("tab2_unloaded_latency/reflex_linux.write", "ReFlex, Linux client: write avg, µs", Cell("ReFlex (Linux)", 0, "write_avg_us"), Near(58.0, PRINTED), KnownDeviation(NEW)),
    claim("tab2_unloaded_latency/reflex_ix.read", "ReFlex, IX client: read avg, µs", Cell("ReFlex (IX)", 0, "read_avg_us"), Near(99.0, PRINTED), Holds),
    claim("tab2_unloaded_latency/reflex_ix.write", "ReFlex, IX client: write avg, µs", Cell("ReFlex (IX)", 0, "write_avg_us"), Near(31.0, PRINTED), KnownDeviation(NEW)),
    claim("fig4_throughput/local_1t", "Local, 1 thread: peak 1KB-read IOPS", Cell("Local-1T", 5, "achieved_iops"), Near(870e3, PRINTED), Holds),
    claim("fig4_throughput/reflex_1t", "ReFlex, 1 core: peak 1KB-read IOPS", Cell("ReFlex-1T", 5, "achieved_iops"), Near(850e3, PRINTED), Holds),
    claim("fig4_throughput/reflex_2t", "ReFlex, 2 cores: peak 1KB-read IOPS (device limit)", Cell("ReFlex-2T", 4, "achieved_iops"), Near(1e6, APPROX), Holds),
    claim("fig4_throughput/libaio_1t", "libaio, 1 core: peak 1KB-read IOPS", Cell("Libaio-1T", 4, "achieved_iops"), Near(75e3, PRINTED), Holds),
    claim("fig4_throughput/libaio_2t", "libaio, 2 cores: peak 1KB-read IOPS", Cell("Libaio-2T", 4, "achieved_iops"), Near(150e3, APPROX), Holds),
    claim("fig5_qos/s1.off.a_p95", "S1, scheduler off: A's p95 misses its 500 µs SLO", Cell("s1/nosched", 0, "A_p95_us"), AtLeast(500.0), Holds),
    claim("fig5_qos/s1.admitted", "S1, scheduler on: tenants admitted (A, B, C, D)", Cell("s1/sched", 0, "admitted"), AtLeast(4.0), Holds),
    claim("fig5_qos/s1.a_p95", "S1, scheduler on: A's p95, µs", Cell("s1/sched", 0, "A_p95_us"), Below(500.0), Holds),
    claim("fig5_qos/s1.b_p95", "S1, scheduler on: B's p95, µs", Cell("s1/sched", 0, "B_p95_us"), Below(500.0), Holds),
    claim("fig5_qos/s1.a_iops", "S1, scheduler on: A's kIOPS", Cell("s1/sched", 0, "A_kiops"), Near(120.0, PRINTED), Holds),
    claim("fig5_qos/s1.b_iops", "S1, scheduler on: B's kIOPS", Cell("s1/sched", 0, "B_kiops"), Near(70.0, PRINTED), Holds),
    claim("fig5_qos/s2.admitted", "S2, scheduler on: tenants admitted (A, B, C, D)", Cell("s2/sched", 0, "admitted"), AtLeast(4.0), Holds),
    claim("fig5_qos/s2.a_p95", "S2, scheduler on: A's p95, µs", Cell("s2/sched", 0, "A_p95_us"), Below(500.0), Holds),
    claim("fig5_qos/s2.b_p95", "S2, scheduler on: B's p95, µs", Cell("s2/sched", 0, "B_p95_us"), Below(500.0), Holds),
    claim("fig5_qos/s2.c_iops", "S2, scheduler on: BE tenant C's kIOPS", Cell("s2/sched", 0, "C_kiops"), Near(36.0, APPROX), KnownDeviation(CAPACITY)),
    claim("fig5_qos/s2.d_iops", "S2, scheduler on: BE tenant D's kIOPS", Cell("s2/sched", 0, "D_kiops"), Near(7.0, APPROX), KnownDeviation(CAPACITY)),
    claim("fig6a_core_scaling/lc_slope", "LC kIOPS added per core", Slope("core_scaling", "cores", "lc_kiops"), Near(20.0, PRINTED), Holds),
    claim("fig6a_core_scaling/lc_linear", "LC kIOPS linear in cores: r", R("core_scaling", "cores", "lc_kiops"), AtLeast(0.99), Holds),
    claim("fig6a_core_scaling/lc_p95", "12 cores: worst LC p95, µs (2 ms SLO)", Cell("core_scaling", 12, "p95_us"), Below(2_000.0), Holds),
    claim("fig6a_core_scaling/admitted", "12 cores: tenants admitted (12 LC, 2 BE)", Cell("core_scaling", 12, "admitted"), AtLeast(14.0), Holds),
    claim("fig6a_core_scaling/tokens", "12 cores: token usage, K tokens/s", Cell("core_scaling", 12, "token_usage_ktokens_s"), Near(570.0, PRINTED), KnownDeviation(CAPACITY)),
    claim("fig6b_tenant_scaling/knee.1core", "1 core: tenants at the knee", Knee("1cores", "tenants"), Near(2_500.0, PRINTED), KnownDeviation(FIG6B)),
    claim("fig6c_conn_scaling/linear.100", "100 IOPS/conn: kIOPS at 5,000 connections", Cell("100iops_per_conn", 8, "achieved_kiops"), Near(500.0, PRINTED), Holds),
    claim("fig6c_conn_scaling/peak.1000", "1,000 IOPS/conn: kIOPS at 850 connections", Cell("1000iops_per_conn", 5, "achieved_kiops"), Near(780.0, PRINTED), Holds),
    claim("fig6c_conn_scaling/knee.1000", "1,000 IOPS/conn: connections at the knee", Knee("1000iops_per_conn", "conns"), Near(850.0, PRINTED), Holds),
    claim("fig7a_fio/local", "local, 5 threads: MB/s", Cell("local", 5, "mb_per_sec"), Near(2_900.0, APPROX), KnownDeviation(FIG7A_LOCAL)),
    claim("fig7a_fio/reflex", "ReFlex, 6 threads: MB/s (10GbE saturated)", Cell("reflex", 6, "mb_per_sec"), Near(1_200.0, APPROX), Holds),
    claim("fig7a_fio/reflex_over_iscsi", "6 threads: ReFlex MB/s over iSCSI's", Ratio(&Cell("reflex", 6, "mb_per_sec"), &Cell("iscsi", 6, "mb_per_sec")), Near(4.0, APPROX), Holds),
    claim("fig7b_flashx/wcc.reflex", "WCC: ReFlex slowdown", Cell("WCC", 0, "reflex_slowdown"), Below(1.02), Holds),
    claim("fig7b_flashx/pr.reflex", "PR: ReFlex slowdown", Cell("PR", 0, "reflex_slowdown"), Below(1.03), Holds),
    claim("fig7b_flashx/bfs.reflex", "BFS: ReFlex slowdown", Cell("BFS", 0, "reflex_slowdown"), Below(1.039), Holds),
    claim("fig7b_flashx/scc.reflex", "SCC: ReFlex slowdown", Cell("SCC", 0, "reflex_slowdown"), Below(1.04), Holds),
    claim("fig7b_flashx/wcc.iscsi", "WCC: iSCSI slowdown", Cell("WCC", 0, "iscsi_slowdown"), Near(1.2, APPROX), Holds),
    claim("fig7b_flashx/pr.iscsi", "PR: iSCSI slowdown", Cell("PR", 0, "iscsi_slowdown"), Near(1.15, PRINTED), Holds),
    claim("fig7b_flashx/bfs.iscsi", "BFS: iSCSI slowdown", Cell("BFS", 0, "iscsi_slowdown"), Near(1.4, APPROX), Holds),
    claim("fig7b_flashx/scc.iscsi", "SCC: iSCSI slowdown", Cell("SCC", 0, "iscsi_slowdown"), Near(1.4, APPROX), Holds),
    claim("fig7c_rocksdb/bl.reflex", "bulkload: ReFlex slowdown", Cell("BL", 0, "reflex_slowdown"), Below(1.01), Holds),
    claim("fig7c_rocksdb/bl.iscsi", "bulkload: iSCSI slowdown", Cell("BL", 0, "iscsi_slowdown"), Below(1.01), Holds),
    claim("fig7c_rocksdb/rr.reflex", "randomread: ReFlex slowdown", Cell("RR", 0, "reflex_slowdown"), Below(1.04), KnownDeviation(FIG7C_SYNC)),
    claim("fig7c_rocksdb/rww.reflex", "readwhilewriting: ReFlex slowdown", Cell("RwW", 0, "reflex_slowdown"), Below(1.04), KnownDeviation(FIG7C_SYNC)),
    claim("fig7c_rocksdb/rr.iscsi", "randomread: iSCSI slowdown", Cell("RR", 0, "iscsi_slowdown"), Near(1.32, PRINTED), KnownDeviation(FIG7C_SYNC)),
    claim("fig7c_rocksdb/rww.iscsi", "readwhilewriting: iSCSI slowdown", Cell("RwW", 0, "iscsi_slowdown"), Near(1.27, PRINTED), KnownDeviation(FIG7C_SYNC)),
    claim("ext_features/udp.latency", "UDP: unloaded read latency over TCP's (§4.1: improves)", Ratio(&Cell("unloaded_read_us", 1, "value"), &Cell("unloaded_read_us", 0, "value")), Below(1.0), Holds),
    claim("ext_features/udp.iops", "TCP: one-core 1KB IOPS over UDP's (§4.1: UDP improves)", Ratio(&Cell("one_core_1kb_iops", 0, "value"), &Cell("one_core_1kb_iops", 1, "value")), Below(1.0), Holds),
    claim("ext_features/shards", "one tenant's IOPS, 1 shard over 2 (§4.1 cap removed)", Ratio(&Cell("one_tenant_iops", 0, "value"), &Cell("one_tenant_iops", 1, "value")), Below(1.0), Holds),
    claim("fig_cache/hits.990_16mb", "θ .990, 16MiB cache: hit %", Cell("tail_theta990", 2, "hit_pct"), AtLeast(50.0), Holds),
    claim("fig_cache/tail.990_16mb", "θ .990: read p95, 16MiB cache over none", Ratio(&Cell("tail_theta990", 2, "p95_us"), &Cell("tail_theta990", 0, "p95_us")), Below(1.0), Holds),
    claim("fig_cache/hits.990_64mb", "θ .990, 64MiB cache: hit %", Cell("tail_theta990", 3, "hit_pct"), AtLeast(50.0), Holds),
    claim("fig_cache/tail.990_64mb", "θ .990: read p95, 64MiB cache over none", Ratio(&Cell("tail_theta990", 3, "p95_us"), &Cell("tail_theta990", 0, "p95_us")), Below(1.0), Holds),
    claim("fig_cache/hits.900_64mb", "θ .900, 64MiB cache: hit %", Cell("tail_theta900", 3, "hit_pct"), AtLeast(50.0), Holds),
    claim("fig_cache/tail.900_64mb", "θ .900: read p95, 64MiB cache over none", Ratio(&Cell("tail_theta900", 3, "p95_us"), &Cell("tail_theta900", 0, "p95_us")), Below(1.0), Holds),
    claim("fig_cache/conns", "2,500 connections: read p95, 16MiB cache over none", Ratio(&Cell("conns_cache16mb", 4, "p95_us"), &Cell("conns_cache_off", 4, "p95_us")), Below(1.0), Holds),
    claim("fig_cache_smoke/hits.990_16mb", "θ .990, 16MiB cache: hit %", Cell("tail_theta990", 1, "hit_pct"), AtLeast(50.0), Holds),
    claim("fig_cache_smoke/tail.990_16mb", "θ .990: read p95, 16MiB cache over none", Ratio(&Cell("tail_theta990", 1, "p95_us"), &Cell("tail_theta990", 0, "p95_us")), Below(1.0), Holds),
    claim("fig_cache_smoke/conns", "2,500 connections: read p95, 16MiB cache over none", Ratio(&Cell("conns_cache16mb", 1, "p95_us"), &Cell("conns_cache_off", 1, "p95_us")), Below(1.0), Holds),
    claim("chaos_smoke/unrecovered", "injected faults left unrecovered", Unrecovered, Below(1.0), Holds),
];

/// The curves along which offered load rises, by figure (empty: every
/// curve). fig6a is not one: its token usage is pinned at capacity, so
/// the device's load does not rise with its cores.
const LOAD_SWEEPS: &[(&str, &[&str])] = &[
    ("fig1_interference", &[]),
    ("fig3_cost_model", &[]),
    ("fig4_throughput", &[]),
    ("fig6c_conn_scaling", &[]),
    ("fig7a_fio", &[]),
    ("latency_breakdown", &[]),
    ("fig_cache", &["conns_cache_off"]),
];

/// How far a load sweep's p95 may fall from one point to the next: a bucket
/// or two (1/32 of an octave each). At the table's start no named sweep
/// dipped; only other knobs' sweeps did (ablations', fig_cache's cached).
const DIP: f64 = 0.05;

/// How far achieved may pass offered: open-loop arrivals are random, and
/// the highest ratio measured is 1.0024 (fig4 `Libaio-1T` at 17K).
const OVERSHOOT: f64 = 1.01;

/// The fewest reads a point's p95 may rest on, where it reports them:
/// below 100, fewer than five reads lie above the p95.
const MIN_READS: f64 = 100.0;

/// Where a `Crossing` reads its curve, µs.
const CROSSING_US: f64 = 1_000.0;

/// A point's metric; `"p95_us"` is its p95.
fn value(p: &PointOutcome, metric: &str) -> Option<f64> {
    if metric == "p95_us" {
        p.p95_us
    } else {
        p.metric(metric)
    }
}

/// A point's offered and achieved load, where it reports both.
fn load(p: &PointOutcome) -> Option<(f64, f64)> {
    [
        ("offered_iops", "achieved_iops"),
        ("offered_kiops", "achieved_kiops"),
    ]
    .iter()
    .find_map(|&(offered, achieved)| Some((p.metric(offered)?, p.metric(achieved)?)))
}

/// The load (metric `x`) at which `curve`'s p95 crosses 1 ms, interpolated
/// by [`max_iops_at_latency`] over the points that report a p95.
pub(crate) fn crossing(curve: &CurveResult, x: &str) -> Option<f64> {
    let sweep: Vec<SweepPoint> = (curve.points.iter())
        .filter_map(|p| {
            Some(SweepPoint {
                iops: p.metric(x)?,
                p95_read_us: p.p95_us?,
            })
        })
        .collect();
    max_iops_at_latency(&sweep, CROSSING_US)
}

/// The least-squares slope of `y` over `x` along `curve`, and Pearson's r.
fn line(curve: &CurveResult, x: &str, y: &str) -> Option<(f64, f64)> {
    let xy: Vec<(f64, f64)> = (curve.points.iter())
        .filter_map(|p| Some((p.metric(x)?, p.metric(y)?)))
        .collect();
    let n = xy.len() as f64;
    let (mx, my) = xy
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x / n, b + y / n));
    let (mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0);
    for (x, y) in &xy {
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
        sxy += (x - mx) * (y - my);
    }
    Some((sxy / sxx, sxy / (sxx * syy).sqrt()))
}

impl Sel {
    /// The value, if the sweep has one here: a finite number.
    fn eval(&self, result: &SweepResult) -> Option<f64> {
        let v = match *self {
            Cell(c, i, m) => value(result.find(c)?.points.get(i)?, m),
            Knee(c, x) => (result.find(c)?.points.iter())
                .find(|p| load(p).is_some_and(|(offered, achieved)| achieved < 0.99 * offered))?
                .metric(x),
            Crossing(c, x) => crossing(result.find(c)?, x),
            WriteCost(d) => fig3_cost_model::fit(result, d).ok().map(|f| f.write_cost),
            ReadOnlyCost(d) => fig3_cost_model::fit(result, d)
                .ok()
                .map(|f| f.read_only_cost),
            Ratio(a, b) => Some(a.eval(result)? / b.eval(result)?),
            Slope(c, x, y) => line(result.find(c)?, x, y).map(|(slope, _)| slope),
            R(c, x, y) => line(result.find(c)?, x, y).map(|(_, r)| r),
            Unrecovered => result.faults().map(|f| f.unrecovered as f64),
        };
        v.filter(|v| v.is_finite())
    }
}

impl Paper {
    /// Whether `v` is what the paper says, within tolerance.
    fn admits(&self, v: f64) -> bool {
        match *self {
            Near(paper, tolerance) => (v - paper).abs() <= tolerance * paper.abs(),
            Below(bound) => v < bound,
            AtLeast(bound) => v >= bound,
        }
    }

    /// `v`'s signed error relative to the paper's value, if it gives one.
    fn error(&self, v: f64) -> Option<f64> {
        match *self {
            Near(paper, _) => Some((v - paper) / paper),
            _ => None,
        }
    }

    fn show(&self) -> String {
        match *self {
            Near(paper, tolerance) => format!("{} ±{:.0} %", num(paper), tolerance * 100.0),
            Below(bound) => format!("< {}", num(bound)),
            AtLeast(bound) => format!("≥ {}", num(bound)),
        }
    }
}

/// Four significant digits, or thousands as `K` from 100,000 up.
fn num(v: f64) -> String {
    if v.abs() >= 1e5 {
        return format!("{:.0}K", v / 1e3);
    }
    let decimals = (3 - v.abs().max(1e-3).log10().floor() as i32).max(0) as usize;
    let s = format!("{v:.decimals$}");
    match s.contains('.') {
        true => s.trim_end_matches('0').trim_end_matches('.').to_string(),
        false => s,
    }
}

/// The sanity checks that need no paper, on every point of `result`.
fn sanity(result: &SweepResult) -> Vec<String> {
    let figure = result.name.strip_suffix("_smoke").unwrap_or(&result.name);
    let swept = LOAD_SWEEPS.iter().find(|(f, _)| *f == figure);
    let mut broken = Vec::new();
    for c in &result.curves {
        let load_sweep = swept.is_some_and(|(_, cs)| cs.is_empty() || cs.contains(&&*c.label));
        let mut before: Option<f64> = None;
        for (i, p) in c.points.iter().enumerate() {
            let at = format!("{} point {i}", c.label);
            if p.p95_us == Some(0.0) {
                broken.push(format!("{at}: a p95 of 0 (no latency was measured)"));
            }
            if let Some((offered, achieved)) = load(p).filter(|(o, a)| *a > OVERSHOOT * o) {
                let (o, a) = (num(offered), num(achieved));
                broken.push(format!("{at}: achieved {a} of {o} offered"));
            }
            if let Some(reads) = p.metric("reads").filter(|&r| r < MIN_READS) {
                broken.push(format!("{at}: a p95 over {reads} reads"));
            }
            if let (true, Some(a), Some(b)) = (load_sweep, before, p.p95_us) {
                if b < (1.0 - DIP) * a {
                    broken.push(format!("{at}: p95 falls from {} to {} µs", num(a), num(b)));
                }
            }
            before = p.p95_us.or(before);
        }
    }
    broken
}

/// A figure run held to its claims.
#[derive(Debug)]
pub struct Verdict<'a> {
    /// The sweep's name.
    pub sweep: String,
    /// Its rows and what each measured.
    pub rows: Vec<(&'a Claim, Option<f64>)>,
    /// Every way the run failed: a row out of place, a value not found, a
    /// sanity check broken. Empty when the run passes.
    pub failures: Vec<String>,
}

/// Judges the finished `result` against the `claims` for its sweep and the
/// sanity checks.
pub fn judge<'a>(claims: &'a [Claim], result: &SweepResult) -> Verdict<'a> {
    let mut failures = sanity(result);
    let rows: Vec<_> = (claims.iter().filter(|c| c.sweep() == result.name))
        .map(|c| (c, c.sel.eval(result)))
        .collect();
    for &(c, v) in &rows {
        let (id, paper, shown) = (c.id, c.paper.show(), v.map(num).unwrap_or_default());
        match (v, &c.status) {
            (None, _) => failures.push(format!("{id}: its selector found no value")),
            (Some(v), Holds) if !c.paper.admits(v) => {
                failures.push(format!("{id}: {shown} left its tolerance ({paper})"));
            }
            (Some(v), KnownDeviation(_)) if c.paper.admits(v) => failures.push(format!(
                "{id}: {shown} is inside its tolerance ({paper}): the known deviation is \
                 fixed, make the row hold"
            )),
            _ => {}
        }
    }
    Verdict {
        sweep: result.name.clone(),
        rows,
        failures,
    }
}

/// The absolute relative errors of the rows with a paper value.
fn errors<'a>(verdicts: impl IntoIterator<Item = &'a Verdict<'a>>) -> Vec<f64> {
    (verdicts.into_iter().flat_map(|v| &v.rows))
        .filter_map(|(c, v)| c.paper.error((*v)?))
        .map(f64::abs)
        .collect()
}

fn mean(errors: &[f64]) -> Option<f64> {
    (!errors.is_empty()).then(|| errors.iter().sum::<f64>() / errors.len() as f64)
}

fn deviations(v: &Verdict) -> usize {
    let known = |(c, _): &&(&Claim, _)| matches!(c.status, KnownDeviation(_));
    v.rows.iter().filter(known).count()
}

impl Verdict<'_> {
    /// The mean absolute relative error of the rows with a paper value.
    pub fn mare(&self) -> Option<f64> {
        mean(&errors([self]))
    }

    /// One summary line for stderr, then one line per failure.
    pub fn report(&self) -> String {
        let (name, rows, known) = (&self.sweep, self.rows.len(), deviations(self));
        let mut out = format!("[{name}] claims: {rows} rows, {known} known deviations");
        if let Some(mare) = self.mare() {
            let _ = write!(out, ", mean abs. relative error {:.1} %", mare * 100.0);
        }
        for f in &self.failures {
            let _ = write!(out, "\n[{name}] FAILED: {f}");
        }
        out + "\n"
    }
}

/// `CLAIMS.md`: the verdicts of an `--all` run as paper-vs-measured tables.
pub fn markdown(verdicts: &[Verdict]) -> String {
    let all = errors(verdicts);
    let rows: usize = verdicts.iter().map(|v| v.rows.len()).sum();
    let known: usize = verdicts.iter().map(deviations).sum();
    let mut md = format!(
        "## Paper vs measured\n\n\
         Generated by `reflex-bench --all` from `crates/bench/src/claims.rs`;\n\
         edit that, not this. A tolerance is ±10 % for a number the paper\n\
         prints, ±15 % for one it writes with \"~\" or as a range, or that is\n\
         read off a plot. A slowdown near 1 (ReFlex's, bulkload's) is a bound:\n\
         the paper's value plus one unit of its last digit. An error is\n\
         relative to the paper's value.\n\n\
         **{rows} rows: {} hold, {known} are known deviations (⚠). Mean absolute\n\
         relative error over the {} rows with a paper value: {:.1} %.**\n\n\
         | figure | claim | paper | measured | error | |\n|---|---|---|---|---|---|\n",
        rows - known,
        all.len(),
        mean(&all).unwrap_or(f64::NAN) * 100.0
    );
    let mut reasons: Vec<&str> = Vec::new();
    for v in verdicts {
        for &(c, measured) in &v.rows {
            let status = match c.status {
                Holds => "✔".to_string(),
                KnownDeviation(why) => {
                    let n = reasons.iter().position(|r| *r == why).unwrap_or_else(|| {
                        reasons.push(why);
                        reasons.len() - 1
                    });
                    format!("⚠{}", n + 1)
                }
            };
            // Tenths of a percent, +0.0 for -0.0.
            let error = measured.and_then(|m| c.paper.error(m));
            let error = error.map(|e| (e * 1000.0).round() / 10.0 + 0.0);
            let error = error.map_or("".into(), |e| format!("{e:+.1} %"));
            let (sweep, what, paper) = (&v.sweep, c.what, c.paper.show());
            let shown = measured.map_or("none".into(), num);
            let row = format!("| `{sweep}` | {what} | {paper} | {shown} | {error} | {status} |");
            md.push_str(&row);
            md.push('\n');
        }
    }
    md.push('\n');
    for (n, why) in reasons.iter().enumerate() {
        let _ = writeln!(md, "- ⚠{}: {why}", n + 1);
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Sweep;
    use crate::FIGURES;

    /// A curve's points: each its p95 and metrics.
    type Points = Vec<(Option<f64>, Vec<(&'static str, f64)>)>;

    /// A finished sweep named `name` from `(label, points)`; the points are
    /// closures that simulate nothing.
    fn sweep(name: &str, curves: &[(&str, Points)]) -> SweepResult {
        let mut sweep = Sweep::new(name);
        for (label, points) in curves {
            let curve = sweep.curve(*label);
            for (p95, metrics) in points.clone() {
                curve.point(move || {
                    let point = PointOutcome::new(p95);
                    metrics
                        .into_iter()
                        .fold(point, |p, (m, v)| p.with_metric(m, v))
                });
            }
        }
        sweep.run_with_threads(1)
    }

    /// A load curve: offered 100, 200, … with p95 `p95s` and achieved
    /// `achieved`.
    fn load_curve(p95s: &[f64], achieved: &[f64]) -> Points {
        let points = p95s.iter().zip(achieved).enumerate();
        points
            .map(|(i, (&p95, &a))| {
                let offered = 100.0 * (i + 1) as f64;
                let metrics = vec![
                    ("offered_kiops", offered),
                    ("achieved_kiops", a),
                    ("x", i as f64),
                ];
                (Some(p95), metrics)
            })
            .collect()
    }

    fn eval(sel: &Sel, result: &SweepResult) -> Option<f64> {
        sel.eval(result)
    }

    #[test]
    fn selectors_read_synthetic_sweeps() {
        let r = sweep(
            "synthetic",
            &[
                (
                    "a",
                    load_curve(
                        &[100.0, 500.0, 1_500.0, 4_000.0],
                        &[100.0, 200.0, 250.0, 260.0],
                    ),
                ),
                ("b", load_curve(&[200.0, 300.0], &[100.0, 200.0])),
            ],
        );
        assert_eq!(eval(&Cell("a", 1, "achieved_kiops"), &r), Some(200.0));
        assert_eq!(eval(&Cell("a", 2, "p95_us"), &r), Some(1_500.0));
        assert_eq!(eval(&Cell("a", 9, "p95_us"), &r), None);
        assert_eq!(eval(&Cell("nope", 0, "p95_us"), &r), None);
        // The knee is the first point under 0.99 of its offer: 250 of 300.
        assert_eq!(eval(&Knee("a", "offered_kiops"), &r), Some(300.0));
        assert_eq!(eval(&Knee("b", "offered_kiops"), &r), None);
        // p95 = 1 ms halfway between offers 200 and 300.
        assert_eq!(eval(&Crossing("a", "offered_kiops"), &r), Some(250.0));
        assert_eq!(
            eval(&Ratio(&Cell("a", 1, "p95_us"), &Cell("b", 0, "p95_us")), &r),
            Some(2.5)
        );
        assert_eq!(
            eval(&Ratio(&Cell("a", 1, "p95_us"), &Cell("a", 9, "p95_us")), &r),
            None
        );
        assert_eq!(eval(&Slope("b", "x", "offered_kiops"), &r), Some(100.0));
        assert_eq!(eval(&R("b", "x", "offered_kiops"), &r), Some(1.0));
        let r_a = eval(&R("a", "x", "achieved_kiops"), &r).unwrap();
        assert!((0.9..1.0).contains(&r_a), "{r_a}");
        assert_eq!(eval(&R("b", "x", "missing"), &r), None);
        assert_eq!(eval(&Unrecovered, &r), None, "no point reports faults");
        let fault = |injected, unrecovered| {
            let metrics = vec![("injected", injected), ("unrecovered", unrecovered)];
            (None, metrics)
        };
        let chaos = sweep("chaos", &[("c", vec![fault(3.0, 1.0), fault(2.0, 2.0)])]);
        assert_eq!(eval(&Unrecovered, &chaos), Some(3.0));
        // No fig3 curves, no fit: no value, and no panic.
        assert_eq!(eval(&WriteCost("device-a"), &r), None);
    }

    #[test]
    fn fitted_costs_come_from_fig3s_fit() {
        // Each 4KB curve crosses 1 ms exactly at the capacity of a device
        // with C(write) = 10, C(read, 100 %) = 0.5 and 500K tokens/s.
        let curves: Vec<_> = [100u8, 99, 95, 90, 75, 50]
            .iter()
            .map(|&pct| {
                let r = f64::from(pct) / 100.0;
                let cost = if pct == 100 {
                    0.5
                } else {
                    r + (1.0 - r) * 10.0
                };
                let cap = 500e3 / cost;
                let points = [(0.5, 500.0), (1.5, 1_500.0)]
                    .map(|(f, p95)| (Some(p95), vec![("iops", f * cap)]))
                    .to_vec();
                (format!("dev/{pct}%rd(4KB)"), points)
            })
            .collect();
        let curves: Vec<(&str, _)> = curves
            .iter()
            .map(|(l, p)| (l.as_str(), p.clone()))
            .collect();
        let r = sweep("fig3_cost_model", &curves);
        let write = eval(&WriteCost("dev"), &r).unwrap();
        let read_only = eval(&ReadOnlyCost("dev"), &r).unwrap();
        assert!(
            (write - 10.0).abs() < 1e-6 && (read_only - 0.5).abs() < 1e-6,
            "{write} {read_only}"
        );
        assert_eq!(eval(&WriteCost("other"), &r), None);
    }

    static ROWS: &[Claim] = &[
        claim(
            "t/holds",
            "",
            Cell("a", 0, "p95_us"),
            Near(100.0, PRINTED),
            Holds,
        ),
        claim(
            "t/deviates",
            "",
            Cell("a", 1, "p95_us"),
            Below(100.0),
            KnownDeviation("why"),
        ),
        claim("u/other", "", Cell("none", 0, "p95_us"), Below(1.0), Holds),
    ];

    /// `ROWS` judged on a sweep `t` whose curve `a` has these p95s.
    fn judged(p95s: &[f64]) -> Verdict<'static> {
        let achieved: Vec<f64> = (1..=p95s.len()).map(|i| 100.0 * i as f64).collect();
        judge(ROWS, &sweep("t", &[("a", load_curve(p95s, &achieved))]))
    }

    #[test]
    fn a_run_that_keeps_its_claims_passes() {
        let v = judged(&[105.0, 300.0]);
        assert!(v.failures.is_empty(), "{:?}", v.failures);
        assert_eq!(v.rows.len(), 2, "only sweep t's rows");
        assert!((v.mare().unwrap() - 0.05).abs() < 1e-12);
        let md = markdown(&[v]);
        assert!(
            md.contains("| `t` |  | 100 ±10 % | 105 | +5.0 % | ✔ |"),
            "{md}"
        );
        assert!(
            md.contains("| `t` |  | < 100 | 300 |  | ⚠1 |\n\n- ⚠1: why\n"),
            "{md}"
        );
    }

    #[test]
    fn a_holding_row_out_of_tolerance_fails() {
        let v = judged(&[111.0, 300.0]);
        assert_eq!(v.failures.len(), 1);
        assert!(
            v.failures[0].starts_with("t/holds: 111 left its tolerance"),
            "{:?}",
            v.failures
        );
    }

    #[test]
    fn a_known_deviation_inside_tolerance_fails() {
        let v = judged(&[100.0, 99.0]);
        assert_eq!(v.failures.len(), 1);
        assert!(
            v.failures[0].starts_with("t/deviates: 99 is inside"),
            "{:?}",
            v.failures
        );
    }

    #[test]
    fn a_selector_without_a_value_fails() {
        let v = judged(&[100.0]);
        assert_eq!(v.failures, ["t/deviates: its selector found no value"]);
    }

    #[test]
    fn a_broken_sanity_check_fails() {
        let zero = judged(&[100.0, 300.0, 0.0]);
        assert_eq!(
            zero.failures,
            ["a point 2: a p95 of 0 (no latency was measured)"]
        );
        let overshoot = sweep("u", &[("a", load_curve(&[1.0], &[101.5]))]);
        assert_eq!(
            judge(ROWS, &overshoot).failures.len(),
            2,
            "and `other` finds no value"
        );
        assert!(judge(&[], &overshoot).failures[0].contains("achieved 101.5 of 100 offered"));
        let few = sweep("u", &[("a", vec![(Some(5.0), vec![("reads", 99.0)])])]);
        assert!(judge(&[], &few).failures[0].contains("a p95 over 99 reads"));
        // A p95 may fall by a bucket along a load sweep, not by more.
        let dips = |p95s: &[f64]| {
            let r = sweep(
                "fig4_throughput",
                &[("c", load_curve(p95s, &[100.0, 200.0, 300.0]))],
            );
            judge(&[], &r).failures
        };
        assert!(dips(&[100.0, 96.0, 300.0]).is_empty());
        assert_eq!(
            dips(&[100.0, 94.0, 300.0]),
            ["c point 1: p95 falls from 100 to 94 µs"]
        );
        let not_a_load_sweep = sweep(
            "ablations",
            &[("c", load_curve(&[100.0, 50.0], &[100.0, 200.0]))],
        );
        assert!(judge(&[], &not_a_load_sweep).failures.is_empty());
    }

    /// Every curve label a selector names.
    fn labels(sel: &Sel) -> Vec<String> {
        match *sel {
            Cell(c, ..) | Knee(c, _) | Crossing(c, _) | Slope(c, ..) | R(c, ..) => vec![c.into()],
            WriteCost(d) | ReadOnlyCost(d) => vec![format!("{d}/90%rd(4KB)")],
            Ratio(a, b) => [labels(a), labels(b)].concat(),
            Unrecovered => Vec::new(),
        }
    }

    #[test]
    fn the_table_is_well_formed() {
        let mut ids: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CLAIMS.len(), "ids are unique");
        let declared = |sweep: &str| {
            let (name, smoke) = match sweep.strip_suffix("_smoke") {
                Some(name) => (name, true),
                None => (sweep, false),
            };
            let figure = FIGURES.iter().find(|f| f.name == name);
            let figure = figure.unwrap_or_else(|| panic!("{sweep} is no figure"));
            assert!(figure.smoke || !smoke, "{name} has no smoke grid");
            // Declaring a sweep runs none of its points.
            let labels: Vec<String> = figure
                .sweep(smoke, false)
                .labels()
                .map(String::from)
                .collect();
            labels
        };
        for c in CLAIMS {
            if let KnownDeviation(why) = c.status {
                assert!(!why.trim().is_empty(), "{} has no reason", c.id);
            }
            let declared = declared(c.sweep());
            for label in labels(&c.sel) {
                assert!(
                    declared.contains(&label),
                    "{}: {} declares no curve {label}",
                    c.id,
                    c.sweep()
                );
            }
        }
        for (figure, curves) in LOAD_SWEEPS {
            let declared = declared(figure);
            for label in curves.iter() {
                assert!(
                    declared.iter().any(|d| d == label),
                    "{figure} declares no curve {label}"
                );
            }
        }
    }
}
