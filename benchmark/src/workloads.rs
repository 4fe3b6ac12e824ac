//! The four workloads, as plain data. Nothing here names a type of the
//! simulator: [`crate::sut`] turns a [`Scenario`] into a testbed, so the
//! simulator only ever sees generated inputs, never a workload name.
//!
//! All generators are open loop at the stated rate. The simulated windows
//! are sized so one repetition costs one to two and a half seconds of host
//! time on the 2-core reference container; a run repeats it until the
//! `--seconds` budget is spent and reports medians.

/// A latency-critical reservation.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    pub iops: u64,
    pub read_pct: u8,
    pub p95_us: u64,
}

/// `count` identical tenants; tenant `i` of the scenario sits on client
/// machine `i % client_machines`.
#[derive(Debug, Clone, Copy)]
pub struct TenantGroup {
    pub count: u32,
    /// `Some` makes the tenants latency-critical, `None` best-effort.
    pub slo: Option<Slo>,
    /// Offered IOPS per tenant.
    pub offered_iops: f64,
    pub read_pct: u8,
    pub conns: u32,
    pub client_threads: u32,
}

/// Zipfian addressing over a hot namespace.
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    pub theta_permille: u16,
    pub namespace_bytes: u64,
}

/// Per-thread DRAM cache geometry.
#[derive(Debug, Clone, Copy)]
pub struct Cache {
    pub capacity_bytes: u64,
    pub line_bytes: u32,
}

/// An invariant the measured window must satisfy (not golden bytes: the
/// model may be re-baselined inside the `sim_*` bounds without editing
/// the benchmark).
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Achieved ≥ `min_share` of offered and worst p95 below `p95_us`.
    Keeps { min_share: f64, p95_us: f64 },
    /// Achieved within `tolerance` of `kiops` (the saturation plateau).
    Saturates { kiops: f64, tolerance: f64 },
    /// Every LC tenant meets its SLO at ≥ `min_share` of its reservation
    /// and token spend stays ≤ `cap_slack` × the device's cap at that SLO.
    SloHeld { min_share: f64, cap_slack: f64 },
    /// Cache hit ratio inside `[lo, hi]`.
    HitRatio { lo: f64, hi: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    pub name: &'static str,
    /// One line: why this workload is in the benchmark.
    pub why: &'static str,
    pub server_threads: u32,
    pub client_machines: usize,
    pub forty_gbe: bool,
    pub io_size: u32,
    pub cache: Option<Cache>,
    pub zipf: Option<Zipf>,
    pub groups: &'static [TenantGroup],
    pub warm_ms: u64,
    pub measure_ms: u64,
    pub check: Check,
}

impl Scenario {
    pub fn tenants(&self) -> u32 {
        self.groups.iter().map(|g| g.count).sum()
    }

    pub fn offered_iops(&self) -> f64 {
        self.groups
            .iter()
            .map(|g| g.offered_iops * f64::from(g.count))
            .sum()
    }

    /// The same scenario over other simulated windows (tests use 20 ms).
    pub fn with_windows(mut self, warm_ms: u64, measure_ms: u64) -> Scenario {
        self.warm_ms = warm_ms;
        self.measure_ms = measure_ms;
        self
    }
}

/// fig4's ReFlex-1T testbed: 4 best-effort tenants × 48 connections, one
/// per IX client machine, 1KB reads.
const fn rd1k_groups(total_iops: f64) -> [TenantGroup; 1] {
    [TenantGroup {
        count: 4,
        slo: None,
        offered_iops: total_iops / 4.0,
        read_pct: 100,
        conns: 48,
        client_threads: 8,
    }]
}

const RD1K_KNEE: [TenantGroup; 1] = rd1k_groups(810_000.0);
const RD1K_OVERLOAD: [TenantGroup; 1] = rd1k_groups(900_000.0);

const TENANTS_RW: [TenantGroup; 2] = [
    TenantGroup {
        count: 40,
        slo: Some(Slo {
            iops: 2_000,
            read_pct: 80,
            p95_us: 1_000,
        }),
        offered_iops: 2_000.0,
        read_pct: 80,
        conns: 1,
        client_threads: 1,
    },
    TenantGroup {
        count: 160,
        slo: None,
        offered_iops: 500.0,
        read_pct: 50,
        conns: 1,
        client_threads: 1,
    },
];

const CACHE_ZIPF: [TenantGroup; 1] = [TenantGroup {
    count: 1,
    slo: None,
    offered_iops: 250_000.0,
    read_pct: 100,
    conns: 2_500,
    client_threads: 16,
}];

pub const ALL: [Scenario; 4] = [
    Scenario {
        name: "rd1k_knee",
        why: "fig4 ReFlex-1T at 0.9x the knee: engine dispatch, fabric and dataplane rx/tx do the work; QoS and cache changes must not move it",
        server_threads: 1,
        client_machines: 4,
        forty_gbe: true,
        io_size: 1024,
        cache: None,
        zipf: None,
        groups: &RD1K_KNEE,
        warm_ms: 100,
        measure_ms: 1_000,
        check: Check::Keeps {
            min_share: 0.99,
            p95_us: 500.0,
        },
    },
    Scenario {
        name: "rd1k_overload",
        why: "same testbed past saturation, where fig4's wall goes: host ns/event grows with the backlog, so it stresses whatever is O(backlog)",
        server_threads: 1,
        client_machines: 4,
        forty_gbe: true,
        io_size: 1024,
        cache: None,
        zipf: None,
        groups: &RD1K_OVERLOAD,
        warm_ms: 100,
        measure_ms: 150,
        check: Check::Saturates {
            kiops: 821.0,
            tolerance: 0.03,
        },
    },
    Scenario {
        name: "tenants_rw",
        why: "200 tenants on 2 threads with writes and GC at the device token cap: the scheduler round dominates; a read-path gain that costs writes shows here",
        server_threads: 2,
        client_machines: 2,
        forty_gbe: false,
        io_size: 4096,
        cache: None,
        zipf: None,
        groups: &TENANTS_RW,
        warm_ms: 100,
        measure_ms: 800,
        check: Check::SloHeld {
            min_share: 0.99,
            cap_slack: 1.01,
        },
    },
    Scenario {
        name: "cache_zipf",
        why: "fig_cache panel 2: ~80% of Zipf reads hit the DRAM cache and bypass flash under 2500-connection pressure; only cache changes move it",
        server_threads: 1,
        client_machines: 4,
        forty_gbe: true,
        io_size: 1024,
        cache: Some(Cache {
            capacity_bytes: 16 << 20,
            line_bytes: 1024,
        }),
        zipf: Some(Zipf {
            theta_permille: 990,
            namespace_bytes: 64 << 20,
        }),
        groups: &CACHE_ZIPF,
        warm_ms: 100,
        measure_ms: 4_000,
        check: Check::HitRatio { lo: 0.6, hi: 0.9 },
    },
];

pub fn find(name: &str) -> Option<&'static Scenario> {
    ALL.iter().find(|s| s.name == name)
}
