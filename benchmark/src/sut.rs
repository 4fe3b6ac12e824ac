//! The system under test. Every call into the repo's crates is in this
//! module (and its `probes` child), and only through the surface ROADMAP
//! item 2 keeps: `Testbed::{builder, add_workload, run, begin_measurement,
//! report, enable_telemetry}` here, the layers' hot functions in
//! [`probes`]. No `with_shards`, split mode, leased token pool, lookahead
//! policy or boxed events — a later PR may delete those without breaking
//! a benchmark it is not allowed to edit.
//!
//! Everything that leaves this module is plain data.

pub mod probes;

use reflex_core::{
    AddrPattern, CapacityProfile, ServerConfig, Testbed, TestbedReport, WorkloadSpec,
};
use reflex_dataplane::{CacheConfig, DataplaneConfig};
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::{Histogram, SimDuration};
use reflex_telemetry::Stage;

use crate::json::Json;
use crate::workloads::{Scenario, Slo};

/// Allocation calls since process start. Counts only in a binary that
/// installs [`CountingAlloc`] as its global allocator; reads 0 elsewhere.
pub fn allocations() -> u64 {
    reflex_sim::alloc_count::allocations()
}

pub use reflex_sim::alloc_count::CountingAlloc;

/// Cumulative counters of the public reports; a window is a difference
/// of two of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub engine_events: u64,
    pub rx_msgs: u64,
    pub tx_msgs: u64,
    pub sched_rounds: u64,
    pub sq_full_retries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_fills: u64,
    pub cache_evictions: u64,
    pub flash_reads: u64,
    pub flash_writes: u64,
    pub gc_erases: u64,
}

impl Counters {
    fn of(report: &TestbedReport) -> Counters {
        let mut c = Counters {
            engine_events: report.engine_events,
            flash_reads: report.device.reads,
            flash_writes: report.device.writes,
            gc_erases: report.device.gc_erases,
            ..Counters::default()
        };
        for s in report.threads.iter().filter_map(|t| t.stats) {
            c.rx_msgs += s.rx_msgs;
            c.tx_msgs += s.tx_msgs;
            c.sched_rounds += s.sched_rounds;
            c.sq_full_retries += s.sq_full_retries;
            c.cache_hits += s.cache_hits;
            c.cache_misses += s.cache_misses;
            c.cache_fills += s.cache_fills;
            c.cache_evictions += s.cache_evictions;
        }
        c
    }

    fn since(self, base: Counters) -> Counters {
        Counters {
            engine_events: self.engine_events - base.engine_events,
            rx_msgs: self.rx_msgs - base.rx_msgs,
            tx_msgs: self.tx_msgs - base.tx_msgs,
            sched_rounds: self.sched_rounds - base.sched_rounds,
            sq_full_retries: self.sq_full_retries - base.sq_full_retries,
            cache_hits: self.cache_hits - base.cache_hits,
            cache_misses: self.cache_misses - base.cache_misses,
            cache_fills: self.cache_fills - base.cache_fills,
            cache_evictions: self.cache_evictions - base.cache_evictions,
            flash_reads: self.flash_reads - base.flash_reads,
            flash_writes: self.flash_writes - base.flash_writes,
            gc_erases: self.gc_erases - base.gc_erases,
        }
    }
}

/// One latency-critical tenant's outcome against its reservation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LcOutcome {
    pub p95_read_us: f64,
    pub iops: f64,
    pub slo: (u64, u64),
}

/// Simulated p95 of the telemetry stage histograms, merged over tenants,
/// and the IO conservation counters (cumulative since telemetry was
/// enabled, i.e. warm-up included).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stages {
    pub fabric_p95_us: f64,
    pub nic_queue_p95_us: f64,
    pub dataplane_p95_us: f64,
    pub flash_sq_p95_us: f64,
    pub channel_p95_us: f64,
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub retried: u64,
    pub open_spans: u64,
}

/// What one measured window produced. Every field is simulated and must
/// repeat exactly for one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub sim_ns: u64,
    pub issued: u64,
    pub completed: u64,
    pub errors: u64,
    pub exhausted: u64,
    pub retries: u64,
    pub kiops: f64,
    /// Worst tenant's p95 read latency (LC tenants only when there are
    /// any), interpolated inside the histogram bucket.
    pub p95_read_us: f64,
    /// Completion-weighted mean read latency over all tenants.
    pub mean_read_us: f64,
    pub lc: Vec<LcOutcome>,
    pub counters: Counters,
    pub busy_frac: f64,
    pub sched_frac: f64,
    pub tokens_per_s: f64,
    /// Device token capacity at the strictest SLO in the scenario.
    pub token_cap_per_s: Option<f64>,
    pub stages: Option<Stages>,
    /// FNV-1a over the whole `TestbedReport` except its telemetry
    /// snapshot, so a traced and an untraced run of one seed must agree.
    pub digest: u64,
}

impl Window {
    pub fn hit_ratio(&self) -> f64 {
        let probes = self.counters.cache_hits + self.counters.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.counters.cache_hits as f64 / probes as f64
        }
    }

    /// The `sim_*` values and the digest — what "same simulated result"
    /// means for the identity checks.
    pub fn sim_identity(&self) -> (u64, u64, u64) {
        (
            self.digest,
            self.kiops.to_bits(),
            self.p95_read_us.to_bits(),
        )
    }

    pub fn to_json(&self) -> Json {
        let c = self.counters;
        let mut pairs: Vec<(&str, Json)> = vec![
            ("sim_ns", self.sim_ns.into()),
            ("issued", self.issued.into()),
            ("completed", self.completed.into()),
            ("errors", self.errors.into()),
            ("exhausted", self.exhausted.into()),
            ("retries", self.retries.into()),
            ("kiops", self.kiops.into()),
            ("p95_read_us", self.p95_read_us.into()),
            ("mean_read_us", self.mean_read_us.into()),
            ("busy_frac", self.busy_frac.into()),
            ("sched_frac", self.sched_frac.into()),
            ("tokens_per_s", self.tokens_per_s.into()),
            ("hit_ratio", self.hit_ratio().into()),
            ("digest", format!("{:016x}", self.digest).into()),
            ("engine_events", c.engine_events.into()),
            ("rx_msgs", c.rx_msgs.into()),
            ("tx_msgs", c.tx_msgs.into()),
            ("sched_rounds", c.sched_rounds.into()),
            ("sq_full_retries", c.sq_full_retries.into()),
            ("cache_hits", c.cache_hits.into()),
            ("cache_misses", c.cache_misses.into()),
            ("cache_fills", c.cache_fills.into()),
            ("cache_evictions", c.cache_evictions.into()),
            ("flash_reads", c.flash_reads.into()),
            ("flash_writes", c.flash_writes.into()),
            ("gc_erases", c.gc_erases.into()),
            (
                "lc",
                Json::Arr(
                    self.lc
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("p95_read_us", Json::from(t.p95_read_us)),
                                ("iops", t.iops.into()),
                                ("slo_iops", t.slo.0.into()),
                                ("slo_p95_us", t.slo.1.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(cap) = self.token_cap_per_s {
            pairs.push(("token_cap_per_s", cap.into()));
        }
        if let Some(s) = self.stages {
            pairs.push((
                "stages",
                Json::obj([
                    ("fabric_p95_us", Json::from(s.fabric_p95_us)),
                    ("nic_queue_p95_us", s.nic_queue_p95_us.into()),
                    ("dataplane_p95_us", s.dataplane_p95_us.into()),
                    ("flash_sq_p95_us", s.flash_sq_p95_us.into()),
                    ("channel_p95_us", s.channel_p95_us.into()),
                    ("submitted", s.submitted.into()),
                    ("completed", s.completed.into()),
                    ("failed", s.failed.into()),
                    ("retried", s.retried.into()),
                    ("open_spans", s.open_spans.into()),
                ]),
            ));
        }
        Json::obj(pairs)
    }
}

/// A testbed built from a [`Scenario`], with its workloads admitted.
pub struct Rig {
    tb: Testbed,
    slos: Vec<Option<Slo>>,
    token_cap_per_s: Option<f64>,
    base: Counters,
}

impl Rig {
    /// Builds the testbed and admits every tenant. `seed` feeds
    /// `TestbedBuilder::seed` and nothing else.
    ///
    /// # Panics
    ///
    /// Panics when the server refuses a tenant: the scenarios are sized to
    /// be admissible, so a refusal is a bug in the benchmark or a model
    /// change that the run must not paper over.
    pub fn build(sc: &Scenario, seed: u64, telemetry: bool) -> Rig {
        let cache = sc.cache.map(|c| {
            let mut cfg = CacheConfig::with_capacity(c.capacity_bytes);
            cfg.line_bytes = c.line_bytes;
            cfg
        });
        let mut builder = Testbed::builder()
            .seed(seed)
            .server(ServerConfig {
                threads: sc.server_threads,
                max_threads: sc.server_threads,
                dataplane: DataplaneConfig {
                    cache,
                    ..DataplaneConfig::default()
                },
                ..ServerConfig::default()
            })
            .client_machines(vec![StackProfile::ix_tcp(); sc.client_machines]);
        if sc.forty_gbe {
            builder = builder.link(LinkConfig::forty_gbe());
        }
        let mut tb = builder.build();
        if telemetry {
            tb.enable_telemetry();
        }
        let mut slos = Vec::new();
        let mut tenant = 0u32;
        for g in sc.groups {
            for _ in 0..g.count {
                let class = match g.slo {
                    Some(s) => TenantClass::LatencyCritical(SloSpec::new(
                        s.iops,
                        s.read_pct,
                        SimDuration::from_micros(s.p95_us),
                    )),
                    None => TenantClass::BestEffort,
                };
                let mut spec = WorkloadSpec::open_loop(
                    &format!("t{tenant}"),
                    TenantId(tenant + 1),
                    class,
                    g.offered_iops,
                );
                spec.read_pct = g.read_pct;
                spec.io_size = sc.io_size;
                spec.conns = g.conns;
                spec.client_threads = g.client_threads;
                spec.client_machine = tenant as usize % sc.client_machines;
                if let Some(z) = sc.zipf {
                    spec.namespace = (0, z.namespace_bytes);
                    spec.addr_pattern = AddrPattern::Zipfian {
                        theta_permille: z.theta_permille,
                    };
                }
                tb.add_workload(spec)
                    .unwrap_or_else(|e| panic!("{}: tenant {tenant} refused: {e}", sc.name));
                slos.push(g.slo);
                tenant += 1;
            }
        }
        let strictest = slos.iter().flatten().map(|s| s.p95_us).min();
        let token_cap_per_s = strictest.map(|us| {
            CapacityProfile::for_profile(&reflex_flash::device_a())
                .tokens_per_sec_at(SimDuration::from_micros(us))
        });
        Rig {
            tb,
            slos,
            token_cap_per_s,
            base: Counters::default(),
        }
    }

    /// Advances the simulation by `nanos` of simulated time.
    pub fn run(&mut self, nanos: u64) {
        self.tb.run(SimDuration::from_nanos(nanos));
    }

    /// Ends warm-up: latency histograms and counters restart here.
    pub fn begin_measurement(&mut self) {
        self.tb.begin_measurement();
        self.base = Counters::of(&self.tb.report());
    }

    /// Engine events dispatched since [`begin_measurement`]. Builds a full
    /// report, so callers keep it outside any timed region.
    ///
    /// [`begin_measurement`]: Rig::begin_measurement
    pub fn events(&self) -> u64 {
        self.tb.report().engine_events - self.base.engine_events
    }

    /// Extracts the measured window from the public report.
    pub fn window(&self) -> Window {
        let report = self.tb.report();
        let secs = report.window.as_secs_f64();
        let mut w = Window {
            sim_ns: report.window.as_nanos(),
            issued: 0,
            completed: 0,
            errors: 0,
            exhausted: 0,
            retries: 0,
            kiops: 0.0,
            p95_read_us: 0.0,
            mean_read_us: 0.0,
            lc: Vec::new(),
            counters: Counters::of(&report).since(self.base),
            busy_frac: mean(report.threads.iter().map(|t| t.busy_fraction)),
            sched_frac: mean(report.threads.iter().map(|t| t.sched_fraction)),
            tokens_per_s: report.token_usage_per_sec,
            token_cap_per_s: self.token_cap_per_s,
            stages: None,
            digest: digest(&report),
        };
        let any_lc = self.slos.iter().any(Option::is_some);
        let (mut lat_sum, mut lat_n) = (0.0, 0u64);
        for (wl, slo) in report.workloads.iter().zip(&self.slos) {
            w.issued += wl.issued;
            w.completed += (wl.iops * secs).round() as u64;
            w.errors += wl.errors;
            w.exhausted += wl.exhausted;
            w.retries += wl.retries;
            lat_sum += wl.read_latency.mean().as_micros_f64() * wl.read_latency.count() as f64;
            lat_n += wl.read_latency.count();
            let p95 = p95_interpolated_us(&wl.read_latency);
            if slo.is_some() || !any_lc {
                w.p95_read_us = w.p95_read_us.max(p95);
            }
            if let Some(s) = slo {
                w.lc.push(LcOutcome {
                    p95_read_us: p95,
                    iops: wl.iops,
                    slo: (s.iops, s.p95_us),
                });
            }
        }
        w.kiops = w.completed as f64 / secs / 1e3;
        w.mean_read_us = lat_sum / lat_n.max(1) as f64;
        if let Some(snap) = &report.telemetry {
            let p95 = |stage: Stage| {
                let mut all = Histogram::new();
                for ((_, s), h) in &snap.spans {
                    if *s == stage {
                        all.merge(h);
                    }
                }
                all.p95().as_micros_f64()
            };
            let mut s = Stages {
                fabric_p95_us: p95(Stage::Fabric),
                nic_queue_p95_us: p95(Stage::NicQueue),
                dataplane_p95_us: p95(Stage::Dataplane),
                flash_sq_p95_us: p95(Stage::FlashSq),
                channel_p95_us: p95(Stage::Channel),
                submitted: 0,
                completed: 0,
                failed: 0,
                retried: 0,
                open_spans: 0,
            };
            for io in snap.ios.values() {
                s.submitted += io.submitted;
                s.completed += io.completed;
                s.failed += io.failed;
                s.retried += io.retried;
                s.open_spans += io.open_spans;
            }
            w.stages = Some(s);
        }
        w
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in values {
        sum += v;
        n += 1;
    }
    sum / f64::from(n.max(1))
}

/// p95 in microseconds, interpolated linearly inside the histogram bucket
/// that holds it. The histogram answers percentiles with its bucket's
/// midpoint — 64 sub-buckets per power of two, a 1.6 % step — which is as
/// wide as the bound `sim_p95_read_us` is held to; the position of the
/// p95 rank inside the bucket's rank range resolves changes below that.
fn p95_interpolated_us(h: &Histogram) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // `percentile` picks the sample of rank ceil(pct/100 * n); asking for
    // rank k - 1/2 makes that exactly k.
    let at_rank = |k: u64| h.percentile((k as f64 - 0.5) / n as f64 * 100.0).as_nanos();
    let target = (0.95 * n as f64).ceil().max(1.0) as u64;
    let v = at_rank(target);
    // Smallest rank with a value >= v, and smallest with a value > v.
    let first_rank = |pred: &dyn Fn(u64) -> bool| {
        let (mut lo, mut hi) = (1u64, n + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(at_rank(mid)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    };
    let begin = first_rank(&|x| x >= v);
    let end = first_rank(&|x| x > v);
    let (lo, width) = if v < 64 {
        (v, 1)
    } else {
        let shift = 63 - v.leading_zeros() - 6;
        ((v >> shift) << shift, 1u64 << shift)
    };
    let frac = (target - begin) as f64 + 0.5;
    let nanos = lo as f64 + frac / (end - begin) as f64 * width as f64;
    nanos.clamp(h.min().as_nanos() as f64, h.max().as_nanos() as f64) / 1e3
}

/// FNV-1a over everything the report says about the simulation.
fn digest(report: &TestbedReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(report.window.as_nanos());
    for w in &report.workloads {
        h.bytes(w.name.as_bytes());
        h.u64(u64::from(w.tenant.0));
        h.bytes(&w.read_latency.encode());
        h.bytes(&w.write_latency.encode());
        for x in [w.iops, w.read_iops, w.write_iops, w.bytes_per_sec] {
            h.u64(x.to_bits());
        }
        for x in [
            w.errors,
            w.issued,
            w.retries,
            w.retry_success,
            w.exhausted,
            w.timeouts,
        ] {
            h.u64(x);
        }
        h.bytes(format!("{:?}", w.iops_series).as_bytes());
    }
    for t in &report.threads {
        h.u64(t.busy_fraction.to_bits());
        h.u64(t.sched_fraction.to_bits());
        h.bytes(format!("{:?}", t.stats).as_bytes());
    }
    h.u64(report.token_usage_per_sec.to_bits());
    h.bytes(format!("{:?}{:?}", report.device, report.renegotiations).as_bytes());
    h.u64(report.engine_events);
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_stays_inside_the_bucket_and_orders_ranks() {
        // 1000 samples spread evenly over one 1.6 % bucket's worth of
        // values and beyond: the interpolated p95 must track the true one
        // far closer than the bucket width.
        let mut h = Histogram::new();
        for i in 0..1000u64 {
            h.record_nanos(100_000 + i * 10);
        }
        let exact = 100_000.0 + 949.0 * 10.0;
        let got = p95_interpolated_us(&h) * 1e3;
        assert!(
            (got - exact).abs() < 200.0,
            "interpolated {got}, exact {exact}"
        );
        // Moving samples inside the p95 bucket moves the answer.
        let mut shifted = Histogram::new();
        for i in 0..1000u64 {
            shifted.record_nanos(100_000 + i * 10 + if i >= 900 { 300 } else { 0 });
        }
        assert!(p95_interpolated_us(&shifted) * 1e3 > got);
    }

    #[test]
    fn empty_and_single_sample_histograms() {
        assert_eq!(p95_interpolated_us(&Histogram::new()), 0.0);
        let mut h = Histogram::new();
        h.record_nanos(5_000);
        assert_eq!(p95_interpolated_us(&h), 5.0);
    }
}
