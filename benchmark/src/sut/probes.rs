//! Layer probes: each calls one layer's public hot function in a loop
//! shaped by the workload and times it from outside. `ops × ns/op ÷ wall`
//! then says what share of a run's host time the layer can account for.
//!
//! Surface used: `Engine` typed events (`schedule_event_*`, `step`),
//! `Histogram::record`, `Fabric::send`/`poll_queue_into`, the wire codec,
//! `QosScheduler::enqueue`/`schedule_into`, `FlashDevice::submit`/
//! `poll_completions_into`, `DramCache::lookup`/`fill`,
//! `DataplaneThread::pump` and `Telemetry::span`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use reflex_cache::{CacheConfig, DramCache};
use reflex_dataplane::{AclEntry, DataplaneConfig, DataplaneThread, WireMsg};
use reflex_flash::{device_a, CmdId, FlashDevice, IoType, NvmeCommand};
use reflex_net::{Fabric, LinkConfig, NicQueueId, Opcode, ReflexHeader, StackProfile};
use reflex_qos::{
    CostModel, CostedRequest, GlobalBucket, LoadMix, QosScheduler, ScheduleOutcome,
    SchedulerParams, SloSpec, TenantClass, TenantId, TokenRate,
};
use reflex_sim::{Ctx, Engine, Histogram, SimDuration, SimRng, SimTime, TypedEvent, Zipf};
use reflex_telemetry::{Stage, Telemetry, TenantKey};

use crate::host::reference_kernel_ns;
use crate::stats::median;
use crate::workloads::{Cache, Slo};

/// How the workload loads each layer, taken from the scenario and from
/// the counters of its traced run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Requests in flight (Little's law on the measured window): the
    /// event population the engine carries.
    pub inflight: u64,
    /// Messages a dataplane thread receives between scheduling rounds.
    pub rx_per_round: u32,
    pub forty_gbe: bool,
    pub io_size: u32,
    /// Overall read share of the offered mix, in percent.
    pub read_pct: u8,
    pub lc_per_thread: u32,
    pub be_per_thread: u32,
    pub slo: Option<Slo>,
    pub conns_per_thread: u32,
    pub cache: Option<Cache>,
    pub zipf: Option<crate::workloads::Zipf>,
}

/// Host nanoseconds per call of each layer's hot function.
#[derive(Debug, Clone, Copy)]
pub struct ProbeTimes {
    pub dispatch_ns: f64,
    pub hist_record_ns: f64,
    pub send_poll_ns: f64,
    pub wire_codec_ns: f64,
    pub round_ns: f64,
    pub submit_poll_ns: f64,
    /// 0 when the workload runs without a cache.
    pub lookup_fill_ns: f64,
    pub pump: PumpCost,
    pub span_ns: f64,
}

const BATCHES: usize = 5;
const OPS_PER_BATCH: u64 = 20_000;

/// Times probe batches as a quiet host would have, the way the measured
/// slices are: the reference kernel runs right after each batch and the
/// batch is scaled by how much slower than `quiet_reference_ns` it ran.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    /// The run's fastest reference-kernel sample.
    pub quiet_reference_ns: f64,
}

impl Timer {
    /// Median over [`BATCHES`] of the time `batch(ops)` takes per op.
    fn ns_per_op(&self, ops: u64, mut batch: impl FnMut(u64)) -> f64 {
        let samples: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                batch(ops);
                let ns = t.elapsed().as_nanos() as f64;
                let slowdown = reference_kernel_ns() as f64 / self.quiet_reference_ns;
                ns / slowdown / ops as f64
            })
            .collect();
        median(&samples)
    }
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 16
}

struct Churn {
    rng: u64,
}

#[derive(Clone, Copy)]
struct Tick;

impl TypedEvent<Churn> for Tick {
    fn dispatch(self, w: &mut Churn, ctx: &mut Ctx<'_, Churn, Tick>) {
        // Delays up to 200 µs: the span of fabric, flash and pacing delays
        // the testbed schedules.
        let delay = 200 + lcg(&mut w.rng) % 200_000;
        ctx.schedule_event_after(SimDuration::from_nanos(delay), Tick);
    }
}

/// One typed `schedule_event_after` + `step` with `width` events queued.
pub fn dispatch(shape: &Shape, timer: &Timer) -> f64 {
    let width = shape.inflight.clamp(16, 1 << 16);
    let mut engine = Engine::with_events(Churn { rng: 0x9e37_79b9 });
    for i in 0..width {
        engine.schedule_event_at(SimTime::from_nanos(i * 100), Tick);
    }
    let mut steps = |n: u64| {
        for _ in 0..n {
            black_box(engine.step());
        }
    };
    steps(width * 2);
    timer.ns_per_op(OPS_PER_BATCH, steps)
}

pub fn hist_record(timer: &Timer) -> f64 {
    let mut h = Histogram::new();
    let mut x = 1u64;
    timer.ns_per_op(OPS_PER_BATCH, |n| {
        for _ in 0..n {
            h.record_nanos(50_000 + lcg(&mut x) % 1_000_000);
        }
        black_box(h.count());
    })
}

fn link(shape: &Shape) -> LinkConfig {
    if shape.forty_gbe {
        LinkConfig::forty_gbe()
    } else {
        LinkConfig::default()
    }
}

/// 2^16 request addresses in the workload's pattern: Zipfian over its hot
/// namespace (ranks scattered as the testbed scatters them), otherwise
/// uniform over the first 2^20 blocks.
fn addresses(shape: &Shape) -> Vec<u64> {
    let size = u64::from(shape.io_size);
    let mut rng = SimRng::seed(13);
    match shape.zipf {
        Some(zipf) => {
            let slots = (zipf.namespace_bytes / size).max(2);
            let dist = Zipf::new(slots, f64::from(zipf.theta_permille) / 1000.0);
            (0..1 << 16)
                .map(|_| dist.sample(&mut rng).wrapping_mul(0x9e37_79b9_7f4a_7c15) % slots * size)
                .collect()
        }
        None => (0..1 << 16).map(|_| rng.below(1 << 20) * size).collect(),
    }
}

/// The `i`-th request of the probe stream: reads and writes interleaved
/// at the workload's mix, addresses cycling through `addrs`.
fn request(shape: &Shape, addrs: &[u64], i: u64, tenant: u32) -> (ReflexHeader, bool) {
    let is_read = i % 100 < u64::from(shape.read_pct);
    let header = ReflexHeader {
        opcode: if is_read { Opcode::Get } else { Opcode::Put },
        tenant,
        cookie: i,
        addr: addrs[(i & 0xffff) as usize],
        len: shape.io_size,
    };
    (header, is_read)
}

/// `ops` rounded up to whole bursts of `depth`.
fn whole_bursts(ops: u64, depth: u64) -> u64 {
    ops.div_ceil(depth) * depth
}

/// One `Fabric::send` plus its share of the `poll_queue_into` that drains
/// it, in bursts of the workload's rx depth.
pub fn send_poll(shape: &Shape, timer: &Timer) -> f64 {
    let mut fabric: Fabric<WireMsg> = Fabric::new(link(shape), SimRng::seed(11));
    let client = fabric.add_machine(StackProfile::ix_tcp());
    let server = fabric.add_machine(StackProfile::dataplane_raw());
    let conn = fabric.new_conn();
    let payload = request(shape, &[0], 0, 1).0.encode_array();
    let depth = u64::from(shape.rx_per_round.max(1));
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    timer.ns_per_op(whole_bursts(OPS_PER_BATCH, depth), |n| {
        for _ in 0..n / depth {
            for _ in 0..depth {
                now += SimDuration::from_micros(1);
                black_box(fabric.send(now, client, server, conn, 0, payload));
            }
            now += SimDuration::from_micros(100);
            loop {
                fabric.poll_queue_into(now, server, NicQueueId(0), 64, &mut out);
                if out.is_empty() {
                    break;
                }
                black_box(&out);
            }
        }
    })
}

pub fn wire_codec(shape: &Shape, timer: &Timer) -> f64 {
    let header = request(shape, &[4096], 0, 1).0;
    timer.ns_per_op(OPS_PER_BATCH, |n| {
        for _ in 0..n {
            let bytes = black_box(header).encode_array();
            black_box(ReflexHeader::decode(black_box(&bytes)).expect("round trip"));
        }
    })
}

/// Generous best-effort rate: probe queues must drain every round so the
/// timed work stays the round itself, not a growing backlog.
const PROBE_BE_RATE: TokenRate = TokenRate::per_sec(1_000_000);

fn slo_spec(slo: Slo) -> SloSpec {
    SloSpec::new(slo.iops, slo.read_pct, SimDuration::from_micros(slo.p95_us))
}

/// The workload's tenants on one thread: latency-critical first.
fn tenant_classes(shape: &Shape) -> Vec<TenantClass> {
    let tenants = (shape.lc_per_thread + shape.be_per_thread).max(1);
    (0..tenants)
        .map(|t| match shape.slo {
            Some(slo) if t < shape.lc_per_thread => TenantClass::LatencyCritical(slo_spec(slo)),
            _ => TenantClass::BestEffort,
        })
        .collect()
}

/// One scheduling round over the workload's tenants per thread, with the
/// enqueues that arrive between two rounds.
pub fn qos_round(shape: &Shape, timer: &Timer) -> f64 {
    let mut sched: QosScheduler<u64> = QosScheduler::new(
        0,
        Arc::new(GlobalBucket::new(1)),
        CostModel::for_device_a(),
        SchedulerParams::default(),
        SimTime::ZERO,
    );
    let classes = tenant_classes(shape);
    for (t, class) in classes.iter().enumerate() {
        let id = TenantId(t as u32);
        match class {
            TenantClass::LatencyCritical(slo) => sched.register_lc(id, *slo, shape.io_size),
            TenantClass::BestEffort => sched.register_be(id),
        }
        .expect("fresh tenant");
    }
    sched.set_be_rate(PROBE_BE_RATE);
    let addrs = addresses(shape);
    let per_round = u64::from(shape.rx_per_round.max(1));
    let mut out = ScheduleOutcome {
        submitted: Vec::new(),
        deficit_notifications: Vec::new(),
        reset_bucket: false,
    };
    let mut now = SimTime::ZERO;
    let mut i = 0u64;
    timer.ns_per_op(OPS_PER_BATCH / 4, |n| {
        for _ in 0..n {
            now += SimDuration::from_micros(10);
            for _ in 0..per_round {
                i += 1;
                let (header, is_read) = request(shape, &addrs, i, 0);
                let req = CostedRequest {
                    op: if is_read { IoType::Read } else { IoType::Write },
                    len: header.len,
                    payload: i,
                };
                sched
                    .enqueue(TenantId((i % classes.len() as u64) as u32), req)
                    .expect("registered");
            }
            sched.schedule_into(now, LoadMix::Mixed, &mut out);
            black_box(out.submitted.len());
        }
    })
}

/// One `submit` plus its `poll_completions_into` at the workload's
/// read/write mix, paced under the device's token rate.
pub fn submit_poll(shape: &Shape, timer: &Timer) -> f64 {
    let mut device = FlashDevice::new(device_a(), SimRng::seed(12));
    device.precondition();
    let qp = device.create_queue_pair();
    let write_share = 1.0 - f64::from(shape.read_pct) / 100.0;
    let tokens_per_io = 1.0 + 9.0 * write_share;
    let gap =
        SimDuration::from_secs_f64(tokens_per_io / 350_000.0).max(SimDuration::from_micros(2));
    let addrs = addresses(shape);
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    let mut i = 0u64;
    timer.ns_per_op(OPS_PER_BATCH, |n| {
        for _ in 0..n {
            i += 1;
            now += gap;
            let (h, is_read) = request(shape, &addrs, i, 0);
            let cmd = if is_read {
                NvmeCommand::read(CmdId(i), h.addr, h.len)
            } else {
                NvmeCommand::write(CmdId(i), h.addr, h.len)
            };
            // A full SQ only means this probe outran the device; the
            // command is dropped and the next poll frees slots.
            let _ = black_box(device.submit(now, qp, cmd));
            device.poll_completions_into(now, qp, 64, &mut out);
            black_box(out.len());
        }
    })
}

fn cache_config(cache: Cache) -> CacheConfig {
    let mut cfg = CacheConfig::with_capacity(cache.capacity_bytes);
    cfg.line_bytes = cache.line_bytes;
    cfg
}

/// One `lookup`, followed by the `fill` a miss leads to, on the
/// workload's addresses. 0 without a cache.
pub fn lookup_fill(shape: &Shape, timer: &Timer) -> f64 {
    let Some(cache) = shape.cache else {
        return 0.0;
    };
    let mut dram = DramCache::new(cache_config(cache));
    let addrs = addresses(shape);
    let mut touch = |n: u64| {
        for k in 0..n {
            let addr = addrs[(k & 0xffff) as usize];
            if !dram.lookup(1, addr, shape.io_size) {
                let (clock, generation) = (dram.clock(), dram.generation(1));
                black_box(dram.fill(1, addr, shape.io_size, clock, generation));
            }
        }
    };
    touch(1 << 16);
    timer.ns_per_op(OPS_PER_BATCH, touch)
}

/// What the pump probe cost per request, and how many calls into the
/// other layers each request made inside it.
#[derive(Debug, Clone, Copy)]
pub struct PumpCost {
    /// One request's whole life through `DataplaneThread::pump`.
    pub ns: f64,
    pub rounds: f64,
    pub flash_cmds: f64,
    pub cache_lookups: f64,
}

/// One request's whole life through a standalone `DataplaneThread`: the
/// client sends a burst of the workload's rx depth, the thread is pumped
/// until idle, the client drains the responses.
pub fn pump(shape: &Shape, timer: &Timer) -> PumpCost {
    let mut fabric: Fabric<WireMsg> = Fabric::new(link(shape), SimRng::seed(14));
    let client = fabric.add_machine(StackProfile::ix_tcp());
    let server = fabric.add_machine(StackProfile::dataplane_raw());
    let mut device = FlashDevice::new(device_a(), SimRng::seed(15));
    device.precondition();
    let qp = device.create_queue_pair();
    let mut thread = DataplaneThread::new(
        0,
        server,
        NicQueueId(0),
        qp,
        Arc::new(GlobalBucket::new(1)),
        CostModel::for_device_a(),
        SchedulerParams::default(),
        DataplaneConfig {
            cache: shape.cache.map(cache_config),
            ..DataplaneConfig::default()
        },
        SimTime::ZERO,
    );
    let classes = tenant_classes(shape);
    let tenants = classes.len() as u32;
    let capacity = device.profile().capacity_bytes;
    for (t, class) in classes.into_iter().enumerate() {
        thread
            .register_tenant(
                TenantId(t as u32),
                class,
                AclEntry::full(capacity),
                shape.io_size,
            )
            .expect("fresh tenant");
    }
    thread.set_be_rate(PROBE_BE_RATE);
    let conns: Vec<_> = (0..shape.conns_per_thread.max(tenants))
        .map(|c| {
            let conn = fabric.new_conn();
            thread
                .bind_connection(conn, TenantId(c % tenants), client)
                .expect("tenant registered");
            (conn, c % tenants)
        })
        .collect();
    let addrs = addresses(shape);
    let depth = u64::from(shape.rx_per_round.max(1));
    let mut now = SimTime::ZERO;
    let mut responses = Vec::new();
    let mut i = 0u64;
    let mut bursts = |n: u64, thread: &mut DataplaneThread| {
        for _ in 0..n / depth {
            for _ in 0..depth {
                i += 1;
                let (conn, tenant) = conns[(i % conns.len() as u64) as usize];
                let (header, is_read) = request(shape, &addrs, i, tenant);
                let size = if is_read { 0 } else { shape.io_size };
                now += SimDuration::from_nanos(500);
                fabric.send(now, client, server, conn, size, header.encode_array());
            }
            // Follow the thread's own wake-ups until it reports idle; the
            // cap only guards against a model change that never idles.
            for _ in 0..100_000 {
                match thread.pump(now, &mut fabric, &mut device) {
                    Some(wake) => now = now.max(wake) + SimDuration::from_nanos(1),
                    None => break,
                }
            }
            now += SimDuration::from_millis(1);
            fabric.poll_into(now, client, usize::MAX, &mut responses);
            black_box(responses.len());
        }
    };
    // Fill the cache and the pools before timing.
    bursts(whole_bursts(1 << 16, depth), &mut thread);
    let before = thread.stats();
    let ops = whole_bursts(OPS_PER_BATCH / 4, depth);
    let ns = timer.ns_per_op(ops, |n| bursts(n, &mut thread));
    let after = thread.stats();
    let per_request = |count: u64| count as f64 / (ops * BATCHES as u64) as f64;
    PumpCost {
        ns,
        rounds: per_request(after.sched_rounds - before.sched_rounds),
        flash_cmds: per_request(after.submitted - before.submitted),
        cache_lookups: per_request(
            after.cache_hits + after.cache_misses - before.cache_hits - before.cache_misses,
        ),
    }
}

pub fn telemetry_span(timer: &Timer) -> f64 {
    let telemetry = Telemetry::enabled();
    let mut x = 1u64;
    timer.ns_per_op(OPS_PER_BATCH, |n| {
        for _ in 0..n {
            let nanos = 1_000 + lcg(&mut x) % 100_000;
            telemetry.span(TenantKey(1), Stage::Channel, SimDuration::from_nanos(nanos));
        }
    })
}
