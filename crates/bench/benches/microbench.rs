//! Criterion microbenchmarks of the reproduction's hot structures: the
//! scheduling round (Algorithm 1), global-bucket atomics, histogram
//! inserts and queries, device submission, and wire-header codec. These
//! measure the *simulator's* own costs — useful when tuning harnesses —
//! and double as regression guards on algorithmic complexity.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use reflex_dataplane::{AclEntry, DataplaneConfig, DataplaneThread, WireMsg};
use reflex_flash::{device_a, CmdId, FlashDevice, IoType, NvmeCommand, NvmeCompletion, NvmeStatus};
use reflex_net::{
    ConnId, Delivery, Fabric, LinkConfig, MachineId, NetFaultAction, NetFaultHook, NicQueueId,
    Opcode, ReflexHeader, StackProfile,
};
use reflex_qos::{
    CostModel, CostedRequest, GlobalBucket, LoadMix, QosScheduler, ScheduleOutcome,
    SchedulerParams, SloSpec, TenantClass, TenantId, TokenRate, Tokens,
};
use reflex_sim::{Exponential, Histogram, LogNormal, SimDuration, SimRng, SimTime, TimeHeap, Zipf};
use reflex_telemetry::{Stage, Telemetry, TenantKey};

/// The Box–Muller generators `SimRng` shipped before its ziggurat, the
/// `variates` guard's yardstick (`exponential` there is for the oracle).
#[allow(dead_code)]
#[path = "../../sim/tests/reference/mod.rs"]
mod reference;

/// The completion heap it replaced.
#[path = "../../flash/tests/reference/mod.rs"]
#[allow(dead_code)]
mod cq_reference;

fn sched_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_round");
    for tenants in [1u32, 16, 256, 2048] {
        group.bench_function(format!("{tenants}_lc_tenants"), |b| {
            let bucket = Arc::new(GlobalBucket::new(1));
            let mut sched: QosScheduler<u64> = QosScheduler::new(
                0,
                bucket,
                CostModel::for_device_a(),
                SchedulerParams::default(),
                SimTime::ZERO,
            );
            for t in 0..tenants {
                sched
                    .register_lc(
                        TenantId(t),
                        SloSpec::new(1_000, 100, SimDuration::from_millis(1)),
                        4096,
                    )
                    .expect("unique tenants");
            }
            let mut now = SimTime::ZERO;
            let mut i = 0u64;
            b.iter(|| {
                now += SimDuration::from_micros(10);
                i += 1;
                sched
                    .enqueue(
                        TenantId((i % tenants as u64) as u32),
                        CostedRequest {
                            op: IoType::Read,
                            len: 4096,
                            payload: i,
                        },
                    )
                    .expect("registered");
                sched.schedule(now, LoadMix::Mixed)
            });
        });
    }
    for tenants in [100u32, 1_000] {
        group.bench_function(format!("{tenants}_tenants_backlogged"), |b| {
            let mut round = BackloggedRound::new(tenants);
            b.iter(|| round.step());
        });
    }
    for tenants in [100u32, 1_000] {
        group.bench_function(format!("{tenants}_tenants_starved"), |b| {
            let mut round = StarvedRound::new(tenants);
            b.iter(|| round.step());
        });
    }
    // fig6b's shape, with no guard yet: every round still visits every
    // idle best-effort tenant.
    for tenants in [1_000u32, 6_000] {
        let mut sched = thread_zero_of_two();
        for t in 0..tenants {
            sched.register_be(TenantId(t)).expect("unique tenants");
        }
        sched.set_be_rate(TokenRate::per_sec(100_000).share(u64::from(tenants)));
        let (mut out, mut now) = (ScheduleOutcome::default(), SimTime::ZERO);
        group.bench_function(format!("{tenants}_be_idle"), |b| {
            b.iter(|| {
                now += SimDuration::from_micros(2);
                sched.schedule_into(now, LoadMix::Mixed, &mut out);
            });
        });
        if sched.rounds() > 0 {
            let visits = sched.visits() as f64 / sched.rounds() as f64;
            println!("sched_round/{tenants}_be_idle: {visits:.0} visits per round");
        }
    }
    group.finish();
    if !c.selected("sched_round/guard") {
        return;
    }
    // Best of five, alternating, so a slow phase of the host hits both.
    let mut round = BackloggedRound::new(100);
    let mut yardstick = MapAndWideDivide::new(100);
    let (mut per_tenant, mut pair) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        per_tenant = per_tenant.min(ns_per_call(20_000, || round.step()) / 100.0);
        pair = pair.min(ns_per_call(2_000_000, || yardstick.step()));
    }
    println!(
        "sched_round guard: {per_tenant:.1} ns per tenant in a backlogged 100-tenant round, \
         {pair:.1} ns for one map lookup + one u128 div/mod ({:.2}x, limit {SCHED_GUARD_LIMIT}x)",
        per_tenant / pair
    );
    assert!(
        per_tenant <= SCHED_GUARD_LIMIT * pair,
        "a tenant's turn costs a hash lookup and a wide division again"
    );
    let (mut few, mut many) = (StarvedRound::new(100), StarvedRound::new(1_000));
    let (mut at_100, mut at_1000) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        at_100 = at_100.min(ns_per_call(200_000, || few.step()));
        at_1000 = at_1000.min(ns_per_call(200_000, || many.step()));
    }
    println!(
        "sched_round guard: {at_100:.1} ns per starved round at 100 tenants, {at_1000:.1} ns \
         at 1 000 ({:.2}x, limit {STARVED_GUARD_LIMIT}x; {:.2} and {:.2} visits per round)",
        at_1000 / at_100,
        few.visits_per_round(),
        many.visits_per_round()
    );
    assert!(
        at_1000 <= STARVED_GUARD_LIMIT * at_100,
        "a round costs as many visits as there are tenants registered again"
    );
}

/// How much more a starved round may cost at 1 000 tenants than at 100
/// with the same token flows: the same few tenants can act in either, so
/// only the wake heap's depth and the cache footprint differ (measured
/// 1.2-1.5x; about 10x while a round visited every registered tenant).
const STARVED_GUARD_LIMIT: f64 = 2.0;

/// How many `HashMap` lookup + `u128` div/mod pairs a tenant's turn in a
/// backlogged round may cost. Over repeated runs on the reference
/// container the dense-slot scheduler measures 0.55-0.67 of one pair and
/// the map-based one (which did both per tenant, and `div_ceil`s on top)
/// 1.95-2.30, both moving with the host.
const SCHED_GUARD_LIMIT: f64 = 1.0;

/// Nanoseconds per call of `f` over `calls` calls, timed outside criterion
/// for the guards.
fn ns_per_call<T>(calls: u32, mut f: impl FnMut() -> T) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..calls {
        criterion::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / f64::from(calls)
}

/// A scheduler on device A's cost model that is thread 0 of two, so that
/// its own rounds never reset the bucket.
fn thread_zero_of_two() -> QosScheduler<u64> {
    QosScheduler::new(
        0,
        Arc::new(GlobalBucket::new(2)),
        CostModel::for_device_a(),
        SchedulerParams::default(),
        SimTime::ZERO,
    )
}

fn read_4k(payload: u64) -> CostedRequest<u64> {
    CostedRequest {
        op: IoType::Read,
        len: 4096,
        payload,
    }
}

/// The benchmark's `tenants_rw` thread in miniature: a fifth of the
/// tenants latency-critical and idle, the rest best-effort with standing
/// 4 KiB read/write backlogs, an empty pool, and a fair share that admits
/// one request every few dozen 2 µs rounds (re-queued at once, so the
/// backlog stands). Unlike the `*_lc_tenants` cases every BE tenant walks
/// the demand / take / head-of-queue path on every round.
struct BackloggedRound {
    sched: QosScheduler<u64>,
    out: ScheduleOutcome<u64>,
    now: SimTime,
}

impl BackloggedRound {
    fn new(tenants: u32) -> Self {
        let mut sched = thread_zero_of_two();
        for t in 0..tenants {
            let id = TenantId(t);
            if t < tenants / 5 {
                let slo = SloSpec::new(2_000, 80, SimDuration::from_millis(1));
                sched.register_lc(id, slo, 4096).expect("unique tenants");
                continue;
            }
            sched.register_be(id).expect("unique tenants");
            for i in 0..64u64 {
                let op = if i % 2 == 0 {
                    IoType::Read
                } else {
                    IoType::Write
                };
                let req = CostedRequest {
                    op,
                    len: 4096,
                    payload: i,
                };
                sched.enqueue(id, req).expect("registered");
            }
        }
        sched.set_be_rate(TokenRate::per_sec(1_225));
        BackloggedRound {
            sched,
            out: ScheduleOutcome::default(),
            now: SimTime::ZERO,
        }
    }

    fn step(&mut self) -> usize {
        self.now += SimDuration::from_micros(2);
        self.sched
            .schedule_into(self.now, LoadMix::Mixed, &mut self.out);
        let admitted = self.out.submitted.len();
        for (id, req) in self.out.submitted.drain(..) {
            self.sched.enqueue(id, req).expect("registered");
        }
        admitted
    }
}

/// The `tenants_rw` thread at the device's token cap, where hardly anyone
/// can act: a fifth of the tenants latency-critical, 30 tokens in debt and
/// offered exactly their reservation (so they stay there), the rest
/// best-effort with standing backlogs earning a fraction of a request per
/// round. The reservations (40 K IOPS at 80 % reads) and the BE income
/// (100 K tokens/s) are totals split among however many tenants there
/// are — 2 000 IOPS and 5 mt per 2 µs round each at 100 — so every size
/// submits the same ~0.3 requests per round.
struct StarvedRound {
    sched: QosScheduler<u64>,
    out: ScheduleOutcome<u64>,
    now: SimTime,
    lc: u32,
    next_lc: u32,
    /// LC income not yet offered as a request, in millitokens.
    lc_income: u32,
}

impl StarvedRound {
    fn new(tenants: u32) -> Self {
        let mut sched = thread_zero_of_two();
        let lc = tenants / 5;
        for t in 0..tenants {
            let id = TenantId(t);
            if t < lc {
                let slo = SloSpec::new(u64::from(40_000 / lc), 80, SimDuration::from_millis(1));
                sched.register_lc(id, slo, 4096).expect("unique tenants");
                for i in 0..30 {
                    sched.enqueue(id, read_4k(i)).expect("registered");
                }
                continue;
            }
            sched.register_be(id).expect("unique tenants");
            for i in 0..64u64 {
                let mut req = read_4k(i);
                if i % 2 == 1 {
                    req.op = IoType::Write;
                }
                sched.enqueue(id, req).expect("registered");
            }
        }
        sched.set_be_rate(TokenRate::per_sec(100_000).share(u64::from(tenants - lc)));
        StarvedRound {
            sched,
            out: ScheduleOutcome::default(),
            now: SimTime::ZERO,
            lc,
            next_lc: 0,
            lc_income: 0,
        }
    }

    fn step(&mut self) -> usize {
        self.now += SimDuration::from_micros(2);
        // 112 K tokens/s of LC reservations make 224 mt per round.
        self.lc_income += 224;
        if self.lc_income >= 1_000 {
            self.lc_income -= 1_000;
            self.sched
                .enqueue(TenantId(self.next_lc), read_4k(0))
                .expect("registered");
            self.next_lc = (self.next_lc + 1) % self.lc;
        }
        self.sched
            .schedule_into(self.now, LoadMix::Mixed, &mut self.out);
        let admitted = self.out.submitted.len();
        for (id, req) in self.out.submitted.drain(..) {
            if id.0 >= self.lc {
                self.sched.enqueue(id, req).expect("registered");
            }
        }
        admitted
    }

    fn visits_per_round(&self) -> f64 {
        self.sched.visits() as f64 / self.sched.rounds() as f64
    }
}

/// What a tenant's turn cost in bookkeeping alone while tenant state lived
/// in a `HashMap` and tokens were generated in `u128`: one `get_mut` by
/// tenant id among `tenants` state-sized entries, one div/mod by 10⁹. The
/// `sched_round` guard's host-independent yardstick.
struct MapAndWideDivide {
    states: std::collections::HashMap<TenantId, [u64; 14]>,
    next: u32,
}

impl MapAndWideDivide {
    fn new(tenants: u32) -> Self {
        MapAndWideDivide {
            states: (0..tenants).map(|t| (TenantId(t), [0; 14])).collect(),
            next: 0,
        }
    }

    fn step(&mut self) -> u64 {
        let id = TenantId(self.next);
        self.next = (self.next + 1) % self.states.len() as u32;
        let state = self.states.get_mut(&id).expect("inserted above");
        let numer = criterion::black_box(1_225_000u128) * 2_000 + u128::from(state[0]);
        state[0] = (numer % 1_000_000_000) as u64;
        (numer / 1_000_000_000) as u64
    }
}

fn bucket_ops(c: &mut Criterion) {
    let bucket = GlobalBucket::new(4);
    c.bench_function("bucket_give_take", |b| {
        b.iter(|| {
            bucket.give(Tokens::from_millitokens(1_500));
            bucket.take(Tokens::from_millitokens(1_000))
        })
    });
}

fn histogram_ops(c: &mut Criterion) {
    c.bench_function("histogram_record", |b| {
        let mut h = Histogram::new();
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record_nanos(x % 10_000_000);
        })
    });
    c.bench_function("histogram_p95", |b| {
        let mut h = Histogram::new();
        let mut rng = SimRng::seed(1);
        for _ in 0..100_000 {
            h.record(rng.lognormal(LogNormal::new(SimDuration::from_micros(100), 0.5)));
        }
        b.iter(|| h.p95())
    });
}

fn device_submit(c: &mut Criterion) {
    c.bench_function("flash_submit_poll", |b| {
        b.iter_batched(
            || {
                let mut d = FlashDevice::new(device_a(), SimRng::seed(3));
                let qp = d.create_queue_pair();
                (d, qp)
            },
            |(mut d, qp)| {
                let mut t = SimTime::ZERO;
                for i in 0..512u64 {
                    t += SimDuration::from_micros(2);
                    let addr = (i * 7919 % 100_000) * 4096;
                    d.submit(t, qp, NvmeCommand::read(CmdId(i), addr, 4096))
                        .expect("deep sq");
                    let _ = d.poll_completions(t, qp, 64);
                }
                d
            },
            BatchSize::SmallInput,
        )
    });
}

/// How much of the parent's completion heap timed beside it the device's
/// completion queue may cost per push + pop at a standing depth of 128:
/// 32-byte entries ordered by one `u128` against 40-byte ones compared as
/// `(at, seq)` tuples (measured ~0.8x on the reference container).
const CQ_GUARD_LIMIT: f64 = 0.9;

/// A completion queue at `rd1k_knee`'s standing depth: each step posts a
/// completion 70-86 µs out, 600 ns after the previous one (so it lands
/// behind a few dozen queued ones), and pops the earliest.
struct StandingCq<Q> {
    queue: Q,
    out: Vec<NvmeCompletion>,
    now: SimTime,
    seq: u64,
    post: fn(&mut Q, SimTime, u64, NvmeCompletion),
    pop: fn(&mut Q, &mut Vec<NvmeCompletion>),
}

impl<Q> StandingCq<Q> {
    const DEPTH: u64 = 128;

    fn new(
        queue: Q,
        post: fn(&mut Q, SimTime, u64, NvmeCompletion),
        pop: fn(&mut Q, &mut Vec<NvmeCompletion>),
    ) -> Self {
        let mut standing = StandingCq {
            queue,
            out: Vec::with_capacity(1),
            now: SimTime::ZERO,
            seq: 0,
            post,
            pop,
        };
        for _ in 0..Self::DEPTH {
            standing.push();
        }
        standing
    }

    fn push(&mut self) {
        self.now += SimDuration::from_nanos(600);
        let jitter = self.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50;
        let at = self.now + SimDuration::from_nanos(70_000 + jitter);
        let completion = NvmeCompletion {
            id: CmdId(self.seq),
            op: IoType::Read,
            completed_at: at,
            status: NvmeStatus::Success,
        };
        (self.post)(&mut self.queue, at, self.seq, completion);
        self.seq += 1;
    }

    fn step(&mut self) -> CmdId {
        self.push();
        (self.pop)(&mut self.queue, &mut self.out);
        self.out[0].id
    }
}

fn standing_cq() -> StandingCq<TimeHeap<(CmdId, IoType, NvmeStatus)>> {
    StandingCq::new(
        TimeHeap::default(),
        |q, at, seq, c| q.push(at, seq, (c.id, c.op, c.status)),
        |q, out| {
            out.clear();
            if let Some((completed_at, (id, op, status))) = q.pop_due(SimTime::MAX) {
                out.push(NvmeCompletion {
                    id,
                    op,
                    completed_at,
                    status,
                });
            }
        },
    )
}

fn standing_reference_cq() -> StandingCq<cq_reference::ReferenceCqs> {
    StandingCq::new(
        cq_reference::ReferenceCqs::new(1),
        |q, _, _, c| q.post(0, c),
        |q, out| q.poll_into(SimTime::MAX, 0, 1, out),
    )
}

fn flash_cq(c: &mut Criterion) {
    let mut group = c.benchmark_group("flash_cq");
    group.bench_function("push_pop_at_128", |b| {
        let mut queue = standing_cq();
        b.iter(|| queue.step())
    });
    group.bench_function("reference_push_pop_at_128", |b| {
        let mut queue = standing_reference_cq();
        b.iter(|| queue.step())
    });
    group.finish();
    if !c.selected("flash_cq/guard") {
        return;
    }
    // Best of five, alternating, so a slow phase of the host hits both.
    let (mut packed, mut reference) = (standing_cq(), standing_reference_cq());
    let (mut new_ns, mut old_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        new_ns = new_ns.min(ns_per_call(2_000_000, || packed.step()));
        old_ns = old_ns.min(ns_per_call(2_000_000, || reference.step()));
    }
    println!(
        "flash_cq guard: {new_ns:.1} ns per push + pop at depth 128, {old_ns:.1} ns with the \
         parent's heap ({:.2}x, limit {CQ_GUARD_LIMIT}x)",
        new_ns / old_ns
    );
    assert!(
        new_ns <= CQ_GUARD_LIMIT * old_ns,
        "the completion queue costs what the tuple-compared heap did again"
    );
}

fn header_codec(c: &mut Criterion) {
    let hdr = ReflexHeader {
        opcode: Opcode::Get,
        tenant: 42,
        cookie: 0xfeed_beef,
        addr: 123 << 12,
        len: 4096,
    };
    c.bench_function("header_encode_array_decode", |b| {
        b.iter(|| {
            let bytes = hdr.encode_array();
            ReflexHeader::decode(&bytes).expect("round trip")
        })
    });
}

/// Faithful replica of the seed engine's event queue: a `BinaryHeap` of
/// `Scheduled` nodes carrying the boxed closure inline (moved on every heap
/// sift), plus a per-dispatch pending `Vec` merged after each handler —
/// exactly the structure the seed engine used. Kept here as the reference
/// point for the `engine_dispatch` comparison.
mod baseline_heap {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use reflex_sim::{SimDuration, SimTime};

    pub type Event<W> = Box<dyn FnOnce(&mut W, &mut Ctx<W>)>;

    struct Scheduled<W> {
        at: SimTime,
        seq: u64,
        action: Event<W>,
    }

    impl<W> PartialEq for Scheduled<W> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<W> Eq for Scheduled<W> {}
    impl<W> PartialOrd for Scheduled<W> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<W> Ord for Scheduled<W> {
        // Max-heap inverted so the earliest (time, seq) pops first.
        fn cmp(&self, other: &Self) -> Ordering {
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    pub struct Ctx<W> {
        now: SimTime,
        pending: Vec<(SimTime, Event<W>)>,
    }

    impl<W> Ctx<W> {
        pub fn schedule_after(&mut self, delay: SimDuration, event: Event<W>) {
            self.pending.push((self.now + delay, event));
        }
    }

    pub struct Engine<W> {
        world: W,
        seq: u64,
        heap: BinaryHeap<Scheduled<W>>,
    }

    impl<W> Engine<W> {
        pub fn new(world: W) -> Self {
            Engine {
                world,
                seq: 0,
                heap: BinaryHeap::new(),
            }
        }

        pub fn world(&self) -> &W {
            &self.world
        }

        pub fn schedule_at(&mut self, at: SimTime, action: Event<W>) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Scheduled { at, seq, action });
        }

        pub fn run_to_completion(&mut self) {
            while let Some(Scheduled { at, action, .. }) = self.heap.pop() {
                let mut ctx = Ctx {
                    now: at,
                    pending: Vec::new(),
                };
                action(&mut self.world, &mut ctx);
                // Two-phase insert exactly like the old engine: handlers
                // stage into a pending Vec, merged after dispatch.
                for (when, ev) in ctx.pending {
                    self.schedule_at(when, ev);
                }
            }
        }
    }
}

/// Shared churn world: a `width`-wide event population with LCG-driven
/// delays, mostly under 2ms with an occasional far (8ms) outlier. Width
/// models how many events the testbed keeps in flight — a loaded
/// multi-tenant run holds thousands.
struct ChurnWorld {
    rng: u64,
    dispatched: u64,
    budget: u64,
    width: u64,
}

impl ChurnWorld {
    fn new(budget: u64, width: u64) -> Self {
        ChurnWorld {
            rng: 0x9e3779b97f4a7c15,
            dispatched: 0,
            budget,
            width,
        }
    }

    fn draw_delay(&mut self) -> Option<SimDuration> {
        if self.dispatched + self.width > self.budget {
            return None; // let the population drain
        }
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let nanos = if self.rng.is_multiple_of(61) {
            8_000_000 + self.rng % 1_000_000 // a far outlier
        } else {
            200 + self.rng % 2_000_000
        };
        Some(SimDuration::from_nanos(nanos))
    }
}

/// One timer event on the real engine; re-schedules itself until the
/// world's budget is spent. No `Box` per schedule: the value lives inline
/// in the engine's heap.
#[derive(Clone, Copy)]
struct ChainTick;

impl reflex_sim::TypedEvent<ChurnWorld> for ChainTick {
    fn dispatch(self, w: &mut ChurnWorld, ctx: &mut reflex_sim::Ctx<'_, ChurnWorld, ChainTick>) {
        w.dispatched += 1;
        if let Some(delay) = w.draw_delay() {
            ctx.schedule_event_after(delay, ChainTick);
        }
    }
}

/// The same event against the baseline heap engine.
fn heap_chain_event(w: &mut ChurnWorld, ctx: &mut baseline_heap::Ctx<ChurnWorld>) {
    w.dispatched += 1;
    if let Some(delay) = w.draw_delay() {
        ctx.schedule_after(delay, Box::new(heap_chain_event));
    }
}

fn engine_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_dispatch");
    for width in [64u64, 4096, 32768] {
        let budget = (width * 10).max(40_000);
        group.bench_function(format!("typed_heap_{width}w"), |b| {
            b.iter(|| {
                let mut e = reflex_sim::Engine::with_events(ChurnWorld::new(budget, width));
                for i in 0..width {
                    e.schedule_event_at(SimTime::from_nanos(i * 100), ChainTick);
                }
                e.run_to_completion();
                assert!(e.world().dispatched >= budget - width);
                e.world().dispatched
            })
        });
        group.bench_function(format!("baseline_binary_heap_{width}w"), |b| {
            b.iter(|| {
                let mut e = baseline_heap::Engine::new(ChurnWorld::new(budget, width));
                for i in 0..width {
                    e.schedule_at(SimTime::from_nanos(i * 100), Box::new(heap_chain_event));
                }
                e.run_to_completion();
                assert!(e.world().dispatched >= budget - width);
                e.world().dispatched
            })
        });
    }
    group.finish();
}

/// Delays every message it sees by a fixed amount.
struct Late(SimDuration);

impl NetFaultHook for Late {
    fn on_send(&mut self, _: SimTime, _: MachineId, _: MachineId, _: u32) -> NetFaultAction {
        NetFaultAction::Delay(self.0)
    }
}

/// Messages an hour late at the back of a storm-end queue: twice a run's
/// reach, so every later arrival lands farther back and is set aside.
const STORM_TAIL: u64 = 64;

/// One fabric round at a standing backlog: the sender's uplink chain runs
/// `backlog` messages ahead of the clock, and every step sends one more,
/// asks both queues for their next arrival and polls — what a dataplane
/// pump does per message once the server falls behind.
struct BacklogRound {
    fabric: Fabric<u64>,
    client: MachineId,
    server: MachineId,
    sibling: NicQueueId,
    conn: ConnId,
    gap: SimDuration,
    now: SimTime,
    sent: u64,
    out: Vec<Delivery<u64>>,
}

impl BacklogRound {
    /// With `storm_end`, [`STORM_TAIL`] messages an hour late sit behind
    /// the backlog, as at the end of a latency storm.
    fn new(backlog: u64, storm_end: bool) -> Self {
        let mut fabric: Fabric<u64> = Fabric::new(LinkConfig::default(), SimRng::seed(7));
        let client = fabric.add_machine(StackProfile::ix_tcp());
        let idle = fabric.add_machine(StackProfile::ix_tcp());
        let server = fabric.add_machine(StackProfile::dataplane_raw());
        let sibling = fabric.add_queue(server);
        let conn = fabric.new_conn();
        let (mut prev, mut gap) = (SimTime::ZERO, SimDuration::ZERO);
        for i in 0..backlog {
            let arrival =
                fabric.send_to_queue(SimTime::ZERO, client, server, NicQueueId(0), conn, 64, i);
            gap = arrival.saturating_since(prev);
            prev = arrival;
        }
        // Late by a fault delay, not sent at a late instant, so that no
        // NIC is busy until then: a lone message keeps the sibling queue
        // non-empty, and the storm's tail lands behind the backlog.
        fabric.set_fault_hook(Box::new(Late(SimDuration::from_secs(3_600))));
        fabric.send_to_queue(SimTime::ZERO, idle, server, sibling, conn, 64, 0);
        let tail = if storm_end { STORM_TAIL } else { 0 };
        for i in 0..tail {
            fabric.send_to_queue(SimTime::ZERO, client, server, NicQueueId(0), conn, 64, i);
        }
        fabric.clear_fault_hook();
        BacklogRound {
            fabric,
            client,
            server,
            sibling,
            conn,
            gap,
            now: SimTime::ZERO,
            sent: backlog,
            out: Vec::with_capacity(16),
        }
    }

    fn step(&mut self) -> (Option<SimTime>, usize) {
        // Advancing the clock by one serialization time per send holds the
        // backlog steady: one message is sent, one arrives.
        self.now += self.gap;
        self.sent += 1;
        let (f, q0) = (&mut self.fabric, NicQueueId(0));
        f.send_to_queue(
            self.now,
            self.client,
            self.server,
            q0,
            self.conn,
            64,
            self.sent,
        );
        let next = f
            .next_arrival_queue(self.server, q0)
            .min(f.next_arrival_queue(self.server, self.sibling));
        f.poll_queue_into(self.now, self.server, q0, 16, &mut self.out);
        (next, self.out.len())
    }
}

/// A queue is one run of whole messages in arrival order, so a round
/// appends, compares two heads and pops whatever the backlog. At a storm's
/// end every send is set aside in the queue's heap instead, which sifts.
/// A scan over the in-flight set would make either linear; the guard fails
/// the bench if depth leaks into cost, in either case.
fn fabric_backlog(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric_backlog");
    for (case, storm_end) in [("backlog", false), ("storm_end", true)] {
        for backlog in [4u64, 256, 4_096, 16_384] {
            group.bench_function(format!("{case}_{backlog}"), |b| {
                let mut round = BacklogRound::new(backlog, storm_end);
                b.iter(|| round.step());
            });
        }
    }
    group.finish();
    if !c.selected("fabric_backlog/guard") {
        return;
    }
    for (case, storm_end) in [("backlog", false), ("storm_end", true)] {
        // Best of five, alternating, so a slow phase of the host hits both.
        let mut few = BacklogRound::new(4, storm_end);
        let mut many = BacklogRound::new(16_384, storm_end);
        let (mut shallow, mut deep) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            shallow = shallow.min(ns_per_call(100_000, || few.step()));
            deep = deep.min(ns_per_call(100_000, || many.step()));
        }
        println!(
            "fabric_backlog guard ({case}): {shallow:.0} ns/round at 4 in flight, {deep:.0} at 16384 ({:.2}x, limit 2x)",
            deep / shallow
        );
        assert!(
            many.fabric.in_flight() >= 16_384,
            "the deep backlog drained"
        );
        let pushes = many.fabric.rx_pushes();
        assert_eq!(pushes.set_aside > 0, storm_end, "{case}: {pushes:?}");
        assert!(deep <= 2.0 * shallow, "backlog depth leaks into cost");
    }
}

/// One request's trip through the request path, in steady state: a client
/// sends a 1 KiB read on the next of `conns` connections, the fabric
/// queues it, one `pump` receives it (flow-table lookup, ACL,
/// enqueue), runs the scheduling round that is due, submits, and answers
/// whatever the device completed meanwhile, and the client polls the
/// responses out. Requests take ~100 µs at the device and arrive every
/// 4 µs, so each step handles one arrival and on average one completion.
struct RequestTrip {
    fabric: Fabric<WireMsg>,
    device: FlashDevice,
    thread: DataplaneThread,
    client: MachineId,
    server: MachineId,
    conns: Vec<ConnId>,
    now: SimTime,
    sent: u64,
    responses: Vec<Delivery<WireMsg>>,
}

impl RequestTrip {
    fn new(conns: u32, tenants: u32) -> Self {
        let mut fabric: Fabric<WireMsg> = Fabric::new(LinkConfig::forty_gbe(), SimRng::seed(5));
        let client = fabric.add_machine(StackProfile::ix_tcp());
        let server = fabric.add_machine(StackProfile::dataplane_raw());
        let mut device = FlashDevice::new(device_a(), SimRng::seed(6));
        device.precondition();
        let mut thread = DataplaneThread::new(
            0,
            server,
            NicQueueId(0),
            device.create_queue_pair(),
            Arc::new(GlobalBucket::new(1)),
            CostModel::for_device_a(),
            SchedulerParams::default(),
            DataplaneConfig::default(),
            SimTime::ZERO,
        );
        let acl = AclEntry::full(device.profile().capacity_bytes);
        for t in 0..tenants {
            thread
                .register_tenant(TenantId(t), TenantClass::BestEffort, acl.clone(), 1024)
                .expect("unique tenants");
        }
        thread.set_be_rate(TokenRate::per_sec(1_000_000));
        let conns = (0..conns)
            .map(|c| {
                let conn = fabric.new_conn();
                thread
                    .bind_connection(conn, TenantId(c % tenants), client)
                    .expect("registered tenant");
                conn
            })
            .collect();
        let mut trip = RequestTrip {
            fabric,
            device,
            thread,
            client,
            server,
            conns,
            now: SimTime::ZERO,
            sent: 0,
            responses: Vec::with_capacity(64),
        };
        // Fill the pipeline and every pool before anything is timed.
        for _ in 0..20_000 {
            trip.step();
        }
        trip
    }

    fn step(&mut self) -> usize {
        self.now += SimDuration::from_micros(4);
        self.sent += 1;
        // A stride coprime to both connection counts walks the whole table
        // without walking it in order.
        let conn = self.conns[(self.sent * 7 % self.conns.len() as u64) as usize];
        let header = ReflexHeader {
            opcode: Opcode::Get,
            tenant: 0,
            cookie: self.sent,
            addr: (self.sent * 7919 % 1_000_000) * 4096,
            len: 1024,
        };
        let (f, q0) = (&mut self.fabric, NicQueueId(0));
        f.send_to_queue(
            self.now,
            self.client,
            self.server,
            q0,
            conn,
            0,
            header.encode_array(),
        );
        self.thread.pump(self.now, f, &mut self.device);
        f.poll_into(self.now, self.client, usize::MAX, &mut self.responses);
        self.responses.len()
    }
}

/// How much a trip at 2 500 bound connections may cost over one at 48:
/// tables found by index do not care how many connections are bound
/// (measured 0.98-1.02x). This pins that property; it is not what told
/// the map-based tables apart — `HashMap`s of 2 500 entries measured
/// 0.99-1.02x here too, their cost was per lookup (875 ns a trip against
/// 680, EXPERIMENTS.md).
const TRIP_GUARD_LIMIT: f64 = 1.25;

fn request_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("request_path");
    for (conns, tenants) in [(48u32, 4u32), (2_500, 4), (48, 200), (2_500, 200)] {
        group.bench_function(format!("{conns}_conns_{tenants}_tenants"), |b| {
            let mut trip = RequestTrip::new(conns, tenants);
            b.iter(|| trip.step());
        });
    }
    group.finish();
    if !c.selected("request_path/guard") {
        return;
    }
    // Best of five, alternating, so a slow phase of the host hits both.
    let (mut few, mut many) = (RequestTrip::new(48, 4), RequestTrip::new(2_500, 4));
    let (mut narrow, mut wide) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        narrow = narrow.min(ns_per_call(100_000, || few.step()));
        wide = wide.min(ns_per_call(100_000, || many.step()));
    }
    println!(
        "request_path guard: {narrow:.0} ns/trip at 48 connections, {wide:.0} at 2500 \
         ({:.2}x, limit {TRIP_GUARD_LIMIT}x)",
        wide / narrow
    );
    assert!(
        wide <= TRIP_GUARD_LIMIT * narrow,
        "the number of bound connections leaks into a request's cost"
    );
}

/// How much of the Box–Muller lognormal timed beside it a ziggurat
/// lognormal may cost: one generator word, a multiply and a compare, then
/// the one `exp` both pay, against two words and `ln` + `sqrt` + `cos` on
/// top (measured 0.36-0.43x on the reference container). A sampler that
/// calls libm on its fast path again lands near 1x.
const VARIATE_GUARD_LIMIT: f64 = 0.5;

/// The three variates a simulated IO draws: five lognormals (a stack
/// latency on each side of two messages, the flash read) and one
/// exponential arrival gap on `rd1k_*`, a Zipf rank on `cache_zipf`.
fn variates(c: &mut Criterion) {
    let median = SimDuration::from_micros(76);
    let (read, gap) = (LogNormal::new(median, 0.11), Exponential::new(median));
    let mut group = c.benchmark_group("variates");
    group.bench_function("lognormal", |b| {
        let mut rng = SimRng::seed(1);
        b.iter(|| rng.lognormal(read))
    });
    group.bench_function("exponential", |b| {
        let mut rng = SimRng::seed(1);
        b.iter(|| rng.exponential(gap))
    });
    group.bench_function("zipf", |b| {
        let (mut rng, zipf) = (SimRng::seed(1), Zipf::new(1 << 22, 0.99));
        b.iter(|| zipf.sample(&mut rng))
    });
    group.finish();
    if !c.selected("variates/guard") {
        return;
    }
    // Best of five, alternating, so a slow phase of the host hits both.
    let (mut rng, mut reference_rng) = (SimRng::seed(1), SimRng::seed(1));
    let (mut ziggurat, mut box_muller) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        ziggurat = ziggurat.min(ns_per_call(2_000_000, || rng.lognormal(read)));
        box_muller = box_muller.min(ns_per_call(2_000_000, || {
            reference::lognormal(&mut reference_rng, median, 0.11)
        }));
    }
    println!(
        "variates guard: {ziggurat:.1} ns per ziggurat lognormal, {box_muller:.1} ns per \
         Box-Muller one ({:.2}x, limit {VARIATE_GUARD_LIMIT}x)",
        ziggurat / box_muller
    );
    assert!(
        ziggurat <= VARIATE_GUARD_LIMIT * box_muller,
        "a lognormal draw calls libm on its fast path again"
    );
}

/// A recorder holding `tenants` tenants, each with a span in every stage,
/// recording one more span for the one in the middle.
struct SpanRecorder {
    telemetry: Telemetry,
    tenant: TenantKey,
    nanos: u64,
}

impl SpanRecorder {
    fn new(tenants: u32) -> Self {
        let telemetry = Telemetry::enabled();
        for t in 0..tenants {
            for stage in Stage::ALL {
                telemetry.span_nanos(TenantKey(t), stage, 1_000);
            }
        }
        SpanRecorder {
            telemetry,
            tenant: TenantKey(tenants / 2),
            nanos: 0,
        }
    }

    fn step(&mut self) {
        // 1-100 µs, a channel's range, so the histogram window holds still.
        self.nanos = (self.nanos + 7_919) % 99_000;
        let d = SimDuration::from_nanos(1_000 + self.nanos);
        self.telemetry.span(self.tenant, Stage::Channel, d);
    }
}

/// How much a span may cost among 6 000 tenants over one among 4: the
/// recorder finds a tenant's record by index, whatever else it holds
/// (measured 1.00x at ~12 ns). A map keyed by (tenant, stage) under a lock
/// measured 1.53-1.58x here, at 30-60 ns.
const SPAN_GUARD_LIMIT: f64 = 1.3;

fn telemetry_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_span");
    for tenants in [4u32, 6_000] {
        group.bench_function(format!("{tenants}_tenants"), |b| {
            let mut rec = SpanRecorder::new(tenants);
            b.iter(|| rec.step());
        });
    }
    group.finish();
    if !c.selected("telemetry_span/guard") {
        return;
    }
    // Best of five, alternating, so a slow phase of the host hits both.
    let (mut few, mut many) = (SpanRecorder::new(4), SpanRecorder::new(6_000));
    let (mut at_4, mut at_6000) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        at_4 = at_4.min(ns_per_call(2_000_000, || few.step()));
        at_6000 = at_6000.min(ns_per_call(2_000_000, || many.step()));
    }
    println!(
        "telemetry_span guard: {at_4:.1} ns per span among 4 tenants, {at_6000:.1} among 6000 \
         ({:.2}x, limit {SPAN_GUARD_LIMIT}x)",
        at_6000 / at_4
    );
    assert!(
        at_6000 <= SPAN_GUARD_LIMIT * at_4,
        "the number of tenants recorded leaks into a span's cost"
    );
}

criterion_group!(
    benches,
    telemetry_span,
    engine_dispatch,
    fabric_backlog,
    request_path,
    variates,
    sched_round,
    bucket_ops,
    histogram_ops,
    device_submit,
    flash_cq,
    header_codec
);
criterion_main!(benches);
