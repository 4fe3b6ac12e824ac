//! Steady-state allocation budget for the hot request path.
//!
//! Installs the counting allocator from `reflex_sim::alloc_count` as this
//! binary's global allocator and measures five windows:
//!
//! 1. The engine alone: a self-rescheduling typed-event churn must run in
//!    recycled slab nodes and wheel slots — effectively zero allocations
//!    per dispatch once the population is built.
//! 2. End to end: a closed-loop testbed in steady state. Every per-IO
//!    structure (event nodes, in-flight slabs, scratch batch buffers, wire
//!    headers) is pooled, so allocations per completed IO must stay under a
//!    small fixed budget (amortized growth of long-lived containers and
//!    the 10ms control tick are all that remain).
//! 3. The same with the DRAM cache tier serving hits.
//! 4. A replicated run with one replica's server dead: the retry storm
//!    runs on typed events, within the same per-IO budget.
//! 5. A fresh fabric filling one receive queue: its run of whole messages
//!    is built with room for 64, and no body lives anywhere else, so the
//!    first 64 allocate nothing and no seed decides when a shallow queue
//!    doubles.
//! 6. A histogram after its construction: records over all 35 octaves in
//!    descending order, a merge, a reset and more records stay inside the
//!    room `Histogram::new` reserved for every bucket.
//!
//! The counters are process-global, so everything runs inside a single
//! `#[test]` — no other test in this binary may allocate concurrently.

use reflex_core::{AddrPattern, ReadPolicy, RetryPolicy, ServerConfig, Testbed, WorkloadSpec};
use reflex_dataplane::{CacheConfig, DataplaneConfig};
use reflex_faults::{FaultCounts, PlannedDeviceHook, PlannedNetHook};
use reflex_net::{Fabric, LinkConfig, StackProfile};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::alloc_count::{allocations, CountingAlloc};
use reflex_sim::{Ctx, Engine, Histogram, SimDuration, SimRng, SimTime, TypedEvent};
use std::cell::Cell;
use std::rc::Rc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct ChurnWorld {
    rng: u64,
    dispatched: u64,
    budget: u64,
    width: u64,
}

#[derive(Clone, Copy)]
struct ChainTick;

impl TypedEvent<ChurnWorld> for ChainTick {
    fn dispatch(self, w: &mut ChurnWorld, ctx: &mut Ctx<'_, ChurnWorld, ChainTick>) {
        w.dispatched += 1;
        if w.dispatched + w.width > w.budget {
            return; // drain
        }
        w.rng = w
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let nanos = 200 + w.rng % 2_000_000;
        ctx.schedule_event_after(SimDuration::from_nanos(nanos), ChainTick);
    }
}

fn engine_allocs_per_dispatch() -> f64 {
    let width = 1024u64;
    let budget = 200_000u64;
    let mut e = Engine::with_events(ChurnWorld {
        rng: 0x9e3779b97f4a7c15,
        dispatched: 0,
        budget,
        width,
    });
    for i in 0..width {
        e.schedule_event_at(SimTime::from_nanos(i * 100), ChainTick);
    }
    // Warm up: build the event population, the slab, and the wheel.
    e.run_for(SimDuration::from_millis(40));
    let warmed = e.world().dispatched;
    let before = allocations();
    e.run_to_completion();
    let after = allocations();
    let dispatched = e.world().dispatched - warmed;
    assert!(dispatched > budget / 2, "churn must mostly run post-warmup");
    (after - before) as f64 / dispatched as f64
}

fn testbed_allocs_per_io() -> f64 {
    let mut tb = Testbed::builder().server_threads(1).build();
    let tenant = TenantId(1);
    let slo = SloSpec::new(200_000, 100, SimDuration::from_millis(1));
    let mut spec =
        WorkloadSpec::closed_loop("alloc-probe", tenant, TenantClass::LatencyCritical(slo), 16);
    spec.conns = 4;
    spec.read_pct = 80;
    tb.add_workload(spec).expect("valid workload");
    // Warm up: connections fill their queue depth, pools and histograms
    // reach steady-state size.
    tb.run(SimDuration::from_millis(200));
    let ios_before = completed_ios(&tb);
    let before = allocations();
    tb.run(SimDuration::from_millis(300));
    let after = allocations();
    let ios = completed_ios(&tb) - ios_before;
    assert!(
        ios > 10_000,
        "steady-state window must carry real load: {ios}"
    );
    (after - before) as f64 / ios as f64
}

/// Same steady-state window with the DRAM cache tier on and a hot,
/// write-carrying mix, so hits, misses, fills, evictions and
/// write-around invalidations all run inside the measured window. The
/// cache is slab-backed (fixed ways, generation-checked entries), so the
/// budget is the same as the plain path.
fn cached_testbed_allocs_per_io() -> f64 {
    let mut cache = CacheConfig::with_capacity(4 << 20);
    cache.line_bytes = 4096;
    let mut tb = Testbed::builder()
        .server(ServerConfig {
            dataplane: DataplaneConfig {
                cache: Some(cache),
                ..DataplaneConfig::default()
            },
            ..ServerConfig::default()
        })
        .build();
    let tenant = TenantId(1);
    let slo = SloSpec::new(200_000, 100, SimDuration::from_millis(1));
    let mut spec =
        WorkloadSpec::closed_loop("cache-probe", tenant, TenantClass::LatencyCritical(slo), 16);
    spec.conns = 4;
    spec.read_pct = 80;
    spec.io_size = 4096;
    spec.namespace = (0, 64 << 20);
    spec.addr_pattern = AddrPattern::Zipfian {
        theta_permille: 990,
    };
    tb.add_workload(spec).expect("valid workload");
    tb.run(SimDuration::from_millis(200));
    let ios_before = completed_ios(&tb);
    let before = allocations();
    tb.run(SimDuration::from_millis(300));
    let after = allocations();
    let ios = completed_ios(&tb) - ios_before;
    assert!(
        ios > 10_000,
        "cached steady-state window must carry real load: {ios}"
    );
    let hits: u64 = tb
        .report()
        .threads
        .iter()
        .filter_map(|t| t.stats.as_ref())
        .map(|s| s.cache_hits)
        .sum();
    assert!(hits > 0, "the cached window must actually serve hits");
    (after - before) as f64 / ios as f64
}

/// An R=3 replicated run whose non-primary replica's server died during
/// warmup and stays undetected: through the whole window every quorum
/// read routed to it times out and is retransmitted after a backoff,
/// attempt after attempt, while writes and the other reads keep
/// completing on the surviving majority.
fn degraded_replication_allocs_per_io() -> f64 {
    let mut tb = Testbed::builder().sites(3).replication(3).build();
    let slo = SloSpec::new(40_000, 70, SimDuration::from_micros(800));
    let retry = RetryPolicy {
        max_attempts: 4,
        base_backoff: SimDuration::from_micros(100),
        timeout: Some(SimDuration::from_millis(2)),
    };
    tb.add_workload(
        WorkloadSpec::replicated("repl-probe", TenantId(1), slo, 30_000.0)
            .with_retry(retry)
            .with_read_policy(ReadPolicy::Quorum),
    )
    .expect("valid workload");
    let members = tb.world().member_sites(0);
    let victim = members[(tb.world().primary_slot(0) + 1) % members.len()];
    let death_at = SimTime::ZERO + SimDuration::from_millis(50);
    // What `FaultKind::ServerDeath` arms — a device that aborts, links
    // gone dark — without telling the coordinator, which would fail the
    // set over 30 ms later and end the storm.
    let counts = Rc::new(Cell::new(FaultCounts::default()));
    let mut dev = PlannedDeviceHook::new(Rc::clone(&counts));
    dev.set_death(death_at);
    let mut net = PlannedNetHook::new(counts);
    let machine = tb.world().server_at(victim).machine();
    net.add_link_down(death_at, SimDuration::from_secs(3600), machine);
    let world = tb.world_mut();
    world.device_at_mut(victim).set_fault_hook(Box::new(dev));
    world.fabric_mut().set_fault_hook(Box::new(net));
    tb.run(SimDuration::from_millis(200));
    tb.begin_measurement();
    let before = allocations();
    tb.run(SimDuration::from_millis(300));
    let after = allocations();
    let report = tb.report();
    let w = report.workload("repl-probe");
    let ios = (w.iops * report.window.as_secs_f64()).round();
    assert!(
        ios > 3_000.0,
        "the survivors must keep completing ops: {ios}"
    );
    assert!(
        w.timeouts > 5_000 && w.retries > 5_000,
        "the window must carry a retry storm: {} timeouts, {} retries",
        w.timeouts,
        w.retries
    );
    (after - before) as f64 / ios
}

/// A starved two-thread window — LC tenants at their reservations, BE
/// tenants offered more than the token cap leaves them — in which the
/// threads sleep through the rounds that cannot act: settling those
/// allocates nothing, so the budget is the plain path's.
fn sleeping_testbed_allocs_per_io() -> f64 {
    let mut tb = Testbed::builder().server_threads(2).build();
    for t in 0..40u32 {
        let (class, iops, read_pct) = if t < 8 {
            let slo = SloSpec::new(2_000, 80, SimDuration::from_millis(1));
            (TenantClass::LatencyCritical(slo), 2_000.0, 80)
        } else {
            (TenantClass::BestEffort, 2_500.0, 50)
        };
        let mut spec = WorkloadSpec::open_loop(&format!("t{t}"), TenantId(t + 1), class, iops);
        spec.read_pct = read_pct;
        tb.add_workload(spec).expect("valid workload");
    }
    tb.run(SimDuration::from_millis(200));
    let (ios_before, elided_before) = (completed_ios(&tb), tb.report().wakes.rounds_elided);
    let before = allocations();
    tb.run(SimDuration::from_millis(300));
    let after = allocations();
    let ios = completed_ios(&tb) - ios_before;
    let elided = tb.report().wakes.rounds_elided - elided_before;
    assert!(
        ios > 10_000 && elided > 10_000,
        "the window must carry load and sleep through rounds: {ios} IOs, {elided} rounds elided"
    );
    (after - before) as f64 / ios as f64
}

/// Allocations while a new fabric takes 64 messages on one receive queue
/// with nobody polling. An open-loop client's queue idles at about eight
/// responses between pumps; built empty, it crossed that power of two in
/// `cache_zipf`'s measured window on one seed in four.
fn shallow_queue_allocs() -> u64 {
    let mut fabric: Fabric<u32> = Fabric::new(LinkConfig::default(), SimRng::seed(1));
    let server = fabric.add_machine(StackProfile::dataplane_raw());
    let client = fabric.add_machine(StackProfile::ix_tcp());
    let conn = fabric.new_conn();
    let before = allocations();
    for i in 0..64 {
        fabric.send(
            SimTime::from_micros(i),
            server,
            client,
            conn,
            1024,
            i as u32,
        );
    }
    allocations() - before
}

/// Allocations of one histogram after `new`: its window grows downward an
/// octave per record from the top bucket to the first, takes a merge, is
/// reset and records again.
fn histogram_allocs() -> u64 {
    let mut other = Histogram::new();
    other.record_nanos(3_000);
    other.record_nanos(1 << 45);
    let mut h = Histogram::new();
    let before = allocations();
    for octave in (0..35).rev() {
        h.record_nanos((1 << (octave + 5)) + octave);
    }
    h.merge(&other);
    h.reset();
    for us in [900, 5, 40_000, 1] {
        h.record(SimDuration::from_micros(us));
    }
    let after = allocations();
    assert_eq!(h.count(), 4);
    after - before
}

fn completed_ios(tb: &Testbed) -> u64 {
    let report = tb.report();
    report
        .threads
        .iter()
        .filter_map(|t| t.stats.as_ref())
        .map(|s| s.completed)
        .sum()
}

#[test]
fn steady_state_allocations_stay_within_budget() {
    let engine_rate = engine_allocs_per_dispatch();
    assert!(
        engine_rate < 0.01,
        "engine steady state must not allocate per dispatch: {engine_rate:.4} allocs/event"
    );

    let e2e_rate = testbed_allocs_per_io();
    eprintln!(
        "steady-state allocation rates: engine {engine_rate:.5} allocs/event, \
         end-to-end {e2e_rate:.5} allocs/IO"
    );
    assert!(
        e2e_rate < 0.05,
        "end-to-end steady state exceeded the allocation budget: {e2e_rate:.4} allocs/IO"
    );

    let cached_rate = cached_testbed_allocs_per_io();
    eprintln!("steady-state allocation rate with DRAM cache: {cached_rate:.5} allocs/IO");
    assert!(
        cached_rate < 0.05,
        "cached steady state exceeded the allocation budget: {cached_rate:.4} allocs/IO"
    );

    let sleeping_rate = sleeping_testbed_allocs_per_io();
    eprintln!("allocation rate while threads sleep through rounds: {sleeping_rate:.5} allocs/IO");
    assert!(
        sleeping_rate < 0.05,
        "a sleeping steady state exceeded the allocation budget: {sleeping_rate:.4} allocs/IO"
    );

    let degraded_rate = degraded_replication_allocs_per_io();
    eprintln!("allocation rate of a replicated retry storm: {degraded_rate:.5} allocs/IO");
    assert!(
        degraded_rate < 0.05,
        "a retry storm exceeded the allocation budget: {degraded_rate:.4} allocs/IO"
    );

    assert_eq!(shallow_queue_allocs(), 0, "a shallow receive queue grew");
    assert_eq!(histogram_allocs(), 0, "a histogram allocated after `new`");
}
