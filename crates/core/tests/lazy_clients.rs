//! A client machine whose workloads only measure responses is never
//! woken: its deliveries are absorbed, in arrival order, by the next pump
//! or the next observer. That changes how many engine events a run takes
//! and nothing else.
//!
//! The oracle is built from inputs alone. The *eager twin* of a scenario
//! is the same scenario with an inert retry budget on every open-loop
//! workload (`max_attempts: 2`, no timeout): `RetryPolicy::is_active()`
//! makes the machine reactive, so it is woken at each exact arrival as
//! every machine was before, and with no error response nothing ever
//! retries. Twin and subject must agree on everything a report says about
//! the simulation; only `engine_events` and `wakes` may differ.

use reflex_core::{
    LoadPattern, RetryPolicy, ServerConfig, Testbed, TestbedReport, WakeStats, WorkloadSpec,
};
use reflex_dataplane::{CacheConfig, DataplaneConfig};
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::{SimDuration, SimRng, SimTime};

const INERT: RetryPolicy = RetryPolicy {
    max_attempts: 2,
    base_backoff: SimDuration::ZERO,
    timeout: None,
};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn lc(iops: u64, read_pct: u8, p95_us: u64) -> TenantClass {
    TenantClass::LatencyCritical(SloSpec::new(
        iops,
        read_pct,
        SimDuration::from_micros(p95_us),
    ))
}

/// A testbed described by plain data, so that it can be built twice.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    machines: usize,
    threads: u32,
    cache: bool,
    link: LinkConfig,
    specs: Vec<WorkloadSpec>,
}

impl Scenario {
    /// The subject as described, or its eager twin.
    fn build(&self, eager: bool) -> Testbed {
        let cache = self.cache.then(|| CacheConfig::with_capacity(8 << 20));
        let mut tb = Testbed::builder()
            .seed(self.seed)
            .link(self.link)
            .server(ServerConfig {
                threads: self.threads,
                max_threads: self.threads,
                dataplane: DataplaneConfig {
                    cache,
                    ..DataplaneConfig::default()
                },
                ..ServerConfig::default()
            })
            .client_machines(vec![StackProfile::ix_tcp(); self.machines])
            .build();
        for spec in &self.specs {
            tb.add_workload(twin_of(spec, eager)).expect("admissible");
        }
        tb
    }

    fn measured(&self, eager: bool, warm: SimDuration, measure: SimDuration) -> TestbedReport {
        let mut tb = self.build(eager);
        tb.run(warm);
        tb.begin_measurement();
        tb.run(measure);
        tb.report()
    }
}

fn twin_of(spec: &WorkloadSpec, eager: bool) -> WorkloadSpec {
    let open_loop = matches!(spec.pattern, LoadPattern::OpenLoop { .. });
    match eager && open_loop {
        true => spec.clone().with_retry(INERT),
        false => spec.clone(),
    }
}

fn open_loop(t: u32, class: TenantClass, iops: f64, read_pct: u8, machine: usize) -> WorkloadSpec {
    let mut spec = WorkloadSpec::open_loop(&format!("t{t}"), TenantId(t + 1), class, iops);
    spec.read_pct = read_pct;
    spec.client_machine = machine;
    spec
}

/// 1–4 client machines, 1–40 open-loop tenants (LC and BE, reads and
/// writes), 1–2 server threads, cache on or off, sometimes a zero-
/// propagation link, sometimes a closed-loop workload sharing machine 0
/// with open-loop ones.
fn generated(seed: u64) -> Scenario {
    let mut rng = SimRng::seed(seed);
    let machines = 1 + rng.below(4) as usize;
    let tenants = 1 + rng.below(40) as u32;
    let mut specs = Vec::new();
    for t in 0..tenants {
        let machine = rng.below(machines as u64) as usize;
        let read_pct = [100, 80, 50][rng.below(3) as usize];
        let mut spec = if t < 10 && rng.below(3) == 0 {
            open_loop(
                t,
                lc(2_000, read_pct.max(80), 1_000),
                1_800.0,
                read_pct.max(80),
                machine,
            )
        } else {
            let iops = 1_000.0 + rng.below(6_000) as f64;
            open_loop(t, TenantClass::BestEffort, iops, read_pct, machine)
        };
        spec.conns = 1 + rng.below(4) as u32;
        spec.io_size = [1024, 4096][rng.below(2) as usize];
        if rng.below(2) == 0 {
            // A hot namespace, so that a cache has something to hit.
            spec.namespace = (0, 4 << 20);
        }
        specs.push(spec);
    }
    if rng.below(3) == 0 {
        let mut closed =
            WorkloadSpec::closed_loop("closed", TenantId(1_000), TenantClass::BestEffort, 2);
        closed.conns = 2;
        specs.push(closed);
    }
    let propagation = match rng.below(4) {
        0 => SimDuration::ZERO,
        _ => LinkConfig::default().propagation,
    };
    Scenario {
        seed: seed ^ 0x5eed,
        machines,
        threads: 1 + rng.below(2) as u32,
        cache: rng.below(2) == 0,
        link: LinkConfig {
            propagation,
            ..LinkConfig::default()
        },
        specs,
    }
}

/// Everything a report says about the simulation: every field except
/// `engine_events`, `wakes` and the telemetry snapshot (compared apart).
fn sim_view(report: &TestbedReport) -> String {
    let hists: Vec<_> = report
        .workloads
        .iter()
        .map(|w| (w.read_latency.encode(), w.write_latency.encode()))
        .collect();
    let rest = (
        report.window,
        &report.workloads,
        hists,
        &report.threads,
        report.token_usage_per_sec.to_bits(),
        report.device,
        &report.renegotiations,
    );
    format!("{rest:#?}")
}

/// The telemetry snapshot without the two counters that describe the
/// execution: `engine.events`, and `client.absorbed`, which only a machine
/// that is not woken bumps.
fn telemetry_view(report: &TestbedReport) -> String {
    let mut snap = report.telemetry.clone().expect("telemetry enabled");
    snap.counters.remove("engine.events");
    snap.counters.remove("client.absorbed");
    format!("{snap:#?}")
}

fn completed(report: &TestbedReport) -> u64 {
    let secs = report.window.as_secs_f64();
    (report.workloads.iter().map(|w| w.iops * secs).sum::<f64>()).round() as u64
}

fn assert_same_sim(subject: &TestbedReport, twin: &TestbedReport, what: &str) {
    let (s, t) = (sim_view(subject), sim_view(twin));
    if s != t {
        let line = s.lines().zip(t.lines()).position(|(a, b)| a != b);
        let at = line.unwrap_or(0);
        panic!(
            "{what}: subject and eager twin differ at line {at}:\n  subject: {:?}\n  twin:    {:?}",
            s.lines().nth(at),
            t.lines().nth(at)
        );
    }
    assert!(completed(subject) > 0, "{what}: nothing completed");
    let errors: u64 = subject.workloads.iter().map(|w| w.errors + w.retries).sum();
    assert_eq!(errors, 0, "{what}: the twin's retry budget must stay inert");
}

#[test]
fn generated_scenarios_match_their_eager_twins() {
    let (mut lazy_machines, mut mixed, mut zero_propagation) = (0, 0, 0);
    for seed in 0..24 {
        let sc = generated(seed);
        let subject = sc.measured(false, ms(4), ms(12));
        let twin = sc.measured(true, ms(4), ms(12));
        assert_same_sim(&subject, &twin, &format!("seed {seed}: {sc:?}"));
        // The twin is woken for every response; the subject only where a
        // closed-loop workload lives.
        assert!(
            twin.wakes.client_armed >= completed(&twin) / 2,
            "seed {seed}"
        );
        assert_eq!(twin.wakes.client_absorbed, 0, "seed {seed}");
        let has_closed = sc.specs.iter().any(|s| s.name == "closed");
        if !has_closed {
            assert_eq!(subject.wakes.client_armed, 0, "seed {seed}");
            assert!(subject.engine_events < twin.engine_events, "seed {seed}");
        }
        lazy_machines += usize::from(subject.wakes.client_absorbed > 0);
        mixed += usize::from(has_closed);
        zero_propagation += usize::from(sc.link.propagation == SimDuration::ZERO);
    }
    assert!(lazy_machines >= 20 && mixed >= 3 && zero_propagation >= 3);
}

/// LC tenants on two machines offered three times their reservation:
/// rate-limited, each misses its 1 ms SLO in every 10 ms window, and the
/// violation log is in arrival order across machines — which pins the
/// order `absorb` merges machines in.
#[test]
fn telemetry_matches_the_eager_twin_violation_order_included() {
    let mut specs = Vec::new();
    for t in 0..40 {
        let machine = t as usize % 2;
        specs.push(open_loop(t, lc(2_000, 100, 1_000), 6_000.0, 100, machine));
    }
    for t in 40..44 {
        let mut spec = open_loop(t, TenantClass::BestEffort, 40_000.0, 50, t as usize % 3);
        spec.conns = 4;
        specs.push(spec);
    }
    let sc = Scenario {
        seed: 19,
        machines: 3,
        threads: 1,
        cache: false,
        link: LinkConfig::default(),
        specs,
    };
    let run = |eager: bool| {
        let mut tb = sc.build(eager);
        tb.enable_telemetry();
        tb.run(ms(5));
        tb.begin_measurement();
        tb.run(ms(100));
        tb.report()
    };
    let (subject, twin) = (run(false), run(true));
    assert_same_sim(&subject, &twin, "slo run");
    assert_eq!(telemetry_view(&subject), telemetry_view(&twin));
    let snap = subject.telemetry.as_ref().expect("enabled");
    let tenants = |parity: u32| -> usize {
        let on_machine = snap
            .violations
            .iter()
            .filter(|v| (v.tenant.0 - 1) % 2 == parity);
        on_machine.count()
    };
    assert!(
        tenants(0) >= 100 && tenants(1) >= 100,
        "violations on both machines: {} and {}",
        tenants(0),
        tenants(1)
    );
    assert_eq!(
        snap.counters["client.absorbed"], subject.wakes.client_absorbed,
        "enabled telemetry counts what the report counts"
    );
    assert!(!twin
        .telemetry
        .expect("enabled")
        .counters
        .contains_key("client.absorbed"));
}

/// Four machines of open-loop 1 KB readers at 0.9 of one thread's knee.
fn rd1k_knee(seed: u64) -> Scenario {
    let specs = (0..4u32).map(|t| {
        let mut spec = open_loop(t, TenantClass::BestEffort, 810_000.0 / 4.0, 100, t as usize);
        spec.io_size = 1024;
        spec.conns = 48;
        spec.client_threads = 8;
        spec
    });
    Scenario {
        seed,
        machines: 4,
        threads: 1,
        cache: false,
        link: LinkConfig::forty_gbe(),
        specs: specs.collect(),
    }
}

/// 40 LC and 160 BE tenants with writes on two threads, at the token cap.
fn tenants_rw(seed: u64) -> Scenario {
    let specs = (0..200u32).map(|t| match t < 40 {
        true => open_loop(t, lc(2_000, 80, 1_000), 2_000.0, 80, t as usize % 2),
        false => open_loop(t, TenantClass::BestEffort, 500.0, 50, t as usize % 2),
    });
    Scenario {
        seed,
        machines: 2,
        threads: 2,
        cache: false,
        link: LinkConfig::default(),
        specs: specs.collect(),
    }
}

/// A response exactly on a run's last instant belongs to that run, and
/// one exactly on `begin_measurement` to the warm-up.
#[test]
fn a_delivery_on_a_runs_last_instant_and_on_begin_measurement() {
    let sc = generated(3);
    let run = |eager: bool| {
        let mut tb = sc.build(eager);
        tb.begin_measurement();
        tb.run(ms(3));
        // Run to the next response's very instant, twice: once to read
        // a report there, once to begin measuring there.
        let mut views = Vec::new();
        for _ in 0..2 {
            let world = tb.world();
            let heads = (0..world.client_count())
                .filter_map(|c| world.fabric().next_arrival(world.client_machine(c)));
            let next = heads.min().expect("responses on their way");
            assert!(next > tb.now(), "a landed response left in the fabric");
            tb.run(next.saturating_since(tb.now()));
            assert_eq!(tb.now(), next);
            views.push(sim_view(&tb.report()));
            tb.begin_measurement();
        }
        tb.run(ms(2));
        views.push(sim_view(&tb.report()));
        (views, completed(&tb.report()))
    };
    let (subject, twin) = (run(false), run(true));
    assert_eq!(subject, twin);
    assert!(subject.1 > 0);
}

/// How a window is cut into `Testbed::run` calls shows nowhere — not in
/// the event count, not in any wake count: a run ends with a call, not
/// with an event.
#[test]
fn fifty_slices_equal_one_run() {
    let sc = rd1k_knee(31);
    let one = sc.measured(false, ms(2), ms(10));
    let mut tb = sc.build(false);
    tb.run(ms(2));
    tb.begin_measurement();
    for _ in 0..50 {
        tb.run(SimDuration::from_micros(200));
    }
    let sliced = tb.report();
    assert_eq!(sim_view(&sliced), sim_view(&one));
    assert_eq!(sliced.engine_events, one.engine_events);
    assert_eq!(sliced.wakes, one.wakes);
    assert!(one.wakes.client_absorbed > 0);
}

/// A `Call` closure in the middle of a run sees no landed response still
/// in the fabric, and the same number of messages in flight as in the
/// twin, whose machines polled each response at its instant.
#[test]
fn a_call_mid_run_sees_every_landed_response_absorbed() {
    let sc = rd1k_knee(5);
    let run = |eager: bool| {
        let mut tb = sc.build(eager);
        tb.begin_measurement();
        let (tx, rx) = std::sync::mpsc::channel();
        for us in [1_500, 2_750, 4_001] {
            let tx = tx.clone();
            tb.schedule_at(SimTime::from_micros(us), move |world, ctx| {
                let landed = (0..world.client_count())
                    .filter_map(|c| world.fabric().next_arrival(world.client_machine(c)))
                    .filter(|&at| at <= ctx.now())
                    .count();
                tx.send((landed, world.fabric().in_flight()))
                    .expect("receiver alive");
            });
        }
        tb.run(ms(5));
        let seen: Vec<_> = rx.try_iter().collect();
        // Between runs the same holds: issued = completed + still out.
        let report = tb.report();
        let issued: u64 = report.workloads.iter().map(|w| w.issued).sum();
        (seen, issued - completed(&report), sim_view(&report))
    };
    let (subject, twin) = (run(false), run(true));
    assert_eq!(subject.0.len(), 3);
    assert!(subject
        .0
        .iter()
        .all(|&(landed, in_flight)| landed == 0 && in_flight > 0));
    assert_eq!(subject, twin);
}

/// A reactive machine's response waits for its wake, armed at its very
/// instant, even when an observer is dispatched first at that instant: a
/// `Call` there sees what arrived before it — machine 0's responses —
/// and finds machine 1's still in the fabric, as it always did.
#[test]
fn a_reactive_machines_response_waits_for_its_wake() {
    let mut closed = WorkloadSpec::closed_loop("closed", TenantId(9), TenantClass::BestEffort, 2);
    closed.client_machine = 1;
    let sc = Scenario {
        seed: 23,
        machines: 2,
        threads: 1,
        cache: false,
        link: LinkConfig::default(),
        specs: vec![
            open_loop(0, TenantClass::BestEffort, 200_000.0, 100, 0),
            closed,
        ],
    };
    // The same run twice: once to learn an arrival instant on machine 1,
    // once with a `Call` queued for that instant before its wake is.
    let mut tb = sc.build(false);
    tb.run(ms(3));
    let at = loop {
        let world = tb.world();
        match world.fabric().next_arrival(world.client_machine(1)) {
            Some(at) => break at,
            None => tb.run(SimDuration::from_micros(1)),
        }
    };
    let mut tb = sc.build(false);
    let (tx, rx) = std::sync::mpsc::channel();
    tb.schedule_at(at, move |world, ctx| {
        let head = |c| world.fabric().next_arrival(world.client_machine(c));
        tx.send((ctx.now(), head(0), head(1)))
            .expect("receiver alive");
    });
    tb.run(ms(4));
    let (now, open_head, closed_head) = rx.try_recv().expect("the call ran");
    assert_eq!(now, at);
    assert!(
        open_head.is_none_or(|head| head > now),
        "absorbed before the call"
    );
    assert_eq!(closed_head, Some(now), "left for the wake that follows");
}

/// A closed-loop workload added between runs makes its machine reactive
/// while open-loop responses are on their way to it: from that instant
/// it is woken exactly as its twin, which was reactive all along.
#[test]
fn a_machine_that_turns_reactive_between_runs() {
    let specs = (0..6).map(|t| open_loop(t, TenantClass::BestEffort, 30_000.0, 80, 0));
    let sc = Scenario {
        seed: 11,
        machines: 1,
        threads: 1,
        cache: false,
        link: LinkConfig::default(),
        specs: specs.collect(),
    };
    let run = |eager: bool| {
        let mut tb = sc.build(eager);
        tb.run(ms(3));
        tb.begin_measurement();
        let world = tb.world();
        let pending = world.fabric().next_arrival(world.client_machine(0));
        assert!(
            pending.is_some_and(|at| at > tb.now()),
            "responses on their way"
        );
        let before = tb.report();
        let mut closed =
            WorkloadSpec::closed_loop("closed", TenantId(100), TenantClass::BestEffort, 4);
        closed.conns = 2;
        tb.add_workload(closed).expect("admissible");
        tb.run(ms(6));
        let after = tb.report();
        let armed = after.wakes.client_armed - before.wakes.client_armed;
        (
            sim_view(&after),
            after.engine_events - before.engine_events,
            armed,
        )
    };
    let (subject, twin) = (run(false), run(true));
    assert_eq!(subject.0, twin.0);
    // Event for event the same from the instant the workload is added;
    // the subject arms then the one wake its twin already held.
    assert_eq!(
        subject.1, twin.1,
        "engine events after the machine turned reactive"
    );
    assert_eq!(
        subject.2,
        twin.2 + 1,
        "client wakes armed after it turned reactive"
    );
}

/// With every generator stopped the last responses land after the last
/// pump: the end of the run absorbs them.
#[test]
fn stopped_workloads_drain_through_a_long_idle_run() {
    let sc = generated(6);
    let run = |eager: bool| {
        let mut tb = sc.build(eager);
        tb.begin_measurement();
        tb.run(ms(4));
        tb.world_mut().stop_all_workloads();
        tb.run(ms(60));
        assert_eq!(tb.world().fabric().in_flight(), 0);
        tb.report()
    };
    let (subject, twin) = (run(false), run(true));
    assert_same_sim(&subject, &twin, "drained");
    let issued: u64 = subject.workloads.iter().map(|w| w.issued).sum();
    assert_eq!(issued, completed(&subject), "every request answered");
}

/// The perf guard, as counts any host repeats. Events per completed IO:
/// 2.29 on `rd1k_knee` and 4.69 on `tenants_rw` when every response woke
/// its machine, 1.29 and 3.69 now. The pump that sends responses absorbs
/// those that have landed, so the fabric holds little more than it did
/// when each was polled at its instant.
#[test]
fn a_response_nobody_reacts_to_costs_no_event() {
    for (sc, limit) in [(rd1k_knee(31), 1.5), (tenants_rw(31), 4.0)] {
        let mut tb = sc.build(false);
        tb.run(ms(20));
        tb.begin_measurement();
        let warm = tb.report();
        tb.run(ms(60));
        let report = tb.report();
        let events = (report.engine_events - warm.engine_events) as f64;
        let per_io = events / completed(&report) as f64;
        assert!(
            per_io <= limit,
            "{per_io:.2} engine events per completed IO"
        );
        let w = report.wakes;
        assert_eq!(
            (w.client_armed, w.client_polls, w.client_polls_empty),
            (0, 0, 0)
        );
        let absorbed = w.client_absorbed - warm.wakes.client_absorbed;
        assert_eq!(absorbed, completed(&report), "one absorbed delivery per IO");
        let held = tb.world().fabric().in_flight_high_water();
        let mut twin = sc.build(true);
        twin.run(ms(80));
        let eager = twin.world().fabric().in_flight_high_water();
        assert!(
            held <= eager * 3 / 2,
            "fabric held {held}, {eager} when polled eagerly"
        );
    }
}

/// Closed-loop machines are woken exactly as before: the wake counts of
/// this run are the ones recorded at commit cdaf428, when every machine
/// was (7 240 armed, 7 238 fired, 18 164 events).
#[test]
fn closed_loop_machines_keep_their_wakes() {
    let specs = (0..2u32).map(|m| {
        let mut spec = WorkloadSpec::closed_loop(
            &format!("c{m}"),
            TenantId(m + 1),
            TenantClass::BestEffort,
            4,
        );
        spec.conns = 4;
        spec.client_machine = m as usize;
        spec
    });
    let sc = Scenario {
        seed: 7,
        machines: 2,
        threads: 1,
        cache: false,
        link: LinkConfig::default(),
        specs: specs.collect(),
    };
    let report = sc.measured(false, ms(5), ms(20));
    let w = report.wakes;
    assert_eq!(
        w,
        WakeStats {
            thread_armed: 12_378,
            thread_cancelled: 1_485,
            client_armed: 7_240,
            client_cancelled: 0,
            client_polls: 7_238,
            ..WakeStats::default()
        }
    );
    assert_eq!(report.engine_events, 18_164);
    // Every wake armed either fired or is still pending (at most one per
    // machine), and each one that fired found its message.
    let polled = w.client_armed - w.client_cancelled;
    assert!((polled - 2..=polled).contains(&w.client_polls), "{w:?}");
    assert_eq!(w, sc.measured(false, ms(5), ms(20)).wakes, "deterministic");
}
