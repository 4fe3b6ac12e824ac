//! Sleeping through idle scheduling rounds changes how many engine events
//! a run takes and nothing else.
//!
//! Three kinds of evidence. *Goldens*: whole-testbed scenarios whose
//! report — every field but `engine_events` and `wakes` — hashes to a
//! constant recorded on the commit before threads slept, when every round
//! cost a pump event. *Twins*: a two-thread server driven by one script
//! twice, once following its wake hints and once with every sleep cut to
//! the next round (what the parent did), compared field by field at exact
//! instants no testbed can aim at. *Counts*: events per IO and rounds
//! elided, which stand in for a timer on any host.

use reflex_core::{ServerConfig, Testbed, TestbedReport, WorkloadSpec, World};
use reflex_net::{LinkConfig, StackProfile};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::{SimDuration, SimTime};

fn lc(iops: u64, read_pct: u8) -> TenantClass {
    TenantClass::LatencyCritical(SloSpec::new(iops, read_pct, SimDuration::from_millis(1)))
}

fn two_threads() -> ServerConfig {
    ServerConfig {
        threads: 2,
        max_threads: 2,
        ..ServerConfig::default()
    }
}

fn open_loop(t: u32, class: TenantClass, iops: f64, read_pct: u8, machine: usize) -> WorkloadSpec {
    let mut spec = WorkloadSpec::open_loop(&format!("t{t}"), TenantId(t + 1), class, iops);
    spec.read_pct = read_pct;
    spec.io_size = 4096;
    spec.conns = 1;
    spec.client_threads = 1;
    spec.client_machine = machine;
    spec
}

/// The benchmark's `tenants_rw`: 40 LC tenants (2K IOPS, 80 % reads, 1 ms
/// SLO) and 160 BE tenants offered 500 IOPS at 50 % reads, 4 KB, two
/// server threads, at the device's token cap.
fn tenants_rw(seed: u64, link: LinkConfig) -> Testbed {
    let mut tb = Testbed::builder()
        .seed(seed)
        .link(link)
        .server(two_threads())
        .client_machines(vec![StackProfile::ix_tcp(); 2])
        .build();
    for t in 0..200u32 {
        let spec = if t < 40 {
            open_loop(t, lc(2_000, 80), 2_000.0, 80, t as usize % 2)
        } else {
            open_loop(t, TenantClass::BestEffort, 500.0, 50, t as usize % 2)
        };
        tb.add_workload(spec).expect("admissible");
    }
    tb
}

/// The benchmark's `rd1k_knee`: four BE tenants of 48 connections, 1 KB
/// reads at 0.9 of one thread's knee, 40GbE.
fn rd1k_knee(seed: u64) -> Testbed {
    let mut tb = Testbed::builder()
        .seed(seed)
        .link(LinkConfig::forty_gbe())
        .client_machines(vec![StackProfile::ix_tcp(); 4])
        .build();
    for t in 0..4u32 {
        let mut spec = open_loop(t, TenantClass::BestEffort, 810_000.0 / 4.0, 100, t as usize);
        spec.io_size = 1024;
        spec.conns = 48;
        spec.client_threads = 8;
        tb.add_workload(spec).expect("admissible");
    }
    tb
}

/// One lightly loaded LC tenant alone on thread 0, whose surplus goes to
/// the bucket round after round, and backlogged BE tenants on thread 1
/// (placement follows reserved rate), which sleeps between the donations.
fn donor_and_sleepers(seed: u64) -> Testbed {
    let mut tb = Testbed::builder().seed(seed).server(two_threads()).build();
    tb.add_workload(open_loop(0, lc(60_000, 100), 6_000.0, 100, 0))
        .expect("admissible");
    for t in 1..9 {
        tb.add_workload(open_loop(t, TenantClass::BestEffort, 60_000.0, 50, 0))
            .expect("admissible");
    }
    tb
}

/// BE tenants backlogged with 32 KB reads on thread 1, which sleeps under
/// a device in read-only mode, and on thread 0 one LC tenant whose rare
/// writes (one in ~30 ms; the read-only window is 5) take the device out
/// of it.
fn rare_writer(seed: u64) -> Testbed {
    let mut tb = Testbed::builder()
        .seed(seed)
        .link(LinkConfig::forty_gbe())
        .server(two_threads())
        .build();
    tb.add_workload(open_loop(0, lc(2_000, 90), 330.0, 90, 0))
        .expect("admissible");
    for t in 1..7 {
        let mut spec = open_loop(t, TenantClass::BestEffort, 25_000.0, 100, 0);
        spec.io_size = 32_768;
        tb.add_workload(spec).expect("admissible");
    }
    tb
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over everything the report says about the simulation: every
/// field except `engine_events` and `wakes` (and the telemetry snapshot,
/// which these runs leave off).
fn fingerprint(report: &TestbedReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    assert!(report.telemetry.is_none());
    for w in &report.workloads {
        fnv(&mut h, format!("{w:?}").as_bytes());
        fnv(&mut h, &w.read_latency.encode());
        fnv(&mut h, &w.write_latency.encode());
    }
    let rest = (
        report.window,
        &report.threads,
        report.token_usage_per_sec.to_bits(),
        report.device,
        &report.renegotiations,
    );
    fnv(&mut h, format!("{rest:?}").as_bytes());
    h
}

fn measured(mut tb: Testbed, warm_ms: u64, measure_ms: u64) -> TestbedReport {
    tb.run(SimDuration::from_millis(warm_ms));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(measure_ms));
    tb.report()
}

fn completed(report: &TestbedReport) -> f64 {
    let secs = report.window.as_secs_f64();
    report.workloads.iter().map(|w| w.iops * secs).sum()
}

/// `tenants_rw` with a control-plane or fault entry in the middle of the
/// measured window, while its threads sleep.
fn disturbed(at_ms: u64, disturb: impl FnOnce(&mut World, SimTime) + 'static) -> u64 {
    let mut tb = tenants_rw(31, LinkConfig::default());
    let at = SimTime::from_millis(at_ms);
    tb.schedule_at(at, move |world, ctx| disturb(world, ctx.now()));
    fingerprint(&measured(tb, 20, 40))
}

/// Every field of these reports but `engine_events` and `wakes` is what
/// it was when each round cost a pump event.
#[test]
fn goldens_recorded_before_threads_slept() {
    let mut got = Vec::new();
    let report = measured(tenants_rw(31, LinkConfig::default()), 20, 60);
    got.push(("tenants_rw", fingerprint(&report)));

    let zero_propagation = LinkConfig {
        propagation: SimDuration::ZERO,
        ..LinkConfig::default()
    };
    let report = measured(tenants_rw(47, zero_propagation), 20, 40);
    got.push(("zero-propagation link", fingerprint(&report)));

    let report = measured(donor_and_sleepers(5), 20, 60);
    got.push((
        "a sibling's donation while a thread sleeps",
        fingerprint(&report),
    ));

    let report = measured(rare_writer(9), 20, 100);
    got.push(("a sibling's write, ReadOnly -> Mixed", fingerprint(&report)));

    let stalled = disturbed(33, |world, now| {
        let stall = SimDuration::from_micros(300);
        world.server_mut().thread_mut(1).inject_stall(now, stall);
    });
    got.push(("a stall mid-sleep", stalled));

    let moved = disturbed(37, |world, _| {
        let server = world.server_mut();
        server.unregister_tenant(TenantId(45)).expect("registered");
        server.move_tenant(TenantId(46), 0).expect("registered");
        server.move_tenant(TenantId(3), 1).expect("registered");
    });
    got.push(("unregister + move_tenant mid-sleep", moved));

    // A tenant admitted between two runs, while threads sleep.
    let mut tb = tenants_rw(31, LinkConfig::default());
    tb.run(SimDuration::from_millis(30));
    tb.begin_measurement();
    tb.add_workload(open_loop(300, lc(1_000, 100), 1_000.0, 100, 1))
        .expect("admissible");
    tb.run(SimDuration::from_millis(30));
    got.push(("a tenant admitted between runs", fingerprint(&tb.report())));

    assert_eq!(got, GOLDENS, "{got:#x?}");
}

/// Recorded at commit 9880467, the last at which every scheduling round
/// was a pump event, and re-recorded once when `ThreadStats` lost its
/// barrier and fence-bypass counters, which read 0 in every scenario
/// here: the hash covers the stats' `Debug` text, and with those two zero
/// fields written back into it the reports still hash to 9880467's
/// values.
const GOLDENS: [(&str, u64); 7] = [
    ("tenants_rw", 0x1d68_a800_856f_0fa3),
    ("zero-propagation link", 0x2ae9_2327_4c73_e1cb),
    (
        "a sibling's donation while a thread sleeps",
        0x73b1_1c0a_ed82_b976,
    ),
    (
        "a sibling's write, ReadOnly -> Mixed",
        0x60b0_23e2_94a4_69cb,
    ),
    ("a stall mid-sleep", 0x9568_80fb_03b2_1be0),
    ("unregister + move_tenant mid-sleep", 0x0de5_6150_d1e0_5606),
    ("a tenant admitted between runs", 0xee23_6b38_4dec_a9b6),
];

/// How a window is cut into `Testbed::run` calls shows nowhere, event and
/// wake counts included: the settle that ends each run arms nothing.
#[test]
fn fifty_slices_equal_one_run() {
    let one = measured(tenants_rw(31, LinkConfig::default()), 20, 50);
    let mut tb = tenants_rw(31, LinkConfig::default());
    tb.run(SimDuration::from_millis(20));
    tb.begin_measurement();
    for _ in 0..50 {
        tb.run(SimDuration::from_millis(1));
    }
    let sliced = tb.report();
    assert_eq!(fingerprint(&sliced), fingerprint(&one));
    assert_eq!(sliced.engine_events, one.engine_events);
    // A run that ends mid-sleep settles in two passes what one would.
    let passes = |r: &TestbedReport| r.wakes.settle_calls;
    assert!(passes(&one) <= passes(&sliced) && passes(&sliced) <= passes(&one) + 50);
    let but_passes = |r: &TestbedReport| reflex_core::WakeStats {
        settle_calls: 0,
        ..r.wakes
    };
    assert_eq!(but_passes(&sliced), but_passes(&one));
    assert!(one.wakes.rounds_elided > 0);
}

/// The perf guard, as counts any host repeats: on `tenants_rw` a round
/// that cannot act costs no engine event (6.9 events per IO when each
/// did, 4.7 after, 3.7 since open-loop clients are no longer woken for
/// each response), and on `rd1k_knee`, which has no such round, sleeping
/// moved nothing: its event count was 148 209 before threads slept and
/// after, and is that less its 64 625 `ClientPoll`s now (64 635 responses
/// absorbed).
#[test]
fn a_round_that_cannot_act_costs_no_event() {
    let mut tb = tenants_rw(31, LinkConfig::default());
    tb.run(SimDuration::from_millis(100));
    tb.begin_measurement();
    let warm = tb.report();
    tb.run(SimDuration::from_millis(300));
    let report = tb.report();
    let rounds = |r: &TestbedReport| -> u64 {
        let stats = r.threads.iter().filter_map(|t| t.stats);
        stats.map(|s| s.sched_rounds).sum()
    };
    let events = (report.engine_events - warm.engine_events) as f64;
    let elided = (report.wakes.rounds_elided - warm.wakes.rounds_elided) as f64;
    let per_io = events / completed(&report);
    let share = elided / (rounds(&report) - rounds(&warm)) as f64;
    assert!(per_io <= 4.5, "{per_io:.2} engine events per completed IO");
    assert!(share >= 0.4, "{share:.2} of the rounds elided");
    assert!(report.wakes.settle_calls <= report.wakes.rounds_elided);

    let report = measured(rd1k_knee(31), 20, 60);
    assert_eq!(report.wakes.rounds_elided, 0);
    assert_eq!(report.wakes.settle_calls, 0);
    assert_eq!(report.engine_events, 83_584);
    assert_eq!(report.wakes.client_absorbed, 64_635);
}

// ---------------------------------------------------------------------
// Twins: a two-thread server outside any testbed, so that requests, stalls
// and control-plane calls land on chosen nanoseconds.

use reflex_core::{CapacityProfile, ReflexServer};
use reflex_dataplane::{AclEntry, WireMsg};
use reflex_flash::{device_a, FlashDevice};
use reflex_net::{ConnId, Delivery, Fabric, MachineId, Opcode, ReflexHeader};
use reflex_qos::CostModel;
use reflex_sim::SimRng;

const NANO: SimDuration = SimDuration::from_nanos(1);

fn earlier(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Stall(usize, SimDuration),
    Unregister(u32),
    Move(u32, usize),
}

/// The core testbed's pump loop in miniature. `eager` cuts every sleep to
/// the next round right after the hint that began it, so each round is
/// pumped at its instant: the parent's behaviour.
struct Rig {
    eager: bool,
    fabric: Fabric<WireMsg>,
    device: FlashDevice,
    server: ReflexServer,
    client: MachineId,
    conns: Vec<ConnId>,
    wake: [Option<SimTime>; 2],
    cookie: u64,
}

impl Rig {
    /// LC tenants 0 and 1 and BE tenants 2..8, alternating between the
    /// two threads: even ids on thread 0.
    fn new(eager: bool) -> Rig {
        let mut fabric = Fabric::new(LinkConfig::default(), SimRng::seed(7));
        let client = fabric.add_machine(StackProfile::ix_tcp());
        let machine = fabric.add_machine(StackProfile::dataplane_raw());
        let profile = device_a();
        let mut device = FlashDevice::new(profile.clone(), SimRng::seed(8));
        device.precondition();
        let mut server = ReflexServer::new(
            machine,
            &mut fabric,
            &mut device,
            CostModel::for_profile(&profile),
            CapacityProfile::for_profile(&profile),
            two_threads(),
            SimTime::ZERO,
        );
        let mut conns = Vec::new();
        for id in 0..8u32 {
            let class = if id < 2 {
                lc(1_000, 100)
            } else {
                TenantClass::BestEffort
            };
            let acl = AclEntry::full(profile.capacity_bytes);
            let thread = server
                .register_tenant(TenantId(id), class, acl, 4096)
                .expect("admissible");
            assert_eq!(thread, id as usize % 2);
            let conn = fabric.new_conn();
            server
                .bind_connection(conn, TenantId(id), client)
                .expect("registered");
            conns.push(conn);
        }
        Rig {
            eager,
            fabric,
            device,
            server,
            client,
            conns,
            wake: [None; 2],
            cookie: 0,
        }
    }

    /// A request of `tenant`'s — 4 KB, or a 32 KB read for a BE tenant —
    /// that reaches its thread's NIC queue at exactly `at`.
    fn request(&mut self, at: SimTime, tenant: u32, write: bool) {
        let len = if write || tenant < 2 { 4096 } else { 32_768 };
        self.cookie += 1;
        let header = ReflexHeader {
            opcode: if write { Opcode::Put } else { Opcode::Get },
            tenant,
            cookie: self.cookie,
            addr: self.cookie % 1_000 * 32_768,
            len,
        };
        let conn = self.conns[tenant as usize];
        let delivery = Delivery {
            from: self.client,
            conn,
            arrived_at: at,
            size: if write { len } else { 0 },
            payload: header.encode_array(),
        };
        let queue = self.server.route(conn).expect("bound");
        let thread = self.server.thread_of_conn(conn).expect("bound");
        // Requeued messages surface 500 ns later.
        let sent = SimTime::from_nanos(at.as_nanos() - 500);
        self.fabric
            .requeue(sent, self.server.machine(), queue, delivery);
        self.wake[thread] = earlier(self.wake[thread], Some(at));
    }

    fn next_arrival(&self, thread: usize) -> Option<SimTime> {
        let queue = self.server.threads()[thread].nic_queue();
        self.fabric.next_arrival_queue(self.server.machine(), queue)
    }

    /// Re-arms every thread from its queue and its round grid.
    fn rearm(&mut self, now: SimTime) {
        for t in 0..2 {
            if self.eager {
                self.server.thread_mut(t).wake();
            }
            let round = self.server.threads()[t].round_wake(now);
            self.wake[t] = earlier(self.wake[t], earlier(self.next_arrival(t), round));
        }
    }

    fn act(&mut self, now: SimTime, action: Action) {
        self.server.settle(now);
        match action {
            Action::Stall(thread, stall) => {
                self.server.thread_mut(thread).inject_stall(now, stall);
            }
            Action::Unregister(id) => self.server.unregister_tenant(TenantId(id)).expect("known"),
            Action::Move(id, to) => self.server.move_tenant(TenantId(id), to).expect("known"),
        }
        for t in 0..2 {
            self.server.thread_mut(t).take_woken();
        }
        self.rearm(now);
    }

    /// One pump event at `now`: every thread whose wake is due or whose
    /// round falls on `now`, ascending.
    fn pump_instant(&mut self, now: SimTime) {
        self.server.settle(now);
        for t in 0..2 {
            let due = self.wake[t].is_some_and(|at| at <= now);
            if due {
                self.wake[t] = None;
            }
            if due || self.server.threads()[t].round_wake(now) == Some(now) {
                let hint = self
                    .server
                    .pump_thread(t, now, &mut self.fabric, &mut self.device);
                self.wake[t] = earlier(self.wake[t], hint);
                self.rearm(now);
            }
        }
    }

    /// Runs pumps and `script` (sorted; at one instant actions go first)
    /// through `end`, then settles.
    fn run(&mut self, end: SimTime, script: &[(SimTime, Action)]) {
        let mut script = script.iter().peekable();
        loop {
            let pump = earlier(self.wake[0], self.wake[1]);
            let action = script.peek().map(|a| a.0);
            match earlier(pump, action) {
                Some(at) if at <= end => {
                    if action == Some(at) {
                        let (_, action) = script.next().expect("peeked");
                        self.act(at, *action);
                    } else {
                        self.pump_instant(at);
                    }
                }
                _ => break,
            }
        }
        self.server.settle(end + NANO);
    }

    /// The instant of thread `t`'s next slept-through round.
    fn next_idle_round(&self, t: usize) -> Option<SimTime> {
        self.server.threads()[t].idle_round_due(SimTime::MAX)
    }

    /// Everything observable, sleep bookkeeping aside.
    fn state(&mut self, now: SimTime) -> String {
        let mut out = String::new();
        for t in self.server.threads() {
            let sched = format!("{:?}", t.scheduler());
            // The due-instant cache is filled by hints only, and the slot
            // map prints in hash order.
            let (head, tail) = sched.split_once(" be_due: ").expect("field");
            let (_, tail) = tail.split_once(" be_cursor: ").expect("field");
            out += &format!(
                "{:?} busy {} sched {}\n{head}{tail}\n",
                t.stats(),
                t.busy_time(),
                t.sched_cpu_time()
            );
        }
        out += &format!(
            "{:?} {:?}\n",
            self.server.token_books(),
            self.device.stats()
        );
        for d in self.fabric.poll(now, self.client, usize::MAX) {
            out += &format!("{} {:?} {:?}\n", d.arrived_at, d.conn, d.payload);
        }
        out
    }
}

/// The sleeping rig and its eager twin, driven alike.
struct Twins {
    sleepy: Rig,
    eager: Rig,
    now: SimTime,
}

impl Twins {
    /// Both threads starved: each LC tenant 50 reads into debt (for 50 ms;
    /// with `lc_backlog` 30 more stay queued, which keeps it live at its
    /// deficit limit) and each BE tenant behind writes, or 32 KB
    /// reads, that its share pays for once in tens of rounds.
    fn starved(lc_backlog: bool, be_writes: bool) -> Twins {
        let mut twins = Twins {
            sleepy: Rig::new(false),
            eager: Rig::new(true),
            now: SimTime::ZERO,
        };
        for id in 0..8u32 {
            let n = match id {
                0 | 1 if lc_backlog => 80,
                0 | 1 => 50,
                _ if be_writes => 6,
                _ => 60,
            };
            for k in 0..n {
                let at = SimTime::from_nanos(1_000 + u64::from(id) * 37 + k * 211);
                twins.request(at, id, id >= 2 && be_writes);
            }
        }
        twins.run_for(SimDuration::from_micros(400), &[]);
        twins
    }

    fn request(&mut self, at: SimTime, tenant: u32, write: bool) {
        self.sleepy.request(at, tenant, write);
        self.eager.request(at, tenant, write);
    }

    fn run_for(&mut self, span: SimDuration, script: &[(SimTime, Action)]) {
        self.now += span;
        self.sleepy.run(self.now, script);
        self.eager.run(self.now, script);
        assert_eq!(self.sleepy.state(self.now), self.eager.state(self.now));
        assert_eq!(self.eager.server.threads()[0].sleep_stats(), (0, 0));
        assert_eq!(self.eager.server.threads()[1].sleep_stats(), (0, 0));
    }

    /// Runs on until thread `t` sleeps; returns the instant of the first
    /// round it sleeps through.
    fn asleep(&mut self, t: usize) -> SimTime {
        for _ in 0..1_000 {
            match self.sleepy.next_idle_round(t) {
                Some(round) if round > self.now + NANO * 600 => return round,
                _ => self.run_for(SimDuration::from_nanos(700), &[]),
            }
        }
        panic!("thread {t} never sleeps");
    }

    fn elided(&self) -> u64 {
        let threads = self.sleepy.server.threads();
        threads[0].sleep_stats().0 + threads[1].sleep_stats().0
    }
}

#[test]
fn an_arrival_on_next_to_and_between_slept_rounds() {
    for offset in [-1i64, 0, 1, 700] {
        let mut twins = Twins::starved(false, true);
        assert!(twins.elided() > 50, "{}", twins.elided());
        let round = twins.asleep(1);
        let at = SimTime::from_nanos((round.as_nanos() as i64 + offset) as u64);
        twins.request(at, 3, false);
        // And one on a later round still, while the first is at the device.
        twins.run_for(SimDuration::from_micros(30), &[]);
        if let Some(round) = twins.sleepy.next_idle_round(1) {
            twins.request(round, 5, true);
        }
        twins.run_for(SimDuration::from_micros(600), &[]);
    }
}

#[test]
fn a_siblings_donation_ends_the_sleep() {
    // Thread 0 keeps rounds going for LC tenant 0, at its deficit limit
    // with reads queued, while LC tenant 1 — moved there, idle and in
    // credit — donates every round. Nobody on thread 0 takes from the
    // bucket, so the tokens are there when its pump ends, and thread 1's
    // sleeping BE tenants are due them at its next round.
    let mut twins = Twins {
        sleepy: Rig::new(false),
        eager: Rig::new(true),
        now: SimTime::ZERO,
    };
    for k in 0..120 {
        twins.request(SimTime::from_nanos(1_000 + k * 211), 0, false);
    }
    for id in [3, 5, 7] {
        for k in 0..6 {
            twins.request(
                SimTime::from_nanos(1_500 + id * 37 + k * 211),
                id as u32,
                true,
            );
        }
    }
    let at = SimTime::from_micros(40);
    let script = [
        (at, Action::Move(1, 0)),
        (at, Action::Unregister(2)),
        (at, Action::Unregister(4)),
        (at, Action::Unregister(6)),
    ];
    twins.run_for(SimDuration::from_micros(100), &script);
    let before = twins.elided();
    twins.run_for(SimDuration::from_millis(3), &[]);
    assert!(twins.elided() > before, "thread 1 sleeps between donations");
}

#[test]
fn a_siblings_write_ends_a_read_only_sleep() {
    let mut twins = Twins::starved(false, false);
    // Thread 1's backlog outlasts thread 0's, at whose end a write waits.
    for id in [3, 5, 7] {
        for k in 0..90 {
            twins.request(
                twins.now + NANO * (1_000 + id * 37 + k * 211),
                id as u32,
                false,
            );
        }
    }
    twins.request(twins.now + SimDuration::from_micros(50), 2, true);
    let before = twins.elided();
    twins.run_for(SimDuration::from_millis(2), &[]);
    assert!(twins.elided() > before, "thread 1 sleeps in read-only mode");
    // The twins are compared round by round from the write on: they
    // would converge again once thread 1 is pumped.
    let written = |twins: &Twins| twins.sleepy.device.stats().writes;
    while written(&twins) == 0 {
        assert!(
            twins.now < SimTime::from_millis(9),
            "the write is never admitted"
        );
        twins.run_for(NANO * 1_500, &[]);
    }
    for _ in 0..40 {
        twins.run_for(NANO * 1_500, &[]);
    }
    assert_eq!(written(&twins), 1);
    // And back to read-only once the window has passed.
    twins.run_for(SimDuration::from_millis(6), &[]);
}

/// Rounds thread 0 sleeps through fall on the very instants thread 1 is
/// pumped at. Thread 1 never sleeps — its idle BE tenants hand their
/// income to the bucket round after round, for its own mark to reset —
/// and thread 0's mark has to come first each time, as when both rounds
/// were pump events: second, it would find the bucket full.
#[test]
fn a_slept_round_on_a_siblings_pump_instant() {
    let mut twins = Twins {
        sleepy: Rig::new(false),
        eager: Rig::new(true),
        now: SimTime::ZERO,
    };
    for k in 0..150 {
        twins.request(SimTime::from_nanos(1_000 + k * 211), 1, false);
    }
    for k in 0..50 {
        twins.request(SimTime::from_nanos(1_100 + k * 211), 0, false);
    }
    for id in [2, 4, 6] {
        for k in 0..40 {
            twins.request(
                SimTime::from_nanos(1_500 + id * 37 + k * 211),
                id as u32,
                true,
            );
        }
    }
    twins.run_for(SimDuration::from_micros(400), &[]);
    // Four tenants a thread: a round costs 198 ns and recurs 3 us later.
    // A stall just ahead of thread 1's next round moves its grid onto
    // thread 0's, until a completion on either thread moves one again.
    let period = 3_198;
    let mut coincided = 0;
    for _ in 0..16 {
        let ours = twins.asleep(0);
        let theirs = twins.sleepy.wake[1].expect("thread 1 has a round pending");
        assert_eq!(twins.eager.wake[1], Some(theirs));
        if theirs < twins.now + NANO * 200 {
            continue;
        }
        let shift = (ours.as_nanos() + 64 * period - theirs.as_nanos()) % period;
        let stall = [(theirs - NANO * 100, Action::Stall(1, NANO * (100 + shift)))];
        twins.run_for(theirs + NANO * (shift + 300) - twins.now, &stall);
        for _ in 0..12 {
            let round = twins.sleepy.next_idle_round(0);
            coincided += u32::from(round.is_some() && round == twins.sleepy.wake[1]);
            twins.run_for(NANO * period, &[]);
        }
    }
    assert!(
        coincided >= 5,
        "{coincided} rounds on a sibling's pump instant"
    );
}

#[test]
fn a_stall_mid_sleep() {
    for on_the_round in [false, true] {
        let mut twins = Twins::starved(false, true);
        let round = twins.asleep(1);
        let at = if on_the_round {
            round
        } else {
            round + NANO * 40
        };
        let stall = [(at, Action::Stall(1, SimDuration::from_micros(25)))];
        twins.run_for(SimDuration::from_micros(200), &stall);
        twins.run_for(SimDuration::from_micros(400), &[]);
    }
}

#[test]
fn unregister_and_move_mid_sleep() {
    let mut twins = Twins::starved(false, true);
    let round = twins.asleep(0);
    let script = [
        (round, Action::Unregister(4)),
        (round + NANO * 900, Action::Move(3, 0)),
        (round + NANO * 900, Action::Move(0, 1)),
    ];
    twins.run_for(SimDuration::from_micros(100), &script);
    twins.run_for(SimDuration::from_millis(2), &[]);
}

#[test]
fn random_scripts() {
    for seed in 0..12u64 {
        let mut rng = SimRng::seed(seed);
        let lc_backlog = seed % 4 == 0;
        let mut twins = Twins::starved(lc_backlog, seed % 3 != 0);
        for _ in 0..6 {
            let mut script = Vec::new();
            for _ in 0..rng.below(4) {
                let at = twins.now + NANO * (1 + rng.below(150_000));
                let action = match rng.below(3) {
                    0 => Action::Stall(rng.below(2) as usize, NANO * rng.below(30_000)),
                    1 => Action::Move(rng.below(8) as u32, rng.below(2) as usize),
                    _ => Action::Stall(rng.below(2) as usize, NANO),
                };
                script.push((at, action));
            }
            script.sort_by_key(|a| a.0);
            for _ in 0..rng.below(12) {
                let at = twins.now + NANO * (1_000 + rng.below(150_000));
                twins.request(at, rng.below(8) as u32, rng.below(3) == 0);
            }
            // Some land on a slept round to the nanosecond.
            if let Some(round) = twins.sleepy.next_idle_round(rng.below(2) as usize) {
                if round > twins.now + NANO * 600 {
                    twins.request(round, 2 + rng.below(6) as u32, false);
                }
            }
            twins.run_for(SimDuration::from_micros(150), &script);
        }
        assert!(lc_backlog || twins.elided() > 0);
    }
}
