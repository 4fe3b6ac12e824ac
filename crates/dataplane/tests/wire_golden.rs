//! Every byte two dataplane threads put on the wire, pinned. One scripted
//! run reaches every way a request message can be answered, or not:
//!
//! - reads that miss, fill and then hit the DRAM cache, and writes;
//! - a write without write permission, reads outside the namespace and a
//!   connection refused to a client outside the tenant's list;
//! - a response opcode sent to the server, a bad magic byte, an unknown
//!   opcode and a message on a connection nobody bound;
//! - device media errors and a dead device region, a zero-length read and
//!   a burst deep enough to fill the submission queue;
//! - a tenant's requests waiting in its scheduler queue behind a read its
//!   tokens cannot pay for, answered once its income pays, and a tenant
//!   unregistered while a read of its is at the device, its slot then
//!   taken by a newcomer.
//!
//! The transcript lists each delivery to a client (instant, connection,
//! payload size, the 28 header bytes), every control-plane outcome, each
//! thread's counters and CPU books, the device's counters and the
//! telemetry export. Regenerate deliberately with `REFLEX_BLESS=1 cargo
//! test -p reflex-dataplane --test wire_golden`, then run it again
//! without the variable.

use std::fmt::Write as _;
use std::sync::Arc;

use reflex_dataplane::{AclEntry, CacheConfig, DataplaneConfig, DataplaneThread, WireMsg};
use reflex_flash::{device_a, DeviceFaultAction, DeviceFaultHook, FlashDevice, NvmeCommand};
use reflex_net::{
    ConnId, Fabric, LinkConfig, MachineId, NicQueueId, Opcode, ReflexHeader, StackProfile, MAGIC,
};
use reflex_qos::{CostModel, GlobalBucket, SchedulerParams, SloSpec, TenantClass, TenantId};
use reflex_sim::{SimDuration, SimRng, SimTime};
use reflex_telemetry::Telemetry;

const MEDIA: u64 = 2 << 30;
const DEAD: u64 = 3 << 30;
const REGION: u64 = 1 << 20;

/// Media errors and a dead device, by address region.
struct Regions;

impl DeviceFaultHook for Regions {
    fn on_command(&mut self, _now: SimTime, cmd: &NvmeCommand) -> DeviceFaultAction {
        match cmd.addr {
            a if (MEDIA..MEDIA + REGION).contains(&a) => DeviceFaultAction::TransientError,
            a if (DEAD..DEAD + REGION).contains(&a) => DeviceFaultAction::Dead,
            _ => DeviceFaultAction::None,
        }
    }
}

struct Rig {
    fabric: Fabric<WireMsg>,
    device: FlashDevice,
    threads: Vec<DataplaneThread>,
    queues: [NicQueueId; 2],
    clients: [MachineId; 2],
    server: MachineId,
    now: SimTime,
    out: String,
}

fn us(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(n)
}

fn header(opcode: Opcode, cookie: u64, addr: u64, len: u32) -> WireMsg {
    ReflexHeader {
        opcode,
        tenant: 0,
        cookie,
        addr,
        len,
    }
    .encode_array()
}

impl Rig {
    fn new(telemetry: &Telemetry) -> Rig {
        let mut fabric = Fabric::new(LinkConfig::default(), SimRng::seed(31));
        let clients = [
            fabric.add_machine(StackProfile::ix_tcp()),
            fabric.add_machine(StackProfile::ix_tcp()),
        ];
        let server = fabric.add_machine(StackProfile::dataplane_raw());
        let queues = [NicQueueId(0), fabric.add_queue(server)];
        let mut profile = device_a();
        profile.sq_depth = 8;
        let mut device = FlashDevice::new(profile, SimRng::seed(32));
        device.precondition();
        device.set_fault_hook(Box::new(Regions));
        let bucket = Arc::new(GlobalBucket::new(2));
        let config = DataplaneConfig {
            cache: Some(CacheConfig::with_capacity(1 << 20)),
            ..DataplaneConfig::default()
        };
        let threads = queues
            .iter()
            .enumerate()
            .map(|(i, &queue)| {
                let mut t = DataplaneThread::new(
                    i as u32,
                    server,
                    queue,
                    device.create_queue_pair(),
                    Arc::clone(&bucket),
                    CostModel::for_device_a(),
                    SchedulerParams::default(),
                    config,
                    SimTime::ZERO,
                );
                t.set_be_rate(reflex_qos::TokenRate::per_sec(20_000));
                t.set_telemetry(telemetry.clone());
                t
            })
            .collect();
        Rig {
            fabric,
            device,
            threads,
            queues,
            clients,
            server,
            now: SimTime::ZERO,
            out: String::new(),
        }
    }

    fn note(&mut self, what: impl std::fmt::Debug) {
        writeln!(self.out, "{} {what:?}", self.now.as_nanos()).unwrap();
    }

    /// Sends `msg` from client `from` to thread `thread`'s queue at the
    /// current instant.
    fn send(&mut self, from: usize, thread: usize, conn: ConnId, size: u32, msg: WireMsg) {
        self.fabric.send_to_queue(
            self.now,
            self.clients[from],
            self.server,
            self.queues[thread],
            conn,
            size,
            msg,
        );
    }

    /// Pumps both threads every 2 µs up to `until`, logging each delivery
    /// to a client as it is polled.
    fn run_until(&mut self, until: SimTime) {
        while self.now < until {
            for t in &mut self.threads {
                t.pump(self.now, &mut self.fabric, &mut self.device);
            }
            for (i, &client) in self.clients.iter().enumerate() {
                for d in self.fabric.poll(self.now, client, usize::MAX) {
                    let hex: String = d.payload.iter().map(|b| format!("{b:02x}")).collect();
                    writeln!(
                        self.out,
                        "{} client{i} conn{} size{} {hex}",
                        d.arrived_at.as_nanos(),
                        d.conn.0,
                        d.size
                    )
                    .unwrap();
                }
            }
            self.now += SimDuration::from_micros(2);
        }
    }
}

fn transcript() -> String {
    let telemetry = Telemetry::enabled();
    let mut rig = Rig::new(&telemetry);
    let capacity = rig.device.profile().capacity_bytes;
    let lc = TenantClass::LatencyCritical(SloSpec::new(100_000, 95, SimDuration::from_micros(500)));
    let (a, b) = (rig.clients[0], rig.clients[1]);
    let conns: Vec<ConnId> = (0..6).map(|_| rig.fabric.new_conn()).collect();
    let (t1, t2, t3, t4) = (TenantId(1), TenantId(2), TenantId(3), TenantId(4));
    let read_only = AclEntry {
        ns_start: 0,
        ns_len: 1 << 30,
        allow_read: true,
        allow_write: false,
        allowed_clients: None,
    };
    let narrow = AclEntry {
        ns_start: 1 << 30,
        ns_len: REGION,
        allow_read: true,
        allow_write: true,
        allowed_clients: None,
    }
    .restricted_to(vec![a]);
    let th = &mut rig.threads[0];
    let outcomes = [
        th.register_tenant(t1, lc, AclEntry::full(capacity), 4096),
        th.register_tenant(t2, TenantClass::BestEffort, read_only, 4096),
        th.register_tenant(t3, TenantClass::BestEffort, narrow, 4096),
        th.register_tenant(t4, TenantClass::BestEffort, AclEntry::full(capacity), 4096),
        th.register_tenant(t4, TenantClass::BestEffort, AclEntry::full(capacity), 4096),
        th.bind_connection(conns[0], t1, a),
        th.bind_connection(conns[1], t2, a),
        th.bind_connection(conns[2], t3, b),
        th.bind_connection(conns[2], t3, a),
        th.bind_connection(conns[3], t4, a),
        th.bind_connection(conns[5], TenantId(9), a),
    ];
    rig.note(outcomes);
    let [c1, c2, c3, c4, unbound, _] = conns[..] else {
        unreachable!()
    };

    // Answered, refused and dropped messages, all at once.
    rig.send(0, 0, c1, 0, header(Opcode::Get, 1, 8192, 4096));
    rig.send(0, 0, c2, 0, header(Opcode::Get, 2, 4096, 4096));
    rig.send(0, 0, c2, 4096, header(Opcode::Put, 3, 4096, 4096));
    rig.send(0, 0, c1, 0, header(Opcode::Get, 4, capacity, 4096));
    rig.send(0, 0, c3, 0, header(Opcode::Get, 5, 0, 4096));
    rig.send(0, 0, c3, 0, header(Opcode::Get, 6, 1 << 30, 4096));
    // The last block of a namespace, and one straddling its end.
    let last = (1 << 30) + REGION - 4096;
    rig.send(0, 0, c3, 0, header(Opcode::Get, 30, last, 4096));
    rig.send(0, 0, c3, 0, header(Opcode::Get, 31, last + 2048, 4096));
    rig.send(0, 0, c1, 0, header(Opcode::Get, 32, capacity - 4096, 4096));
    rig.send(0, 0, c1, 0, header(Opcode::Response, 7, 5, 6));
    rig.send(0, 0, c1, 0, header(Opcode::Error, 8, 7, 8));
    let mut bad_magic = header(Opcode::Get, 9, 0, 4096);
    bad_magic[0] = MAGIC ^ 0xff;
    rig.send(0, 0, c1, 0, bad_magic);
    let mut bad_opcode = header(Opcode::Get, 10, 0, 4096);
    bad_opcode[1] = 0x7e;
    rig.send(0, 0, c1, 0, bad_opcode);
    rig.send(0, 0, unbound, 0, header(Opcode::Get, 11, 0, 4096));
    rig.run_until(us(300));

    // A hit, then writes with reads of their blocks behind them.
    rig.send(0, 0, c1, 0, header(Opcode::Get, 12, 8192, 4096));
    rig.run_until(us(320));
    rig.send(0, 0, c1, 4096, header(Opcode::Put, 14, 8192, 4096));
    rig.send(0, 0, c1, 0, header(Opcode::Get, 16, 8192, 4096));
    rig.send(0, 0, c1, 4096, header(Opcode::Put, 18, 16384, 4096));
    rig.send(0, 0, c1, 0, header(Opcode::Get, 19, 16384, 4096));
    rig.run_until(us(700));

    // The device fails some, and a request for no bytes is refused.
    rig.send(0, 0, c1, 0, header(Opcode::Get, 20, MEDIA, 4096));
    rig.send(0, 0, c1, 4096, header(Opcode::Put, 21, MEDIA + 4096, 4096));
    rig.send(0, 0, c1, 0, header(Opcode::Get, 22, DEAD, 4096));
    rig.send(0, 0, c1, 4096, header(Opcode::Put, 23, DEAD, 4096));
    rig.send(0, 0, c1, 0, header(Opcode::Get, 24, 12288, 0));
    rig.run_until(us(900));

    // Deeper than the submission queue.
    for i in 0..40 {
        rig.send(
            0,
            0,
            c1,
            0,
            header(Opcode::Get, 100 + i, (1 << 20) + i * 4096, 4096),
        );
    }
    rig.run_until(us(1500));

    // Tenant 4's requests wait in its scheduler queue: a 768 KiB read
    // (192 tokens) heads it, more than the bucket and the tenant's own
    // income hold, and 30 reads wait behind it. Thread 0 answers them
    // once the tenant's income pays for the head.
    for i in 0..40 {
        let addr = (2 << 20) + i * 4096;
        rig.send(0, 0, c1, 0, header(Opcode::Get, 140 + i, addr, 4096));
    }
    rig.send(0, 0, c4, 4096, header(Opcode::Put, 198, 8 << 20, 4096));
    rig.send(0, 0, c4, 0, header(Opcode::Get, 199, 12 << 20, 768 << 10));
    for i in 0..30 {
        rig.send(
            0,
            0,
            c4,
            0,
            header(Opcode::Get, 200 + i, (8 << 20) + i * 4096, 4096),
        );
    }
    rig.run_until(us(1600));

    // Tenant 2 leaves with a read at the device; a latency-critical
    // newcomer takes its slot.
    rig.send(0, 0, c2, 0, header(Opcode::Get, 400, 40960, 4096));
    while rig.threads[0].stats().submitted == rig.threads[0].stats().completed {
        let next = rig.now + SimDuration::from_micros(2);
        rig.run_until(next);
    }
    let left = rig.threads[0].unregister_tenant(t2).map(|l| l.len());
    rig.note(("unregistered", left));
    let newcomer = rig.threads[0].register_tenant(TenantId(5), lc, AclEntry::full(capacity), 4096);
    rig.note(newcomer);
    rig.send(0, 0, c2, 0, header(Opcode::Get, 401, 40960, 4096));
    rig.run_until(us(9000));

    let mut out = std::mem::take(&mut rig.out);
    for (i, t) in rig.threads.iter().enumerate() {
        writeln!(out, "thread{i} {:?}", t.stats()).unwrap();
        writeln!(out, "thread{i} {:?}", t.cache_stats()).unwrap();
        writeln!(
            out,
            "thread{i} busy {:?} sched {:?} sleep {:?} conns {}",
            t.busy_time(),
            t.sched_cpu_time(),
            t.sleep_stats(),
            t.connection_count()
        )
        .unwrap();
    }
    writeln!(
        out,
        "device {:?} sq_full {}",
        rig.device.stats(),
        rig.device.sq_full()
    )
    .unwrap();
    out.push_str(&telemetry.snapshot().expect("enabled").to_json());
    out
}

#[test]
fn wire_transcript_matches_golden() {
    let got = transcript();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/wire_transcript.txt"
    );
    if std::env::var("REFLEX_BLESS").is_ok() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let golden = include_str!("golden/wire_transcript.txt");
    assert!(
        got == golden,
        "the wire drifted; first differing line:\n{}",
        got.lines()
            .zip(golden.lines())
            .find(|(g, w)| g != w)
            .map(|(g, w)| format!("got  {g}\nwant {w}"))
            .unwrap_or_else(|| "one transcript is a prefix of the other".into())
    );
}

#[test]
fn script_reaches_every_answer() {
    let got = transcript();
    // Every way a message is answered shows up in the counters.
    let stats = got
        .lines()
        .find(|l| l.starts_with("thread0 ThreadStats"))
        .unwrap();
    for field in [
        "acl_rejections: 0",
        "decode_errors: 0",
        "unbound_conns: 0",
        "sq_full_retries: 0",
        "cache_hits: 0",
    ] {
        assert!(!stats.contains(&format!(" {field},")), "{field} in {stats}");
    }
    // Tenant 4's token-starved head and the last read behind it are
    // answered.
    let answer = |cookie, addr, len| {
        let h = header(Opcode::Response, cookie, addr, len);
        h.iter().map(|b| format!("{b:02x}")).collect::<String>()
    };
    assert!(got.contains(&answer(199, 12 << 20, 768 << 10)));
    assert!(got.contains(&answer(229, (8 << 20) + 29 * 4096, 4096)));
    let opcode = |op: Opcode| format!("{MAGIC:02x}{:02x}", op as u8);
    assert!(got.contains(&opcode(Opcode::Error)));
    assert!(got.contains(&opcode(Opcode::Response)));
}
