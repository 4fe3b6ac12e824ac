//! Software remote-storage baselines: iSCSI and libaio+libevent servers.
//!
//! Both run on the Linux kernel network stack (set
//! `TestbedBuilder::server_stack(StackProfile::linux_tcp())`), process
//! requests FIFO with no QoS scheduling, and are characterized by their
//! per-request CPU cost and protocol/copy latency:
//!
//! * **iSCSI** (paper §2.1, §5.2): ~70K IOPS per core; heavy protocol
//!   processing and data copies between socket, SCSI and application
//!   buffers add large fixed latency on both request and response paths.
//! * **libaio+libevent** (paper §5.2): a lightweight epoll server using
//!   Linux AIO; ~75K IOPS per core, moderate added latency.
//!
//! They implement [`ServerHarness`], so they run under the exact same
//! testbed (clients, fabric, device) as the ReFlex server.

use std::collections::HashMap;

use reflex_core::{AdmissionError, ServerHarness};
use reflex_dataplane::{AclEntry, WireMsg};
use reflex_flash::{CmdId, FlashDevice, IoType, NvmeCommand, QpId};
use reflex_net::{ConnId, Fabric, MachineId, NicQueueId, Opcode, ReflexHeader};
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::{LogNormal, SimDuration, SimRng, SimTime};

/// Performance parameters of a baseline server.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Human-readable name.
    pub name: String,
    /// Worker CPU per request on the receive/submit path.
    pub rx_cpu: SimDuration,
    /// Worker CPU per request on the completion/response path.
    pub tx_cpu: SimDuration,
    /// Median extra latency on the request path (protocol processing,
    /// buffer copies) beyond CPU occupancy.
    pub request_overhead_median: SimDuration,
    /// Median extra latency on the response path.
    pub response_overhead_median: SimDuration,
    /// Lognormal sigma for the overhead samples.
    pub overhead_sigma: f64,
    /// Worker threads.
    pub threads: u32,
}

impl BaselineConfig {
    /// The Linux iSCSI target (~70K IOPS/core; §2.1).
    pub fn iscsi() -> Self {
        BaselineConfig {
            name: "iscsi".to_owned(),
            rx_cpu: SimDuration::from_micros_f64(7.4),
            tx_cpu: SimDuration::from_micros_f64(6.9),
            request_overhead_median: SimDuration::from_micros_f64(38.0),
            response_overhead_median: SimDuration::from_micros_f64(38.0),
            overhead_sigma: 0.35,
            threads: 1,
        }
    }

    /// The libaio+libevent lightweight server (~75K IOPS/core; §5.2).
    pub fn libaio() -> Self {
        BaselineConfig {
            name: "libaio".to_owned(),
            rx_cpu: SimDuration::from_micros_f64(7.0),
            tx_cpu: SimDuration::from_micros_f64(6.3),
            request_overhead_median: SimDuration::from_micros_f64(6.0),
            response_overhead_median: SimDuration::from_micros_f64(6.0),
            overhead_sigma: 0.4,
            threads: 1,
        }
    }

    /// Same configuration with a different worker count.
    pub fn with_threads(mut self, threads: u32) -> Self {
        assert!(threads > 0, "need at least one worker");
        self.threads = threads;
        self
    }

    /// Theoretical per-core IOPS ceiling.
    pub fn peak_iops_per_core(&self) -> f64 {
        1.0 / (self.rx_cpu.as_secs_f64() + self.tx_cpu.as_secs_f64())
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingReq {
    conn: ConnId,
    client: MachineId,
    cookie: u64,
    op: IoType,
    len: u32,
}

#[derive(Debug)]
struct Worker {
    queue: NicQueueId,
    qp: QpId,
    busy: SimTime,
    busy_total: SimDuration,
    inflight: HashMap<CmdId, PendingReq>,
}

/// A baseline remote-storage server (iSCSI or libaio model).
#[derive(Debug)]
pub struct BaselineServer {
    machine: MachineId,
    config: BaselineConfig,
    workers: Vec<Worker>,
    tenants: HashMap<TenantId, usize>,
    conn_binding: HashMap<ConnId, (TenantId, MachineId, usize)>,
    next_worker: usize,
    cmd_seq: u64,
    /// The configured request and response overheads, prepared once.
    request_overhead: LogNormal,
    response_overhead: LogNormal,
    rng: SimRng,
}

impl BaselineServer {
    /// Creates the server on `machine`, allocating one NIC queue and one
    /// NVMe queue pair per worker.
    pub fn new(
        machine: MachineId,
        fabric: &mut Fabric<WireMsg>,
        device: &mut FlashDevice,
        config: BaselineConfig,
        seed: u64,
    ) -> Self {
        let workers = (0..config.threads)
            .map(|i| Worker {
                queue: if i == 0 {
                    NicQueueId(0)
                } else {
                    fabric.add_queue(machine)
                },
                qp: device.create_queue_pair(),
                busy: SimTime::ZERO,
                busy_total: SimDuration::ZERO,
                inflight: HashMap::new(),
            })
            .collect();
        BaselineServer {
            machine,
            request_overhead: LogNormal::new(config.request_overhead_median, config.overhead_sigma),
            response_overhead: LogNormal::new(
                config.response_overhead_median,
                config.overhead_sigma,
            ),
            config,
            workers,
            tenants: HashMap::new(),
            conn_binding: HashMap::new(),
            next_worker: 0,
            cmd_seq: 0,
            rng: SimRng::seed(seed),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }
}

impl ServerHarness for BaselineServer {
    fn machine(&self) -> MachineId {
        self.machine
    }

    fn active_threads(&self) -> usize {
        self.workers.len()
    }

    fn nic_queue(&self, thread: usize) -> NicQueueId {
        self.workers[thread].queue
    }

    fn register_tenant(
        &mut self,
        id: TenantId,
        _class: TenantClass,
        _acl: AclEntry,
        _io_size: u32,
    ) -> Result<usize, AdmissionError> {
        // No SLOs, no admission control: everything is best effort.
        if self.tenants.contains_key(&id) {
            return Err(AdmissionError::Duplicate(id));
        }
        let worker = self.next_worker % self.workers.len();
        self.next_worker += 1;
        self.tenants.insert(id, worker);
        Ok(worker)
    }

    fn bind_connection(
        &mut self,
        conn: ConnId,
        tenant: TenantId,
        client: MachineId,
    ) -> Result<(usize, NicQueueId), AdmissionError> {
        let &worker = self
            .tenants
            .get(&tenant)
            .ok_or(AdmissionError::Unknown(tenant))?;
        self.conn_binding.insert(conn, (tenant, client, worker));
        Ok((worker, self.workers[worker].queue))
    }

    fn route(&self, conn: ConnId) -> Option<NicQueueId> {
        self.conn_binding
            .get(&conn)
            .map(|&(_, _, w)| self.workers[w].queue)
    }

    fn thread_of_conn(&self, conn: ConnId) -> Option<usize> {
        self.conn_binding.get(&conn).map(|&(_, _, w)| w)
    }

    fn pump_thread(
        &mut self,
        i: usize,
        now: SimTime,
        fabric: &mut Fabric<WireMsg>,
        device: &mut FlashDevice,
    ) -> Option<SimTime> {
        if self.workers[i].busy < now {
            self.workers[i].busy = now;
        }
        loop {
            let mut progress = false;

            // Receive path: FIFO, one at a time (no adaptive batching).
            let cursor = self.workers[i].busy;
            let msgs = fabric.poll_queue(cursor, self.machine, self.workers[i].queue, 16);
            for d in msgs {
                let rx_cpu = self.config.rx_cpu;
                let overhead = self.rng.lognormal(self.request_overhead);
                let w = &mut self.workers[i];
                w.busy += rx_cpu;
                w.busy_total += rx_cpu;
                let Ok(header) = ReflexHeader::decode(&d.payload) else {
                    continue;
                };
                let Some(&(_tenant, client, _)) = self.conn_binding.get(&d.conn) else {
                    continue;
                };
                let op = match header.opcode {
                    Opcode::Get => IoType::Read,
                    Opcode::Put => IoType::Write,
                    // Baseline servers predate barrier support; ignore.
                    Opcode::Barrier | Opcode::Response | Opcode::Error => continue,
                };
                let id = CmdId(self.cmd_seq);
                self.cmd_seq += 1;
                let submit_at = self.workers[i].busy + overhead;
                let cmd = match op {
                    IoType::Read => NvmeCommand::read(id, header.addr, header.len),
                    IoType::Write => NvmeCommand::write(id, header.addr, header.len),
                };
                if device.submit(submit_at, self.workers[i].qp, cmd).is_ok() {
                    self.workers[i].inflight.insert(
                        id,
                        PendingReq {
                            conn: d.conn,
                            client,
                            cookie: header.cookie,
                            op,
                            len: header.len,
                        },
                    );
                }
                progress = true;
            }

            // Completion path.
            let cursor = self.workers[i].busy;
            let comps = device.poll_completions(cursor, self.workers[i].qp, 16);
            for c in comps {
                let tx_cpu = self.config.tx_cpu;
                let overhead = self.rng.lognormal(self.response_overhead);
                let w = &mut self.workers[i];
                w.busy += tx_cpu;
                w.busy_total += tx_cpu;
                let Some(req) = w.inflight.remove(&c.id) else {
                    continue;
                };
                let ok = c.status == reflex_flash::NvmeStatus::Success;
                let header = ReflexHeader {
                    opcode: if ok { Opcode::Response } else { Opcode::Error },
                    tenant: 0,
                    cookie: req.cookie,
                    addr: 0,
                    len: req.len,
                };
                let payload = if ok && req.op.is_read() { req.len } else { 0 };
                let send_at = self.workers[i].busy + overhead;
                fabric.send(
                    send_at,
                    self.machine,
                    req.client,
                    req.conn,
                    payload,
                    header.encode_array(),
                );
                progress = true;
            }

            if !progress {
                break;
            }
        }

        let w = &self.workers[i];
        let mut wake: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            if let Some(t) = t {
                wake = Some(wake.map_or(t, |x: SimTime| x.min(t)));
            }
        };
        consider(fabric.next_arrival_queue(self.machine, w.queue));
        consider(device.next_completion_time(w.qp));
        wake.map(|t| t.max(w.busy))
    }

    fn busy_time(&self, i: usize) -> SimDuration {
        self.workers[i].busy_total
    }
}
