//! Storage backends for legacy-application workloads (paper §5.6).
//!
//! Figure 7 runs unmodified Linux applications against three block
//! devices: the local kernel NVMe driver, the ReFlex remote block device
//! driver, and iSCSI. [`Backend`] models those data paths at the
//! per-request level on top of the simulated Flash device:
//!
//! * per-client-thread CPU cost (the blk-mq hardware-context threads and
//!   their per-message TCP ceilings),
//! * a remote server serialization point with its per-request CPU (iSCSI:
//!   ~14µs ⇒ 70K IOPS/core; ReFlex: ~1.2µs ⇒ 850K IOPS/core),
//! * a shared network link with finite bandwidth (10GbE),
//! * fixed protocol latency on top of the device.

use reflex_flash::{CmdId, DeviceProfile, FlashDevice, IoType, NvmeCommand, QpId};
use reflex_sim::{LogNormal, SimDuration, SimRng, SimTime};

/// Which data path a [`Backend`] models.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendProfile {
    /// Human-readable name.
    pub name: String,
    /// Client-side CPU per I/O (block layer + driver + stack) per thread.
    pub client_per_req_cpu: SimDuration,
    /// Fixed one-way protocol latency added on the request path (beyond
    /// CPU and wire time); sampled lognormally.
    pub request_latency_median: SimDuration,
    /// Fixed latency added on the response path.
    pub response_latency_median: SimDuration,
    /// Lognormal sigma for both overheads.
    pub latency_sigma: f64,
    /// Remote server CPU per request (`None` for local access).
    pub server_per_req_cpu: Option<SimDuration>,
    /// Network bandwidth in bytes/sec (`None` for local access).
    pub link_bandwidth: Option<f64>,
}

impl BackendProfile {
    /// The local kernel NVMe driver (interrupt-driven; FIO needs ~5
    /// threads to saturate the device, §5.6).
    pub fn local_nvme() -> Self {
        BackendProfile {
            name: "local".to_owned(),
            client_per_req_cpu: SimDuration::from_micros_f64(4.8), // ~200K IOPS/thread
            request_latency_median: SimDuration::from_micros_f64(3.0),
            response_latency_median: SimDuration::from_micros_f64(9.0), // IRQ + block layer
            latency_sigma: 0.25,
            server_per_req_cpu: None,
            link_bandwidth: None,
        }
    }

    /// The ReFlex remote block device driver: one blk-mq hardware context
    /// per client core, each a Linux TCP socket (~70K msgs/s/thread), a
    /// polling dataplane server and a 10GbE link.
    pub fn reflex_remote() -> Self {
        BackendProfile {
            name: "reflex".to_owned(),
            client_per_req_cpu: SimDuration::from_micros_f64(14.3), // Linux TCP thread
            request_latency_median: SimDuration::from_micros_f64(13.0),
            response_latency_median: SimDuration::from_micros_f64(17.0),
            latency_sigma: 0.25,
            server_per_req_cpu: Some(SimDuration::from_micros_f64(1.18)),
            link_bandwidth: Some(1.25e9), // 10GbE
        }
    }

    /// The Linux iSCSI data path: heavy protocol processing and copies on
    /// both sides, ~70K IOPS/core at the target.
    pub fn iscsi_remote() -> Self {
        BackendProfile {
            name: "iscsi".to_owned(),
            client_per_req_cpu: SimDuration::from_micros_f64(14.3),
            request_latency_median: SimDuration::from_micros_f64(55.0),
            response_latency_median: SimDuration::from_micros_f64(60.0),
            latency_sigma: 0.35,
            server_per_req_cpu: Some(SimDuration::from_micros_f64(14.3)),
            link_bandwidth: Some(1.25e9),
        }
    }
}

/// A block-storage data path applications submit I/O to.
///
/// # Examples
///
/// ```
/// use reflex_flash::{device_a, IoType};
/// use reflex_sim::SimTime;
/// use reflex_workloads::{Backend, BackendProfile};
///
/// let mut b = Backend::new(BackendProfile::local_nvme(), device_a(), 4, 1);
/// let done = b.submit(SimTime::ZERO, 0, IoType::Read, 4096, 4096);
/// assert!(done > SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct Backend {
    profile: BackendProfile,
    device: FlashDevice,
    qp: QpId,
    client_busy: Vec<SimTime>,
    server_busy: SimTime,
    link_up_busy: SimTime,
    link_down_busy: SimTime,
    /// The profile's request and response latencies, prepared once.
    request_latency: LogNormal,
    response_latency: LogNormal,
    rng: SimRng,
    seq: u64,
}

impl Backend {
    /// Creates a backend with `client_threads` application I/O threads
    /// over a fresh preconditioned device.
    ///
    /// # Panics
    ///
    /// Panics if `client_threads` is zero.
    pub fn new(
        profile: BackendProfile,
        mut device_profile: DeviceProfile,
        client_threads: u32,
        seed: u64,
    ) -> Self {
        assert!(client_threads > 0, "need at least one client thread");
        device_profile.sq_depth = 1 << 20;
        let mut rng = SimRng::seed(seed);
        let mut device = FlashDevice::new(device_profile, rng.fork());
        device.precondition();
        let qp = device.create_queue_pair();
        Backend {
            request_latency: LogNormal::new(profile.request_latency_median, profile.latency_sigma),
            response_latency: LogNormal::new(
                profile.response_latency_median,
                profile.latency_sigma,
            ),
            profile,
            device,
            qp,
            client_busy: vec![SimTime::ZERO; client_threads as usize],
            server_busy: SimTime::ZERO,
            link_up_busy: SimTime::ZERO,
            link_down_busy: SimTime::ZERO,
            rng,
            seq: 0,
        }
    }

    /// The backend's profile.
    pub fn profile(&self) -> &BackendProfile {
        &self.profile
    }

    /// Number of client I/O threads.
    pub fn client_threads(&self) -> usize {
        self.client_busy.len()
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.device.profile().capacity_bytes
    }

    /// A uniformly random page-aligned address.
    pub fn random_page_addr(&mut self) -> u64 {
        self.device.random_page_addr()
    }

    fn wire_time(&self, bytes: u64) -> SimDuration {
        match self.profile.link_bandwidth {
            Some(bw) => SimDuration::from_secs_f64((bytes as f64 + 78.0) / bw),
            None => SimDuration::ZERO,
        }
    }

    /// Submits one I/O on client thread `thread`; returns the instant the
    /// application sees the completion. Calls should be made in roughly
    /// non-decreasing `now` order (drive with a completion heap).
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range or `len` is zero.
    pub fn submit(
        &mut self,
        now: SimTime,
        thread: usize,
        op: IoType,
        addr: u64,
        len: u32,
    ) -> SimTime {
        assert!(len > 0, "zero-length I/O");
        // Client thread CPU (issue side).
        let busy = &mut self.client_busy[thread];
        let t_issued = now.max(*busy) + self.profile.client_per_req_cpu;
        *busy = t_issued;

        // Request wire time (writes carry data).
        let req_bytes = if op.is_read() { 0 } else { len as u64 };
        let mut t = t_issued;
        if self.profile.link_bandwidth.is_some() {
            let ser = self.wire_time(req_bytes);
            let depart = t.max(self.link_up_busy) + ser;
            self.link_up_busy = depart;
            t = depart;
        }
        t += self.rng.lognormal(self.request_latency);

        // Remote server serialization point.
        if let Some(cpu) = self.profile.server_per_req_cpu {
            let srv = t.max(self.server_busy) + cpu;
            self.server_busy = srv;
            t = srv;
        }

        // Device.
        let id = CmdId(self.seq);
        self.seq += 1;
        let cmd = match op {
            IoType::Read => NvmeCommand::read(id, addr, len),
            IoType::Write => NvmeCommand::write(id, addr, len),
        };
        let _ = self.device.poll_completions(t, self.qp, usize::MAX);
        let dev_done = self.device.submit(t, self.qp, cmd).expect("deep sq");

        // Response wire time (reads carry data back).
        let mut t = dev_done;
        if self.profile.link_bandwidth.is_some() {
            let resp_bytes = if op.is_read() { len as u64 } else { 0 };
            let ser = self.wire_time(resp_bytes);
            let depart = t.max(self.link_down_busy) + ser;
            self.link_down_busy = depart;
            t = depart;
        }
        t + self.rng.lognormal(self.response_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reflex_flash::device_a;

    fn unloaded_read_us(profile: BackendProfile) -> f64 {
        let mut b = Backend::new(profile, device_a(), 1, 3);
        let mut total = 0.0;
        let n = 500;
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            now += SimDuration::from_micros(300);
            let addr = b.random_page_addr();
            let done = b.submit(now, 0, IoType::Read, addr, 4096);
            total += done.saturating_since(now).as_micros_f64();
        }
        total / n as f64
    }

    #[test]
    fn unloaded_latency_ordering() {
        let local = unloaded_read_us(BackendProfile::local_nvme());
        let reflex = unloaded_read_us(BackendProfile::reflex_remote());
        let iscsi = unloaded_read_us(BackendProfile::iscsi_remote());
        // Local kernel driver ~90us, ReFlex block driver noticeably higher
        // (client-side Linux block+TCP), iSCSI much higher.
        assert!((85.0..105.0).contains(&local), "local {local}");
        assert!(reflex > local + 25.0, "reflex {reflex} vs local {local}");
        assert!(iscsi > reflex + 60.0, "iscsi {iscsi} vs reflex {reflex}");
        assert!(iscsi < 350.0, "iscsi {iscsi} absurdly high");
    }

    #[test]
    fn iscsi_server_caps_throughput() {
        let mut b = Backend::new(BackendProfile::iscsi_remote(), device_a(), 8, 4);
        // Closed-loop hammer: 8 threads x QD 8.
        let mut heap = std::collections::BinaryHeap::new();
        for th in 0..8usize {
            for _ in 0..8 {
                let addr = b.random_page_addr();
                let done = b.submit(SimTime::ZERO, th, IoType::Read, addr, 4096);
                heap.push(std::cmp::Reverse((done, th)));
            }
        }
        let mut completed = 0u64;
        let end = SimTime::from_millis(300);
        while let Some(std::cmp::Reverse((done, th))) = heap.pop() {
            if done > end {
                break;
            }
            completed += 1;
            let addr = b.random_page_addr();
            let next = b.submit(done, th, IoType::Read, addr, 4096);
            heap.push(std::cmp::Reverse((next, th)));
        }
        let rate = completed as f64 / 0.3;
        assert!(
            (55_000.0..80_000.0).contains(&rate),
            "iscsi closed-loop rate {rate}"
        );
    }

    #[test]
    fn reflex_block_driver_needs_multiple_threads_for_line_rate() {
        // One Linux TCP thread caps at ~70K msgs/s; four threads reach
        // ~280K, close to the 10GbE 4KB ceiling (§4.2 / §5.6).
        let run = |threads: u32| {
            let mut b = Backend::new(BackendProfile::reflex_remote(), device_a(), threads, 5);
            let mut heap = std::collections::BinaryHeap::new();
            for th in 0..threads as usize {
                for _ in 0..32 {
                    let addr = b.random_page_addr();
                    let done = b.submit(SimTime::ZERO, th, IoType::Read, addr, 4096);
                    heap.push(std::cmp::Reverse((done, th)));
                }
            }
            let mut completed = 0u64;
            let end = SimTime::from_millis(200);
            while let Some(std::cmp::Reverse((done, th))) = heap.pop() {
                if done > end {
                    break;
                }
                completed += 1;
                let addr = b.random_page_addr();
                let next = b.submit(done, th, IoType::Read, addr, 4096);
                heap.push(std::cmp::Reverse((next, th)));
            }
            completed as f64 / 0.2
        };
        let one = run(1);
        let four = run(4);
        assert!((55_000.0..80_000.0).contains(&one), "1-thread {one}");
        assert!(four > 3.0 * one, "4 threads should scale: {four} vs {one}");
        assert!(four < 310_000.0, "10GbE must cap 4KB reads: {four}");
    }

    #[test]
    fn writes_carry_data_on_the_request_path() {
        let mut b = Backend::new(BackendProfile::reflex_remote(), device_a(), 1, 6);
        // A large write's wire time shows up in its completion.
        let t0 = SimTime::ZERO;
        let w = b.submit(t0, 0, IoType::Write, 0, 128 * 1024);
        let wlat = w.saturating_since(t0).as_micros_f64();
        // 128KB at 10GbE ~ 105us of serialization + write buffer.
        assert!(wlat > 100.0, "large write latency {wlat}");
    }
}
