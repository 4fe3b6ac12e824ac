//! Local Flash access through SPDK (the paper's "Local" baseline).
//!
//! SPDK gives software direct access to NVMe queues, bypassing the kernel
//! filesystem and block layers; its per-request software cost is tiny
//! (~1.15µs merged submit+complete), letting one core drive ~870K IOPS on
//! local Flash (paper §5.3). [`LocalRig`] measures latency-vs-throughput
//! for local access with a configurable number of polling threads. Like
//! [`sweep_device_point`](crate::sweep_device_point) it drives the device
//! directly: no server, fabric or engine events.

use std::collections::HashMap;

use reflex_flash::{CmdId, DeviceProfile, FlashDevice, IoType, NvmeCommand};
use reflex_sim::{Exponential, Histogram, SimDuration, SimRng, SimTime};

/// Per-request software cost of the SPDK path (submit + completion
/// handling merged; charged at submission).
const SPDK_PER_REQ_CPU: SimDuration = SimDuration::from_nanos(1_150);

/// Results of one local measurement.
#[derive(Debug, Clone)]
pub struct LocalReport {
    /// Read-latency histogram.
    pub read_latency: Histogram,
    /// Write-latency histogram.
    pub write_latency: Histogram,
    /// Completed operations per second over the measured window.
    pub iops: f64,
}

/// A local-access measurement rig: `threads` SPDK polling threads sharing
/// one device, each with its own queue pair.
///
/// # Examples
///
/// ```
/// use reflex_core::LocalRig;
/// use reflex_flash::device_a;
/// use reflex_sim::SimDuration;
///
/// let mut rig = LocalRig::new(device_a(), 1, 7);
/// let rep = rig.run_open_loop(
///     100_000.0,
///     100,
///     4096,
///     SimDuration::from_millis(50),
///     SimDuration::from_millis(100),
/// );
/// let avg = rep.read_latency.mean().as_micros_f64();
/// assert!((70.0..90.0).contains(&avg));
/// ```
#[derive(Debug)]
pub struct LocalRig {
    device: FlashDevice,
    qps: Vec<reflex_flash::QpId>,
    rng: SimRng,
}

impl LocalRig {
    /// Creates a rig with `threads` polling threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(mut profile: DeviceProfile, threads: u32, seed: u64) -> Self {
        assert!(threads > 0, "need at least one thread");
        // Open-loop sweeps intentionally run past saturation.
        profile.sq_depth = 1 << 20;
        let mut rng = SimRng::seed(seed);
        let mut device = FlashDevice::new(profile, rng.fork());
        device.precondition();
        let qps = (0..threads).map(|_| device.create_queue_pair()).collect();
        LocalRig { device, qps, rng }
    }

    /// Open-loop measurement: Poisson arrivals at `iops` with `read_pct`%
    /// reads of `io_size` bytes, spread round-robin over the threads.
    pub fn run_open_loop(
        &mut self,
        iops: f64,
        read_pct: u8,
        io_size: u32,
        warmup: SimDuration,
        measure: SimDuration,
    ) -> LocalReport {
        assert!(iops > 0.0 && read_pct <= 100);
        let gap = Exponential::new(SimDuration::from_secs_f64(1.0 / iops));
        let start_measure = SimTime::ZERO + warmup;
        let end = start_measure + measure;
        let mut thread_busy = vec![SimTime::ZERO; self.qps.len()];
        let mut issued: Vec<(CmdId, SimTime, IoType)> = Vec::new();
        let mut completion_of: HashMap<CmdId, SimTime> = HashMap::new();
        let mut now = SimTime::ZERO;
        let mut id = 0u64;
        while now < end {
            now += self.rng.exponential(gap);
            let th = (id as usize) % self.qps.len();
            let t_submit = now.max(thread_busy[th]) + SPDK_PER_REQ_CPU;
            thread_busy[th] = t_submit;
            let addr = self.device.random_page_addr();
            let op = if self.rng.below(100) < read_pct as u64 {
                IoType::Read
            } else {
                IoType::Write
            };
            let cmd = match op {
                IoType::Read => NvmeCommand::read(CmdId(id), addr, io_size),
                IoType::Write => NvmeCommand::write(CmdId(id), addr, io_size),
            };
            let qp = self.qps[th];
            for c in self.device.poll_completions(now, qp, usize::MAX) {
                completion_of.insert(c.id, c.completed_at);
            }
            self.device.submit(t_submit, qp, cmd).expect("deep sq");
            issued.push((CmdId(id), now, op));
            id += 1;
        }
        for &qp in &self.qps {
            for c in self
                .device
                .poll_completions(SimTime::from_secs(600), qp, usize::MAX)
            {
                completion_of.insert(c.id, c.completed_at);
            }
        }
        let mut read_latency = Histogram::new();
        let mut write_latency = Histogram::new();
        let mut completed_in_window = 0u64;
        for (cid, at, op) in issued {
            let Some(&fin) = completion_of.get(&cid) else {
                continue;
            };
            // Throughput: completions that landed inside the window.
            if fin >= start_measure && fin < end {
                completed_in_window += 1;
            }
            // Latency: requests issued inside the window.
            if at >= start_measure && at < end {
                let lat = fin.saturating_since(at);
                match op {
                    IoType::Read => read_latency.record(lat),
                    IoType::Write => write_latency.record(lat),
                }
            }
        }
        LocalReport {
            read_latency,
            write_latency,
            iops: completed_in_window as f64 / measure.as_secs_f64(),
        }
    }

    /// Closed-loop measurement at queue depth 1 per thread — the unloaded
    /// latency configuration of Table 2.
    pub fn run_unloaded(&mut self, read_pct: u8, io_size: u32, ops: u32) -> LocalReport {
        let mut read_latency = Histogram::new();
        let mut write_latency = Histogram::new();
        let qp = self.qps[0];
        let mut now = SimTime::ZERO;
        for i in 0..ops {
            // Idle gap between probes so the device drains (QD1 prober).
            now += SimDuration::from_micros(200);
            let t_submit = now + SPDK_PER_REQ_CPU;
            let addr = self.device.random_page_addr();
            let op = if self.rng.below(100) < read_pct as u64 {
                IoType::Read
            } else {
                IoType::Write
            };
            let cmd = match op {
                IoType::Read => NvmeCommand::read(CmdId(i as u64), addr, io_size),
                IoType::Write => NvmeCommand::write(CmdId(i as u64), addr, io_size),
            };
            self.device.submit(t_submit, qp, cmd).expect("deep sq");
            let done = self.device.next_completion_time(qp).expect("in flight");
            let _ = self.device.poll_completions(done, qp, usize::MAX);
            // Completion handling costs another CPU slice before the app
            // sees the data.
            let seen = done + SPDK_PER_REQ_CPU;
            let lat = seen.saturating_since(now);
            match op {
                IoType::Read => read_latency.record(lat),
                IoType::Write => write_latency.record(lat),
            }
            now = seen;
        }
        let total = read_latency.count() + write_latency.count();
        LocalReport {
            read_latency,
            write_latency,
            iops: total as f64, // not meaningful for QD1 probing
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reflex_flash::device_a;

    #[test]
    fn unloaded_latencies_match_table2_local_row() {
        let mut rig = LocalRig::new(device_a(), 1, 1);
        let rep = rig.run_unloaded(100, 4096, 2_000);
        let avg = rep.read_latency.mean().as_micros_f64();
        let p95 = rep.read_latency.p95().as_micros_f64();
        // Paper Table 2: local read 78 avg / 90 p95.
        assert!((73.0..85.0).contains(&avg), "local read avg {avg}");
        assert!((85.0..100.0).contains(&p95), "local read p95 {p95}");

        let mut rig = LocalRig::new(device_a(), 1, 2);
        let rep = rig.run_unloaded(0, 4096, 2_000);
        let avg = rep.write_latency.mean().as_micros_f64();
        let p95 = rep.write_latency.p95().as_micros_f64();
        // Paper Table 2: local write 11 avg / 17 p95.
        assert!((8.0..16.0).contains(&avg), "local write avg {avg}");
        assert!((12.0..24.0).contains(&p95), "local write p95 {p95}");
    }

    #[test]
    fn single_core_saturates_near_870k() {
        let mut rig = LocalRig::new(device_a(), 1, 3);
        // Offer 2M IOPS 4KB read-only on one thread: CPU-capped at ~870K.
        let rep = rig.run_open_loop(
            2_000_000.0,
            100,
            4096,
            SimDuration::from_millis(30),
            SimDuration::from_millis(100),
        );
        assert!(
            (780_000.0..920_000.0).contains(&rep.iops),
            "1-thread local IOPS {}",
            rep.iops
        );
    }

    #[test]
    fn two_cores_reach_device_limit() {
        let mut rig = LocalRig::new(device_a(), 2, 4);
        let rep = rig.run_open_loop(
            2_000_000.0,
            100,
            4096,
            SimDuration::from_millis(30),
            SimDuration::from_millis(100),
        );
        // Device A read-only limit ~1M IOPS.
        assert!(
            (900_000.0..1_100_000.0).contains(&rep.iops),
            "2-thread local IOPS {}",
            rep.iops
        );
    }

    #[test]
    fn latency_low_at_half_load() {
        let mut rig = LocalRig::new(device_a(), 2, 5);
        let rep = rig.run_open_loop(
            500_000.0,
            100,
            4096,
            SimDuration::from_millis(30),
            SimDuration::from_millis(100),
        );
        let p95 = rep.read_latency.p95().as_micros_f64();
        assert!(p95 < 400.0, "p95 at 500K local {p95}us");
    }
}
