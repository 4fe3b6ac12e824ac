//! The simulated NVMe Flash device.
//!
//! [`FlashDevice`] computes each command's completion instant *at submission
//! time* from per-channel backlog state (lazy evaluation), so it needs no
//! events of its own: callers poll completion queues exactly like a real
//! NVMe driver polls CQs.
//!
//! The mechanistic model (see [`DeviceProfile`](crate::DeviceProfile)) is
//! what produces the paper's Figure 1 behaviour: background page programs
//! and GC erases occupy channels, reads queue behind them, and tail read
//! latency degrades as the write share of the load grows.

use reflex_sim::{LogNormal, SimDuration, SimRng, SimTime, TimeHeap};
use reflex_telemetry::{Stage, Telemetry, TenantKey};

use crate::profile::DeviceProfile;
use crate::types::{CmdId, IoType, NvmeCommand, NvmeCompletion, NvmeStatus, SubmitError};

/// Identifier of a hardware submission/completion queue pair.
///
/// Each dataplane thread owns one queue pair, mirroring ReFlex's
/// one-QP-per-core design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QpId(pub u32);

/// Per-channel backlog state.
///
/// Reads serialize on `busy_until`. Write work (page programs and GC
/// erases) accumulates in `pending_write_work` and drains in the channel's
/// idle gaps: real FTLs *suspend* programs and erases to serve reads, so a
/// read normally waits at most one suspend slice. Only when the backlog
/// exceeds the profile's force threshold (write-buffer pressure) does the
/// FTL force programs ahead of reads — which is exactly when read tails
/// explode on real devices (paper Figure 1).
#[derive(Debug, Clone, Copy, Default)]
struct Channel {
    busy_until: SimTime,
    pending_write_work: SimDuration,
    pages_since_erase: u32,
    /// Wall time up to which idle capacity has already been consumed for
    /// draining write work (prevents double-counting the same idle gap).
    drain_cursor: SimTime,
}

impl Channel {
    /// Drains pending write work into the not-yet-consumed idle gap
    /// before `now`.
    fn drain_idle(&mut self, now: SimTime) {
        let from = self.busy_until.max(self.drain_cursor);
        let idle = now.saturating_since(from);
        let drained = self.pending_write_work.min(idle);
        self.pending_write_work -= drained;
        self.drain_cursor = self.drain_cursor.max(now);
    }
}

/// A completion as its queue holds it: its instant is the queue's key.
struct Posted {
    id: CmdId,
    op: IoType,
    status: NvmeStatus,
}

/// Aggregate device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Read commands completed or in flight.
    pub reads: u64,
    /// Write commands completed or in flight.
    pub writes: u64,
    /// Pages read.
    pub read_pages: u64,
    /// Pages programmed.
    pub write_pages: u64,
    /// Garbage-collection erases performed.
    pub gc_erases: u64,
    /// Commands rejected for addressing beyond capacity.
    pub out_of_range: u64,
    /// Reads failed with uncorrectable media errors.
    pub media_errors: u64,
    /// Commands aborted because the device was declared dead by a fault
    /// hook.
    pub unavailable: u64,
}

/// What a [`DeviceFaultHook`] does to one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFaultAction {
    /// Service the command normally.
    None,
    /// Complete with [`NvmeStatus::MediaError`]: a transient uncorrectable
    /// read / failed program that a host retry may survive. The command
    /// still occupies the channel (ECC burned the time before giving up).
    TransientError,
    /// Add latency on top of the modelled completion time (stuck-GC spike,
    /// firmware hiccup). The channel occupancy is unchanged — only the
    /// host-visible completion is late.
    ExtraLatency(SimDuration),
    /// The device is dead: abort immediately with
    /// [`NvmeStatus::DeviceUnavailable`] and touch no channel state.
    Dead,
}

/// Per-command fault injection hook, consulted by [`FlashDevice::submit`]
/// for every accepted command.
///
/// Installed via [`FlashDevice::set_fault_hook`]; when no hook is installed
/// the device takes the exact same code path (and consumes the exact same
/// RNG stream) as before this trait existed, so fault-free runs are
/// byte-identical. Implementations needing randomness must bring their own
/// [`SimRng`] stream — the device's stream is off-limits to keep healthy
/// draws undisturbed.
pub trait DeviceFaultHook {
    /// Decides the fate of `cmd` submitted at `now`.
    fn on_command(&mut self, now: SimTime, cmd: &NvmeCommand) -> DeviceFaultAction;
}

struct QueuePair {
    outstanding: u32,
    cq: TimeHeap<Posted>,
}

/// A simulated NVMe Flash device with multiple hardware queue pairs.
///
/// # Examples
///
/// ```
/// use reflex_flash::{device_a, CmdId, FlashDevice, NvmeCommand};
/// use reflex_sim::{SimRng, SimTime};
///
/// let mut dev = FlashDevice::new(device_a(), SimRng::seed(1));
/// let qp = dev.create_queue_pair();
/// let t0 = SimTime::ZERO;
/// dev.submit(t0, qp, NvmeCommand::read(CmdId(1), 0, 4096))?;
/// let done = dev.next_completion_time(qp).expect("one command in flight");
/// let completions = dev.poll_completions(done, qp, 32);
/// assert_eq!(completions.len(), 1);
/// assert_eq!(completions[0].id, CmdId(1));
/// # Ok::<(), reflex_flash::SubmitError>(())
/// ```
pub struct FlashDevice {
    profile: DeviceProfile,
    // Per-command constants, computed once from the profile.
    page_shift: u32,
    read_only_occupancy: SimDuration,
    read_fixed: LogNormal,
    write_buffered: LogNormal,
    channels: Vec<Channel>,
    qps: Vec<QueuePair>,
    rng: SimRng,
    seq: u64,
    last_write_at: Option<SimTime>,
    stats: DeviceStats,
    /// Submissions refused with a full SQ (not in [`DeviceStats`]: a
    /// refused command never reached the device).
    sq_full: u64,
    fault_hook: Option<Box<dyn DeviceFaultHook>>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for FlashDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlashDevice")
            .field("profile", &self.profile.name)
            .field("qps", &self.qps.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FlashDevice {
    /// Creates a device from a validated profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`DeviceProfile::validate`].
    pub fn new(profile: DeviceProfile, rng: SimRng) -> Self {
        profile.validate().expect("invalid device profile");
        let channels = vec![Channel::default(); profile.channels as usize];
        FlashDevice {
            page_shift: profile.page_size.trailing_zeros(),
            read_only_occupancy: profile
                .read_occupancy
                .mul_f64(profile.read_only_occupancy_factor),
            read_fixed: LogNormal::new(profile.read_latency_median, profile.read_latency_sigma),
            write_buffered: LogNormal::new(profile.write_buffer_median, profile.write_buffer_sigma),
            profile,
            channels,
            qps: Vec::new(),
            rng,
            seq: 0,
            last_write_at: None,
            stats: DeviceStats::default(),
            sq_full: 0,
            fault_hook: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle. Recording is purely passive — the
    /// device's timing, RNG draws, and stats are bit-for-bit unchanged.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The device's performance profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Submissions refused with [`SubmitError::QueueFull`] so far.
    pub fn sq_full(&self) -> u64 {
        self.sq_full
    }

    /// Installs a fault-injection hook consulted on every accepted command.
    /// Replaces any previously installed hook.
    pub fn set_fault_hook(&mut self, hook: Box<dyn DeviceFaultHook>) {
        self.fault_hook = Some(hook);
    }

    /// Removes the fault hook, restoring healthy behaviour.
    pub fn clear_fault_hook(&mut self) -> Option<Box<dyn DeviceFaultHook>> {
        self.fault_hook.take()
    }

    /// Allocates a new hardware queue pair.
    pub fn create_queue_pair(&mut self) -> QpId {
        let id = QpId(self.qps.len() as u32);
        self.qps.push(QueuePair {
            outstanding: 0,
            cq: TimeHeap::default(),
        });
        id
    }

    /// `true` if the device has seen no write for the profile's read-only
    /// window — reads then pipeline better (the `C(read, 100%) = ½` effect).
    pub fn in_read_only_mode(&self, now: SimTime) -> bool {
        match self.last_write_at {
            None => true,
            Some(t) => now.saturating_since(t) > self.profile.read_only_window,
        }
    }

    fn channel_index(&self, addr: u64) -> usize {
        let page = addr >> self.page_shift;
        // Multiplicative hash spreads both sequential and strided patterns.
        let h = page.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h % self.channels.len() as u64) as usize
    }

    /// Submits a command on `qp` at instant `now`; returns the completion
    /// instant the model computed. The completion also becomes visible to
    /// [`poll_completions`](Self::poll_completions) at that instant, like
    /// a real CQ.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when `qp` already has `sq_depth`
    /// outstanding commands, [`SubmitError::EmptyCommand`] for zero-length
    /// requests.
    pub fn submit(
        &mut self,
        now: SimTime,
        qp: QpId,
        cmd: NvmeCommand,
    ) -> Result<SimTime, SubmitError> {
        if cmd.len == 0 {
            return Err(SubmitError::EmptyCommand);
        }
        if self.qps[qp.0 as usize].outstanding >= self.profile.sq_depth {
            self.sq_full += 1;
            return Err(SubmitError::QueueFull);
        }

        if cmd.addr.saturating_add(cmd.len as u64) > self.profile.capacity_bytes {
            self.stats.out_of_range += 1;
            let at = now + SimDuration::from_micros(1);
            self.post(qp, at, &cmd, NvmeStatus::OutOfRange);
            return Ok(at);
        }

        // Consult the fault hook first: a dead device aborts before any
        // channel state is touched. With no hook installed this is a no-op
        // and the healthy path below is bit-for-bit unchanged.
        let fault = match self.fault_hook.as_mut() {
            Some(hook) => hook.on_command(now, &cmd),
            None => DeviceFaultAction::None,
        };
        if fault == DeviceFaultAction::Dead {
            self.stats.unavailable += 1;
            let at = now + SimDuration::from_micros(1);
            self.post(qp, at, &cmd, NvmeStatus::DeviceUnavailable);
            return Ok(at);
        }

        let mut completed_at = match cmd.op {
            IoType::Read => self.service_read(now, &cmd),
            IoType::Write => self.service_write(now, &cmd),
        };
        debug_assert!(completed_at >= now);
        if let DeviceFaultAction::ExtraLatency(extra) = fault {
            completed_at += extra;
        }
        // Failure injection: the read occupies the channel either way, but
        // ECC gives up and the completion reports a media error.
        let status = if fault == DeviceFaultAction::TransientError
            || (cmd.op.is_read()
                && self.profile.media_error_rate > 0.0
                && self.rng.chance(self.profile.media_error_rate))
        {
            self.stats.media_errors += 1;
            NvmeStatus::MediaError
        } else {
            NvmeStatus::Success
        };
        self.telemetry.span(
            TenantKey::GLOBAL,
            Stage::Channel,
            completed_at.saturating_since(now),
        );
        self.post(qp, completed_at, &cmd, status);
        Ok(completed_at)
    }

    /// Posts `cmd`'s completion to `qp`'s queue, visible from `at`; ties
    /// at one instant leave in submission order.
    fn post(&mut self, qp: QpId, at: SimTime, cmd: &NvmeCommand, status: NvmeStatus) {
        let q = &mut self.qps[qp.0 as usize];
        q.outstanding += 1;
        let (id, op) = (cmd.id, cmd.op);
        q.cq.push(at, self.seq, Posted { id, op, status });
        self.seq += 1;
    }

    fn service_read(&mut self, now: SimTime, cmd: &NvmeCommand) -> SimTime {
        let pages = cmd.pages(self.page_shift) as u64;
        self.stats.reads += 1;
        self.stats.read_pages += pages;

        let occ_page = if self.in_read_only_mode(now) {
            self.read_only_occupancy
        } else {
            self.profile.read_occupancy
        };
        let fixed = self.rng.lognormal(self.read_fixed);

        // Multi-page commands stripe across channels (page i of the
        // request lands on the channel its page address hashes to); the
        // command completes when its slowest page does.
        let mut completed = now;
        for i in 0..pages {
            let addr = cmd.addr + (i << self.page_shift);
            let ch_idx = self.channel_index(addr);
            let ch = &mut self.channels[ch_idx];
            ch.drain_idle(now);
            let mut start = now.max(ch.busy_until);
            if !ch.pending_write_work.is_zero() {
                // Program suspension: wait out the in-flight program
                // slice. If buffer pressure forces programs ahead of
                // reads, wait for the excess backlog too — the read-tail
                // collapse of Figure 1.
                let suspend = ch.pending_write_work.min(self.profile.suspend_slice);
                let forced = ch
                    .pending_write_work
                    .saturating_sub(self.profile.write_force_threshold);
                let delay = suspend.max(forced);
                start += delay;
                ch.pending_write_work -= delay.min(ch.pending_write_work);
            }
            ch.busy_until = start + occ_page;
            completed = completed.max(start + fixed);
        }
        completed
    }

    fn service_write(&mut self, now: SimTime, cmd: &NvmeCommand) -> SimTime {
        let pages = cmd.pages(self.page_shift) as u64;
        self.stats.writes += 1;
        self.stats.write_pages += pages;
        self.last_write_at = Some(now);

        let program = self.profile.program_occupancy;
        let buffered = self.rng.lognormal(self.write_buffered);

        // Each page's program lands on its own channel; host completion
        // stalls on the most backlogged channel involved once its pending
        // work exceeds the write-buffer allowance.
        let mut worst_stall = SimDuration::ZERO;
        for i in 0..pages {
            let addr = cmd.addr + (i << self.page_shift);
            let ch_idx = self.channel_index(addr);
            let ch = &mut self.channels[ch_idx];
            ch.drain_idle(now);
            ch.pending_write_work += program;
            ch.pages_since_erase += 1;
            while ch.pages_since_erase >= self.profile.gc_every_pages {
                ch.pages_since_erase -= self.profile.gc_every_pages;
                ch.pending_write_work += self.profile.gc_erase_time;
                self.stats.gc_erases += 1;
            }
            let stall = ch
                .pending_write_work
                .saturating_sub(self.profile.write_backlog_limit);
            worst_stall = worst_stall.max(stall);
        }
        now + buffered + worst_stall
    }

    /// Pops up to `max` completions with `completed_at <= now` from `qp`'s
    /// completion queue, in completion order.
    pub fn poll_completions(&mut self, now: SimTime, qp: QpId, max: usize) -> Vec<NvmeCompletion> {
        let mut out = Vec::new();
        self.poll_completions_into(now, qp, max, &mut out);
        out
    }

    /// [`FlashDevice::poll_completions`] into a caller-owned buffer: `out`
    /// is cleared and refilled, so a completion loop reusing one scratch
    /// `Vec` drains batches without allocating in steady state.
    pub fn poll_completions_into(
        &mut self,
        now: SimTime,
        qp: QpId,
        max: usize,
        out: &mut Vec<NvmeCompletion>,
    ) {
        out.clear();
        let q = &mut self.qps[qp.0 as usize];
        while out.len() < max {
            let Some((completed_at, Posted { id, op, status })) = q.cq.pop_due(now) else {
                break;
            };
            q.outstanding -= 1;
            let completion = NvmeCompletion {
                id,
                op,
                completed_at,
                status,
            };
            out.push(completion);
        }
    }

    /// Instant of `qp`'s earliest pending completion, if any.
    pub fn next_completion_time(&self, qp: QpId) -> Option<SimTime> {
        self.qps[qp.0 as usize].cq.next_at()
    }

    /// Preconditions the device to steady state (the paper preconditions
    /// real devices with sequential + random writes): marks every channel
    /// mid-way to its next GC erase so write costs are immediately at their
    /// steady-state average.
    pub fn precondition(&mut self) {
        let half = self.profile.gc_every_pages / 2;
        for ch in &mut self.channels {
            ch.pages_since_erase = half;
        }
    }

    /// Convenience: submit a 4KB read at a uniformly random page-aligned
    /// address (workload generators use this for random-read patterns).
    pub fn random_page_addr(&mut self) -> u64 {
        let pages = self.profile.capacity_bytes >> self.page_shift;
        self.rng.below(pages) << self.page_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::device_a;
    use crate::types::CmdId;
    use reflex_sim::SimRng;

    fn dev() -> (FlashDevice, QpId) {
        let mut d = FlashDevice::new(device_a(), SimRng::seed(42));
        let qp = d.create_queue_pair();
        (d, qp)
    }

    /// The channel map computed with the page shift picks the channel
    /// `(addr / page_size * phi) % channels` picks, on devices A, B and C
    /// (32, 16 and 24 channels), over random addresses and the ends of the
    /// address space.
    #[test]
    fn channel_index_is_the_modulo_map() {
        use crate::profile::{device_b, device_c};
        let mut rng = SimRng::seed(34);
        for profile in [device_a(), device_b(), device_c()] {
            let (page, channels) = (u64::from(profile.page_size), u64::from(profile.channels));
            let d = FlashDevice::new(profile, SimRng::seed(1));
            let edges = [0, page - 1, page, u64::MAX, u64::MAX - page];
            let addrs = edges.into_iter().chain((0..20_000).map(|_| rng.next_u64()));
            for addr in addrs {
                let want = (addr / page).wrapping_mul(0x9e37_79b9_7f4a_7c15) % channels;
                assert_eq!(
                    d.channel_index(addr) as u64,
                    want,
                    "{} addr {addr}",
                    d.profile.name
                );
            }
        }
    }

    #[test]
    fn unloaded_read_latency_matches_profile() {
        let (mut d, qp) = dev();
        let mut total = 0.0;
        let n = 2_000;
        let mut t = SimTime::ZERO;
        for i in 0..n {
            let addr = d.random_page_addr();
            d.submit(t, qp, NvmeCommand::read(CmdId(i), addr, 4096))
                .unwrap();
            let done = d.next_completion_time(qp).unwrap();
            let cs = d.poll_completions(done, qp, 8);
            assert_eq!(cs.len(), 1);
            total += (cs[0].completed_at - t).as_micros_f64();
            t = done + SimDuration::from_micros(50); // queue depth 1, idle gaps
        }
        let avg = total / n as f64;
        // Unloaded read ~ fixed component only (single page): ~76.5us mean.
        assert!((72.0..=82.0).contains(&avg), "unloaded read avg {avg}us");
    }

    #[test]
    fn unloaded_write_latency_is_buffered() {
        let (mut d, qp) = dev();
        let mut total = 0.0;
        let n = 500;
        let mut t = SimTime::ZERO;
        for i in 0..n {
            let addr = d.random_page_addr();
            d.submit(t, qp, NvmeCommand::write(CmdId(i), addr, 4096))
                .unwrap();
            let done = d.next_completion_time(qp).unwrap();
            d.poll_completions(done, qp, 8);
            total += (done - t).as_micros_f64();
            t = done + SimDuration::from_millis(1); // let programs drain
        }
        let avg = total / n as f64;
        assert!((8.0..=16.0).contains(&avg), "unloaded write avg {avg}us");
    }

    #[test]
    fn reads_queue_behind_writes_on_same_channel() {
        let (mut d, qp) = dev();
        let addr = 0u64;
        let t0 = SimTime::ZERO;
        // Stack enough writes on one channel to exceed the force threshold,
        // then read the same channel.
        for i in 0..16 {
            d.submit(t0, qp, NvmeCommand::write(CmdId(i), addr, 4096))
                .unwrap();
        }
        d.submit(t0, qp, NvmeCommand::read(CmdId(100), addr, 4096))
            .unwrap();
        let mut read_done = None;
        let mut poll_t = t0;
        for _ in 0..100 {
            poll_t += SimDuration::from_millis(1);
            for c in d.poll_completions(poll_t, qp, 64) {
                if c.id == CmdId(100) {
                    read_done = Some(c.completed_at);
                }
            }
            if read_done.is_some() {
                break;
            }
        }
        let lat = (read_done.expect("read completes") - t0).as_micros_f64();
        // 16 programs x 430us = 6.9ms of backlog; ~3.3ms is forced ahead of
        // the read: far above unloaded latency.
        assert!(lat > 2_000.0, "interfered read latency only {lat}us");
    }

    #[test]
    fn read_only_mode_engages_after_idle_window() {
        let (mut d, qp) = dev();
        assert!(d.in_read_only_mode(SimTime::ZERO));
        d.submit(SimTime::ZERO, qp, NvmeCommand::write(CmdId(0), 0, 4096))
            .unwrap();
        assert!(!d.in_read_only_mode(SimTime::from_millis(1)));
        assert!(d.in_read_only_mode(SimTime::from_millis(20)));
    }

    #[test]
    fn queue_full_is_reported() {
        let (mut d, qp) = dev();
        let depth = d.profile().sq_depth;
        for i in 0..depth {
            d.submit(
                SimTime::ZERO,
                qp,
                NvmeCommand::read(CmdId(i as u64), 0, 4096),
            )
            .unwrap();
        }
        let err = d.submit(SimTime::ZERO, qp, NvmeCommand::read(CmdId(9999), 0, 4096));
        assert_eq!(err, Err(SubmitError::QueueFull));
        // Draining completions frees slots.
        let t = SimTime::from_secs(10);
        let n = d.poll_completions(t, qp, usize::MAX);
        assert_eq!(n.len(), depth as usize);
        assert!(d
            .submit(t, qp, NvmeCommand::read(CmdId(9999), 0, 4096))
            .is_ok());
    }

    #[test]
    fn out_of_range_completes_with_error_status() {
        let (mut d, qp) = dev();
        let cap = d.profile().capacity_bytes;
        d.submit(SimTime::ZERO, qp, NvmeCommand::read(CmdId(1), cap, 4096))
            .unwrap();
        let cs = d.poll_completions(SimTime::from_millis(1), qp, 8);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].status, NvmeStatus::OutOfRange);
        assert_eq!(d.stats().out_of_range, 1);
    }

    #[test]
    fn empty_command_rejected() {
        let (mut d, qp) = dev();
        let err = d.submit(SimTime::ZERO, qp, NvmeCommand::read(CmdId(1), 0, 0));
        assert_eq!(err, Err(SubmitError::EmptyCommand));
    }

    #[test]
    fn completions_come_out_in_time_order() {
        let (mut d, qp) = dev();
        for i in 0..200u64 {
            let addr = d.random_page_addr();
            let cmd = if i % 3 == 0 {
                NvmeCommand::write(CmdId(i), addr, 4096)
            } else {
                NvmeCommand::read(CmdId(i), addr, 4096)
            };
            d.submit(SimTime::from_nanos(i * 100), qp, cmd).unwrap();
        }
        let cs = d.poll_completions(SimTime::from_secs(1), qp, usize::MAX);
        assert_eq!(cs.len(), 200);
        for w in cs.windows(2) {
            assert!(w[0].completed_at <= w[1].completed_at);
        }
    }

    #[test]
    fn multiple_qps_are_independent() {
        let mut d = FlashDevice::new(device_a(), SimRng::seed(1));
        let qp0 = d.create_queue_pair();
        let qp1 = d.create_queue_pair();
        d.submit(SimTime::ZERO, qp0, NvmeCommand::read(CmdId(1), 0, 4096))
            .unwrap();
        assert_eq!(d.qps[qp0.0 as usize].outstanding, 1);
        assert_eq!(d.qps[qp1.0 as usize].outstanding, 0);
        let t = SimTime::from_millis(1);
        assert!(d.poll_completions(t, qp1, 8).is_empty());
        assert_eq!(d.poll_completions(t, qp0, 8).len(), 1);
    }

    #[test]
    fn multi_page_reads_stripe_across_channels() {
        let (mut d, qp) = dev();
        // 32KB read = 8 pages striped over channels: latency stays near
        // the fixed array-read time, while channel occupancy (and thus the
        // token cost the scheduler charges) is 8x a 4KB read.
        d.submit(SimTime::ZERO, qp, NvmeCommand::read(CmdId(1), 0, 32 * 1024))
            .unwrap();
        let done = d.next_completion_time(qp).unwrap();
        let lat = (done - SimTime::ZERO).as_micros_f64();
        assert!(
            (60.0..200.0).contains(&lat),
            "32KB striped read latency {lat}us"
        );
        assert_eq!(d.stats().read_pages, 8);
    }

    #[test]
    fn gc_erases_accumulate_with_writes() {
        let (mut d, qp) = dev();
        d.precondition();
        let mut t = SimTime::ZERO;
        for i in 0..2_000u64 {
            let addr = d.random_page_addr();
            d.submit(t, qp, NvmeCommand::write(CmdId(i), addr, 4096))
                .unwrap();
            t += SimDuration::from_micros(20);
            d.poll_completions(t, qp, usize::MAX);
        }
        assert!(
            d.stats().gc_erases > 10,
            "expected GC activity, got {:?}",
            d.stats()
        );
    }

    struct ScriptedHook {
        actions: Vec<DeviceFaultAction>,
    }

    impl DeviceFaultHook for ScriptedHook {
        fn on_command(&mut self, _now: SimTime, _cmd: &NvmeCommand) -> DeviceFaultAction {
            if self.actions.is_empty() {
                DeviceFaultAction::None
            } else {
                self.actions.remove(0)
            }
        }
    }

    #[test]
    fn fault_hook_injects_transient_and_death() {
        let (mut d, qp) = dev();
        d.set_fault_hook(Box::new(ScriptedHook {
            actions: vec![
                DeviceFaultAction::TransientError,
                DeviceFaultAction::Dead,
                DeviceFaultAction::None,
            ],
        }));
        let t0 = SimTime::ZERO;
        for i in 0..3 {
            d.submit(t0, qp, NvmeCommand::read(CmdId(i), i * 4096, 4096))
                .unwrap();
        }
        let cs = d.poll_completions(SimTime::from_secs(1), qp, usize::MAX);
        assert_eq!(cs.len(), 3);
        let by_id = |id: u64| cs.iter().find(|c| c.id == CmdId(id)).unwrap();
        assert_eq!(by_id(0).status, NvmeStatus::MediaError);
        assert_eq!(by_id(1).status, NvmeStatus::DeviceUnavailable);
        assert_eq!(by_id(2).status, NvmeStatus::Success);
        assert_eq!(d.stats().media_errors, 1);
        assert_eq!(d.stats().unavailable, 1);
        // Dead completions abort fast, without paying the read latency.
        assert!((by_id(1).completed_at - t0).as_micros_f64() < 2.0);
    }

    #[test]
    fn fault_hook_extra_latency_delays_completion() {
        let (mut d0, qp0) = dev();
        let (mut d1, qp1) = dev();
        d1.set_fault_hook(Box::new(ScriptedHook {
            actions: vec![DeviceFaultAction::ExtraLatency(SimDuration::from_millis(2))],
        }));
        d0.submit(SimTime::ZERO, qp0, NvmeCommand::read(CmdId(1), 0, 4096))
            .unwrap();
        d1.submit(SimTime::ZERO, qp1, NvmeCommand::read(CmdId(1), 0, 4096))
            .unwrap();
        let healthy = d0.next_completion_time(qp0).unwrap();
        let delayed = d1.next_completion_time(qp1).unwrap();
        let gap = (delayed - healthy).as_micros_f64();
        assert!((gap - 2_000.0).abs() < 1e-6, "gap {gap}us");
    }

    #[test]
    fn fault_hook_does_not_perturb_healthy_rng_stream() {
        // Same seed, one device with a pass-through hook: identical
        // completion times (the hook must not consume device RNG).
        let (mut d0, qp0) = dev();
        let (mut d1, qp1) = dev();
        d1.set_fault_hook(Box::new(ScriptedHook { actions: vec![] }));
        for i in 0..50u64 {
            let t = SimTime::from_micros(i * 10);
            d0.submit(t, qp0, NvmeCommand::read(CmdId(i), i * 4096, 4096))
                .unwrap();
            d1.submit(t, qp1, NvmeCommand::read(CmdId(i), i * 4096, 4096))
                .unwrap();
            assert_eq!(
                d0.next_completion_time(qp0),
                d1.next_completion_time(qp1),
                "diverged at cmd {i}"
            );
            d0.poll_completions(SimTime::from_secs(1), qp0, usize::MAX);
            d1.poll_completions(SimTime::from_secs(1), qp1, usize::MAX);
        }
    }

    #[test]
    fn wear_factor_slows_writes() {
        // A worn device: program occupancy x4.
        let mut profile = device_a();
        profile.program_occupancy = profile.program_occupancy * 4;
        let mut d = FlashDevice::new(profile, SimRng::seed(42));
        let qp = d.create_queue_pair();
        let t0 = SimTime::ZERO;
        for i in 0..8 {
            d.submit(t0, qp, NvmeCommand::write(CmdId(i), 0, 4096))
                .unwrap();
        }
        d.submit(t0, qp, NvmeCommand::read(CmdId(99), 0, 4096))
            .unwrap();
        let all = d.poll_completions(SimTime::from_secs(1), qp, usize::MAX);
        let read = all.iter().find(|c| c.id == CmdId(99)).unwrap();
        let lat = (read.completed_at - t0).as_micros_f64();
        // 8 programs x 430us x 4 wear = ~13.8ms backlog; ~10ms forced ahead.
        assert!(lat > 5_000.0, "worn-device read latency {lat}us");
    }
}
