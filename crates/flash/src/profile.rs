//! Device performance profiles.
//!
//! A [`DeviceProfile`] captures the handful of physical parameters that
//! determine a Flash device's latency-vs-load surface. The three named
//! profiles ([`device_a`], [`device_b`], [`device_c`]) are calibrated so the
//! simulated devices reproduce the request cost models of Figure 3 of the
//! paper: write cost ≈ 10 / 20 / 16 tokens and read-only cost ≈ ½ token for
//! device A.

use reflex_sim::SimDuration;

/// Physical parameters of a simulated NVMe Flash device.
///
/// The mechanistic model is: `channels` independent units serve page-sized
/// work items. A 4KB read occupies a channel for `read_occupancy` (halved
/// when the device has seen no writes recently — read-only pipelining);
/// its host-visible latency additionally includes the fixed
/// `read_latency_median` array-read/transfer time. A 4KB write completes
/// into the DRAM buffer quickly (`write_buffer_median`) but enqueues a
/// background page program occupying a channel for `program_occupancy`, and
/// every `gc_every_pages` programs a channel additionally performs an erase
/// (`gc_erase_time`) — this is what makes writes 10–20× more expensive than
/// reads and what drags read tails at high write ratios (Figure 1).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name ("device-a" …).
    pub name: String,
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Internal page size, a power of two; requests smaller than this
    /// cost a full page.
    pub page_size: u32,
    /// Number of independent internal channels (dies/planes aggregated).
    pub channels: u32,
    /// Fixed component of read latency (median of a lognormal).
    pub read_latency_median: SimDuration,
    /// Lognormal sigma for the fixed read component.
    pub read_latency_sigma: f64,
    /// Channel occupancy per 4KB read under mixed load.
    pub read_occupancy: SimDuration,
    /// Multiplier (< 1) on read occupancy when the device is in read-only
    /// mode — models the better pipelining real devices exhibit at
    /// `r = 100%` (the paper's `C(read, 100%) = ½` for device A).
    pub read_only_occupancy_factor: f64,
    /// Host-visible DRAM-buffer write latency (median of a lognormal).
    pub write_buffer_median: SimDuration,
    /// Lognormal sigma for the buffered write latency.
    pub write_buffer_sigma: f64,
    /// Channel occupancy of one background page program.
    pub program_occupancy: SimDuration,
    /// A channel performs an erase after this many page programs.
    pub gc_every_pages: u32,
    /// Channel occupancy of one erase (garbage collection / wear leveling).
    pub gc_erase_time: SimDuration,
    /// Longest wait a read incurs behind an in-progress program/erase
    /// before the FTL suspends it (program/erase suspension).
    pub suspend_slice: SimDuration,
    /// Pending write work beyond which the FTL forces programs ahead of
    /// reads (internal buffer pressure); the source of read-tail collapse.
    pub write_force_threshold: SimDuration,
    /// Backlog of background program time a channel may accumulate before
    /// host writes start stalling (write-buffer backpressure).
    pub write_backlog_limit: SimDuration,
    /// Idle window after the last write before the device flips into
    /// read-only mode.
    pub read_only_window: SimDuration,
    /// Submission queue depth per queue pair.
    pub sq_depth: u32,
    /// Probability a read fails with an uncorrectable media error
    /// (healthy devices: ~0; used for failure-injection testing).
    pub media_error_rate: f64,
}

impl DeviceProfile {
    /// Theoretical mixed-load token rate (4KB-read equivalents per second).
    pub fn token_rate(&self) -> f64 {
        self.channels as f64 / self.read_occupancy.as_secs_f64()
    }

    /// Mechanistic write cost in tokens (program + amortized GC over read
    /// occupancy) — should land near the paper's calibrated C(write).
    pub fn write_cost_tokens(&self) -> f64 {
        let program = self.program_occupancy.as_secs_f64();
        let gc = self.gc_erase_time.as_secs_f64() / self.gc_every_pages as f64;
        (program + gc) / self.read_occupancy.as_secs_f64()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !self.page_size.is_power_of_two() {
            return Err("page_size must be a power of two".into());
        }
        if self.channels == 0 {
            return Err("channels must be non-zero".into());
        }
        if self.capacity_bytes < self.page_size as u64 {
            return Err("capacity must hold at least one page".into());
        }
        if self.read_occupancy.is_zero() {
            return Err("read_occupancy must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.read_only_occupancy_factor)
            || self.read_only_occupancy_factor == 0.0
        {
            return Err("read_only_occupancy_factor must be in (0, 1]".into());
        }
        if self.gc_every_pages == 0 {
            return Err("gc_every_pages must be non-zero".into());
        }
        if self.sq_depth == 0 {
            return Err("sq_depth must be non-zero".into());
        }
        if !(0.0..=1.0).contains(&self.media_error_rate) {
            return Err("media_error_rate must be a probability".into());
        }
        Ok(())
    }
}

/// Device A: the high-end device of the paper — ~1M read-only IOPS,
/// ~650K tokens/s mixed capacity, write cost ≈ 10 tokens.
pub fn device_a() -> DeviceProfile {
    DeviceProfile {
        name: "device-a".to_owned(),
        capacity_bytes: 800 * 1024 * 1024 * 1024,
        page_size: 4096,
        channels: 32,
        read_latency_median: SimDuration::from_micros_f64(76.0),
        read_latency_sigma: 0.11,
        read_occupancy: SimDuration::from_micros_f64(49.2), // 32 / 49.2us = 650K tokens/s
        read_only_occupancy_factor: 0.65,                   // 1.0M read-only IOPS
        write_buffer_median: SimDuration::from_micros_f64(10.0),
        write_buffer_sigma: 0.25,
        program_occupancy: SimDuration::from_micros_f64(430.0), // ~8.7 tokens
        gc_every_pages: 8,
        gc_erase_time: SimDuration::from_micros(500), // +1.3 tokens amortized -> ~10 total
        suspend_slice: SimDuration::from_micros_f64(100.0),
        write_force_threshold: SimDuration::from_micros_f64(3600.0),
        write_backlog_limit: SimDuration::from_millis(4),
        read_only_window: SimDuration::from_millis(5),
        sq_depth: 1024,
        media_error_rate: 0.0,
    }
}

/// Device B: lower-end device — ~300K tokens/s, write cost ≈ 20 tokens.
pub fn device_b() -> DeviceProfile {
    DeviceProfile {
        name: "device-b".to_owned(),
        capacity_bytes: 400 * 1024 * 1024 * 1024,
        page_size: 4096,
        channels: 16,
        read_latency_median: SimDuration::from_micros_f64(88.0),
        read_latency_sigma: 0.13,
        read_occupancy: SimDuration::from_micros_f64(53.3), // 16 / 53.3us = 300K tokens/s
        read_only_occupancy_factor: 0.8,
        write_buffer_median: SimDuration::from_micros_f64(12.0),
        write_buffer_sigma: 0.3,
        program_occupancy: SimDuration::from_micros_f64(960.0), // ~18 tokens
        gc_every_pages: 8,
        gc_erase_time: SimDuration::from_micros(850), // +2 tokens -> ~20 total
        suspend_slice: SimDuration::from_micros_f64(150.0),
        write_force_threshold: SimDuration::from_micros_f64(4500.0),
        write_backlog_limit: SimDuration::from_millis(6),
        read_only_window: SimDuration::from_millis(5),
        sq_depth: 1024,
        media_error_rate: 0.0,
    }
}

/// Device C: mid-range device — ~550K tokens/s, write cost ≈ 16 tokens.
pub fn device_c() -> DeviceProfile {
    DeviceProfile {
        name: "device-c".to_owned(),
        capacity_bytes: 1600 * 1024 * 1024 * 1024,
        page_size: 4096,
        channels: 24,
        read_latency_median: SimDuration::from_micros_f64(80.0),
        read_latency_sigma: 0.12,
        read_occupancy: SimDuration::from_micros_f64(43.6), // 24 / 43.6us = 550K tokens/s
        read_only_occupancy_factor: 0.7,
        write_buffer_median: SimDuration::from_micros_f64(11.0),
        write_buffer_sigma: 0.27,
        program_occupancy: SimDuration::from_micros_f64(610.0), // ~14 tokens
        gc_every_pages: 8,
        gc_erase_time: SimDuration::from_micros(700), // +2 tokens -> ~16 total
        suspend_slice: SimDuration::from_micros_f64(120.0),
        write_force_threshold: SimDuration::from_micros_f64(4000.0),
        write_backlog_limit: SimDuration::from_millis(5),
        read_only_window: SimDuration::from_millis(5),
        sq_depth: 1024,
        media_error_rate: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_profiles_validate() {
        for p in [device_a(), device_b(), device_c()] {
            p.validate().expect("profile must be internally consistent");
        }
    }

    #[test]
    fn device_a_capacity_targets() {
        let p = device_a();
        // Read-only 4KB IOPS: every channel at read-only occupancy.
        let occ = p.read_occupancy.as_secs_f64() * p.read_only_occupancy_factor;
        let iops = p.channels as f64 / occ;
        assert!((0.9e6..1.15e6).contains(&iops), "read-only IOPS {iops}");
        let tokens = p.token_rate();
        assert!((6.0e5..7.0e5).contains(&tokens), "token rate {tokens}");
        let wc = p.write_cost_tokens();
        assert!((9.0..11.0).contains(&wc), "write cost {wc}");
    }

    #[test]
    fn device_b_write_cost_near_20() {
        let wc = device_b().write_cost_tokens();
        assert!((18.0..22.0).contains(&wc), "write cost {wc}");
    }

    #[test]
    fn device_c_write_cost_near_16() {
        let wc = device_c().write_cost_tokens();
        assert!((14.5..17.5).contains(&wc), "write cost {wc}");
    }

    #[test]
    fn validate_rejects_bad_profiles() {
        let mut p = device_a();
        p.page_size = 0;
        assert!(p.validate().is_err());
        let mut p = device_a();
        p.page_size = 3000;
        assert!(p.validate().is_err());
        let mut p = device_a();
        p.channels = 0;
        assert!(p.validate().is_err());
        let mut p = device_a();
        p.read_only_occupancy_factor = 0.0;
        assert!(p.validate().is_err());
        let mut p = device_a();
        p.sq_depth = 0;
        assert!(p.validate().is_err());
    }
}
