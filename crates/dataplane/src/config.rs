//! Dataplane CPU-cost configuration.
//!
//! The dataplane's throughput per core emerges from these per-item CPU
//! costs and the thread's fixed scheduling and connection-pressure
//! constants. They are calibrated so one simulated core peaks at ~850K
//! IOPS for 1KB requests (paper §5.3), spends ~20% of its time on TCP/IP
//! processing and 2–8% on QoS scheduling, and degrades once
//! per-connection state exceeds the last-level cache (paper Figure 6c).

use reflex_cache::CacheConfig;
use reflex_sim::SimDuration;

/// Per-item CPU costs of a dataplane thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataplaneConfig {
    /// CPU per incoming message: NIC RX descriptor handling, TCP/IP
    /// receive, protocol parse, ACL check, event dispatch, read/write
    /// syscall.
    pub rx_msg_cost: SimDuration,
    /// CPU per outgoing response: completion event, send syscall, TCP/IP
    /// transmit, NIC TX descriptor.
    pub tx_msg_cost: SimDuration,
    /// Adaptive batching cap (paper: 64).
    pub batch_max: usize,
    /// Per-thread DRAM read cache in front of the flash device. `None`
    /// (the default) disables the tier entirely; `Some` gives every
    /// dataplane thread a private cache of the configured size: no
    /// cross-thread coherence traffic.
    pub cache: Option<CacheConfig>,
}

impl Default for DataplaneConfig {
    fn default() -> Self {
        DataplaneConfig {
            rx_msg_cost: SimDuration::from_nanos(640),
            tx_msg_cost: SimDuration::from_nanos(490),
            batch_max: 64,
            cache: None,
        }
    }
}

impl DataplaneConfig {
    /// Per-request costs with the UDP transport: the dataplane spends
    /// ~20% of its request time in TCP/IP processing (paper §5.3), most
    /// of which a datagram protocol avoids.
    pub fn udp() -> Self {
        DataplaneConfig {
            rx_msg_cost: SimDuration::from_nanos(500),
            tx_msg_cost: SimDuration::from_nanos(380),
            ..DataplaneConfig::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_max == 0 {
            return Err("batch_max must be non-zero".into());
        }
        if self.rx_msg_cost.is_zero() || self.tx_msg_cost.is_zero() {
            return Err("per-message costs must be positive".into());
        }
        if let Some(cache) = &self.cache {
            cache.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_peaks_near_850k_iops() {
        // Scheduling amortized over a full batch, few connections.
        let c = DataplaneConfig::default();
        let per_req = c.rx_msg_cost.as_secs_f64()
            + c.tx_msg_cost.as_secs_f64()
            + crate::thread::SCHED_BASE_COST.as_secs_f64() / c.batch_max as f64;
        let peak = 1.0 / per_req;
        assert!(
            (800_000.0..1_000_000.0).contains(&peak),
            "peak {peak} IOPS/core"
        );
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = DataplaneConfig {
            batch_max: 0,
            ..DataplaneConfig::default()
        };
        assert!(c.validate().is_err());
        let c = DataplaneConfig {
            rx_msg_cost: SimDuration::ZERO,
            ..DataplaneConfig::default()
        };
        assert!(c.validate().is_err());
        let c = DataplaneConfig {
            cache: Some(CacheConfig::with_capacity(0)),
            ..DataplaneConfig::default()
        };
        assert!(c.validate().is_err());
        let c = DataplaneConfig {
            cache: Some(CacheConfig::default_profile()),
            ..DataplaneConfig::default()
        };
        assert!(c.validate().is_ok());
        assert!(DataplaneConfig::default().validate().is_ok());
    }
}
