//! Dataplane CPU-cost configuration.
//!
//! The dataplane's throughput per core emerges from these per-item CPU
//! costs. They are calibrated so one simulated core peaks at ~850K IOPS for
//! 1KB requests (paper §5.3), spends ~20% of its time on TCP/IP processing
//! and 2–8% on QoS scheduling, and degrades once per-connection state
//! exceeds the last-level cache (paper Figure 6c).

use reflex_cache::CacheConfig;
use reflex_sim::SimDuration;

/// Models LLC pressure from TCP connection state: a multiplier applied to
/// per-message CPU costs as the connection count grows (paper §5.5:
/// performance degrades beyond ~5K connections per core as connection
/// state spills out of the last-level cache).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnPressure {
    /// Mild warming term: extra cost fraction reached by `warm_conns`.
    pub warm_penalty: f64,
    /// Connections at which the warming term saturates.
    pub warm_conns: u32,
    /// Connections beyond which the spill term starts.
    pub spill_threshold: u32,
    /// Extra cost fraction per `spill_threshold` connections beyond it.
    pub spill_penalty: f64,
}

impl Default for ConnPressure {
    fn default() -> Self {
        ConnPressure {
            warm_penalty: 0.10,
            warm_conns: 1_000,
            spill_threshold: 5_000,
            spill_penalty: 0.55,
        }
    }
}

impl ConnPressure {
    /// The CPU-cost multiplier for `conns` active connections.
    pub fn factor(&self, conns: u32) -> f64 {
        let warm = self.warm_penalty * (conns as f64 / self.warm_conns as f64).min(1.0);
        let spill = if conns > self.spill_threshold {
            self.spill_penalty * (conns - self.spill_threshold) as f64 / self.spill_threshold as f64
        } else {
            0.0
        };
        1.0 + warm + spill
    }
}

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
    /// Fixed CPU per QoS scheduling round.
    pub sched_base_cost: SimDuration,
    /// CPU per registered tenant per scheduling round (token generation,
    /// queue inspection).
    pub sched_per_tenant_cost: SimDuration,
    /// Minimum spacing between scheduling rounds: under low load the
    /// thread schedules immediately per arrival batch; this floor stops a
    /// many-tenant scheduler from being re-run for every single message
    /// (the paper's rounds run every 0.5-100us).
    pub min_sched_interval: SimDuration,
    /// Adaptive batching cap (paper: 64).
    pub batch_max: usize,
    /// When requests are queued but not admissible, the thread re-enters
    /// the scheduling step after this interval at the latest. The control
    /// plane keeps it ≤ 5% of the strictest SLO (paper §3.2.2).
    pub max_sched_interval: SimDuration,
    /// Connection-state cache-pressure model.
    pub conn_pressure: ConnPressure,
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
            sched_base_cost: SimDuration::from_nanos(150),
            sched_per_tenant_cost: SimDuration::from_nanos(12),
            min_sched_interval: SimDuration::from_micros(3),
            batch_max: 64,
            max_sched_interval: SimDuration::from_micros(10),
            conn_pressure: ConnPressure::default(),
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

    /// Theoretical single-core IOPS ceiling with few connections and few
    /// tenants (rx + tx cost per request, scheduling amortized over a full
    /// batch).
    pub fn peak_iops_per_core(&self) -> f64 {
        let per_req = self.rx_msg_cost.as_secs_f64()
            + self.tx_msg_cost.as_secs_f64()
            + self.sched_base_cost.as_secs_f64() / self.batch_max as f64;
        1.0 / per_req
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
        if self.max_sched_interval.is_zero() {
            return Err("max_sched_interval must be positive".into());
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
        let peak = DataplaneConfig::default().peak_iops_per_core();
        assert!(
            (800_000.0..1_000_000.0).contains(&peak),
            "peak {peak} IOPS/core"
        );
    }

    #[test]
    fn conn_pressure_shape() {
        let p = ConnPressure::default();
        assert!((p.factor(1) - 1.0).abs() < 0.01);
        // ~850 connections: the paper's 780K vs 850K peak (~9%).
        let f850 = p.factor(850);
        assert!((1.05..1.12).contains(&f850), "factor(850) = {f850}");
        // At 5K connections the warm term has saturated, no spill yet.
        let f5k = p.factor(5_000);
        assert!((1.09..1.12).contains(&f5k), "factor(5000) = {f5k}");
        // Beyond 5K the spill term dominates.
        let f10k = p.factor(10_000);
        assert!(f10k > 1.5, "factor(10000) = {f10k}");
        // Monotone.
        let mut prev = 0.0;
        for n in [0u32, 100, 500, 1_000, 2_000, 5_000, 7_000, 10_000, 20_000] {
            let f = p.factor(n);
            assert!(f >= prev);
            prev = f;
        }
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
            max_sched_interval: SimDuration::ZERO,
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
