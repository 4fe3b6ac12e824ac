//! Tenants and service-level objectives.

use std::fmt;

use reflex_sim::SimDuration;

use crate::cost::CostModel;
use crate::tokens::TokenRate;

/// Globally unique tenant identifier.
///
/// A tenant is the paper's accounting/enforcement abstraction: one tenant
/// may be shared by thousands of connections from many client machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// A latency-critical tenant's service-level objective: a tail-read-latency
/// limit at a given throughput and read/write ratio (paper §3.2).
///
/// # Examples
///
/// ```
/// use reflex_qos::{CostModel, SloSpec};
/// use reflex_sim::SimDuration;
///
/// // 50K IOPS with 200us p95 read latency at an 80% read ratio.
/// let slo = SloSpec::new(50_000, 80, SimDuration::from_micros(200));
/// let rate = slo.token_rate(&CostModel::for_device_a(), 4096);
/// // 0.8*50K*1 + 0.2*50K*10 = 140K tokens/s.
/// assert_eq!(rate.as_millitokens_per_sec(), 140_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SloSpec {
    /// Guaranteed I/O operations per second.
    pub iops: u64,
    /// Percentage of the tenant's requests that are reads (0–100).
    pub read_pct: u8,
    /// 95th-percentile read latency bound.
    pub p95_read_latency: SimDuration,
}

impl SloSpec {
    /// Creates an SLO.
    ///
    /// # Panics
    ///
    /// Panics if `read_pct > 100` or `iops == 0`.
    pub fn new(iops: u64, read_pct: u8, p95_read_latency: SimDuration) -> Self {
        assert!(read_pct <= 100, "read_pct is a percentage");
        assert!(iops > 0, "an SLO must reserve some throughput");
        SloSpec {
            iops,
            read_pct,
            p95_read_latency,
        }
    }

    /// The token rate this SLO reserves under `model` for requests of
    /// `io_size` bytes (paper §3.2.2 reservation formula).
    pub fn token_rate(&self, model: &CostModel, io_size: u32) -> TokenRate {
        TokenRate::millitokens_per_sec(model.reservation_tokens_per_sec(
            self.iops,
            self.read_pct,
            io_size,
        ))
    }
}

/// Tenant service class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantClass {
    /// Guaranteed tail latency and throughput.
    LatencyCritical(SloSpec),
    /// Opportunistically uses unallocated/unused bandwidth.
    BestEffort,
}

impl TenantClass {
    /// `true` for latency-critical tenants.
    pub fn is_latency_critical(&self) -> bool {
        matches!(self, TenantClass::LatencyCritical(_))
    }

    /// The SLO, if latency-critical.
    pub fn slo(&self) -> Option<&SloSpec> {
        match self {
            TenantClass::LatencyCritical(slo) => Some(slo),
            TenantClass::BestEffort => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_reservation_matches_paper_example() {
        let slo = SloSpec::new(100_000, 80, SimDuration::from_micros(500));
        let rate = slo.token_rate(&CostModel::for_device_a(), 4096);
        assert_eq!(rate.as_millitokens_per_sec(), 280_000_000);
    }

    #[test]
    fn hundred_percent_read_slo() {
        // Figure 5 tenant A: 120K IOPS at 100% read => 120K tokens/s.
        let slo = SloSpec::new(120_000, 100, SimDuration::from_micros(500));
        let rate = slo.token_rate(&CostModel::for_device_a(), 4096);
        assert_eq!(rate.as_millitokens_per_sec(), 120_000_000);
    }

    #[test]
    fn class_accessors() {
        let slo = SloSpec::new(1_000, 50, SimDuration::from_millis(1));
        let lc = TenantClass::LatencyCritical(slo);
        assert!(lc.is_latency_critical());
        assert_eq!(lc.slo(), Some(&slo));
        let be = TenantClass::BestEffort;
        assert!(!be.is_latency_critical());
        assert_eq!(be.slo(), None);
    }

    #[test]
    #[should_panic(expected = "percentage")]
    fn invalid_read_pct_panics() {
        let _ = SloSpec::new(1, 101, SimDuration::ZERO);
    }

    #[test]
    fn tenant_id_display() {
        assert_eq!(TenantId(3).to_string(), "tenant#3");
    }
}
