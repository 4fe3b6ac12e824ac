//! Network stack performance profiles.
//!
//! The paper contrasts the Linux kernel stack (interrupt-driven, copies,
//! scheduling jitter) with the IX dataplane stack (polling, zero-copy,
//! run-to-completion). A [`StackProfile`] captures the per-message software
//! latency each adds on top of the wire, plus the per-message CPU cost that
//! bounds a client thread's message rate (§4.2: the Linux TCP stack
//! supports ~70K messages per second per thread at 4KB).

use reflex_sim::{SimDuration, SimRng};

/// Transport protocol an endpoint speaks. The paper ships TCP (the most
/// heavyweight choice, "a conservative lower bound on performance") and
/// names UDP as the planned lighter transport (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Reliable byte stream: 20B header, per-segment ACK bookkeeping.
    Tcp,
    /// Datagrams: 8B header, no connection state to maintain.
    Udp,
}

impl Transport {
    /// Per-packet framing overhead (Ethernet + IP + transport headers).
    pub fn frame_overhead(self) -> usize {
        match self {
            Transport::Tcp => crate::wire::FRAME_OVERHEAD,
            Transport::Udp => crate::wire::FRAME_OVERHEAD - 12, // 8B UDP vs 20B TCP
        }
    }
}

/// Performance parameters of one network stack implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct StackProfile {
    /// Human-readable name ("linux-tcp", "ix-tcp", …).
    pub name: String,
    /// Median software latency to transmit one message.
    pub tx_median: SimDuration,
    /// Lognormal sigma of the transmit latency (jitter).
    pub tx_sigma: f64,
    /// Median software latency from NIC arrival to application delivery.
    pub rx_median: SimDuration,
    /// Lognormal sigma of the receive latency. Interrupt-driven stacks have
    /// visibly heavier tails here.
    pub rx_sigma: f64,
    /// CPU time one application thread spends per message (send+receive
    /// bookkeeping) — bounds messages/sec/thread.
    pub per_msg_cpu: SimDuration,
    /// Transport protocol this endpoint speaks.
    pub transport: Transport,
}

impl StackProfile {
    /// The Linux kernel TCP stack: ~9µs software latency per direction
    /// with heavy interrupt/scheduling jitter; ~70K msgs/s per thread.
    pub fn linux_tcp() -> Self {
        StackProfile {
            name: "linux-tcp".to_owned(),
            tx_median: SimDuration::from_micros_f64(8.0),
            tx_sigma: 0.3,
            rx_median: SimDuration::from_micros_f64(9.0),
            rx_sigma: 0.4,
            per_msg_cpu: SimDuration::from_micros_f64(14.3), // 1 / 70K msgs/s
            transport: Transport::Tcp,
        }
    }

    /// The IX dataplane TCP stack used by optimized clients: ~2µs per
    /// direction, low jitter, ~1.2µs CPU per message.
    pub fn ix_tcp() -> Self {
        StackProfile {
            name: "ix-tcp".to_owned(),
            tx_median: SimDuration::from_micros_f64(2.0),
            tx_sigma: 0.1,
            rx_median: SimDuration::from_micros_f64(2.0),
            rx_sigma: 0.1,
            per_msg_cpu: SimDuration::from_micros_f64(1.2),
            transport: Transport::Tcp,
        }
    }

    /// The IX dataplane UDP stack: the lightest client path.
    pub fn ix_udp() -> Self {
        StackProfile {
            name: "ix-udp".to_owned(),
            tx_median: SimDuration::from_micros_f64(1.3),
            tx_sigma: 0.1,
            rx_median: SimDuration::from_micros_f64(1.3),
            rx_sigma: 0.1,
            per_msg_cpu: SimDuration::from_micros_f64(0.8),
            transport: Transport::Udp,
        }
    }

    /// The ReFlex server side: the dataplane polls NIC queues directly, so
    /// the stack adds almost nothing here — per-request processing is
    /// charged explicitly by the dataplane CPU model instead.
    pub fn dataplane_raw() -> Self {
        StackProfile {
            name: "dataplane-raw".to_owned(),
            tx_median: SimDuration::from_micros_f64(0.3),
            tx_sigma: 0.05,
            rx_median: SimDuration::from_micros_f64(0.3),
            rx_sigma: 0.05,
            per_msg_cpu: SimDuration::from_micros_f64(0.0),
            transport: Transport::Tcp,
        }
    }

    /// The ReFlex server side speaking UDP (dataplane polls raw queues
    /// either way; the per-request protocol saving is charged in
    /// `DataplaneConfig::udp`).
    pub fn dataplane_raw_udp() -> Self {
        StackProfile {
            name: "dataplane-raw-udp".to_owned(),
            transport: Transport::Udp,
            ..Self::dataplane_raw()
        }
    }

    /// Samples the transmit-side software latency.
    pub fn sample_tx(&self, rng: &mut SimRng) -> SimDuration {
        rng.lognormal(self.tx_median, self.tx_sigma)
    }

    /// Samples the receive-side software latency.
    pub fn sample_rx(&self, rng: &mut SimRng) -> SimDuration {
        rng.lognormal(self.rx_median, self.rx_sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linux_thread_ceiling_near_70k() {
        let rate = 1.0 / StackProfile::linux_tcp().per_msg_cpu.as_secs_f64();
        assert!((65_000.0..75_000.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn ix_is_faster_than_linux_everywhere() {
        let linux = StackProfile::linux_tcp();
        let ix = StackProfile::ix_tcp();
        assert!(ix.tx_median < linux.tx_median);
        assert!(ix.rx_median < linux.rx_median);
        assert!(ix.per_msg_cpu < linux.per_msg_cpu);
        assert!(ix.rx_sigma < linux.rx_sigma);
    }

    #[test]
    fn sampling_is_near_median() {
        let mut rng = SimRng::seed(1);
        let p = StackProfile::linux_tcp();
        let mut xs: Vec<f64> = (0..2_001)
            .map(|_| p.sample_rx(&mut rng).as_micros_f64())
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let median = xs[1_000];
        assert!((median - 9.0).abs() < 1.0, "median {median}");
    }

    #[test]
    fn raw_profile_has_unbounded_thread_rate() {
        assert!(StackProfile::dataplane_raw().per_msg_cpu.is_zero());
    }
}
