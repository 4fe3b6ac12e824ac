//! The paper's software baselines as ReFlex server configurations.
//!
//! The paper (§2.1, §5.2, Table 2) characterises the Linux iSCSI target
//! and the libaio+libevent server by two numbers each: per-core IOPS
//! (~70K and ~75K) and the latency their protocol processing and buffer
//! copies add. Here the first is the dataplane's per-message CPU (rx + tx:
//! 14.3 µs for iSCSI, 13.3 µs for libaio) and the second the server's
//! network stack: Linux TCP with the overhead added to each direction's
//! median, at the overhead's sigma. Requests take the one data path ReFlex
//! takes (dataplane, scheduler, fabric, device); only these numbers
//! differ.

use reflex_core::{ServerConfig, Testbed, TestbedBuilder};
use reflex_dataplane::DataplaneConfig;
use reflex_net::StackProfile;
use reflex_sim::SimDuration;

/// The Linux iSCSI target with `workers` cores: ~70K IOPS per core, 38 µs
/// of protocol and copies per direction.
pub fn iscsi(workers: u32) -> TestbedBuilder {
    baseline(workers, 7.4, 6.9, 38.0, 0.35)
}

/// The libaio+libevent server with `workers` cores: ~75K IOPS per core,
/// 6 µs added per direction.
pub fn libaio(workers: u32) -> TestbedBuilder {
    baseline(workers, 7.0, 6.3, 6.0, 0.4)
}

/// A testbed whose server spends `rx_us`/`tx_us` of CPU per message on
/// each of `workers` cores and whose kernel stack adds `overhead_us`
/// (lognormal, `sigma`) each way.
fn baseline(workers: u32, rx_us: f64, tx_us: f64, overhead_us: f64, sigma: f64) -> TestbedBuilder {
    let us = SimDuration::from_micros_f64;
    let linux = StackProfile::linux_tcp();
    Testbed::builder()
        .server(ServerConfig {
            threads: workers,
            max_threads: workers,
            dataplane: DataplaneConfig {
                rx_msg_cost: us(rx_us),
                tx_msg_cost: us(tx_us),
                ..DataplaneConfig::default()
            },
            ..ServerConfig::default()
        })
        .server_stack(StackProfile {
            tx_median: linux.tx_median + us(overhead_us),
            tx_sigma: sigma,
            rx_median: linux.rx_median + us(overhead_us),
            rx_sigma: sigma,
            ..linux
        })
}
