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
//! differ. Local SPDK (Table 2, Figure 4) and Figure 7's local kernel
//! driver are the same path again, with the application on the server's
//! machine.

use reflex_core::{ServerConfig, Testbed, TestbedBuilder};
use reflex_dataplane::DataplaneConfig;
use reflex_net::{LinkConfig, StackProfile};
use reflex_sim::SimDuration;

/// A data path by name, and a builder of its testbed, clients set.
pub(crate) type BlockPath = (&'static str, fn() -> TestbedBuilder);

/// The block data paths a Linux application of Figure 7 runs on: the
/// local kernel driver, the ReFlex remote block device driver and iSCSI.
pub(crate) const BLOCK_PATHS: [BlockPath; 3] = [
    ("local", local_kernel),
    ("reflex", || {
        Testbed::builder().client_machines(vec![StackProfile::linux_tcp()])
    }),
    ("iscsi", || {
        iscsi(1).client_machines(vec![StackProfile::linux_tcp()])
    }),
];

/// Local SPDK (§5.3, Table 2): an application on the server's machine
/// polling the device through the dataplane with `threads` cores. Its
/// stack costs nothing; each request costs the dataplane's receive and
/// transmit CPU, 1.13 µs, against SPDK's 1.15 µs.
pub fn local_spdk(threads: u32) -> TestbedBuilder {
    loopback(no_stack()).server(ServerConfig {
        threads,
        ..ServerConfig::default()
    })
}

/// The local kernel NVMe driver (§5.6): a client stack with the block
/// layer's costs: 4.8 µs of CPU per request (~200K IOPS per thread, so
/// FIO needs ~5 threads to saturate the device), 3 µs to submit and 9 µs
/// for the interrupt and completion.
pub fn local_kernel() -> TestbedBuilder {
    let us = SimDuration::from_micros_f64;
    loopback(StackProfile {
        name: "local-nvme".to_owned(),
        tx_median: us(3.0),
        tx_sigma: 0.25,
        rx_median: us(9.0),
        rx_sigma: 0.25,
        per_msg_cpu: us(4.8),
        ..StackProfile::linux_tcp()
    })
}

/// The application on the server's own machine, talking through `app`:
/// a loopback link, with no propagation and unbounded bandwidth, and no
/// NIC, so the server's stack costs nothing.
fn loopback(app: StackProfile) -> TestbedBuilder {
    Testbed::builder()
        .link(LinkConfig {
            bandwidth_bps: u64::MAX,
            propagation: SimDuration::ZERO,
        })
        .server_stack(no_stack())
        .client_machines(vec![app])
}

/// A stack with no latency and no CPU.
fn no_stack() -> StackProfile {
    StackProfile {
        name: "none".to_owned(),
        tx_median: SimDuration::ZERO,
        rx_median: SimDuration::ZERO,
        per_msg_cpu: SimDuration::ZERO,
        ..StackProfile::dataplane_raw()
    }
}

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
