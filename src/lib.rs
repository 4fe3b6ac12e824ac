//! # ReFlex-rs — Remote Flash ≈ Local Flash, reproduced in Rust
//!
//! A full reproduction of *ReFlex: Remote Flash ≈ Local Flash* (Klimovic,
//! Litz, Kozyrakis — ASPLOS 2017) as a deterministic simulation: the
//! dataplane server with its QoS scheduler is implemented in full, and the
//! hardware the paper ran on (NVMe Flash devices, 10GbE NICs, kernel-bypass
//! queues) is replaced by calibrated mechanistic models.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `reflex-sim` | discrete-event engine, virtual time, RNG, histograms |
//! | [`flash`] | `reflex-flash` | NVMe Flash device model (devices A/B/C) |
//! | [`net`] | `reflex-net` | 10GbE fabric, Linux/IX stacks, wire protocol |
//! | [`qos`] | `reflex-qos` | cost model, tokens, **Algorithm 1** scheduler |
//! | [`cache`] | `reflex-cache` | per-thread DRAM read cache (write-around, set-associative) |
//! | [`dataplane`] | `reflex-dataplane` | polling server threads, ACLs |
//! | [`core`] | `reflex-core` | server + control plane + clients + [`core::Testbed`] over one or more sites, client-driven R-way replication |
//! | [`telemetry`] | `reflex-telemetry` | counters, per-tenant stage spans, SLO monitor, snapshots |
//! | [`faults`] | `reflex-faults` | deterministic fault injection + recovery measurement |
//! | [`workloads`] | `reflex-workloads` | FlashX-like, RocksDB-like apps driving testbed workloads |
//!
//! The paper's iSCSI and libaio baselines are ReFlex server configurations
//! (per-message CPU, kernel-stack latency) in `reflex-bench`'s `baselines`,
//! beside Figure 7's local kernel driver (a loopback link).
//!
//! # Quickstart
//!
//! ```
//! use reflex::core::{Testbed, WorkloadSpec};
//! use reflex::qos::{SloSpec, TenantClass, TenantId};
//! use reflex::sim::SimDuration;
//!
//! // A latency-critical tenant: 50K IOPS, 100% reads, p95 <= 500us.
//! let slo = SloSpec::new(50_000, 100, SimDuration::from_micros(500));
//! let mut tb = Testbed::builder().build();
//! tb.add_workload(WorkloadSpec::open_loop(
//!     "app",
//!     TenantId(1),
//!     TenantClass::LatencyCritical(slo),
//!     50_000.0,
//! ))?;
//! tb.run(SimDuration::from_millis(20)); // warmup
//! tb.begin_measurement();
//! tb.run(SimDuration::from_millis(50));
//! let report = tb.report();
//! let app = report.workload("app");
//! assert!(app.p95_read_us() < 500.0);
//! # Ok::<(), reflex::core::TestbedError>(())
//! ```

pub use reflex_cache as cache;
pub use reflex_core as core;
pub use reflex_dataplane as dataplane;
pub use reflex_faults as faults;
pub use reflex_flash as flash;
pub use reflex_net as net;
pub use reflex_qos as qos;
pub use reflex_sim as sim;
pub use reflex_telemetry as telemetry;
pub use reflex_workloads as workloads;
