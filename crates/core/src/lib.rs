//! # reflex-core — the assembled ReFlex system
//!
//! Brings the reproduction together: the multi-thread [`ReflexServer`] with
//! its local control plane (admission control, token-rate management,
//! deficit monitoring), device capacity calibration, the
//! client models, and the [`Testbed`] that wires clients ↔ fabric ↔ server
//! ↔ Flash into one deterministic simulation for every experiment in the
//! paper's evaluation. The paper's baselines, local SPDK included, are
//! configurations of the same testbed.
//!
//! # Examples
//!
//! ```
//! use reflex_core::{LoadPattern, Testbed, WorkloadSpec};
//! use reflex_qos::{SloSpec, TenantClass, TenantId};
//! use reflex_sim::SimDuration;
//!
//! let mut tb = Testbed::builder().server_threads(1).build();
//! let slo = SloSpec::new(50_000, 100, SimDuration::from_micros(500));
//! tb.add_workload(WorkloadSpec::open_loop(
//!     "reader",
//!     TenantId(1),
//!     TenantClass::LatencyCritical(slo),
//!     50_000.0,
//! ))?;
//! tb.run(SimDuration::from_millis(20)); // warmup
//! tb.begin_measurement();
//! tb.run(SimDuration::from_millis(50));
//! let report = tb.report();
//! let reader = report.workload("reader");
//! assert!(reader.iops > 40_000.0);
//! # Ok::<(), reflex_core::TestbedError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod capacity;
mod client;
mod cluster;
mod server;
mod testbed;

pub use capacity::{sweep_device, sweep_device_point, CapacityProfile};
pub use client::{
    AddrPattern, AppDriver, ArrivalProcess, LoadPattern, RetryPolicy, WorkloadReport, WorkloadSpec,
};
pub use cluster::{ClusterPlanner, PlacementError, ServerDescriptor, ServerId};
pub use server::{AdmissionError, ReflexServer, ServerConfig};
pub use testbed::{
    quorum, ReadPolicy, TenantRecovery, Testbed, TestbedBuilder, TestbedError, TestbedReport,
    ThreadReport, WakeStats, World, WorldEvent, MAX_REPLICAS, MIGRATION_STEP,
};
