//! # reflex-faults — deterministic fault injection + failure recovery
//!
//! ReFlex's value proposition is that remote Flash behaves like local
//! Flash; this crate stresses the *"behaves"* part. It injects faults
//! into every layer of the reproduction — NVMe device errors, GC storms
//! and device death ([`reflex_flash::DeviceFaultHook`]), packet loss,
//! duplication, latency storms and link blackouts
//! ([`reflex_net::NetFaultHook`]), and dataplane thread stalls — from a
//! declarative, fully deterministic [`FaultPlan`], then measures how the
//! recovery machinery (client retry with exponential backoff, server
//! connection teardown/re-registration, the testbed's failover of a dead
//! server's tenants) restores service.
//!
//! Determinism is the design center: every probabilistic fault draws
//! from a private RNG stream keyed by `(plan.seed, event.id)`, never
//! from the component RNGs, so a plan replays bit-identically and a run
//! with [`FaultPlan::none`] is byte-identical to a build without fault
//! injection at all.
//!
//! # Example
//!
//! ```
//! use reflex_core::{RetryPolicy, Testbed, WorkloadSpec};
//! use reflex_faults::{install, FaultKind, FaultPlan};
//! use reflex_qos::{SloSpec, TenantClass, TenantId};
//! use reflex_sim::{SimDuration, SimTime};
//!
//! let mut tb = Testbed::builder().server_threads(1).build();
//! let slo = SloSpec::new(20_000, 100, SimDuration::from_micros(500));
//! tb.add_workload(
//!     WorkloadSpec::open_loop("app", TenantId(1), TenantClass::LatencyCritical(slo), 20_000.0)
//!         .with_retry(RetryPolicy::standard()),
//! )?;
//! let plan = FaultPlan::seeded(42).with_event(
//!     SimTime::ZERO + SimDuration::from_millis(10),
//!     FaultKind::TransientDeviceErrors {
//!         rate: 0.05,
//!         duration: SimDuration::from_millis(20),
//!     },
//! );
//! let stats = install(&plan, &mut tb);
//! tb.run(SimDuration::from_millis(50));
//! let report = tb.report();
//! let app = report.workload("app");
//! assert!(stats.snapshot().transient_errors > 0);
//! assert!(app.retry_success > 0); // errors were recovered by retries
//! # Ok::<(), reflex_core::TestbedError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hooks;
mod install;
mod parse;
mod plan;
mod stats;

pub use hooks::{PlannedDeviceHook, PlannedNetHook};
pub use install::install;
pub use parse::PlanParseError;
pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use stats::{FaultCounts, FaultStats};
