//! # reflex-dataplane — the ReFlex server execution model
//!
//! Implements the paper's dataplane (§3.1, Figure 2) on the simulation
//! substrate: polling threads with dedicated cores and hardware queue
//! pairs, two-step run-to-completion, bounded adaptive batching, the
//! Table-1 syscall/event ABI between the protected dataplane and the
//! user-level server code, per-tenant access control, and the QoS
//! scheduling step wired into the submission path.
//!
//! The crate exposes [`DataplaneThread`] (one per simulated core) and
//! [`DataplaneConfig`] (per-item CPU costs calibrated to the paper's
//! ~850K IOPS/core) — the full server is assembled in `reflex-core`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod abi;
mod config;
mod thread;

pub use abi::{AbiStatus, BufHandle, Cookie, EventCond, Syscall, TenantHandle};
pub use config::DataplaneConfig;
pub use thread::{AclEntry, DataplaneThread, ReqCtx, ThreadStats, WireMsg};
// Re-exported so callers can flip the DRAM cache tier on via
// `DataplaneConfig { cache: Some(..), .. }` without a direct
// `reflex-cache` dependency.
pub use reflex_cache::{CacheConfig, CacheStats};
