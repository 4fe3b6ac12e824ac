//! # reflex-dataplane — the ReFlex server execution model
//!
//! Implements the paper's dataplane (§3.1, Figure 2) on the simulation
//! substrate: polling threads with dedicated cores and hardware queue
//! pairs, two-step run-to-completion, bounded adaptive batching,
//! per-tenant access control, and the QoS scheduling step wired into the
//! submission path. The paper's Table-1 syscalls and event conditions
//! between the protected dataplane and the user-level server code appear
//! only as their CPU cost, inside the per-message costs of
//! [`DataplaneConfig`]: a request goes from its wire header to the
//! thread's one record of it, and its answer from that record back to a
//! wire header.
//!
//! The crate exposes [`DataplaneThread`] (one per simulated core) and
//! [`DataplaneConfig`] (per-item CPU costs calibrated to the paper's
//! ~850K IOPS/core) — the full server is assembled in `reflex-core`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod thread;

pub use config::DataplaneConfig;
pub use thread::{AclEntry, DataplaneThread, ReqCtx, ThreadStats, WireMsg};
// Re-exported so callers can flip the DRAM cache tier on via
// `DataplaneConfig { cache: Some(..), .. }` without a direct
// `reflex-cache` dependency.
pub use reflex_cache::{CacheConfig, CacheStats};
