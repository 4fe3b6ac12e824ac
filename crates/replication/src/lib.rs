//! # reflex-replication — client-driven replicated remote Flash
//!
//! ReFlex (§6.3 of the paper) leaves replication to the client: servers
//! stay simple single-site dataplanes, and a client that wants to
//! survive a server loss writes to R of them. This crate builds that
//! design over the existing wire protocol and testbed machinery:
//!
//! - **Write fan-out.** Every write issues one sub-request per replica
//!   member and completes when a majority (`W = ⌊R/2⌋ + 1`) ack.
//! - **Read policies.** [`ReadPolicy::Primary`] reads one member;
//!   [`ReadPolicy::Quorum`] reads `Q = ⌊R/2⌋ + 1` members — anchored on
//!   the primary, with rotating secondaries — and waits for all of
//!   them, so any read quorum intersects any write quorum.
//! - **Failover.** A deterministic server-death schedule
//!   ([`reflex_faults::FaultKind::ServerDeath`]) kills a site; after a
//!   detection delay the [`reflex_core::ReplicaSets`] coordinator
//!   promotes a survivor, places a replacement (anti-affine to the
//!   survivors) and starts a timed re-sync. The replacement serves
//!   writes immediately and becomes read-eligible when re-sync ends.
//!
//! The data path reuses the zero-alloc idioms of the single-server
//! client: fan-out state lives in generation-checked slab pools and the
//! sub-request slab key *is* the wire cookie, so responses, duplicates,
//! timeouts and stale retries all resolve by index.
//!
//! Determinism: every random draw comes from per-workload streams, so a
//! re-run is byte-identical.
//!
//! ```
//! use reflex_core::ReadPolicy;
//! use reflex_qos::{SloSpec, TenantId};
//! use reflex_replication::{ReplTestbed, ReplWorkloadSpec};
//! use reflex_sim::SimDuration;
//!
//! let slo = SloSpec::new(20_000, 70, SimDuration::from_micros(800));
//! let mut tb = ReplTestbed::builder().sites(3).replication(3).build();
//! tb.add_workload(
//!     ReplWorkloadSpec::open_loop("app", TenantId(1), slo, 20_000.0)
//!         .with_read_policy(ReadPolicy::Quorum),
//! )?;
//! tb.run(SimDuration::from_millis(20)); // warmup
//! tb.begin_measurement();
//! tb.run(SimDuration::from_millis(50));
//! let report = tb.report();
//! assert!(report.workload("app").iops > 0.0);
//! # Ok::<(), reflex_replication::ReplError>(())
//! ```

mod spec;
mod state;
mod testbed;
mod world;

pub use spec::ReplWorkloadSpec;
pub use testbed::{ReplError, ReplReport, ReplTestbed, ReplTestbedBuilder};
pub use world::{ReplEvent, ReplWorld, TenantRecovery};

// Re-exported so callers of this crate can name the policy and quorum
// math without depending on reflex-core directly.
pub use reflex_core::{quorum, ReadPolicy, MAX_REPLICAS};
