//! reflex-swarm: deterministic adversarial testing of the whole stack,
//! with invariant oracles as the spec.
//!
//! Two arms share this crate:
//!
//! * **Structure-aware fuzzing** ([`harness`]) — byte-driven bodies
//!   over the decode/accounting edges (wire headers, pool cookies, QoS
//!   scheduling, fault-plan parsing), run as proptests by the
//!   `fuzz_mirrors` suite under plain `cargo test`.
//! * **Swarm running** ([`gen`], [`runner`], [`shrink`](mod@shrink)) — one u64 seed
//!   derives one random-but-valid testbed configuration, which executes
//!   under the five oracle families of [`oracle`]. A failing seed
//!   shrinks to a minimal case with a one-line repro; past failures
//!   live in `tests/corpus/seeds.txt` as a permanent regression suite.
//!
//! Everything is deterministic: same seed, same case, same verdict.

pub mod gen;
pub mod harness;
pub mod oracle;
pub mod rng;
pub mod runner;
pub mod shrink;

pub use gen::{SwarmCase, TenantSpec, Topology};
pub use oracle::{FamilyStatus, OracleFamily, Violation};
pub use runner::{run_case, run_seed, CaseOutcome, RunConfig};
pub use shrink::{shrink, Shrunk};
