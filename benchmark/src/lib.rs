//! The repo's benchmark: four simulated workloads run end to end through
//! the public `Testbed` API, reported as host time per simulated IO plus a
//! per-layer ledger timed from outside the simulator. See `README.md` and
//! `BENCHMARK.json` at the repo root.

pub mod bench;
pub mod compare;
pub mod host;
pub mod json;
pub mod rep;
pub mod spans;
pub mod stats;
pub mod sut;
pub mod workloads;
