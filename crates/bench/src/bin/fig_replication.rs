//! Replication figure: healthy overlays (R × read policy vs offered
//! load) plus failover recovery and SLO-violation panels.
//!
//! Run: `cargo run --release -p reflex-bench --bin fig_replication [-- --smoke]`

use reflex_bench::replication;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let result = replication::build_sweep(smoke).run();
    print!("{}", replication::render(&result));
    result.write_json_or_warn();
    reflex_bench::telemetry::flush("fig_replication");
}
