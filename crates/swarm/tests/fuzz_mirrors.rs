//! The byte-driven fuzz bodies, run as proptests.
//!
//! These are the only driver of the `check_*` functions: plain
//! `cargo test` with no nightly toolchain, so every CI run fuzzes the
//! decode and accounting edges at least a few hundred cases deep, and
//! nightly CI runs them 4 096 cases deep. Raise the depth with
//! `PROPTEST_CASES=10000 cargo test -p reflex-swarm`.

use proptest::prelude::*;
use reflex_swarm::harness::{
    check_fault_plan, check_pool_cookie, check_sched_ops, check_wire_roundtrip,
};

proptest! {
    /// Wire decode/encode on arbitrary buffers: short, exact, oversized.
    #[test]
    fn wire_roundtrip_mirror(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        check_wire_roundtrip(&bytes);
    }

    /// PoolKey/cookie packing and slab insert/take/stale-take sequences.
    #[test]
    fn pool_cookie_mirror(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        check_pool_cookie(&bytes);
    }

    /// QoS scheduler spend stays bounded by generation across arbitrary
    /// enqueue/schedule/renegotiate sequences.
    #[test]
    fn sched_ops_mirror(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        check_sched_ops(&bytes);
    }

    /// Fault-schedule parser never panics; accepted text round-trips.
    #[test]
    fn fault_plan_mirror(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        check_fault_plan(&bytes);
    }
}

// A structured generator biased toward *parseable* fault plans, so the
// round-trip arm is exercised every run (pure byte soup almost never
// parses).
proptest! {
    #[test]
    fn fault_plan_mirror_structured(
        seed in any::<u64>(),
        at_ms in 1u64..50,
        dur_ms in 1u64..20,
        rate_pct in 0u64..100,
        kind in 0u8..4,
    ) {
        let event = match kind {
            0 => format!("@{at_ms}ms loss rate=0.{rate_pct:02} for={dur_ms}ms"),
            1 => format!("@{at_ms}ms transient rate=0.{rate_pct:02} for={dur_ms}ms"),
            2 => format!("@{at_ms}ms gc extra=500us for={dur_ms}ms"),
            _ => format!("@{at_ms}ms stall thread=0 for={dur_ms}ms"),
        };
        let text = format!("seed={seed}\n{event}\n");
        check_fault_plan(text.as_bytes());
    }
}
