//! Byte-driven fuzz bodies.
//!
//! Each `check_*` function interprets an arbitrary byte buffer as a
//! scenario for one decode/accounting edge and panics iff an invariant
//! breaks. `tests/fuzz_mirrors.rs` runs them as proptests under plain
//! `cargo test`, so CI exercises them with no extra toolchain; a
//! `fuzz_target!` wrapper for libFuzzer would call them unchanged.

use reflex_flash::IoType;
use reflex_net::{ReflexHeader, WireError, HEADER_SIZE};
use reflex_qos::{
    CostModel, CostedRequest, GlobalBucket, LoadMix, QosScheduler, SchedulerParams, SloSpec,
    TenantId,
};
use reflex_sim::{PoolKey, SimDuration, SimTime, SlabPool};

use reflex_faults::FaultPlan;

/// Wire decode/encode: decoding arbitrary bytes never panics, anything
/// decoded re-encodes to the same prefix, and errors classify the
/// offending byte.
pub fn check_wire_roundtrip(data: &[u8]) {
    match ReflexHeader::decode(data) {
        Ok(h) => {
            let enc = h.encode_array();
            assert_eq!(
                &enc[..],
                &data[..HEADER_SIZE],
                "decoded header re-encodes differently"
            );
            assert_eq!(
                ReflexHeader::decode(&enc).expect("re-decode"),
                h,
                "decode∘encode not identity"
            );
        }
        Err(WireError::Truncated) => assert!(data.len() < HEADER_SIZE),
        Err(WireError::BadMagic(b)) => assert_eq!(b, data[0]),
        Err(WireError::BadOpcode(b)) => assert_eq!(b, data[1]),
    }
}

/// PoolKey/cookie packing: `as_u64`/`from_u64` is a bijection on every
/// raw value, and a slab driven through arbitrary insert/take/stale-take
/// sequences agrees with a mirror map (no aliasing, no resurrection).
pub fn check_pool_cookie(data: &[u8]) {
    for chunk in data.chunks_exact(8) {
        let raw = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        let key = PoolKey::from_u64(raw);
        assert_eq!(key.as_u64(), raw, "PoolKey packing not bijective");
    }

    let mut pool: SlabPool<u64> = SlabPool::new();
    let mut live: Vec<(PoolKey, u64)> = Vec::new();
    let mut dead: Vec<PoolKey> = Vec::new();
    let mut next_val = 0u64;
    for op in data {
        match op % 4 {
            0 | 1 => {
                let key = pool.insert(next_val);
                // The key must travel through the wire-cookie packing
                // unchanged — this is what the dataplane does.
                let key = PoolKey::from_u64(key.as_u64());
                live.push((key, next_val));
                next_val += 1;
            }
            2 => {
                if !live.is_empty() {
                    let idx = (*op as usize) % live.len();
                    let (key, val) = live.swap_remove(idx);
                    assert_eq!(pool.take(key), Some(val), "live key lost its value");
                    dead.push(key);
                }
            }
            _ => {
                if !dead.is_empty() {
                    let key = dead[(*op as usize) % dead.len()];
                    assert_eq!(pool.take(key), None, "stale key resurrected");
                }
            }
        }
    }
    assert_eq!(pool.len(), live.len());
    for (key, val) in &live {
        assert_eq!(pool.get(*key), Some(val), "live key unreadable");
    }
}

/// QoS scheduler under an arbitrary enqueue/schedule/renegotiate
/// sequence: an LC tenant's spend never exceeds its generation plus the
/// deficit allowance, across renegotiations.
pub fn check_sched_ops(data: &[u8]) {
    let bucket = std::sync::Arc::new(GlobalBucket::new(2));
    let mut sched: QosScheduler<u64> = QosScheduler::new(
        0,
        bucket,
        CostModel::for_device_a(),
        SchedulerParams::default(),
        SimTime::ZERO,
    );
    let id = TenantId(1);
    let base_slo = SloSpec::new(50_000, 80, SimDuration::from_millis(1));
    sched.register_lc(id, base_slo, 4096).expect("fresh tenant");

    let mut now = SimTime::ZERO;
    let mut seq = 0u64;
    // Integrate generation across renegotiations: rate(t) · dt, in
    // millitokens, accumulated each time the rate changes or time moves.
    let mut rate = sched
        .lc_rate(id)
        .expect("registered")
        .as_millitokens_per_sec() as i128;
    let mut generated: i128 = 0;
    let mut last = SimTime::ZERO;
    let mut max_rate = rate;
    for chunk in data.chunks(2) {
        let sel = chunk[0];
        let arg = u64::from(*chunk.get(1).unwrap_or(&1)) + 1;
        match sel % 4 {
            0 | 1 => {
                let op = if seq.is_multiple_of(5) {
                    IoType::Write
                } else {
                    IoType::Read
                };
                sched
                    .enqueue(
                        id,
                        CostedRequest {
                            op,
                            len: 4096,
                            payload: seq,
                        },
                    )
                    .expect("registered");
                seq += 1;
            }
            2 => {
                let next = now + SimDuration::from_micros(arg * 10);
                generated += rate * i128::from((next - last).as_nanos()) / 1_000_000_000;
                last = next;
                now = next;
                let _ = sched.schedule(now, LoadMix::Mixed);
            }
            _ => {
                let iops = 10_000 + (arg % 10) * 10_000;
                let slo = SloSpec::new(iops, 80, SimDuration::from_millis(1));
                if sched.renegotiate_lc(id, slo, 4096).is_ok() {
                    generated += rate * i128::from((now - last).as_nanos()) / 1_000_000_000;
                    last = now;
                    rate = sched
                        .lc_rate(id)
                        .expect("registered")
                        .as_millitokens_per_sec() as i128;
                    max_rate = max_rate.max(rate);
                }
            }
        }
    }
    generated += rate * i128::from((now - last).as_nanos()) / 1_000_000_000;
    let stats = sched.stats_for(id).expect("registered");
    // Deficit allowance (50 tokens) + one request overshoot (a 10-token
    // write) + one rate-transition window of slack.
    let allowance = 50_000i128 + 10_000 + max_rate / 1_000;
    assert!(
        i128::from(stats.spent_millitokens) <= generated + allowance + 1,
        "LC spend {} exceeds generation {generated} + allowance {allowance}",
        stats.spent_millitokens
    );
}

/// Fault-schedule parsing: arbitrary text never panics the parser, and
/// anything it accepts round-trips exactly through `Display`.
pub fn check_fault_plan(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    if let Ok(plan) = FaultPlan::parse(&text) {
        let canonical = plan.to_string();
        let reparsed = FaultPlan::parse(&canonical)
            .unwrap_or_else(|e| panic!("canonical form rejected: {e}\n{canonical}"));
        assert_eq!(reparsed, plan, "parse∘display not identity:\n{canonical}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke: every body accepts empty and small inputs.
    #[test]
    fn bodies_accept_degenerate_inputs() {
        for data in [&[][..], &[0][..], &[0xff; 64][..]] {
            check_wire_roundtrip(data);
            check_pool_cookie(data);
            check_sched_ops(data);
            check_fault_plan(data);
        }
    }

    #[test]
    fn valid_header_exercises_ok_arm() {
        let hdr = ReflexHeader {
            opcode: reflex_net::Opcode::Get,
            tenant: 7,
            cookie: 0xdead_beef,
            addr: 4096,
            len: 512,
        };
        check_wire_roundtrip(&hdr.encode_array());
    }

    #[test]
    fn valid_plan_exercises_ok_arm() {
        let text = b"seed=3\n@1ms loss rate=0.5 for=2ms\n";
        check_fault_plan(text);
    }
}
