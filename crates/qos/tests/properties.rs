//! Property-based tests of the QoS scheduler's invariants.

mod reference;

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use reference::RefScheduler;
use reflex_flash::IoType;
use reflex_qos::{
    CostModel, CostedRequest, GlobalBucket, LeaseEntry, LeaseLedger, LoadMix, QosScheduler,
    ScheduleOutcome, SchedulerParams, SloSpec, TenantId, TokenGen, TokenPool, TokenRate, Tokens,
};
use reflex_sim::{SimDuration, SimTime};

/// A two-thread spare-token pool; the differential test plays the peer
/// thread (index 1) itself.
fn test_pool(leased: bool) -> TokenPool {
    if leased {
        let ledger = LeaseLedger::new(2, SimDuration::from_micros(10));
        TokenPool::Leased(Arc::new(Mutex::new(ledger)))
    } else {
        TokenPool::Shared(Arc::new(GlobalBucket::new(2)))
    }
}

/// Applies window boundaries up to `now` (the event dispatcher's job in a
/// split-dataplane run; a no-op on the shared bucket).
fn observe(pool: &TokenPool, now: SimTime) {
    if let TokenPool::Leased(l) = pool {
        l.lock().unwrap().observe(now);
    }
}

/// Everything the pool holds, for comparing two pools.
fn pool_state(pool: &TokenPool) -> Vec<i64> {
    match pool {
        TokenPool::Shared(b) => vec![b.balance().as_millitokens()],
        TokenPool::Leased(l) => {
            let l = l.lock().unwrap();
            let mt = |t: Tokens| t.as_millitokens();
            vec![
                mt(l.residue()),
                mt(l.lease_of(0)),
                mt(l.lease_of(1)),
                l.gives_cum(),
                l.taken_cum(),
                l.discarded_cum(),
            ]
        }
    }
}

proptest! {
    /// Token generation is exact: any partition of an interval into rounds
    /// generates the same total as one big round (within 1 millitoken).
    #[test]
    fn token_generation_partition_invariant(
        rate_mt in 1u64..10_000_000_000,
        gaps in prop::collection::vec(1u64..10_000_000, 1..50),
    ) {
        let rate = TokenRate::millitokens_per_sec(rate_mt);
        let mut split = TokenGen::new();
        let mut total_split = Tokens::ZERO;
        let mut total_ns = 0u64;
        for g in &gaps {
            total_split += split.generate(rate, SimDuration::from_nanos(*g));
            total_ns += g;
        }
        let mut whole = TokenGen::new();
        let total_whole = whole.generate(rate, SimDuration::from_nanos(total_ns));
        let diff = (total_split.as_millitokens() - total_whole.as_millitokens()).abs();
        prop_assert!(diff <= 1, "partitioned {total_split} vs whole {total_whole}");
    }

    /// Cost model: cost is monotone in length and writes never cost less
    /// than reads.
    #[test]
    fn cost_monotone(len_a in 1u32..1_000_000, len_b in 1u32..1_000_000) {
        let m = CostModel::for_device_a();
        let (small, large) = if len_a <= len_b { (len_a, len_b) } else { (len_b, len_a) };
        for mix in [LoadMix::Mixed, LoadMix::ReadOnly] {
            prop_assert!(m.cost(IoType::Read, small, mix) <= m.cost(IoType::Read, large, mix));
            prop_assert!(m.cost(IoType::Write, small, mix) <= m.cost(IoType::Write, large, mix));
            prop_assert!(m.cost(IoType::Read, small, mix) <= m.cost(IoType::Write, small, mix));
        }
    }

    /// Reservation formula: splitting an SLO into two tenants with the
    /// same ratio reserves the same total rate.
    #[test]
    fn reservation_additive(iops in 2u64..1_000_000, read_pct in 0u8..=100) {
        // Use an even IOPS split so integer division is exact.
        let iops = iops & !1;
        prop_assume!(iops >= 2);
        let m = CostModel::for_device_a();
        let whole = m.reservation_tokens_per_sec(iops, read_pct, 4096);
        let half = m.reservation_tokens_per_sec(iops / 2, read_pct, 4096);
        // Halving can round the read/write split by at most one IO each.
        let diff = whole as i128 - 2 * half as i128;
        let bound = 2 * m.write_cost().as_millitokens() as i128;
        prop_assert!(diff.abs() <= bound, "whole {whole} vs 2x half {half}");
    }

    /// Scheduler conservation: an LC tenant's spend never exceeds its
    /// generation plus the deficit allowance, for any request/round
    /// interleaving.
    #[test]
    fn lc_spend_bounded_by_generation(
        ops in prop::collection::vec((0u8..2, 1u64..200), 1..120),
        slo_iops in 1_000u64..200_000,
        read_pct in 1u8..=100,
    ) {
        let bucket = Arc::new(GlobalBucket::new(2)); // never resets in-test
        let mut sched: QosScheduler<u64> = QosScheduler::new(
            0,
            bucket,
            CostModel::for_device_a(),
            SchedulerParams::default(),
            SimTime::ZERO,
        );
        let id = TenantId(1);
        let slo = SloSpec::new(slo_iops, read_pct, SimDuration::from_millis(1));
        sched.register_lc(id, slo, 4096).expect("fresh tenant");
        let rate = sched.lc_rate(id).expect("registered").as_millitokens_per_sec();

        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        for (kind, gap_us) in ops {
            if kind == 0 {
                let op = if seq.is_multiple_of(5) { IoType::Write } else { IoType::Read };
                sched
                    .enqueue(id, CostedRequest { op, len: 4096, payload: seq })
                    .expect("registered");
                seq += 1;
            } else {
                now += SimDuration::from_micros(gap_us);
                let _ = sched.schedule(now, LoadMix::Mixed);
            }
        }
        let stats = sched.stats_for(id).expect("registered");
        let generated = (rate as i128 * now.as_nanos() as i128) / 1_000_000_000;
        // Algorithm 1 admits while the balance is above NEG_LIMIT and only
        // then subtracts the cost, so the final admitted request may
        // overshoot by up to one request's cost (a 10-token write here).
        let allowance = 50_000i128 + 10_000;
        prop_assert!(
            (stats.spent_millitokens as i128) <= generated + allowance + 1,
            "spent {} > generated {generated} + allowance",
            stats.spent_millitokens
        );
    }

    /// Differential against the map-based reference (`reference/mod.rs`):
    /// any schedule of registrations, unregistrations (mid-rotation, on
    /// either side of the BE cursor), mixed-size reads and writes, DRAM
    /// debits, renegotiations, rate changes, peer-thread pool traffic and
    /// rounds of irregular length under both load mixes makes the same
    /// decisions and leaves the same per-tenant and pool state, on the
    /// shared bucket and on a leased ledger.
    #[test]
    fn dense_scheduler_matches_map_based_reference(
        leased in any::<bool>(),
        ops in prop::collection::vec((0u8..20, 0u32..10, any::<u64>(), any::<u64>()), 1..250),
    ) {
        const IDS: u32 = 10;
        let model = CostModel::for_device_a();
        let (pool, ref_pool) = (test_pool(leased), test_pool(leased));
        let mut sched: QosScheduler<u64> = QosScheduler::new(
            0,
            Arc::new(GlobalBucket::new(1)), // replaced by `set_pool` below
            model.clone(),
            SchedulerParams::default(),
            SimTime::ZERO,
        );
        sched.set_pool(pool.clone());
        let mut oracle: RefScheduler<u64> = RefScheduler::new(
            0,
            ref_pool.clone(),
            model,
            SchedulerParams::default(),
            SimTime::ZERO,
        );
        let slo = |x: u64, y: u64| {
            SloSpec::new(1_000 + x % 200_000, (y % 101) as u8, SimDuration::from_millis(1))
        };
        let io_size = |x: u64| [1024, 4096, 8192][(x >> 32) as usize % 3];
        // Three LC and five BE tenants to start from; ids 8 and 9 are free.
        for t in 0..8u32 {
            let id = TenantId(t);
            if t < 3 {
                let spec = slo(u64::from(t) * 40_000, 80);
                prop_assert_eq!(sched.register_lc(id, spec, 4096), oracle.register_lc(id, spec, 4096));
            } else {
                prop_assert_eq!(sched.register_be(id), oracle.register_be(id));
            }
        }

        let mut now = SimTime::ZERO;
        let mut out = ScheduleOutcome::default();
        for (seq, (kind, tenant, x, y)) in ops.into_iter().enumerate() {
            let id = TenantId(tenant);
            match kind {
                0 => {
                    let (spec, size) = (slo(x, y), io_size(x));
                    prop_assert_eq!(
                        sched.register_lc(id, spec, size),
                        oracle.register_lc(id, spec, size)
                    );
                }
                1 => prop_assert_eq!(sched.register_be(id), oracle.register_be(id)),
                2 => prop_assert_eq!(sched.unregister(id), oracle.unregister(id)),
                3 => {
                    let (spec, size) = (slo(x, y), io_size(x));
                    prop_assert_eq!(
                        sched.renegotiate_lc(id, spec, size),
                        oracle.renegotiate_lc(id, spec, size)
                    );
                }
                4 => {
                    let cost = Tokens::from_millitokens((x % 5_000) as i64);
                    prop_assert_eq!(sched.spend_dram_hit(id, cost), oracle.spend_dram_hit(id, cost));
                }
                5 => {
                    // Up to 10^10 mt/s: over the multi-second rounds below
                    // this overflows `u64` and takes the `u128` fallback.
                    let rate = TokenRate::millitokens_per_sec(x % 10_000_000_000);
                    sched.set_be_rate(rate);
                    oracle.set_be_rate(rate);
                }
                6 => {
                    let gift = Tokens::from_millitokens((x % 100_000) as i64);
                    pool.give(now, 1, gift);
                    ref_pool.give(now, 1, gift);
                }
                7 => {
                    // The peer finishes a round: with this thread's own
                    // mark that resets the pool.
                    prop_assert_eq!(pool.mark_round(now, 1), ref_pool.mark_round(now, 1));
                }
                8..=13 => {
                    // 512 B to 64 KiB, half of them on or next to a page edge.
                    let len = if x % 2 == 0 {
                        [512, 4095, 4096, 4097, 8192, 65_536][(x >> 8) as usize % 6]
                    } else {
                        512 + ((x >> 8) % (65_536 - 512 + 1)) as u32
                    };
                    let op = if y % 3 == 0 { IoType::Write } else { IoType::Read };
                    let req = CostedRequest { op, len, payload: seq as u64 };
                    prop_assert_eq!(sched.enqueue(id, req.clone()), oracle.enqueue(id, req));
                }
                _ => {
                    // Irregular rounds: back to back, sub-microsecond,
                    // hundreds of microseconds, and now and then seconds.
                    let elapsed_ns = match x % 16 {
                        0 => 0,
                        1 => (x >> 8) % 30_000_000_000,
                        2..=7 => (x >> 8) % 2_000,
                        _ => (x >> 8) % 300_000,
                    };
                    now += SimDuration::from_nanos(elapsed_ns);
                    let mix = if y % 2 == 0 { LoadMix::Mixed } else { LoadMix::ReadOnly };
                    observe(&pool, now);
                    observe(&ref_pool, now);
                    sched.schedule_into(now, mix, &mut out);
                    let want = oracle.schedule(now, mix);
                    prop_assert_eq!(&out.submitted, &want.submitted);
                    prop_assert_eq!(&out.deficit_notifications, &want.deficit_notifications);
                    prop_assert_eq!(out.reset_bucket, want.reset_bucket);
                }
            }
            for t in (0..IDS).map(TenantId) {
                prop_assert_eq!(sched.tokens_of(t), oracle.tokens_of(t));
                prop_assert_eq!(sched.stats_for(t), oracle.stats_for(t));
                prop_assert_eq!(sched.queued_for(t), oracle.queued_for(t));
                prop_assert_eq!(sched.lc_rate(t), oracle.lc_rate(t));
            }
            prop_assert_eq!(sched.queued_requests(), oracle.queued_requests());
            prop_assert_eq!(pool_state(&pool), pool_state(&ref_pool));
        }
    }

    /// Global bucket conservation under arbitrary give/take sequences.
    #[test]
    fn bucket_conserves(ops in prop::collection::vec((0u8..2, 1i64..100_000), 1..200)) {
        let bucket = GlobalBucket::new(2); // no resets
        let mut given = 0i64;
        let mut taken = 0i64;
        for (kind, amount) in ops {
            if kind == 0 {
                bucket.give(Tokens::from_millitokens(amount));
                given += amount;
            } else {
                taken += bucket.take(Tokens::from_millitokens(amount)).as_millitokens();
            }
            prop_assert!(bucket.balance().as_millitokens() >= 0);
        }
        prop_assert_eq!(given - taken, bucket.balance().as_millitokens());
    }

    /// Lease conservation across carve / re-balance / merge: for any
    /// give/take/mark sequence over any replica split, every replica's
    /// per-thread leases and residue equal the monolithic ledger's at
    /// every window boundary (Σ shard leases + residue == monolithic
    /// pool), grants agree at stage time, and the conservation identity
    /// `gives == residue + Σ leases + taken + discarded` holds.
    #[test]
    fn lease_ledger_replicas_match_monolithic(
        windows in prop::collection::vec(
            prop::collection::vec((0u32..4, 0u8..3, 1i64..50_000), 0..12),
            1..20,
        ),
        replicas in 1usize..4,
    ) {
        let threads = 4u32;
        let w = SimDuration::from_micros(1);
        let mut mono = LeaseLedger::new(threads, w);
        let mut reps: Vec<LeaseLedger> =
            (0..replicas).map(|_| LeaseLedger::new(threads, w)).collect();
        for (k, ops) in windows.iter().enumerate() {
            for (i, (thread, kind, amount)) in ops.iter().enumerate() {
                let at = SimTime::from_nanos(k as u64 * 1_000 + i as u64);
                let owner = (*thread as usize) % replicas;
                match kind {
                    0 => {
                        mono.give(at, *thread, Tokens::from_millitokens(*amount));
                        reps[owner].give(at, *thread, Tokens::from_millitokens(*amount));
                    }
                    1 => {
                        let g_mono = mono.take(at, *thread, Tokens::from_millitokens(*amount));
                        let g_rep =
                            reps[owner].take(at, *thread, Tokens::from_millitokens(*amount));
                        prop_assert_eq!(g_mono, g_rep, "grant divergence at window {}", k);
                    }
                    _ => {
                        mono.mark_round(at, *thread);
                        reps[owner].mark_round(at, *thread);
                    }
                }
            }
            // Window boundary: exchange staged entries (the flight
            // broadcast) and apply everywhere at the same instant.
            let boundary = SimTime::from_nanos((k as u64 + 1) * 1_000);
            let outs: Vec<Vec<LeaseEntry>> =
                reps.iter_mut().map(LeaseLedger::take_outbound).collect();
            for (i, rep) in reps.iter_mut().enumerate() {
                for (j, out) in outs.iter().enumerate() {
                    if i != j {
                        rep.accept(out);
                    }
                }
                rep.observe(boundary);
            }
            mono.observe(boundary);
            for rep in &reps {
                for t in 0..threads {
                    prop_assert_eq!(rep.lease_of(t), mono.lease_of(t));
                }
                prop_assert_eq!(rep.residue(), mono.residue());
                prop_assert_eq!(rep.gives_cum(), mono.gives_cum());
                prop_assert_eq!(rep.taken_cum(), mono.taken_cum());
                prop_assert_eq!(rep.discarded_cum(), mono.discarded_cum());
                prop_assert_eq!(rep.accounted(), rep.gives_cum());
            }
        }
    }

    /// BE fairness: two identical BE tenants served from the same rate for
    /// the same demand receive submission counts within one round of each
    /// other, for any number of rounds.
    #[test]
    fn be_fairness(rounds in 1u32..100, per_round in 1u32..5) {
        let bucket = Arc::new(GlobalBucket::new(2));
        let mut sched: QosScheduler<u32> = QosScheduler::new(
            0,
            bucket,
            CostModel::for_device_a(),
            SchedulerParams::default(),
            SimTime::ZERO,
        );
        let a = TenantId(1);
        let b = TenantId(2);
        sched.register_be(a).expect("fresh");
        sched.register_be(b).expect("fresh");
        sched.set_be_rate(TokenRate::per_sec(10_000));
        let mut now = SimTime::ZERO;
        for i in 0..rounds {
            for j in 0..per_round {
                let payload = i * 10 + j;
                sched.enqueue(a, CostedRequest { op: IoType::Read, len: 4096, payload }).unwrap();
                sched.enqueue(b, CostedRequest { op: IoType::Read, len: 4096, payload }).unwrap();
            }
            now += SimDuration::from_micros(100);
            let _ = sched.schedule(now, LoadMix::Mixed);
        }
        let sa = sched.stats_for(a).expect("registered").submitted as i64;
        let sb = sched.stats_for(b).expect("registered").submitted as i64;
        prop_assert!((sa - sb).abs() <= 1, "unfair: {sa} vs {sb}");
    }
}
