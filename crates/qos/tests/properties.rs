//! Property-based tests of the QoS scheduler's invariants.

mod reference;

use std::sync::Arc;

use proptest::prelude::*;
use reference::RefScheduler;
use reflex_flash::IoType;
use reflex_qos::{
    CostModel, CostedRequest, GlobalBucket, LoadMix, QosScheduler, ScheduleOutcome,
    SchedulerParams, SloSpec, TenantId, TokenGen, TokenRate, Tokens,
};
use reflex_sim::{SimDuration, SimTime};

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
    /// debits, renegotiations, rate changes, peer-thread bucket traffic and
    /// rounds of irregular length under both load mixes makes the same
    /// decisions and leaves the same per-tenant and bucket state, at any
    /// `POS_LIMIT` history length. Starved runs — hundreds of short rounds
    /// in which nearly every tenant is parked — take the same control
    /// operations in their midst.
    #[test]
    fn dense_scheduler_matches_map_based_reference(
        history in 0usize..5,
        ops in prop::collection::vec((0u8..22, 0u32..10, any::<u64>(), any::<u64>()), 1..250),
    ) {
        let mut pair = Pair::new(history);
        for (seq, (kind, tenant, x, y)) in ops.into_iter().enumerate() {
            match kind {
                0..=13 => pair.control(kind, TenantId(tenant), x, y, seq as u64),
                14..=19 => {
                    // Irregular rounds: back to back, sub-microsecond,
                    // hundreds of microseconds, and now and then seconds.
                    let elapsed_ns = match x % 16 {
                        0 => 0,
                        1 => (x >> 8) % 30_000_000_000,
                        2..=7 => (x >> 8) % 2_000,
                        _ => (x >> 8) % 300_000,
                    };
                    let mix = if y % 2 == 0 { LoadMix::Mixed } else { LoadMix::ReadOnly };
                    pair.round(elapsed_ns, mix);
                }
                _ => pair.starved_run(x, y),
            }
            pair.check();
        }
    }

    /// Sleeping is exact: for 1 to 3 threads on one bucket, each with its
    /// own tenants, queues and round grid, the rounds up to the first one
    /// that [`QosScheduler::next_wake`] says may act are run once as
    /// `schedule_into` calls, one by one in (instant, thread) order, and
    /// once on a twin as `idle_rounds` batches in that same order. Both
    /// end in the same `Debug` state — schedulers and bucket, round marks
    /// included — with the same books, the rounds before the hinted one
    /// visit nobody, and the hinted one visits somebody.
    #[test]
    fn idle_rounds_match_round_by_round(
        history in 0usize..5,
        threads in 1u32..4,
        k in 1u64..200,
        setup in prop::collection::vec((0u32..3, 0u32..6, any::<u64>(), any::<u64>()), 0..60),
        grid in prop::collection::vec((1u64..4_000, 500u64..12_000), 3..4),
        be_rate in 0u64..20_000_000,
    ) {
        let mut eager = Rig::new(history, threads, be_rate);
        let mut sleepy = Rig::new(history, threads, be_rate);
        for rig in [&mut eager, &mut sleepy] {
            for &(thread, tenant, x, y) in &setup {
                rig.request(thread % threads, tenant, x, y);
            }
            rig.warm();
        }
        eager.assert_same(&mut sleepy);

        // Thread t's rounds run at now[t] + offset, then every period.
        // All of them sleep to the earliest instant any may act at (a
        // sibling's acting round may fill the bucket), k rounds at most.
        let due = sleepy.scheds.iter_mut().filter_map(QosScheduler::next_wake).min();
        let mut rounds: Vec<(SimTime, usize)> = Vec::new();
        let mut hinted: Option<(SimTime, usize)> = None;
        for (t, &(offset, period)) in grid.iter().enumerate().take(threads as usize) {
            let mut at = sleepy.now[t] + SimDuration::from_nanos(offset);
            for _ in 0..k {
                if due.is_some_and(|due| at >= due) {
                    hinted = hinted.min(Some((at, t))).or(Some((at, t)));
                    break;
                }
                rounds.push((at, t));
                at += SimDuration::from_nanos(period);
            }
        }
        rounds.sort();

        for &(at, t) in &rounds {
            let before = eager.scheds[t].visits();
            eager.scheds[t].schedule_into(at, LoadMix::Mixed, &mut eager.out);
            prop_assert!(eager.out.submitted.is_empty() && !eager.bucket.balance().is_positive());
            prop_assert_eq!(eager.scheds[t].visits(), before, "an idle round visited a tenant");
        }
        // The twin settles the same rounds in batches: a thread's run of
        // consecutive rounds in the merged order is one `idle_rounds` call.
        let mut i = 0;
        while i < rounds.len() {
            let (first, t) = rounds[i];
            let run = rounds[i..].iter().take_while(|r| r.1 == t).count();
            let period = SimDuration::from_nanos(grid[t].1);
            sleepy.scheds[t].idle_rounds(first, period, run as u64);
            i += run;
        }
        eager.assert_same(&mut sleepy);

        // The hint is tight to the nanosecond: on a third twin the thread
        // whose wake it is can settle a round one nanosecond short of it,
        // and a round exactly on it visits somebody.
        let mut probe = Rig::new(history, threads, be_rate);
        for &(thread, tenant, x, y) in &setup {
            probe.request(thread % threads, tenant, x, y);
        }
        probe.warm();
        if let Some((due, t)) = due.and_then(|due| {
            let t = probe.scheds.iter_mut().position(|s| s.next_wake() == Some(due))?;
            (due.as_nanos() > probe.now[t].as_nanos() + 1).then_some((due, t))
        }) {
            let nano = SimDuration::from_nanos(1);
            probe.scheds[t].idle_rounds(SimTime::from_nanos(due.as_nanos() - 1), nano, 1);
            let before = probe.scheds[t].visits();
            probe.scheds[t].schedule_into(due, LoadMix::Mixed, &mut probe.out);
            prop_assert!(probe.scheds[t].visits() > before, "a round on the hint visited nobody");
        }

        // The first round at or past the hint is the first to act.
        if let Some((at, t)) = hinted.filter(|&(_, t)| {
            sleepy.scheds[t].next_wake().is_some_and(|own| Some(own) == due)
        }) {
            for rig in [&mut eager, &mut sleepy] {
                let before = rig.scheds[t].visits();
                rig.scheds[t].schedule_into(at, LoadMix::Mixed, &mut rig.out);
                prop_assert!(rig.scheds[t].visits() > before, "the hinted round visited nobody");
            }
            eager.assert_same(&mut sleepy);
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

/// [`QosScheduler`] and the reference side by side, each on its own
/// two-thread bucket (the test plays the peer, thread 1), with the books
/// of everything that entered or left from outside.
struct Pair {
    sched: QosScheduler<u64>,
    oracle: RefScheduler<u64>,
    bucket: Arc<GlobalBucket>,
    ref_bucket: Arc<GlobalBucket>,
    now: SimTime,
    out: ScheduleOutcome<u64>,
    /// Tokens the test put into the bucket.
    gifted: Tokens,
    /// What unregistered tenants had been generated, and what they held
    /// and had spent when they left.
    departed_generated: Tokens,
    departed_accounted: Tokens,
}

impl Pair {
    const IDS: u32 = 10;

    /// Three LC and five BE tenants to start from; ids 8 and 9 are free.
    fn new(pos_history_rounds: usize) -> Pair {
        let model = CostModel::for_device_a();
        let params = SchedulerParams {
            pos_history_rounds,
            ..SchedulerParams::default()
        };
        let (bucket, ref_bucket) = (
            Arc::new(GlobalBucket::new(2)),
            Arc::new(GlobalBucket::new(2)),
        );
        let mut pair = Pair {
            sched: QosScheduler::new(0, Arc::clone(&bucket), model.clone(), params, SimTime::ZERO),
            oracle: RefScheduler::new(0, Arc::clone(&ref_bucket), model, params, SimTime::ZERO),
            bucket,
            ref_bucket,
            now: SimTime::ZERO,
            out: ScheduleOutcome::default(),
            gifted: Tokens::ZERO,
            departed_generated: Tokens::ZERO,
            departed_accounted: Tokens::ZERO,
        };
        for t in 0..8u32 {
            let (kind, x) = if t < 3 {
                (0, u64::from(t) * 40_000)
            } else {
                (1, 0)
            };
            pair.control(kind, TenantId(t), x, 80, 0);
        }
        pair
    }

    /// One operation other than a round, applied to both sides.
    fn control(&mut self, kind: u8, id: TenantId, x: u64, y: u64, seq: u64) {
        let (sched, oracle) = (&mut self.sched, &mut self.oracle);
        let slo = SloSpec::new(
            1_000 + x % 200_000,
            (y % 101) as u8,
            SimDuration::from_millis(1),
        );
        let io_size = [1024, 4096, 8192][(x >> 32) as usize % 3];
        match kind {
            0 => assert_eq!(
                sched.register_lc(id, slo, io_size),
                oracle.register_lc(id, slo, io_size)
            ),
            1 => assert_eq!(sched.register_be(id), oracle.register_be(id)),
            2 => {
                if let Some(stats) = sched.stats_for(id) {
                    self.departed_generated += oracle.generated_for(id).expect("registered");
                    self.departed_accounted += sched.tokens_of(id).expect("registered")
                        + Tokens::from_millitokens(
                            stats.spent_millitokens + stats.dram_spent_millitokens,
                        );
                }
                assert_eq!(sched.unregister(id), oracle.unregister(id));
            }
            3 => assert_eq!(
                sched.renegotiate_lc(id, slo, io_size),
                oracle.renegotiate_lc(id, slo, io_size)
            ),
            4 => {
                let cost = Tokens::from_millitokens((x % 5_000) as i64);
                assert_eq!(
                    sched.spend_dram_hit(id, cost),
                    oracle.spend_dram_hit(id, cost)
                );
            }
            5 => {
                // Up to 10^10 mt/s: over the multi-second rounds this
                // overflows `u64` and takes the `u128` fallback.
                let rate = TokenRate::millitokens_per_sec(x % 10_000_000_000);
                sched.set_be_rate(rate);
                oracle.set_be_rate(rate);
            }
            6 => {
                let gift = Tokens::from_millitokens((x % 100_000) as i64);
                self.bucket.give(gift);
                self.ref_bucket.give(gift);
                self.gifted += gift;
            }
            // The peer finishes a round: with this thread's own mark that
            // resets the bucket.
            7 => assert_eq!(self.bucket.mark_round(1), self.ref_bucket.mark_round(1)),
            _ => {
                // 512 B to 64 KiB, half of them on or next to a page edge.
                let len = if x.is_multiple_of(2) {
                    [512, 4095, 4096, 4097, 8192, 65_536][(x >> 8) as usize % 6]
                } else {
                    512 + ((x >> 8) % (65_536 - 512 + 1)) as u32
                };
                let op = if y.is_multiple_of(3) {
                    IoType::Write
                } else {
                    IoType::Read
                };
                let req = CostedRequest {
                    op,
                    len,
                    payload: seq,
                };
                assert_eq!(sched.enqueue(id, req), oracle.enqueue(id, req));
            }
        }
    }

    fn round(&mut self, elapsed_ns: u64, mix: LoadMix) {
        self.now += SimDuration::from_nanos(elapsed_ns);
        self.sched.schedule_into(self.now, mix, &mut self.out);
        let want = self.oracle.schedule(self.now, mix);
        assert_eq!(self.out.submitted, want.submitted);
        assert_eq!(self.out.deficit_notifications, want.deficit_notifications);
        assert_eq!(self.out.reset_bucket, want.reset_bucket);
    }

    /// 50 to 400 back-to-back rounds of 0.5 to 10 us at a BE rate of 10^3
    /// to 10^7 mt/s, entered with a backlog on every tenant: BE tenants
    /// earn a few millitokens a round against costs in the thousands and
    /// LC tenants run into debt, so nearly every tenant is parked nearly
    /// always. Mix flips and every kind of control operation land inside
    /// the run; both sides are compared after every round.
    fn starved_run(&mut self, x: u64, y: u64) {
        let mut draw = {
            let mut state = x ^ y.rotate_left(32);
            move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            }
        };
        // SLOs of 1 000 to 4 000 IOPS, so that debts outlast many rounds;
        // the high half, which picks the IO size, is kept.
        let small_slo = |x: u64| (x & !0xffff_ffff) | (x % 3_000);
        let rate = TokenRate::millitokens_per_sec(10u64.pow(3 + (x % 5) as u32) * (1 + draw() % 9));
        self.sched.set_be_rate(rate);
        self.oracle.set_be_rate(rate);
        for id in (0..Self::IDS).map(TenantId) {
            if self.sched.lc_rate(id).is_some() {
                self.control(3, id, small_slo(draw()), draw(), 0);
                let balance = self.sched.tokens_of(id).expect("registered");
                let debit = balance + Tokens::from_tokens(1 + (draw() % 40) as i64);
                assert_eq!(
                    self.sched.spend_dram_hit(id, debit.max_zero()),
                    self.oracle.spend_dram_hit(id, debit.max_zero())
                );
            } else {
                for _ in 0..1 + draw() % 12 {
                    self.control(8, id, draw(), draw(), 0);
                }
            }
        }
        let mut mix = if y.is_multiple_of(2) {
            LoadMix::Mixed
        } else {
            LoadMix::ReadOnly
        };
        for _ in 0..50 + y % 351 {
            match draw() % 64 {
                0 => {
                    mix = if mix == LoadMix::Mixed {
                        LoadMix::ReadOnly
                    } else {
                        LoadMix::Mixed
                    }
                }
                kind @ 1..=8 => {
                    // Anything but a new BE rate, which would end the famine.
                    let kind = [0, 1, 2, 3, 4, 6, 7, 8][kind as usize - 1];
                    let id = TenantId((draw() % u64::from(Self::IDS)) as u32);
                    self.control(kind, id, small_slo(draw()), draw(), 0);
                }
                _ => {}
            }
            self.round(500 + draw() % 9_501, mix);
            self.check();
        }
    }

    /// Both sides hold the same state, and the scheduler's own books close.
    fn check(&self) {
        let (sched, oracle) = (&self.sched, &self.oracle);
        let mut accounted = self.departed_accounted;
        for t in (0..Self::IDS).map(TenantId) {
            assert_eq!(sched.tokens_of(t), oracle.tokens_of(t));
            assert_eq!(sched.stats_for(t), oracle.stats_for(t));
            assert_eq!(sched.queued_for(t), oracle.queued_for(t));
            assert_eq!(sched.lc_rate(t), oracle.lc_rate(t));
            if let (Some(held), Some(stats)) = (sched.tokens_of(t), sched.stats_for(t)) {
                accounted += held
                    + Tokens::from_millitokens(
                        stats.spent_millitokens + stats.dram_spent_millitokens,
                    );
            }
        }
        assert_eq!(sched.queued_requests(), oracle.queued_requests());
        assert_eq!(self.bucket.balance(), self.ref_bucket.balance());
        assert_eq!(
            sched.generated(),
            oracle.generated() + self.departed_generated
        );
        assert_eq!(
            sched.generated() + self.gifted,
            accounted + self.bucket.balance() + self.bucket.discarded()
        );
    }
}

/// One to three schedulers on one bucket, each with an LC tenant and five
/// BE tenants (see `idle_rounds_match_round_by_round`).
struct Rig {
    scheds: Vec<QosScheduler<u64>>,
    bucket: Arc<GlobalBucket>,
    /// Each thread's last round.
    now: Vec<SimTime>,
    out: ScheduleOutcome<u64>,
}

impl Rig {
    fn new(pos_history_rounds: usize, threads: u32, be_rate: u64) -> Rig {
        let params = SchedulerParams {
            pos_history_rounds,
            ..SchedulerParams::default()
        };
        let bucket = Arc::new(GlobalBucket::new(threads));
        let scheds = (0..threads)
            .map(|t| {
                let model = CostModel::for_device_a();
                let mut sched =
                    QosScheduler::new(t, Arc::clone(&bucket), model, params, SimTime::ZERO);
                let slo = SloSpec::new(1_000 + 700 * u64::from(t), 80, SimDuration::from_millis(1));
                sched.register_lc(TenantId(0), slo, 4096).expect("fresh");
                for id in 1..6 {
                    sched.register_be(TenantId(id)).expect("fresh");
                }
                sched.set_be_rate(TokenRate::millitokens_per_sec(be_rate));
                // Starved from the start, as on the benchmark's `tenants_rw`
                // threads: the LC tenant in debt with nothing queued, every
                // BE tenant behind a write it cannot pay for.
                let debt = Tokens::from_tokens(5 + i64::from(t));
                sched.spend_dram_hit(TenantId(0), debt).expect("registered");
                for id in 1..6 {
                    let req = CostedRequest {
                        op: IoType::Write,
                        len: 16_384,
                        payload: 0,
                    };
                    sched.enqueue(TenantId(id), req).expect("registered");
                }
                sched
            })
            .collect();
        Rig {
            scheds,
            bucket,
            now: vec![SimTime::ZERO; threads as usize],
            out: ScheduleOutcome::default(),
        }
    }

    /// Queues a request, or debits the tenant a DRAM hit that puts it in
    /// debt (an LC tenant in debt within the limit parks).
    fn request(&mut self, thread: u32, tenant: u32, x: u64, y: u64) {
        let sched = &mut self.scheds[thread as usize];
        if y.is_multiple_of(5) {
            let debit = Tokens::from_millitokens((x % 40_000) as i64);
            sched
                .spend_dram_hit(TenantId(tenant), debit)
                .expect("registered");
            return;
        }
        let op = if y.is_multiple_of(3) {
            IoType::Write
        } else {
            IoType::Read
        };
        let len = [1024, 4096, 16_384][(x >> 8) as usize % 3];
        let req = CostedRequest {
            op,
            len,
            payload: x,
        };
        sched.enqueue(TenantId(tenant), req).expect("registered");
    }

    /// Two rounds on each thread: they drain what can be paid for and
    /// park the rest.
    fn warm(&mut self) {
        for round in 1..=2 {
            for t in 0..self.scheds.len() {
                self.now[t] = SimTime::from_nanos(round * 2_000 + t as u64);
                self.scheds[t].schedule_into(self.now[t], LoadMix::Mixed, &mut self.out);
            }
        }
    }

    /// Same `Debug` state and the same books, tenant by tenant.
    fn assert_same(&mut self, other: &mut Rig) {
        for (a, b) in self.scheds.iter_mut().zip(&mut other.scheds) {
            // Fills the due-instant cache on both sides alike.
            assert_eq!(a.next_wake(), b.next_wake());
            assert_eq!(state(a), state(b));
            assert_eq!(a.generated(), b.generated());
            assert_eq!(a.rounds(), b.rounds());
            for id in (0..6).map(TenantId) {
                assert_eq!(a.tokens_of(id), b.tokens_of(id));
                assert_eq!(a.stats_for(id), b.stats_for(id));
            }
        }
        assert_eq!(format!("{:?}", self.bucket), format!("{:?}", other.bucket));
        assert_eq!(self.bucket.discarded(), other.bucket.discarded());
    }
}

/// A scheduler's `Debug` state without its id-to-slot map, which prints in
/// hash order.
fn state(sched: &QosScheduler<u64>) -> String {
    let all = format!("{sched:?}");
    let (head, tail) = all.split_once(" slots: {").expect("has a slot map");
    let (_, tail) = tail.split_once("},").expect("the map closes");
    format!("{head}{tail}")
}
