//! Tenants' software queues against a per-tenant `VecDeque` model.
//!
//! A scheduler keeps every tenant's waiting requests in one slab, each
//! queue a list through it, and reuses a drained queue's nodes for the
//! next push from any tenant. Random interleavings of enqueues, rounds,
//! unregistrations, re-registrations and drains followed by refills, on
//! two LC and two BE tenants, must keep each tenant's requests in arrival
//! order: every submission is the head of its tenant's model queue, and
//! `queued_for`, `queued_requests` and what `unregister` hands back agree
//! with the model after every step.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;
use reflex_flash::IoType;
use reflex_qos::{
    CostModel, CostedRequest, GlobalBucket, LoadMix, QosError, QosScheduler, ScheduleOutcome,
    SchedulerParams, SloSpec, TenantId, TokenRate,
};
use reflex_sim::{SimDuration, SimTime};

const TENANTS: u32 = 4;

struct Twin {
    sched: QosScheduler<u64>,
    /// The payloads each registered tenant has waiting, oldest first.
    model: HashMap<TenantId, VecDeque<u64>>,
    now: SimTime,
    out: ScheduleOutcome<u64>,
    next_payload: u64,
}

impl Twin {
    fn new() -> Twin {
        let bucket = Arc::new(GlobalBucket::new(1));
        let model = CostModel::for_device_a();
        let sched = QosScheduler::new(0, bucket, model, SchedulerParams::default(), SimTime::ZERO);
        let mut twin = Twin {
            sched,
            model: HashMap::new(),
            now: SimTime::ZERO,
            out: ScheduleOutcome::default(),
            next_payload: 0,
        };
        twin.sched.set_be_rate(TokenRate::per_sec(20_000));
        for t in 0..TENANTS {
            twin.register(TenantId(t));
        }
        twin
    }

    /// Tenants 0 and 1 are latency-critical, 2 and 3 best-effort.
    fn register(&mut self, id: TenantId) {
        let got = if id.0 < 2 {
            let slo = SloSpec::new(10_000, 80, SimDuration::from_millis(1));
            self.sched.register_lc(id, slo, 4096)
        } else {
            self.sched.register_be(id)
        };
        match self.model.entry(id) {
            Entry::Occupied(_) => assert_eq!(got, Err(QosError::DuplicateTenant(id))),
            Entry::Vacant(queue) => {
                assert_eq!(got, Ok(()));
                queue.insert(VecDeque::new());
            }
        }
    }

    fn enqueue(&mut self, id: TenantId, n: u64, x: u64) {
        for k in 0..n {
            let op = if (x >> k) & 1 == 1 {
                IoType::Write
            } else {
                IoType::Read
            };
            let len = [512, 4096, 16_384][((x >> (8 + k)) % 3) as usize];
            let payload = self.next_payload;
            self.next_payload += 1;
            let req = CostedRequest { op, len, payload };
            match self.model.get_mut(&id) {
                Some(queue) => {
                    assert_eq!(self.sched.enqueue(id, req), Ok(()));
                    queue.push_back(payload);
                }
                None => assert_eq!(
                    self.sched.enqueue(id, req),
                    Err(QosError::UnknownTenant(id))
                ),
            }
        }
    }

    /// One round; each submission must be its tenant's oldest request.
    fn round(&mut self, elapsed_ns: u64, mix: LoadMix) {
        self.now += SimDuration::from_nanos(elapsed_ns);
        self.sched.schedule_into(self.now, mix, &mut self.out);
        for (id, req) in &self.out.submitted {
            let head = self.model.get_mut(id).and_then(VecDeque::pop_front);
            assert_eq!(head, Some(req.payload), "{id} submitted out of order");
        }
    }

    fn unregister(&mut self, id: TenantId) {
        let got = self.sched.unregister(id);
        match self.model.remove(&id) {
            Some(queue) => {
                let payloads: Vec<u64> =
                    got.expect("registered").iter().map(|r| r.payload).collect();
                assert_eq!(payloads, Vec::from(queue), "{id} handed back out of order");
            }
            None => assert_eq!(got, Err(QosError::UnknownTenant(id))),
        }
    }

    /// Rounds of a millisecond until every queue is empty.
    fn drain(&mut self) {
        for _ in 0..10_000 {
            if self.sched.queued_requests() == 0 {
                return;
            }
            self.round(1_000_000, LoadMix::Mixed);
        }
        panic!("{} requests never drained", self.sched.queued_requests());
    }

    fn check(&self) {
        let mut total = 0;
        for id in (0..TENANTS).map(TenantId) {
            let want = self.model.get(&id).map_or(0, VecDeque::len);
            assert_eq!(self.sched.queued_for(id), want, "{id}'s queue length");
            total += want;
        }
        assert_eq!(self.sched.queued_requests(), total);
    }
}

proptest! {
    #[test]
    fn queues_match_a_vecdeque_per_tenant(
        ops in prop::collection::vec((0u8..12, 0u32..TENANTS, 1u64..24, any::<u64>()), 1..200),
    ) {
        let mut twin = Twin::new();
        for (kind, tenant, n, x) in ops {
            let id = TenantId(tenant);
            match kind {
                0..=4 => twin.enqueue(id, n, x),
                5..=7 => {
                    let mix = if x % 4 == 0 { LoadMix::ReadOnly } else { LoadMix::Mixed };
                    twin.round(x % 2_000_000, mix);
                }
                8 => twin.unregister(id),
                9 => twin.register(id),
                _ => {
                    twin.drain();
                    twin.check();
                    for t in (0..TENANTS).map(TenantId) {
                        twin.enqueue(t, n, x);
                    }
                }
            }
            twin.check();
        }
        twin.drain();
        twin.check();
    }
}
