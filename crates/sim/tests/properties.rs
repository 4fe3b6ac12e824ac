//! Property-based tests of the simulation substrate.

use proptest::prelude::*;
use reflex_sim::{
    Ctx, Engine, Exponential, Histogram, PoolKey, SimDuration, SimRng, SimTime, SlabPool,
    TypedEvent, Zipf,
};

/// A closure as an event: the engine dispatches typed events only, and
/// these properties read better with closure-style bodies.
struct Call<W>(CallFn<W>);

type CallFn<W> = Box<dyn FnOnce(&mut W, &mut Ctx<'_, W, Call<W>>) + Send>;

impl<W> Call<W> {
    fn new(f: impl FnOnce(&mut W, &mut Ctx<'_, W, Call<W>>) + Send + 'static) -> Self {
        Call(Box::new(f))
    }
}

impl<W: 'static> TypedEvent<W> for Call<W> {
    fn dispatch(self, world: &mut W, ctx: &mut Ctx<'_, W, Self>) {
        (self.0)(world, ctx);
    }
}

proptest! {
    /// Histogram percentiles are monotone in the percentile for any input.
    #[test]
    fn histogram_percentiles_monotone(values in prop::collection::vec(1u64..10_000_000_000, 1..500)) {
        let mut h = Histogram::new();
        for v in &values {
            h.record_nanos(*v);
        }
        let mut prev = 0u64;
        for pct in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(pct).as_nanos();
            prop_assert!(v >= prev, "p{pct} = {v} < {prev}");
            prev = v;
        }
    }

    /// Percentiles stay within the observed min/max and carry bounded
    /// relative error at the extremes.
    #[test]
    fn histogram_percentiles_bounded(values in prop::collection::vec(1u64..10_000_000_000, 1..500)) {
        let mut h = Histogram::new();
        let mut min = u64::MAX;
        let mut max = 0u64;
        for v in &values {
            h.record_nanos(*v);
            min = min.min(*v);
            max = max.max(*v);
        }
        prop_assert!(h.percentile(0.0).as_nanos() >= min.saturating_sub(min / 32));
        prop_assert!(h.percentile(100.0).as_nanos() <= max + max / 32 + 1);
    }

    /// Merging two histograms equals recording the union of their samples
    /// (same counts, same percentile answers).
    #[test]
    fn histogram_merge_equals_union(
        a in prop::collection::vec(1u64..1_000_000_000, 1..200),
        b in prop::collection::vec(1u64..1_000_000_000, 1..200),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hu = Histogram::new();
        for v in &a { ha.record_nanos(*v); hu.record_nanos(*v); }
        for v in &b { hb.record_nanos(*v); hu.record_nanos(*v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        for pct in [50.0, 95.0, 99.0] {
            prop_assert_eq!(ha.percentile(pct), hu.percentile(pct));
        }
        prop_assert_eq!(ha.mean(), hu.mean());
    }

    /// Engine: events fire in exactly time order regardless of insertion
    /// order, with FIFO tie-breaking by insertion sequence.
    #[test]
    fn engine_orders_arbitrary_schedules(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut engine = Engine::with_events(Vec::<(u64, usize)>::new());
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_event_at(SimTime::from_nanos(t), Call::new(move |w: &mut Vec<(u64, usize)>, ctx| {
                w.push((ctx.now().as_nanos(), i));
            }));
        }
        engine.run_to_completion();
        let fired = engine.world();
        prop_assert_eq!(fired.len(), times.len());
        for w in fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// SimRng streams are reproducible and fork-independent.
    #[test]
    fn rng_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::seed(seed);
        let mut b = SimRng::seed(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut f1 = a.fork();
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| f1.next_u64()).collect();
        prop_assert_ne!(xs, ys);
    }

    /// `SimRng::stream` takes any index — `u64::MAX` included, which used
    /// to overflow `index + 1` — is keyed by `(seed, index)` alone, and
    /// neighbouring indices get different streams.
    #[test]
    fn rng_stream_total_and_keyed(seed in any::<u64>(), index in any::<u64>()) {
        for index in [index, u64::MAX] {
            let mut a = SimRng::stream(seed, index);
            let mut b = SimRng::stream(seed, index);
            let mut next = SimRng::stream(seed, index.wrapping_add(1));
            let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
            prop_assert_eq!(&xs, &(0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
            prop_assert_ne!(&xs, &(0..8).map(|_| next.next_u64()).collect::<Vec<_>>());
        }
    }

    /// Exponential samples are non-negative and bounded-mean-ish; Zipf
    /// samples stay in range.
    #[test]
    fn distributions_well_formed(seed in any::<u64>(), n in 2u64..100_000, theta in 0.01f64..0.99) {
        let mut rng = SimRng::seed(seed);
        let mean = Exponential::new(SimDuration::from_micros(50));
        for _ in 0..64 {
            let d = rng.exponential(mean);
            prop_assert!(d.as_nanos() < 10_000_000_000, "absurd exponential draw");
        }
        let z = Zipf::new(n, theta);
        for _ in 0..64 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Duration arithmetic: float round trips stay within a nanosecond.
    #[test]
    fn duration_float_round_trip(us in 0.0f64..1e9) {
        let d = SimDuration::from_micros_f64(us);
        let back = d.as_micros_f64();
        prop_assert!((back - us).abs() <= 0.001, "{us} -> {back}");
    }

    /// The engine's event heap and its wake slots dispatch exactly like a
    /// sorted reference under random interleavings of schedules, arms,
    /// re-arms, takes and steps: same-instant ties, near and far delays,
    /// events scheduled and wakes taken from inside handlers, and wakes
    /// left armed while they dispatch.
    #[test]
    fn engine_matches_sorted_reference_with_slots(
        ops in prop::collection::vec((0u8..5, delay(), 0usize..SLOTS), 1..250),
    ) {
        let mut engine = Engine::with_events(SlotWorld::default());
        let mut model = SlotModel::default();
        for &(op, d, slot) in &ops {
            match op {
                0 => {
                    let id = engine.world().next_id;
                    engine.world_mut().next_id += 1;
                    let at = engine.now() + SimDuration::from_nanos(d);
                    engine.schedule_event_at(at, SlotEv::Plain(id));
                    model.schedule(at.as_nanos(), id);
                }
                1 | 2 => {
                    let at = engine.now() + SimDuration::from_nanos(d);
                    let got = engine.with_ctx(|_, ctx| ctx.arm(slot, at, SlotEv::Wake(slot)));
                    prop_assert_eq!(got, model.arm(slot, at.as_nanos()), "arm {} at {}", slot, at);
                }
                3 => {
                    let got = engine.with_ctx(|_, ctx| ctx.take_due(slot));
                    prop_assert_eq!(got, model.take_due(slot), "take {}", slot);
                }
                _ => {
                    engine.step();
                    model.step();
                }
            }
            prop_assert_eq!(engine.now().as_nanos(), model.now);
        }
        engine.run_to_completion();
        model.run_to_completion();
        prop_assert_eq!(&engine.world().log, &model.log);
        prop_assert_eq!(engine.dispatched(), model.log.len() as u64);
    }

    /// Histogram merge is commutative: a∪b and b∪a are the same
    /// histogram, bucket for bucket (telemetry folds sweep-worker
    /// snapshots in arbitrary order and relies on this).
    #[test]
    fn histogram_merge_commutative(
        a in prop::collection::vec(1u64..1_000_000_000, 0..200),
        b in prop::collection::vec(1u64..1_000_000_000, 0..200),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        for v in &a { ha.record_nanos(*v); }
        for v in &b { hb.record_nanos(*v); }
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Histogram merge is associative: (a∪b)∪c == a∪(b∪c), so any fold
    /// tree over partial snapshots yields the same result.
    #[test]
    fn histogram_merge_associative(
        a in prop::collection::vec(1u64..1_000_000_000, 0..150),
        b in prop::collection::vec(1u64..1_000_000_000, 0..150),
        c in prop::collection::vec(1u64..1_000_000_000, 0..150),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hc = Histogram::new();
        for v in &a { ha.record_nanos(*v); }
        for v in &b { hb.record_nanos(*v); }
        for v in &c { hc.record_nanos(*v); }
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// The sparse wire encoding round-trips every histogram exactly,
    /// and decode rejects arbitrary truncations of a valid image.
    #[test]
    fn histogram_encode_round_trip(
        values in prop::collection::vec(1u64..u64::MAX / 2, 0..300),
        cut in any::<usize>(),
    ) {
        let mut h = Histogram::new();
        for v in &values { h.record_nanos(*v); }
        let bytes = h.encode();
        let back = Histogram::decode(&bytes);
        prop_assert_eq!(back.as_ref(), Some(&h));
        // Any strict prefix must fail cleanly, never panic or produce a
        // histogram that silently lost samples.
        if bytes.len() > 1 {
            let cut = 1 + cut % (bytes.len() - 1);
            prop_assert_eq!(Histogram::decode(&bytes[..cut]), None);
        }
    }

    /// Slab slot reuse never aliases a live entry: under arbitrary
    /// insert/take interleavings, every live key keeps resolving to its
    /// own value, retired keys (whose slots may have been recycled many
    /// times) always miss, and keys survive the u64 cookie round trip the
    /// dataplane and testbed use on the wire.
    #[test]
    fn slab_reuse_never_aliases_live_entries(
        ops in prop::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..300),
    ) {
        let mut pool: SlabPool<u64> = SlabPool::new();
        let mut live: Vec<(PoolKey, u64)> = Vec::new();
        let mut retired: Vec<PoolKey> = Vec::new();
        for (op, idx, val) in ops {
            match op {
                // Weighted toward inserts so slots churn through reuse.
                0 | 1 => {
                    let key = pool.insert(val);
                    prop_assert_eq!(PoolKey::from_u64(key.as_u64()), key);
                    prop_assert!(
                        !live.iter().any(|(k, _)| *k == key),
                        "fresh key aliases a live entry"
                    );
                    live.push((key, val));
                }
                2 => {
                    let Some(i) = (!live.is_empty()).then(|| idx as usize % live.len()) else {
                        continue;
                    };
                    let (key, val) = live.swap_remove(i);
                    prop_assert_eq!(pool.take(key), Some(val));
                    prop_assert_eq!(pool.take(key), None, "double take must miss");
                    retired.push(key);
                }
                _ => {
                    let Some(i) = (!retired.is_empty()).then(|| idx as usize % retired.len()) else {
                        continue;
                    };
                    let key = retired[i];
                    prop_assert!(pool.get(key).is_none(), "stale key resolved");
                    prop_assert!(pool.take(key).is_none(), "stale key took a value");
                }
            }
            for (k, v) in &live {
                prop_assert_eq!(pool.get(*k), Some(v), "live entry lost or aliased");
            }
        }
        prop_assert_eq!(pool.len(), live.len());
    }
}

/// Wake slots in [`engine_matches_sorted_reference_with_slots`].
const SLOTS: usize = 4;

/// A delay on a 1 us grid, so instants meet often: none (a tie at the
/// current instant), a few microseconds, up to 4 ms, or 4 to 60 ms.
fn delay() -> impl Strategy<Value = u64> {
    (0u8..4, any::<u64>()).prop_map(|(kind, x)| {
        1_000
            * match kind {
                0 => 0,
                1 => x % 4,
                2 => x % 4_000,
                _ => 4_000 + x % 56_000,
            }
    })
}

/// What a dispatch logs: a plain event's id, or a wake's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fired {
    Plain(u64),
    Wake(usize),
}

#[derive(Default)]
struct SlotWorld {
    log: Vec<(u64, Fired)>,
    next_id: u64,
}

/// Handler rules both sides replay: a plain event whose id is a multiple
/// of 3 schedules a follow-up `id % 7` ms later (0 is a tie at its own
/// instant); an even slot's wake takes itself, an odd one's stays armed
/// at its instant until an op takes it.
#[derive(Clone, Copy)]
enum SlotEv {
    Plain(u64),
    Wake(usize),
}

impl TypedEvent<SlotWorld> for SlotEv {
    fn dispatch(self, w: &mut SlotWorld, ctx: &mut Ctx<'_, SlotWorld, Self>) {
        let now = ctx.now().as_nanos();
        match self {
            SlotEv::Plain(id) => {
                w.log.push((now, Fired::Plain(id)));
                if id.is_multiple_of(3) {
                    let next = w.next_id;
                    w.next_id += 1;
                    ctx.schedule_event_after(SimDuration::from_millis(id % 7), SlotEv::Plain(next));
                }
            }
            SlotEv::Wake(slot) => {
                w.log.push((now, Fired::Wake(slot)));
                if slot % 2 == 0 {
                    assert_eq!(ctx.take_due(slot), Some(false), "a dispatching wake is due");
                }
            }
        }
    }
}

/// The reference: every pending event and wake in plain vectors, the
/// earliest found by a scan over (time, seq). One counter numbers events
/// and arms alike, as the engine's does.
#[derive(Default)]
struct SlotModel {
    now: u64,
    seq: u64,
    events: Vec<(u64, u64, u64)>,
    /// Per slot: (at, seq, still queued).
    slots: [Option<(u64, u64, bool)>; SLOTS],
    log: Vec<(u64, Fired)>,
    next_id: u64,
}

impl SlotModel {
    fn schedule(&mut self, at: u64, id: u64) {
        self.events.push((at, self.seq, id));
        self.seq += 1;
        self.next_id = self.next_id.max(id + 1);
    }

    fn arm(&mut self, slot: usize, at: u64) -> Option<bool> {
        let at = at.max(self.now);
        if self.slots[slot].is_some_and(|(pending, ..)| at >= pending) {
            return None;
        }
        let replaced = self.slots[slot].is_some();
        self.slots[slot] = Some((at, self.seq, true));
        self.seq += 1;
        Some(replaced)
    }

    fn take_due(&mut self, slot: usize) -> Option<bool> {
        let (at, _, queued) = self.slots[slot]?;
        (at <= self.now).then(|| {
            self.slots[slot] = None;
            queued
        })
    }

    fn step(&mut self) -> bool {
        let event = (self.events.iter().enumerate()).map(|(i, &(at, seq, _))| ((at, seq), Err(i)));
        let wakes = (self.slots.iter().enumerate())
            .filter_map(|(s, w)| w.filter(|w| w.2).map(|(at, seq, _)| ((at, seq), Ok(s))));
        let Some(((at, _), which)) = event.chain(wakes).min() else {
            return false;
        };
        self.now = at;
        match which {
            Ok(slot) => {
                self.log.push((at, Fired::Wake(slot)));
                self.slots[slot] = (slot % 2 == 1).then_some((at, 0, false));
            }
            Err(i) => {
                let (_, _, id) = self.events.swap_remove(i);
                self.log.push((at, Fired::Plain(id)));
                if id.is_multiple_of(3) {
                    let next = self.next_id;
                    self.schedule(at + (id % 7) * 1_000_000, next);
                }
            }
        }
        true
    }

    fn run_to_completion(&mut self) {
        while self.step() {}
    }
}
